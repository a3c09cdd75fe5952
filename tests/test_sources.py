import ast
import warnings
from importlib import import_module
from pathlib import Path
from types import ModuleType

import epivariants

PACKAGE = Path(epivariants.__file__).parent


def test_sources_compile_without_warnings():
    # compile() parses the text itself, so cached .pyc files cannot hide a warning
    sources = sorted(Path(epivariants.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


def test_epigroup_does_not_import_green():
    # epigroup_data reads powers; Green's relations are the oracle's business
    tree = ast.parse((Path(epivariants.__file__).parent / "epigroup.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported if name.split(".")[-1] == "green"}, imported


def test_no_module_builds_s1():
    # green and primary conjugacy read aS^1, S^1a and the pairs (xy, yx) off
    # the table itself; S^1 is built only by the tests' oracles, so no module
    # of the package defines, imports, calls or names adjoin_identity.  The
    # recursive term evaluator is a test oracle too: the package evaluates
    # identities only through the compiled kernel, and never names eval_term
    users = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
            if name in ("adjoin_identity", "eval_term"):
                users.add((path.stem, name))
    assert not users, users


def test_checks_enumerate_tables_only_in_the_corpus_and_the_oracle_sweep():
    # the checks read one corpus: only _corpus and check_oracles (its brute
    # force comparison and its isomorphism sweep) name semigroup_tables
    tree = ast.parse((Path(epivariants.__file__).parent / "checks.py").read_text())
    users = set()
    for top in tree.body:
        if isinstance(top, ast.ImportFrom):
            continue
        for node in ast.walk(top):
            name = getattr(node, "id", getattr(node, "attr", None))
            if isinstance(node, (ast.Name, ast.Attribute)) and name == "semigroup_tables":
                users.add(getattr(top, "name", "<module>"))
    assert users == {"_corpus", "check_oracles"}, users


def test_cli_and_checks_decide_each_rule_once():
    # the variant builders alone test the sandwich element's range, _load
    # always validates, an identity's parse error is a ValueError to the
    # CLI, and only check_w_witness reads the shipped W-witness
    cli = ast.parse((PACKAGE / "cli.py").read_text())
    for node in ast.walk(cli):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            assert not any(getattr(op, "attr", None) == "at" for op in operands), ast.unparse(node)
        if isinstance(node, ast.FunctionDef) and node.name == "_load":
            assert [arg.arg for arg in node.args.args] == ["path"]
        if isinstance(node, (ast.Name, ast.alias)):
            assert "IdentityParseError" not in (getattr(node, "id", None), getattr(node, "name", None))
    readers = set()
    for top in ast.parse((PACKAGE / "checks.py").read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and node.value == "w_not_v1.sgp":
                readers.add(getattr(top, "name", "<module>"))
    assert readers == {"check_w_witness"}, readers


def test_every_unary_model_the_package_builds_states_its_flag():
    # each UnarySemigroup call says whether its map is the pseudoinverse
    unflagged = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for call in ast.walk(top):
                if (
                    isinstance(call, ast.Call)
                    and getattr(call.func, "id", getattr(call.func, "attr", None)) == "UnarySemigroup"
                    and not any(keyword.arg == "canonical" for keyword in call.keywords)
                ):
                    unflagged.append((path.stem, getattr(top, "name", "<module>")))
    assert not unflagged, unflagged


def test_checks_read_the_flag_only_of_shipped_files():
    # the checks say which criteria run on which models; only the two
    # checks of shipped files read the canonical flag
    readers = set()
    for top in ast.parse((PACKAGE / "checks.py").read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "canonical":
                readers.add(getattr(top, "name", "<module>"))
    assert readers == {"check_v1_census", "check_w_witness"}, readers


def test_search_is_pure_enumeration():
    # the V_1 census lives in its check: the enumerator neither matches
    # models against references nor reads the shipped corpus
    source = (Path(epivariants.__file__).parent / "search.py").read_text()
    assert "find_isomorphism" not in source
    assert "load_corpus" not in source


def _called(node):
    """The names called anywhere inside node."""
    return [
        getattr(call.func, "id", getattr(call.func, "attr", None))
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
    ]


def test_table_search_sets_cells_in_one_walk():
    # semigroup_tables sets the root cell and hands every later cell to one
    # _fill call, whose prefix test also screens the first row: no loop of
    # semigroup_tables walks cells, it runs no lex-leader walk of its own,
    # and the module runs the prefix test (_lex_leader with rows=) in one place
    tree = ast.parse((PACKAGE / "search.py").read_text())
    tables = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "semigroup_tables"
    )
    calls = _called(tables)
    assert calls.count("_fill") == 1 and calls.count("_assign") == 1, calls
    assert "_lex_leader" not in calls, calls
    loops = (ast.For, ast.While, ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)
    for node in ast.walk(tables):
        if isinstance(node, loops):
            assert not {"_fill", "_assign"} & set(_called(node)), ast.unparse(node)
    prefix_tests = [
        call for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", None) == "_lex_leader"
        and any(keyword.arg == "rows" for keyword in call.keywords)
    ]
    assert len(prefix_tests) == 1, [ast.unparse(call) for call in prefix_tests]


MARK = "_validated"  # the attribute validate sets on a table that passes
SETTERS = ("setattr", "__setattr__", "delattr", "__delattr__")


def _mark_uses(tree):
    """(qualified name of the enclosing def, "set" | "read") for each use of
    the mark: an attribute store or delete, a keyword argument or the name
    argument of a setter call sets it; any other use reads it."""
    uses = []
    setter_args = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute) and node.attr == MARK:
            uses.append((scope, "read" if isinstance(node.ctx, ast.Load) else "set"))
        elif isinstance(node, ast.keyword) and node.arg == MARK:
            uses.append((scope, "set"))
        elif isinstance(node, ast.Call):
            callee = getattr(node.func, "attr", getattr(node.func, "id", None))
            for arg in node.args:
                if callee in SETTERS and isinstance(arg, ast.Constant) and arg.value == MARK:
                    uses.append((scope, "set"))
                    setter_args.add(id(arg))
        elif isinstance(node, ast.Constant) and node.value == MARK and id(node) not in setter_args:
            uses.append((scope, "read"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return uses


def test_validated_mark_is_set_and_read_only_where_sound():
    # variant skips validate on a table that carries the mark, so only
    # validate (after its full check) and variant (on the variant of a
    # marked table) may set it, and only variant may read it
    uses = set()
    for path in sorted(Path(epivariants.__file__).parent.glob("*.py")):
        uses.update((path.stem, *use) for use in _mark_uses(ast.parse(path.read_text())))
    assert uses == {
        ("core", "validate", "set"),
        ("variants", "variant", "set"),
        ("variants", "variant", "read"),
    }


def _permutations_uses(tree):
    """(qualified name of the enclosing def, kind) for each import of
    itertools.permutations and each use of the name."""
    uses = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            if any(alias.name == "permutations" for alias in node.names):
                uses.append((scope, "import"))
        elif isinstance(node, ast.Name) and node.id == "permutations":
            uses.append((scope, "use"))
        elif isinstance(node, ast.Attribute) and node.attr == "permutations":
            uses.append((scope, "use"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return uses


def test_relabelings_are_enumerated_only_by_the_lex_leader_routine():
    # canonical form has one implementation: core._lex_leader walks the
    # relabelings that core._relabeling_entries lists, and nothing else in
    # the package enumerates them
    uses = set()
    for path in sorted(Path(epivariants.__file__).parent.glob("*.py")):
        uses.update((path.stem, *use) for use in _permutations_uses(ast.parse(path.read_text())))
    assert uses == {
        ("core", "", "import"),
        ("core", "_relabeling_entries", "use"),
    }


def _relative_imports(tree):
    """(module, nested) for each package-relative import: the module it
    reads (__init__ for a name that ``from . import`` takes from the package
    itself), and whether it sits inside a def or a class."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    found = []

    def visit(node, nested):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            nested = True
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            found.extend((name if name in modules else "__init__", nested) for name in names)
        for child in ast.iter_child_nodes(node):
            visit(child, nested)

    visit(tree, False)
    return found


def test_no_package_import_inside_a_def():
    # a function that needs a module built on top of its own sits in the
    # wrong layer: no package import is deferred into a def
    deferred = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for module, nested in _relative_imports(ast.parse(path.read_text())):
            if nested:
                deferred.add((path.stem, module))
    assert not deferred, deferred


def test_package_import_graph_is_acyclic():
    # peel off, again and again, the modules that import none of the modules
    # left; the modules of a cycle are never peeled
    left = {}
    for path in sorted(PACKAGE.glob("*.py")):
        imports = _relative_imports(ast.parse(path.read_text()))
        left[path.stem] = {module for module, nested in imports if not nested}
    while True:
        peeled = [module for module, imported in left.items() if not imported & left.keys()]
        if not peeled:
            break
        for module in peeled:
            del left[module]
    assert not left, left


# every public top-level name, by the module that defines it
HOMES = {
    "core": {
        "CapExceeded", "CayleyTable", "EntryOutOfRange", "NotAssociative", "SemigroupError",
        "UnarySemigroup", "canonical_form", "find_isomorphism", "identity_of", "validate",
    },
    "green": {"GreenStructure", "green", "idempotents", "is_group_h_class"},
    "varieties": {
        "Identity", "VarietyReport", "find_counterexample", "in_E", "in_V", "in_W",
        "parse_identity", "parse_term",
    },
    "variants": {"check_pseudoinverse_transport", "star", "unary_variant", "variant"},
    "conjugacy": {"ConjugacyReport", "check_transitivity"},
    "epigroup": {
        "EpigroupData", "epigroup_data", "in_W_structural", "is_completely_regular",
        "pseudoinverse_map", "verify_epigroup_identities",
    },
    "search": {"count_semigroups", "enumerate_models", "is_variant_of_cr", "semigroup_tables"},
    "corpus": {"corpus_names", "emit_semigroup", "load_corpus", "load_semigroup", "parse_semigroup"},
}


def test_public_names_resolve_to_their_home_modules():
    # a move between modules can neither drop an export nor shadow one
    # with a same-named object from elsewhere
    public = {
        name for name, obj in vars(epivariants).items()
        if not name.startswith("_") and not isinstance(obj, ModuleType)
    }
    assert public == set().union(*HOMES.values())
    for home, names in HOMES.items():
        module = import_module(f"epivariants.{home}")
        for name in names:
            obj = getattr(epivariants, name)
            assert obj is getattr(module, name), name
            assert obj.__module__ == module.__name__, name
