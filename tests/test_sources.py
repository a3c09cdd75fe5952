import ast
import warnings
from pathlib import Path

import epivariants


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
    # of the package defines, imports, calls or names adjoin_identity
    users = set()
    for path in sorted(Path(epivariants.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
            if name == "adjoin_identity":
                users.add(path.stem)
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
