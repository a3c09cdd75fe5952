import pickle
from functools import partial
from itertools import product

import pytest

from epivariants import checks, varieties
from epivariants.core import CayleyTable, UnarySemigroup
from epivariants.corpus import load_corpus
from epivariants.epigroup import in_W_structural, is_completely_regular, pseudoinverse_map
from epivariants.search import semigroup_tables
from epivariants.variants import unary_variant
from epivariants.varieties import (
    Identity,
    IdentityParseError,
    e_identity,
    e_identity_alt,
    find_counterexample,
    in_E,
    in_V,
    in_W,
    parse_identity,
    parse_term,
    tdot,
    term_text,
    tprime,
    tvar,
    v_identity_1,
    v_identity_2,
    variety_test,
)

from _tables import UnboundVariable, corpus_through_order_5, eval_term

NULL2 = CayleyTable([[0, 0], [0, 0]])


def canonical(name):
    model = load_corpus(name)
    if isinstance(model, UnarySemigroup):
        return model
    return pseudoinverse_map(model)


def test_parse_term_shapes():
    assert parse_term("x") == ("var", "x")
    assert parse_term("x'") == ("prime", ("var", "x"))
    assert parse_term("x*y") == parse_term("xy") == ("dot", ("var", "x"), ("var", "y"))
    assert parse_term("x^3") == ("dot", ("dot", ("var", "x"), ("var", "x")), ("var", "x"))
    assert parse_term("(xy)'") == ("prime", ("dot", ("var", "x"), ("var", "y")))
    assert parse_term("x'^2") == ("dot", ("prime", ("var", "x")), ("prime", ("var", "x")))


def test_parse_errors():
    for bad in ("x^", "x =", "(x", "x+y", "x = y = z"):
        with pytest.raises(IdentityParseError):
            parse_identity(bad if "=" in bad else bad + " = x")


def test_parse_term_names_trailing_and_unexpected_tokens():
    with pytest.raises(IdentityParseError, match=r"^trailing tokens in 'x\)'$"):
        parse_term("x)")
    with pytest.raises(IdentityParseError, match="^unexpected token \"'\" in \"'x\"$"):
        parse_term("'x")
    # a parse error is bad input, as every other ValueError of an identity
    assert issubclass(IdentityParseError, ValueError)


def test_term_text_round_trip():
    for text in ("x'*x*x'", "(x*y)'*x", "x''", "x*(y*z)"):
        term = parse_term(text)
        assert parse_term(term_text(term)) == term


def test_eval_variable():
    s = canonical("z3.sgp")
    assert eval_term(tvar("x"), s, {"x": 2}) == 2
    with pytest.raises(UnboundVariable):
        eval_term(tvar("y"), s, {"x": 2})


def test_eval_on_w_witness():
    s = canonical("w_not_v1.sgp")
    term = parse_term("x'*x*x'")
    assert eval_term(term, s, {"x": 0}) == 2


def test_eval_on_z3():
    s = canonical("z3.sgp")
    term = parse_term("(x*y)'")
    assert eval_term(term, s, {"x": 1, "y": 1}) == 1


def test_satisfies_commute():
    for name in ("z3.sgp", "null2.sgp", "w_not_v1.sgp"):
        assert find_counterexample(canonical(name), parse_identity("x*x' = x'*x")) is None


def test_counterexample_is_lexicographically_first():
    s = canonical("w_not_v1.sgp")
    assert find_counterexample(s, parse_identity("x''*y = x*y")) == {"x": 0, "y": 1}


def test_trivial_satisfies_everything():
    one = UnarySemigroup(CayleyTable([[0]]), (0,))
    assert find_counterexample(one, parse_identity("x = y")) is None


def test_in_E_group():
    assert in_E(canonical("z3.sgp"), 1).holds
    assert in_E(canonical("s3.sgp"), 1).holds


def test_in_E_null():
    s = pseudoinverse_map(NULL2)
    assert not in_E(s, 1).holds
    assert in_E(s, 2).holds


def test_in_E_w_witness():
    assert in_E(canonical("w_not_v1.sgp"), 2).holds


@pytest.mark.parametrize("test", [in_E, in_V])
def test_variety_index_must_be_positive(test):
    with pytest.raises(ValueError, match="^n must be a positive integer$"):
        test(pseudoinverse_map(NULL2), 0)


@pytest.mark.parametrize("test, name", [(in_E, "E_1"), (in_V, "V_1")])
def test_variety_index_must_be_an_int(test, name):
    # the bases are cached on n, and True == 1.0 == 1 as keys; neither a
    # bool nor a float may reach or leave an entry, in any order of calls
    s = pseudoinverse_map(NULL2)
    for warm in (False, True):
        for n in (2.5, True, 1.0):
            with pytest.raises(ValueError, match="^n must be a positive integer$"):
                test(s, n)
        if not warm:
            assert test(s, 1).name == name


def test_in_E_monotone():
    for order in (1, 2, 3):
        for t in semigroup_tables(order):
            s = pseudoinverse_map(t)
            for n in (1, 2):
                if in_E(s, n).holds:
                    assert in_E(s, n + 1).holds


def test_in_V_census_references():
    for k in "abc":
        assert in_V(load_corpus(f"v1_nonvariant_{k}.sgp"), 1).holds


def test_in_V_w_witness_fails_with_witness():
    report = in_V(canonical("w_not_v1.sgp"), 1)
    assert not report.holds
    assert report.failing_identity.text == "x''*y = x*y"
    assert report.failing_assignment == {"x": 0, "y": 1}


def test_in_V_contains_completely_regular():
    for name in ("z2.sgp", "z3.sgp", "s3.sgp", "left_zero2.sgp", "semilattice2.sgp"):
        assert in_V(canonical(name), 1).holds


def test_in_W():
    assert in_W(pseudoinverse_map(NULL2)).holds
    assert in_W(canonical("w_not_v1.sgp")).holds
    assert in_W(canonical("s3.sgp")).holds


def test_in_W_requires_canonical_map():
    s = UnarySemigroup(NULL2, (0, 0), canonical=False)
    with pytest.raises(ValueError):
        in_W(s)


def test_in_W_structural():
    assert in_W_structural(load_corpus("z2.sgp"))
    assert in_W_structural(load_corpus("semilattice2.sgp"))
    assert in_W_structural(load_corpus("v1_nonvariant_a.sgp").base)
    # a nilpotent product keeps xy out of any subgroup
    nil = CayleyTable([[3, 2, 3, 3], [3, 3, 3, 3], [3, 3, 3, 3], [3, 3, 3, 3]])
    assert not in_W_structural(nil)


def test_in_W_agrees_with_structural():
    for order in (1, 2, 3):
        for t in semigroup_tables(order):
            assert in_W(pseudoinverse_map(t)).holds == in_W_structural(t)


@pytest.mark.parametrize(
    "order, counts",
    [
        (4, {"E1": 67, "V1": 107, "W": 109, "E2": 173, "V2": 186}),
        (5, {"E1": 353, "V1": 623, "W": 647, "E2": 1668, "V2": 1864}),
    ],
)
def test_chain_counts(order, counts):
    # the classes of each order in each variety of E_1 < V_1 < W < E_2 < V_2,
    # with E_1 the completely regular ones
    models = [s for s, _ in corpus_through_order_5() if s.order == order]
    assert {name: sum(variety_test(name)(s).holds for s in models) for name in counts} == counts
    assert sum(is_completely_regular(s.base) for s in models) == counts["E1"]


# --------------------------------------------------------------------------
# find_counterexample's compiled kernel against a brute force over eval_term


def brute_force_counterexample(s, identity):
    names = identity.variables
    for values in product(range(s.order), repeat=len(names)):
        env = dict(zip(names, values))
        if eval_term(identity.lhs, s, env) != eval_term(identity.rhs, s, env):
            return env
    return None


def kernel_models():
    """Every table of order <= 4 with its pseudoinverse map and each of its
    unary variants, then every unary map on every table of order <= 3."""
    models = []
    for order in (1, 2, 3, 4):
        for t in semigroup_tables(order):
            s = pseudoinverse_map(t)
            models.append(s)
            models.extend(unary_variant(s, c) for c in range(order))
    for order in (1, 2, 3):
        for t in semigroup_tables(order):
            models.extend(UnarySemigroup(t, u) for u in product(range(order), repeat=order))
    return models


KERNEL_IDENTITIES = (
    [getattr(varieties, name) for name in sorted(dir(varieties)) if name.startswith("EQ_")]
    + [f(n) for n in (1, 2, 3, 4) for f in (e_identity, e_identity_alt, v_identity_1, v_identity_2)]
    + [parse_identity("x*y*z = z*y*x"), parse_identity("(x*y*z)' = z'*y'*x'")]
)


def test_kernel_matches_brute_force():
    models = kernel_models()
    assert len(models) == 1722
    assert len(KERNEL_IDENTITIES) == 23
    for s in models:
        for identity in KERNEL_IDENTITIES:
            got = find_counterexample(s, identity)
            expected = brute_force_counterexample(s, identity)
            # the same assignment, keys in the same order
            assert (got is None) == (expected is None), (s, identity)
            if got is not None:
                assert list(got.items()) == list(expected.items()), (s, identity)


def test_variety_criteria_agree_on_kernel_models():
    # every equivalence check_oracles runs, also on free unary maps
    for s in kernel_models():
        assert checks._variety_disagreements(s, run_w=s.canonical) == [], s


def test_kernel_takes_no_text_from_the_identity():
    # variable names that are not Python identifiers, one of them Python code
    a, b = tvar("a b"), tvar("__import__('os')")
    identity = Identity(tdot(a, tprime(b)), tdot(tprime(b), a))
    assert identity.variables == ["__import__('os')", "a b"]
    for s in kernel_models()[:300]:
        got = find_counterexample(s, identity)
        expected = brute_force_counterexample(s, identity)
        assert got == expected
        if got is not None:
            assert list(got) == identity.variables


def brute_force_report(s, basis):
    """(holds, failing identity, failing assignment as a list of items): the
    first identity of the basis that fails, and its first assignment."""
    for identity in basis:
        env = brute_force_counterexample(s, identity)
        if env is not None:
            return False, identity, list(env.items())
    return True, None, None


def report_triple(report):
    env = report.failing_assignment
    return report.holds, report.failing_identity, None if env is None else list(env.items())


def variety_bases():
    """Each membership test with the basis it reads, in its order."""
    p, c = varieties.EQ_PINV_FIXED, varieties.EQ_COMMUTE
    for n in (1, 2, 3, 4):
        yield partial(in_E, n=n), (p, c, e_identity(n))
        yield partial(in_V, n=n), (p, c, v_identity_1(n), v_identity_2(n))
    yield in_W, (
        p,
        c,
        varieties.EQ_DOUBLE_PRIME,
        varieties.EQ_SQUARE_PRIME,
        varieties.EQ_PRODUCT_STABLE,
    )


def test_basis_kernel_reports_first_failure_like_brute_force():
    # one kernel runs the whole basis; the report names the first failing
    # identity in basis order and that identity's first assignment
    failing = set()
    for s in kernel_models():
        for test, basis in variety_bases():
            if test is in_W and not s.canonical:
                continue
            expected = brute_force_report(s, basis)
            assert report_triple(test(s)) == expected, (s, basis)
            if not expected[0]:
                failing.add(basis.index(expected[1]))
    # the failures reach every position of a basis
    assert failing == {0, 1, 2, 3, 4}


def test_kernel_cached_by_value():
    varieties._compiled.cache_clear()
    varieties._e_basis.cache_clear()
    s = pseudoinverse_map(NULL2)
    # E_2's basis is compiled on the first call and never looked up again;
    # its members share one report, a failure builds its own
    holds = [in_E(s, 2) for _ in range(3)]
    info = varieties._compiled.cache_info()
    assert (info.misses, info.hits) == (1, 0)
    assert holds[0] is holds[1] is holds[2] == varieties.VarietyReport("E_2", True)
    fails = [in_E(s, 1) for _ in range(2)]
    assert fails[0] == fails[1] and fails[0] is not fails[1] and not fails[0].holds
    assert varieties._compiled.cache_info().misses == 2
    # find_counterexample looks its basis of one identity up on every call
    varieties._compiled.cache_clear()
    for _ in range(3):
        find_counterexample(s, e_identity(2))
        find_counterexample(s, parse_identity("x*x' = x'*x"))
    info = varieties._compiled.cache_info()
    assert (info.misses, info.hits) == (2, 4)


def test_equal_identities_hash_equal_and_share_a_kernel():
    built = e_identity(2)
    parsed = parse_identity("x^3*x' = x^2")
    copied = pickle.loads(pickle.dumps(built))
    assert parsed is not built and copied is not built
    assert parsed == built == copied
    assert hash(parsed) == hash(built) == hash(copied) == hash((built.lhs, built.rhs))
    assert {built: 1}[parsed] == 1
    assert parsed != e_identity(1) and hash(parsed) != hash(e_identity(1))
    compiled = varieties._compiled
    assert compiled((parsed,)) is compiled((built,)) is compiled((copied,))
    commute = parse_identity("x*x' = x'*x")
    assert compiled((commute, parsed)) is compiled((varieties.EQ_COMMUTE, copied))
    assert compiled((commute, parsed)) is not compiled((parsed, commute))


DEEP = parse_identity("x^300 = x^2")
# identities nested past Python's bound of about 200 brackets, whose kernels
# bind subterms to locals: in left operands (DEEP), in right operands (the
# right-nested product, 240 deep, and x'^200*(y*x')^150) and in the rhs
DEEP_IDENTITIES = (
    DEEP,
    parse_identity("x*" + "(y'*" * 239 + "y" + ")" * 239 + " = y*x"),
    parse_identity("x'^200*(y*x')^150 = (x^120)''*y"),
)


def test_kernel_runs_deep_terms():
    for name in ("z3.sgp", "null2.sgp", "w_not_v1.sgp"):
        s = canonical(name)
        for identity in DEEP_IDENTITIES:
            assert find_counterexample(s, identity) == brute_force_counterexample(s, identity)


def test_kernel_runs_bases_built_past_the_parse_bound():
    # the constructors build E_600 and V_600 about 600 levels deep, past
    # what parse_term takes and what in_E and in_V accept, and the kernel
    # runs their bases; each deep identity also runs alone on every unary
    # map, where it fails too
    p, c = varieties.EQ_PINV_FIXED, varieties.EQ_COMMUTE
    bases = [
        (partial(varieties._report, prepared=varieties._prepared("", basis)), basis)
        for basis in [(p, c, e_identity(600)), (p, c, v_identity_1(600), v_identity_2(600))]
    ]
    failing = set()
    for name in ("z3.sgp", "null2.sgp"):
        s = canonical(name)
        for test, basis in bases:
            assert report_triple(test(s)) == brute_force_report(s, basis) == (True, None, None)
        for u in product(range(s.order), repeat=s.order):
            model = UnarySemigroup(s.base, u)
            for test, basis in bases:
                assert report_triple(test(model)) == brute_force_report(model, basis), model
                for identity in basis[2:]:
                    expected = brute_force_counterexample(model, identity)
                    assert find_counterexample(model, identity) == expected, (model, identity)
                    if expected is not None:
                        failing.add(identity)
    assert failing == {e_identity(600), v_identity_1(600), v_identity_2(600)}


def test_kernel_runs_identities_past_twenty_variables():
    # Python nests at most 20 blocks, so more variables share one loop over
    # their product, in the same order
    semilattice = UnarySemigroup(CayleyTable([[0, 0], [0, 1]]), (0, 1))
    trivial = UnarySemigroup(CayleyTable([[0]]), (0,))
    for k in (20, 21, 26):
        letters = "abcdefghijklmnopqrstuvwxyz"[:k]
        identity = parse_identity(f"{letters} = {letters[-6:]}")
        got = find_counterexample(semilattice, identity)
        assert got == brute_force_counterexample(semilattice, identity)
        assert list(got.items()) == [(v, int(v in letters[-6:])) for v in letters]
        assert find_counterexample(trivial, identity) is None


def test_parse_refuses_terms_nested_past_the_bound():
    # x^k counts as k - 1 products and a pair of parentheses as a level; the
    # deepest term accepted still runs on eval_term
    bound = varieties.MAX_TERM_DEPTH
    deepest = parse_identity(f"x^{bound + 1} = x")
    s = canonical("z3.sgp")
    assert find_counterexample(s, deepest) == brute_force_counterexample(s, deepest) == {"x": 1}
    assert parse_term("(" * bound + "x" + ")" * bound) == tvar("x")
    for text in (
        f"x^{bound + 2}",
        "x" * (bound + 2),
        "(" * (bound + 1) + "x" + ")" * (bound + 1),
        f"(x^{bound // 2})^{bound // 2 + 2}",
        "x^999999999999",
    ):
        with pytest.raises(IdentityParseError, match=f"nested deeper than {bound} levels"):
            parse_term(text)


def test_variety_names_are_bounded_by_the_parse_depth():
    # E_n's deepest term, written out, nests n + 1 levels and V_n's n + 2:
    # the names are accepted exactly as far as parse_term takes the basis
    # typed in, and refused past it by variety_test, which builds no term
    bound = varieties.MAX_TERM_DEPTH
    for family, deepest, last in (("E", e_identity, bound - 1), ("V", v_identity_2, bound - 2)):
        parse_identity(deepest(last).text)
        with pytest.raises(IdentityParseError, match=f"nested deeper than {bound} levels"):
            parse_identity(deepest(last + 1).text)
        assert variety_test(f"{family}{last}").keywords == {"n": last}
    s = canonical("z3.sgp")
    assert variety_test("E499")(s).holds and variety_test("V498")(s).holds
    for name in ("E500", "V499", "E2000", "V990", "E0" + "9" * 5000):
        with pytest.raises(ValueError, match=f"^the basis of {name} nests terms deeper than "
                                             f"the bound of {bound} levels$"):
            variety_test(name)


@pytest.mark.parametrize("test, family, last", [(in_E, "E", 499), (in_V, "V", 498)])
def test_in_e_and_in_v_take_the_bound_of_the_names(monkeypatch, test, family, last):
    # the bound variety_test puts on E<n> and V<n> holds for the functions,
    # refused before any term is built: E_5000 would exhaust the stack
    s = canonical("z3.sgp")
    assert test(s, last).holds
    for builder in ("e_identity", "v_identity_1", "v_identity_2"):
        monkeypatch.setattr(varieties, builder, lambda n: pytest.fail(f"built a term at {n}"))
    for n in (last + 1, 5000):
        with pytest.raises(ValueError, match=f"^the basis of {family}{n} nests terms deeper than "
                                             f"the bound of {varieties.MAX_TERM_DEPTH} levels$"):
            test(s, n)


def _nested_squares(levels, base="x"):
    # ((base)^2)^2 ... : one level of depth per square, twice the size
    return "(" * levels + base + ")^2" * levels


def test_parse_refuses_terms_expanding_past_the_size_bound():
    # x^k has k times the variable occurrences and primes of x; the bound is
    # met while parsing, before any walker visits the shared subterms once
    # per copy
    bound = varieties.MAX_TERM_SIZE
    assert bound < 2**14
    widest = parse_identity(f"{_nested_squares(13)} = x")
    assert widest.variables == ["x"]
    assert term_text(widest.lhs).count("x") == 2**13
    primed = parse_term(_nested_squares(12, "x'"))
    assert term_text(primed).count("'") == 2**12
    message = f"more than {bound} variable occurrences and primes"
    for text in (
        _nested_squares(14),
        _nested_squares(30),
        f"(x^100)^{bound // 100 + 1}",
        # 13 squares of x' hold 2**14 symbols, of x only 2**13
        _nested_squares(13, "x'"),
        # 527 characters whose 3.9-million-character expansion the walkers
        # would take seconds over
        _nested_squares(13, "x" + "'" * 470),
    ):
        with pytest.raises(IdentityParseError, match=message):
            parse_term(text)
    # terms under both bounds still parse; x^501 is the deepest power
    assert parse_term("x^501")[0] == "dot"
    assert term_text(parse_term(f"(x^100)^{bound // 100}")).count("x") == bound


def test_exponent_is_ascii_digits():
    # the rule of .sgp integers: isdigit() also takes superscripts, which
    # int() refuses, and other scripts' digits, which it reads
    for text in ("x^²", "x^٣", "x^３"):
        with pytest.raises(IdentityParseError, match="'\\^' needs a numeric exponent"):
            parse_term(text)
    with pytest.raises(IdentityParseError, match="exponent 0 is not positive"):
        parse_term("x^0")
    # past int()'s limit on digits: an input error, not Python's ValueError
    with pytest.raises(IdentityParseError, match="exponent of 5000 digits is too long"):
        parse_term("x^" + "9" * 5000)
    assert parse_term("x^007") == parse_term("x^7")


def test_basis_with_one_deep_identity_reports_like_brute_force():
    # one identity nests past Python's bound on brackets: the same report as
    # the brute force, whichever identity fails first
    basis = (varieties.EQ_PINV_FIXED, DEEP, parse_identity("x*y = y*x"))
    failing = set()
    for s in kernel_models()[::5]:
        expected = brute_force_report(s, basis)
        report = varieties._report(s, varieties._prepared("B", basis))
        assert report_triple(report) == expected, s
        failing.add(expected[1])
    assert failing == {None, *basis}


@pytest.mark.parametrize("unary", [(0, 5), (2, 0), (0, -1)])
def test_kernel_bad_unary_map_behaves_like_eval_term(unary):
    # an entry out of range raises the oracle's exception at the same
    # assignment; a negative one indexes from the end in both
    s = UnarySemigroup(CayleyTable([[0, 1], [1, 0]]), unary)
    shallow = (parse_identity("x*x' = x'*x"), parse_identity("x'' = x"))
    for identity in shallow + DEEP_IDENTITIES:
        try:
            expected = brute_force_counterexample(s, identity)
        except IndexError as exc:
            with pytest.raises(IndexError) as got:
                find_counterexample(s, identity)
            assert str(got.value) == str(exc)
        else:
            # the shallow identities read the entry out of range
            assert unary == (0, -1) or identity in DEEP_IDENTITIES
            assert find_counterexample(s, identity) == expected


class Recording:
    """A sequence that logs every subscript, to compare evaluation orders."""

    def __init__(self, name, items, log):
        self.name, self.items, self.log = name, items, log

    def __getitem__(self, i):
        self.log.append((self.name, i))
        return self.items[i]

    def __len__(self):
        return len(self.items)


def recording_model(table, unary, log):
    s = UnarySemigroup(CayleyTable(table), unary)
    rows = tuple(Recording(f"T{a}", row, log) for a, row in enumerate(table))
    object.__setattr__(s.base, "table", Recording("T", rows, log))
    object.__setattr__(s, "unary", Recording("U", tuple(unary), log))
    return s


@pytest.mark.parametrize("unary", [(2, 0, 1), (1, 2, 0), (0, 1, 3)])
def test_kernel_evaluates_in_eval_term_order(unary):
    # the same cells and unary images, read in the same order, up to the
    # same counterexample or exception
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    for identity in [*KERNEL_IDENTITIES, *DEEP_IDENTITIES]:
        logs = []
        for fn in (brute_force_counterexample, find_counterexample):
            log = []
            try:
                result = fn(recording_model(table, unary, log), identity)
            except IndexError:
                result = "IndexError"
            logs.append((log, result))
        assert logs[0] == logs[1], identity
