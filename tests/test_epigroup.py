from itertools import product as iproduct

from epivariants.core import CayleyTable, UnarySemigroup
from epivariants.corpus import load_corpus
from epivariants.epigroup import (
    element_index,
    epigroup_data,
    is_completely_regular,
    pseudoinverse,
    pseudoinverse_map,
    verify_epigroup_identities,
)
from epivariants.green import green, is_group_h_class
from epivariants.search import semigroup_tables
from epivariants.varieties import e_identity, find_counterexample, parse_identity

NULL2 = CayleyTable([[0, 0], [0, 0]])
W_WITNESS = CayleyTable([[2, 3, 2, 2], [1, 1, 1, 1], [2, 2, 2, 2], [3, 3, 3, 3]])


def index_oracle(t, a):
    # oracle: walk powers directly and ask the Green machinery
    g = green(t)
    p, k = a, 1
    while not is_group_h_class(g, t, p):
        p = t.table[p][a]
        k += 1
    return k


def test_element_index():
    z3 = load_corpus("z3.sgp")
    assert all(element_index(z3, a) == 1 for a in range(3))
    assert element_index(NULL2, 1) == 2 == index_oracle(NULL2, 1)
    assert element_index(W_WITNESS, 0) == 2 == index_oracle(W_WITNESS, 0)


def test_pseudoinverse_group_inversion():
    z3 = load_corpus("z3.sgp")
    assert pseudoinverse_map(z3).unary == (0, 2, 1)
    z2 = load_corpus("z2.sgp")
    assert pseudoinverse_map(z2).unary == (0, 1)


def test_pseudoinverse_w_witness():
    assert pseudoinverse(W_WITNESS, 0) == 2
    assert pseudoinverse_map(W_WITNESS).unary == (2, 1, 2, 3)


def test_pseudoinverse_census_references():
    for k in "abc":
        ref = load_corpus(f"v1_nonvariant_{k}.sgp")
        assert pseudoinverse_map(ref.base).unary == (1, 1, 2, 3)
        assert ref.canonical


def test_pseudoinverse_null():
    assert pseudoinverse_map(NULL2).unary == (0, 0)


def test_is_completely_regular():
    assert is_completely_regular(load_corpus("z3.sgp"))
    assert is_completely_regular(load_corpus("s3.sgp"))
    assert not is_completely_regular(NULL2)
    assert not is_completely_regular(W_WITNESS)


def test_verify_identities_canonical_passes():
    for name in ("z2.sgp", "z3.sgp", "null2.sgp", "w_not_v1.sgp"):
        model = load_corpus(name)
        t = model.base if isinstance(model, UnarySemigroup) else model
        for ident, env in verify_epigroup_identities(pseudoinverse_map(t)):
            assert env is None, f"{name}: {ident} fails at {env}"


def test_verify_identities_swapped_unary_fails():
    z2 = load_corpus("z2.sgp")
    s = UnarySemigroup(z2, (1, 0))
    results = verify_epigroup_identities(s)
    ident, env = results[0]
    assert ident.text == "x'*x*x' = x'"
    assert env == {"x": 0}


PSEUDOINVERSE_TEXTS = [
    "x'*x*x' = x'",
    "x*x' = x'*x",
    "x''' = x'",
    "x*x'*x = x''",
    "(x*y)'*x = x*(y*x)'",
]


def test_verify_identities_list_and_order():
    s = pseudoinverse_map(NULL2)
    first = [ident for ident, _ in verify_epigroup_identities(s)]
    texts = PSEUDOINVERSE_TEXTS + ["(x^2)' = x'^2", "(x^3)' = x'^3"]
    assert first == [parse_identity(text) for text in texts]
    # parsed once, not on every call
    again = [ident for ident, _ in verify_epigroup_identities(s)]
    assert all(a is b for a, b in zip(first, again))
    other = [ident for ident, _ in verify_epigroup_identities(s, primes=[5, 2])]
    texts = PSEUDOINVERSE_TEXTS + ["(x^5)' = x'^5", "(x^2)' = x'^2"]
    assert other == [parse_identity(text) for text in texts]


def test_verify_identities_trivial():
    one = UnarySemigroup(CayleyTable([[0]]), (0,))
    assert all(env is None for _, env in verify_epigroup_identities(one))


def test_index_matches_equational_criterion():
    # least n with x^{n+1} x' = x^n equals the structural index
    for order in (1, 2, 3):
        for t in semigroup_tables(order):
            s = pseudoinverse_map(t)
            data = epigroup_data(t)
            for a in range(order):
                for n in range(1, order + 2):
                    powered = a
                    for _ in range(n - 1):
                        powered = t.table[powered][a]
                    lhs = t.table[t.table[powered][a]][s.unary[a]]
                    if lhs == powered:
                        assert n == data.index[a]
                        break


def test_xprime_x_is_idempotent():
    for order in (1, 2, 3):
        for t in semigroup_tables(order):
            u = pseudoinverse_map(t).unary
            for x in range(order):
                e = t.table[u[x]][x]
                assert t.table[e][e] == e


def test_canonical_unary_is_unique_solution():
    # over all unary maps, only the pseudoinverse satisfies the two fixed
    # identities together with x^{n+1} x' = x^n for n = order
    fixed = [parse_identity("x'*x*x' = x'"), parse_identity("x*x' = x'*x")]
    for order in (1, 2, 3):
        for t in semigroup_tables(order):
            e_n = e_identity(order)
            pinv = pseudoinverse_map(t).unary
            solutions = []
            for unary in iproduct(range(order), repeat=order):
                s = UnarySemigroup(t, unary)
                if all(find_counterexample(s, i) is None for i in fixed + [e_n]):
                    solutions.append(unary)
            assert solutions == [pinv]
