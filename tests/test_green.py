import pytest

from epivariants.core import CayleyTable
from epivariants.corpus import load_corpus
from epivariants.checks import _green_disagreements
from epivariants.green import green, idempotents, is_group_h_class
from epivariants.search import semigroup_tables
from epivariants.variants import variant

from _tables import adjoin_identity, closure, relabel

LEFT_ZERO = CayleyTable([[0, 0], [1, 1]])
NULL2 = CayleyTable([[0, 0], [0, 0]])
W_WITNESS = CayleyTable([[2, 3, 2, 2], [1, 1, 1, 1], [2, 2, 2, 2], [3, 3, 3, 3]])


def principal_ideals(t, a):
    # oracle: aS^1, S^1a computed from the definition
    s1 = adjoin_identity(t).table
    m = len(s1)
    right = {a} | {s1[a][x] for x in range(m)}
    left = {a} | {s1[x][a] for x in range(m)}
    return right, left


def test_group_single_classes():
    z3 = load_corpus("z3.sgp")
    g = green(z3)
    for rel in (g.r_class, g.l_class, g.h_class, g.d_class, g.j_class):
        assert set(rel) == {0}


def test_left_zero_classes():
    g = green(LEFT_ZERO)
    r0, l0 = principal_ideals(LEFT_ZERO, 0)
    r1, l1 = principal_ideals(LEFT_ZERO, 1)
    assert (r0 == r1) == (g.r_class[0] == g.r_class[1])
    assert (l0 == l1) == (g.l_class[0] == g.l_class[1])
    # xy = x: right ideals are singletons, left ideals are everything
    assert g.r_class[0] != g.r_class[1]
    assert g.l_class[0] == g.l_class[1]


def test_null_semigroup_classes():
    g = green(NULL2)
    r0, _ = principal_ideals(NULL2, 0)
    r1, _ = principal_ideals(NULL2, 1)
    assert r0 == {0} and r1 == {0, 1}
    assert g.h_class[0] != g.h_class[1]
    assert g.r_class[0] != g.r_class[1]
    assert g.l_class[0] != g.l_class[1]


def test_is_group_h_class():
    z3 = load_corpus("z3.sgp")
    g = green(z3)
    assert is_group_h_class(g, 0)
    g2 = green(NULL2)
    assert not is_group_h_class(g2, 1)
    gw = green(W_WITNESS)
    assert is_group_h_class(gw, 2)
    assert not is_group_h_class(gw, 0)


def test_idempotents():
    assert idempotents(load_corpus("z3.sgp")) == {0}
    assert idempotents(W_WITNESS) == {1, 2, 3}
    a = load_corpus("v1_nonvariant_a.sgp")
    assert idempotents(a.base) == {1, 2, 3}


def test_class_maps_iso_invariant():
    from itertools import permutations

    g = green(W_WITNESS)
    for p in permutations(range(4)):
        gp = green(relabel(W_WITNESS, p))
        for a in range(4):
            for b in range(4):
                assert (g.h_class[a] == g.h_class[b]) == (gp.h_class[p[a]] == gp.h_class[p[b]])
                assert (g.j_class[a] == g.j_class[b]) == (gp.j_class[p[a]] == gp.j_class[p[b]])


def _ids(rel):
    # class ids numbered by smallest member, as green numbers them
    ids = {}
    return tuple(ids.setdefault(min(b for b in range(len(rel)) if rel[a][b]), len(ids))
                 for a in range(len(rel)))


def green_oracle(t):
    # oracle: principal ideals over S^1 by loops from the definition, H as
    # R and L, D by scanning for a z with a R z L b
    n = t.order
    s1 = adjoin_identity(t).table
    m = len(s1)
    right = [{a} | {s1[a][x] for x in range(m)} for a in range(n)]
    left = [{a} | {s1[x][a] for x in range(m)} for a in range(n)]
    two = [{a} | {s1[x][s1[a][y]] for x in range(m) for y in range(m)} for a in range(n)]
    r = [[right[a] == right[b] for b in range(n)] for a in range(n)]
    l = [[left[a] == left[b] for b in range(n)] for a in range(n)]
    j = [[two[a] == two[b] for b in range(n)] for a in range(n)]
    h = [[r[a][b] and l[a][b] for b in range(n)] for a in range(n)]
    d = [[any(r[a][z] and l[z][b] for z in range(n)) for b in range(n)] for a in range(n)]
    idem = {e for e in range(n) if t.table[e][e] == e}
    h_ids = _ids(h)
    groups = {h_ids[a] for a in range(n) if any(h[a][e] for e in idem)}
    return (_ids(r), _ids(l), h_ids, _ids(d), _ids(j), idem, groups)


def _oracle_tables():
    for order in (1, 2, 3, 4):
        for t in semigroup_tables(order):
            yield t
            for c in range(order):
                yield variant(t, c)
    # full transformation monoid T_3 (order 27) and a closure of order 6
    for gens in (((1, 0, 2), (1, 2, 0), (0, 0, 2)), ((0, 0, 1), (1, 0, 0))):
        yield closure(gens)


def _assert_green_matches_oracle(tables):
    for t in tables:
        g = green(t)
        got = (g.r_class, g.l_class, g.h_class, g.d_class, g.j_class,
               g.idempotents, g.group_h_classes)
        assert got == green_oracle(t), t.table


def test_green_matches_oracle():
    tables = list(_oracle_tables())
    assert len(tables) == 218 + 835 + 2
    assert tables[-2].order == 27 and tables[-1].order == 6
    _assert_green_matches_oracle(tables)


def test_green_matches_oracle_at_order_5():
    # green takes J = D = R o L; the oracle's J comes from the S^1 ideals
    tables = semigroup_tables(5)
    assert len(tables) == 1915
    _assert_green_matches_oracle(tables)


@pytest.mark.parametrize("rows, message", [
    ([[1, 0], [0, 0]], "group H-class criteria disagree at element 0"),
    ([[0, 0, 0], [0, 0, 0], [1, 2, 0]], "D != J at (1,2)"),
    ([[0, 0, 0], [0, 0, 2], [2, 1, 0]], "R o L != L o R at (0,1)"),
])
def test_green_cross_checks_reject_non_associative_magmas(rows, message):
    # green takes D = J and the group H-classes from theorems about finite
    # semigroups; the oracle check reports each one failing on a magma
    assert _green_disagreements(CayleyTable(rows))[0] == message
