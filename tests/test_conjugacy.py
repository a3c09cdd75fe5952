from itertools import permutations

import pytest

from epivariants import checks
from epivariants.conjugacy import (
    BinaryRelation,
    check_transitivity,
    conjugacy_classes,
    primary_conjugacy,
    transitive_closure,
)
from epivariants.core import CayleyTable, adjoin_identity, relabel
from epivariants.corpus import corpus_names, load_corpus
from epivariants.search import semigroup_tables
from epivariants.variants import variant

NULL2 = CayleyTable([[0, 0], [0, 0]])
NONTRANS4 = CayleyTable([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 2, 3]])


def relation_oracle(t):
    # oracle: loop over the definition, x and y in S^1
    n = t.order
    s1 = adjoin_identity(t).table
    m = len(s1)
    pairs = set()
    for x in range(m):
        for y in range(m):
            a, b = s1[x][y], s1[y][x]
            if a < n and b < n:
                pairs.add((a, b))
                pairs.add((b, a))
    return pairs


def test_relation_matches_oracle():
    for name in ("z3.sgp", "s3.sgp", "null2.sgp", "left_zero2.sgp"):
        model = load_corpus(name)
        t = getattr(model, "base", model)
        rel = primary_conjugacy(t)
        pairs = relation_oracle(t)
        for a in range(t.order):
            for b in range(t.order):
                assert rel.holds(a, b) == ((a, b) in pairs)


def test_checks_oracle_matches_relation():
    # the factorisation-set oracle of check_oracles, on every corpus table and
    # every table of order <= 4 with each of its variants
    tables = [getattr(m, "base", m) for m in map(load_corpus, corpus_names())]
    for order in (1, 2, 3, 4):
        for t in semigroup_tables(order):
            tables += [t] + [variant(t, c) for c in range(order)]
    for t in tables:
        assert checks._conjugacy_oracle(t) == [list(row) for row in primary_conjugacy(t).bits]


def test_group_conjugacy_s3():
    s3 = load_corpus("s3.sgp")
    rel = primary_conjugacy(s3)
    # oracle: group conjugacy g a g^-1 over all g
    inv = {g: next(h for h in range(6) if s3.table[g][h] == 0) for g in range(6)}
    for a in range(6):
        orbit = {s3.table[s3.table[g][a]][inv[g]] for g in range(6)}
        for b in range(6):
            assert rel.holds(a, b) == (b in orbit)
    assert conjugacy_classes(s3) == ((0,), (1, 3, 4), (2, 5))


def test_abelian_group_classes_are_singletons():
    z3 = load_corpus("z3.sgp")
    assert conjugacy_classes(z3) == ((0,), (1,), (2,))
    assert check_transitivity(z3).transitive


def test_null_semigroup():
    # xy = 0 always, so a ~ b iff a = b = 0 or {a,b} = {a} via x=a, y=1
    rel = primary_conjugacy(NULL2)
    assert rel.holds(0, 0) and rel.holds(1, 1)
    assert not rel.holds(0, 1)
    assert conjugacy_classes(NULL2) == ((0,), (1,))


def test_left_zero_single_class():
    lz = load_corpus("left_zero2.sgp")
    rel = primary_conjugacy(lz)
    # 0 = 0*1 and 1 = 1*0, so 0 ~ 1
    assert rel.holds(0, 1)
    assert conjugacy_classes(lz) == ((0, 1),)


def test_non_transitive_witness():
    report = check_transitivity(NONTRANS4)
    assert not report.transitive
    a, b, c = report.witness
    assert report.relation.holds(a, b)
    assert report.relation.holds(b, c)
    assert not report.relation.holds(a, c)
    assert report.witness == (1, 0, 2)


def test_smallest_non_transitive_order_is_4():
    for order in (1, 2, 3):
        for t in semigroup_tables(order):
            assert check_transitivity(t).transitive
    bad = [t for t in semigroup_tables(4) if not check_transitivity(t).transitive]
    assert len(bad) == 13


def test_transitive_closure_partition():
    for order in (1, 2, 3, 4):
        for t in semigroup_tables(order):
            classes = conjugacy_classes(t)
            flat = sorted(a for cls in classes for a in cls)
            assert flat == list(range(order))
            assert classes == tuple(sorted(classes, key=min))


def test_closure_rejects_asymmetric_input():
    from epivariants.conjugacy import RelationNotSymmetric

    r = BinaryRelation(2, ((True, True), (False, True)))
    with pytest.raises(RelationNotSymmetric):
        transitive_closure(r)


def test_relation_iso_invariant():
    rel = primary_conjugacy(NONTRANS4)
    for p in permutations(range(4)):
        rp = primary_conjugacy(relabel(NONTRANS4, p))
        for a in range(4):
            for b in range(4):
                assert rel.holds(a, b) == rp.holds(p[a], p[b])
