from functools import lru_cache
from itertools import product as iproduct

import pytest

from epivariants.core import CapExceeded, CayleyTable, UnarySemigroup, canonical_form, validate
from epivariants.search import (
    SearchSpec,
    _prefix_beaten,
    _prefix_relabelings,
    count_semigroups,
    enumerate_models,
    reproduce_v1_census,
    resolve_filter,
    semigroup_tables,
)
from epivariants.varieties import parse_identity

# counts of semigroups up to isomorphism: 1, 5, 24, 188, 1915, 28634
KNOWN_COUNTS = {1: 1, 2: 5, 3: 24, 4: 188}
# merged with anti-isomorphism: 1, 4, 18, 126, 1160, 15973
KNOWN_ANTI_COUNTS = {1: 1, 2: 4, 3: 18, 4: 126}


def brute_force_classes(order):
    # oracle: try every table, keep the associative ones, bucket by
    # canonical form
    forms = set()
    for flat in iproduct(range(order), repeat=order * order):
        table = [flat[i * order:(i + 1) * order] for i in range(order)]
        ok = all(
            table[table[x][y]][z] == table[x][table[y][z]]
            for x in range(order)
            for y in range(order)
            for z in range(order)
        )
        if ok:
            forms.add(canonical_form(CayleyTable(table)))
    return forms


@lru_cache(maxsize=None)
def labelled_semigroups(order):
    # oracle: fill the cells in row-major order, backtracking as soon as a
    # fully determined triple breaks associativity; no symmetry pruning, so
    # every labelled semigroup is found
    t = [[-1] * order for _ in range(order)]
    found = []

    def consistent():
        for x in range(order):
            for y in range(order):
                xy = t[x][y]
                for z in range(order):
                    yz = t[y][z]
                    if xy < 0 or yz < 0:
                        continue
                    left, right = t[xy][z], t[x][yz]
                    if left >= 0 and right >= 0 and left != right:
                        return False
        return True

    def fill(pos):
        if pos == order * order:
            found.append(CayleyTable(t))
            return
        a, b = divmod(pos, order)
        for v in range(order):
            t[a][b] = v
            if consistent():
                fill(pos + 1)
        t[a][b] = -1

    fill(0)
    return tuple(found)


def test_counts_match_known_values():
    for order, expected in KNOWN_COUNTS.items():
        assert count_semigroups(order) == expected


def test_anti_merged_counts():
    for order, expected in KNOWN_ANTI_COUNTS.items():
        assert count_semigroups(order, merge_anti=True) == expected


def test_complete_against_brute_force():
    for order in (1, 2, 3):
        tables = semigroup_tables(order)
        assert {canonical_form(t) for t in tables} == brute_force_classes(order)


def test_complete_against_labelled_backtracker():
    # labelled semigroups of orders 2, 3, 4: 8, 113, 3492 (OEIS A023814)
    for order, expected in ((2, 8), (3, 113), (4, 3492)):
        assert len(labelled_semigroups(order)) == expected
    forms = {canonical_form(t) for t in labelled_semigroups(4)}
    assert forms == {canonical_form(t) for t in semigroup_tables(4)}
    assert len(forms) == 188


def test_prefix_test_rejects_only_non_canonical_tables():
    # every labelled semigroup of order <= 4, so every relabeling of every
    # class: whenever the prefix test rejects rows 0..r, the table is not its
    # own canonical form
    rejected = 0
    for order in (2, 3, 4):
        rels = _prefix_relabelings(order)
        assert len(rels) == order - 1
        for t in labelled_semigroups(order):
            flat = bytes([order]) + bytes(v for row in t.table for v in row)
            canonical = flat == canonical_form(t)
            for r in range(order - 1):
                prefix = [v for row in t.table[:r + 1] for v in row]
                if _prefix_beaten(prefix, rels[r]):
                    rejected += 1
                    assert not canonical, (t.table, r)
    assert rejected > 0


def test_tables_are_valid_canonical_and_sorted():
    for order in (1, 2, 3, 4):
        tables = semigroup_tables(order)
        forms = [canonical_form(t) for t in tables]
        assert forms == sorted(forms)
        assert len(set(forms)) == len(forms)
        for t in tables:
            validate(t)
            flat = bytes([order]) + bytes(v for row in t.table for v in row)
            assert canonical_form(t) == flat  # representative is its own form


def test_parallel_matches_sequential():
    from epivariants import search

    for order in (3, 4, 5):
        sequential = semigroup_tables(order)
        search._TABLE_CACHE.pop(order, None)
        try:
            parallel = semigroup_tables(order, jobs=2)
        finally:
            search._TABLE_CACHE[order] = sequential
        assert parallel == sequential


def test_order_cap():
    with pytest.raises(CapExceeded):
        semigroup_tables(7)
    with pytest.raises(ValueError):
        semigroup_tables(0)


def test_resolve_filter_names():
    cr = resolve_filter("completely_regular")
    z3 = semigroup_tables(3)
    assert any(cr(t) for t in z3)
    canon = resolve_filter("canonical_unary")
    assert not canon(z3[0])  # plain tables carry no unary map
    with pytest.raises(ValueError):
        resolve_filter("nonsense")


def test_enumerate_with_identity_commutative():
    spec = SearchSpec(order=2, identities=(parse_identity("x*y = y*x"),))
    result = enumerate_models(spec)
    # oracle: of the 5 classes of order 2, the left and right zero
    # semigroups are the only noncommutative ones and merge to one class
    assert len(result.models) == 3


def test_enumerate_structural_filter():
    spec = SearchSpec(order=3, structural_filters=("completely_regular",))
    result = enumerate_models(spec)
    assert 0 < len(result.models) < 24
    spec_neg = SearchSpec(order=3, structural_filters=("not:completely_regular",))
    result_neg = enumerate_models(spec_neg)
    assert len(result.models) + len(result_neg.models) == 24


def test_enumerate_w_filter_consistency():
    by_identity = enumerate_models(SearchSpec(order=3, structural_filters=("W",)))
    by_structure = enumerate_models(SearchSpec(order=3, structural_filters=("in_W_structural",)))
    assert [m.base for m in by_identity.models] == [
        m.base if isinstance(m, UnarySemigroup) else m for m in by_structure.models
    ]


def test_enumerate_deterministic():
    spec = SearchSpec(order=3, structural_filters=("E1",))
    a = enumerate_models(spec)
    b = enumerate_models(spec)
    assert a.models == b.models


def test_free_unary_mode():
    # x'' = x with a free unary map on the trivial semigroup: only the
    # identity map survives on one element
    spec = SearchSpec(order=1, identities=(parse_identity("x'' = x"),), free_unary=True)
    result = enumerate_models(spec)
    assert len(result.models) == 1
    # on the two-element semilattice there are two involutions, but the
    # swap is not a homomorphism constraint here, just a unary map
    spec2 = SearchSpec(order=2, identities=(parse_identity("x'' = x"),), free_unary=True)
    result2 = enumerate_models(spec2)
    for m in result2.models:
        for x in range(2):
            assert m.unary[m.unary[x]] == x


def test_cross_search_cap():
    spec = SearchSpec(order=5, structural_filters=("not:variant_of_CR",))
    with pytest.raises(CapExceeded):
        enumerate_models(spec)


def test_census_reproduces():
    results, report = reproduce_v1_census()
    assert report["counts_by_order"] == {1: 0, 2: 0, 3: 0, 4: 3}
    assert sorted(report["matching"].values()) == [0, 1, 2]
    for model in results[4].models:
        assert model.canonical
        # the non-regular element collapses onto another under x -> x'
        assert len(set(model.unary)) == 3


def test_order_5_counts():
    assert count_semigroups(5) == 1915
    assert count_semigroups(5, merge_anti=True) == 1160


@pytest.mark.slow
def test_order_6_counts():
    # OEIS A027851 and A001423
    assert count_semigroups(6) == 28634
    assert count_semigroups(6, merge_anti=True) == 15973
