import ast
import hashlib
from functools import lru_cache
from itertools import product as iproduct

import pytest

from epivariants import checks
from epivariants.core import (
    CapExceeded,
    CayleyTable,
    UnarySemigroup,
    _lex_leader,
    canonical_form,
    validate,
)
from epivariants.epigroup import pseudoinverse_map
from epivariants.search import (
    SearchSpec,
    count_semigroups,
    enumerate_models,
    resolve_filter,
    semigroup_tables,
)
from epivariants.varieties import find_counterexample, parse_identity

# counts of semigroups up to isomorphism: 1, 5, 24, 188, 1915, 28634
KNOWN_COUNTS = {1: 1, 2: 5, 3: 24, 4: 188}
# merged with anti-isomorphism: 1, 4, 18, 126, 1160, 15973
KNOWN_ANTI_COUNTS = {1: 1, 2: 4, 3: 18, 4: 126}


def associative_tables(order):
    # oracle: try every table in row-major order, keep the associative ones
    for flat in iproduct(range(order), repeat=order * order):
        table = tuple(flat[i * order:(i + 1) * order] for i in range(order))
        if all(
            table[table[x][y]][z] == table[x][table[y][z]]
            for x in range(order)
            for y in range(order)
            for z in range(order)
        ):
            yield table


def brute_force_classes(order):
    # oracle: the associative tables bucketed by canonical form
    return {canonical_form(CayleyTable(table)) for table in associative_tables(order)}


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


def test_row_composition_oracle_is_associativity():
    # checks' brute force keeps a table when row ab = row a o row b; over
    # every table of order <= 3 (1 + 16 + 19,683) it keeps the same tables
    # in the same order as the triple-loop definition: 1, 8 and 113
    # labelled semigroups (OEIS A023814)
    for order, expected in ((1, 1), (2, 8), (3, 113)):
        kept = list(checks._labelled_semigroups(order))
        assert kept == list(associative_tables(order))
        assert len(kept) == expected


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
    # own canonical form; the prefix test reads no row after row r
    rejected = 0
    for order in (2, 3, 4):
        for t in labelled_semigroups(order):
            flat = bytes([order]) + bytes(v for row in t.table for v in row)
            canonical = flat == canonical_form(t)
            for r in range(order - 1):
                partial = [list(row) for row in t.table[:r + 1]] + [[-1] * order] * (order - r - 1)
                if _lex_leader(partial, rows=r + 1, stop=True) is None:
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
            # and so is its pseudoinverse map, which enumerate_models relies on
            unary = pseudoinverse_map(t).unary
            assert canonical_form(UnarySemigroup(t, unary)) == flat + bytes(unary)


def row_major_followers(tables):
    # every row-major prefix of the tables' cells, mapped to the values
    # that follow it there; a whole table maps to the empty set
    follows = {}
    for t in tables:
        flat = tuple(v for row in t.table for v in row)
        for k in range(len(flat) + 1):
            follows.setdefault(flat[:k], set()).update(flat[k:k + 1])
    return follows


def test_forward_checking_agrees_with_labelled_backtracker(monkeypatch):
    # oracle: the labelled semigroups of order 4 are every associative
    # completion of every prefix; at each node of a cold order-4 search, a
    # forced cell's value is the only one any completion holds there, and a
    # value that _assign rejects leaves filled cells no completion has
    from epivariants import search

    follows = row_major_followers(labelled_semigroups(4))
    assign = search._assign
    forced = rejected = 0

    def spy(t, a, b, n, where, force, trail):
        nonlocal forced, rejected
        flat = [v for row in t for v in row]
        pos = a * n + b
        if force[pos] >= 0:
            forced += 1
            assert follows.get(tuple(flat[:pos]), set()) <= {force[pos]}, (t, a, b)
        ok = assign(t, a, b, n, where, force, trail)
        if not ok:
            rejected += 1
            known = flat.index(-1) if -1 in flat else n * n
            assert tuple(flat[:known]) not in follows, (t, a, b)
        return ok

    expected = semigroup_tables(4)
    monkeypatch.delitem(search._TABLE_CACHE, 4)
    monkeypatch.setattr(search, "_assign", spy)
    assert semigroup_tables(4) == expected
    assert forced > 0 and rejected > 0


def test_cold_order_4_search_counts(monkeypatch):
    # forward checking: 2,760 nodes and 4,668 assignments; 2,992 and 4,857
    # when only the cell's own filled triples narrowed its values
    from epivariants import search

    calls = {"_fill": 0, "_assign": 0}

    def counting(name):
        inner = getattr(search, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    monkeypatch.delitem(search._TABLE_CACHE, 4, raising=False)
    for name in calls:
        monkeypatch.setattr(search, name, counting(name))
    assert len(semigroup_tables(4)) == 188
    assert calls["_fill"] <= 2800
    assert calls["_assign"] <= 4700


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
    for name in ("nonsense", "E0", "not:V0", "E²"):
        with pytest.raises(ValueError, match=f"^unknown filter '{name}'$"):
            resolve_filter(name)


def test_plain_mode_rejects_unary_constraints(monkeypatch):
    # identities and filters that read the unary map are named before any
    # enumeration; the filters that read the table alone still apply
    from epivariants import search

    def no_enumeration(order):
        raise AssertionError("enumerated")

    monkeypatch.setattr(search, "semigroup_tables", no_enumeration)
    spec = SearchSpec(
        order=3,
        canonical_unary=False,
        identities=(parse_identity("x'' = x"),),
        structural_filters=("completely_regular", "E1", "not:W", "variant_of_CR"),
    )
    message = "plain tables carry no unary map for x'' = x, E1, not:W, variant_of_CR"
    with pytest.raises(ValueError, match=f"^{message}$"):
        enumerate_models(spec)
    monkeypatch.undo()
    spec = SearchSpec(order=3, canonical_unary=False, structural_filters=("completely_regular",))
    assert all(isinstance(t, CayleyTable) for t in enumerate_models(spec).models)


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


def _model_specs():
    x_twice = (parse_identity("x'' = x"),)
    for order in (1, 2, 3, 4):
        for merge in (False, True):
            yield SearchSpec(order=order, canonical_unary=False, merge_anti_isomorphic=merge)
            yield SearchSpec(order=order, merge_anti_isomorphic=merge)
        if order <= 2:
            yield SearchSpec(order=order, identities=x_twice, free_unary=True)


def opposite(model):
    # the transposed table with the same unary map: anti-isomorphic to model
    if isinstance(model, UnarySemigroup):
        return UnarySemigroup(CayleyTable(zip(*model.base.table)), model.unary)
    return CayleyTable(zip(*model.table))


def test_enumerated_models_are_valid_distinct_and_sorted():
    # what enumerate_models emits, in every mode: semigroups satisfying the
    # spec's identities, one per class, ascending by canonical form
    for spec in _model_specs():
        models = enumerate_models(spec).models
        for model in models:
            validate(model.base if isinstance(model, UnarySemigroup) else model)
            for ident in spec.identities:
                assert find_counterexample(model, ident) is None
        forms = [canonical_form(m) for m in models]
        assert len(set(forms)) == len(forms)
        assert forms == sorted(forms)
        if spec.merge_anti_isomorphic:
            # each class is represented by the smaller of its two forms
            assert forms == [min(canonical_form(m), canonical_form(opposite(m))) for m in models]
            assert len(models) == KNOWN_ANTI_COUNTS[spec.order]
            assert len(models) == count_semigroups(spec.order, merge_anti=True)
        elif not spec.free_unary:
            assert len(models) == KNOWN_COUNTS[spec.order]


def test_cross_search_cap():
    spec = SearchSpec(order=7, structural_filters=("not:variant_of_CR",))
    with pytest.raises(CapExceeded):
        enumerate_models(spec)


def test_census_reproduces():
    outcome = checks.check_v1_census()
    assert outcome.ok
    assert outcome.detail.startswith("counts {1: 0, 2: 0, 3: 0, 4: 3}, matching {")
    matching = ast.literal_eval(outcome.detail.split("matching ", 1)[1])
    assert sorted(matching.values()) == [0, 1, 2]
    spec = SearchSpec(order=4, structural_filters=("V1", "not:variant_of_CR"))
    for model in enumerate_models(spec).models:
        assert model.canonical
        # the non-regular element collapses onto another under x -> x'
        assert len(set(model.unary)) == 3


def tables_digest(order):
    # sha256 of every cell of every representative, in sorted order: pins
    # the canonical bytes and the choice of representatives
    tables = sorted(t.table for t in semigroup_tables(order))
    return hashlib.sha256(bytes(v for table in tables for row in table for v in row)).hexdigest()


def test_order_5_counts():
    assert count_semigroups(5) == 1915
    assert count_semigroups(5, merge_anti=True) == 1160


def test_order_5_tables_are_pinned():
    assert tables_digest(5) == "5eefd21c0b9c1a86f17135e1329c0ec23f5c9969d5475fad2ce7589e4f0e0570"


@pytest.mark.slow
def test_order_6_counts():
    # OEIS A027851 and A001423
    assert count_semigroups(6) == 28634
    assert count_semigroups(6, merge_anti=True) == 15973
    assert tables_digest(6) == "e8eb333c8fa4ab76e684fa02b6ec49d66117d0a8efd2dd06161c61c7d3526f47"
