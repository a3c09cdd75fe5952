import ast
import hashlib
from functools import lru_cache
from itertools import permutations, product as iproduct
from math import factorial

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
    # checks' brute force keeps a table when row ab = row a o row b for all
    # a, b, testing each pair as soon as its rows are chosen; it keeps the
    # same tables in the same order as the triple-loop definition tried on
    # every table of order <= 3 (1 + 16 + 19,683): 1, 8 and 113 labelled
    # semigroups (OEIS A023814)
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


# labelled semigroups of orders 1-6: OEIS A023814
LABELLED_COUNTS = {1: 1, 2: 8, 3: 113, 4: 3492, 5: 183732, 6: 17061118}


def automorphism_count(t):
    # oracle: the permutations phi with phi(ab) = phi(a)phi(b), checked on
    # every cell of the table
    table = t.table
    cells = [(a, b, ab) for a, row in enumerate(table) for b, ab in enumerate(row)]
    return sum(
        all(phi[ab] == table[phi[a]][phi[b]] for a, b, ab in cells)
        for phi in permutations(range(t.order))
    )


def assert_orbit_count(order):
    # orbit-stabilizer: the class of t holds n!/|Aut(t)| labelled tables, so
    # a missing class, a duplicate or a wrong one would have to cancel out
    # exactly for the sum to match
    total = sum(factorial(order) // automorphism_count(t) for t in semigroup_tables(order))
    assert total == LABELLED_COUNTS[order]


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_orbit_count_matches_labelled_semigroups(order):
    assert_orbit_count(order)


@pytest.mark.slow
def test_order_6_orbit_count_matches_labelled_semigroups():
    assert_orbit_count(6)


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


def test_every_canonical_form_starts_with_an_idempotent_zero():
    # the root rule, checked without the search: every labelled semigroup
    # of order <= 4, so every class in every labelling, has 0 * 0 = 0 in
    # its canonical form, the first cell after the order byte
    for order in (1, 2, 3, 4):
        forms = {canonical_form(t) for t in labelled_semigroups(order)}
        assert len(forms) == KNOWN_COUNTS[order]
        assert {form[1] for form in forms} == {0}


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


def assert_every_table_passes_validate(order):
    # the search builds its tables unchecked, on the proof that forward
    # checking tested every triple; validate re-checks that proof
    tables = semigroup_tables(order)
    assert all(validate(t) is t for t in tables)
    return len(tables)


def test_order_5_tables_pass_validate():
    assert assert_every_table_passes_validate(5) == 1915


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
    # the root rule and forward checking: 2,568 nodes, 4,342 assignments and
    # 970 lex-leader walks.  The 2,529 nodes and 4,295 assignments past row
    # 0 are pinned apart, so a cut lost there fails even if row 0 gets
    # cheaper; 2,760 and 4,668 nodes and assignments in all when every first
    # row was tried, and 2,992 and 4,857 when only the cell's own filled
    # triples narrowed its values
    from epivariants import search

    calls = {"_fill": 0, "_assign": 0, "_lex_leader": 0}
    past_row_0 = {"_fill": 0, "_assign": 0}
    fill, assign, lex_leader = search._fill, search._assign, search._lex_leader

    def counting_fill(t, pos, n, *rest):
        calls["_fill"] += 1
        past_row_0["_fill"] += pos > n
        return fill(t, pos, n, *rest)

    def counting_assign(t, a, *rest):
        calls["_assign"] += 1
        past_row_0["_assign"] += a >= 1
        return assign(t, a, *rest)

    def counting_lex_leader(*args, **kwargs):
        calls["_lex_leader"] += 1
        return lex_leader(*args, **kwargs)

    monkeypatch.delitem(search._TABLE_CACHE, 4, raising=False)
    monkeypatch.setattr(search, "_fill", counting_fill)
    monkeypatch.setattr(search, "_assign", counting_assign)
    monkeypatch.setattr(search, "_lex_leader", counting_lex_leader)
    assert len(semigroup_tables(4)) == 188
    assert past_row_0["_fill"] <= 2529
    assert past_row_0["_assign"] <= 4295
    assert calls["_fill"] <= 2568
    assert calls["_assign"] <= 4342
    assert calls["_lex_leader"] <= 970


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
    refused = "x'' = x, E1, not:W, variant_of_CR, canonical_unary"
    message = f"plain tables carry no unary map for {refused}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        enumerate_models(
            3,
            identities=(parse_identity("x'' = x"),),
            filters=("completely_regular", "E1", "not:W", "variant_of_CR", "canonical_unary"),
            unary=None,
        )
    monkeypatch.undo()
    models = enumerate_models(3, filters=("completely_regular",), unary=None)
    assert all(isinstance(t, CayleyTable) for t in models)


@pytest.mark.parametrize("unary", ["plain", False, True])
def test_unknown_unary_mode_is_refused_before_enumeration(monkeypatch, unary):
    # exactly "pseudoinverse", "free" and None select a mode; any other
    # value is named before any table is built
    from epivariants import search

    def no_enumeration(order):
        raise AssertionError("enumerated")

    monkeypatch.setattr(search, "semigroup_tables", no_enumeration)
    message = f"unary must be 'pseudoinverse', 'free' or None, not {unary!r}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        enumerate_models(3, unary=unary)


def test_enumerate_with_identity_commutative():
    models = enumerate_models(2, identities=(parse_identity("x*y = y*x"),))
    # oracle: of the 5 classes of order 2, the left and right zero
    # semigroups are the only noncommutative ones and merge to one class
    assert len(models) == 3


def test_enumerate_structural_filter():
    models = enumerate_models(3, filters=("completely_regular",))
    assert 0 < len(models) < 24
    models_neg = enumerate_models(3, filters=("not:completely_regular",))
    assert len(models) + len(models_neg) == 24


def test_enumerate_w_filter_consistency():
    by_identity = enumerate_models(3, filters=("W",))
    by_structure = enumerate_models(3, filters=("in_W_structural",))
    assert [m.base for m in by_identity] == [
        m.base if isinstance(m, UnarySemigroup) else m for m in by_structure
    ]


def test_enumerate_deterministic():
    a = enumerate_models(3, filters=("E1",))
    b = enumerate_models(3, filters=("E1",))
    assert a == b


def test_free_unary_mode():
    # x'' = x with a free unary map on the trivial semigroup: only the
    # identity map survives on one element
    models = enumerate_models(1, identities=(parse_identity("x'' = x"),), unary="free")
    assert len(models) == 1
    # on the two-element semilattice there are two involutions, but the
    # swap is not a homomorphism constraint here, just a unary map
    models2 = enumerate_models(2, identities=(parse_identity("x'' = x"),), unary="free")
    for m in models2:
        for x in range(2):
            assert m.unary[m.unary[x]] == x


def _model_specs():
    # the arguments of enumerate_models in every mode
    x_twice = (parse_identity("x'' = x"),)
    for order in (1, 2, 3, 4):
        for merge in (False, True):
            yield dict(order=order, identities=(), unary=None, merge_anti=merge)
            yield dict(order=order, identities=(), unary="pseudoinverse", merge_anti=merge)
        if order <= 2:
            yield dict(order=order, identities=x_twice, unary="free", merge_anti=False)


def opposite(model):
    # the transposed table with the same unary map: anti-isomorphic to model
    if isinstance(model, UnarySemigroup):
        return UnarySemigroup(CayleyTable(zip(*model.base.table)), model.unary)
    return CayleyTable(zip(*model.table))


def test_enumerated_models_are_valid_distinct_and_sorted():
    # what enumerate_models emits, in every mode: semigroups satisfying the
    # identities asked for, one per class, ascending by canonical form
    for spec in _model_specs():
        models = enumerate_models(**spec)
        for model in models:
            validate(model.base if isinstance(model, UnarySemigroup) else model)
            for ident in spec["identities"]:
                assert find_counterexample(model, ident) is None
        forms = [canonical_form(m) for m in models]
        assert len(set(forms)) == len(forms)
        assert forms == sorted(forms)
        if spec["merge_anti"]:
            # each class is represented by the smaller of its two forms
            assert forms == [min(canonical_form(m), canonical_form(opposite(m))) for m in models]
            assert len(models) == KNOWN_ANTI_COUNTS[spec["order"]]
            assert len(models) == count_semigroups(spec["order"], merge_anti=True)
        elif spec["unary"] != "free":
            assert len(models) == KNOWN_COUNTS[spec["order"]]


def reference_merge(order, unary, identities=()):
    # every form walks its own transpose: of each anti-isomorphic pair, the
    # class met first in ascending form, keyed by the smaller of the two
    merged = {}
    for model in enumerate_models(order, identities=identities, unary=unary):
        form, opposite_form = canonical_form(model), canonical_form(opposite(model))
        merged.setdefault(min(form, opposite_form), model)
    return tuple(merged.values())


def test_merge_matches_a_walk_of_every_transpose():
    x_twice = (parse_identity("x'' = x"),)
    for order in (1, 2, 3, 4):
        for unary in (None, "pseudoinverse"):
            merged = enumerate_models(order, unary=unary, merge_anti=True)
            assert merged == reference_merge(order, unary)
    for order in (2, 3):
        for identities in ((), x_twice):
            merged = enumerate_models(order, identities=identities, unary="free", merge_anti=True)
            assert merged == reference_merge(order, "free", identities)


@pytest.mark.parametrize("unary", [None, "pseudoinverse"])
def test_merge_walks_one_transpose_per_merged_class(monkeypatch, unary):
    # with the tables cached, the merge is the only walk: one per class of
    # the merged result, as the second class of a pair reuses the first's
    # key; walking every form's transpose took 188
    from epivariants import search

    semigroup_tables(4)
    walks = 0
    lex_leader = search._lex_leader

    def spy(*args, **kwargs):
        nonlocal walks
        walks += 1
        return lex_leader(*args, **kwargs)

    monkeypatch.setattr(search, "_lex_leader", spy)
    assert len(enumerate_models(4, unary=unary, merge_anti=True)) == 126
    assert walks == 126


def test_cross_search_cap():
    with pytest.raises(CapExceeded):
        enumerate_models(7, filters=("not:variant_of_CR",))


def test_census_reproduces():
    outcome = checks.check_v1_census()
    assert outcome.ok
    assert outcome.detail.startswith("counts {1: 0, 2: 0, 3: 0, 4: 3}, matching {")
    matching = ast.literal_eval(outcome.detail.split("matching ", 1)[1])
    assert sorted(matching.values()) == [0, 1, 2]
    for model in enumerate_models(4, filters=("V1", "not:variant_of_CR")):
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


def assert_strictly_increasing(order):
    # no sort follows the walk: the tables come out of it in increasing
    # row-major order, each one above the last
    flats = [tuple(v for row in t.table for v in row) for t in semigroup_tables(order)]
    assert all(a < b for a, b in zip(flats, flats[1:]))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_tables_are_returned_strictly_increasing(order):
    assert_strictly_increasing(order)


@pytest.mark.slow
def test_order_6_tables_are_returned_strictly_increasing():
    assert_strictly_increasing(6)


@pytest.mark.slow
def test_order_6_counts():
    # OEIS A027851 and A001423
    assert count_semigroups(6) == 28634
    assert count_semigroups(6, merge_anti=True) == 15973
    assert tables_digest(6) == "e8eb333c8fa4ab76e684fa02b6ec49d66117d0a8efd2dd06161c61c7d3526f47"


@pytest.mark.slow
def test_order_6_tables_pass_validate():
    assert assert_every_table_passes_validate(6) == 28634
