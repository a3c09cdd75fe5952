import dataclasses
import pickle
import random
from functools import lru_cache

import pytest

from epivariants import checks, core, search, variants
from epivariants.core import (
    CapExceeded,
    CayleyTable,
    NotAssociative,
    UnarySemigroup,
    find_isomorphism,
    identity_of,
    validate,
)
from epivariants.corpus import load_corpus
from epivariants.epigroup import is_completely_regular, pseudoinverse_map
from epivariants.search import enumerate_models, is_variant_of_cr, semigroup_tables
from epivariants.variants import (
    CheckReport,
    check_pseudoinverse_transport,
    star,
    unary_variant,
    variant,
)
from epivariants.varieties import in_V, in_W

from _tables import check_variant_index

NULL2 = CayleyTable([[0, 0], [0, 0]])


def test_variant_at_identity_is_same_table():
    z3 = load_corpus("z3.sgp")
    assert variant(z3, 0) == z3
    s3 = load_corpus("s3.sgp")
    assert variant(s3, identity_of(s3)) == s3


def test_variant_of_z3_at_1():
    z3 = load_corpus("z3.sgp")
    v = variant(z3, 1)
    # oracle: x + y + 1 mod 3, a group with identity 2
    assert v.table == tuple(tuple((x + y + 1) % 3 for y in range(3)) for x in range(3))
    assert identity_of(v) == 2


def test_variant_at_zero_is_null():
    meet = load_corpus("semilattice2.sgp")
    assert variant(meet, 0) == NULL2


def test_variant_always_associative():
    # the theorem that lets variant skip validate, checked on fresh tables
    # that carry nothing over from the table they came from
    for order in (1, 2, 3, 4, 5):
        for t in semigroup_tables(order):
            for c in range(order):
                validate(CayleyTable(variant(t, c).table))


def _validate_spy(monkeypatch):
    calls = []
    real = core.validate

    def spy(t):
        calls.append(t.table)
        return real(t)

    monkeypatch.setattr(core, "validate", spy)
    return calls


def test_variant_skips_validate_only_for_a_validated_table(monkeypatch):
    tables = semigroup_tables(3)
    calls = _validate_spy(monkeypatch)
    for t in tables:
        for c in range(3):
            v = variant(CayleyTable(t.table), c)
            assert calls == [v.table]
            calls.clear()
            # a validated table, and a variant built from one, pass the
            # result on
            assert variant(t, c) == v
            assert variant(v, c) == variant(variant(t, c), c)
            assert calls == []
    # a direct call to validate marks the table as well
    checked = core.validate(CayleyTable(tables[-1].table))
    assert variant(checked, 1) == variant(tables[-1], 1)
    assert len(calls) == 1


def test_failed_validate_leaves_no_record(monkeypatch):
    rng = random.Random(1911)
    magmas = 0
    while magmas < 20:
        n = rng.randrange(2, 5)
        t = CayleyTable([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
        c = rng.randrange(n)
        try:
            validate(CayleyTable([t.table[row[c]] for row in t.table]))
        except NotAssociative as exc:
            expected = exc
        else:
            continue
        # a variant that is not associative comes from a table that is not
        with pytest.raises(NotAssociative):
            validate(t)
        assert vars(t) == {"table": t.table}
        calls = _validate_spy(monkeypatch)
        with pytest.raises(NotAssociative) as raised:
            variant(t, c)
        assert len(calls) == 1
        assert raised.value.witness == expected.witness
        assert str(raised.value) == str(expected)
        monkeypatch.undo()
        magmas += 1


def test_validated_and_bare_tables_are_indistinguishable():
    assert [f.name for f in dataclasses.fields(CayleyTable)] == ["table"]
    for t in semigroup_tables(3):
        rows = [list(row) for row in t.table]
        checked, bare = CayleyTable.from_rows(rows), CayleyTable(rows)
        assert checked == bare and hash(checked) == hash(bare)
        assert repr(checked) == repr(bare)
        for c in range(3):
            assert variant(checked, c) == variant(bare, c)
            assert repr(variant(checked, c)) == repr(variant(bare, c))
        for x in (checked, bare, variant(checked, 1), variant(bare, 1)):
            copy = pickle.loads(pickle.dumps(x))
            assert copy == x and hash(copy) == hash(x)
            assert variant(copy, 2) == variant(x, 2)
    # the builders that skip the public constructors' conversion (and, for
    # tables, validate) give objects equal to their public twins in every
    # respect a caller sees, pickled or not; equal fields are tuples too
    assert [f.name for f in dataclasses.fields(UnarySemigroup)] == ["base", "unary", "canonical"]
    tables = semigroup_tables(3)
    models = [pseudoinverse_map(t) for t in tables]
    unary = [*models, *(unary_variant(s, c) for s in models for c in range(3))]
    unary += enumerate_models(2, unary="free")
    built = [*tables, *(variant(t, c) for t in tables for c in range(3)), *unary]
    built += [s.base for s in unary]
    for x in built:
        twin = _public_twin(x)
        assert type(x) is type(twin)
        assert x == twin and hash(x) == hash(twin) and repr(x) == repr(twin)
        copy = pickle.loads(pickle.dumps(x))
        assert copy == twin and hash(copy) == hash(twin) and repr(copy) == repr(twin)


def _public_twin(x):
    """x rebuilt through the public constructors, from lists."""
    if isinstance(x, UnarySemigroup):
        return UnarySemigroup(_public_twin(x.base), list(x.unary), canonical=x.canonical)
    return CayleyTable([list(row) for row in x.table])


def test_variant_of_magma_is_still_validated():
    # oracle: the lexicographically first failing triple of acb, by a
    # triple loop over the base magma
    rng = random.Random(2015)
    raised = 0
    for _ in range(300):
        n = rng.randrange(2, 6)
        t = CayleyTable([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
        tab = t.table
        c = rng.randrange(n)
        vab = [[tab[tab[a][c]][b] for b in range(n)] for a in range(n)]
        witness = next(
            ((a, b, d) for a in range(n) for b in range(n) for d in range(n)
             if vab[vab[a][b]][d] != vab[a][vab[b][d]]),
            None,
        )
        if witness is None:
            assert variant(t, c).table == tuple(map(tuple, vab))
            continue
        with pytest.raises(NotAssociative) as exc:
            variant(t, c)
        assert exc.value.witness == witness
        raised += 1
    assert raised >= 100


def test_variant_rejects_bad_sandwich():
    with pytest.raises(ValueError):
        variant(NULL2, 5)


def _star_spy(monkeypatch):
    """The (id(s), c) of every star map computed from now on."""
    calls = []
    real = variants._star
    monkeypatch.setattr(variants, "_star", lambda s, c: calls.append((id(s), c)) or real(s, c))
    return calls


@pytest.mark.parametrize("c", [-1, 3])
def test_star_and_transport_reject_bad_sandwich(monkeypatch, c):
    # a negative c would index from the end, and c = n past it; a bad c is
    # refused whether the star maps of s are cached or not, and never cached
    z3 = pseudoinverse_map(load_corpus("z3.sgp"))
    calls = _star_spy(monkeypatch)
    entry_points = (
        lambda: variant(z3.base, c),
        lambda: star(z3, c),
        lambda: unary_variant(z3, c),
        lambda: check_pseudoinverse_transport(z3, c),
    )
    for warm in (False, True):
        if warm:
            maps = [star(z3, x) for x in range(3)]
            calls.clear()
        for call in entry_points:
            for _ in range(2):
                with pytest.raises(ValueError, match=f"^sandwich element {c} out of range$"):
                    call()
        # unary_variant refuses c in variant, before it asks for the map
        assert calls == [(id(z3), c)] * 4
        calls.clear()
    assert [star(z3, x) for x in range(3)] == maps and calls == []


def test_star_is_computed_once_per_table_and_sandwich(monkeypatch):
    # the transport check reads the map that building the unary variant
    # computed, and so does every later call at that c
    calls = _star_spy(monkeypatch)
    models = [pseudoinverse_map(t) for order in (1, 2, 3, 4) for t in semigroup_tables(order)]
    models += [pseudoinverse_map(load_corpus("s3.sgp")), load_corpus("w_not_v1.sgp")]
    for s in models:
        for c in range(s.order):
            uv = unary_variant(s, c)
            assert check_pseudoinverse_transport(s, c).ok
            assert star(s, c) is uv.unary
    assert calls == [(id(s), c) for s in models for c in range(s.order)]


def test_cached_star_maps_leave_equality_hash_and_pickling_alone():
    for t in semigroup_tables(3):
        warm, cold = pseudoinverse_map(t), pseudoinverse_map(t)
        maps = [star(warm, c) for c in range(3)]
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        copy = pickle.loads(pickle.dumps(warm))
        assert copy == cold and [star(copy, c) for c in range(3)] == maps


def test_star_group_cases():
    z3 = pseudoinverse_map(load_corpus("z3.sgp"))
    assert star(z3, 0) == z3.unary  # identity sandwich reduces to x'
    # oracle: inverse w.r.t. the variant identity 2 is 1 - x mod 3
    assert star(z3, 1) == tuple((1 - x) % 3 for x in range(3))
    z2 = pseudoinverse_map(load_corpus("z2.sgp"))
    assert star(z2, 1) == (0, 1)


def test_unary_variant_of_z3():
    z3 = pseudoinverse_map(load_corpus("z3.sgp"))
    uv = unary_variant(z3, 1)
    assert uv.base.table == tuple(tuple((x + y + 1) % 3 for y in range(3)) for x in range(3))
    assert uv.unary == tuple((1 - x) % 3 for x in range(3))


def test_unary_variant_at_identity_is_identity_operation():
    z3 = pseudoinverse_map(load_corpus("z3.sgp"))
    uv = unary_variant(z3, 0)
    assert uv.base == z3.base and uv.unary == z3.unary


def test_unary_variant_keeps_the_pseudoinverse_flag():
    # by the transport result star is the variant's pseudoinverse map, so
    # in_W takes every unary variant and answers as on the variant's own map
    count = 0
    for order in (1, 2, 3, 4):
        for s in map(pseudoinverse_map, semigroup_tables(order)):
            for c in range(order):
                uv = unary_variant(s, c)
                assert uv.canonical
                assert in_W(uv).holds == in_W(pseudoinverse_map(uv.base)).holds, (s, c)
                count += 1
    assert count == 835


def test_unary_variants_of_w_tables_lie_in_w():
    tables = [(s, uvs) for s, uvs in checks._corpus() if in_W(s).holds]
    assert len(tables) == 135
    for s, uvs in tables:
        assert all(in_W(uv).holds for uv in uvs), s


def test_unary_variant_of_another_unary_map_is_not_canonical():
    # a free unary map that is not the pseudoinverse passes on no flag
    others = [m for m in enumerate_models(2, unary="free") if not m.canonical]
    assert len(others) == 13
    for m in others:
        for c in range(2):
            uv = unary_variant(m, c)
            assert not uv.canonical
            with pytest.raises(ValueError, match="canonical pseudoinverse map"):
                in_W(uv)


def test_star_equals_variant_pseudoinverse():
    for order in (1, 2, 3):
        for t in semigroup_tables(order):
            s = pseudoinverse_map(t)
            for c in range(order):
                assert star(s, c) == pseudoinverse_map(variant(t, c)).unary


def test_transport_trivial_and_z3():
    one = pseudoinverse_map(CayleyTable([[0]]))
    assert check_pseudoinverse_transport(one, 0).ok
    z3 = pseudoinverse_map(load_corpus("z3.sgp"))
    assert check_pseudoinverse_transport(z3, 1).ok


def test_transport_reports_the_failing_identity_and_element():
    # unary maps that are not the pseudoinverse: on the null semigroup the
    # first identity fails, and on the left-zero one only the second does
    null = UnarySemigroup(NULL2, (1, 0))
    assert check_pseudoinverse_transport(null, 0) == CheckReport(False, ("(xc)' = x*c", 0))
    left_zero = UnarySemigroup(CayleyTable([[0, 0], [1, 1]]), (0, 0))
    assert check_pseudoinverse_transport(left_zero, 1) == CheckReport(False, ("cx** = (cx)''", 0))
    assert [f.name for f in dataclasses.fields(CheckReport)] == ["ok", "witness"]


def test_transport_exhaustive_small_orders():
    for order in (1, 2, 3):
        for t in semigroup_tables(order):
            s = pseudoinverse_map(t)
            for c in range(order):
                assert check_pseudoinverse_transport(s, c).ok


def test_variant_index_group():
    z3 = pseudoinverse_map(load_corpus("z3.sgp"))
    for c in range(3):
        for a in range(3):
            assert check_variant_index(z3, c, a) == (1, 1, True)


def test_variant_index_null_variant():
    # variant of the meet semilattice at its zero is null: nonzero elements
    # get index 2 while c*a = 0 is idempotent in the base
    meet = pseudoinverse_map(load_corpus("semilattice2.sgp"))
    base_index, variant_index, ok = check_variant_index(meet, 0, 1)
    assert (base_index, variant_index, ok) == (1, 2, True)


def check_rho_homomorphism(t, c):
    # oracle: rho_c: x -> xc is a homomorphism from the variant onto Sc,
    # and with canonical pseudoinverses it carries star to prime via
    # (xc)' = x* c
    tab = t.table
    v = variant(t, c)
    for x in range(t.order):
        for y in range(t.order):
            if tab[v.table[x][y]][c] != tab[tab[x][c]][tab[y][c]]:
                return False
    return check_pseudoinverse_transport(pseudoinverse_map(t), c).ok


def test_rho_homomorphism():
    z3 = load_corpus("z3.sgp")
    assert check_rho_homomorphism(z3, 1)
    w = load_corpus("w_not_v1.sgp")
    for c in range(4):
        assert check_rho_homomorphism(w.base, c)


def _witness_variant(t, c):
    s = pseudoinverse_map(t)
    return s if c is None else unary_variant(s, c)


def test_variant_of_cr_monoid_is_witnessed_by_itself():
    z3 = pseudoinverse_map(load_corpus("z3.sgp"))
    assert is_variant_of_cr(z3)
    witness = linear_scan_witness(z3)
    assert witness is not None
    t, c, phi = witness
    assert is_completely_regular(t)
    uv = _witness_variant(t, c)
    assert sorted(phi) == [0, 1, 2]
    for x in range(3):
        assert z3.unary[phi[x]] == phi[uv.unary[x]]
        for y in range(3):
            assert z3.base.table[phi[x]][phi[y]] == phi[uv.base.table[x][y]]


def linear_scan_witness(s):
    # oracle: try every completely regular table and sandwich element in
    # order, deciding each by isomorphism search alone
    n = s.order
    for t in semigroup_tables(n):
        if not is_completely_regular(t):
            continue
        for c in list(range(n)) + [None]:
            phi = find_isomorphism(_witness_variant(t, c), s)
            if phi is not None:
                return t, c, phi
    return None


def _order_4_v1_models():
    return [
        m for order in (1, 2, 3, 4)
        for m in map(pseudoinverse_map, semigroup_tables(order))
        if in_V(m, 1).holds
    ]


def test_membership_matches_linear_scan():
    candidates = _order_4_v1_models()
    assert len(candidates) == 133
    for m in candidates:
        assert is_variant_of_cr(m) == (linear_scan_witness(m) is not None)


def test_membership_answers_as_the_witness_does():
    # each distinct unary variant of the corpus, including the ones that
    # lie outside V_1
    unary_variants = list(dict.fromkeys(uv for _, uvs in checks._corpus() for uv in uvs))
    assert len(unary_variants) == 259
    for m in unary_variants:
        assert is_variant_of_cr(m) == (linear_scan_witness(m) is not None)


def test_cold_census_searches_isomorphisms_for_its_matching_only(monkeypatch):
    # the filter asks membership; only the sweep that matches the three
    # references against the three order-4 models builds isomorphisms
    monkeypatch.setattr(
        search, "_cr_variant_forms", lru_cache(search._cr_variant_forms.__wrapped__)
    )
    calls = []

    def counted(s, t):
        calls.append((s, t))
        return find_isomorphism(s, t)

    monkeypatch.setattr(checks, "find_isomorphism", counted)
    outcome = checks.check_v1_census()
    assert outcome.ok
    assert outcome.detail.startswith("counts {1: 0, 2: 0, 3: 0, 4: 3}, ")
    assert len(calls) == 9


@pytest.mark.parametrize("order, forms", [(3, 26), (4, 148)])
def test_cr_variant_forms_are_computed_once_per_distinct_variant(monkeypatch, order, forms):
    # one canonical form per distinct (table, unary map) among the variants
    # at every c in T^1 (52 and 335 of them), and the set is the set of all
    expected = search._cr_variant_forms(order)
    monkeypatch.setattr(
        search, "_cr_variant_forms", lru_cache(search._cr_variant_forms.__wrapped__)
    )
    calls = []

    def counted(s):
        calls.append(s)
        return core.canonical_form(s)

    monkeypatch.setattr(search, "canonical_form", counted)
    assert search._cr_variant_forms(order) == expected
    assert len(calls) == forms
    every = {
        core.canonical_form(m)
        for t in semigroup_tables(order)
        if is_completely_regular(t)
        for su in [pseudoinverse_map(t)]
        for m in [su, *(unary_variant(su, c) for c in range(order))]
    }
    assert expected == every


def _order_5_v1_models():
    return [m for m in map(pseudoinverse_map, semigroup_tables(5)) if in_V(m, 1).holds]


def test_membership_matches_linear_scan_on_order_5_sample():
    sample = random.Random(2).sample(_order_5_v1_models(), 20)
    members = [is_variant_of_cr(m) for m in sample]
    assert members == [linear_scan_witness(m) is not None for m in sample]
    assert False in members  # the sample holds a non-variant


@pytest.mark.slow
def test_membership_matches_linear_scan_at_order_5():
    candidates = _order_5_v1_models()
    assert len(candidates) == 623
    members = [is_variant_of_cr(m) for m in candidates]
    assert members == [linear_scan_witness(m) is not None for m in candidates]
    assert members.count(False) == 54
    census = tuple(m for m, member in zip(candidates, members) if not member)
    assert enumerate_models(5, filters=("V1", "not:variant_of_CR")) == census


def test_unary_variant_of_z3_recognized():
    z3 = pseudoinverse_map(load_corpus("z3.sgp"))
    uv = unary_variant(z3, 1)
    assert is_variant_of_cr(uv)


def test_census_references_are_not_variants():
    for k in "abc":
        ref = load_corpus(f"v1_nonvariant_{k}.sgp")
        assert in_V(ref, 1).holds
        assert not is_variant_of_cr(ref)


def test_variant_search_cap(monkeypatch):
    # the cap is met before any canonical form is computed
    forms = []
    monkeypatch.setattr(search, "canonical_form", forms.append)
    z7 = CayleyTable.from_rows([[(x + y) % 7 for y in range(7)] for x in range(7)])
    with pytest.raises(CapExceeded):
        is_variant_of_cr(pseudoinverse_map(z7))
    assert forms == []
