import dataclasses
import pickle
import random
from functools import lru_cache

import pytest

from epivariants import checks, core, variants
from epivariants.core import (
    CapExceeded,
    CayleyTable,
    NotAssociative,
    find_isomorphism,
    identity_of,
    validate,
)
from epivariants.corpus import load_corpus
from epivariants.epigroup import is_completely_regular, pseudoinverse_map
from epivariants.search import enumerate_models, semigroup_tables
from epivariants.variants import (
    check_pseudoinverse_transport,
    is_variant_of_cr,
    star,
    unary_variant,
    variant,
)
from epivariants.varieties import in_V

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
        variants, "_cr_variant_forms", lru_cache(variants._cr_variant_forms.__wrapped__)
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
    expected = variants._cr_variant_forms(order)
    monkeypatch.setattr(
        variants, "_cr_variant_forms", lru_cache(variants._cr_variant_forms.__wrapped__)
    )
    calls = []

    def counted(s):
        calls.append(s)
        return core.canonical_form(s)

    monkeypatch.setattr(variants, "canonical_form", counted)
    assert variants._cr_variant_forms(order) == expected
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
    monkeypatch.setattr(variants, "canonical_form", forms.append)
    z7 = CayleyTable.from_rows([[(x + y) % 7 for y in range(7)] for x in range(7)])
    with pytest.raises(CapExceeded):
        is_variant_of_cr(pseudoinverse_map(z7))
    assert forms == []
