"""End-to-end acceptance suite.

Each test runs one named verification check and prints a single pass/fail
line so the run log doubles as a checklist (use ``pytest -s`` to see the
lines as they happen).
"""

from collections import Counter
from dataclasses import replace
from functools import lru_cache

import pytest

from epivariants import checks, variants
from epivariants.corpus import load_corpus
from epivariants.epigroup import EpigroupData
from epivariants.varieties import VarietyReport, parse_identity

from _tables import check_variant_index

CHECKS = {fn.__name__: fn for fn in checks.ALL_CHECKS}


@pytest.mark.parametrize("name", list(CHECKS))
def test_acceptance(name, capsys):
    outcome = CHECKS[name]()
    with capsys.disabled():
        print(f"{'PASS' if outcome.ok else 'FAIL'} {outcome.name}: {outcome.detail}")
    assert outcome.ok, f"{outcome.name}: {outcome.detail}"


def test_every_check_is_covered():
    assert len(CHECKS) == 10


# every check's (name, ok, detail), as ``verify-paper`` prints them
PAPER_DETAILS = [
    (
        "v1-census",
        True,
        "counts {1: 0, 2: 0, 3: 0, 4: 3}, matching {'v1_nonvariant_a.sgp': 0, "
        "'v1_nonvariant_b.sgp': 1, 'v1_nonvariant_c.sgp': 2}",
    ),
    ("w-witness", True, "0''*1 = 2 != 3 = 0*1"),
    ("pseudoinverse-identities", True, "1526 identity checks, 0 failures"),
    ("pseudoinverse-transport", True, "all pass"),
    (
        "variety-chain",
        True,
        "strict witnesses: V1\\E1 ((0, 0), (0, 0)), "
        "W\\V1 ((0, 0, 0, 0), (0, 0, 0, 2), (2, 2, 2, 2), (3, 3, 3, 3)), "
        "E2\\W ((0, 0, 0), (0, 0, 0), (0, 1, 2))",
    ),
    ("variant-variety-closure", True, "0 violations"),
    ("w-variant-conjugacy", True, "non-transitive examples seen at orders [4]"),
    ("variant-index-bounds", True, "0 violations"),
    ("oracle-equivalences", True, "all agree"),
    ("group-sanity", True, "all pass"),
]


def test_verify_paper_details_are_pinned():
    assert [(o.name, o.ok, o.detail) for o, _ in checks.run_all()] == PAPER_DETAILS


def _rebuild_corpus(monkeypatch):
    """A fresh corpus for this test, built on first use under its patches;
    the shared one is back after the test."""
    monkeypatch.setattr(checks, "_corpus", lru_cache(checks._corpus.__wrapped__))


def _spy(monkeypatch, name):
    """The argument tuple of every later call of ``checks.<name>``."""
    calls = []
    real = getattr(checks, name)

    def spied(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(checks, name, spied)
    return calls


def test_run_all_builds_each_input_once(monkeypatch):
    # a cold run: the corpus is built inside run_all
    _rebuild_corpus(monkeypatch)
    built = _spy(monkeypatch, "variant")
    transitivity = _spy(monkeypatch, "check_transitivity")
    disagreements = _spy(monkeypatch, "_variety_disagreements")
    assert all(outcome.ok for outcome, _ in checks.run_all())
    corpus = checks._corpus()
    # each (t, c) of the corpus once; group-sanity builds its groups' own
    expected = Counter((s.base, c) for s, _ in corpus for c in range(s.order))
    groups = [load_corpus(name) for name in ("z2.sgp", "z3.sgp", "s3.sgp")]
    expected.update((t, c) for t in groups for c in range(t.order))
    assert Counter(built) == expected
    # one conjugacy check per distinct table, one oracle sweep per distinct model
    models = {model for s, uvs in corpus for model in (s, *uvs)}
    assert len(transitivity) == len(set(transitivity)) == 290
    assert set(transitivity) == {(model.base,) for model in models}
    assert len(disagreements) == len(set(disagreements)) == 477
    assert set(disagreements) == {(model,) for model in models}


def test_run_all_builds_the_corpus_before_any_check(monkeypatch):
    # a cold run: no check's seconds include the corpus build
    _rebuild_corpus(monkeypatch)
    built_on_entry = {}

    def entered(fn):
        def check():
            built_on_entry[fn.__name__] = checks._corpus.cache_info().currsize == 1
            return fn()

        return check

    monkeypatch.setattr(checks, "ALL_CHECKS", [entered(fn) for fn in checks.ALL_CHECKS])
    assert checks._corpus.cache_info().currsize == 0
    assert all(outcome.ok for outcome, _ in checks.run_all())
    # the first check, and the first one that reads the corpus, included
    assert built_on_entry == dict.fromkeys(CHECKS, True)


def test_closure_check_tests_each_distinct_variant_once(monkeypatch):
    # 2 criteria on each of the 218 tables, then V_1 and V_2 once each on the
    # distinct variants claimed for them (434 of 2 x 259), not on all 835
    calls = _spy(monkeypatch, "in_V")
    assert checks.check_variant_variety_closure().ok
    assert len(calls) == 870


def test_closure_check_counts_each_claim_on_a_failing_variant(monkeypatch):
    # with each "variant" the base table itself, a failure counts every claim
    # on it, as a test per source table and sandwich element would
    monkeypatch.setattr(checks, "variant", lambda t, c: t)
    _rebuild_corpus(monkeypatch)
    outcome = checks.check_variant_variety_closure()
    assert (outcome.ok, outcome.detail) == (False, "988 violations")
    monkeypatch.undo()
    assert checks.check_variant_variety_closure().ok


def test_oracle_check_searches_every_pair(monkeypatch):
    # the isomorphism search runs on every pair of order <= 4, whatever the
    # canonical forms say: 1 + 15 + 300 + 17,766 pairs
    calls = []
    search = checks._isomorphism_search

    def counted(*args):
        calls.append(len(args[0]))
        return search(*args)

    monkeypatch.setattr(checks, "_isomorphism_search", counted)
    assert checks.check_oracles().ok
    assert [calls.count(n) for n in (1, 2, 3, 4)] == [1, 15, 300, 17766]


def _merge_j_classes_0_and_1(t, green=checks.green):
    g = green(t)
    return replace(g, j_class=tuple(0 if c == 1 else c for c in g.j_class))


@pytest.mark.parametrize(
    "name, patched, messages",
    [
        ("e_identity_alt", lambda n: parse_identity("x = y"), ["E_1 axiomatizations disagree"]),
        ("in_V", lambda s, n: VarietyReport(f"V_{n}", False), ["E_1 member escaped V_1"]),
        (
            "in_V",
            lambda s, n: VarietyReport(f"V_{n}", True),
            ["V_1 member escaped E_2", "V_2 member escaped E_3"],
        ),
        (
            "in_W_structural",
            lambda t: False,
            ["W characterizations disagree: E2-based=True, equational=True, products=False"],
        ),
        (
            "epigroup_data",
            lambda t: EpigroupData((1,) * t.order, tuple(range(t.order)), tuple(range(t.order))),
            ["epigroup_data and Green's relations disagree at order 2"],
        ),
        ("green", _merge_j_classes_0_and_1, ["D != J at"]),
    ],
)
def test_oracle_check_reports_each_variety_disagreement(monkeypatch, name, patched, messages):
    # one criterion broken at a time; the oracle check names the equivalence
    monkeypatch.setattr(checks, name, patched)
    outcome = checks.check_oracles()
    assert not outcome.ok
    for message in messages:
        assert message in outcome.detail
    monkeypatch.undo()
    assert checks.check_oracles().ok


def _index_bound_violations():
    """(the violations ``check_variant_index_bounds`` counts, the (t, c, a)
    of the corpus that ``check_variant_index`` flags one a at a time)."""
    outcome = checks.check_variant_index_bounds()
    per_element = {
        (s.base.table, c, a)
        for s, _ in checks._corpus()
        for c in range(s.order)
        for a in range(s.order)
        if not check_variant_index(s, c, a)[2]
    }
    return int(outcome.detail.split()[0]), per_element


def test_variant_index_loop_flags_what_the_per_element_check_flags(monkeypatch):
    count, per_element = _index_bound_violations()
    assert count == len(per_element) == 0
    # with each "variant" the base table itself, both flag as many triples
    for module in (checks, variants):
        monkeypatch.setattr(module, "variant", lambda t, c: t)
    _rebuild_corpus(monkeypatch)
    count, per_element = _index_bound_violations()
    assert count == len(per_element) == 116
    monkeypatch.undo()
    assert _index_bound_violations() == (0, set())


def test_variant_index_check_fails_on_a_broken_variant(monkeypatch):
    monkeypatch.setattr(checks, "variant", lambda t, c: t)
    _rebuild_corpus(monkeypatch)
    outcome = checks.check_variant_index_bounds()
    assert (outcome.ok, outcome.detail) == (False, "116 violations")
    monkeypatch.undo()
    assert checks.check_variant_index_bounds().ok
