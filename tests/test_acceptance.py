"""End-to-end acceptance suite.

Each test runs one named verification check and prints a single pass/fail
line so the run log doubles as a checklist (use ``pytest -s`` to see the
lines as they happen).
"""

from dataclasses import replace

import pytest

from epivariants import checks
from epivariants.epigroup import EpigroupData
from epivariants.varieties import VarietyReport, parse_identity

CHECKS = {fn.__name__: fn for fn in checks.ALL_CHECKS}


@pytest.mark.parametrize("name", list(CHECKS))
def test_acceptance(name, capsys):
    outcome = CHECKS[name]()
    with capsys.disabled():
        print(f"{'PASS' if outcome.ok else 'FAIL'} {outcome.name}: {outcome.detail}")
    assert outcome.ok, f"{outcome.name}: {outcome.detail}"


def test_every_check_is_covered():
    assert len(CHECKS) == 10


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
