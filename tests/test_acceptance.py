"""End-to-end acceptance suite.

Each test runs one named verification check and prints a single pass/fail
line so the run log doubles as a checklist (use ``pytest -s`` to see the
lines as they happen).
"""

import pytest

from epivariants import checks

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
