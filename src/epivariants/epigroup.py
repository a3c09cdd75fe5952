"""Element index and pseudoinverse computation for finite semigroups.

Every finite semigroup is an epigroup: some power of each element lies in a
subgroup.  The powers of a run a, a^2, ..., a^(m+r-1) and then repeat, where
m and r are least with a^m = a^(m+r), and the cycle a^m, ..., a^(m+r-1) is a
cyclic group.  So the index of a (the least n with a^n in a subgroup) is m,
the cycle's identity e is the a^j in it with j = 0 (mod r), and the
pseudoinverse a', the group inverse of ae, is the a^j in it with
j = -1 (mod r).  ``checks.check_oracles`` compares these with the same
quantities read off Green's relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import TABLE_CACHE_SIZE, UnarySemigroup, _powers
from .varieties import _compiled, _first_failure, parse_identity


@dataclass(frozen=True)
class EpigroupData:
    index: tuple          # element a -> m, least with a^m = a^(m+r) for some r
    pseudoinverse: tuple  # element a -> a' = a^j with j >= m, j = -1 (mod r)
    unit_of: tuple        # element a -> the idempotent a^j with j >= m, j = 0 (mod r)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def epigroup_data(t):
    """Index, pseudoinverse and unit of every element of a semigroup t,
    read off each element's powers; t must be associative."""
    index = []
    pinv = []
    unit = []
    for a in range(t.order):
        powers, m = _powers(t.table, a)
        r = len(powers) + 1 - m
        # a^j = powers[m - 1 + (j - m) % r] for every j >= m
        index.append(m)
        pinv.append(powers[m - 1 + (-1 - m) % r])
        unit.append(powers[m - 1 + -m % r])
    return EpigroupData(index=tuple(index), pseudoinverse=tuple(pinv), unit_of=tuple(unit))


def element_index(t, a):
    return epigroup_data(t).index[a]


def pseudoinverse(t, a):
    return epigroup_data(t).pseudoinverse[a]


def pseudoinverse_map(t):
    """The canonical unary semigroup (S, ., ') over t."""
    return UnarySemigroup(t, epigroup_data(t).pseudoinverse, canonical=True)


def is_completely_regular(t):
    """True iff every element has index 1 (lies in a subgroup)."""
    return all(k == 1 for k in epigroup_data(t).index)


PSEUDOINVERSE_IDENTITIES = tuple(
    parse_identity(text)
    for text in (
        "x'*x*x' = x'",
        "x*x' = x'*x",
        "x''' = x'",
        "x*x'*x = x''",
        "(x*y)'*x = x*(y*x)'",
    )
)


@lru_cache(maxsize=16)
def _identity_bases(primes):
    """(identity, its one-identity basis) for the five identities above and
    (x^p)' = x'^p for each p in primes, parsed and compiled once per primes."""
    powers = tuple(parse_identity(f"(x^{p})' = x'^{p}") for p in primes)
    return tuple((ident, _compiled((ident,))) for ident in PSEUDOINVERSE_IDENTITIES + powers)


def verify_epigroup_identities(s, primes=(2, 3)):
    """Check the unary-semigroup identities that hold whenever the unary map
    is the pseudoinverse.  Returns a list of (identity, counterexample) with
    counterexample None on success.
    """
    results = []
    for ident, basis in _identity_bases(tuple(primes)):
        hit = _first_failure(s, basis)
        results.append((ident, None if hit is None else hit[1]))
    return results
