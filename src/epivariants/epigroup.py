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
from .varieties import _compiled, parse_identity


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


def pseudoinverse_map(t):
    """The canonical unary semigroup (S, ., ') over t."""
    return UnarySemigroup(t, epigroup_data(t).pseudoinverse, canonical=True)


def is_completely_regular(t):
    """True iff every element has index 1 (lies in a subgroup)."""
    return all(k == 1 for k in epigroup_data(t).index)


def in_W_structural(t):
    """W's products criterion alone: every xy has index 1 (lies in a
    subgroup); ``checks.check_oracles`` compares the other criteria."""
    index = epigroup_data(t).index
    return all(index[v] == 1 for row in t.table for v in row)


# (identity, its one-identity basis's first_failure), parsed and compiled once
_PSEUDOINVERSE_BASES = tuple(
    (ident, _compiled((ident,)))
    for ident in map(parse_identity, (
        "x'*x*x' = x'",
        "x*x' = x'*x",
        "x''' = x'",
        "x*x'*x = x''",
        "(x*y)'*x = x*(y*x)'",
        "(x^2)' = x'^2",
        "(x^3)' = x'^3",
    ))
)


def verify_epigroup_identities(s):
    """Check the unary-semigroup identities that hold whenever the unary map
    is the pseudoinverse.  Returns a list of (identity, counterexample) with
    counterexample None on success.
    """
    results = []
    for ident, first_failure in _PSEUDOINVERSE_BASES:
        hit = first_failure(s)
        results.append((ident, None if hit is None else hit[1]))
    return results
