"""Element index and pseudoinverse computation for finite semigroups.

Every finite semigroup is group-bound: some power a^n of each element a lands
in a group H-class.  The least such n is the index of a, and the
pseudoinverse a' is the group inverse of a*e inside that H-class, where e is
the class's idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import UnarySemigroup
from .green import green, is_group_h_class
from .varieties import find_counterexample, parse_identity


class EpigroupError(Exception):
    """Internal consistency failure in index/pseudoinverse computation."""


@dataclass(frozen=True)
class EpigroupData:
    index: tuple          # element -> index (least n with a^n in a group H-class)
    pseudoinverse: tuple  # element -> a'
    unit_of: tuple        # element -> the idempotent of the group H-class of a^n


@lru_cache(maxsize=None)
def epigroup_data(t):
    n = t.order
    tab = t.table
    g = green(t)
    index = []
    pinv = []
    unit = []
    for a in range(n):
        p = a
        k = 1
        while not is_group_h_class(g, t, p):
            p = tab[p][a]
            k += 1
            if k > n:
                raise EpigroupError(f"no power of {a} reaches a group H-class")
        members = g.h_members(p)
        es = [e for e in members if tab[e][e] == e]
        if len(es) != 1:
            raise EpigroupError(f"group H-class of {p} has {len(es)} idempotents")
        e = es[0]
        ae = tab[a][e]
        if g.h_class[ae] != g.h_class[p]:
            raise EpigroupError(f"{a}*{e} left the group H-class of {p}")
        inverses = [h for h in members if tab[ae][h] == e and tab[h][ae] == e]
        if len(inverses) != 1:
            raise EpigroupError(f"{ae} has {len(inverses)} inverses in its H-class")
        index.append(k)
        pinv.append(inverses[0])
        unit.append(e)
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
def _power_identities(primes):
    """(x^p)' = x'^p for each p in primes, parsed once per primes value."""
    return tuple(parse_identity(f"(x^{p})' = x'^{p}") for p in primes)


def verify_epigroup_identities(s, primes=(2, 3)):
    """Check the unary-semigroup identities that hold whenever the unary map
    is the pseudoinverse.  Returns a list of (identity, counterexample) with
    counterexample None on success.
    """
    identities = PSEUDOINVERSE_IDENTITIES + _power_identities(tuple(primes))
    return [(ident, find_counterexample(s, ident)) for ident in identities]
