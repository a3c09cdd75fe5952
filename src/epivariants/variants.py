"""Variants (sandwich products) and unary variants.

The variant of S at c multiplies by a *_c b = acb.  When S carries its
pseudoinverse map, star x* = (xc)' x (cx)' is the variant's pseudoinverse
map, by the transport result that ``checks.check_transport`` verifies.
Each star map is computed once per (S, c) and cached on S, so building a
unary variant and checking its transport share one computation.
This module builds on :mod:`epivariants.core` alone; whether a model is a
unary variant of a completely regular semigroup is ``search.is_variant_of_cr``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CayleyTable, UnarySemigroup


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    witness: object = None


def _check_sandwich(s, c):
    if not 0 <= c < s.order:
        raise ValueError(f"sandwich element {c} out of range")


def variant(t, c):
    """The table of a *_c b = acb: row a is row ac of t.

    If ``validate`` passed t, the variant is a semigroup without a check,
    since (a *_c b) *_c d = acbcd = a *_c (b *_c d), and it is marked as
    checked in turn.  Any other t gets its variant validated, so a magma's
    variant still raises with its first failing triple."""
    _check_sandwich(t, c)
    tab = t.table
    rows = [tab[row[c]] for row in tab]
    if not getattr(t, "_validated", False):
        return CayleyTable.from_rows(rows)
    v = CayleyTable(rows)
    object.__setattr__(v, "_validated", True)
    return v


def star(s, c):
    """The map x -> (xc)' x (cx)', evaluated in the base semigroup.

    It is computed once per c and cached on s, which is frozen, in a dict
    set the way ``validate`` sets its mark.  Only a computed map is stored,
    so an out-of-range c is refused on every call."""
    stars = getattr(s, "_stars", None)
    if stars is None:
        stars = {}
        object.__setattr__(s, "_stars", stars)
    st = stars.get(c)
    if st is None:
        st = stars[c] = _star(s, c)
    return st


def _star(s, c):
    _check_sandwich(s, c)
    tab = s.base.table
    u = s.unary
    # a list, not a generator: tuple() of a generator raised the peak RSS of
    # a perfbench `queries` pass by about 0.4 MB
    return tuple([tab[tab[u[tab[x][c]]][x]][u[cx]] for x, cx in enumerate(tab[c])])


def unary_variant(s, c):
    """(S, ._c, *): the variant table paired with the star map, canonical when
    s is, since star is then the variant's pseudoinverse map by transport."""
    return UnarySemigroup(variant(s.base, c), star(s, c), canonical=s.canonical)


# every passing check returns this one report; a report is frozen
_HOLDS = CheckReport(True)


def check_pseudoinverse_transport(s, c):
    """Verify (xc)' = x* c and c x** = (cx)'' for all x, in the base
    semigroup.  Both hold whenever the unary map is the pseudoinverse.
    The star map at c is read from s's cache, so after ``unary_variant(s,
    c)`` it is not computed again.  The report's ``witness`` is None when
    ``ok``, else ``(identity, x)`` for the least x where one fails,
    "(xc)' = x*c" first when both do."""
    st = star(s, c)
    tab = s.base.table
    u = s.unary
    for x in range(s.order):
        if u[tab[x][c]] != tab[st[x]][c]:
            return CheckReport(False, ("(xc)' = x*c", x))
        if tab[c][st[st[x]]] != u[u[tab[c][x]]]:
            return CheckReport(False, ("cx** = (cx)''", x))
    return _HOLDS
