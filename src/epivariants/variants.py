"""Variants (sandwich products) and unary variants.

The variant of S at c multiplies by a *_c b = acb.  When S carries its
pseudoinverse map, the star operation x* = (xc)' x (cx)' turns the variant
into a unary semigroup; the checks below verify, table by table, that star
behaves exactly like the variant's own pseudoinverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import CayleyTable, UnarySemigroup, canonical_form
from .epigroup import is_completely_regular, pseudoinverse_map
from .search import semigroup_tables


@dataclass(frozen=True)
class CheckReport:
    name: str
    ok: bool
    witness: object = None


def variant(t, c):
    """The table of a *_c b = acb: row a is row ac of t.

    If ``validate`` passed t, the variant is a semigroup without a check,
    since (a *_c b) *_c d = acbcd = a *_c (b *_c d), and it is marked as
    checked in turn.  Any other t gets its variant validated, so a magma's
    variant still raises with its first failing triple."""
    tab = t.table
    if not 0 <= c < t.order:
        raise ValueError(f"sandwich element {c} out of range")
    rows = [tab[row[c]] for row in tab]
    if not getattr(t, "_validated", False):
        return CayleyTable.from_rows(rows)
    v = CayleyTable(rows)
    object.__setattr__(v, "_validated", True)
    return v


def star(s, c):
    """The map x -> (xc)' x (cx)', evaluated in the base semigroup."""
    tab = s.base.table
    u = s.unary
    # a list, not a generator: tuple() of a generator raised the peak RSS of
    # a perfbench `queries` pass by about 0.4 MB
    return tuple([tab[tab[u[tab[x][c]]][x]][u[cx]] for x, cx in enumerate(tab[c])])


def unary_variant(s, c):
    """(S, ._c, *): the variant table paired with the star map."""
    return UnarySemigroup(variant(s.base, c), star(s, c))


def check_pseudoinverse_transport(s, c, st=None):
    """Verify (xc)' = x* c and c x** = (cx)'' for all x, in the base
    semigroup.  Both hold whenever the unary map is the pseudoinverse.
    ``st`` is the star map at c when the caller holds it already, as the
    checks' corpus does; it is computed here otherwise."""
    tab = s.base.table
    u = s.unary
    if st is None:
        st = star(s, c)
    for x in range(s.order):
        if u[tab[x][c]] != tab[st[x]][c]:
            return CheckReport("pseudoinverse-transport", False, ("(xc)' = x*c", x))
        if tab[c][st[st[x]]] != u[u[tab[c][x]]]:
            return CheckReport("pseudoinverse-transport", False, ("cx** = (cx)''", x))
    return CheckReport("pseudoinverse-transport", True)


@lru_cache(maxsize=None)
def _cr_variant_forms(n):
    """The canonical forms of the unary variants of the completely regular
    semigroups T of order n, at every c in T^1, one form computed per
    distinct (table, unary map): 148 of the 335 variants at order 4."""
    models = set()
    for t in semigroup_tables(n):
        if not is_completely_regular(t):
            continue
        su = pseudoinverse_map(t)
        # c = adjoined identity: x *_1 y = xy and x* = x'; the form does not
        # read the canonical flag, so the pair is keyed without it
        models.add(UnarySemigroup(t, su.unary))
        models.update(unary_variant(su, c) for c in range(n))
    return frozenset(map(canonical_form, models))


def is_variant_of_cr(s):
    """Whether s is isomorphic to a unary variant of a completely regular
    semigroup T of its order, c in T^1: sandwiching by the adjoined identity
    gives back T itself, so a completely regular semigroup always counts as
    a (trivial) variant.  The first call at an order collects the canonical
    forms of that order's variants; each call is then one lookup of
    ``canonical_form(s)``, with no isomorphism search.  Orders above the
    enumeration cap raise CapExceeded before the form is computed."""
    forms = _cr_variant_forms(s.order)
    return canonical_form(s) in forms
