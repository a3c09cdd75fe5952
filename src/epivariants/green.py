"""Green's relations and group H-class detection.

R and L are computed directly from the principal ideals aS^1 and S^1a, H as
the intersection of R and L.  The two-sided ideal S^1aS^1 = {x(ay)} behind J
is the union of the left ideals S^1v over v in aS^1, which is the same set on
any finite magma.  D is the relational composition R o L: a D b iff some
element lies in both R_a and L_b, read off the set of (R-class, L-class)
pairs that occur.  L o R is read off the same set and must agree.  For
finite semigroups D = J; both are computed independently and compared, so a
disagreement signals a corrupted table rather than a mathematical surprise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import TABLE_CACHE_SIZE, adjoin_identity


class GreenError(Exception):
    """Internal consistency failure while computing Green's relations."""


@dataclass(frozen=True)
class GreenStructure:
    r_class: tuple
    l_class: tuple
    h_class: tuple
    d_class: tuple
    j_class: tuple
    idempotents: frozenset
    group_h_classes: frozenset

    def h_members(self, a):
        hid = self.h_class[a]
        return [x for x in range(len(self.h_class)) if self.h_class[x] == hid]


def _classes_by_key(keys):
    # class ids assigned by smallest member, making outputs deterministic
    ids = {}
    out = []
    for key in keys:
        if key not in ids:
            ids[key] = len(ids)
        out.append(ids[key])
    return tuple(out)


def idempotents(t):
    return frozenset(e for e in range(t.order) if t.table[e][e] == e)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def green(t):
    n = t.order
    s1 = adjoin_identity(t).table

    right = [frozenset(s1[a]) | {a} for a in range(n)]
    left = [frozenset(row[a] for row in s1) | {a} for a in range(n)]
    # S^1aS^1 = {x(ay)} is the union of the left ideals S^1v over v in aS^1
    two = [frozenset().union(*(left[v] for v in right[a])) for a in range(n)]

    r_class = _classes_by_key(right)
    l_class = _classes_by_key(left)
    h_class = _classes_by_key(list(zip(r_class, l_class)))
    j_class = _classes_by_key(two)

    # a (R o L) b iff some z has R_z = R_a and L_z = L_b, i.e. the pair of
    # classes (R_a, L_b) is occupied; a (L o R) b iff (R_b, L_a) is.  Check
    # that the two agree and that D = J; D's classes are then J's.
    pairs = set(zip(r_class, l_class))
    for a in range(n):
        for b in range(n):
            rol = (r_class[a], l_class[b]) in pairs
            if ((r_class[b], l_class[a]) in pairs) != rol:
                raise GreenError(f"R o L != L o R at ({a},{b})")
            if rol != (j_class[a] == j_class[b]):
                raise GreenError(f"D != J at ({a},{b})")
    d_class = j_class

    idem = idempotents(t)
    idem_h = {h_class[e] for e in idem}
    groups = set()
    for a in range(n):
        has_idem = h_class[a] in idem_h
        square_in = h_class[t.table[a][a]] == h_class[a]
        if has_idem != square_in:
            raise GreenError(f"group H-class criteria disagree at element {a}")
        if has_idem:
            groups.add(h_class[a])

    return GreenStructure(
        r_class=r_class,
        l_class=l_class,
        h_class=h_class,
        d_class=d_class,
        j_class=j_class,
        idempotents=idem,
        group_h_classes=frozenset(groups),
    )


def is_group_h_class(g, t, a):
    """True iff H_a contains an idempotent, equivalently a*a lies in H_a.

    Both criteria were computed and compared in :func:`green`.
    """
    return g.h_class[a] in g.group_h_classes
