"""Green's relations and group H-class detection.

R and L are computed directly from the principal ideals aS^1 and S^1a, H as
the intersection of R and L.  The two-sided ideal S^1aS^1 = {x(ay)} behind J
is the union of the left ideals S^1v over v in aS^1, which is the same set on
any finite magma.  The input is taken to be a semigroup, and two theorems
for finite semigroups give the rest: D = J, and an H-class is a group iff it
holds an idempotent.  That R o L = L o R, that D = J, and that the group
H-classes are the ones closed under squaring are checked on every table of
order at most 4 and its variants by ``verify-paper``'s
``oracle-equivalences`` check, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import TABLE_CACHE_SIZE, adjoin_identity


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

    idem = idempotents(t)
    return GreenStructure(
        r_class=r_class,
        l_class=l_class,
        h_class=h_class,
        d_class=j_class,
        j_class=j_class,
        idempotents=idem,
        group_h_classes=frozenset(h_class[e] for e in idem),
    )


def is_group_h_class(g, a):
    """True iff H_a contains an idempotent, equivalently a*a lies in H_a.

    ``check_oracles`` compares the two criteria.
    """
    return g.h_class[a] in g.group_h_classes
