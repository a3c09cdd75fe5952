"""Green's relations and group H-class detection.

R, L and J are computed directly from principal ideals over S^1, H as the
intersection of R and L, and D as the relational composition R o L.  For
finite semigroups D = J; both are computed independently and compared, so a
disagreement signals a corrupted table rather than a mathematical surprise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import adjoin_identity


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


@lru_cache(maxsize=None)
def green(t):
    n = t.order
    s1 = adjoin_identity(t).table
    m = len(s1)

    right = [frozenset(s1[a][x] for x in range(m)) | {a} for a in range(n)]
    left = [frozenset(s1[x][a] for x in range(m)) | {a} for a in range(n)]
    two = [
        frozenset(s1[x][s1[a][y]] for x in range(m) for y in range(m)) | {a}
        for a in range(n)
    ]

    r_class = _classes_by_key(right)
    l_class = _classes_by_key(left)
    h_class = _classes_by_key(list(zip(r_class, l_class)))
    j_class = _classes_by_key(two)

    # D = R o L; also verify L o R gives the same relation and that D = J
    d_rel = [
        [
            any(r_class[a] == r_class[z] and l_class[z] == l_class[b] for z in range(n))
            for b in range(n)
        ]
        for a in range(n)
    ]
    for a in range(n):
        for b in range(n):
            lor = any(l_class[a] == l_class[z] and r_class[z] == r_class[b] for z in range(n))
            if lor != d_rel[a][b]:
                raise GreenError(f"R o L != L o R at ({a},{b})")
            if d_rel[a][b] != (j_class[a] == j_class[b]):
                raise GreenError(f"D != J at ({a},{b})")
    d_class = _classes_by_key(tuple(tuple(row) for row in d_rel))

    idem = idempotents(t)
    groups = set()
    for a in range(n):
        has_idem = any(h_class[e] == h_class[a] for e in idem)
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
