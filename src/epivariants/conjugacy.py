"""Primary conjugacy: a ~ b iff a = xy and b = yx for some x, y in S^1.

The relation is reflexive and symmetric but not transitive in general; its
transitive closure partitions S into conjugacy classes.  S^1 is never built:
taking x or y to be the adjoined identity gives only the pairs (a, a), so
the relation is the diagonal plus the pairs (xy, yx) read off row x and
column x of the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .core import SemigroupError


class RelationNotSymmetric(SemigroupError):
    pass


@dataclass(frozen=True)
class BinaryRelation:
    order: int
    bits: tuple  # n x n boolean matrix

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(tuple(map(bool, row)) for row in self.bits))

    def holds(self, a, b):
        return self.bits[a][b]


@dataclass(frozen=True)
class ConjugacyReport:
    relation: BinaryRelation
    transitive: bool
    witness: tuple | None  # (a, b, c) with a~b, b~c, not a~c
    classes: tuple


def primary_conjugacy(t):
    """The primary conjugacy relation on S, with x and y ranging over S^1.

    x = 1 or y = 1 gives a = xy = yx = b, so the adjoined identity adds
    exactly the diagonal, whether or not S is already a monoid.  The rest
    are the pairs (xy, yx) over x, y in S: row x of the table against
    column x.  Swapping x and y swaps the pair, so the relation is
    symmetric by construction."""
    n = t.order
    tab = t.table
    bits = [[False] * n for _ in range(n)]
    for a in range(n):
        bits[a][a] = True
    for row, col in zip(tab, zip(*tab)):
        for a, b in zip(row, col):
            bits[a][b] = True
    return BinaryRelation(n, bits)


def _require_symmetric(r):
    if list(r.bits) == list(zip(*r.bits)):
        return
    for a in range(r.order):
        for b in range(r.order):
            if r.bits[a][b] != r.bits[b][a]:
                raise RelationNotSymmetric(f"asymmetric at ({a},{b})")


def transitive_closure(r):
    """Connected components of a reflexive symmetric relation, as a
    partition ordered by smallest member."""
    _require_symmetric(r)
    n = r.order
    seen = [False] * n
    classes = []
    for start in range(n):
        if seen[start]:
            continue
        component = []
        queue = [start]
        seen[start] = True
        while queue:
            a = queue.pop()
            component.append(a)
            for b in compress(range(n), r.bits[a]):
                if not seen[b]:
                    seen[b] = True
                    queue.append(b)
        classes.append(tuple(sorted(component)))
    return tuple(classes)


def check_transitivity(t):
    """Full report: the relation, a transitivity verdict, the
    lexicographically least witness triple on failure, and the classes of
    the transitive closure."""
    rel = primary_conjugacy(t)
    n = t.order
    related = [set(compress(range(n), row)) for row in rel.bits]
    witness = None
    for a, mine in enumerate(related):
        for b in sorted(mine):
            missing = related[b] - mine
            if missing:
                witness = (a, b, min(missing))
                break
        if witness:
            break
    return ConjugacyReport(
        relation=rel,
        transitive=witness is None,
        witness=witness,
        classes=transitive_closure(rel),
    )


def conjugacy_classes(t):
    """Classes of the transitive closure of primary conjugacy."""
    return transitive_closure(primary_conjugacy(t))
