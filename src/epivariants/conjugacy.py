"""Primary conjugacy: a ~ b iff a = xy and b = yx for some x, y in S^1.

The relation is reflexive and symmetric but not transitive in general; its
transitive closure partitions S into conjugacy classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SemigroupError, adjoin_identity


class RelationNotSymmetric(SemigroupError):
    pass


@dataclass(frozen=True)
class BinaryRelation:
    order: int
    bits: tuple  # n x n boolean matrix

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(tuple(bool(v) for v in row) for row in self.bits))

    def holds(self, a, b):
        return self.bits[a][b]


@dataclass(frozen=True)
class ConjugacyReport:
    relation: BinaryRelation
    transitive: bool
    witness: tuple | None  # (a, b, c) with a~b, b~c, not a~c
    classes: tuple


def primary_conjugacy(t):
    """The primary conjugacy relation on S, with x and y ranging over S^1."""
    n = t.order
    s1 = adjoin_identity(t).table
    m = len(s1)
    bits = [[False] * n for _ in range(n)]
    for x in range(m):
        row = s1[x]
        for y in range(m):
            a = row[y]
            b = s1[y][x]
            if a < n and b < n:
                bits[a][b] = True
                bits[b][a] = True
    return BinaryRelation(n, bits)


def _require_symmetric(r):
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
            for b in range(n):
                if r.bits[a][b] and not seen[b]:
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
    witness = None
    for a in range(n):
        if witness:
            break
        for b in range(n):
            if witness:
                break
            if not rel.bits[a][b]:
                continue
            for c in range(n):
                if rel.bits[b][c] and not rel.bits[a][c]:
                    witness = (a, b, c)
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
