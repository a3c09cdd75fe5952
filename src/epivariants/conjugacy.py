"""Primary conjugacy: a ~ b iff a = xy and b = yx for some x, y in S^1.

The relation is reflexive and symmetric but not transitive in general; its
transitive closure partitions S into conjugacy classes.  S^1 is never built:
taking x or y to be the adjoined identity gives only the pairs (a, a), so
the relation is the diagonal plus the pairs (xy, yx) read off row x and
column x of the table.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BinaryRelation:
    order: int
    bits: tuple  # n x n boolean matrix


@dataclass(frozen=True)
class ConjugacyReport:
    relation: BinaryRelation
    transitive: bool
    witness: tuple | None  # (a, b, c) with a~b, b~c, not a~c
    classes: tuple


def _related(t):
    """related[a]: the set of b with a ~ b.

    x = 1 or y = 1 gives a = xy = yx = b, so the adjoined identity adds
    exactly the diagonal, whether or not S is already a monoid.  The rest
    are the pairs (xy, yx) over x, y in S: row x of the table against
    column x.  Swapping x and y swaps the pair, so the relation is
    symmetric by construction."""
    tab = t.table
    related = [{a} for a in range(t.order)]
    for row, col in zip(tab, zip(*tab)):
        for a, b in zip(row, col):
            related[a].add(b)
    return related


def _relation(related):
    """The BinaryRelation with the given related sets."""
    n = len(related)
    rows = []
    for mine in related:
        row = [False] * n
        for b in mine:
            row[b] = True
        rows.append(tuple(row))
    return BinaryRelation(n, tuple(rows))


def primary_conjugacy(t):
    """The primary conjugacy relation on S, with x and y ranging over S^1
    (see ``_related``)."""
    return _relation(_related(t))


def _components(neighbours):
    """Connected components of the graph with the given neighbours of each
    element, as a partition ordered by smallest member."""
    n = len(neighbours)
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
            for b in neighbours[a]:
                if not seen[b]:
                    seen[b] = True
                    queue.append(b)
        classes.append(tuple(sorted(component)))
    return tuple(classes)


def check_transitivity(t):
    """Full report: the relation, a transitivity verdict, the
    lexicographically least witness triple on failure, and the classes of
    the transitive closure, all from one pass over the table."""
    related = _related(t)
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
        relation=_relation(related),
        transitive=witness is None,
        witness=witness,
        classes=_components(related),
    )


def conjugacy_classes(t):
    """Classes of the transitive closure of primary conjugacy."""
    return _components(_related(t))
