"""Green's relations and group H-class detection.

R and L are computed directly from the principal ideals aS^1 and S^1a, read
off row a and column a of the table with a itself added for the adjoined
identity; H is the intersection of R and L.  The input is taken to be a
semigroup, and two theorems for finite semigroups give the rest: D = J, and
an H-class is a group iff it holds an idempotent.  D is taken as R o L: the
R-classes of one D-class each meet all of its L-classes, so a D b iff R_a
and R_b meet the same L-classes.  No two-sided ideal S^1aS^1 is computed
here.  That R o L = L o R, that R o L equals the J read off the two-sided
ideals, and that the group H-classes are the ones closed under squaring are
checked on every table of order at most 4 and its variants by
``verify-paper``'s ``oracle-equivalences`` check
(``checks._green_disagreements``), not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import TABLE_CACHE_SIZE


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
    tab = t.table
    right = [frozenset(row) | {a} for a, row in enumerate(tab)]
    left = [frozenset(col) | {a} for a, col in enumerate(zip(*tab))]

    r_class = _classes_by_key(right)
    l_class = _classes_by_key(left)
    h_class = _classes_by_key(list(zip(r_class, l_class)))
    # D = R o L: a D b iff R_a and R_b meet the same L-classes
    meets = {}
    for rc, lc in zip(r_class, l_class):
        meets.setdefault(rc, set()).add(lc)
    j_class = _classes_by_key([frozenset(meets[rc]) for rc in r_class])

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
