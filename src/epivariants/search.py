"""Exhaustive enumeration of small semigroups up to isomorphism.

The enumerator sets cell (0, 0) to 0, then fills the rest of the
multiplication table cell by cell in row-major order.  A rule at the root
and three tests cut the tree; the last two tests are one routine,
``core._lex_leader``, which also computes ``core.canonical_form``.

- Root rule.  Cell (0, 0) is set to 0 before the walk: every canonical
  table has 0 * 0 = 0.  A finite semigroup has an idempotent e (a power of
  any element), and a relabeling that sends e to 0 makes cell (0, 0) hold
  0, the least value; the canonical form is the least serialization over
  all relabelings, so its first cell is 0 too.  The root is checked and
  forced from like any other cell, and the walk fills every cell after it;
  only subtrees with no canonical table go.
- Forward checking (``_assign``).  Setting cell (a, b) to v walks the
  triples that use it: (a, b, z), (z, a, b), (x, y, b) with xy = a and
  (a, x, y) with xy = b; the last two come from a per-value index
  ``where[v]`` of the filled cells holding v, which ``_fill`` appends to on
  set and pops on unset, so no step scans all n^2 cells.  A triple whose
  four cells are known must be associative.  A triple with one unknown
  cell, (xy)z or x(yz), forces it to the other side: if bz and vz are known
  but a(bz) is not, cell (a, bz) must be vz.  Forced values live in a flat
  table of n^2 entries, undone on backtrack through a trail.  A cell forced
  to two different values ends the node, and a forced cell is tried with
  its forced value only.  Only values with no associative completion are
  skipped, and the rest are still tried in increasing order, so the tables
  and the order in which they are found do not change.
- Prefix test (lex-leader pruning).  When rows 0..r are filled, the
  relabelings that map {0..r} onto itself are tried on them; they read only
  filled cells.  If one makes rows 0..r lexicographically smaller, every
  completion has a smaller relabeling and is not canonical, so the subtree
  is cut.  ``_fill`` runs it at the first cell of every row after row 0, so
  the r = 0 case, which screens the first row, is one more prefix test.
- Leaf test.  A complete table is kept only when no relabeling makes it
  lexicographically smaller, so each isomorphism class is emitted exactly
  once, as its canonical form.  This test alone decides canonicity; the
  root rule and the other two tests only cut subtrees that hold no
  canonical table.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, product as iproduct

from .core import (
    MAX_PLAIN_ORDER,
    CapExceeded,
    CayleyTable,
    UnarySemigroup,
    _lex_leader,
    _unpack,
    canonical_form,
    table_of,
    validate,
)
from .epigroup import in_W_structural, is_completely_regular, pseudoinverse_map
from .variants import unary_variant
from .varieties import _UnknownVariety, _compiled, variety_test


def _assign(t, a, b, n, where, force, trail):
    # cell (a, b) now holds v; the triples that use it are (a, b, z),
    # (z, a, b), (x, y, b) with xy = a, and (a, x, y) with xy = b.  A triple
    # with all four cells known must be associative; one whose only unknown
    # cell is (xy)z or x(yz) forces that cell to the other side's value.  A
    # forced cell goes into the flat table ``force`` and onto ``trail``,
    # which the caller unwinds; a cell forced to two values ends the node.
    # Each loop updates ``force`` inline: a list of pending cells made a
    # call 13% slower, and a shared helper 19%
    ra = t[a]
    v = ra[b]
    rv = t[v]
    for z, bz in enumerate(t[b]):  # (ab)z = vz against a(bz)
        if bz >= 0:
            vz = rv[z]
            right = ra[bz]
            if vz >= 0:
                if right >= 0:
                    if right != vz:
                        return False
                    continue
                cell, value = a * n + bz, vz
            elif right >= 0:
                cell, value = v * n + z, right
            else:
                continue
            forced = force[cell]
            if forced < 0:
                force[cell] = value
                trail.append(cell)
            elif forced != value:
                return False
    for z, row in enumerate(t):  # (za)b against z(ab) = zv
        za = row[a]
        if za >= 0:
            left = t[za][b]
            right = row[v]
            if left >= 0:
                if right >= 0:
                    if right != left:
                        return False
                    continue
                cell, value = z * n + v, left
            elif right >= 0:
                cell, value = za * n + b, right
            else:
                continue
            forced = force[cell]
            if forced < 0:
                force[cell] = value
                trail.append(cell)
            elif forced != value:
                return False
    # Loops 3 and 4 only force.  A triple they reach with all four cells
    # known already holds: of its other three cells, the last one set found
    # (a, b) unknown and forced it, through loop 1, 2 or 4 (loop 3's
    # triples) or loop 1, 2 or 3 (loop 4's), and ``_fill`` tries only the
    # forced value
    for x, y in where[a]:  # (xy)b = ab = v against x(yb)
        yb = t[y][b]
        if yb >= 0 and t[x][yb] < 0:
            cell = x * n + yb
            forced = force[cell]
            if forced < 0:
                force[cell] = v
                trail.append(cell)
            elif forced != v:
                return False
    for x, y in where[b]:  # (ax)y against a(xy) = ab = v
        ax = ra[x]
        if ax >= 0 and t[ax][y] < 0:
            cell = ax * n + y
            forced = force[cell]
            if forced < 0:
                force[cell] = v
                trail.append(cell)
            elif forced != v:
                return False
    return True


def _fill(t, pos, n, where, force, trail, out):
    if pos == n * n:
        # the walk stops at the first relabeling that beats t
        if _lex_leader(t, stop=True) is not None:
            out.append(tuple(tuple(row) for row in t))
        return
    a = pos // n
    b = pos - a * n
    if b == 0 and _lex_leader(t, rows=a, stop=True) is None:
        # rows 0..a-1 are complete (the walk starts at cell 1, so a >= 1)
        # and a relabeling mapping {0..a-1} onto itself beats them, so it
        # beats every completion too
        return
    row = t[a]
    forced = force[pos]
    mark = len(trail)
    ab = (a, b)
    for v in range(n) if forced < 0 else (forced,):
        row[b] = v
        cells = where[v]
        cells.append(ab)
        if _assign(t, a, b, n, where, force, trail):
            _fill(t, pos + 1, n, where, force, trail, out)
        cells.pop()
        while len(trail) > mark:  # undo the cells this value forced
            force[trail.pop()] = -1
    row[b] = -1


_TABLE_CACHE = {}


def semigroup_tables(order):
    """All semigroups of the given order, one canonical representative per
    isomorphism class, sorted by canonical form: the walk sets cell (0, 0)
    to 0, then fills the cells in row-major order and tries each cell's
    values in increasing order, so it finds the tables already sorted."""
    if order < 1:
        raise ValueError("order must be positive")
    if order > MAX_PLAIN_ORDER:
        raise CapExceeded(f"order {order} exceeds the enumeration cap {MAX_PLAIN_ORDER}")
    if order in _TABLE_CACHE:
        return _TABLE_CACHE[order]
    n = order
    t = [[-1] * n for _ in range(n)]
    where = [[] for _ in range(n)]
    force = [-1] * (n * n)
    trail = []
    tables = []
    # the root rule: every canonical table has 0 * 0 = 0
    t[0][0] = 0
    where[0].append((0, 0))
    if _assign(t, 0, 0, n, where, force, trail):
        _fill(t, 1, n, where, force, trail, tables)
    result = tuple(CayleyTable(t) for t in tables)
    for t in result:
        validate(t)  # belt over the incremental pruning
    _TABLE_CACHE[order] = result
    return result


def count_semigroups(order, merge_anti=False):
    """Number of semigroups of the given order up to isomorphism, or up to
    isomorphism plus anti-isomorphism."""
    if not merge_anti:
        return len(semigroup_tables(order))
    return len(enumerate_models(order, unary=None, merge_anti=True))


# the filters that need no unary map, so they also apply to plain tables
_TABLE_FILTERS = {
    "completely_regular": lambda m: is_completely_regular(table_of(m)),
    "in_W_structural": lambda m: in_W_structural(table_of(m)),
}


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


# the filters that read the unary map, so plain tables refuse them
_UNARY_FILTERS = {
    "canonical_unary": lambda m: isinstance(m, UnarySemigroup) and m.canonical,
    "variant_of_CR": is_variant_of_cr,
}


def resolve_filter(name):
    """Named structural predicates, with a 'not:' prefix for negation: the
    ones in ``_TABLE_FILTERS`` and ``_UNARY_FILTERS``, and the variety names
    of ``varieties.variety_test``."""
    base_name = name.removeprefix("not:")
    pred = _TABLE_FILTERS.get(base_name, _UNARY_FILTERS.get(base_name))
    if pred is None:
        try:
            test = variety_test(base_name)
        except _UnknownVariety:
            raise ValueError(f"unknown filter {name!r}") from None
        pred = lambda m: test(m).holds
    if base_name != name:
        return lambda m: not pred(m)
    return pred


def _candidates(tables, unary):
    """The models the unary mode puts on each table: every unary map, the
    pseudoinverse map, or none."""
    if unary == "free":
        for t in tables:
            pinv = pseudoinverse_map(t).unary
            for images in iproduct(range(t.order), repeat=t.order):
                yield UnarySemigroup(t, images, canonical=(images == pinv))
    elif unary == "pseudoinverse":
        yield from map(pseudoinverse_map, tables)
    else:
        yield from tables


def enumerate_models(order, identities=(), filters=(), unary="pseudoinverse", merge_anti=False):
    """All semigroups of the given order that satisfy the identities and pass
    the named filters (see ``resolve_filter``), one per isomorphism class
    (unary isomorphism when a unary map is attached), as a tuple sorted by
    canonical form.  ``unary`` is ``"pseudoinverse"`` (each table with its
    pseudoinverse map), ``"free"`` (each table with every unary map) or
    None (plain tables); ``merge_anti`` keeps one class of each
    anti-isomorphic pair.

    Each model that passes gets one form, its canonical form without the
    order byte.  A table from ``semigroup_tables`` is its own lex leader, and
    so is its pseudoinverse map, which every automorphism preserves: their
    form is their own serialization.  A free unary map is walked by
    ``_lex_leader``.  The forms dedupe the free unary maps, key the
    anti-isomorphism merge and sort the result."""
    if unary not in ("pseudoinverse", "free", None):
        raise ValueError(f"unary must be 'pseudoinverse', 'free' or None, not {unary!r}")
    identities = tuple(identities)
    predicates = [resolve_filter(name) for name in filters]
    if unary is None:
        unary_only = [ident.text for ident in identities] + [
            name for name in filters if name.removeprefix("not:") not in _TABLE_FILTERS
        ]
        if unary_only:
            raise ValueError(f"plain tables carry no unary map for {', '.join(unary_only)}")
    if unary == "free":
        # in_W reads W's basis on the pseudoinverse map alone
        pinv_only = [name for name in filters if name.removeprefix("not:") == "W"]
        if pinv_only:
            raise ValueError(f"free unary maps cannot be filtered by {', '.join(pinv_only)}: "
                             "W reads only the pseudoinverse map")
    first_failure = _compiled(identities)
    found = {}
    for model in _candidates(semigroup_tables(order), unary):
        if (not identities or first_failure(model) is None) and all(
            pred(model) for pred in predicates
        ):
            table, images = _unpack(model)
            if unary == "free":
                form = _lex_leader(table, images)
            else:
                form = tuple(chain.from_iterable(table)) + (images or ())
            found.setdefault(form, model)
    forms = sorted(found)
    if merge_anti:
        # of each anti-isomorphic pair of classes, the one of smaller form;
        # the opposite's form is its transposed table's lex leader, with the
        # unary map unchanged.  The opposite's model is a copy of that
        # transpose, so its own transpose is a copy of this model and its
        # walk would give this form back: one walk keys both classes, and
        # the opposite, if it passed, reuses the key when it comes up
        merged = {}
        keys = {}
        for form in forms:
            key = keys.pop(form, None)
            if key is None:
                table, images = _unpack(found[form])
                opposite = _lex_leader(tuple(zip(*table)), images)
                key = keys[opposite] = min(form, opposite)
            merged.setdefault(key, form)
        forms = merged.values()
    return tuple(found[form] for form in forms)
