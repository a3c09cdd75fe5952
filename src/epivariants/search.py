"""Exhaustive enumeration of small semigroups up to isomorphism.

The enumerator fixes the first row, then fills the rest of the
multiplication table cell by cell in row-major order.  Three tests cut the
tree; the last two are one routine, ``core._lex_leader``, which also
computes ``core.canonical_form``.

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
  is cut.  The r = 0 case screens first rows before any cell is checked.
- Leaf test.  A complete table is kept only when no relabeling makes it
  lexicographically smaller, so each isomorphism class is emitted exactly
  once, as its canonical form.  This test alone decides canonicity; the
  other two only cut subtrees that hold no canonical table.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from itertools import chain, product as iproduct

from .core import (
    MAX_PLAIN_ORDER,
    CapExceeded,
    CayleyTable,
    SemigroupError,
    UnarySemigroup,
    _lex_leader,
    _unpack,
    find_isomorphism,
    validate,
)
from .epigroup import is_completely_regular, pseudoinverse_map
from .varieties import _first_failure, in_W_structural, variety_test


class ReproductionFailed(SemigroupError):
    pass


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
    for x, y in where[a]:  # (xy)b = ab = v against x(yb)
        yb = t[y][b]
        if yb >= 0:
            right = t[x][yb]
            if right < 0:
                cell = x * n + yb
                forced = force[cell]
                if forced < 0:
                    force[cell] = v
                    trail.append(cell)
                elif forced != v:
                    return False
            elif right != v:
                return False
    for x, y in where[b]:  # (ax)y against a(xy) = ab = v
        ax = ra[x]
        if ax >= 0:
            left = t[ax][y]
            if left < 0:
                cell = ax * n + y
                forced = force[cell]
                if forced < 0:
                    force[cell] = v
                    trail.append(cell)
                elif forced != v:
                    return False
            elif left != v:
                return False
    return True


def _is_canonical(t):
    # stops at the first relabeling that beats t
    return _lex_leader(t, stop=True) is not None


def _fill(t, pos, n, where, force, trail, out):
    if pos == n * n:
        if _is_canonical(t):
            out.append(tuple(tuple(row) for row in t))
        return
    a = pos // n
    b = pos - a * n
    if b == 0 and a > 1 and _lex_leader(t, rows=a, stop=True) is None:
        # rows 0..a-1 are complete and a relabeling mapping {0..a-1} onto
        # itself beats them, so it beats every completion too
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


def _enumerate_with_rows(args):
    """The canonical tables of order n whose leading rows are the given
    ones (the first row alone, or the first two)."""
    n, rows = args
    t = [list(rows[0])] + [[-1] * n for _ in range(n - 1)]
    if n > 1 and _lex_leader(t, rows=1, stop=True) is None:
        return []
    where = [[] for _ in range(n)]
    force = [-1] * (n * n)
    trail = []
    # row 0 is in t already, for the screen above; each of its cells is
    # still walked, to check and force from it
    for a, row in enumerate(rows):
        for b, v in enumerate(row):
            t[a][b] = v
            where[v].append((a, b))
            if not _assign(t, a, b, n, where, force, trail):
                return []
    out = []
    _fill(t, n * len(rows), n, where, force, trail, out)
    return out


def _tasks(order, split):
    """The search as tasks, one per first row; with ``split``, the all-zero
    first row, whose subtree holds most of the work, gives one task per
    second row instead."""
    rows = list(iproduct(range(order), repeat=order))
    if not split or order < 2:
        return [(order, (row,)) for row in rows]
    return [(order, (rows[0], second)) for second in rows] + [(order, (row,)) for row in rows[1:]]


_TABLE_CACHE = {}


def semigroup_tables(order, jobs=1):
    """All semigroups of the given order, one canonical representative per
    isomorphism class, sorted by canonical form."""
    if order < 1:
        raise ValueError("order must be positive")
    if order > MAX_PLAIN_ORDER:
        raise CapExceeded(f"order {order} exceeds the enumeration cap {MAX_PLAIN_ORDER}")
    if order in _TABLE_CACHE:
        return _TABLE_CACHE[order]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            # most tasks end within microseconds, so they go out 64 at a
            # time; the default chunk, an eighth of a worker's share, would
            # put the few heavy ones on one worker together
            chunks = pool.map(_enumerate_with_rows, _tasks(order, True), chunksize=64)
    else:
        chunks = [_enumerate_with_rows(task) for task in _tasks(order, False)]
    tables = sorted(t for chunk in chunks for t in chunk)
    result = tuple(CayleyTable(t) for t in tables)
    for t in result:
        validate(t)  # belt over the incremental pruning
    _TABLE_CACHE[order] = result
    return result


def count_semigroups(order, merge_anti=False, jobs=1):
    """Number of semigroups of the given order up to isomorphism, or up to
    isomorphism plus anti-isomorphism."""
    if not merge_anti:
        return len(semigroup_tables(order, jobs=jobs))
    spec = SearchSpec(order, canonical_unary=False, merge_anti_isomorphic=True)
    return len(enumerate_models(spec, jobs=jobs).models)


@dataclass(frozen=True)
class SearchSpec:
    order: int
    identities: tuple = ()
    structural_filters: tuple = ()
    merge_anti_isomorphic: bool = False
    canonical_unary: bool = True
    free_unary: bool = False

    def __post_init__(self):
        object.__setattr__(self, "identities", tuple(self.identities))
        object.__setattr__(self, "structural_filters", tuple(self.structural_filters))


@dataclass(frozen=True)
class SearchResult:
    models: tuple
    counts_by_order: dict
    provenance: dict


def _table_of(model):
    return model.base if isinstance(model, UnarySemigroup) else model


# the filters that need no unary map, so they also apply to plain tables
_TABLE_FILTERS = {
    "canonical_unary": lambda m: isinstance(m, UnarySemigroup) and m.canonical,
    "completely_regular": lambda m: is_completely_regular(_table_of(m)),
    "in_W_structural": lambda m: in_W_structural(_table_of(m)),
}


def resolve_filter(name):
    """Named structural predicates, with a 'not:' prefix for negation: the
    ones in ``_TABLE_FILTERS``, ``variant_of_CR``, and the variety names of
    ``varieties.variety_test``."""
    base_name = name.removeprefix("not:")
    if base_name in _TABLE_FILTERS:
        pred = _TABLE_FILTERS[base_name]
    elif base_name == "variant_of_CR":
        from .variants import is_unary_variant_of_completely_regular

        pred = lambda m: is_unary_variant_of_completely_regular(m) is not None
    else:
        try:
            test = variety_test(base_name)
        except ValueError:
            raise ValueError(f"unknown filter {name!r}") from None
        pred = lambda m: test(m).holds
    if base_name != name:
        return lambda m: not pred(m)
    return pred


def _candidates(spec, tables):
    """The models the spec's unary mode puts on each table: every unary
    map, the pseudoinverse map, or none."""
    if spec.free_unary:
        for t in tables:
            pinv = pseudoinverse_map(t).unary
            for unary in iproduct(range(spec.order), repeat=spec.order):
                yield UnarySemigroup(t, unary, canonical=(unary == pinv))
    elif spec.canonical_unary:
        yield from map(pseudoinverse_map, tables)
    else:
        yield from tables


def enumerate_models(spec, jobs=1):
    """All models of a SearchSpec up to isomorphism (unary isomorphism when a
    unary map is attached), sorted by canonical form.

    Each model that passes gets one form, its canonical form without the
    order byte.  A table from ``semigroup_tables`` is its own lex leader, and
    so is its pseudoinverse map, which every automorphism preserves: their
    form is their own serialization.  A free unary map is walked by
    ``_lex_leader``.  The forms dedupe the free unary maps, key the
    anti-isomorphism merge and sort the result."""
    started = time.perf_counter()
    predicates = [resolve_filter(name) for name in spec.structural_filters]
    if not (spec.free_unary or spec.canonical_unary):
        unary_only = [ident.text for ident in spec.identities] + [
            name for name in spec.structural_filters
            if name.removeprefix("not:") not in _TABLE_FILTERS
        ]
        if unary_only:
            raise ValueError(f"plain tables carry no unary map for {', '.join(unary_only)}")
    if spec.free_unary:
        # in_W reads W's basis on the pseudoinverse map alone
        pinv_only = [name for name in spec.structural_filters if name.removeprefix("not:") == "W"]
        if pinv_only:
            raise ValueError(f"free unary maps cannot be filtered by {', '.join(pinv_only)}: "
                             "W reads only the pseudoinverse map")
    found = {}
    for model in _candidates(spec, semigroup_tables(spec.order, jobs=jobs)):
        if (not spec.identities or _first_failure(model, spec.identities) is None) and all(
            pred(model) for pred in predicates
        ):
            table, unary = _unpack(model)
            if spec.free_unary:
                form = _lex_leader(table, unary)
            else:
                form = tuple(chain.from_iterable(table)) + (unary or ())
            found.setdefault(form, model)
    forms = sorted(found)
    if spec.merge_anti_isomorphic:
        # of each anti-isomorphic pair of classes, the one of smaller form;
        # the opposite's form is its transposed table's lex leader
        merged = {}
        for form in forms:
            table, unary = _unpack(found[form])
            merged.setdefault(min(form, _lex_leader(tuple(zip(*table)), unary)), form)
        forms = merged.values()
    models = tuple(found[form] for form in forms)
    elapsed = time.perf_counter() - started
    return SearchResult(
        models=models,
        counts_by_order={spec.order: len(models)},
        provenance={"spec": spec, "elapsed_seconds": elapsed},
    )


V1_CENSUS_REFERENCES = ("v1_nonvariant_a.sgp", "v1_nonvariant_b.sgp", "v1_nonvariant_c.sgp")


def reproduce_v1_census():
    """Re-run the census of unary semigroups in V_1 that are not unary
    variants of any completely regular semigroup: none below order 4 and
    exactly three at order 4, matching the shipped reference tables.

    Returns (results_by_order, report).  Raises ReproductionFailed with a
    diff on any mismatch.
    """
    from .corpus import load_corpus

    results = {}
    for order in range(1, 5):
        spec = SearchSpec(order=order, structural_filters=("V1", "not:variant_of_CR"))
        results[order] = enumerate_models(spec)
    counts = {order: len(results[order].models) for order in results}
    expected = {1: 0, 2: 0, 3: 0, 4: 3}
    if counts != expected:
        raise ReproductionFailed(f"model counts {counts} differ from expected {expected}")

    references = [load_corpus(name) for name in V1_CENSUS_REFERENCES]
    for name, ref in zip(V1_CENSUS_REFERENCES, references):
        if not ref.canonical or ref.unary != (1, 1, 2, 3):
            raise ReproductionFailed(f"reference {name} lost its pseudoinverse map")

    matching = {}
    models = results[4].models
    for name, ref in zip(V1_CENSUS_REFERENCES, references):
        hits = [i for i, m in enumerate(models) if find_isomorphism(ref, m) is not None]
        if len(hits) != 1:
            raise ReproductionFailed(f"reference {name} matched models {hits}, expected one")
        matching[name] = hits[0]
    if sorted(matching.values()) != [0, 1, 2]:
        raise ReproductionFailed(f"matching {matching} is not a bijection")

    for name, ref in zip(V1_CENSUS_REFERENCES, references):
        model = models[matching[name]]
        phi = find_isomorphism(ref, model)
        for x in range(4):
            if model.unary[phi[x]] != phi[ref.unary[x]]:
                raise ReproductionFailed(f"pseudoinverse mismatch under matching for {name}")

    report = {
        "counts_by_order": counts,
        "matching": matching,
        "pseudoinverse": "0 -> 1, fixes 1, 2, 3 under each matching bijection",
    }
    return results, report
