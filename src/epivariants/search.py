"""Exhaustive enumeration of small semigroups up to isomorphism.

The enumerator fixes the first row, then fills the rest of the
multiplication table cell by cell in row-major order.  Three tests cut the
tree:

- Cell test.  A partial table is rejected as soon as a fully determined
  triple breaks associativity.  The triples that use a newly set cell (a, b)
  are (a, b, z), (z, a, b), (x, y, b) with xy = a and (a, x, y) with xy = b;
  the last two come from a per-value index ``where[v]`` of the filled cells
  holding v, which ``_fill`` appends to on set and pops on unset, so no step
  scans all n^2 cells.
- Prefix test (lex-leader pruning).  When rows 0..r are filled, every
  relabeling that maps {0..r} onto itself, other than the identity, is tried
  on them: its rows 0..r read only filled cells.  If one makes them
  lexicographically smaller than the table's own rows 0..r, every completion
  has a smaller relabeling and is not canonical, so the subtree is cut.  The
  r = 0 case screens first rows before any cell test; the relabeling lists
  are built once per order.
- Leaf test.  A complete table is kept only when it equals its own
  canonical relabeling (``core._smaller_relabelings``), so each isomorphism
  class is emitted exactly once.  This test alone decides canonicity; the
  other two only cut subtrees that hold no canonical table.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from itertools import product as iproduct

from .core import (
    CapExceeded,
    CayleyTable,
    SemigroupError,
    UnarySemigroup,
    _smaller_relabelings,
    anti_canonical_form,
    canonical_form,
    find_isomorphism,
    transpose,
    validate,
)
from .epigroup import is_completely_regular, pseudoinverse_map
from .varieties import find_counterexample, in_E, in_V, in_W, in_W_structural

MAX_PLAIN_ORDER = 6
MAX_CROSS_SEARCH_ORDER = 4


class ReproductionFailed(SemigroupError):
    pass


def _cell_consistent(t, a, b, where):
    # the triples that use cell (a, b), now holding v, are (a, b, z),
    # (z, a, b), (x, y, b) with xy = a, and (a, x, y) with xy = b; reject
    # the cell when one of them is fully determined and not associative
    ra = t[a]
    v = ra[b]
    rv = t[v]
    for bz, left in zip(t[b], rv):  # (ab)z = vz against a(bz)
        if bz >= 0 and left >= 0:
            right = ra[bz]
            if right >= 0 and right != left:
                return False
    for row in t:  # (za)b against z(ab) = zv
        za = row[a]
        if za >= 0:
            left = t[za][b]
            if left >= 0:
                right = row[v]
                if right >= 0 and right != left:
                    return False
    for x, y in where[a]:  # (xy)b = ab = v against x(yb)
        yb = t[y][b]
        if yb >= 0:
            right = t[x][yb]
            if right >= 0 and right != v:
                return False
    for x, y in where[b]:  # (ax)y against a(xy) = ab = v
        ax = ra[x]
        if ax >= 0:
            left = t[ax][y]
            if left >= 0 and left != v:
                return False
    return True


@lru_cache(maxsize=MAX_PLAIN_ORDER)
def _prefix_relabelings(n):
    """For each r in 0..n-2, the relabelings other than the identity that
    map {0..r} onto itself, as (perm, src) pairs.

    Row i of a relabeled table reads ``perm[t[inv[i]][inv[j]]]``; with inv
    fixing {0..r} setwise, rows 0..r read only rows 0..r of t.  ``src[k]``
    is the index, in the row-major prefix of t's rows 0..r, of the cell that
    position k of the relabeled prefix reads.
    """
    identity = tuple(range(n))
    result = []
    for r in range(n - 1):
        rels = []
        for head in permutations(range(r + 1)):
            for tail in permutations(range(r + 1, n)):
                inv = head + tail
                if inv == identity:
                    continue
                perm = [0] * n
                for new, old in enumerate(inv):
                    perm[old] = new
                src = tuple(inv[i] * n + inv[j] for i in range(r + 1) for j in range(n))
                rels.append((tuple(perm), src))
        result.append(tuple(rels))
    return tuple(result)


def _prefix_beaten(prefix, rels):
    """True when some relabeling in ``rels`` makes the row-major prefix (a
    list) lexicographically smaller; then every completion of it has a
    smaller relabeling, and none is canonical."""
    for perm, src in rels:
        if [perm[prefix[k]] for k in src] < prefix:
            return True
    return False


def _is_canonical(t):
    # stops at the first relabeling that beats t
    return next(_smaller_relabelings(t, None), None) is None


def _fill(t, pos, n, where, rels, out):
    if pos == n * n:
        if _is_canonical(t):
            out.append(tuple(tuple(row) for row in t))
        return
    a, b = divmod(pos, n)
    if b == 0 and a > 1 and _prefix_beaten([v for row in t[:a] for v in row], rels[a - 1]):
        return  # rows 0..a-1 are complete and a relabeling fixing them beats them
    row = t[a]
    for v in range(n):
        row[b] = v
        cells = where[v]
        cells.append((a, b))
        if _cell_consistent(t, a, b, where):
            _fill(t, pos + 1, n, where, rels, out)
        cells.pop()
    row[b] = -1


def _enumerate_with_first_row(args):
    n, first_row = args
    rels = _prefix_relabelings(n)
    t = [list(first_row)] + [[-1] * n for _ in range(n - 1)]
    if n > 1 and _prefix_beaten(t[0], rels[0]):
        return []
    where = [[] for _ in range(n)]
    for b, v in enumerate(first_row):
        where[v].append((0, b))
    for b in range(n):
        if not _cell_consistent(t, 0, b, where):
            return []
    out = []
    _fill(t, n, n, where, rels, out)
    return out


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
    prefixes = [(order, row) for row in iproduct(range(order), repeat=order)]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            # one first row per task: a few first rows (the all-zero one above
            # all) hold most of the work, and a default chunk would put them
            # on one worker together with thousands of others
            chunks = pool.map(_enumerate_with_first_row, prefixes, chunksize=1)
    else:
        chunks = [_enumerate_with_first_row(p) for p in prefixes]
    tables = sorted(t for chunk in chunks for t in chunk)
    result = tuple(CayleyTable(t) for t in tables)
    for t in result:
        validate(t)  # belt over the incremental pruning
    _TABLE_CACHE[order] = result
    return result


def count_semigroups(order, merge_anti=False, jobs=1):
    """Number of semigroups of the given order up to isomorphism, or up to
    isomorphism plus anti-isomorphism."""
    tables = semigroup_tables(order, jobs=jobs)
    if not merge_anti:
        return len(tables)
    # each representative is its own canonical form, so only its transpose
    # is searched
    forms = set()
    for t in tables:
        own = bytes([order]) + bytes(v for row in t.table for v in row)
        forms.add(min(own, canonical_form(transpose(t))))
    return len(forms)


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


def _needs_cross_search(filters):
    return any(name.split(":")[-1] == "variant_of_CR" for name in filters)


def resolve_filter(name):
    """Named structural predicates, with a 'not:' prefix for negation."""
    negate = False
    base_name = name
    if name.startswith("not:"):
        negate = True
        base_name = name[len("not:"):]

    def table_of(model):
        return model.base if isinstance(model, UnarySemigroup) else model

    if base_name == "canonical_unary":
        pred = lambda m: isinstance(m, UnarySemigroup) and m.canonical
    elif base_name == "completely_regular":
        pred = lambda m: is_completely_regular(table_of(m))
    elif base_name == "in_W_structural":
        pred = lambda m: in_W_structural(table_of(m))
    elif base_name == "W":
        pred = lambda m: in_W(m).holds
    elif base_name == "variant_of_CR":
        from .variants import is_unary_variant_of_completely_regular

        pred = lambda m: is_unary_variant_of_completely_regular(m) is not None
    elif len(base_name) >= 2 and base_name[0] in "EV" and base_name[1:].isdigit():
        n = int(base_name[1:])
        if base_name[0] == "E":
            pred = lambda m, n=n: in_E(m, n).holds
        else:
            pred = lambda m, n=n: in_V(m, n).holds
    else:
        raise ValueError(f"unknown filter {name!r}")
    if negate:
        return lambda m: not pred(m)
    return pred


def _model_passes(model, identities, predicates):
    return all(find_counterexample(model, ident) is None for ident in identities) and all(
        pred(model) for pred in predicates
    )


def enumerate_models(spec, jobs=1):
    """All models of a SearchSpec up to isomorphism (unary isomorphism when a
    unary map is attached), sorted by canonical form."""
    started = time.perf_counter()
    if _needs_cross_search(spec.structural_filters) and spec.order > MAX_CROSS_SEARCH_ORDER:
        raise CapExceeded(
            f"order {spec.order} exceeds the cross-search cap {MAX_CROSS_SEARCH_ORDER}"
        )
    predicates = [resolve_filter(name) for name in spec.structural_filters]
    tables = semigroup_tables(spec.order, jobs=jobs)

    models = []
    if spec.free_unary:
        seen = set()
        for t in tables:
            pinv = pseudoinverse_map(t).unary
            for unary in iproduct(range(spec.order), repeat=spec.order):
                model = UnarySemigroup(t, unary, canonical=(unary == pinv))
                if _model_passes(model, spec.identities, predicates):
                    key = canonical_form(model)
                    if key not in seen:
                        seen.add(key)
                        models.append(model)
    elif spec.canonical_unary:
        for t in tables:
            model = pseudoinverse_map(t)
            if _model_passes(model, spec.identities, predicates):
                models.append(model)
    else:
        for t in tables:
            if _model_passes_plain(t, spec.identities, predicates):
                models.append(t)

    if spec.merge_anti_isomorphic:
        merged = {}
        for model in models:
            key = anti_canonical_form(model)
            if key not in merged or canonical_form(model) < canonical_form(merged[key]):
                merged[key] = model
        models = list(merged.values())

    models.sort(key=canonical_form)
    _recheck_models(models, spec, predicates)
    elapsed = time.perf_counter() - started
    return SearchResult(
        models=tuple(models),
        counts_by_order={spec.order: len(models)},
        provenance={"spec": spec, "elapsed_seconds": elapsed},
    )


def _model_passes_plain(t, identities, predicates):
    if identities:
        raise ValueError("identity constraints need a unary map; enable canonical_unary")
    return all(pred(t) for pred in predicates)


def _recheck_models(models, spec, predicates):
    # soundness: emitted models are re-validated and re-tested, independent of
    # any pruning done during the table search
    forms = set()
    for model in models:
        table = model.base if isinstance(model, UnarySemigroup) else model
        validate(table)
        for ident in spec.identities:
            if find_counterexample(model, ident) is not None:
                raise SemigroupError(f"emitted model fails {ident}")
        form = canonical_form(model)
        if form in forms:
            raise SemigroupError("duplicate isomorphism class emitted")
        forms.add(form)


V1_CENSUS_REFERENCES = ("v1_nonvariant_a.sgp", "v1_nonvariant_b.sgp", "v1_nonvariant_c.sgp")


def reproduce_v1_census(jobs=1):
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
        results[order] = enumerate_models(spec, jobs=jobs)
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
