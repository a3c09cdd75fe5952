"""The benchmark's three workloads: their inputs, their calls into the
program, and the gates that check every answer without trusting the code
under test.

A workload is a list of operations.  ``prepare`` builds them (that is set-up:
input generation and the program's import); each operation's ``run`` makes
the timed calls through a ``Tracer``, and its ``check`` inspects the answer
afterwards, untimed.  ``one_pass.py`` runs one pass of a workload in a fresh
interpreter, so ``search._TABLE_CACHE`` and the ``lru_cache``s start cold
without touching private state.
"""

from __future__ import annotations

import ast
import hashlib
import json
import random
import re
from collections import Counter
from importlib import import_module
from pathlib import Path
from typing import Callable, NamedTuple

import epivariants as ev

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Why each workload exists; BENCHMARK.json carries the one-line form.
WHY = {
    # The command a reader runs to confirm the paper.  About two thirds of it
    # is the census's canonical_form, and epigroup_data is reused about 100
    # times per table, so it shows canonical-form and caching changes;
    # enumeration is only a few percent of it.
    "paper": "the ten verify-paper checks in order: canonical_form- and cache-bound",
    # Over 90% table search and no per-table analysis: symmetry breaking in
    # the enumerator shows here, and analysis-layer changes should not.
    "search": "cold semigroup_tables(1..4) and the anti-isomorphism merge: enumeration-bound",
    # Every table is new, so the lru_caches miss and grow: the same layers
    # as `paper`, used the opposite way, with cost growing with the order.
    "queries": "seeded stream of new tables of order 5-24, one full query each: analysis layers, caches cold",
}

# --------------------------------------------------------------------------
# Tracing


class Tracer:
    """Spans around the benchmark's own calls into the program, summed per
    layer by ``layers()``: ``{name: [seconds, calls, slowest call in ms]}``,
    the times scaled to the reference speed by the pass's ``SpeedProbe``.
    With tracing off ``call`` adds one Python call and nothing else.
    """

    def __init__(self, enabled, probe=None):
        self.enabled = enabled
        self.probe = probe
        self.spans = []

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        begin = self.probe.mark()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, begin, self.probe.mark()))

    def layers(self):
        totals = {}
        for name, begin, end in self.spans:
            took = self.probe.scaled(begin, end)
            total = totals.setdefault(name, [0.0, 0, 0.0])
            total[0] += took
            total[1] += 1
            total[2] = max(total[2], took * 1000)
        return totals


class Op(NamedTuple):
    """One operation of a workload.

    ``run(tracer)`` makes the timed calls and returns the raw answer;
    ``check(answer)`` returns ``(problems, digest_material)``; ``golden`` is
    the key of the recorded digest, or None when none is recorded.
    """

    label: str
    run: Callable
    check: Callable
    golden: object


def digest(material):
    blob = json.dumps(material, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


def prepare(workload, seed, pass_index, pool):
    """The operations of one pass; the same arguments give the same inputs."""
    if workload == "paper":
        return paper_ops()
    if workload == "search":
        return search_ops()
    if workload == "queries":
        return [query_op(q) for q in query_stream(seed, pass_index, pool)]
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# paper: checks.ALL_CHECKS in order, no random input

CHECK_NAMES = {
    "check_v1_census": "v1-census",
    "check_w_witness": "w-witness",
    "check_pseudoinverse_identities": "pseudoinverse-identities",
    "check_transport": "pseudoinverse-transport",
    "check_variety_chain": "variety-chain",
    "check_variant_variety_closure": "variant-variety-closure",
    "check_w_variant_conjugacy": "w-variant-conjugacy",
    "check_variant_index_bounds": "variant-index-bounds",
    "check_oracles": "oracle-equivalences",
    "check_group_sanity": "group-sanity",
}
CENSUS_COUNTS = {1: 0, 2: 0, 3: 0, 4: 3}


def _check_paper(outcome):
    problems = [] if outcome.ok else [f"{outcome.name} failed: {outcome.detail}"]
    if outcome.name == "v1-census":
        found = re.search(r"counts (\{[^}]*\})", outcome.detail)
        counts = ast.literal_eval(found.group(1)) if found else None
        if counts != CENSUS_COUNTS:
            problems.append(f"census counts {counts}, expected {CENSUS_COUNTS}")
    # the numbers in a detail (counts, matchings, witness tables) are answers;
    # its wording is not
    numbers = [int(v) for v in re.findall(r"\d+", outcome.detail)]
    return problems, [outcome.name, outcome.ok, numbers]


def paper_ops():
    checks = import_module("epivariants.checks")
    ops = []
    for fn in checks.ALL_CHECKS:
        name = CHECK_NAMES.get(fn.__name__, fn.__name__)
        span = f"checks.{name}"
        ops.append(Op(span, lambda tr, fn=fn, span=span: tr.call(span, fn),
                      _check_paper, span if fn.__name__ in CHECK_NAMES else None))
    return ops


# --------------------------------------------------------------------------
# search: cold semigroup_tables(1..4), then the anti-isomorphism merge

TABLE_COUNTS = {1: 1, 2: 5, 3: 24, 4: 188}
MERGED_COUNT_4 = 126


def _associative(rows):
    n = len(rows)
    return all(
        rows[rows[a][b]][c] == rows[a][rows[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )


def _check_tables(order):
    def check(tables):
        problems = []
        if len(tables) != TABLE_COUNTS[order]:
            problems.append(f"order {order}: {len(tables)} tables, expected {TABLE_COUNTS[order]}")
        rows = [t.table for t in tables]
        if any(len(r) != order or not _associative(r) for r in rows):
            problems.append(f"order {order}: a table is not an associative {order}x{order} table")
        # every byte of every table, in emission order
        flat = bytes(v for r in rows for row in r for v in row)
        return problems, [order, len(rows), hashlib.sha256(flat).hexdigest()]
    return check


def _check_merged(count):
    problems = [] if count == MERGED_COUNT_4 else [f"merged count {count}, expected {MERGED_COUNT_4}"]
    return problems, [count]


def search_ops():
    ops = []
    for order in (1, 2, 3, 4):
        span = f"search.semigroup_tables.o{order}"
        ops.append(Op(span, lambda tr, k=order, span=span: tr.call(span, ev.semigroup_tables, k),
                      _check_tables(order), span))
    span = "search.count_semigroups.merge_anti"
    ops.append(Op(span, lambda tr: tr.call(span, ev.count_semigroups, 4, merge_anti=True),
                  _check_merged, span))
    return ops


# --------------------------------------------------------------------------
# queries: a seeded stream of transformation semigroups, one query each

ORDERS = range(5, 25)
PER_ORDER = 16          # tables of each order in one pass
MAX_CANONICAL_ORDER = 6  # canonical_form tries all n! relabellings


def compose(f, g):
    """Left-to-right composition of transformations: x -> g(f(x))."""
    return tuple(g[v] for v in f)


def closure(gens, cap):
    """Rows of the Cayley table of the semigroup the transformations generate,
    elements in breadth-first order; None when it has more than ``cap``."""
    elements = list(dict.fromkeys(gens))
    index = {f: i for i, f in enumerate(elements)}
    frontier = list(elements)
    while frontier:
        new = []
        for f in frontier:
            for g in gens:
                h = compose(f, g)
                if h not in index:
                    if len(elements) >= cap:
                        return None
                    index[h] = len(elements)
                    elements.append(h)
                    new.append(h)
        frontier = new
    return [[index[compose(f, g)] for g in elements] for f in elements]


def relabel(rows, perm):
    """The table with element a renamed perm[a]."""
    n = len(rows)
    inv = [0] * n
    for a, b in enumerate(perm):
        inv[b] = a
    return [[perm[rows[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]


class Query:
    def __init__(self, entry, rows, copy_rows):
        self.entry = entry          # index into the recorded pool
        self.rows = rows            # the table; the program is given it as text
        self.text = f"{len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)
        self.copy_rows = copy_rows  # a relabelled copy, for find_isomorphism
        self.copy = ev.CayleyTable(copy_rows)


def query_stream(seed, pass_index, pool):
    """PER_ORDER tables of each order, drawn from the recorded pool of
    generating sets, each relabelled at random, in a random order.  Only the
    seed and the pass index choose the draw."""
    rng = random.Random(f"queries:{seed}:{pass_index}")
    by_order = {}
    for i, entry in enumerate(pool):
        by_order.setdefault(entry["order"], []).append(i)
    chosen = [i for n in ORDERS for i in rng.sample(by_order[n], PER_ORDER)]
    rng.shuffle(chosen)
    stream = []
    for i in chosen:
        rows = closure([tuple(g) for g in pool[i]["gens"]], max(ORDERS))
        n = len(rows)
        rows = relabel(rows, rng.sample(range(n), n))
        stream.append(Query(i, rows, relabel(rows, rng.sample(range(n), n))))
    return stream


def run_query(q, tr):
    """The timed calls of one query; returns everything the gates inspect."""
    t = tr.call("core.parse_semigroup", ev.parse_semigroup, q.text)
    tr.call("core.validate", ev.validate, t)
    g = tr.call("green.green", ev.green, t)
    data = tr.call("epigroup.epigroup_data", ev.epigroup_data, t)
    s = ev.UnarySemigroup(t, data.pseudoinverse, canonical=True)
    identities = tr.call("epigroup.verify_epigroup_identities", ev.verify_epigroup_identities, s)
    e1 = tr.call("varieties.in_E", ev.in_E, s, 1)
    v1 = tr.call("varieties.in_V", ev.in_V, s, 1)
    w = tr.call("varieties.in_W", ev.in_W, s)
    e2 = tr.call("varieties.in_E", ev.in_E, s, 2)
    conj = tr.call("conjugacy.check_transitivity", ev.check_transitivity, t)
    variants = []
    for c in range(t.order):
        uv = tr.call("variants.unary_variant", ev.unary_variant, s, c)
        transport = tr.call("variants.check_pseudoinverse_transport",
                            ev.check_pseudoinverse_transport, s, c)
        variants.append((uv, transport))
    phi = tr.call("core.find_isomorphism", ev.find_isomorphism, t, q.copy)
    forms = None
    if t.order <= MAX_CANONICAL_ORDER:
        forms = (tr.call("core.canonical_form", ev.canonical_form, t),
                 tr.call("core.canonical_form", ev.canonical_form, q.copy))
    return dict(t=t, g=g, data=data, identities=identities, chain=(e1, v1, w, e2),
                conj=conj, variants=variants, phi=phi, forms=forms)


def conjugacy_over_s1(rows):
    """Primary conjugacy a ~ b iff a = xy, b = yx with x, y in S^1, from the
    benchmark's own double loop (index n is the adjoined identity)."""
    n = len(rows)

    def mul(x, y):
        return y if x == n else x if y == n else rows[x][y]

    rel = [[False] * n for _ in range(n)]
    for x in range(n + 1):
        for y in range(n + 1):
            a, b = mul(x, y), mul(y, x)
            if a < n and b < n:
                rel[a][b] = rel[b][a] = True
    return rel


def _class_sizes(ids):
    return sorted(Counter(ids).values())


def check_query(q, ans):
    """Gates that do not rely on the code under test, and the answers that no
    relabelling can change (the recorded digest covers those)."""
    rows, n = q.rows, len(q.rows)
    problems = []
    if [list(r) for r in ans["t"].table] != rows:
        problems.append("parsed table differs from the input")
    phi = ans["phi"]
    if phi is None or sorted(phi) != list(range(n)) or any(
        q.copy_rows[phi[a]][phi[b]] != phi[rows[a][b]] for a in range(n) for b in range(n)
    ):
        problems.append(f"find_isomorphism returned {phi}, not an isomorphism onto the copy")
    conj = ans["conj"]
    rel = conjugacy_over_s1(rows)
    transitive = all(rel[a][c] or not (rel[a][b] and rel[b][c])
                     for a in range(n) for b in range(n) for c in range(n))
    if conj.transitive != transitive:
        problems.append(f"transitivity verdict {conj.transitive}, expected {transitive}")
    elif not transitive:
        a, b, c = conj.witness
        if not (rel[a][b] and rel[b][c] and not rel[a][c]):
            problems.append(f"non-transitivity witness {conj.witness} does not re-check")
    chain = [r.holds for r in ans["chain"]]
    if any(inner and not outer for inner, outer in zip(chain, chain[1:])):
        problems.append(f"E1 <= V1 <= W <= E2 broken: {chain}")
    if any(cex is not None for _, cex in ans["identities"]):
        problems.append("a pseudoinverse identity failed")
    for c, (uv, transport) in enumerate(ans["variants"]):
        if not transport.ok:
            problems.append(f"transport failed at c={c}: {transport.witness}")
        if [list(r) for r in uv.base.table] != [[rows[rows[a][c]][b] for b in range(n)]
                                               for a in range(n)]:
            problems.append(f"variant table at c={c} is not a*c*b")
    forms = ans["forms"]
    if forms is not None and forms[0] != forms[1]:
        problems.append("canonical forms of a table and its relabelled copy differ")
    g = ans["g"]
    material = [
        n,
        sorted(ans["data"].index),
        len(g.idempotents),
        [_class_sizes(ids) for ids in (g.r_class, g.l_class, g.h_class, g.d_class, g.j_class)],
        chain,
        conj.transitive,
        sorted(len(cls) for cls in conj.classes),
        sorted(sum(uv.unary[x] == x for x in range(n)) for uv, _ in ans["variants"]),
        forms[0].hex() if forms is not None else None,
    ]
    return problems, material


def query_op(q):
    return Op(f"query[entry={q.entry},n={len(q.rows)}]",
              lambda tr: run_query(q, tr),
              lambda ans: check_query(q, ans),
              q.entry)
