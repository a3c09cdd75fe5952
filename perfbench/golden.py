"""Record the answers the benchmark's gates compare against: ``golden.json``.

    python3 perfbench/golden.py

It holds the pool of generating sets the ``queries`` workload draws from
(POOL_PER_ORDER pairwise non-isomorphic semigroups of each order 5..24, each
with the digest of its relabelling-invariant answers) and the digest of each
``paper`` check and ``search`` call.  Verdicts and canonical bytes must never
change, so this is re-run only when the pool itself changes; every entry must
pass the gates before it is written.
"""

import json
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

POOL_SEED = 191105157
POOL_PER_ORDER = 32


def fingerprint(rows):
    """An isomorphism invariant: different fingerprints, different classes."""
    n = len(rows)
    return tuple(sorted(
        (rows[a][a] == a,
         tuple(sorted(Counter(rows[a]).values())),
         tuple(sorted(Counter(rows[x][a] for x in range(n)).values())))
        for a in range(n)
    ))


def make_pool():
    rng = random.Random(POOL_SEED)
    cap = max(workloads.ORDERS)
    buckets = {n: {} for n in workloads.ORDERS}
    while any(len(b) < POOL_PER_ORDER for b in buckets.values()):
        degree = rng.choice((3, 4))
        gens = [[rng.randrange(degree) for _ in range(degree)] for _ in range(rng.randint(1, 3))]
        rows = workloads.closure([tuple(g) for g in gens], cap)
        if rows is not None and len(rows) in buckets and len(buckets[len(rows)]) < POOL_PER_ORDER:
            buckets[len(rows)].setdefault(fingerprint(rows), gens)
    return [{"order": n, "gens": gens} for n in workloads.ORDERS for gens in buckets[n].values()]


def record(ops, tracer):
    digests = {}
    for op in ops:
        problems, material = op.check(op.run(tracer))
        if problems:
            raise SystemExit(f"{op.label}: {problems}")
        digests[op.golden] = workloads.digest(material)
    return digests


def main():
    tracer = workloads.Tracer(False)
    pool = make_pool()
    rng = random.Random(POOL_SEED)
    for i, entry in enumerate(pool):
        rows = workloads.closure([tuple(g) for g in entry["gens"]], max(workloads.ORDERS))
        copy = workloads.relabel(rows, rng.sample(range(len(rows)), len(rows)))
        [digest] = record([workloads.query_op(workloads.Query(i, rows, copy))], tracer).values()
        entry["digest"] = digest
    golden = {
        "paper": record(workloads.paper_ops(), tracer),
        "search": record(workloads.search_ops(), tracer),
        "pool": pool,
    }
    text = json.dumps(golden, separators=(",", ":")).replace('{"order"', '\n{"order"')
    workloads.GOLDEN_PATH.write_text(text + "\n")
    print(f"wrote {workloads.GOLDEN_PATH} ({len(pool)} pool entries)")


if __name__ == "__main__":
    main()
