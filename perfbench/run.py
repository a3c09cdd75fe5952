"""Benchmark entry point: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload {paper,search,queries} --seed N \\
        --seconds S --trace {0,1}

Closed loop, one client, jobs=1.  A pass is a fresh interpreter
(``one_pass.py``) that runs the workload's calls once, so the program's
caches start cold every pass; the run starts passes while one more of the
last one's length would still end within S seconds.  Every time is scaled
to the reference speed that ``speed.py`` defines, because the host's speed
swings by up to 25%; the record keeps the unscaled times too.  Each
end-to-end metric is the median over the run's passes.  With ``--trace 1``
passes alternate untraced and traced on the same inputs; the traced ones give
the per-layer metrics, and each traced pass against the untraced one just
before it gives the tracing overhead.

Prints one line per metric, then the last line: one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics BENCHMARK.json names.
The full record (environment, every pass, quartiles, problems) is written
to ``perfbench/out/``.  A pass that crashes or outlasts the run counts as a
failed operation, so the result is not correct.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("paper", "search", "queries")
DEADLINE_S = 170  # every run must end within 180 s


def commit():
    """The checked-out commit, read from .git without running git."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit()}


def spread(values):
    """(median, q1, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = quantiles(values, n=4)
    return med, q1, q3


def run_pass(workload, seed, inputs, traced, timeout):
    spawned = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "one_pass.py"), workload, str(seed), str(inputs),
         "1" if traced else "0", repr(spawned)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass failed with exit code {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["traced"] = traced
    result["process_s"] = perf_counter() - spawned
    return result


def tracing_overhead(passes):
    """Median over pairs of (traced wall / untraced wall - 1): pass 2k+1 is
    traced, pass 2k is not, on the same inputs and next to it in time.  It is
    resolved only when every pair agrees on its sign; otherwise the machine's
    drift between the two passes is as large as the overhead."""
    ratios = [t["wall_s"] / u["wall_s"] - 1 for u, t in zip(passes[::2], passes[1::2])]
    resolved = len(ratios) > 1 and (min(ratios) > 0 or max(ratios) < 0)
    return median(ratios), resolved, ratios


def per_layer_values(passes):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]][:len(traced)]
    values = {}
    for name in {n for p in traced for n in p["layers"]}:
        totals = [p["layers"].get(name, [0.0, 0, 0.0]) for p in traced]
        values[f"{name}.s"] = median(t[0] for t in totals)
        values[f"{name}.calls"] = median(t[1] for t in totals)
        values[f"{name}.max_ms"] = max(t[2] for t in totals)
    for cache in ("green", "epigroup"):
        hits, misses = traced[0]["cache"][cache]
        values[f"{cache}.cache_lookups"] = hits + misses
        values[f"{cache}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["trace.untraced_wall_s"] = median(p["wall_s"] for p in untraced)
    values["trace.traced_wall_s"] = median(p["wall_s"] for p in traced)
    # spans are not nested, so their sum is the time inside the program
    values["trace.layer_share"] = median(
        sum(t[0] for t in p["layers"].values()) / p["wall_s"] for p in traced
    )
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "epivariants" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'epivariants'} is missing", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())

    started = perf_counter()
    passes, crash, unfinished = [], None, None
    # start another pass while the last one's length would still end in time
    while len(passes) < 1 + args.trace or (
        perf_counter() - started + passes[-1]["process_s"] <= args.seconds
    ):
        traced = bool(args.trace) and len(passes) % 2 == 1
        inputs = len(passes) // 2 if args.trace else len(passes)
        try:
            passes.append(run_pass(args.workload, args.seed, inputs, traced,
                                   DEADLINE_S - (perf_counter() - started)))
        except subprocess.TimeoutExpired as exc:
            # one slow operation can outlast the run: its pass has no answers
            # to check and no times to report, so it counts as a failure
            unfinished = f"pass {len(passes)} unfinished after {exc.timeout:.0f} s"
            break
        except (RuntimeError, ValueError) as exc:
            crash = str(exc)
            break
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not untraced or (args.trace and not traced):
        print(crash or unfinished, file=sys.stderr)
        return 1

    cut = [msg for msg in (crash, unfinished) if msg]
    attempted = sum(p["ops"] for p in passes) + len(cut)
    failed = sum(p["failed"] for p in passes) + len(cut)
    problems = [msg for p in passes for msg in p["problems"]] + cut
    e2e = ("setup_s", "wall_s", "query_p50_ms", "query_p95_ms", "peak_rss_mb")
    record_metrics = {
        name: dict(zip(("median", "q1", "q3"), spread([p[name] for p in untraced])),
                   samples=[p[name] for p in untraced])
        for name in e2e + ("raw_setup_s", "raw_wall_s", "speed")
    }
    if args.trace:
        wanted = contract["per_layer"]
        overhead, resolved, ratios = tracing_overhead(passes)
        measured = {**per_layer_values(passes), "trace.overhead_frac": overhead}
        record_metrics.update({f"per_layer.{k}": v for k, v in measured.items()})
    else:
        wanted = contract["end_to_end"]
        measured = {name: record_metrics[name]["median"] for name in e2e}
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    record = {
        **environment(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "pass_count": len(passes),
        "ops_per_pass": passes[0]["ops"], "unfinished": unfinished,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "problems": problems[:50],
        "metrics": record_metrics,
        **({"overhead_pairs": ratios, "overhead_resolved": resolved} if args.trace else {}),
        "passes": passes,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} passes={len(passes)} attempted={attempted} "
          f"failed={failed} failed_frac={failed / attempted:g} "
          f"python={record['python']} nproc={record['nproc']} commit={record['commit'][:12]}")
    slowest = max(passes, key=lambda p: p["slowest_ms"])
    print(f"  slowest operation {slowest['slowest_ms']:.6g} ms: {slowest['slowest']}")
    for msg in problems[:10]:
        print(f"  FAILED {msg}")
    if args.trace:
        print(f"  tracing overhead {overhead:+.4f} over {len(ratios)} pass pairs"
              f"{'' if resolved else ', unresolved: within the drift between passes'}")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(f"  unscaled: setup_s {record_metrics['raw_setup_s']['median']:.6g} s, "
          f"wall_s {record_metrics['raw_wall_s']['median']:.6g} s, at "
          f"{record_metrics['speed']['median']:.4g} x the reference speed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
