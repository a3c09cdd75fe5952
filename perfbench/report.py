"""Run every workload over seeds 1..10 for BENCHMARK.json's run_seconds and
print every metric by name and unit, with its median, quartiles and spread
against the bound BENCHMARK.json fixes, and beside them the unscaled times
and the machine's speed (see speed.py).

    python3 perfbench/report.py
    python3 perfbench/report.py --trace --write perfbench/baseline.json

A spread is (q3 - q1) / median over the runs' values, the quartiles as
statistics.quantiles(values, n=4) gives them.  ``--trace`` adds one traced
run per workload for the per-layer metrics and the tracing overhead.
``--write`` saves the whole record: environment, seeds, run counts, every
value, medians and quartiles.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import OUT, ROOT, WORKLOADS, environment, spread

HERE = Path(__file__).resolve().parent
SEEDS = list(range(1, 11))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()

    seconds = contract["run_seconds"]
    record = {**environment(), "seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in WORKLOADS:
        results = [run(workload, seed, seconds, 0) for seed in SEEDS]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {"runs": len(results), "attempted": attempted, "failed": failed,
                 "failed_frac": failed / attempted, "end_to_end": {}}
        print(f"{workload}: {len(results)} runs of {seconds:g} s, attempted {attempted}, "
              f"failed {failed}, failed_frac {failed / attempted:g}")
        for m in contract["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med, q1, q3 = spread(values)
            wide = (q3 - q1) / med
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": wide,
                "bound": m["bound"], "values": values,
            }
            flag = "" if wide < m["bound"] / 3 else "  <- spread over a third of the bound"
            print(f"  {m['name']:<14} {med:12.6g} {m['unit']:<3} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {wide:.4f} bound {m['bound']}{flag}")
        records = [json.loads((OUT / f"{workload}-seed{seed}-trace0.json").read_text())
                   for seed in SEEDS]
        entry["unscaled"] = {}
        for name in ("raw_setup_s", "raw_wall_s", "speed"):
            values = [r["metrics"][name]["median"] for r in records]
            med, q1, q3 = spread(values)
            entry["unscaled"][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": (q3 - q1) / med, "values": values}
            print(f"  {name:<14} {med:12.6g}     q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {(q3 - q1) / med:.4f}  (unscaled, not a result metric)")
        if args.trace:
            traced = run(workload, SEEDS[0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_seed"] = SEEDS[0]
            full = json.loads((OUT / f"{workload}-seed{SEEDS[0]}-trace1.json").read_text())
            entry["overhead_pairs"] = full["overhead_pairs"]
            entry["overhead_resolved"] = full["overhead_resolved"]
            print(f"  traced run, seed {SEEDS[0]}, tracing overhead "
                  f"{'resolved' if full['overhead_resolved'] else 'unresolved'} "
                  f"over pairs {[round(r, 4) for r in full['overhead_pairs']]}:")
            for name, m in traced["metrics"].items():
                if m["value"]:
                    print(f"    {name:<48} {m['value']:.6g} {m['unit']}")
        record["workloads"][workload] = entry
    if args.write:
        args.write.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {args.write}")


if __name__ == "__main__":
    main()
