"""One pass of one workload, in the fresh interpreter ``run.py`` starts for it.

    python3 perfbench/one_pass.py WORKLOAD SEED PASS TRACE SPAWNED

SPAWNED is the parent's ``time.perf_counter()`` just before it started this
interpreter.  On Linux perf_counter reads CLOCK_MONOTONIC, one clock for all
processes, so set-up time runs from the parent's spawn to the first timed
call and covers interpreter start, the program's import and input generation.
A ``speed.SpeedProbe`` runs from the top of this file to the end of the last
call, and every time reported is scaled to its reference speed; the raw wall
times are reported beside them.  Prints one JSON object with the pass's
measurements.
"""

import json
import resource
import sys
from pathlib import Path
from statistics import quantiles

from speed import SpeedProbe

PROBE = SpeedProbe()
PROBE.start()
SRC = Path(__file__).resolve().parent.parent / "src"

import workloads  # noqa: E402  (imports the program; set-up time includes it)


def _golden_digest(golden, workload, key):
    if key is None:
        return None
    if workload == "queries":
        return golden["pool"][key]["digest"]
    return golden[workload].get(key)


def main(argv):
    workload, seed, pass_index, trace, spawned = argv
    if not Path(workloads.ev.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"epivariants imported from {workloads.ev.__file__}, not from {SRC}")
    golden = workloads.load_golden()
    ops = workloads.prepare(workload, int(seed), int(pass_index), golden["pool"])
    tracer = workloads.Tracer(trace == "1", PROBE)

    marks, problems = [], []
    failed = 0
    ready = PROBE.mark()
    for op in ops:
        start = PROBE.mark()
        try:
            answer = op.run(tracer)
        except Exception as exc:  # a crash is a failed operation, not a failed pass
            marks.append((start, PROBE.mark()))
            found = [f"{type(exc).__name__}: {exc}"]
        else:
            marks.append((start, PROBE.mark()))
            found, material = op.check(answer)
            expected = _golden_digest(golden, workload, op.golden)
            if expected is not None and workloads.digest(material) != expected:
                found.append(f"answers {material} differ from the recorded digest {expected}")
        if found:
            failed += 1
            problems.extend(f"{op.label}: {p}" for p in found)
    if workload in ("paper", "search"):
        ran = {op.golden for op in ops}
        for key in golden[workload]:
            if key not in ran:
                failed += 1
                problems.append(f"{key}: recorded but not run")

    PROBE.stop()
    spawn = (float(spawned), 0.0)
    latencies = [PROBE.scaled(begin, end) for begin, end in marks]
    ms = [v * 1000 for v in latencies]
    pct = quantiles(ms, n=100, method="inclusive")
    cache = {}
    for name, fn in (("green", workloads.ev.green), ("epigroup", workloads.ev.epigroup_data)):
        info = fn.cache_info()
        cache[name] = [info.hits, info.misses]
    result = {
        "setup_s": PROBE.scaled(spawn, ready),
        "wall_s": sum(latencies),
        "raw_setup_s": ready[0] - spawn[0],
        "raw_wall_s": sum(end[0] - begin[0] - (end[1] - begin[1]) for begin, end in marks),
        "speed": PROBE.speed(),
        "ops": len(ops),
        "query_p50_ms": pct[49],
        "query_p95_ms": pct[94],
        "slowest_ms": max(ms),
        "slowest": ops[ms.index(max(ms))].label,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed": failed,
        "problems": problems[:20],
        "layers": tracer.layers(),
        "cache": cache,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
