"""One benchmark process, started fresh by ``run.py`` for each role.

    python3 perfbench/child.py {setup|measure|trace} WORKLOAD SEED SECONDS

Every role imports the package from the checkout's ``src`` and sets up the
workload's inputs; that span, from the first line of this file, is the
set-up time. ``setup`` stops there. ``measure`` then runs the workload
untraced for SECONDS and reports the end-to-end metrics. ``trace`` runs it
untraced for SECONDS / 2, replays the same operations through the layer
functions with spans on, and reports the per-layer metrics. The last line
of standard output is one JSON object.
"""

from time import perf_counter

T0 = perf_counter()

import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_ops(workload, keys, workdir, budget: float, floor: int) -> list:
    """Closed loop over the operations, cycling the inputs, until both the
    time budget and the operation floor are met."""
    results = []
    start = perf_counter()
    while len(results) < floor or perf_counter() - start < budget:
        results.append(workload.run(keys[len(results) % len(keys)], workdir))
    return results


def percentile(sorted_values: list, q: int) -> float:
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


def end_to_end(results: list) -> dict:
    lat_ms = sorted(1e3 * r.seconds for r in results)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "pairs_per_s": sum(r.pairs for r in results) / sum(r.seconds for r in results),
        "peak_rss_mb": rss_kb / 1024,
        "op_ms.p50": percentile(lat_ms, 50),
        "op_ms.p90": percentile(lat_ms, 90),
    }


def trace(workload, keys, workdir, results: list) -> dict:
    """Replay the timed operations with spans; fail ops whose replay differs."""
    import replay

    tr, cnt = replay.Tracer(), replay.Counters()
    first_pair = 0
    t0 = perf_counter()
    for k, (r, key) in enumerate(zip(results, itertools.cycle(keys))):
        output, visited = workload.replay(key, workdir, tr, cnt, first_pair)
        first_pair += visited
        if output != r.output:
            r.ok = False
            r.problems.append(f"operation {k}: replay output differs from the program's")
    replay_s = perf_counter() - t0
    metrics = replay.layer_metrics(tr, cnt, sum(r.seconds for r in results), replay_s,
                                   workload.workers, [s for r in results for s in r.latencies])
    tr.write(workdir.parent / f"{workload.name}.spans")
    # pairs-large splits an operation into its two commands; other workloads read 0
    for k, command in enumerate(("check", "oracle")):
        ms = sorted(1e3 * r.latencies[k] for r in results if r.latencies)
        for q in (50, 90):
            metrics[f"{command}_ms.p{q}"] = percentile(ms, q) if ms else 0.0
    return metrics


def main(argv: list) -> int:
    role, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    if not (SRC / "planesum" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    workload = wl.WORKLOADS[name](wl.load_expected())
    workdir = wl.fresh_workdir(ROOT, name)
    keys = workload.setup(seed, workdir)
    out = {"setup_s": perf_counter() - T0}
    if role != "setup":
        budget = seconds / 2 if role == "trace" else seconds
        results = run_ops(workload, keys, workdir, budget, workload.min_ops)
        if role == "trace":
            out["metrics"] = trace(workload, keys, workdir, results)
        else:
            out["metrics"] = end_to_end(results)
        out["attempted"] = len(results)
        out["failed"] = sum(not r.ok for r in results)
        out["problems"] = [p for r in results for p in r.problems][:10]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
