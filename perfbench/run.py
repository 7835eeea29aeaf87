"""Planesum benchmark: the command that runs a workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``--workload all`` runs each in turn) and prints every
metric of ``BENCHMARK.json`` by name and unit: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced replay with ``--trace 1``.
The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every correctness gate passed; 1 when a gate failed; 2 when the
benchmark could not run (no package source, a child that crashed or ran
out of time).

Each role runs in a fresh ``child.py`` process, so that set-up time includes
the package import and ``peak_rss_mb`` belongs to this workload alone.
``setup_s`` is the median over ``SETUP_SAMPLES`` processes: the measuring
one plus ``SETUP_SAMPLES - 1`` that only set up.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170  # one workload, all its processes


class BenchError(Exception):
    pass


def spawn(role: str, name: str, seed: int, seconds: float, deadline: float) -> dict:
    """Run one child to completion and return its JSON line.

    The child leads its own process group, so a timeout also ends any
    worker processes it started.
    """
    cmd = [sys.executable, str(HERE / "child.py"), role, name, str(seed), str(seconds)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process for {name} ran out of time")
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{role} process for {name} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(spec: dict, name: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = monotonic() + TIME_LIMIT_S
    wanted = spec["per_layer" if traced else "end_to_end"]
    setup = [] if traced else [spawn("setup", name, seed, seconds, deadline)["setup_s"]
                               for _ in range(SETUP_SAMPLES - 1)]
    res = spawn("trace" if traced else "measure", name, seed, seconds, deadline)
    values = dict(res["metrics"], setup_s=statistics.median(setup + [res["setup_s"]]))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{name}: no value for {missing}")
    for problem in res["problems"]:
        print(f"{name}: FAILED {problem}", file=sys.stderr)
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def _stop(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through spawn(), which ends the child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    selected = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in selected:
            results[name] = res = run_workload(spec, name, args.seed, args.seconds,
                                               bool(args.trace))
            for metric, v in res["metrics"].items():
                print(f"{name} {metric} {v['value']!r} {v['unit']}")
            print(f"{name} attempted={res['attempted']} failed={res['failed']}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(selected) == 1:
        final = results[selected[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
