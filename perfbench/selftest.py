"""Smoke self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks, in about a minute:

* a one-second run of ``sweep4-random-bo`` and of ``pairs-large``, untraced
  and traced, prints every metric that ``BENCHMARK.json`` names, each on its
  own line with its unit and in the final JSON, passes its gates, and exits
  with 0. ``sweep3-exhaustive`` shares this code and is left out because one
  of its operations takes half a minute;
* a sweep report with one byte changed fails the sweep gate;
* a run whose recorded digests no longer match the program's output exits
  with 1 and reports ``correct: false``;
* a directory holding only ``BENCHMARK.json`` and the benchmark's own files
  (no package source) exits nonzero without printing a result.

Scratch files go under ``.perfbench/selftest`` in the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench" / "selftest"


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=600)


def check_metrics_printed(spec: dict, workload: str, trace: int) -> None:
    proc = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), got
        assert any(line.startswith(f"{workload} {m['name']} ")
                   and line.endswith(f" {m['unit']}") for line in lines[:-1]), m


def check_corrupted_report_fails() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    workload = wl.Sweep4RandomBO(wl.load_expected())
    workdir = wl.fresh_workdir(ROOT, "selftest-gate")
    cfg = workload.config(0, workdir)
    summary = wl.run_search(cfg)
    report = Path(cfg.report_path)
    assert workload.gate(0, summary, report)[1] == []
    data = bytearray(report.read_bytes())
    data[len(data) // 2] ^= 1
    report.write_bytes(bytes(data))
    assert workload.gate(0, summary, report)[1], "corrupted report passed the gate"
    shutil.rmtree(workdir)


def copy_bench(dest: Path, with_src: bool) -> None:
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dest / HERE.name, ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


def check_mismatch_exits_nonzero() -> None:
    dest = SCRATCH / "tampered"
    copy_bench(dest, with_src=True)
    path = dest / HERE.name / "expected.json"
    expected = json.loads(path.read_text())
    expected["pairs-large"] = {k: "0" * 16 for k in expected["pairs-large"]}
    path.write_text(json.dumps(expected))
    proc = bench(dest, "--workload", "pairs-large", "--seconds", "1")
    assert proc.returncode == 1, (proc.returncode, proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"], result


def check_no_source_fails() -> None:
    dest = SCRATCH / "bare"
    copy_bench(dest, with_src=False)
    proc = bench(dest, "--workload", "pairs-large", "--seconds", "1")
    assert proc.returncode not in (0, None), proc.returncode
    assert not proc.stdout.strip(), proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in ("sweep4-random-bo", "pairs-large"):
        for trace in (0, 1):
            check_metrics_printed(spec, workload, trace)
            print(f"ok: {workload} --trace {trace} prints every metric with its unit")
    check_corrupted_report_fails()
    print("ok: a corrupted sweep report fails the gate")
    check_mismatch_exits_nonzero()
    print("ok: output differing from the recorded digests exits 1")
    check_no_source_fails()
    print("ok: without package source the benchmark exits nonzero, no result")
    shutil.rmtree(SCRATCH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
