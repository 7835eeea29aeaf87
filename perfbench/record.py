"""Record the outputs that the benchmark's correctness gates compare against.

    python3 perfbench/record.py

Runs the package in ``src`` on every pooled input and writes
``perfbench/expected.json``: the sha256 of the exhaustive 3x3 report, of
each random 4x4 stream's report, and for each large pair the first 16 hex
digits of the sha256 of ``planesum check`` output with the pair's size. The committed file was
recorded at the commit that introduced the benchmark. Recording again
replaces the reference, so do it only when a change to the reports is
intended and reviewed.
"""

import json
import re
import shutil
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402


def report_digest(cfg) -> str:
    summary = wl.run_search(cfg)
    if not wl.tallies_clean(summary):
        raise SystemExit(f"{cfg}: unclean tallies {summary.verdicts}")
    return wl.sha256_file(Path(cfg.report_path))


def main() -> int:
    workdir = wl.fresh_workdir(ROOT, "record")
    sweep4 = wl.Sweep4RandomBO()
    pairs = {}
    for index in range(wl.PAIRS_POOL):
        _, a, b, s = wl.write_pool_pair(index, workdir)
        code, text, _ = wl.dispatch(["check", a, b])
        if code != 0:
            raise SystemExit(f"pair {index}: check exited {code}")
        pairs[str(index)] = [wl.short_digest(text), wl.pair_size(a, b, s)]
    expected = {
        wl.Sweep3Exhaustive.name: {"0": report_digest(wl.Sweep3Exhaustive().config(0, workdir))},
        # one worker writes the same report bytes as the timed two-worker run
        sweep4.name: {str(k): report_digest(replace(sweep4.config(k, workdir), workers=1))
                      for k in range(wl.SWEEP4_POOL)},
        wl.PairsLarge.name: pairs,
    }
    text = json.dumps(expected, indent=1, sort_keys=True)
    # one line per pair: ["digest", size]
    text = re.sub(r'\[\s+("\w+"),\s+(\d+)\s+\]', r"[\1, \2]", text)
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
