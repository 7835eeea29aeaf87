"""The three benchmark workloads: seeded inputs, timed program calls, gates.

Each workload turns a run seed into a list of operations (``setup``), and
runs one operation through the package's public entry points
(``run_search`` or ``cli_dispatch``), timing only the program call. After
the call, a correctness gate compares the program's output with the digest
recorded in ``expected.json`` for that input (written by ``record.py`` at
the commit that added the benchmark); any mismatch marks the operation as
failed.

Inputs are drawn from fixed pools whose expected outputs are recorded, and
the run seed picks which pool entries a run uses and in what order. That is
what lets every seed be gated against a recorded digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import List, Optional, Tuple

from planesum import (
    SearchConfig,
    load_point_set,
    minkowski_sum,
    random_saturated_set,
    run_search,
    save_point_set,
    separated_pair,
)
from planesum.cli import cli_dispatch
from planesum.search import CHECK_NAMES

import replay

HERE = Path(__file__).resolve().parent

# random 4x4 sweep: draws per run_search call, and how many recorded streams
SWEEP4_CHUNK = 5000
SWEEP4_POOL = 48
# large pairs: recorded pool size, pairs materialised per run (one per size
# stratum), and the floor on timed operations so that at least ten samples
# lie beyond p90
PAIRS_POOL = 1024
PAIRS_PER_RUN = 128
PAIRS_MIN_OPS = 100


def load_expected() -> dict:
    with open(HERE / "expected.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def short_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class OpResult:
    """One timed program call and what its gate found."""

    seconds: float
    pairs: int
    ok: bool
    output: object  # what the traced replay must reproduce
    latencies: Tuple[float, ...] = ()  # (check, oracle) seconds, pairs-large only
    problems: List[str] = field(default_factory=list)


def tallies_clean(summary) -> bool:
    return summary.verdicts.get("Fails", 0) == 0 and not summary.check_failures


class Sweep:
    """A workload of ``run_search`` calls, one report digest per call."""

    name = ""
    workers = 1
    min_ops = 1

    def __init__(self, expected: Optional[dict] = None):
        self.expected = (expected or {}).get(self.name)

    def config(self, key, workdir: Path) -> SearchConfig:
        raise NotImplementedError

    def run(self, key, workdir: Path) -> OpResult:
        cfg = self.config(key, workdir)
        t0 = perf_counter()
        summary = run_search(cfg)
        seconds = perf_counter() - t0
        report = Path(cfg.report_path)
        digest, problems = self.gate(key, summary, report)
        report.unlink()
        visited = cfg.count if cfg.mode == "random" else summary.pairs
        return OpResult(seconds=seconds, pairs=visited, ok=not problems,
                        output=digest, problems=problems)

    def replay(self, key, workdir: Path, tr, cnt, first_pair: int):
        """The traced replay of one operation: (report digest, pairs visited)."""
        return replay.replay_sweep(self.config(key, workdir), tr, cnt, first_pair)

    def gate(self, key, summary, report: Path) -> Tuple[str, List[str]]:
        """The report's digest, and what is wrong with the report if anything."""
        digest = sha256_file(report)
        problems = []
        if digest != self.expected[str(key)]:
            problems.append(f"report digest {digest[:16]} != recorded")
        if not tallies_clean(summary):
            problems.append(f"tallies {summary.verdicts} with "
                            f"{len(summary.check_failures)} false checks")
        return digest, problems


class Sweep3Exhaustive(Sweep):
    """The acceptance sweep: exhaustive 3x3, all seven checks, one worker."""

    name = "sweep3-exhaustive"

    def setup(self, seed: int, workdir: Path) -> list:
        return [0]  # the sweep does not depend on the seed

    def config(self, key, workdir: Path) -> SearchConfig:
        return SearchConfig(grid_w=3, grid_h=3, checks=CHECK_NAMES, workers=self.workers,
                            report_path=str(workdir / "sweep3.txt"))


class Sweep4RandomBO(Sweep):
    """Random 4x4 stream, boundary-only filter, classification, two workers."""

    name = "sweep4-random-bo"
    workers = 2

    def setup(self, seed: int, workdir: Path) -> list:
        return random.Random(seed).sample(range(SWEEP4_POOL), SWEEP4_POOL)

    def config(self, key, workdir: Path) -> SearchConfig:
        return SearchConfig(grid_w=4, grid_h=4, mode="random", seed=key,
                            count=SWEEP4_CHUNK, filters=("boundary-only",),
                            checks=("classification",), workers=self.workers,
                            report_path=str(workdir / f"sweep4-{key}.txt"))


def pool_pair(index: int):
    """Pool pair ``index``: two large saturated sets, every fourth a separated pair."""
    rng = random.Random(index)
    if index % 4 == 3:
        return separated_pair(rng)
    a = random_saturated_set(rng, span=rng.randint(10, 20), corners=rng.randint(4, 8))
    b = random_saturated_set(rng, span=rng.randint(10, 20), corners=rng.randint(4, 8))
    return a, b


def write_pool_pair(index: int, workdir: Path) -> Tuple[int, str, str, str]:
    a, b = pool_pair(index)
    paths = [str(workdir / f"p{index}-{part}.pts") for part in ("a", "b", "s")]
    for s, path in zip((a, b, minkowski_sum(a, b)), paths):
        save_point_set(s, path)
    return (index, *paths)


def pair_size(a_path: str, b_path: str, s_path: str) -> int:
    """|A| |B| + |A+B|: sum terms formed plus points classified and triangulated."""
    a, b, s = (len(load_point_set(p)) for p in (a_path, b_path, s_path))
    return a * b + s


def dispatch(argv: List[str]) -> Tuple[int, str, float]:
    """``cli_dispatch`` in-process with stdout captured; returns code, text, seconds."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = perf_counter()
        code = cli_dispatch(argv)
        seconds = perf_counter() - t0
    return code, out.getvalue(), seconds


class PairsLarge:
    """Per pair: ``planesum check A B`` then ``planesum oracle A+B``."""

    name = "pairs-large"
    workers = 1
    min_ops = PAIRS_MIN_OPS

    def __init__(self, expected: Optional[dict] = None):
        self.expected = (expected or {}).get(self.name)

    def setup(self, seed: int, workdir: Path) -> list:
        """One pair from each of PAIRS_PER_RUN strata of the pool ordered by
        size, so that every seed gets inputs of the same size profile."""
        rng = random.Random(seed)
        order = sorted(range(PAIRS_POOL), key=lambda i: (self.expected[str(i)][1], i))
        width = PAIRS_POOL // PAIRS_PER_RUN
        indices = [rng.choice(order[k:k + width]) for k in range(0, PAIRS_POOL, width)]
        rng.shuffle(indices)
        return [write_pool_pair(i, workdir) for i in indices]

    def run(self, key, workdir: Path) -> OpResult:
        index, a_path, b_path, s_path = key
        check_code, check_out, check_s = dispatch(["check", a_path, b_path])
        oracle_code, oracle_out, oracle_s = dispatch(["oracle", s_path])
        problems = []
        if check_code != 0 or short_digest(check_out) != self.expected[str(index)][0]:
            problems.append(f"pair {index}: check exit {check_code}, output differs from recorded")
        if oracle_code != 0 or not oracle_out.rstrip().endswith(" OK"):
            problems.append(f"pair {index}: oracle printed {oracle_out.strip()!r}")
        return OpResult(seconds=check_s + oracle_s, pairs=1, ok=not problems,
                        output=(check_out, oracle_out),
                        latencies=(check_s, oracle_s), problems=problems)

    def replay(self, key, workdir: Path, tr, cnt, first_pair: int):
        """The traced replay of one pair: (check and oracle text, 1)."""
        return replay.replay_pair(key, tr, cnt, first_pair), 1


WORKLOADS = {w.name: w for w in (Sweep3Exhaustive, Sweep4RandomBO, PairsLarge)}


def fresh_workdir(root: Path, name: str) -> Path:
    """Empty per-workload scratch directory inside the checkout."""
    workdir = root / ".perfbench" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir
