"""Grid sweeps hunting for counterexamples, with restart-safe parallelism.

The sweep space is every non-collinear subset of a w x h grid (within size
bounds), reduced to one representative per translation class, paired up with
itself: all unordered pairs (A, B) with A <= B in canonical order. Every
selected check is symmetric in the pair, so each unordered pair is evaluated
once.

Parallel runs stay reproducible by construction rather than by locking:

* a pair belongs to one of ``workers`` shards by its position in the pair
  stream, and each shard generates only its own pairs: in exhaustive mode
  row ``i`` of the sorted class list (every pair whose smaller set is class
  ``i``) belongs to shard ``i % workers``; in random mode draw ``k`` belongs
  to shard ``k % workers``, and every shard steps the generator through all
  draws;
* both modes carry a set as its class key, a sorted tuple of int pairs,
  from enumeration or draw to the shard's one table of summands: a shard
  decides the per-set filters from a key's integer coordinates and builds
  canonical forms and decompositions only for the sets that pass;
* each shard writes its records to its own file and checkpoints its progress
  (config fingerprint + pairs visited + records written) atomically, so a
  killed run resumes by truncating to the checkpoint and skipping that many
  of its pairs; a finished shard also stores its tally of verdicts, fails
  and check failures;
* the final report is the sorted merge of all shard files, which makes the
  output bytes independent of worker count and interruption history.

Records are flat ``key=value`` lines with no wall-clock time in them, so
reports are reproducible; only a sweep's summary carries its elapsed time.
"""

from __future__ import annotations

import errno
import functools
import glob
import hashlib
import itertools
import json
import os
import random
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .conjecture import CHECKS, ConjectureReport, Pair, Verdict, _fmt_bool
from .errors import CapExceeded, ParseError, ResumeMismatch, token_column
from .geometry import (
    HullDecomposition,
    Point,
    PointSet,
    _collinear,
    classify_points,
    convex_hull,
    interior_count,
)
from .sumset import _class_key, sum_decomposition
from .triangulation import lattice_points_in_hull

GRID_CELL_CAP = 25

CHECK_NAMES = tuple(CHECKS)

FILTER_NAMES = ("boundary-only", "interior-both", "unique-rep")

SYMMETRIES = ("translation", "dihedral")

_DIHEDRAL = (
    lambda x, y: (x, y),
    lambda x, y: (-x, y),
    lambda x, y: (x, -y),
    lambda x, y: (-x, -y),
    lambda x, y: (y, x),
    lambda x, y: (-y, x),
    lambda x, y: (y, -x),
    lambda x, y: (-y, -x),
)


def _check_symmetry(symmetry: str) -> None:
    if symmetry not in SYMMETRIES:
        raise ValueError(f"unknown symmetry {symmetry!r}, expected one of {SYMMETRIES}")


def _canonical(pts: Sequence[Tuple[int, int]], symmetry: str) -> Tuple[Tuple[int, int], ...]:
    """The class key of a set's class under ``symmetry``: its ``_class_key``
    under translation, the least class key of its eight lattice symmetry
    images under dihedral symmetry."""
    if symmetry == "translation":
        return _class_key(pts)
    _check_symmetry(symmetry)
    return min(_class_key([f(x, y) for x, y in pts]) for f in _DIHEDRAL)


def enumerate_point_sets(grid_w: int, grid_h: int, min_pts: int, max_pts: Optional[int],
                         symmetry: str = "translation") -> Iterator[PointSet]:
    """Canonical non-collinear subsets of the grid, sizes ascending; a
    ``max_pts`` of None reads as every cell.

    Yields one representative per translation class (or per class of the
    full 8-element lattice symmetry group with ``symmetry="dihedral"``), in
    first-encounter order over ascending subset size and lexicographic
    combinations.
    """
    return map(PointSet, _class_keys(grid_w, grid_h, min_pts, max_pts, symmetry))


def _class_keys(grid_w: int, grid_h: int, min_pts: int, max_pts: Optional[int],
                symmetry: str) -> Iterator[Tuple[Tuple[int, int], ...]]:
    """``enumerate_point_sets`` as the ``_canonical`` keys of the classes."""
    _check_grid(grid_w, grid_h, min_pts, max_pts, capped=True)
    _check_symmetry(symmetry)
    grid = _grid_points(grid_w, grid_h)
    seen = set()
    top = len(grid) if max_pts is None else min(max_pts, len(grid))
    for size in range(min_pts, top + 1):
        for combo in itertools.combinations(grid, size):
            if _collinear(combo):
                continue
            key = _canonical(combo, symmetry)
            if key not in seen:
                seen.add(key)
                yield key


def _grid_points(grid_w: int, grid_h: int) -> List[Tuple[int, int]]:
    return [(x, y) for x in range(grid_w) for y in range(grid_h)]


def _check_grid_has_area(grid_w: int, grid_h: int) -> None:
    # on a one-row or one-column grid every subset is collinear, so a random
    # draw would never end and a sweep would have nothing to visit
    if grid_w < 2 or grid_h < 2:
        raise ValueError(f"{grid_w}x{grid_h} grid has no non-collinear subsets; "
                         "both dimensions must be at least 2")


def _check_grid(grid_w: int, grid_h: int, min_pts: int, max_pts: Optional[int],
                capped: bool) -> None:
    """Grid and set-size bounds; the cell cap only where ``capped``."""
    if grid_w < 1 or grid_h < 1:
        raise ValueError("grid dimensions must be positive")
    if capped and grid_w * grid_h > GRID_CELL_CAP:
        raise CapExceeded(
            f"{grid_w}x{grid_h} grid has {grid_w * grid_h} cells, cap is {GRID_CELL_CAP}"
        )
    if min_pts < 3:
        raise ValueError("min_pts must be at least 3: smaller sets are collinear")
    if min_pts > grid_w * grid_h:
        raise ValueError(f"min_pts must be at most the {grid_w}x{grid_h} grid's "
                         f"{grid_w * grid_h} cells")
    if max_pts is not None and max_pts < min_pts:
        raise ValueError("max_pts must be at least min_pts")


def random_point_set(rng: random.Random, grid_w: int, grid_h: int,
                     min_pts: int, max_pts: Optional[int]) -> PointSet:
    """Uniform random non-collinear grid subset (size uniform in range); a
    ``max_pts`` of None reads as every cell."""
    _check_grid_has_area(grid_w, grid_h)
    _check_grid(grid_w, grid_h, min_pts, max_pts, capped=False)
    grid = _grid_points(grid_w, grid_h)
    return PointSet(_draw(rng, grid, min_pts, len(grid) if max_pts is None else max_pts))


def _draw(rng: random.Random, grid: Sequence[Tuple[int, int]], min_pts: int,
          max_pts: int) -> List[Tuple[int, int]]:
    # every random-mode shard replays each draw's generator calls, so this is
    # the whole of a draw that another shard owns: no PointSet, no canonical form
    while True:
        k = rng.randint(min_pts, min(max_pts, len(grid)))
        pts = rng.sample(grid, k)
        if not _collinear(pts):
            return pts


def random_saturated_set(rng: random.Random, span: int = 9,
                         corners: int = 6) -> PointSet:
    """Random lattice-saturated set: all lattice points of a random polygon
    with ``corners`` corners drawn from [0, span]^2."""
    # below these no draw spans an area, and the loop would never end
    if span < 1:
        raise ValueError("span must be at least 1")
    if corners < 3:
        raise ValueError("corners must be at least 3")
    while True:
        cand = {Point(rng.randint(0, span), rng.randint(0, span)) for _ in range(corners)}
        if len(cand) < 3:
            continue
        hull = convex_hull(cand)
        if len(hull) >= 3:
            return PointSet(lattice_points_in_hull(hull))


def separated_pair(rng: random.Random) -> Tuple[PointSet, PointSet]:
    """A random pair guaranteed unique representation by scale separation.

    B is a small set dilated by at least ten times the max-coordinate
    diameter of A, so nonzero difference vectors of B are longer than any
    difference of A and no sum point can have two representations.
    """
    a = random_point_set(rng, 5, 5, 3, 6)
    b0 = random_point_set(rng, 4, 4, 3, 6)
    xs = [p.x for p in a]
    ys = [p.y for p in a]
    diam = max(max(xs) - min(xs), max(ys) - min(ys))
    k = 10 * max(1, diam)
    b = PointSet(Point(k * p.x, k * p.y) for p in b0)
    return a, b


@dataclass(frozen=True)
class SearchConfig:
    """Everything that determines a sweep. Hashable into a fingerprint."""

    grid_w: int
    grid_h: int
    min_pts: int = 3
    max_pts: Optional[int] = None
    mode: str = "exhaustive"  # or "random"
    seed: int = 0
    count: int = 0  # random mode: number of drawn pairs
    filters: Tuple[str, ...] = ()
    checks: Tuple[str, ...] = ()
    workers: int = 1
    symmetry: str = "translation"
    report_path: str = "planesum-report.txt"
    checkpoint_path: Optional[str] = None

    def normalized(self) -> "SearchConfig":
        max_pts = self.max_pts if self.max_pts is not None else self.grid_w * self.grid_h
        filters = tuple(sorted(set(self.filters)))
        checks = tuple(c for c in CHECK_NAMES if c in set(self.checks))
        ckpt = self.checkpoint_path or self.report_path + ".ckpt"
        return replace(self, max_pts=max_pts, filters=filters, checks=checks,
                       checkpoint_path=ckpt)

    def validate(self) -> None:
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {self.mode!r}")
        _check_grid_has_area(self.grid_w, self.grid_h)
        _check_grid(self.grid_w, self.grid_h, self.min_pts, self.max_pts,
                    capped=self.mode == "exhaustive")
        _check_symmetry(self.symmetry)
        if self.mode == "random" and self.count < 1:
            raise ValueError("random mode needs count >= 1")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        for f in self.filters:
            if f not in FILTER_NAMES:
                raise ValueError(f"unknown filter {f!r}, expected one of {FILTER_NAMES}")
        for c in self.checks:
            if c not in CHECK_NAMES:
                raise ValueError(f"unknown check {c!r}, expected one of {CHECK_NAMES}")

    def fingerprint(self) -> str:
        payload = {
            "grid": [self.grid_w, self.grid_h],
            "pts": [self.min_pts, self.max_pts],
            "mode": self.mode,
            "seed": self.seed,
            "count": self.count,
            "filters": list(self.filters),
            "checks": list(self.checks),
            "workers": self.workers,
            "symmetry": self.symmetry,
            # pairs go to shards by stream position; a checkpoint from the
            # earlier hash-of-ids assignment covers other pairs
            "sharding": "position",
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class SearchRecord:
    """One evaluated pair: ids, report and extra check outcomes. No sweep
    sets ``walltime``, and ``line()`` never writes it."""

    a_id: str
    b_id: str
    report: ConjectureReport
    checks: Dict[str, Optional[bool]]
    walltime: float = 0.0

    def line(self) -> str:
        return f"a={self.a_id} b={self.b_id}{record_body(self.report, self.checks)}"


def record_body(report: ConjectureReport, checks: Dict[str, Optional[bool]]) -> str:
    """Everything of a record line after ``a=… b=…``, from its leading space:
    the report's groups, then each named check in column order, ``skip``
    where it does not apply."""
    tail = "".join([
        f" {name}={'skip' if checks[name] is None else _fmt_bool(checks[name])}"
        for name in CHECK_NAMES if name in checks])
    return f" {' '.join(report.lines())}{tail}"


def serialize_set_id(s: Iterable[Point]) -> str:
    """The record id of a set, from a ``PointSet`` or its ``points``."""
    return ";".join(f"{p.x},{p.y}" for p in s)


def _pair_stream(cfg: SearchConfig, shard: int) -> Iterator[tuple]:
    """The pairs of one shard, in stream order (see the module docstring), as
    the class keys of their two sets.

    Exhaustive mode yields pairs of ``_canonical`` keys, A <= B. Random mode
    yields each owned draw as the ``_class_key``s of its two sets, in draw
    order. Either way ``run_shard`` decides the per-set filters from the
    keys and builds canonical forms only for the sets that pass.
    """
    _check_symmetry(cfg.symmetry)
    if cfg.mode == "exhaustive":
        keys = sorted(_class_keys(
            cfg.grid_w, cfg.grid_h, cfg.min_pts, cfg.max_pts, cfg.symmetry))
        for i in range(shard, len(keys), cfg.workers):
            for j in range(i, len(keys)):
                yield keys[i], keys[j]
    else:
        rng = random.Random(cfg.seed)
        grid = _grid_points(cfg.grid_w, cfg.grid_h)
        for k in range(cfg.count):
            a = _draw(rng, grid, cfg.min_pts, cfg.max_pts)
            b = _draw(rng, grid, cfg.min_pts, cfg.max_pts)
            if k % cfg.workers == shard:
                yield _class_key(a), _class_key(b)


_SET_FILTERS = ("boundary-only", "interior-both")


def _passes_set_filters(cfg: SearchConfig, i: int) -> bool:
    # filters decidable from one summand's interior count alone, checked
    # before the other summand is looked up and before the sum is built
    for f in cfg.filters:
        if f == "boundary-only" and i != 0:
            return False
        if f == "interior-both" and i < 1:
            return False
    return True


def _shard_paths(cfg: SearchConfig, shard: int) -> Tuple[str, str]:
    base = f"{cfg.checkpoint_path}.shard{shard:03d}"
    return base + ".records", base + ".json"


def _shard_files(cfg: SearchConfig) -> List[str]:
    """Every shard file under the checkpoint prefix, whatever the worker
    count of the run that wrote it."""
    return sorted(glob.glob(glob.escape(f"{cfg.checkpoint_path}.shard") + "[0-9]*"))


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def _read_state(state_path: str, fingerprint: str) -> Optional[dict]:
    """The checkpoint object at the path, or None where there is none.

    Raises ResumeMismatch naming the file when the file is not JSON text
    (a ``JSONDecodeError`` or ``UnicodeDecodeError``, both ``ValueError``s)
    or holds no JSON object, or when the object's ``config`` is
    ``fingerprint`` but its other fields are not those ``run_shard`` writes:
    ``visited`` and ``records`` non-negative ints, ``complete`` a bool and,
    for a complete shard, a ``tally`` object with ``ReportTally``'s fields.
    """
    if not os.path.exists(state_path):
        return None
    with open(state_path, "r", encoding="utf-8") as fh:
        try:
            state = json.load(fh)
        except ValueError as exc:
            raise ResumeMismatch(f"checkpoint {state_path} is not JSON: {exc}") from None
    if not isinstance(state, dict):
        raise ResumeMismatch(f"checkpoint {state_path} is not a JSON object")
    if state.get("config") == fingerprint and not _state_fields_ok(state):
        raise ResumeMismatch(f"checkpoint {state_path} has missing or malformed fields")
    return state


def _is_count(v) -> bool:
    return type(v) is int and v >= 0


def _is_lines(v) -> bool:
    return isinstance(v, list) and all(isinstance(line, str) for line in v)


def _state_fields_ok(state: dict) -> bool:
    if not (_is_count(state.get("visited")) and _is_count(state.get("records"))
            and isinstance(state.get("complete"), bool)):
        return False
    if not state["complete"]:
        return True
    tally = state.get("tally")
    return (isinstance(tally, dict)
            and tally.keys() == {f.name for f in fields(ReportTally)}
            and isinstance(tally["verdicts"], dict)
            and tally["verdicts"].keys() == {v.value for v in Verdict}
            and isinstance(tally["cases"], dict)
            # JSON object keys are strings already
            and all(map(_is_count, [*tally["verdicts"].values(), *tally["cases"].values()]))
            and all(map(_is_lines, [tally["fails"], tally["check_failures"], tally["flagged"]])))


_CHECKPOINT_EVERY = 512


def run_shard(cfg: SearchConfig, shard: int) -> ReportTally:
    """Evaluate one shard's pairs of a normalized config, appending records
    and checkpointing.

    Returns the tally of the completed shard file. Safe to call again after
    a crash: the checkpoint stores how many of the shard's pairs were fully
    handled (``visited``) and how many record lines those produced
    (``records``, smaller when filters drop pairs); resuming truncates the
    record file to that many lines, re-tallies them and skips that many
    pairs. The final checkpoint also stores the shard's ``tally``, which a
    call on a complete shard returns; a checkpoint of this configuration
    with missing or malformed fields raises ResumeMismatch.

    Summands and sums are cached for the shard alone: one decomposition per
    class, which memoises its packed grids and cone masks per layout, and
    one ``walks`` memo of hull walks that every pair's
    ``sum_decomposition`` reads. Record bodies are memoised for the shard
    too: every selected check runs on every pair, and the pair's six counts,
    ``extremal`` and the tuple of check outcomes key the text after
    ``a=… b=…`` together with the main and case texts and whether a check
    is false. The counts fix ``unique``: |A+B| = |A||B| reads
    b_ab + i_ab = (b_a + i_a)(b_b + i_b). ``Pair.report`` and ``record_body`` run only for a key
    the shard has not seen, so each distinct body is spelled once per shard;
    since the outcomes are in the key, a reused body never carries another
    pair's verdict. All of it is dropped when the call returns.
    """
    fingerprint = cfg.fingerprint()
    records_path, state_path = _shard_paths(cfg, shard)
    state = _read_state(state_path, fingerprint)
    if state is not None and state.get("config") != fingerprint:
        raise ResumeMismatch(
            f"checkpoint {state_path} was written by a different configuration"
        )
    visited_done = 0
    records_done = 0
    if state is not None and os.path.exists(records_path):
        if state.get("complete"):
            return ReportTally(**state["tally"])
        visited_done = state["visited"]
        records_done = state["records"]
    kept: List[str] = []
    if records_done:
        with open(records_path, "r", encoding="utf-8") as fh:
            kept = list(itertools.islice(fh, records_done))
        if len(kept) < records_done:
            # checkpoint ahead of the file: fall back to a fresh shard
            visited_done = records_done = 0
            kept = []
    with open(records_path, "w", encoding="utf-8") as fh:
        fh.writelines(kept)
    tally = summarize_lines([line.rstrip("\n") for line in kept])

    # class key -> decomposition of its canonical form, or None for a set
    # the per-set filters reject, which is decided in integers; under
    # dihedral symmetry several keys share one canonical form, hence decomp
    decomp = functools.cache(classify_points)
    set_filtered = any(f in _SET_FILTERS for f in cfg.filters)

    @functools.cache
    def summand(key: tuple) -> Optional[HullDecomposition]:
        if set_filtered and not _passes_set_filters(cfg, interior_count(key)):
            return None
        return decomp(_canonical(key, cfg.symmetry))

    walks: dict = {}
    set_id = functools.cache(serialize_set_id)
    # body key -> (record body, main text, case text, some check false)
    bodies: Dict[tuple, Tuple[str, str, str, bool]] = {}
    checks_run = [CHECKS[name] for name in cfg.checks]
    unique_only = "unique-rep" in cfg.filters
    visited = visited_done
    with open(records_path, "a", encoding="utf-8") as out:
        for sa, sb in itertools.islice(_pair_stream(cfg, shard), visited_done, None):
            visited += 1
            da = summand(sa)
            if da is not None and (db := summand(sb)) is not None:
                a, b = da.points, db.points
                # order and id the sets by their points tuples, which compare
                # and hash in C, where a PointSet calls its Python dunders
                if b.points < a.points:
                    da, db, a, b = db, da, b, a
                dab = sum_decomposition(da, db, walks)
                pair = Pair(a, b, da, db, dab)
                if not unique_only or pair.unique:
                    outcomes = tuple([outcome(pair) if applies(pair) else None
                                      for applies, outcome in checks_run])
                    key = (da.b, da.i, db.b, db.i, dab.b, dab.i, pair.extremal, outcomes)
                    memo = bodies.get(key)
                    if memo is None:
                        report = pair.report()
                        memo = bodies[key] = (
                            record_body(report, dict(zip(cfg.checks, outcomes))),
                            report.main.value, report.case.value, False in outcomes)
                    body, main, case, check_failed = memo
                    line = f"a={set_id(a.points)} b={set_id(b.points)}{body}"
                    out.write(line + "\n")
                    tally.add(line, main, case, check_failed)
            if visited % _CHECKPOINT_EVERY == 0:
                out.flush()
                _atomic_write(state_path, [json.dumps({
                    "config": fingerprint, "visited": visited,
                    "records": tally.records, "complete": False,
                })])
        out.flush()
    _atomic_write(state_path, [json.dumps({
        "config": fingerprint, "visited": visited, "records": tally.records,
        "complete": True, "tally": asdict(tally),
    })])
    return tally


@dataclass
class SearchSummary:
    """Merged outcome of a sweep."""

    pairs: int
    verdicts: Dict[str, int]
    fails: List[str] = field(default_factory=list)
    check_failures: List[str] = field(default_factory=list)
    elapsed: float = 0.0
    report_path: str = ""

    @property
    def clean(self) -> bool:
        return not self.fails and not self.check_failures


_FAILS = Verdict.FAILS.value


@dataclass
class ReportTally:
    """What a list of record lines adds up to."""

    verdicts: Dict[str, int] = field(
        default_factory=lambda: {v.value: 0 for v in Verdict})
    cases: Dict[str, int] = field(default_factory=dict)
    fails: List[str] = field(default_factory=list)  # main=Fails
    check_failures: List[str] = field(default_factory=list)  # some named check false
    flagged: List[str] = field(default_factory=list)  # either, each line once, in order

    @property
    def records(self) -> int:
        return sum(self.verdicts.values())

    def add(self, line: str, main: str, case: str, check_failed: bool) -> None:
        self.verdicts[main] += 1
        self.cases[case] = self.cases.get(case, 0) + 1
        failed = main == _FAILS
        if failed:
            self.fails.append(line)
        if check_failed:
            self.check_failures.append(line)
        if failed or check_failed:
            self.flagged.append(line)


def summarize_lines(lines: Sequence[str]) -> ReportTally:
    """Tally record lines; ParseError (1-based line and column) on a line that
    has a token without ``=``, lacks ``main`` or ``case``, or names an
    unknown verdict."""
    tally = ReportTally()
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        try:
            kv = dict(tok.split("=", 1) for tok in tokens)
        except ValueError:
            k = next(k for k, tok in enumerate(tokens) if "=" not in tok)
            raise ParseError(f"token without '=': {tokens[k]!r}", lineno,
                             token_column(line, k)) from None
        for key in ("main", "case"):
            if key not in kv:
                raise ParseError(f"record has no {key}=", lineno, 1)
        main = kv["main"]
        if main not in tally.verdicts:
            k = [tok.split("=", 1)[0] for tok in tokens].index("main")
            raise ParseError(f"unknown verdict {main!r}", lineno, token_column(line, k))
        check_failed = "=false" in line and any(kv.get(k) == "false" for k in CHECK_NAMES)
        tally.add(line, main, kv["case"], check_failed)
    return tally


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def run_search(cfg: SearchConfig) -> SearchSummary:
    """Run a sweep to completion and write the sorted merged report."""
    cfg.validate()  # before normalized(), which drops unknown check names
    cfg = cfg.normalized()
    # found now, not at the merge after the sweep has written its shards
    if os.path.isdir(cfg.report_path):
        raise IsADirectoryError(errno.EISDIR, "report path is a directory",
                                cfg.report_path)
    report_dir = os.path.dirname(cfg.report_path) or os.curdir
    if not os.path.exists(report_dir):
        raise FileNotFoundError(errno.ENOENT, "report directory does not exist",
                                report_dir)
    if not os.path.isdir(report_dir):
        raise NotADirectoryError(errno.ENOTDIR, "report directory is not a directory",
                                 report_dir)
    fingerprint = cfg.fingerprint()
    t0 = time.perf_counter()

    # surface a stale checkpoint before spawning anything, naming every file
    # of its shards: with another worker count that run may have had more
    files = _shard_files(cfg)
    stale = tuple(path[:-len("json")] for path in files if path.endswith(".json")
                  and _read_state(path, fingerprint).get("config") != fingerprint)
    if stale:
        raise ResumeMismatch("checkpoint files written by a different configuration; "
                             "remove them to start afresh: "
                             + " ".join(path for path in files if path.startswith(stale)))

    processes = min(cfg.workers, _usable_cpus())
    if processes == 1:
        parts = [run_shard(cfg, shard) for shard in range(cfg.workers)]
    else:
        # imported here: it loads multiprocessing, which no other path needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            futures = [pool.submit(run_shard, cfg, k) for k in range(cfg.workers)]
            parts = [fut.result() for fut in futures]

    lines: List[str] = []
    tally = ReportTally()
    for shard, part in enumerate(parts):
        records_path, _ = _shard_paths(cfg, shard)
        with open(records_path, "r", encoding="utf-8") as fh:
            # kept with their newlines, which sort the same: no record line
            # holds a character below "\n"
            lines.extend(line if line.endswith("\n") else line + "\n"
                         for line in fh if line.strip())
        for verdict, n in part.verdicts.items():
            tally.verdicts[verdict] += n
        tally.fails += part.fails
        tally.check_failures += part.check_failures
    lines.sort()
    _atomic_write(cfg.report_path, lines)

    for path in _shard_files(cfg):
        os.remove(path)

    # both lists are subsequences of the sorted report
    tally.fails.sort()
    tally.check_failures.sort()
    return SearchSummary(
        pairs=len(lines), verdicts=tally.verdicts, fails=tally.fails,
        check_failures=tally.check_failures, elapsed=time.perf_counter() - t0,
        report_path=cfg.report_path,
    )
