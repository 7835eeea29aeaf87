"""Traced replay: the program's work re-done through the public layer functions.

The program has no spans of its own, so the traced run records them here,
around each call into a layer: ``search`` (enumeration, random draws,
records), ``geometry`` (point classification), ``sumset`` (Minkowski sum),
``conjecture`` (``check_pair`` and the seven checks), ``ptsfile`` (loads),
``triangulation`` (explicit construction) and ``cli`` (one span per
replayed command). A span is (name, start, end, parent, pair id); spans are
kept in flat arrays and written out when the run ends.

A replay proves it did the program's work by reproducing its output: the
sorted ``SearchRecord.line()`` output of a sweep must hash to the digest of
the ``run_search`` report, and a pair's replayed ``check`` and ``oracle``
text must equal what the CLI printed.
"""

from __future__ import annotations

import hashlib
import json
import random
from array import array
from pathlib import Path
from time import perf_counter as clock
from typing import Dict, List, Sequence, Tuple

from planesum import (
    SearchRecord,
    canonical_translate,
    check_arc_structure,
    check_boundary_superadditivity,
    check_extremal_classification,
    check_interior_bounds,
    check_pair,
    check_sum_boundary,
    check_unique_rep_bound,
    classify_points,
    enumerate_point_sets,
    load_point_set,
    minkowski_sum,
    random_point_set,
    tr_euler,
    triangulate_explicit,
)
from planesum.search import CHECK_NAMES, serialize_set_id


class Tracer:
    """In-memory span store: one array per field, one entry per span."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.pair = array("q")

    def open(self, name: str, parent: int = -1, pair: int = -1) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.parent.append(parent)
        self.pair.append(pair)
        self.end.append(0.0)
        self.start.append(clock())
        return len(self.start) - 1

    def close(self, sid: int) -> None:
        self.end[sid] = clock()

    def call(self, name: str, parent: int, pair: int, fn, *args):
        sid = self.open(name, parent, pair)
        out = fn(*args)
        self.close(sid)
        return out

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: count, summed duration, summed self time."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: Dict[str, List[float]] = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            acc = out.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - child[i]
        return {k: (int(c), d, s) for k, (c, d, s) in out.items()}

    def write(self, path: Path) -> None:
        """One JSON header line, then each field's array in native byte order."""
        header = {"names": self.names, "spans": len(self.start),
                  "fields": [["name", "H"], ["start", "d"], ["end", "d"],
                             ["parent", "q"], ["pair", "q"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent, self.pair):
                arr.tofile(fh)


class Counters:
    """Counts taken where the replay does the work."""

    def __init__(self) -> None:
        self.visited = 0
        self.passed = 0
        self.sum_points = 0
        self.sums = 0
        self.decomp_lookups = 0
        self.decomp_hits = 0
        self.report_bytes = 0
        self.calls = {name: 0 for name in CHECK_NAMES}
        self.skips = {name: 0 for name in CHECK_NAMES}


def _checks(cfg, tr: Tracer, cnt: Counters, parent: int, pair: int,
            a, b, da, db, dab) -> Dict[str, object]:
    """The selected named checks, with the applicability rules of a sweep."""
    boundary_only = da.i == 0 and db.i == 0
    unique = len(dab.points) == len(a) * len(b)
    table = {
        "freiman": (True, lambda: len(dab.points) >= len(a) + len(b) - 1),
        "sum_boundary": (True, lambda: check_sum_boundary(a, b, da, db, dab)),
        "boundary_counts": (True, lambda: check_boundary_superadditivity(
            a, b, da, db, dab).ok),
        "unique_rep": (unique, lambda: check_unique_rep_bound(a, b, da, db, dab)),
        "interior": (da.i >= 1 and db.i >= 1,
                     lambda: check_interior_bounds(a, b, da, db, dab)),
        "arcs": (boundary_only, lambda: check_arc_structure(
            a, b, decomp_a=da, decomp_b=db, decomp_ab=dab).ok),
        "classification": (boundary_only, lambda: check_extremal_classification(
            a, b, da, db, dab)),
    }
    out: Dict[str, object] = {}
    for name in cfg.checks:
        applies, fn = table[name]
        if applies:
            cnt.calls[name] += 1
            out[name] = tr.call(f"conjecture.{name}", parent, pair, fn)
        else:
            cnt.skips[name] += 1
            out[name] = None
    return out


def replay_sweep(cfg, tr: Tracer, cnt: Counters, first_pair: int) -> Tuple[str, int]:
    """Replay one ``run_search``; returns the report digest and pairs visited.

    Of the sweep filters, only ``boundary-only``, the one the workloads use,
    is replayed; a replay of any other would differ from the report digest.
    """
    cfg = cfg.normalized()
    root = tr.open("search.run", -1, -1)
    if cfg.mode == "exhaustive":
        sets = tr.call("search.enumerate", root, -1, lambda: sorted(enumerate_point_sets(
            cfg.grid_w, cfg.grid_h, cfg.min_pts, cfg.max_pts, cfg.symmetry)))
        stream = ((sets[i], sets[j]) for i in range(len(sets))
                  for j in range(i, len(sets)))
    else:
        rng = random.Random(cfg.seed)

        def draw():
            a = canonical_translate(random_point_set(
                rng, cfg.grid_w, cfg.grid_h, cfg.min_pts, cfg.max_pts))
            b = canonical_translate(random_point_set(
                rng, cfg.grid_w, cfg.grid_h, cfg.min_pts, cfg.max_pts))
            return (b, a) if b < a else (a, b)

        stream = (tr.call("search.draw", root, first_pair + k, draw)
                  for k in range(cfg.count))

    cache: Dict[object, object] = {}

    def decomp(s, parent: int, pair: int):
        cnt.decomp_lookups += 1
        d = cache.get(s)
        if d is None:
            d = cache[s] = tr.call("geometry.classify_summand", parent, pair,
                                   classify_points, s)
        else:
            cnt.decomp_hits += 1
        return d

    lines: List[str] = []
    n = first_pair
    for a, b in stream:
        p = tr.open("search.pair", root, n)
        da = decomp(a, p, n)
        db = decomp(b, p, n)
        if "boundary-only" not in cfg.filters or (da.i == 0 and db.i == 0):
            cnt.passed += 1
            s = tr.call("sumset.minkowski_sum", p, n, minkowski_sum, a, b)
            cnt.sums += 1
            cnt.sum_points += len(s)
            dab = tr.call("geometry.classify_sum", p, n, classify_points, s)
            report = tr.call("conjecture.check_pair", p, n, check_pair,
                             a, b, da, db, dab)
            checks = _checks(cfg, tr, cnt, p, n, a, b, da, db, dab)
            lines.append(tr.call("search.record", p, n, lambda: SearchRecord(
                a_id=serialize_set_id(a), b_id=serialize_set_id(b),
                report=report, checks=checks, walltime=0.0).line()))
        tr.close(p)
        n += 1
    merge = tr.open("search.merge", root, -1)
    lines.sort()
    blob = "".join(line + "\n" for line in lines).encode()
    digest = hashlib.sha256(blob).hexdigest()
    tr.close(merge)
    tr.close(root)
    cnt.visited += n - first_pair
    cnt.report_bytes += len(blob)
    return digest, n - first_pair


def _fmt_bool(v: bool) -> str:
    return "true" if v else "false"


def _fmt_opt(v) -> str:
    return "none" if v is None else ("holds" if v else "fails")


def format_check(r) -> str:
    """The text ``planesum check`` prints for a report."""
    return (f"tr_a={r.tr_a} tr_b={r.tr_b} tr_ab={r.tr_ab}\n"
            f"b_a={r.b_a} i_a={r.i_a} b_b={r.b_b} i_b={r.i_b} b_ab={r.b_ab} i_ab={r.i_ab}\n"
            f"main={r.main.value}\n"
            f"strong={_fmt_bool(r.strong_holds)} ib={_fmt_bool(r.ib_holds)}\n"
            f"boundary_form={_fmt_opt(r.boundary_form_holds)}\n"
            f"case={r.case.value} extremal={_fmt_opt(r.extremal)}\n")


def replay_pair(key, tr: Tracer, cnt: Counters, n: int) -> Tuple[str, str]:
    """Replay ``check A B`` and ``oracle S`` for one pair; returns both texts."""
    _, a_path, b_path, s_path = key
    c = tr.open("cli.check", -1, n)
    a = tr.call("ptsfile.load", c, n, load_point_set, a_path)
    b = tr.call("ptsfile.load", c, n, load_point_set, b_path)
    cnt.decomp_lookups += 2  # the CLI has no decomposition cache
    da = tr.call("geometry.classify_summand", c, n, classify_points, a)
    db = tr.call("geometry.classify_summand", c, n, classify_points, b)
    s = tr.call("sumset.minkowski_sum", c, n, minkowski_sum, a, b)
    cnt.sums += 1
    cnt.sum_points += len(s)
    dab = tr.call("geometry.classify_sum", c, n, classify_points, s)
    report = tr.call("conjecture.check_pair", c, n, check_pair, a, b, da, db, dab)
    check_text = format_check(report)
    tr.close(c)

    o = tr.open("cli.oracle", -1, n)
    s = tr.call("ptsfile.load", o, n, load_point_set, s_path)
    euler = tr_euler(tr.call("geometry.classify_sum", o, n, classify_points, s))
    explicit = len(tr.call("triangulation.explicit", o, n, triangulate_explicit, s).triangles)
    status = "OK" if euler == explicit else "MISMATCH"
    oracle_text = f"euler={euler} explicit={explicit} {status}\n"
    tr.close(o)
    cnt.visited += 1
    cnt.passed += 1
    return check_text, oracle_text


def layer_metrics(tr: Tracer, cnt: Counters, program_s: float, replay_s: float,
                  workers: int, cli_dispatches: Sequence[float]) -> Dict[str, float]:
    """Per-layer numbers from the spans and counters of one traced run.

    Sweep figures (``enumerate_s``, ``report_bytes``, ``residual_s``) are per
    ``run_search`` call. ``search.residual_s`` and ``cli.dispatch_us`` are
    derived: the program's wall time minus the replayed layer time on its
    critical path. A sweep worker repeats the whole pair stream but only its
    share of the per-pair work, so per-pair spans count ``1 / workers``.
    """
    t = tr.totals()

    def count(name: str) -> int:
        return t.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return t.get(name, (0, 0.0, 0.0))[1]

    def children(name: str) -> float:
        _, d, s = t.get(name, (0, 0.0, 0.0))
        return d - s

    def ratio(x: float, n: float) -> float:
        return x / n if n else 0.0

    def mean_us(name: str) -> float:
        return 1e6 * ratio(total(name), count(name))

    m: Dict[str, float] = {
        "geometry.classify_sum_us": mean_us("geometry.classify_sum"),
        "geometry.classify_summand_us": mean_us("geometry.classify_summand"),
        "sumset.minkowski_sum_us": mean_us("sumset.minkowski_sum"),
        "sumset.sum_points_mean": ratio(cnt.sum_points, cnt.sums),
        "conjecture.check_pair_us": mean_us("conjecture.check_pair"),
    }
    for name in CHECK_NAMES:
        m[f"conjecture.{name}_us"] = mean_us(f"conjecture.{name}")
        m[f"conjecture.{name}.calls"] = cnt.calls[name]
        m[f"conjecture.{name}.skips"] = cnt.skips[name]
    runs = count("search.run")
    sweep_layers = (total("search.enumerate") + total("search.draw")
                    + children("search.pair") / workers)
    m.update({
        "search.enumerate_s": ratio(total("search.enumerate"), runs),
        "search.draw_us": mean_us("search.draw"),
        "search.decomp_hit_ratio": ratio(cnt.decomp_hits, cnt.decomp_lookups),
        "search.filter_pass_ratio": ratio(cnt.passed, cnt.visited),
        "search.record_us": mean_us("search.record"),
        "search.report_bytes": ratio(cnt.report_bytes, runs),
        "search.residual_s": ratio(program_s - sweep_layers, runs),
        "ptsfile.load_us": mean_us("ptsfile.load"),
        "triangulation.explicit_us": mean_us("triangulation.explicit"),
        "cli.dispatch_us": 1e6 * ratio(sum(cli_dispatches) - children("cli.check")
                                       - children("cli.oracle"), len(cli_dispatches)),
    })
    m["trace.overhead_ratio"] = replay_s / program_s
    return m
