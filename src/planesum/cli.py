"""Command-line interface.

Subcommands:

* ``check A.pts B.pts``: full report for one pair.
* ``oracle S.pts``: triangle count by formula vs. explicit construction.
* ``classify A.pts B.pts``: structural case of a pair.
* ``search``: grid sweep; exits 1 if any counterexample or failed check.
* ``family``: dilation pair of a lattice polygon, expected Equality.
* ``report summarize FILE``: aggregate a sweep report.

Exit codes: 0 success, 1 a check failed or a counterexample was found,
2 usage or input errors, a path that cannot be read or written among them.
PLANESUM_WORKERS overrides ``search --workers``.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import List, Optional, Sequence

from .conjecture import ConjectureReport, Pair, Verdict, check_pair, equality_family
from .errors import ParseError, PlanesumError
from .geometry import classify_points
from .ptsfile import load_point_set
from .search import (
    CHECK_NAMES,
    FILTER_NAMES,
    SYMMETRIES,
    SearchConfig,
    _fmt_bool,
    _fmt_opt,
    run_search,
    serialize_set_id,
    summarize_lines,
)
from .triangulation import tr_euler, triangulate_explicit


def _print_report(r: ConjectureReport) -> None:
    print(f"tr_a={r.tr_a} tr_b={r.tr_b} tr_ab={r.tr_ab}")
    print(f"b_a={r.b_a} i_a={r.i_a} b_b={r.b_b} i_b={r.i_b} b_ab={r.b_ab} i_ab={r.i_ab}")
    print(f"main={r.main.value}")
    print(f"strong={_fmt_bool(r.strong_holds)} ib={_fmt_bool(r.ib_holds)}")
    print(f"boundary_form={_fmt_opt(r.boundary_form_holds)}")
    print(f"case={r.case.value} extremal={_fmt_opt(r.extremal)}")


def _cmd_check(args) -> int:
    a = load_point_set(args.a)
    b = load_point_set(args.b)
    report = check_pair(a, b)
    _print_report(report)
    return 1 if report.main is Verdict.FAILS else 0


def _cmd_oracle(args) -> int:
    s = load_point_set(args.points)
    euler = tr_euler(classify_points(s))
    explicit = len(triangulate_explicit(s).triangles)
    status = "OK" if euler == explicit else "MISMATCH"
    print(f"euler={euler} explicit={explicit} {status}")
    return 0 if status == "OK" else 1


def _cmd_classify(args) -> int:
    p = Pair(load_point_set(args.a), load_point_set(args.b))
    print(f"case={p.case.value} extremal={_fmt_opt(p.extremal)}")
    return 0


def _parse_grid(text: str) -> tuple:
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected WxH, got {text!r}")
    return int(m.group(1)), int(m.group(2))


def _split_multi(values: Optional[List[str]]) -> tuple:
    out = []
    for v in values or []:
        out.extend(x for x in v.split(",") if x)
    return tuple(out)


def _cmd_search(args) -> int:
    workers = args.workers
    env = os.environ.get("PLANESUM_WORKERS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            print(f"PLANESUM_WORKERS={env!r} is not an integer", file=sys.stderr)
            return 2
    grid_w, grid_h = args.grid
    cfg = SearchConfig(
        grid_w=grid_w,
        grid_h=grid_h,
        min_pts=args.min_pts,
        max_pts=args.max_pts,
        mode=args.mode,
        seed=args.seed,
        count=args.count,
        filters=_split_multi(args.filter),
        checks=_split_multi(args.check),
        workers=workers,
        symmetry=args.symmetry,
        report_path=args.report,
        checkpoint_path=args.checkpoint,
    )
    summary = run_search(cfg)
    counts = " ".join(f"{k}={v}" for k, v in sorted(summary.verdicts.items()))
    print(f"pairs={summary.pairs} {counts} check_failures={len(summary.check_failures)}")
    print(f"report={summary.report_path} elapsed={summary.elapsed:.2f}s")
    for line in summary.fails:
        print(f"COUNTEREXAMPLE {line}")
    for line in summary.check_failures:
        print(f"CHECK-FAILURE {line}")
    return 0 if summary.clean else 1


def _cmd_family(args) -> int:
    polygon = load_point_set(args.polygon)
    a, b, report = equality_family(polygon, args.k, args.m)
    print(f"a={serialize_set_id(a)}")
    print(f"b={serialize_set_id(b)}")
    _print_report(report)
    return 0 if report.main is Verdict.EQUALITY else 1


def _cmd_report(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    tally = summarize_lines(lines)
    print(f"pairs={len(lines)}")
    print(" ".join(f"{k}={v}" for k, v in sorted(tally.verdicts.items())))
    print(" ".join(f"{k}={v}" for k, v in sorted(tally.cases.items())))
    print(f"check_failures={len(tally.check_failures)}")
    for line in tally.flagged:
        print(f"ATTENTION {line}")
    return 1 if tally.flagged else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planesum",
        description="Exact planar sumset geometry and conjecture checking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="full report for a pair of point sets")
    p.add_argument("a", help="first .pts file")
    p.add_argument("b", help="second .pts file")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("oracle", help="triangle count: formula vs construction")
    p.add_argument("points", help=".pts file")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("classify", help="structural case of a pair")
    p.add_argument("a", help="first .pts file")
    p.add_argument("b", help="second .pts file")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("search", help="sweep grid subsets for counterexamples")
    p.add_argument("--grid", type=_parse_grid, required=True, metavar="WxH")
    p.add_argument("--min-pts", type=int, default=3, dest="min_pts")
    p.add_argument("--max-pts", type=int, default=None, dest="max_pts")
    p.add_argument("--mode", choices=["exhaustive", "random"], default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=0,
                   help="pairs to draw in random mode")
    p.add_argument("--filter", action="append", metavar="|".join(FILTER_NAMES))
    p.add_argument("--check", action="append", metavar="|".join(CHECK_NAMES))
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--symmetry", choices=SYMMETRIES, default="translation")
    p.add_argument("--report", default="planesum-report.txt")
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("family", help="dilation pair of a lattice polygon")
    p.add_argument("--polygon", required=True, help=".pts file of vertices")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("report", help="operations on report files")
    rsub = p.add_subparsers(dest="subcommand", required=True)
    rp = rsub.add_parser("summarize", help="aggregate a report file")
    rp.add_argument("file")
    rp.set_defaults(fn=_cmd_report)

    return parser


def cli_dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PlanesumError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
