"""Command-line interface.

Subcommands:

* ``check A.pts B.pts``: full report for one pair.
* ``oracle S.pts``: triangle count by formula vs. explicit construction.
* ``classify A.pts B.pts``: structural case of a pair.
* ``search``: grid sweep; exits 1 if any counterexample or failed check.
* ``family``: dilation pair of a lattice polygon, expected Equality.
* ``report summarize FILE``: aggregate a sweep report.

A call that names a subcommand builds only that subcommand's parser, from
the same table that ``build_parser`` builds the whole tree from, so help and
error text are unchanged; no command, ``--help``, an unknown command and
leftover arguments are parsed by the whole tree.

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

from .conjecture import Pair, Verdict, check_pair, equality_family
from .errors import ParseError, PlanesumError
from .geometry import classify_points
from .ptsfile import load_point_set
from .search import (
    CHECK_NAMES,
    FILTER_NAMES,
    SYMMETRIES,
    SearchConfig,
    run_search,
    serialize_set_id,
    summarize_lines,
)
from .triangulation import tr_euler, triangulate_explicit


def _cmd_check(args) -> int:
    a = load_point_set(args.a)
    b = load_point_set(args.b)
    report = check_pair(a, b)
    print("\n".join(report.lines()))
    return 1 if report.main is Verdict.FAILS else 0


def _cmd_oracle(args) -> int:
    s = load_point_set(args.points)
    euler = tr_euler(classify_points(s))
    explicit = len(triangulate_explicit(s).triangles)
    status = "OK" if euler == explicit else "MISMATCH"
    print(f"euler={euler} explicit={explicit} {status}")
    return 0 if status == "OK" else 1


def _cmd_classify(args) -> int:
    print(Pair(load_point_set(args.a), load_point_set(args.b)).report().lines()[-1])
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
    print("\n".join(report.lines()))
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


def _pair_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("a", help="first .pts file")
    p.add_argument("b", help="second .pts file")


def _oracle_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("points", help=".pts file")


def _search_arguments(p: argparse.ArgumentParser) -> None:
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


def _family_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--polygon", required=True, help=".pts file of vertices")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)


def _report_arguments(p: argparse.ArgumentParser) -> None:
    rsub = p.add_subparsers(dest="subcommand", required=True)
    rp = rsub.add_parser("summarize", help="aggregate a report file")
    rp.add_argument("file")


# Each subcommand once: name, help line, arguments, handler. build_parser
# makes the full tree of them; a call that names one builds that one alone.
_COMMANDS = (
    ("check", "full report for a pair of point sets", _pair_arguments, _cmd_check),
    ("oracle", "triangle count: formula vs construction", _oracle_arguments, _cmd_oracle),
    ("classify", "structural case of a pair", _pair_arguments, _cmd_classify),
    ("search", "sweep grid subsets for counterexamples", _search_arguments, _cmd_search),
    ("family", "dilation pair of a lattice polygon", _family_arguments, _cmd_family),
    ("report", "operations on report files", _report_arguments, _cmd_report),
)


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree: it parses an empty command line, ``--help``
    and an unknown command."""
    parser = argparse.ArgumentParser(
        prog="planesum",
        description="Exact planar sumset geometry and conjecture checking",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, add_arguments, fn in _COMMANDS:
        p = sub.add_parser(name, help=help_line)
        add_arguments(p)
        p.set_defaults(fn=fn)
    return parser


def _parse(argv: List[str]) -> argparse.Namespace:
    """Parse argv with the parser of the subcommand that argv[0] names, built
    alone as the tree's subparser is, so it prints the same usage, help and
    errors. Arguments left over are reported by the top-level parser of the
    tree, so that case, and any argv that names no subcommand, goes to it."""
    for name, _, add_arguments, fn in _COMMANDS:
        if argv and argv[0] == name:
            p = argparse.ArgumentParser(prog=f"planesum {name}")
            add_arguments(p)
            p.set_defaults(fn=fn)
            args, extra = p.parse_known_args(argv[1:])
            if not extra:
                return args
            break
    return build_parser().parse_args(argv)


def cli_dispatch(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    # before PlanesumError: a ParseError is one, and prints without its class
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PlanesumError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
