import json
import os
import subprocess
import sys

import pytest

import planesum.cli as cli_mod
from planesum import PointSet, SearchConfig, save_point_set
from planesum.cli import build_parser, cli_dispatch
from planesum.search import run_shard

TRI = PointSet([(0, 0), (1, 0), (0, 1)])
TRI_DOUBLE = PointSet([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)])
SIMPLEX3 = PointSet([(x, y) for x in range(4) for y in range(4) if x + y <= 3])
FAR_TRI = PointSet([(0, 0), (10, 0), (0, 10)])
PLUS_SQUARE = PointSet([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])


@pytest.fixture
def pts(tmp_path):
    def write(name, s):
        path = tmp_path / name
        save_point_set(s, str(path))
        return str(path)

    return write


class TestCheck:
    def test_triangle_pair(self, pts, capsys):
        code = cli_dispatch(["check", pts("a.pts", TRI), pts("b.pts", TRI)])
        out = capsys.readouterr().out
        assert code == 0
        assert "tr_a=1 tr_b=1 tr_ab=4" in out
        assert "main=Equality" in out
        assert "boundary_form=holds" in out

    def test_extremal_pair(self, pts, capsys):
        code = cli_dispatch(["check", pts("a.pts", TRI), pts("b.pts", TRI_DOUBLE)])
        out = capsys.readouterr().out
        assert code == 0
        assert "main=Equality" in out
        assert "boundary_form=fails" in out
        assert "extremal=holds" in out

    def test_golden_stdout(self, pts, capsys):
        code = cli_dispatch(["check", pts("a.pts", TRI), pts("b.pts", TRI_DOUBLE)])
        assert code == 0
        assert capsys.readouterr().out == (
            "tr_a=1 tr_b=4 tr_ab=9\n"
            "b_a=3 i_a=0 b_b=6 i_b=0 b_ab=9 i_ab=1\n"
            "main=Equality\n"
            "strong=false ib=false\n"
            "boundary_form=fails\n"
            "case=BoundaryOnly extremal=holds\n"
        )

    def test_far_apart_sum_is_split_from_its_sums(self, pts):
        # A + B is kept as a set, with about 10^20 lattice points on its
        # hull: its split must cost the 9 sums, so a walk of the hull would
        # run into the timeout
        far = PointSet([(0, 0), (10**20, 0), (0, 1)])
        out = subprocess.run(
            [sys.executable, "-m", "planesum.cli", "check", pts("a.pts", TRI), pts("b.pts", far)],
            env=_package_env(), check=True, capture_output=True, text=True, timeout=10).stdout
        lines = out.splitlines()
        assert "b_a=3 i_a=0 b_b=3 i_b=0 b_ab=7 i_ab=1" in lines
        assert {"main=StrictHolds", "case=BoundaryOnly extremal=none"} <= set(lines)

    def test_missing_file(self, capsys):
        code = cli_dispatch(["check", "/nonexistent/a.pts", "/nonexistent/b.pts"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.pts"
        bad.write_text("1 2\nnope\n")
        code = cli_dispatch(["check", str(bad), str(bad)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_collinear_input(self, pts, capsys):
        flat = PointSet([(0, 0), (1, 0), (2, 0)])
        code = cli_dispatch(["check", pts("flat.pts", flat), pts("b.pts", TRI)])
        assert code == 2
        assert "CollinearInput" in capsys.readouterr().err


class TestOracle:
    def test_simplex(self, pts, capsys):
        code = cli_dispatch(["oracle", pts("s.pts", SIMPLEX3)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "euler=9 explicit=9 OK"


class TestClassify:
    def test_boundary_only(self, pts, capsys):
        code = cli_dispatch(["classify", pts("a.pts", TRI), pts("b.pts", TRI_DOUBLE)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "case=BoundaryOnly extremal=holds"

    @pytest.mark.parametrize("a, b, expected", [
        (TRI, FAR_TRI, "case=UniqueRepresentation extremal=none"),
        (PLUS_SQUARE, PLUS_SQUARE, "case=OneInteriorEach extremal=none"),
        (TRI, TRI, "case=BoundaryOnly extremal=none"),
        (TRI, PLUS_SQUARE, "case=General extremal=none"),
    ])
    def test_each_case_as_check_reports_it(self, pts, capsys, monkeypatch, a, b, expected):
        args = [pts("a.pts", a), pts("b.pts", b)]
        assert cli_dispatch(["check", *args]) == 0
        check_line = capsys.readouterr().out.splitlines()[-1]
        monkeypatch.setattr(cli_mod, "check_pair", None)  # classify builds its own Pair
        assert cli_dispatch(["classify", *args]) == 0
        assert capsys.readouterr().out.strip() == expected == check_line


class TestSearch:
    def test_tiny_sweep(self, tmp_path, capsys):
        report = tmp_path / "out.txt"
        code = cli_dispatch([
            "search", "--grid", "2x2",
            "--check", "freiman,sum_boundary", "--check", "arcs",
            "--report", str(report),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "pairs=15" in out
        assert "Fails=0" in out
        assert "check_failures=0" in out
        assert report.exists()

    def test_env_overrides_workers(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PLANESUM_WORKERS", "2")
        report = tmp_path / "out.txt"
        code = cli_dispatch(["search", "--grid", "2x2", "--report", str(report)])
        assert code == 0
        assert "pairs=15" in capsys.readouterr().out

    def test_env_must_be_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PLANESUM_WORKERS", "many")
        code = cli_dispatch(["search", "--grid", "2x2",
                             "--report", str(tmp_path / "out.txt")])
        assert code == 2
        assert "PLANESUM_WORKERS" in capsys.readouterr().err

    def test_bad_grid_syntax(self, capsys):
        code = cli_dispatch(["search", "--grid", "3by3"])
        assert code == 2

    def test_grid_cap_enforced(self, tmp_path, capsys):
        code = cli_dispatch(["search", "--grid", "6x6",
                             "--report", str(tmp_path / "out.txt")])
        assert code == 2
        assert "CapExceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [[], ["--mode", "random", "--count", "3"]])
    def test_min_pts_above_cell_count(self, tmp_path, capsys, mode):
        # both modes used to open a shard file, then fail inside the sweep
        code = cli_dispatch(["search", "--grid", "2x2", "--min-pts", "5",
                             "--report", str(tmp_path / "r.txt"), *mode])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: min_pts must be at most the 2x2 grid's 4 cells\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("payload", ["[]", "null"])
    def test_checkpoint_not_an_object(self, tmp_path, capsys, payload):
        # valid JSON but no checkpoint: an input error, never the exit 1 of a
        # counterexample
        report = tmp_path / "out.txt"
        state = tmp_path / "out.txt.ckpt.shard000.json"
        state.write_text(payload)
        code = cli_dispatch(["search", "--grid", "2x2", "--report", str(report)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: ResumeMismatch: checkpoint {state} is not a JSON object\n"
        assert not report.exists()

    @pytest.mark.parametrize("tamper", [
        lambda state: state.pop("tally"),
        lambda state: state.update(tally=list(state["tally"].values())),
        lambda state: state.update(visited=str(state["visited"])),
    ], ids=["missing-tally", "tally-as-list", "visited-as-string"])
    def test_checkpoint_with_malformed_fields(self, tmp_path, capsys, tamper):
        # a complete shard of this very configuration, its records beside it,
        # whose state lost a field or holds one of the wrong type: exit 2
        # naming the file, never the exit 1 of a counterexample
        report = tmp_path / "out.txt"
        cfg = SearchConfig(grid_w=2, grid_h=2, report_path=str(report)).normalized()
        run_shard(cfg, 0)
        state_path = tmp_path / "out.txt.ckpt.shard000.json"
        state = json.loads(state_path.read_text())
        assert state["complete"]
        tamper(state)
        state_path.write_text(json.dumps(state))
        code = cli_dispatch(["search", "--grid", "2x2", "--report", str(report)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: ResumeMismatch: checkpoint {state_path} "
                       "has missing or malformed fields\n")
        assert not report.exists()

    @pytest.mark.parametrize("check", ["vibes", "main"])
    def test_unknown_check_rejected(self, tmp_path, capsys, check):
        code = cli_dispatch(["search", "--grid", "2x2", "--check", check,
                             "--report", str(tmp_path / "out.txt")])
        assert code == 2
        assert "unknown check" in capsys.readouterr().err


class TestDirectoryPaths:
    """A directory where a file is expected is an input error, exit 2."""

    def test_search_report_is_directory(self, tmp_path, capsys):
        report = tmp_path / "out"
        report.mkdir()
        code = cli_dispatch(["search", "--grid", "2x2", "--report", str(report)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "is a directory" in captured.err
        assert captured.out == ""
        # rejected before any shard file or temp report is written
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert not list(report.iterdir())

    @pytest.mark.parametrize("parent, reason", [("missing", "does not exist"),
                                                ("plain.txt", "is not a directory")])
    def test_search_report_parent_not_a_directory(self, tmp_path, capsys, parent, reason):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (tmp_path / "plain.txt").write_text("")
        code = cli_dispatch(["search", "--grid", "2x2",
                             "--report", str(tmp_path / parent / "r.txt"),
                             "--checkpoint", str(ckpt / "c")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert reason in captured.err
        assert captured.out == ""
        # rejected before the sweep: no shard file in the checkpoint directory
        assert not list(ckpt.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt", "plain.txt"]

    def test_check_input_is_directory(self, tmp_path, pts, capsys):
        code = cli_dispatch(["check", str(tmp_path), pts("b.pts", TRI)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_summarize_input_is_directory(self, tmp_path, capsys):
        code = cli_dispatch(["report", "summarize", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.out == ""


class TestFamily:
    def test_square_family(self, pts, capsys):
        square = PointSet([(0, 0), (1, 0), (0, 1), (1, 1)])
        code = cli_dispatch(["family", "--polygon", pts("p.pts", square),
                             "--k", "1", "--m", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tr_a=2 tr_b=18 tr_ab=32" in out
        assert "main=Equality" in out

    def test_golden_stdout(self, pts, capsys):
        square = PointSet([(0, 0), (1, 0), (0, 1), (1, 1)])
        code = cli_dispatch(["family", "--polygon", pts("p.pts", square),
                             "--k", "1", "--m", "3"])
        assert code == 0
        assert capsys.readouterr().out == (
            "a=0,0;0,1;1,0;1,1\n"
            "b=0,0;0,1;0,2;0,3;1,0;1,1;1,2;1,3;2,0;2,1;2,2;2,3;3,0;3,1;3,2;3,3\n"
            "tr_a=2 tr_b=18 tr_ab=32\n"
            "b_a=4 i_a=0 b_b=12 i_b=4 b_ab=16 i_ab=9\n"
            "main=Equality\n"
            "strong=false ib=false\n"
            "boundary_form=none\n"
            "case=General extremal=none\n"
        )

    def test_degenerate_polygon(self, pts, capsys):
        flat = PointSet([(0, 0), (1, 1), (2, 2)])
        code = cli_dispatch(["family", "--polygon", pts("p.pts", flat),
                             "--k", "1", "--m", "2"])
        assert code == 2
        assert "DegeneratePolygon" in capsys.readouterr().err


class TestReportSummarize:
    def test_aggregates_and_flags(self, tmp_path, capsys):
        report = tmp_path / "r.txt"
        report.write_text(
            "a=p b=q main=StrictHolds case=General freiman=true\n"
            "a=p b=r main=Fails case=BoundaryOnly freiman=true\n"
            "a=q b=r main=Equality case=General freiman=false\n"
        )
        code = cli_dispatch(["report", "summarize", str(report)])
        out = capsys.readouterr().out
        assert code == 1
        assert "pairs=3" in out
        assert "Equality=1 Fails=1 StrictHolds=1" in out
        assert "BoundaryOnly=1 General=2" in out
        assert "check_failures=1" in out
        assert out.count("ATTENTION") == 2

    def test_clean_report_exits_zero(self, tmp_path, capsys):
        report = tmp_path / "r.txt"
        report.write_text("a=p b=q main=Equality case=General freiman=true\n")
        code = cli_dispatch(["report", "summarize", str(report)])
        assert code == 0
        assert "pairs=1" in capsys.readouterr().out

    @pytest.mark.parametrize("line", [
        "a=p b=q case=General freiman=true",  # no main=, once a KeyError and exit 1
        "a=p b=q main=Maybe case=General",
        "a=p b=q main=Equality case=General oops",
    ])
    def test_malformed_line_exits_two(self, tmp_path, capsys, line):
        report = tmp_path / "r.txt"
        report.write_text("a=p b=q main=Equality case=General freiman=true\n" + line + "\n")
        code = cli_dispatch(["report", "summarize", str(report)])
        captured = capsys.readouterr()
        assert code == 2
        assert "line 2" in captured.err
        assert captured.out == ""

    def test_sweep_report_feeds_summarizer(self, tmp_path, capsys):
        report = tmp_path / "sweep.txt"
        code = cli_dispatch(["search", "--grid", "2x2", "--check", "freiman",
                             "--report", str(report)])
        assert code == 0
        capsys.readouterr()
        code = cli_dispatch(["report", "summarize", str(report)])
        out = capsys.readouterr().out
        assert code == 0
        assert "pairs=15" in out


class TestUsage:
    def test_no_command(self, capsys):
        assert cli_dispatch([]) == 2

    def test_unknown_command(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 2

    def test_argv_defaults_to_sys_argv(self, pts, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["planesum", "oracle", pts("s.pts", SIMPLEX3)])
        assert cli_dispatch() == 0
        assert capsys.readouterr().out.strip() == "euler=9 explicit=9 OK"

    def test_named_command_does_not_build_the_tree(self, pts, capsys, monkeypatch):
        def no_tree():
            raise AssertionError("built the whole parser tree")

        monkeypatch.setattr(cli_mod, "build_parser", no_tree)
        assert cli_dispatch(["check", pts("a.pts", TRI), pts("b.pts", TRI)]) == 0
        assert cli_dispatch(["oracle", pts("s.pts", SIMPLEX3)]) == 0


def _pair_cases(name, nargs):
    files = ["a.pts", "b.pts"][:nargs]
    return [[name, "--help"], [name] + files[:-1], [name] + files + ["extra.pts"],
            [name] + files + ["--bogus"], [name, "--bogus"] + files]


# command lines that end in usage, help or an error, never in a command
USAGE_CASES = (
    [[], ["-h"], ["--help"], ["frobnicate"], ["-h", "check"], ["--bogus", "check"]]
    + _pair_cases("check", 2) + _pair_cases("classify", 2) + _pair_cases("oracle", 1)
    + [
        ["search", "--help"], ["search"], ["search", "--grid", "2x2", "stray"],
        ["search", "--grid", "2x2", "--bogus"], ["search", "--grid", "3by3"],
        ["search", "--grid", "2x2", "--mode", "bogus"],
        ["search", "--grid", "2x2", "--seed", "x"],
        ["search", "--grid", "2x2", "--symmetry", "bogus"],
        ["family", "--help"], ["family", "--k", "1", "--m", "1"],
        ["family", "--polygon", "p.pts", "--k", "1", "--m", "1", "stray"],
        ["family", "--polygon", "p.pts", "--k", "1", "--m", "1", "--bogus"],
        ["family", "--polygon", "p.pts", "--k", "x", "--m", "1"],
        ["report"], ["report", "--help"], ["report", "summarize"],
        ["report", "summarize", "--help"], ["report", "bogus"],
        ["report", "summarize", "r.txt", "extra.txt"],
        ["report", "summarize", "r.txt", "--bogus"],
    ]
)


class TestParserDifferential:
    """A call parses with the named subcommand's parser alone; it prints what
    the whole tree of ``build_parser`` prints, and exits with its code."""

    @pytest.mark.parametrize("argv", USAGE_CASES, ids=" ".join)
    def test_same_output_as_the_whole_tree(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        code = exc.value.code if isinstance(exc.value.code, int) else 2
        expected = capsys.readouterr()
        assert cli_dispatch(argv) == code
        assert capsys.readouterr() == expected

    def test_every_subcommand_covered(self):
        covered = {argv[0] for argv in USAGE_CASES if argv}
        assert {name for name, *_ in cli_mod._COMMANDS} <= covered


def _package_env():
    """The environment with the tested package's source first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli_mod.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_import_loads_no_process_pool():
    # only search with more than one worker starts a pool, so only it pays
    # for importing multiprocessing
    code = ("import sys, planesum.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=_package_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
