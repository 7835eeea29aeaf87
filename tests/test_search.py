import concurrent.futures
import hashlib
import itertools
import json
import os
import random
from collections import Counter
from concurrent.futures import Future
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_sets import is_lattice_saturated, unique_representation
import planesum.conjecture as conjecture_mod
import planesum.search as search_mod
from planesum import (
    CapExceeded,
    ParseError,
    PointSet,
    ResumeMismatch,
    SearchConfig,
    SearchRecord,
    Verdict,
    check_pair,
    classify_points,
    enumerate_point_sets,
    random_point_set,
    random_saturated_set,
    run_search,
    separated_pair,
)
from planesum.search import run_shard, serialize_set_id
from planesum.sumset import canonical_translate

TRI = PointSet([(0, 0), (1, 0), (0, 1)])

# the eight lattice symmetries, written out apart from the module under test
SYMMETRY_MAPS = (
    lambda x, y: (x, y),
    lambda x, y: (-x, y),
    lambda x, y: (x, -y),
    lambda x, y: (-x, -y),
    lambda x, y: (y, x),
    lambda x, y: (-y, x),
    lambda x, y: (y, -x),
    lambda x, y: (-y, -x),
)


def _reference_canonical(points, symmetry: str) -> PointSet:
    """A set's canonical form built from ``PointSet``s: ``canonical_translate``
    of the set, or the least ``canonical_translate`` of its eight images."""
    base = canonical_translate(PointSet(points))
    if symmetry == "translation":
        return base
    return min(canonical_translate(PointSet(f(p.x, p.y) for p in base))
               for f in SYMMETRY_MAPS)


def _reference_enumeration(grid_w, grid_h, min_pts, max_pts, symmetry):
    """``enumerate_point_sets`` rebuilt from ``_reference_canonical``: first
    encounters over ascending sizes and lexicographic combinations."""
    grid = [(x, y) for x in range(grid_w) for y in range(grid_h)]
    seen = set()
    for size in range(min_pts, min(max_pts, len(grid)) + 1):
        for combo in itertools.combinations(grid, size):
            (x0, y0), (x1, y1) = combo[0], combo[1]
            if all((x1 - x0) * (y - y0) == (y1 - y0) * (x - x0) for x, y in combo[2:]):
                continue
            canon = _reference_canonical(combo, symmetry)
            if canon not in seen:
                seen.add(canon)
                yield canon


near = st.integers(min_value=-4, max_value=4)


class TestEnumeration:
    def test_two_by_two_classes(self):
        got = list(enumerate_point_sets(2, 2, 3, 4))
        assert got == [
            PointSet([(0, 0), (0, 1), (1, 0)]),
            PointSet([(0, 0), (0, 1), (1, 1)]),
            PointSet([(0, 0), (1, 0), (1, 1)]),
            PointSet([(0, 0), (1, -1), (1, 0)]),
            PointSet([(0, 0), (0, 1), (1, 0), (1, 1)]),
        ]

    def test_canonical_form_may_leave_the_grid(self):
        # the class of {(0,1),(1,0),(1,1)} canonicalizes to a set with y = -1
        got = list(enumerate_point_sets(2, 2, 3, 4))
        assert PointSet([(0, 0), (1, -1), (1, 0)]) in got

    def test_three_by_three_count_matches_brute_force(self):
        got = list(enumerate_point_sets(3, 3, 3, 9))
        grid = [(x, y) for x in range(3) for y in range(3)]
        classes = set()
        total_subsets = 0
        for size in range(3, 10):
            for combo in itertools.combinations(grid, size):
                try:
                    classify_points(combo)
                except Exception:
                    continue
                total_subsets += 1
                classes.add(canonical_translate(PointSet(combo)))
        assert total_subsets == 458
        assert len(classes) == len(got) == 383
        assert classes == set(got)

    def test_collinear_only_grid_is_empty(self):
        assert list(enumerate_point_sets(3, 1, 3, 3)) == []

    def test_dihedral_symmetry_collapses_classes(self):
        got = list(enumerate_point_sets(2, 2, 3, 4, symmetry="dihedral"))
        assert len(got) == 2  # one triangle class, one full-square class

    def test_size_bounds_respected(self):
        got = list(enumerate_point_sets(3, 3, 4, 4))
        assert all(len(s) == 4 for s in got)

    def test_max_pts_none_reads_as_every_cell(self):
        # as SearchConfig.normalized reads it
        assert list(enumerate_point_sets(3, 3, 3, None)) == list(enumerate_point_sets(3, 3, 3, 9))

    def test_min_pts_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_point_sets(3, 3, 2, 4))

    def test_cell_cap(self):
        with pytest.raises(CapExceeded):
            list(enumerate_point_sets(6, 5, 3, 4))

    @pytest.mark.parametrize("symmetry", search_mod.SYMMETRIES)
    @pytest.mark.parametrize("grid_w,grid_h,max_pts", [(2, 2, 4), (3, 3, 9), (4, 4, 6)])
    def test_equals_point_set_reference_in_order(self, grid_w, grid_h, max_pts, symmetry):
        got = list(enumerate_point_sets(grid_w, grid_h, 3, max_pts, symmetry))
        assert got == list(_reference_enumeration(grid_w, grid_h, 3, max_pts, symmetry))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(near, near), min_size=1, max_size=10, unique=True),
           st.tuples(near, near), st.sampled_from(SYMMETRY_MAPS),
           st.sampled_from(search_mod.SYMMETRIES))
    def test_canonical_is_a_class_invariant(self, pts, shift, image, symmetry):
        key = search_mod._canonical(pts, symmetry)
        moved = [(x + shift[0], y + shift[1]) for x, y in pts]
        if symmetry == "dihedral":
            moved = [image(x, y) for x, y in moved]
        assert search_mod._canonical(moved, symmetry) == key
        assert search_mod._canonical(key, symmetry) == key
        assert PointSet(key) == _reference_canonical(pts, symmetry)


class TestRandomGenerators:
    def test_random_point_set_is_valid(self):
        rng = random.Random(7)
        for _ in range(50):
            s = random_point_set(rng, 8, 8, 3, 10)
            assert 3 <= len(s) <= 10
            assert all(0 <= p.x < 8 and 0 <= p.y < 8 for p in s)
            classify_points(s)  # must not raise

    def test_random_saturated_set(self):
        rng = random.Random(11)
        for _ in range(20):
            s = random_saturated_set(rng)
            assert is_lattice_saturated(s)

    @pytest.mark.parametrize("kwargs, message", [
        ({"span": 0}, "span"), ({"span": -3}, "span"),
        ({"corners": 2}, "corners"), ({"corners": 0}, "corners")],
        ids=["span=0", "span=-3", "corners=2", "corners=0"])
    def test_random_saturated_set_rejects_arealess_arguments(self, kwargs, message):
        # no draw of these spans an area, so the loop would never end; the
        # arguments are rejected before the first draw
        class NoDraws(random.Random):
            def randint(self, a, b):
                raise AssertionError("drew before checking the arguments")

        with pytest.raises(ValueError, match=message):
            random_saturated_set(NoDraws(0), **kwargs)

    def test_random_saturated_set_seed_pinned(self):
        # the benchmark's pairs-large set-up draws through this function, so
        # a set and the generator state after it must not move
        rng = random.Random(2)
        s = random_saturated_set(rng, span=4, corners=4)
        assert [tuple(p) for p in s] == [(0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]
        assert rng.randint(0, 10**6) == 222527

    def test_separated_pair_has_unique_representation(self):
        rng = random.Random(3)
        for _ in range(25):
            a, b = separated_pair(rng)
            assert unique_representation(a, b)

    @pytest.mark.parametrize("grid", [(1, 5), (5, 1), (1, 1)])
    def test_one_line_grid_rejected(self, grid):
        # every subset of such a grid is collinear, so the draw loop could
        # never stop; the bounded generator fails the test instead of hanging
        class BoundedRandom(random.Random):
            draws = 0

            def sample(self, population, k):
                self.draws += 1
                if self.draws > 1000:
                    raise AssertionError("draw loop did not stop")
                return super().sample(population, k)

        with pytest.raises(ValueError, match="at least 2"):
            random_point_set(BoundedRandom(0), grid[0], grid[1], 3, 5)

    def test_max_pts_none_reads_as_every_cell(self):
        # the same draws, generator calls included, as an explicit cap of
        # every cell, which is how SearchConfig.normalized reads None
        rng, ref = random.Random(5), random.Random(5)
        for _ in range(50):
            assert random_point_set(rng, 3, 3, 3, None) == random_point_set(ref, 3, 3, 3, 9)
        assert rng.getstate() == ref.getstate()

    def test_seeded_reproducibility(self):
        s1 = random_point_set(random.Random(42), 8, 8, 3, 10)
        s2 = random_point_set(random.Random(42), 8, 8, 3, 10)
        assert s1 == s2


class TestSearchConfig:
    def test_normalized_defaults(self):
        cfg = SearchConfig(grid_w=3, grid_h=3, checks=("sum_boundary", "freiman"),
                           report_path="r.txt").normalized()
        assert cfg.max_pts == 9
        assert cfg.checks == ("freiman", "sum_boundary")  # canonical order
        assert cfg.checkpoint_path == "r.txt.ckpt"

    def test_validate_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            SearchConfig(grid_w=3, grid_h=3, mode="stochastic").validate()

    def test_validate_rejects_bad_filter(self):
        with pytest.raises(ValueError):
            SearchConfig(grid_w=3, grid_h=3, filters=("tiny",)).validate()

    def test_validate_rejects_bad_check(self):
        with pytest.raises(ValueError):
            SearchConfig(grid_w=3, grid_h=3, checks=("vibes",)).validate()

    def test_validate_rejects_random_without_count(self):
        with pytest.raises(ValueError):
            SearchConfig(grid_w=3, grid_h=3, mode="random").validate()

    @pytest.mark.parametrize("mode, count", [("random", 10), ("exhaustive", 0)])
    def test_validate_rejects_one_line_grid(self, mode, count):
        with pytest.raises(ValueError, match="at least 2"):
            SearchConfig(grid_w=1, grid_h=5, mode=mode, count=count).validate()

    def test_validate_rejects_bad_sizes(self):
        # random mode used to raise only once a worker drew its first set
        with pytest.raises(ValueError, match="min_pts"):
            SearchConfig(grid_w=4, grid_h=4, mode="random", count=5, min_pts=2).validate()
        with pytest.raises(ValueError, match="max_pts"):
            SearchConfig(grid_w=4, grid_h=4, mode="random", count=5, min_pts=5,
                         max_pts=4).validate()

    @pytest.mark.parametrize("min_pts, max_pts, match", [(2, 4, "min_pts"),
                                                         (5, 4, "max_pts"),
                                                         (10, 12, "9 cells")])
    def test_entry_points_share_size_checks(self, min_pts, max_pts, match):
        errors = []
        for make in (
            lambda: list(enumerate_point_sets(3, 3, min_pts, max_pts)),
            lambda: random_point_set(random.Random(0), 3, 3, min_pts, max_pts),
            lambda: SearchConfig(grid_w=3, grid_h=3, min_pts=min_pts,
                                 max_pts=max_pts).validate(),
            lambda: SearchConfig(grid_w=3, grid_h=3, mode="random", count=5,
                                 min_pts=min_pts, max_pts=max_pts).validate(),
        ):
            with pytest.raises(ValueError, match=match) as info:
                make()
            errors.append(str(info.value))
        assert len(set(errors)) == 1

    @pytest.mark.parametrize("mode, count", [("exhaustive", 0), ("random", 5)])
    def test_unknown_symmetry_rejected(self, tmp_path, mode, count):
        # any value but "translation" used to run as dihedral
        cfg = SearchConfig(grid_w=3, grid_h=3, mode=mode, count=count, symmetry="bogus",
                           report_path=str(tmp_path / "r.txt"))
        with pytest.raises(ValueError, match="bogus"):
            cfg.validate()
        with pytest.raises(ValueError, match="bogus"):
            run_search(cfg)
        with pytest.raises(ValueError, match="bogus"):
            next(search_mod._pair_stream(cfg.normalized(), 0))
        assert not list(tmp_path.iterdir())

    def test_exhaustive_cap(self):
        with pytest.raises(CapExceeded):
            SearchConfig(grid_w=6, grid_h=6).validate()

    def test_fingerprint_ignores_paths(self):
        c1 = SearchConfig(grid_w=3, grid_h=3, report_path="a.txt").normalized()
        c2 = SearchConfig(grid_w=3, grid_h=3, report_path="b.txt",
                          checkpoint_path="elsewhere.ckpt").normalized()
        assert c1.fingerprint() == c2.fingerprint()

    def test_fingerprint_tracks_workers_and_seed(self):
        base = SearchConfig(grid_w=3, grid_h=3).normalized()
        assert base.fingerprint() != replace(base, workers=4).fingerprint()
        assert base.fingerprint() != replace(base, seed=1).fingerprint()


class TestRecordLine:
    def test_frozen_format(self):
        report = check_pair(TRI, TRI)
        rec = SearchRecord(
            a_id=serialize_set_id(TRI), b_id=serialize_set_id(TRI),
            report=report, checks={"freiman": True, "arcs": None},
            walltime=123.456,
        )
        assert rec.line() == (
            "a=0,0;0,1;1,0 b=0,0;0,1;1,0 "
            "tr_a=1 tr_b=1 tr_ab=4 "
            "b_a=3 i_a=0 b_b=3 i_b=0 b_ab=6 i_ab=0 "
            "main=Equality strong=true ib=true boundary_form=holds "
            "case=BoundaryOnly extremal=none freiman=true arcs=skip"
        )

    def test_walltime_never_leaks_into_lines(self):
        report = check_pair(TRI, TRI)
        rec = SearchRecord(a_id="x", b_id="y", report=report, checks={},
                           walltime=9.87)
        assert "walltime" not in rec.line()
        assert "9.87" not in rec.line()


class TestSummarize:
    def test_counts_fails_and_check_failures(self):
        lines = [
            "a=p b=q main=StrictHolds case=General freiman=true",
            "a=p b=r main=Fails case=General freiman=true",
            "a=q b=r main=Equality case=BoundaryOnly freiman=false arcs=skip",
        ]
        tally = search_mod.summarize_lines(lines)
        assert tally.verdicts == {"StrictHolds": 1, "Equality": 1, "Fails": 1}
        assert tally.cases == {"General": 2, "BoundaryOnly": 1}
        assert tally.fails == [lines[1]]
        assert tally.check_failures == [lines[2]]
        assert tally.flagged == [lines[1], lines[2]]

    @pytest.mark.parametrize("line, column", [
        ("a=p b=q case=General freiman=true", 1),  # no main=
        ("a=p b=q main=Equality freiman=true", 1),  # no case=
        ("a=p b=q main=Maybe case=General", 9),  # unknown verdict
        ("a=p b=q main=Equality case=General stray", 36),  # token without =
    ])
    def test_malformed_line_raises_parse_error(self, line, column):
        with pytest.raises(ParseError) as info:
            search_mod.summarize_lines(["a=p b=q main=Equality case=General", line])
        assert (info.value.line, info.value.column) == (2, column)


STREAM_CONFIGS = {
    "exhaustive-3x3": SearchConfig(grid_w=3, grid_h=3),
    "random-4x4-filtered": SearchConfig(grid_w=4, grid_h=4, mode="random", seed=17,
                                        count=400, max_pts=8,
                                        filters=("boundary-only", "unique-rep")),
}


class TestShardedStream:
    @pytest.mark.parametrize("name", sorted(STREAM_CONFIGS))
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
    def test_shards_partition_the_stream(self, name, workers):
        cfg = STREAM_CONFIGS[name].normalized()
        whole = Counter(search_mod._pair_stream(cfg, 0))
        sharded = replace(cfg, workers=workers)
        parts = [Counter(search_mod._pair_stream(sharded, s)) for s in range(workers)]
        assert sum(parts, Counter()) == whole
        assert all(parts)  # every shard gets work on these streams

    def test_exhaustive_shard_owns_whole_rows(self):
        cfg = replace(STREAM_CONFIGS["exhaustive-3x3"], workers=3).normalized()
        rows = sorted(enumerate_point_sets(3, 3, 3, 9))
        for shard in range(3):
            firsts = {PointSet(a) for a, _ in search_mod._pair_stream(cfg, shard)}
            assert firsts == set(rows[shard::3])

    def test_random_stream_replays_random_point_set(self):
        # the draws must be exactly those of random_point_set, or the
        # recorded report digests of earlier versions would no longer hold;
        # the stream yields each draw as the class key of its two sets
        cfg = replace(STREAM_CONFIGS["random-4x4-filtered"], symmetry="dihedral").normalized()
        rng = random.Random(cfg.seed)
        draws = [tuple(random_point_set(rng, 4, 4, 3, 8) for _ in range(2))
                 for _ in range(cfg.count)]
        stream = list(search_mod._pair_stream(cfg, 0))
        assert len(stream) == len(draws)
        for keys, sets in zip(stream, draws):
            for key, s in zip(keys, sets):
                assert PointSet(key) == canonical_translate(s)
                assert (search_mod._canonical(key, "dihedral")
                        == search_mod._canonical(s, "dihedral"))


class TestRunShard:
    def test_complete_shard_short_circuits(self, tmp_path, monkeypatch):
        cfg = SearchConfig(grid_w=2, grid_h=2, checks=("freiman",),
                           report_path=str(tmp_path / "r.txt")).normalized()
        tally = run_shard(cfg, 0)
        assert tally.records == 15  # 5 classes -> C(5,2) + 5 diagonal pairs

        def boom(*args, **kw):
            raise AssertionError("should not recompute a complete shard")

        monkeypatch.setattr(search_mod, "Pair", boom)
        assert run_shard(cfg, 0) == tally

    def test_resume_mismatch_detected(self, tmp_path):
        cfg = SearchConfig(grid_w=2, grid_h=2,
                           report_path=str(tmp_path / "r.txt")).normalized()
        _, state_path = search_mod._shard_paths(cfg, 0)
        with open(state_path, "w") as fh:
            json.dump({"config": "deadbeef", "visited": 3, "records": 3,
                       "complete": False}, fh)
        with pytest.raises(ResumeMismatch):
            run_shard(cfg, 0)

    def test_hash_sharded_checkpoint_rejected(self, tmp_path):
        # the fingerprint of the scheme that assigned pairs to shards by a
        # sha256 of their ids: its shards hold other pairs than today's
        cfg = SearchConfig(grid_w=2, grid_h=2, workers=2,
                           report_path=str(tmp_path / "r.txt")).normalized()
        payload = {"grid": [2, 2], "pts": [3, 4], "mode": "exhaustive", "seed": 0,
                   "count": 0, "filters": [], "checks": [], "workers": 2,
                   "symmetry": "translation"}
        old = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        records_path, state_path = search_mod._shard_paths(cfg, 0)
        open(records_path, "w").close()
        with open(state_path, "w") as fh:
            json.dump({"config": old, "visited": 7, "records": 7, "complete": True}, fh)
        with pytest.raises(ResumeMismatch):
            run_shard(cfg, 0)
        with pytest.raises(ResumeMismatch):
            run_search(cfg)

    def test_stored_tally_matches_the_shard_lines(self, tmp_path):
        cfg = SearchConfig(grid_w=3, grid_h=3, max_pts=4, workers=2,
                           checks=("interior", "arcs"),
                           report_path=str(tmp_path / "r.txt")).normalized()
        tally = run_shard(cfg, 1)
        records_path, state_path = search_mod._shard_paths(cfg, 1)
        with open(records_path) as fh:
            lines = fh.read().splitlines()
        with open(state_path) as fh:
            state = json.load(fh)
        assert state["complete"] and state["records"] == len(lines) > 0
        assert state["tally"] == asdict(search_mod.summarize_lines(lines)) == asdict(tally)

    def test_second_summand_classified_only_when_first_passes(self, tmp_path, monkeypatch):
        cfg = SearchConfig(grid_w=4, grid_h=4, mode="random", seed=4, count=200,
                           filters=("interior-both",),
                           report_path=str(tmp_path / "r.txt")).normalized()
        classified = set()
        real = search_mod.classify_points

        def spy(s):
            classified.add(PointSet(s))
            return real(s)

        monkeypatch.setattr(search_mod, "classify_points", spy)
        run_shard(cfg, 0)
        needed = set()
        drawn = set()
        for ka, kb in search_mod._pair_stream(cfg, 0):
            a, b = PointSet(ka), PointSet(kb)
            drawn |= {a, b}
            if real(a).i >= 1:
                needed.add(a)
                if real(b).i >= 1:
                    needed.add(b)
        assert classified == needed
        assert len(needed) < len(drawn)

    def test_one_pair_per_evaluated_pair(self, tmp_path, monkeypatch):
        cfg = SearchConfig(grid_w=3, grid_h=3, max_pts=4, checks=search_mod.CHECK_NAMES,
                           report_path=str(tmp_path / "r.txt")).normalized()
        built = []
        real_init = conjecture_mod.Pair.__init__

        def counting_init(self, *args, **kw):
            built.append(1)
            real_init(self, *args, **kw)

        monkeypatch.setattr(conjecture_mod.Pair, "__init__", counting_init)
        tally = run_shard(cfg, 0)
        assert tally.records > 0
        assert len(built) == tally.records

    def _crash_then_resume(self, tmp_path, monkeypatch, ref_cfg, crash_after,
                           checkpoint_every):
        """Run once clean, once with an injected crash, resume, compare bytes."""
        ref_cfg = ref_cfg.normalized()
        ref_tally = run_shard(ref_cfg, 0)
        ref_records, _ = search_mod._shard_paths(ref_cfg, 0)
        with open(ref_records) as fh:
            ref_bytes = fh.read()

        cfg = replace(ref_cfg, report_path=str(tmp_path / "crash.txt"),
                      checkpoint_path=None).normalized()
        monkeypatch.setattr(search_mod, "_CHECKPOINT_EVERY", checkpoint_every)
        # the sum runs once per pair that passes the per-set filters, unlike
        # Pair.report, which runs once per distinct record body
        real = search_mod.sum_decomposition
        calls = {"n": 0}

        def flaky(*args):
            calls["n"] += 1
            if calls["n"] > crash_after:
                raise RuntimeError("injected crash")
            return real(*args)

        monkeypatch.setattr(search_mod, "sum_decomposition", flaky)
        with pytest.raises(RuntimeError):
            run_shard(cfg, 0)

        records_path, state_path = search_mod._shard_paths(cfg, 0)
        with open(state_path) as fh:
            state = json.load(fh)
        assert not state["complete"]
        assert 0 < state["visited"] < cfg.count
        assert state["records"] <= state["visited"]

        monkeypatch.setattr(search_mod, "sum_decomposition", real)
        assert run_shard(cfg, 0) == ref_tally
        with open(records_path) as fh:
            assert fh.read() == ref_bytes
        return state

    def test_crash_and_resume_reproduces_uninterrupted_run(self, tmp_path, monkeypatch):
        ref = SearchConfig(grid_w=4, grid_h=4, mode="random", seed=9, count=120,
                           min_pts=3, max_pts=6, checks=("freiman",),
                           report_path=str(tmp_path / "ref.txt"))
        state = self._crash_then_resume(tmp_path, monkeypatch, ref,
                                        crash_after=30, checkpoint_every=7)
        assert state["records"] == state["visited"]  # no filters drop pairs

    def test_crash_and_resume_with_filters(self, tmp_path, monkeypatch):
        # filters make records lag visited; resume must honor both counters
        ref = SearchConfig(grid_w=4, grid_h=4, mode="random", seed=2, count=150,
                           min_pts=3, max_pts=6, checks=("arcs",),
                           filters=("boundary-only",),
                           report_path=str(tmp_path / "ref.txt"))
        state = self._crash_then_resume(tmp_path, monkeypatch, ref,
                                        crash_after=40, checkpoint_every=7)
        assert state["records"] < state["visited"]


class InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(InlinePool, "created", [])
    # run_search imports the pool class from here when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return InlinePool


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class TestRunSearch:
    def test_exhaustive_two_by_two_all_checks(self, tmp_path):
        cfg = SearchConfig(grid_w=2, grid_h=2, checks=search_mod.CHECK_NAMES,
                           report_path=str(tmp_path / "report.txt"))
        summary = run_search(cfg)
        assert summary.pairs == 15
        assert sum(summary.verdicts.values()) == 15
        assert summary.verdicts["Fails"] == 0
        assert summary.clean
        with open(summary.report_path) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 15
        assert lines == sorted(lines)
        for line in lines:
            assert " main=" in line and " freiman=" in line

    def test_shard_files_cleaned_up(self, tmp_path):
        cfg = SearchConfig(grid_w=2, grid_h=2, workers=2,
                           report_path=str(tmp_path / "report.txt"))
        run_search(cfg)
        leftovers = [p.name for p in tmp_path.iterdir() if "shard" in p.name]
        assert leftovers == []

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        lone = SearchConfig(grid_w=2, grid_h=2, checks=("freiman", "arcs"),
                            report_path=str(tmp_path / "w1.txt"))
        multi = replace(lone, workers=3, report_path=str(tmp_path / "w3.txt"))
        s1 = run_search(lone)
        s3 = run_search(multi)
        with open(s1.report_path, "rb") as fh:
            b1 = fh.read()
        with open(s3.report_path, "rb") as fh:
            b3 = fh.read()
        assert b1 == b3
        assert s1.pairs == s3.pairs == 15

    def test_random_mode_is_seed_deterministic(self, tmp_path):
        base = SearchConfig(grid_w=4, grid_h=4, mode="random", seed=5, count=20,
                            checks=("freiman",),
                            report_path=str(tmp_path / "rand1.txt"))
        again = replace(base, report_path=str(tmp_path / "rand2.txt"))
        s1 = run_search(base)
        s2 = run_search(again)
        assert s1.pairs == s2.pairs == 20
        with open(s1.report_path, "rb") as fh:
            b1 = fh.read()
        with open(s2.report_path, "rb") as fh:
            b2 = fh.read()
        assert b1 == b2

    def test_filters_restrict_records(self, tmp_path):
        cfg = SearchConfig(grid_w=3, grid_h=3, max_pts=4,
                           filters=("interior-both",),
                           report_path=str(tmp_path / "f.txt"))
        summary = run_search(cfg)
        with open(summary.report_path) as fh:
            lines = fh.read().splitlines()
        assert summary.pairs == len(lines)
        for line in lines:
            kv = dict(tok.split("=", 1) for tok in line.split())
            assert int(kv["i_a"]) >= 1 and int(kv["i_b"]) >= 1

    def test_stale_checkpoint_rejected_before_work(self, tmp_path):
        cfg = SearchConfig(grid_w=2, grid_h=2,
                           report_path=str(tmp_path / "r.txt")).normalized()
        _, state_path = search_mod._shard_paths(cfg, 0)
        with open(state_path, "w") as fh:
            json.dump({"config": "stale", "visited": 1, "records": 1,
                       "complete": False}, fh)
        with pytest.raises(ResumeMismatch):
            run_search(cfg)

    def test_stale_shards_of_another_worker_count(self, tmp_path):
        old = SearchConfig(grid_w=3, grid_h=2, workers=4, checks=("freiman",),
                           report_path=str(tmp_path / "r.txt")).normalized()
        for shard in range(4):
            run_shard(old, shard)
        files = sorted(str(p) for p in tmp_path.iterdir())
        assert len(files) == 8  # state and records of shards 0-3, in that order
        new = replace(old, workers=2)
        with pytest.raises(ResumeMismatch) as info:
            run_search(new)
        assert all(path in str(info.value) for path in files)
        # removing only the shards the new run uses is not enough
        for path in files[:4]:
            os.remove(path)
        with pytest.raises(ResumeMismatch) as info:
            run_search(new)
        assert all(path in str(info.value) for path in files[4:])
        for path in files[4:]:
            os.remove(path)
        # a shard killed before its first checkpoint leaves only its records
        with open(files[-1], "w") as fh:
            fh.write("partial line\n")
        summary = run_search(new)
        assert [p.name for p in tmp_path.iterdir()] == ["r.txt"]
        lone = run_search(replace(old, workers=1, checkpoint_path=None,
                                  report_path=str(tmp_path / "w1.txt")))
        assert _read(summary.report_path) == _read(lone.report_path)

    @pytest.mark.parametrize("cpus, workers, pools", [
        ({0, 1}, 5, [2]),  # more shards than CPUs: the pool is capped
        ({0, 1, 2, 3}, 3, [3]),
        ({0}, 4, []),  # one usable CPU: shards run one after another, no pool
    ])
    def test_pool_capped_at_usable_cpus(self, tmp_path, monkeypatch, inline_pool,
                                        cpus, workers, pools):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        lone = SearchConfig(grid_w=2, grid_h=2, checks=("freiman",),
                            report_path=str(tmp_path / "w1.txt"))
        multi = replace(lone, workers=workers, report_path=str(tmp_path / "wn.txt"))
        s1 = run_search(lone)
        assert inline_pool.created == []
        sn = run_search(multi)
        assert inline_pool.created == pools
        assert _read(s1.report_path) == _read(sn.report_path)

    def test_pool_cap_falls_back_to_cpu_count(self, tmp_path, monkeypatch, inline_pool):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        run_search(SearchConfig(grid_w=2, grid_h=2, workers=8,
                                report_path=str(tmp_path / "r.txt")))
        assert inline_pool.created == [3]

    def test_random_report_identical_for_one_and_three_workers(self, tmp_path, inline_pool):
        lone = SearchConfig(grid_w=4, grid_h=4, mode="random", seed=31, count=300,
                            filters=("boundary-only",), checks=("classification", "arcs"),
                            report_path=str(tmp_path / "w1.txt"))
        multi = replace(lone, workers=3, report_path=str(tmp_path / "w3.txt"))
        s1 = run_search(lone)
        s3 = run_search(multi)
        assert s1.pairs == s3.pairs > 0
        assert _read(s1.report_path) == _read(s3.report_path)

    def test_resumed_summary_equals_uninterrupted(self, tmp_path, monkeypatch):
        # two shards, run inline; the first completes before the crash and the
        # second is cut mid-way, so both the stored and the re-tallied prefix
        # of a tally are merged. Some verdicts and checks are forced false so
        # that the fails and check-failure lists are not empty.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(search_mod, "_CHECKPOINT_EVERY", 7)
        real = conjecture_mod.Pair.report

        def forced(pair):
            report = real(pair)
            if (len(pair.a) + len(pair.b)) % 3 == 0:
                report = replace(report, main=Verdict.FAILS)
            return report

        monkeypatch.setattr(conjecture_mod.Pair, "report", forced)
        applies, _ = conjecture_mod.CHECKS["sum_boundary"]
        monkeypatch.setitem(conjecture_mod.CHECKS, "sum_boundary",
                            (applies, lambda pair: len(pair.a) != len(pair.b)))
        ref_cfg = SearchConfig(grid_w=4, grid_h=4, mode="random", seed=8, count=120,
                               max_pts=6, checks=("sum_boundary",), workers=2,
                               report_path=str(tmp_path / "ref.txt"))
        ref = run_search(ref_cfg)
        assert ref.fails and ref.check_failures
        # the shards' tallies add up to what a re-parse of the report gives
        parsed = search_mod.summarize_lines(_read(ref.report_path).decode().splitlines())
        assert (ref.verdicts, ref.fails, ref.check_failures) == (
            parsed.verdicts, parsed.fails, parsed.check_failures)

        # crash at a pair's sum, which every pair needs, not at its report,
        # which runs only for a record body the shard has not seen
        real_sum = search_mod.sum_decomposition
        calls = {"n": 0}

        def crashing(*args):
            calls["n"] += 1
            if calls["n"] > 80:
                raise RuntimeError("injected crash")
            return real_sum(*args)

        cfg = replace(ref_cfg, report_path=str(tmp_path / "crash.txt"))
        monkeypatch.setattr(search_mod, "sum_decomposition", crashing)
        with pytest.raises(RuntimeError):
            run_search(cfg)
        states = []
        for shard in range(2):
            _, state_path = search_mod._shard_paths(cfg.normalized(), shard)
            with open(state_path) as fh:
                states.append(json.load(fh)["complete"])
        assert states == [True, False]
        monkeypatch.setattr(search_mod, "sum_decomposition", real_sum)
        resumed = run_search(cfg)
        assert (replace(resumed, elapsed=0.0, report_path="")
                == replace(ref, elapsed=0.0, report_path=""))
        assert _read(resumed.report_path) == _read(ref.report_path)


def _reference_report(cfg: SearchConfig) -> bytes:
    """A report rebuilt pair by pair, with no memo of any kind: the sets from
    ``_reference_enumeration``, or drawn by ``random_point_set`` and put in
    ``_reference_canonical`` form, every filter decided on the canonical
    forms, and each line from a fresh ``Pair``'s report and checks."""
    cfg = cfg.normalized()
    if cfg.mode == "exhaustive":
        pairs = itertools.combinations_with_replacement(sorted(_reference_enumeration(
            cfg.grid_w, cfg.grid_h, cfg.min_pts, cfg.max_pts, cfg.symmetry)), 2)
    else:
        rng = random.Random(cfg.seed)
        pairs = ([_reference_canonical(random_point_set(
            rng, cfg.grid_w, cfg.grid_h, cfg.min_pts, cfg.max_pts), cfg.symmetry)
            for _ in range(2)] for _ in range(cfg.count))
    lines = []
    for a, b in pairs:
        if b < a:
            a, b = b, a
        i_a, i_b = classify_points(a).i, classify_points(b).i
        if "boundary-only" in cfg.filters and (i_a or i_b):
            continue
        if "interior-both" in cfg.filters and not (i_a and i_b):
            continue
        if "unique-rep" in cfg.filters and not unique_representation(a, b):
            continue
        pair = conjecture_mod.Pair(a, b)
        checks = {name: outcome(pair) if applies(pair) else None
                  for name, (applies, outcome) in conjecture_mod.CHECKS.items()
                  if name in cfg.checks}
        lines.append(SearchRecord(a_id=serialize_set_id(a), b_id=serialize_set_id(b),
                                  report=pair.report(), checks=checks).line())
    return "".join(line + "\n" for line in sorted(lines)).encode()


class TestBodyMemo:
    """Each shard spells a record body once per distinct key; the reports
    must not show it."""

    def test_exhaustive_report_equals_pair_by_pair_reference(self, tmp_path):
        cfg = SearchConfig(grid_w=3, grid_h=3, max_pts=5, checks=search_mod.CHECK_NAMES,
                           report_path=str(tmp_path / "r.txt"))
        summary = run_search(cfg)
        assert summary.pairs == 32640
        assert _read(summary.report_path) == _reference_report(cfg)

    def test_a_false_check_is_never_masked(self, tmp_path, monkeypatch):
        cfg = SearchConfig(grid_w=3, grid_h=3, max_pts=4, checks=search_mod.CHECK_NAMES,
                           report_path=str(tmp_path / "clean.txt")).normalized()
        run_shard(cfg, 0)
        with open(search_mod._shard_paths(cfg, 0)[0]) as fh:
            clean = fh.read().splitlines()
        # the first pair whose body an earlier pair of the shard already has
        seen = set()
        for target, line in enumerate(clean):
            ids, body = line.split(" tr_a=", 1)
            if body in seen:
                break
            seen.add(body)
        else:
            pytest.fail("no two pairs of the shard share a record body")
        assert " freiman=true " in clean[target]
        ids = tuple(tok.split("=", 1)[1] for tok in ids.split())

        applies, outcome = conjecture_mod.CHECKS["freiman"]
        monkeypatch.setitem(conjecture_mod.CHECKS, "freiman", (applies, lambda p: (
            serialize_set_id(p.a), serialize_set_id(p.b)) != ids and outcome(p)))
        mutated = replace(cfg, report_path=str(tmp_path / "mutated.txt"),
                          checkpoint_path=None).normalized()
        tally = run_shard(mutated, 0)
        with open(search_mod._shard_paths(mutated, 0)[0]) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == len(clean)
        assert [k for k, (x, y) in enumerate(zip(clean, lines)) if x != y] == [target]
        assert lines[target] == clean[target].replace(" freiman=true ", " freiman=false ")
        assert tally.check_failures == tally.flagged == [lines[target]]


class TestRandomFastPath:
    @pytest.mark.parametrize("filters", [(), ("boundary-only",), ("interior-both",),
                                         ("boundary-only", "unique-rep")])
    @pytest.mark.parametrize("symmetry", search_mod.SYMMETRIES)
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("checks", [(), search_mod.CHECK_NAMES])
    def test_report_equals_draw_by_draw_reference(self, tmp_path, inline_pool, filters,
                                                  symmetry, workers, checks):
        cfg = SearchConfig(grid_w=4, grid_h=4, mode="random", seed=23, count=200,
                           max_pts=5, filters=filters, symmetry=symmetry, workers=workers,
                           checks=checks, report_path=str(tmp_path / "r.txt"))
        summary = run_search(cfg)
        assert summary.pairs > 0
        assert _read(summary.report_path) == _reference_report(cfg)

    @pytest.mark.parametrize("symmetry", search_mod.SYMMETRIES)
    def test_canonical_forms_only_for_sets_that_pass(self, tmp_path, monkeypatch, symmetry):
        cfg = SearchConfig(grid_w=4, grid_h=4, mode="random", seed=5, count=400,
                           max_pts=6, filters=("boundary-only",), symmetry=symmetry,
                           report_path=str(tmp_path / "r.txt")).normalized()
        canonicalized, classified = [], []
        real_canonical, real_classify = search_mod._canonical, search_mod.classify_points

        def canonical_spy(points, sym):
            canonicalized.append(tuple(points))
            return real_canonical(points, sym)

        def classify_spy(s):
            classified.append(s)
            return real_classify(s)

        monkeypatch.setattr(search_mod, "_canonical", canonical_spy)
        monkeypatch.setattr(search_mod, "classify_points", classify_spy)
        run_shard(cfg, 0)
        drawn = {key for pair in search_mod._pair_stream(cfg, 0) for key in pair}
        passing = {key for key in drawn if real_classify(key).i == 0}
        # each class that passes is canonicalized at most once, and each
        # canonical form classified at most once; a rejected set never is
        assert len(canonicalized) == len(set(canonicalized)) > 0
        assert set(canonicalized) <= passing
        assert len(classified) == len(set(classified)) > 0
        assert all(real_classify(s).i == 0 for s in classified)
        assert drawn - passing
