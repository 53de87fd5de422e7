"""Staged search: bounds, ranking, stages, verdicts, checkpoints, parallelism."""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmra import kernel, search
from rmra.coarray import SensorArray
from rmra.robustness import rmra_check
from rmra.search import (
    CorruptCheckpoint,
    IndexOutOfRange,
    SearchConfig,
    StageOutcome,
    Verdict,
    aperture_upper_bound,
    candidate_count,
    checkpoint_load,
    checkpoint_save,
    loses_search,
    rank_candidate,
    run_stage,
    unrank_candidate,
)
from rmra.search import _digest

from conftest import OPTIMAL_APERTURES, TABLE4


class TestBounds:
    def test_lower_bound(self):
        # every trail starts at l = n, as in the paper, unless told otherwise
        assert SearchConfig(n=11).effective_l_start() == 11
        assert SearchConfig(n=11, l_start=14).effective_l_start() == 14

    def test_upper_bound(self):
        assert aperture_upper_bound(11) == 28
        assert aperture_upper_bound(6) == 8
        assert aperture_upper_bound(15) == 53

    def test_too_few_sensors(self):
        with pytest.raises(ValueError):
            aperture_upper_bound(5)


class TestCandidateCount:
    def test_values(self):
        assert candidate_count(11, 11, False) == 10
        assert candidate_count(11, 23, False) == 497420
        assert candidate_count(11, 23, True) == math.comb(20, 7) == 77520

    def test_errors(self):
        with pytest.raises(ValueError):
            candidate_count(3, 5)
        with pytest.raises(ValueError):
            candidate_count(8, 7)

    def test_exact_for_large_stages(self):
        # arbitrary-precision integers keep huge stages exact
        assert candidate_count(20, 95, False) == math.comb(94, 18)


class TestRankUnrank:
    def test_first_candidate(self):
        assert unrank_candidate(11, 11, 0).positions == (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11)

    def test_second_candidate_is_first_published_row(self):
        assert unrank_candidate(11, 11, 1).positions == TABLE4[0]

    def test_last_candidate(self):
        assert unrank_candidate(11, 11, 9).positions == (0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            unrank_candidate(11, 11, 10)
        with pytest.raises(IndexOutOfRange):
            unrank_candidate(11, 11, -1)

    def test_rank_rejects_non_candidates(self):
        with pytest.raises(ValueError):
            rank_candidate(11, 11, (0, 1, 2))

    @given(st.data())
    @settings(max_examples=200)
    def test_round_trip(self, data):
        n = data.draw(st.integers(6, 14))
        l = data.draw(st.integers(n, n + 12))
        total = candidate_count(n, l, False)
        index = data.draw(st.integers(0, min(total, 10**6) - 1))
        arr = unrank_candidate(n, l, index)
        assert rank_candidate(n, l, arr) == index

    def test_order_is_lexicographic(self):
        seen = [unrank_candidate(7, 9, i).positions for i in range(candidate_count(7, 9))]
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)


class TestRunStage:
    def test_first_stage_eleven(self):
        cfg = SearchConfig(n=11)
        res = run_stage(11, 11, cfg)
        assert res.outcome is StageOutcome.FOUND
        assert res.array.positions == TABLE4[0]
        assert res.candidate_index == 1  # unfiltered rank, whatever the filters

    def test_first_stage_six(self):
        res = run_stage(6, 6, SearchConfig(n=6))
        assert res.outcome is StageOutcome.FOUND
        assert res.array.positions == (0, 1, 2, 3, 5, 6)

    def test_exhausted_stage_count(self):
        cfg = SearchConfig(n=11, prune_filters=False)
        res = run_stage(11, 23, cfg)
        assert res.outcome is StageOutcome.EXHAUSTED
        assert res.candidates_examined == 497420

    def test_found_stages_pass_reference_checker(self):
        for n in (6, 7, 8):
            cfg = SearchConfig(n=n)
            for l in range(n, OPTIMAL_APERTURES[n] + 1):
                res = run_stage(n, l, cfg)
                assert res.outcome is StageOutcome.FOUND
                assert rmra_check(res.array, n, l).overall


class TestLosesSearch:
    def test_six_sensors(self):
        out = loses_search(SearchConfig(n=6))
        assert out.verdict is Verdict.OPTIMAL
        assert out.optimal_aperture == 6
        assert out.best_array.positions == (0, 1, 2, 3, 5, 6)
        assert [s.outcome for s in out.stages] == [StageOutcome.FOUND, StageOutcome.EXHAUSTED]

    def test_nine_sensors(self):
        out = loses_search(SearchConfig(n=9))
        assert out.verdict is Verdict.OPTIMAL
        assert out.optimal_aperture == 15

    def test_eleven_sensors_stage_trail(self):
        out = loses_search(SearchConfig(n=11))
        assert out.verdict is Verdict.OPTIMAL
        assert out.optimal_aperture == 22
        found = [s for s in out.stages if s.outcome is StageOutcome.FOUND]
        assert [s.l for s in found] == list(range(11, 23))
        assert out.stages[-1].l == 23
        assert out.stages[-1].outcome is StageOutcome.EXHAUSTED
        # monotone staging: apertures strictly increase by one
        assert [s.l for s in out.stages] == list(range(11, 24))
        # every found array passes the reference checker
        for s in found:
            assert rmra_check(s.array, 11, s.l).overall

    def test_aperture_limit_stops_run(self):
        out = loses_search(SearchConfig(n=6, l_limit=6))
        assert out.verdict is Verdict.NEAR_OPTIMAL
        assert out.reason == "aperture limit reached"
        assert out.optimal_aperture == 6

    def test_none_found_when_started_past_optimum(self):
        out = loses_search(SearchConfig(n=6, l_start=8))
        assert out.verdict is Verdict.NONE_FOUND
        assert out.best_array is None
        assert out.stages[0].outcome is StageOutcome.EXHAUSTED

    def test_filtered_and_unfiltered_agree(self):
        for n in (6, 7, 8):
            plain = loses_search(SearchConfig(n=n, prune_filters=False))
            pruned = loses_search(SearchConfig(n=n, prune_filters=True))
            assert plain.optimal_aperture == pruned.optimal_aperture
            assert plain.best_array.positions == pruned.best_array.positions
            assert [s.outcome for s in plain.stages] == [s.outcome for s in pruned.stages]

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SearchConfig(n=5)
        with pytest.raises(ValueError):
            SearchConfig(n=6, l_start=5)
        with pytest.raises(ValueError):
            SearchConfig(n=6, l_start=9)  # beyond the pair-budget bound
        with pytest.raises(ValueError):
            SearchConfig(n=6, l_start=7, l_limit=6)


class TestChunkLoop:
    def test_progress_reports_chunk_frontiers(self, monkeypatch):
        chunks, threads = [], set()
        scan_chunk = search._scan_chunk

        def recording(n, l, filtered, lo, hi):
            chunks.append((lo, hi))
            threads.add(threading.get_ident())
            return scan_chunk(n, l, filtered, lo, hi)

        monkeypatch.setattr(search, "_scan_chunk", recording)
        cfg = SearchConfig(n=11, prune_filters=False)
        frontiers = []
        res = run_stage(11, 23, cfg, on_progress=frontiers.append)
        assert res.outcome is StageOutcome.EXHAUSTED
        size = candidate_count(11, 23, False)
        # chunks tile the stage; one report per confirmed chunk, at its end,
        # strictly increasing, ending at the stage end
        chunks.sort()
        assert [lo for lo, _ in chunks] == [0] + [hi for _, hi in chunks[:-1]]
        assert frontiers == [hi for _, hi in chunks]
        assert all(a < b for a, b in zip(frontiers, frontiers[1:]))
        assert frontiers[-1] == size
        assert threads == {threading.get_ident()}  # every chunk runs on the calling thread

    def test_chunks_follow_measured_call_time(self, monkeypatch):
        # doubled after a call under 50 ms, halved after one over 250 ms
        seconds = iter([0.01, 0.01, 0.3, 0.1, 0.01])
        sizes = []

        def timed(n, l, filtered, lo, hi):
            sizes.append(hi - lo)
            return None, next(seconds)

        monkeypatch.setattr(search, "_scan_chunk", timed)
        c = search._FIRST_CHUNK
        assert search._scan(12, 27, False, 0, 10 * c, None) is None
        assert sizes == [c, 2 * c, 4 * c, 2 * c, c]  # the last chunk ends at the range end


class TestCheckpoints:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "run.ckpt"
        cfg = SearchConfig(n=11)
        stage = run_stage(11, 11, cfg)
        checkpoint_save(
            path, n=11, l=12, next_index=0, stages=[stage], filters=cfg.filter_signature()
        )
        payload = checkpoint_load(path)
        assert payload["n"] == 11
        assert payload["l"] == 12
        assert payload["next_index"] == 0
        assert payload["stages"][0]["array"] == list(stage.array.positions)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        checkpoint_save(path, n=11, l=11, next_index=0, stages=[], filters={})
        payload = json.loads(path.read_text())
        assert payload["version"] == 2
        for version in (1, 3):
            payload["version"] = version
            path.write_text(json.dumps(payload))
            with pytest.raises(CorruptCheckpoint, match=f"version {version}"):
                checkpoint_load(path)

    def test_version_one_checkpoint_rejected_on_resume(self, tmp_path):
        # the layout a version-1 file had: digest-sealed, with the two
        # filter settings that no longer exist
        path = tmp_path / "run.ckpt"
        payload = {
            "version": 1,
            "n": 6,
            "l": 6,
            "next_index": 0,
            "stages": [],
            "filters": {"prune_filters": True, "mirror_prune": False, "deterministic": True},
        }
        payload["digest"] = _digest(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptCheckpoint, match="version 1"):
            loses_search(SearchConfig(n=6, checkpoint_path=path))
        assert path.exists()  # a rejected file is left for the user

    def test_tampered_payload_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        checkpoint_save(path, n=11, l=11, next_index=0, stages=[], filters={})
        payload = json.loads(path.read_text())
        payload["next_index"] = 12345
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptCheckpoint):
            checkpoint_load(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_text("not json at all {")
        with pytest.raises(CorruptCheckpoint):
            checkpoint_load(path)

    def test_mismatched_config_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        cfg = SearchConfig(n=11)
        checkpoint_save(path, n=11, l=11, next_index=0, stages=[], filters=cfg.filter_signature())
        other = SearchConfig(n=11, prune_filters=False, checkpoint_path=path)
        with pytest.raises(CorruptCheckpoint):
            loses_search(other)

    def test_resume_mid_stage_matches_uninterrupted(self, tmp_path):
        cfg = SearchConfig(n=11, prune_filters=False)
        uninterrupted = loses_search(cfg)
        # checkpoint taken 100 candidates into stage l=22, well before that
        # stage's first valid array (rank 5499)
        assert next(s for s in uninterrupted.stages if s.l == 22).candidate_index > 100
        prefix = [s for s in uninterrupted.stages if s.l < 22]
        path = tmp_path / "run.ckpt"
        checkpoint_save(
            path, n=11, l=22, next_index=100, stages=prefix, filters=cfg.filter_signature()
        )
        resumed = loses_search(SearchConfig(n=11, prune_filters=False, checkpoint_path=path))
        assert resumed.to_dict(include_timing=False) == uninterrupted.to_dict(
            include_timing=False
        )
        assert not path.exists()  # consumed on completion

    def test_resume_at_stage_boundary(self, tmp_path):
        cfg = SearchConfig(n=6)
        uninterrupted = loses_search(cfg)
        prefix = [s for s in uninterrupted.stages if s.l < 7]
        path = tmp_path / "run.ckpt"
        checkpoint_save(
            path, n=6, l=7, next_index=0, stages=prefix, filters=cfg.filter_signature()
        )
        resumed = loses_search(SearchConfig(n=6, checkpoint_path=path))
        assert resumed.to_dict(include_timing=False) == uninterrupted.to_dict(
            include_timing=False
        )

    def test_resume_mid_exhausted_stage(self, tmp_path):
        cfg = SearchConfig(n=6, prune_filters=False)
        uninterrupted = loses_search(cfg)
        prefix = [s for s in uninterrupted.stages if s.l < 7]
        path = tmp_path / "run.ckpt"
        checkpoint_save(
            path, n=6, l=7, next_index=7, stages=prefix, filters=cfg.filter_signature()
        )
        resumed = loses_search(
            SearchConfig(n=6, prune_filters=False, checkpoint_path=path)
        )
        assert resumed.to_dict(include_timing=False) == uninterrupted.to_dict(
            include_timing=False
        )

    def test_checkpoint_named_tmp_round_trips_without_stray_files(self, tmp_path, monkeypatch):
        # the snapshot is written beside the checkpoint and renamed over it,
        # never written in place
        renames = []
        replace = os.replace
        monkeypatch.setattr(os, "replace", lambda a, b: (renames.append((a, b)), replace(a, b)))
        path = tmp_path / "x.tmp"
        checkpoint_save(path, n=11, l=12, next_index=7, stages=[], filters={})
        assert renames == [(tmp_path / "x.tmp.tmp", path)]
        assert checkpoint_load(path)["next_index"] == 7
        assert [p.name for p in tmp_path.iterdir()] == ["x.tmp"]

    def test_aperture_capped_run_resumes_to_the_uncapped_outcome(self, tmp_path):
        uncapped = loses_search(SearchConfig(n=8))
        path = tmp_path / "run.ckpt"
        capped = loses_search(SearchConfig(n=8, l_limit=10, checkpoint_path=path))
        assert capped.reason == "aperture limit reached"
        assert checkpoint_load(path)["l"] == 11  # kept for a run without the cap
        resumed = loses_search(SearchConfig(n=8, checkpoint_path=path))
        assert resumed.to_dict(include_timing=False) == uncapped.to_dict(include_timing=False)
        assert not path.exists()

    def test_interrupted_run_resumes_from_its_mid_stage_checkpoint(self, tmp_path, monkeypatch):
        # n=11 unfiltered exhausts L=23 over four chunks; a clock that moves a
        # second per reading makes the checkpoint timer fire at every chunk end
        cfg = SearchConfig(n=11, prune_filters=False)
        uninterrupted = loses_search(cfg)
        path = tmp_path / "run.ckpt"
        ticks = itertools.count()
        monkeypatch.setattr(search.time, "monotonic", lambda: float(next(ticks)))
        scan = kernel.scan

        def killed_after_a_mid_stage_write(n, l, *args):
            if path.exists() and checkpoint_load(path)["next_index"] > 0:
                raise KeyboardInterrupt
            return scan(n, l, *args)

        monkeypatch.setattr(kernel, "scan", killed_after_a_mid_stage_write)
        with pytest.raises(KeyboardInterrupt):
            loses_search(SearchConfig(n=11, prune_filters=False, checkpoint_path=path))
        monkeypatch.undo()
        payload = checkpoint_load(path)
        assert (payload["l"], payload["next_index"]) == (23, search._FIRST_CHUNK)
        assert [s["l"] for s in payload["stages"]] == list(range(11, 23))
        resumed = loses_search(SearchConfig(n=11, prune_filters=False, checkpoint_path=path))
        assert resumed.to_dict(include_timing=False) == uninterrupted.to_dict(
            include_timing=False
        )
        assert not path.exists()

    def test_checkpoint_written_during_run(self, tmp_path):
        path = tmp_path / "run.ckpt"
        out = loses_search(SearchConfig(n=7, checkpoint_path=path))
        assert out.verdict is Verdict.OPTIMAL
        assert not path.exists()  # removed once the verdict is reached
