"""Acceptance gate: one test per release criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v``; a per-criterion summary is
printed at the end of the session. The 13- and 16-sensor searches run with
the compiled engine only (milliseconds there, minutes in pure Python);
the 14-, 15- and 17-sensor runs are documented in the README instead.
"""

from __future__ import annotations

import json
import math
import random
from itertools import combinations

import pytest

from rmra import kernel
from rmra.catalog import known_arrays, verify_catalog
from rmra.cli import main
from rmra.coarray import (
    SensorArray,
    extend_repeated_spacing,
    mirror,
    weight_table,
)
from rmra.robustness import (
    check_failure_robustness,
    check_healthy_weights,
    essential_sensors,
    failure_report,
    fragility,
    rmra_check,
)
from rmra.search import (
    SearchConfig,
    StageOutcome,
    Verdict,
    candidate_count,
    checkpoint_save,
    loses_search,
    rank_candidate,
    run_stage,
    unrank_candidate,
)

from conftest import FRA2_13, OPTIMAL_APERTURES, TABLE3, TABLE4, random_array

needs_c = pytest.mark.skipif(kernel.BACKEND != "c", reason="compiled kernel not selected")


def test_criterion_1_optimal_arrays_six_to_ten():
    """Searches for 6..10 sensors reach apertures 6, 9, 12, 15, 19 with
    exhaustion proofs; the found arrays equal the published rows."""
    for n, expected in TABLE3.items():
        out = loses_search(SearchConfig(n=n, prune_filters=False))
        assert out.verdict is Verdict.OPTIMAL
        assert out.optimal_aperture == OPTIMAL_APERTURES[n]
        assert out.best_array.positions == expected
        last = out.stages[-1]
        assert last.outcome is StageOutcome.EXHAUSTED
        assert last.l == OPTIMAL_APERTURES[n] + 1
        assert last.candidates_examined == candidate_count(n, last.l, False)
        assert rmra_check(out.best_array, n, out.optimal_aperture).overall


def test_criterion_2_eleven_sensor_full_reproduction():
    """Unfiltered run: 12 found stages at L=11..22 matching the
    published per-stage rows, then exhaustion at L=23 after exactly 497420
    candidates."""
    out = loses_search(SearchConfig(n=11, prune_filters=False))
    assert out.verdict is Verdict.OPTIMAL
    assert out.optimal_aperture == 22
    found = [s for s in out.stages if s.outcome is StageOutcome.FOUND]
    assert [s.l for s in found] == list(range(11, 23))
    for stage, expected in zip(found, TABLE4):
        assert stage.array.positions == expected, (
            f"stage L={stage.l} diverged from the published row; "
            f"got {list(stage.array.positions)}"
        )
    assert found[0].array.positions == TABLE4[0]
    assert found[0].candidate_index == 1
    last = out.stages[-1]
    assert last.l == 23
    assert last.outcome is StageOutcome.EXHAUSTED
    assert last.candidates_examined == 497420


def test_criterion_3_twelve_sensor_optimum():
    """12 sensors: optimal aperture 26 with the exhaustion proof at 27
    (C(26,10) = 5,311,735 candidates unfiltered)."""
    out = loses_search(SearchConfig(n=12, prune_filters=False))
    assert out.verdict is Verdict.OPTIMAL
    assert out.optimal_aperture == 26
    last = out.stages[-1]
    assert (last.l, last.outcome) == (27, StageOutcome.EXHAUSTED)
    assert last.candidates_examined == math.comb(26, 10) == 5311735
    assert rmra_check(out.best_array, 12, 26).overall


@needs_c
def test_criterion_3_thirteen_sensor_optimum():
    """13 sensors: optimal aperture 32, exhaustion proof at 33."""
    out = loses_search(SearchConfig(n=13, prune_filters=True))
    assert out.verdict is Verdict.OPTIMAL
    assert out.optimal_aperture == 32
    last = out.stages[-1]
    assert (last.l, last.outcome) == (33, StageOutcome.EXHAUSTED)
    assert last.candidates_examined == math.comb(30, 9)
    assert rmra_check(out.best_array, 13, 32).overall


@needs_c
def test_criterion_3_sixteen_sensor_table_6_array_is_optimal():
    """16 sensors: the first valid array at aperture 47 is the paper's
    near-optimal Table 6 array, and aperture 48 is exhausted."""
    out = loses_search(SearchConfig(n=16))
    assert out.verdict is Verdict.OPTIMAL
    assert out.optimal_aperture == 47
    assert out.best_array.positions == (
        0, 1, 2, 3, 5, 7, 16, 18, 26, 29, 35, 38, 39, 43, 46, 47
    )
    last = out.stages[-1]
    assert (last.l, last.outcome) == (48, StageOutcome.EXHAUSTED)
    assert last.candidates_examined == math.comb(45, 12)
    assert rmra_check(out.best_array, 16, 47).overall


def test_criterion_4_catalog_verification():
    """Every cataloged entry with positions re-verifies; the comparison
    table's aperture column agrees with the catalog for 6..20 sensors."""
    report = verify_catalog()
    assert report.all_passed, [c.problems for c in report.failures]
    for e in known_arrays("RMRA"):
        if e.status == "near-optimal":
            arr = SensorArray(e.positions)
            assert check_healthy_weights(arr) and check_failure_robustness(arr)
    from rmra.catalog import compare_apertures

    rows = {r.n: r for r in compare_apertures()}
    for n in range(6, 21):
        best = [e for e in known_arrays("RMRA", n) if e.status in ("optimal", "near-optimal")]
        assert len(best) == 1 and best[0].l == rows[n].rmra


def test_criterion_5_hidden_critical_sensor_witness():
    """The 13-sensor double-difference array: essential sensors exactly
    {0, 16, 31}, fragility 3/13, and removing 16 leaves exactly lag 15
    missing."""
    assert essential_sensors(FRA2_13) == (0, 16, 31)
    f = fragility(FRA2_13)
    assert (f.essential_count, f.total) == (3, 13)
    assert failure_report(FRA2_13, 16).holes_in_original_span == (15,)


def test_criterion_6_spacing_pattern_extrapolation():
    """Extending the 15-sensor optimum's five-unit run by 2 and 4 yields
    valid arrays ending at 52 (17 sensors) and 62 (19 sensors)."""
    base = SensorArray((0, 1, 2, 4, 5, 9, 14, 19, 24, 29, 34, 35, 40, 41, 42))
    for extra, n, end in ((2, 17, 52), (4, 19, 62)):
        grown = extend_repeated_spacing(base, extra)
        assert grown.n == n
        assert grown.aperture == end
        assert rmra_check(grown, n, end).overall


def test_criterion_7a_pair_conservation():
    """Sum of weights equals n(n-1)/2 on ten thousand random arrays."""
    rng = random.Random(13579)
    for _ in range(10_000):
        arr = random_array(rng)
        assert sum(weight_table(arr).counts[1:]) == arr.n * (arr.n - 1) // 2


def test_criterion_7b_mirror_invariance_and_covariance():
    rng = random.Random(24680)
    for _ in range(2_000):
        arr = random_array(rng)
        assert weight_table(mirror(arr)).counts == weight_table(arr).counts
        if arr.n >= 3:
            ess = set(essential_sensors(arr))
            assert set(essential_sensors(mirror(arr))) == {arr.aperture - s for s in ess}
            assert str(fragility(mirror(arr))) == str(fragility(arr))


def test_criterion_7c_essential_oracle_exhaustive():
    """Essential sets match an independent bitmask oracle for every canonical
    array with up to 6 sensors and aperture up to 10."""

    def oracle(positions):
        l = positions[-1]
        needed = (1 << (l + 1)) - 2
        out = []
        for s in positions:
            rest = [p for p in positions if p != s]
            pm = 0
            for p in rest:
                pm |= 1 << p
            covered = 0
            for p in rest:
                covered |= pm >> p
            if covered & needed != needed:
                out.append(s)
        return tuple(out)

    checked = 0
    for l in range(2, 11):
        for n in range(3, 7):
            if n - 2 > l - 1:
                continue
            for interior in combinations(range(1, l), n - 2):
                arr = SensorArray((0, *interior, l))
                assert essential_sensors(arr) == oracle(arr.positions)
                checked += 1
    assert checked > 500


def test_criterion_7d_filtered_verdicts_match_unfiltered():
    """Stage verdicts agree with filters on and off for every stage of at
    most 100k candidates."""
    pairs = 0
    for n in range(6, 21):
        l = n
        while candidate_count(n, l, False) <= 100_000:
            plain = run_stage(n, l, False)
            pruned = run_stage(n, l, True)
            assert plain.outcome == pruned.outcome, (n, l)
            if plain.outcome is StageOutcome.FOUND:
                assert plain.array.positions == pruned.array.positions
                assert plain.candidate_index == pruned.candidate_index
            pairs += 1
            l += 1
    assert pairs > 100


def test_criterion_7e_rank_unrank_round_trips():
    rng = random.Random(111)
    for _ in range(500):
        n = rng.randint(6, 16)
        l = rng.randint(n, n + 14)
        total = candidate_count(n, l, False)
        index = rng.randrange(min(total, 10**6))
        arr = unrank_candidate(n, l, index)
        assert rank_candidate(n, l, arr) == index
    # boundary indexes
    for n, l in ((6, 6), (11, 23), (14, 30)):
        total = candidate_count(n, l, False)
        for index in (0, 1, total - 2, total - 1):
            assert rank_candidate(n, l, unrank_candidate(n, l, index)) == index


def test_criterion_7f_checkpoint_resume_identical(tmp_path):
    """Resuming a mid-stage checkpoint reproduces the uninterrupted outcome
    byte for byte (timing aside)."""
    cfg = SearchConfig(n=11, prune_filters=False)
    uninterrupted = loses_search(cfg)
    prefix = [s for s in uninterrupted.stages if s.l < 22]
    path = tmp_path / "resume.ckpt"
    checkpoint_save(
        path, n=11, l=22, next_index=100, stages=prefix, filters=cfg.filter_signature()
    )
    resumed = loses_search(
        SearchConfig(n=11, prune_filters=False, checkpoint_path=path)
    )
    a = json.dumps(resumed.to_dict(include_timing=False), sort_keys=True)
    b = json.dumps(uninterrupted.to_dict(include_timing=False), sort_keys=True)
    assert a == b


def test_criterion_7g_parallel_equals_serial(capsys):
    """``--workers 2 --deterministic`` changes no exit code, stderr or stdout
    byte of ``rmra search`` (timings aside) for every sensor count up to 11."""

    def run(*argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, err, out

    def run_json(*argv):
        code, err, out = run(*argv, "--format", "json")
        env = json.loads(out)
        del env["timing"]
        for stage in env["result"]["stages"]:
            del stage["elapsed"]
        return code, err, env

    for n in range(6, 12):
        plain = ("search", "--n", str(n))
        flagged = (*plain, "--workers", "2", "--deterministic")
        assert run(*flagged) == run(*plain)
        assert run_json(*flagged) == run_json(*plain)


def test_criterion_8_double_redundancy_is_not_robustness():
    """Negative control: the 13-sensor double-difference array passes the
    healthy weight screen yet fails the full check."""
    w = weight_table(FRA2_13)
    assert all(w.counts[m] >= 2 for m in range(1, 31))
    assert w.counts[31] == 1
    assert check_healthy_weights(FRA2_13)
    verdict = rmra_check(FRA2_13, 13, 31)
    assert verdict.hole_free and verdict.doubly_redundant and verdict.size_ok
    assert not verdict.two_essential
    assert not verdict.overall
