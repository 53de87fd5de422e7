"""Failure analysis, essential sensors, and the validity verdict."""

from __future__ import annotations

import random
import sys
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rmra import robustness
from rmra.catalog import all_entries
from rmra.cli import main
from rmra.coarray import SensorArray, difference_coarray, mirror, weight_table
from rmra.robustness import (
    ConstraintVerdict,
    NotASensor,
    analyze,
    check_failure_robustness,
    check_healthy_weights,
    essential_sensors,
    failure_report,
    fragility,
    rmra_check,
    survivor_weights,
)

from conftest import FRA2_13, RMRA7, random_array

arrays_n3 = st.builds(
    lambda l, interior: SensorArray(
        tuple(sorted({0, l} | {p for p in interior if 0 < p < l}))
    ),
    st.integers(2, 14),
    st.sets(st.integers(1, 13), min_size=1, max_size=6),
).filter(lambda a: 3 <= a.n <= 8)


def oracle_essential(positions) -> tuple[int, ...]:
    """Bitmask re-derivation of the essential set, independent of the
    list-based implementation under test."""
    positions = tuple(positions)
    l = positions[-1]
    essential = []
    for s in positions:
        pm = 0
        for p in positions:
            if p != s:
                pm |= 1 << p
        covered = 0
        q = pm
        while q:
            low = q & -q
            covered |= pm >> (low.bit_length() - 1)
            q ^= low
        if covered & ((1 << (l + 1)) - 2) != (1 << (l + 1)) - 2:
            essential.append(s)
    return tuple(essential)


class TestFailureReport:
    def test_endpoint_failure_shrinks_span(self):
        rep = failure_report(RMRA7, 0)
        assert rep.holes_in_original_span == (9,)
        assert rep.span_after == 8
        assert rep.surviving_positions == (1, 2, 5, 6, 8, 9)

    def test_interior_failure_harmless(self):
        assert failure_report(RMRA7, 5).holes_in_original_span == ()

    def test_critical_sensor(self):
        assert failure_report(FRA2_13, 16).holes_in_original_span == (15,)

    def test_not_a_sensor(self):
        with pytest.raises(NotASensor):
            failure_report(RMRA7, 3)

    def test_needs_three_sensors(self):
        with pytest.raises(ValueError, match="three sensors"):
            failure_report(SensorArray((0, 5)), 0)

    def test_not_a_sensor_is_reported_before_the_size(self):
        with pytest.raises(NotASensor):
            failure_report(SensorArray((0, 5)), 3)


class TestEssentialAndFragility:
    def test_worked_example(self):
        assert essential_sensors(RMRA7) == (0, 9)
        f = fragility(RMRA7)
        assert (f.essential_count, f.total) == (2, 7)
        assert str(f) == "2/7"

    def test_hidden_critical_sensor(self):
        assert essential_sensors(FRA2_13) == (0, 16, 31)
        assert str(fragility(FRA2_13)) == "3/13"

    def test_tiny_perfect_ruler_all_essential(self):
        assert essential_sensors(SensorArray((0, 1, 3))) == (0, 1, 3)

    def test_fragility_stays_unreduced(self):
        f = fragility(SensorArray((0, 1, 2, 3, 5, 6)))
        assert (f.essential_count, f.total) == (2, 6)
        assert str(f) == "2/6"
        assert float(f.as_fraction()) == pytest.approx(1 / 3)

    def test_oracle_equivalence_exhaustive_small(self):
        # every canonical array with up to 6 sensors and aperture up to 10
        for l in range(2, 11):
            for n in range(3, 7):
                if n - 2 > l - 1:
                    continue
                for interior in combinations(range(1, l), n - 2):
                    arr = SensorArray((0, *interior, l))
                    assert essential_sensors(arr) == oracle_essential(arr.positions)

    @given(arrays_n3)
    def test_mirror_covariance(self, arr):
        ess = set(essential_sensors(arr))
        mirrored = set(essential_sensors(mirror(arr)))
        assert mirrored == {arr.aperture - s for s in ess}
        assert str(fragility(mirror(arr))) == str(fragility(arr))

    def test_report_serialization(self):
        rep = analyze(RMRA7)
        assert rep.positions == (0, 1, 2, 5, 6, 8, 9)
        assert rep.essential == (0, 9)
        assert str(rep.fragility) == "2/7"
        sensor_0 = next(r for r in rep.per_sensor if r.failed_position == 0)
        assert sensor_0.holes_in_original_span == (9,)
        assert len(rep.per_sensor) == 7


class TestSurvivorWeights:
    def test_faulty_weight_function(self):
        w = survivor_weights(FRA2_13, 16)
        assert w.counts[0] == 12
        assert w.counts[15] == 0  # the hole
        assert w.aperture == 31

    def test_not_a_sensor(self):
        with pytest.raises(NotASensor):
            survivor_weights(RMRA7, 4)

    def test_two_sensor_array(self):
        assert survivor_weights(SensorArray((0, 5)), 0).counts == (1, 0, 0, 0, 0, 0)


def brute_survivor_counts(positions, failed) -> tuple[int, ...]:
    survivors = [p for p in positions if p != failed]
    counts = [0] * (positions[-1] + 1)
    counts[0] = len(survivors)
    for a, b in combinations(survivors, 2):
        counts[b - a] += 1
    return tuple(counts)


def oracle_arrays() -> list[SensorArray]:
    """Every catalog array with positions, then 200 seeded random arrays."""
    arrays = [SensorArray(e.positions) for e in all_entries() if e.positions]
    rng = random.Random(41)
    randoms = []
    while len(randoms) < 200:
        arr = random_array(rng, max_n=12, max_l=40)
        if arr.n >= 3:
            randoms.append(arr)
    return arrays + randoms


class TestTablesDerivedFromTheWeightTable:
    # Brute-force pair recounts of what robustness and coarray read off one
    # weight table, at every sensor including both endpoints.

    def test_survivor_weights_match_a_recount(self):
        for arr in oracle_arrays():
            report = analyze(arr) if arr.n >= 3 else None
            if report is not None:
                assert report.weights == weight_table(arr)
            for s in arr.positions:
                got = survivor_weights(arr, s).counts
                assert got == brute_survivor_counts(arr.positions, s), (arr, s)
                if report is not None:
                    assert survivor_weights(arr, s, report=report).counts == got

    def test_failure_reports_match_a_recount(self):
        for arr in oracle_arrays():
            for s in arr.positions:
                survivors = tuple([p for p in arr.positions if p != s])
                present = {b - a for a, b in combinations(survivors, 2)}
                rep = failure_report(arr, s)
                assert rep.surviving_positions == survivors
                assert rep.holes_in_original_span == tuple(
                    [m for m in range(1, arr.aperture + 1) if m not in present]
                ), (arr, s)
                assert rep.span_after == survivors[-1] - survivors[0]

    def test_difference_coarray_matches_the_pair_differences(self):
        for arr in oracle_arrays():
            lags = {0} | {b - a for a, b in combinations(arr.positions, 2)}
            assert difference_coarray(arr).present == lags, arr


class TestChecks:
    def test_healthy_weights(self):
        assert check_healthy_weights(SensorArray((0, 1, 2, 3, 5, 6)))
        assert not check_healthy_weights(SensorArray((0, 1, 3, 7)))  # all weights 1
        assert check_healthy_weights(RMRA7)

    def test_failure_robustness(self):
        assert check_failure_robustness(RMRA7)
        assert not check_failure_robustness(FRA2_13)
        assert not check_failure_robustness(SensorArray((0, 1, 2)))

    def test_failure_robustness_needs_three_sensors(self):
        with pytest.raises(ValueError, match="three sensors"):
            check_failure_robustness(SensorArray((0, 5)))

    def test_doubly_redundant_but_fragile_witness(self):
        # double redundancy is NOT robustness: the 13-sensor double-difference
        # array has weight >= 2 everywhere below the aperture yet hides a
        # critical interior sensor.
        w = weight_table(FRA2_13)
        assert all(w.counts[m] >= 2 for m in range(1, 31))
        assert w.counts[31] == 1
        assert check_healthy_weights(FRA2_13)
        assert not check_failure_robustness(FRA2_13)
        assert not rmra_check(FRA2_13, 13, 31).overall


class TestRmraCheck:
    def test_six_sensor_optimum(self):
        v = rmra_check(SensorArray((0, 1, 2, 3, 5, 6)), 6, 6)
        assert v.overall
        assert v.to_dict()["overall"] is True

    def test_ula_not_sparse(self):
        v = rmra_check(SensorArray((0, 1, 2, 3, 4, 5)), 6, 5)
        assert not v.sparse
        assert not v.overall

    def test_hidden_critical_sensor_fails(self):
        v = rmra_check(FRA2_13, 13, 31)
        assert v.size_ok and v.hole_free and v.doubly_redundant and v.sparse
        assert not v.two_essential

    def test_eleven_sensor_optimum(self):
        v = rmra_check(SensorArray((0, 1, 2, 3, 4, 10, 11, 16, 17, 21, 22)), 11, 22)
        assert v.overall

    def test_two_sensors_never_have_two_essential(self):
        v = rmra_check(SensorArray((0, 1)), 2, 1)
        assert v == ConstraintVerdict(
            size_ok=True, hole_free=True, doubly_redundant=True, two_essential=False, sparse=False
        )

    def test_wrong_size(self):
        assert not rmra_check(RMRA7, 8, 9).size_ok

    def test_wrong_aperture(self):
        v = rmra_check(RMRA7, 7, 10)
        assert not v.hole_free and not v.overall

    @given(arrays_n3)
    def test_equivalence_with_conjunction(self, arr):
        n, l = arr.n, arr.aperture
        v = rmra_check(arr, n, l)
        expected = (
            check_healthy_weights(arr)
            and check_failure_robustness(arr)
            and l >= n
            and arr.n == n
        )
        assert v.overall == expected

    def test_equivalence_randomized_sweep(self):
        rng = random.Random(7)
        for _ in range(400):
            arr = random_array(rng, max_n=8, max_l=14)
            if arr.n < 3:
                continue
            v = rmra_check(arr, arr.n, arr.aperture)
            expected = (
                check_healthy_weights(arr)
                and check_failure_robustness(arr)
                and arr.aperture >= arr.n
            )
            assert v.overall == expected

    def test_precomputed_essential_set_gives_the_same_verdict(self):
        claims = [
            (SensorArray(e.positions), e.n, e.l) for e in all_entries() if e.positions
        ]
        randoms = []
        rng = random.Random(23)
        while len(randoms) < 200:
            arr = random_array(rng, max_n=12, max_l=40)
            if arr.n >= 3:
                randoms.append((arr, arr.n, arr.aperture))
        for arr, n, l in claims + randoms:
            report = analyze(arr)
            assert rmra_check(arr, n, l, report=report) == rmra_check(arr, n, l)


@pytest.mark.parametrize("extra", [(), ("--failed", "8")])
def test_analyze_command_runs_each_failure_report_once(capsys, monkeypatch, extra):
    calls = []
    original = robustness._failure_report

    def counting(arr, w, failed):
        calls.append(failed)
        return original(arr, w, failed)

    monkeypatch.setattr(robustness, "_failure_report", counting)
    positions = (0, 1, 2, 5, 6, 8, 9)
    assert main(["analyze", ",".join(map(str, positions)), *extra]) == 0
    capsys.readouterr()
    assert sorted(calls) == list(positions)


@pytest.fixture
def weight_table_calls(monkeypatch):
    """Every ``weight_table`` call, under each name the package imported it as."""
    calls = []
    original = weight_table

    def counting(arr):
        calls.append(arr)
        return original(arr)

    for name, module in list(sys.modules.items()):
        if name.startswith("rmra") and getattr(module, "weight_table", None) is original:
            monkeypatch.setattr(module, "weight_table", counting)
    return calls


@pytest.mark.parametrize("extra", [(), ("--failed", "8")])
def test_analyze_command_builds_one_weight_table(capsys, weight_table_calls, extra):
    assert main(["analyze", "0,1,2,5,6,8,9", *extra, "--format", "json"]) == 0
    capsys.readouterr()
    assert len(weight_table_calls) == 1


def test_verify_builds_one_weight_table_per_entry_with_positions(capsys, weight_table_calls):
    assert main(["verify", "--format", "json"]) == 0
    capsys.readouterr()
    with_positions = sum(1 for e in all_entries() if e.positions is not None)
    assert len(weight_table_calls) == with_positions == 116
