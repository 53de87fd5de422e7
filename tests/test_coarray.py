"""Coarray arithmetic: weights, holes, spacings, and their invariants."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmra.coarray import (
    DuplicatePosition,
    EmptyInput,
    NoRepeatedRun,
    NonPositiveSpacing,
    SensorArray,
    array_from_ies,
    canonicalize,
    difference_coarray,
    doubly_redundant_span,
    extend_repeated_spacing,
    holes,
    ies_of,
    mirror,
    weight_table,
)

from conftest import FRA2_13, RMRA7, random_array


def oracle_weights(positions) -> Counter:
    """Independent pair enumeration used to freeze expected weight values."""
    return Counter(b - a for a, b in combinations(sorted(positions), 2))


arrays = st.builds(
    lambda interior, l: SensorArray(tuple(sorted({0, l} | {p for p in interior if p < l}))),
    st.sets(st.integers(1, 59), max_size=10),
    st.integers(1, 60),
)


class TestCanonicalize:
    def test_translates_to_zero(self):
        assert canonicalize([3, 4, 5, 8, 9, 11, 12]).positions == (0, 1, 2, 5, 6, 8, 9)

    def test_identity_on_canonical(self):
        assert canonicalize([0, 1, 2, 5, 6, 8, 9]).positions == (0, 1, 2, 5, 6, 8, 9)

    def test_sorts(self):
        assert canonicalize([9, 0, 5]).positions == (0, 5, 9)

    def test_duplicate(self):
        with pytest.raises(DuplicatePosition):
            canonicalize([0, 1, 1, 3])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            canonicalize([])

    def test_negative(self):
        with pytest.raises(ValueError):
            canonicalize([-1, 2, 3])

    def test_single_sensor(self):
        with pytest.raises(ValueError):
            canonicalize([7])

    @given(arrays, st.integers(0, 50))
    def test_translation_invariance(self, arr, shift):
        shifted = [p + shift for p in arr.positions]
        assert canonicalize(shifted).positions == arr.positions


class TestWeightTable:
    def test_worked_example(self):
        # frozen from the pair-enumeration oracle
        expected = (4, 2, 3, 3, 2, 2, 2, 2, 1)
        w = weight_table(RMRA7)
        assert w.counts[1:] == expected
        assert w.counts[0] == 7
        oracle = oracle_weights(RMRA7.positions)
        assert tuple(oracle[m] for m in range(1, 10)) == expected

    def test_six_sensor_optimum(self):
        w = weight_table(SensorArray((0, 1, 2, 3, 5, 6)))
        assert w.counts[1:] == (4, 3, 3, 2, 2, 1)
        oracle = oracle_weights((0, 1, 2, 3, 5, 6))
        assert tuple(oracle[m] for m in range(1, 7)) == w.counts[1:]

    def test_single_pair(self):
        assert weight_table(SensorArray((0, 1))).counts == (2, 1)

    @given(arrays)
    def test_matches_oracle(self, arr):
        w = weight_table(arr)
        oracle = oracle_weights(arr.positions)
        assert w.counts[0] == arr.n
        for m in range(1, arr.aperture + 1):
            assert w.counts[m] == oracle[m]

    @given(arrays)
    def test_pair_conservation(self, arr):
        w = weight_table(arr)
        assert sum(w.counts[1:]) == arr.n * (arr.n - 1) // 2

    def test_pair_conservation_bulk(self):
        rng = random.Random(20240601)
        for _ in range(10_000):
            arr = random_array(rng)
            w = weight_table(arr)
            assert sum(w.counts[1:]) == arr.n * (arr.n - 1) // 2


class TestDifferenceCoarray:
    def test_perfect_ruler(self):
        lags = difference_coarray(SensorArray((0, 1, 3)))
        assert lags.present == frozenset({0, 1, 2, 3})
        assert lags.is_hole_free()

    def test_hole(self):
        lags = difference_coarray(SensorArray((0, 1, 4)))
        assert lags.present == frozenset({0, 1, 3, 4})
        assert not lags.is_hole_free()
        assert holes(lags) == (2,)

    def test_worked_example_hole_free(self):
        lags = difference_coarray(RMRA7)
        assert lags.present == frozenset(range(10))
        assert holes(lags) == ()

    def test_survivors_of_critical_failure(self):
        # the 13-sensor double-difference array minus its critical sensor
        survivors = SensorArray((0, 1, 7, 8, 17, 25, 26, 27, 28, 29, 30, 31))
        assert holes(difference_coarray(survivors)) == (15,)

    def test_hole_free_equivalences_exhaustive(self):
        # |present| == L+1  <=>  no holes  <=>  every weight >= 1, checked
        # against an independent enumeration for every array with L <= 12
        for l in range(1, 13):
            for r in range(l):
                for interior in combinations(range(1, l), r):
                    pos = (0, *interior, l)
                    diffs = {b - a for a, b in combinations(pos, 2)} | {0}
                    arr = SensorArray(pos)
                    lags = difference_coarray(arr)
                    w = weight_table(arr)
                    hole_free = diffs == set(range(l + 1))
                    assert lags.is_hole_free() == hole_free
                    assert (holes(lags) == ()) == hole_free
                    assert all(w.counts[m] >= 1 for m in range(l + 1)) == hole_free


class TestDoublyRedundantSpan:
    def test_worked_example(self):
        assert doubly_redundant_span(weight_table(RMRA7)) == 8

    def test_all_single(self):
        assert doubly_redundant_span(weight_table(SensorArray((0, 1, 3)))) == 0

    def test_six_sensor_optimum(self):
        assert doubly_redundant_span(weight_table(SensorArray((0, 1, 2, 3, 5, 6)))) == 5


class TestIes:
    def test_worked_example(self):
        assert ies_of(RMRA7) == (1, 1, 3, 1, 2, 1)

    def test_thirteen_sensor_optimum(self):
        arr = SensorArray((0, 1, 2, 4, 5, 9, 14, 19, 24, 25, 30, 31, 32))
        assert ies_of(arr) == (1, 1, 2, 1, 4, 5, 5, 5, 1, 5, 1, 1)

    def test_two_sensors(self):
        assert ies_of(SensorArray((0, 5))) == (5,)

    def test_from_ies(self):
        assert array_from_ies((1, 1, 3, 1, 2, 1)).positions == (0, 1, 2, 5, 6, 8, 9)
        assert array_from_ies((5,)).positions == (0, 5)

    def test_fifteen_sensor_row(self):
        arr = array_from_ies((1, 1, 2, 1, 4, 5, 5, 5, 5, 5, 1, 5, 1, 1))
        assert arr.positions == (0, 1, 2, 4, 5, 9, 14, 19, 24, 29, 34, 35, 40, 41, 42)

    def test_nonpositive_spacing(self):
        with pytest.raises(NonPositiveSpacing):
            array_from_ies((1, 0, 2))

    def test_empty_spacing_vector(self):
        with pytest.raises(EmptyInput, match="empty spacing vector"):
            array_from_ies([])

    @given(arrays)
    def test_round_trip_from_array(self, arr):
        assert array_from_ies(ies_of(arr)).positions == arr.positions

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=12))
    def test_round_trip_from_ies(self, spacings):
        assert ies_of(array_from_ies(spacings)) == tuple(spacings)


class TestMirror:
    def test_examples(self):
        assert mirror(RMRA7).positions == (0, 1, 3, 4, 7, 8, 9)
        assert mirror(SensorArray((0, 3, 6))).positions == (0, 3, 6)
        assert mirror(SensorArray((0, 1, 2, 3, 5, 6))).positions == (0, 1, 3, 4, 5, 6)

    @given(arrays)
    def test_involution(self, arr):
        assert mirror(mirror(arr)).positions == arr.positions

    @given(arrays)
    def test_weights_invariant(self, arr):
        assert weight_table(mirror(arr)).counts == weight_table(arr).counts


class TestExtendRepeatedSpacing:
    def test_thirteen_to_fifteen(self):
        arr = SensorArray((0, 1, 2, 4, 5, 9, 14, 19, 24, 25, 30, 31, 32))
        grown = extend_repeated_spacing(arr, 2)
        assert grown.positions == (0, 1, 2, 4, 5, 9, 14, 19, 24, 29, 34, 35, 40, 41, 42)

    def test_fifteen_to_seventeen_and_nineteen(self):
        arr = SensorArray((0, 1, 2, 4, 5, 9, 14, 19, 24, 29, 34, 35, 40, 41, 42))
        seventeen = extend_repeated_spacing(arr, 2)
        assert seventeen.n == 17 and seventeen.aperture == 52
        nineteen = extend_repeated_spacing(arr, 4)
        assert nineteen.n == 19 and nineteen.aperture == 62

    def test_no_repeated_run(self):
        with pytest.raises(NoRepeatedRun):
            extend_repeated_spacing(SensorArray((0, 1, 3, 7)), 1)

    def test_zero_extra_is_identity(self):
        assert extend_repeated_spacing(RMRA7, 0).positions == RMRA7.positions

    def test_negative_extra(self):
        with pytest.raises(ValueError):
            extend_repeated_spacing(RMRA7, -1)

    def test_longest_run_wins(self):
        # ies (1,1,5,5,5): the later but longer run of fives is extended
        arr = array_from_ies((1, 1, 5, 5, 5))
        assert ies_of(extend_repeated_spacing(arr, 1)) == (1, 1, 5, 5, 5, 5)

    def test_leftmost_run_breaks_ties(self):
        arr = array_from_ies((1, 1, 3, 2, 2))
        assert ies_of(extend_repeated_spacing(arr, 1)) == (1, 1, 1, 3, 2, 2)
