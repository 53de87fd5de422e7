"""The two scanner backends must be interchangeable, bit for bit."""

from __future__ import annotations

import random

import pytest

from rmra.coarray import SensorArray
from rmra.kernel import BACKEND, available_backends
from rmra.robustness import rmra_check
from rmra.search import _unrank_active, candidate_count

BACKENDS = available_backends()
HAS_C = "c" in BACKENDS

needs_c = pytest.mark.skipif(not HAS_C, reason="compiled kernel not built")


def full_scan(scan, n, l, filtered, mirror):
    size = candidate_count(n, l, filtered)
    first = _unrank_active(n, l, filtered, 0)
    return scan(n, l, first, size, filtered, mirror)


def test_backend_selected():
    assert BACKEND in BACKENDS


@needs_c
@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("n,l", [(6, 6), (6, 9), (7, 10), (8, 13), (11, 11), (11, 17)])
def test_backends_agree_on_full_stages(n, l, filtered, mirror):
    results = {
        name: full_scan(scan, n, l, filtered, mirror) for name, scan in BACKENDS.items()
    }
    assert results["python"] == results["c"]


@needs_c
def test_backends_agree_on_random_ranges():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(6, 10)
        l = rng.randint(n, n + 8)
        filtered = rng.random() < 0.5
        size = candidate_count(n, l, filtered)
        start = rng.randrange(size)
        count = rng.randint(1, size - start)
        first = _unrank_active(n, l, filtered, start)
        mirror = rng.random() < 0.5
        out = {
            name: scan(n, l, list(first), count, filtered, mirror)
            for name, scan in BACKENDS.items()
        }
        assert out["python"] == out["c"]


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_single_candidate_matches_reference_checker(name):
    # scanning one candidate is exactly the validity verdict
    scan = BACKENDS[name]
    rng = random.Random(4242)
    for _ in range(300):
        n = rng.randint(6, 10)
        l = rng.randint(n, n + 8)
        size = candidate_count(n, l, False)
        idx = rng.randrange(size)
        first = _unrank_active(n, l, False, idx)
        examined, offset, positions = scan(n, l, first, 1, False, False)
        assert examined == 1
        arr = SensorArray((0, *(v + 1 for v in first), l))
        expected = rmra_check(arr, n, l).overall
        assert (offset == 0) == expected
        if expected:
            assert tuple(positions) == arr.positions


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_mirror_prune_counts_skipped_candidates(name):
    # The first valid array of a stage is mirror-canonical, so pruning never
    # changes a full scan: a find keeps its offset and array, and an exhausted
    # stage still counts every candidate, skipped mirrors included.
    scan = BACKENDS[name]
    stages = [(6, 6), (6, 9), (7, 9), (8, 12), (8, 13), (9, 15), (10, 19), (11, 22)]
    outcomes = set()
    for filtered in (False, True):
        for n, l in stages:
            plain = full_scan(scan, n, l, filtered, False)
            assert full_scan(scan, n, l, filtered, True) == plain, (n, l, filtered)
            if plain[1] == -1:
                assert plain[0] == candidate_count(n, l, filtered)
            outcomes.add(plain[1] == -1)
    assert outcomes == {False, True}  # both found and exhausted stages covered


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_guards(name):
    scan = BACKENDS[name]
    with pytest.raises(ValueError):
        scan(3, 10, [1], 1, False, False)  # n too small
    with pytest.raises(ValueError):
        scan(6, 5, [0, 1, 2, 3], 1, False, False)  # l < n
    with pytest.raises(ValueError):
        scan(6, 300, [0, 1, 2, 3], 1, False, False)  # aperture beyond buffers
    with pytest.raises(ValueError):
        scan(6, 9, [0, 1, 2], 1, False, False)  # wrong combo length
    with pytest.raises(ValueError):
        scan(6, 9, [3, 2, 1, 0], 1, False, False)  # not increasing

    assert scan(6, 9, [0, 1, 2, 3], 0, False, False) == (0, -1, None)
