"""The two scanner backends must be interchangeable, bit for bit."""

from __future__ import annotations

import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rmra
from rmra import _kernel_py, kernel
from rmra.catalog import all_entries
from rmra.coarray import SensorArray, mirror
from rmra.kernel import BACKEND, _rank_lex, _unrank_lex
from rmra.robustness import rmra_check
from rmra.search import (
    SearchConfig,
    aperture_upper_bound,
    candidate_count,
    loses_search,
    rank_candidate,
    unrank_candidate,
)

from conftest import TABLE3

BACKENDS = {"python": _kernel_py.scan}
if kernel._kernel_c is not None:
    BACKENDS["c"] = kernel._kernel_c.scan
HAS_C = "c" in BACKENDS

needs_c = pytest.mark.skipif(not HAS_C, reason="compiled kernel not built")


def full_scan(scan, n, l, filtered):
    """One call over the whole stage, without the engine's own node count."""
    return scan(n, l, 0, candidate_count(n, l, filtered), filtered)[:4]


def windowed_scan(scan, n, l, filtered, width=7):
    """A full stage scanned as consecutive windows of ``width`` candidates,
    each starting where the last one ended, as ``run_stage`` chunks a stage;
    returned as one whole-stage call would return it."""
    size = candidate_count(n, l, filtered)
    for lo in range(0, size, width):
        examined, offset, positions, index, _ = scan(n, l, lo, min(lo + width, size), filtered)
        if offset >= 0:
            return lo + examined, lo + offset, positions, index
    return size, -1, None, None


def oracle(n, l, start, end, filtered):
    """``scan``'s answer, less its node count, by brute force, sharing no
    scanning code with either engine: walk the window's candidates in rank
    order and take the first that ``rmra_check`` passes and that comes no
    later than its mirror."""
    k, m, _ = kernel.stage_shape(n, l, filtered)
    for r in range(start, end):
        if filtered:
            arr = SensorArray((0, 1, *(v + 2 for v in _unrank_lex(r, m, k)), l - 1, l))
        else:
            arr = unrank_candidate(n, l, r)
        if rmra_check(arr, n, l).overall and arr.positions <= mirror(arr).positions:
            return r - start + 1, r - start, list(arr.positions), rank_candidate(n, l, arr)
    return end - start, -1, None, None


def assert_unfiltered_index(n, l, result):
    """A find's 4th element is its rank in the unfiltered numbering."""
    _, offset, positions, index = result[:4]
    assert index == (rank_candidate(n, l, positions) if offset >= 0 else None)


def test_backend_selected():
    assert BACKEND in BACKENDS
    if HAS_C:  # the search calls the engine with nothing in between
        assert kernel.scan is kernel._kernel_c.scan


def test_falls_back_to_python_when_the_extension_is_missing():
    # sys.modules[name] = None makes ``from . import _kernel_c`` raise ImportError
    code = (
        "import sys; sys.modules['rmra._kernel_c'] = None;"
        " import rmra; print(rmra.KERNEL_BACKEND)"
    )
    src = Path(rmra.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "python"


@needs_c
@pytest.mark.parametrize("filtered", [False, True])
def test_search_on_the_fallback_matches_the_compiled_engine(monkeypatch, filtered):
    # The whole search as a build without the extension runs it.
    def runs():
        return [
            loses_search(SearchConfig(n=n, prune_filters=filtered)).to_dict(include_timing=False)
            for n in range(6, 11)
        ]

    compiled = runs()
    monkeypatch.setattr(kernel, "scan", _kernel_py.scan)
    assert runs() == compiled


@needs_c
@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("windowed", [False, True])
@pytest.mark.parametrize("n,l", [(6, 6), (6, 9), (7, 10), (8, 13), (11, 11), (11, 17)])
def test_backends_agree_on_full_stages(n, l, windowed, filtered):
    # One call over the whole stage, or a window of 7 candidates at a time
    # resumed where the last ended: the same find and prefix count.
    scan_stage = windowed_scan if windowed else full_scan
    results = {name: scan_stage(scan, n, l, filtered) for name, scan in BACKENDS.items()}
    assert results["python"] == results["c"] == full_scan(BACKENDS["c"], n, l, filtered)


@needs_c
@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
def test_backends_agree_on_every_stage_up_to_the_pair_budget(n, filtered):
    # Every aperture a search can reach, found and exhausted stages alike.
    for l in range(n, aperture_upper_bound(n) + 1):
        expected = full_scan(BACKENDS["python"], n, l, filtered)
        assert full_scan(BACKENDS["c"], n, l, filtered) == expected, l


@needs_c
@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("n,l", [(11, 22), (12, 26)])
def test_backends_agree_on_windows_at_the_first_valid_array(n, l, filtered):
    # Windows that start, or end, one rank before, at and after the stage's
    # first valid array: an off-by-one in either window bound moves a find.
    k, m, base = (n - 4, l - 3, 2) if filtered else (n - 2, l - 1, 1)
    array = loses_search(SearchConfig(n=n, l_start=l, l_limit=l)).stages[0].array
    r = _rank_lex([p - base for p in array.positions[base : n - base]], m, k)
    windows = []
    for edge in (r - 1, r, r + 1):
        windows += [(edge, count) for count in (1, 2, 500)]  # starting at edge
        windows += [(edge - count + 1, count) for count in (1, 2, 500)]  # ending at edge
    for start, count in windows:
        end = start + count
        out = {name: scan(n, l, start, end, filtered)[:4] for name, scan in BACKENDS.items()}
        assert out["python"] == out["c"], (start, end)
        found_at = start + out["c"][1] if out["c"][1] >= 0 else None
        assert (found_at == r) == (start <= r < end)


@needs_c
def test_backends_agree_on_random_ranges():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(6, 10)
        l = rng.randint(n, n + 8)
        filtered = rng.random() < 0.5
        size = candidate_count(n, l, filtered)
        start = rng.randrange(size)
        end = rng.randint(start + 1, size)
        out = {name: scan(n, l, start, end, filtered)[:4] for name, scan in BACKENDS.items()}
        assert out["python"] == out["c"], (n, l, filtered, start, end)
        assert_unfiltered_index(n, l, out["c"])


@needs_c
@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("n,l", [(9, 12), (9, 14), (10, 17)])
def test_windows_with_tied_ends_match_the_oracle(n, l, filtered):
    # The compiled engine tracks whether the decided left part still equals
    # the window's first or last combination there, and tests the window only
    # while it does. Windows a few ranks wide have ends that share all but
    # their last points; those that start or end at a valid array, or one
    # rank past it, or that run from one valid array to the next, put a find
    # at the window's first and last candidate and just outside either end.
    k, m, _ = kernel.stage_shape(n, l, filtered)
    size = math.comb(m, k)
    finds = [r for r in range(size) if oracle(n, l, r, r + 1, filtered)[1] == 0]
    assert len(finds) >= 10
    windows = list(zip(finds, [b - a + 1 for a, b in zip(finds, finds[1:])]))
    windows += [(a + 1, b - a) for a, b in zip(finds, finds[1:])]
    for r in finds[:20] + finds[-20:]:
        for w in (1, 2, 3, 9):
            windows += [(r, w), (r - w + 1, w), (r + 1, w), (r - w, w)]
    shared = 0
    for start, count in windows:
        if not 0 <= start < size:
            continue
        end = min(start + count, size)
        first = _unrank_lex(start, m, k)
        last = _unrank_lex(end - 1, m, k)
        shared = max(shared, next((i for i in range(k) if first[i] != last[i]), k))
        expected = oracle(n, l, start, end, filtered)
        for name, scan in BACKENDS.items():
            assert scan(n, l, start, end, filtered)[:4] == expected, (name, start, end)
    assert shared >= k - 1


@needs_c
def test_backends_agree_across_the_word_boundary():
    # Apertures 60-90 and 120-135 put the compiled kernel on both sides of
    # its switches from one-word (l <= 63) to two-word (l <= 127) and from
    # two-word to four-word (l <= 255) bitsets. Random windows there hold no
    # valid array, so the catalog arrays at apertures 61-66 (near-optimal, 19
    # and 20 sensors) add two-word windows around them and their mirrors:
    # the mirror-canonical one of each pair ends its window in a find.
    rng = random.Random(6364)
    windows = []
    for lo, hi in ((60, 90), (120, 135)):
        for _ in range(120):
            n = rng.randint(6, 8)
            l = rng.randint(lo, hi)
            filtered = rng.random() < 0.5
            size = candidate_count(n, l, filtered)
            start = rng.randrange(size)
            windows.append((n, l, filtered, start, min(start + rng.randint(1, 3000), size)))
    for entry in all_entries():
        if entry.family != "RMRA" or entry.l < 60:
            continue
        n, l = entry.n, entry.l
        for arr in (entry.positions, tuple(l - p for p in reversed(entry.positions))):
            start = max(0, rank_candidate(n, l, arr) - 700)
            windows.append((n, l, False, start, start + 1000))
    assert {l <= 63 for _, l, *_ in windows} == {True, False}
    assert {l <= 127 for _, l, *_ in windows} == {True, False}
    two_word_finds = 0
    for n, l, filtered, start, end in windows:
        out = {name: scan(n, l, start, end, filtered)[:4] for name, scan in BACKENDS.items()}
        assert out["python"] == out["c"], (n, l, filtered, start, end)
        assert_unfiltered_index(n, l, out["c"])
        two_word_finds += l > 63 and out["c"][1] >= 0
    assert two_word_finds


# The first valid array of stage 27/79 (two-word, C(78, 25) > 2**64
# candidates), at a 22-bit rank.
F27 = (*range(21), 36, 37, 57, 58, 78, 79)
# A valid array at a 65-bit rank of the same stage: six interior sensors
# added to the 21-sensor, aperture-79 array, then mirrored. Its mirror comes
# first.
N27 = (0, 1, 4, 5, 8, 9, 16, 17, 19, 23, 24, 25, 27, 29, 31, 32, 41, 45, 47,
       64, 65, 66, 67, 76, 77, 78, 79)  # fmt: skip
# The first valid array of stage 36/128 (four-word), at a 34-bit rank; its
# mirror lies at a 101-bit rank.
N36 = (*range(28), 39, 57, 68, 80, 99, 108, 127, 128)


@needs_c
@pytest.mark.parametrize(
    "positions,bits,canonical",
    [
        (F27, 22, True),
        (N27, 65, False),
        (N36, 34, True),
        (tuple(128 - p for p in reversed(N36)), 101, False),
    ],
    ids=["27-79-first", "27-79", "36-128", "36-128-mirror"],
)
def test_backends_agree_on_finds_at_wide_ranks(positions, bits, canonical):
    # The engine unranks the window and ranks the find in 192-bit words, and
    # the stage sizes here pass 2**64; a carry or borrow lost past the low
    # word would move the find. An array whose mirror comes first is skipped,
    # so windows around the non-canonical arrays hold no find. (A narrow
    # window deep in a large stage can cost the engine seconds or minutes, so
    # these windows stay near ranks it reaches quickly.)
    n, l = len(positions), positions[-1]
    arr = SensorArray(positions)
    assert rmra_check(arr, n, l).overall
    assert (arr.positions <= mirror(arr).positions) == canonical
    r = rank_candidate(n, l, positions)
    assert r.bit_length() == bits
    for start, end in ((r - 200, r + 200), (r, r + 1)):
        out = {name: scan(n, l, start, end)[:4] for name, scan in BACKENDS.items()}
        found = (r - start + 1, r - start, list(positions), r)
        assert out["python"] == out["c"] == (found if canonical else (end - start, -1, None, None))


@needs_c
@pytest.mark.parametrize("filtered", [False, True])
def test_backends_agree_on_the_141_bit_stage_end(filtered):
    # Stage 36/253 has C(252, 34) unfiltered candidates, a 141-bit count
    # (C(250, 32) filtered). Windows that end exactly at the stage end, an
    # end rank that needs all three words of the engine's ranks, examine
    # what is left; the engine cuts them at the first decisions. One rank
    # further is past the stage on both engines.
    n, l = 36, 253
    size = candidate_count(n, l, filtered)
    assert size.bit_length() == (135 if filtered else 141)
    for start in (size - 500, size - 1):
        out = {name: scan(n, l, start, size, filtered)[:4] for name, scan in BACKENDS.items()}
        assert out["python"] == out["c"] == (size - start, -1, None, None), start
        for scan in BACKENDS.values():
            with pytest.raises(ValueError, match="end rank outside"):
                scan(n, l, start, size + 1, filtered)


@needs_c
def test_backends_agree_on_windows_past_the_stage_end():
    # Each window starts mid-stage, so the compiled kernel rebuilds its
    # per-depth state from an arbitrary combination. Ending at the stage end,
    # the enumeration runs out with the window; ending past it, the window
    # is rejected by both engines with the same message.
    rng = random.Random(2718)
    for _ in range(80):
        n = rng.randint(5, 11)
        l = rng.randint(n, n + 14)
        filtered = rng.random() < 0.5
        size = candidate_count(n, l, filtered)
        start = rng.randrange(max(0, size - 2000), size)
        out = {name: scan(n, l, start, size, filtered)[:4] for name, scan in BACKENDS.items()}
        assert out["python"] == out["c"], (n, l, filtered, start)
        assert_unfiltered_index(n, l, out["c"])
        examined, offset, _, _ = out["c"]
        assert examined == (offset + 1 if offset >= 0 else size - start)
        end = size + rng.randint(1, 10**6)
        errors = set()
        for scan in BACKENDS.values():
            with pytest.raises(ValueError) as info:
                scan(n, l, start, end, filtered)
            errors.add(str(info.value))
        assert len(errors) == 1, errors


@needs_c
@pytest.mark.parametrize(
    "n,l,filtered,size", [(11, 23, False, 497_420), (12, 27, True, 735_471)]
)
def test_backends_agree_on_exhausted_reference_stages(n, l, filtered, size):
    # the exhaustion proofs of the 11- and 12-sensor optima, as searches scan them
    results = {name: full_scan(scan, n, l, filtered) for name, scan in BACKENDS.items()}
    assert results["python"] == results["c"] == (size, -1, None, None)


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_single_candidate_matches_reference_checker(name):
    # scanning one candidate finds it iff it is valid and mirror-canonical
    scan = BACKENDS[name]
    rng = random.Random(4242)
    windows = []
    for _ in range(300):
        n = rng.randint(6, 10)
        l = rng.randint(n, n + 8)
        windows.append((n, l, rng.randrange(candidate_count(n, l, False))))
    # valid arrays and their mirrors, so both verdicts of a valid array occur
    for positions in TABLE3.values():
        n, l = len(positions), positions[-1]
        for arr in (SensorArray(positions), mirror(SensorArray(positions))):
            windows.append((n, l, rank_candidate(n, l, arr)))
    verdicts = set()
    for n, l, idx in windows:
        examined, offset, positions, index, _ = scan(n, l, idx, idx + 1)
        assert examined == 1
        arr = unrank_candidate(n, l, idx)
        valid = rmra_check(arr, n, l).overall
        expected = valid and arr.positions <= mirror(arr).positions
        assert (offset == 0) == expected, arr.positions
        if expected:
            assert (tuple(positions), index) == (arr.positions, idx)
        verdicts.add((valid, expected))
    assert verdicts == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_mirror_prune_counts_skipped_candidates(name):
    # A stage's first valid array is mirror-canonical, so skipping arrays
    # whose mirror comes first never changes a full scan: it equals the
    # brute-force oracle, a find with its offset and array, and an exhausted
    # stage counts every candidate, skipped mirrors included.
    scan = BACKENDS[name]
    stages = [(6, 6), (6, 9), (7, 9), (7, 10), (8, 12), (8, 13), (9, 15), (10, 19), (11, 22)]
    outcomes = set()
    for filtered in (False, True):
        for n, l in stages:
            size = candidate_count(n, l, filtered)
            result = full_scan(scan, n, l, filtered)
            assert result == oracle(n, l, 0, size, filtered), (n, l, filtered)
            if result[1] == -1:
                assert result[0] == size
            outcomes.add(result[1] == -1)
    assert outcomes == {False, True}  # both found and exhausted stages covered


@needs_c
def test_engine_counts_a_138_bit_window_exactly():
    # From rank C(251, 33) on, no candidate of stage 36/253 holds grid point
    # 1, so lag 252 has one pair and every node is cut at the first two
    # decisions: the engine exhausts C(251, 34) candidates at once, and
    # `examined` needs all three words of a rank. Only the count can be
    # checked; the pure-Python scanner would visit each candidate.
    start, size = math.comb(251, 33), math.comb(252, 34)
    assert BACKENDS["c"](36, 253, start, size)[:4] == (math.comb(251, 34), -1, None, None)
    window = BACKENDS["c"](36, 253, start, start + 2**137 + 5)
    assert window[:4] == (2**137 + 5, -1, None, None)
    assert window[4] < 10  # cut at the first decisions


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_guards(name):
    scan = BACKENDS[name]
    # both engines check their own ranges, with the same messages
    cases = [
        (3, 10, "sensor count 3 outside supported range 4..36"),
        (37, 40, "sensor count 37 outside supported range 4..36"),
        (6, 5, "aperture 5 outside supported range 6..255"),
        (6, 300, "aperture 300 outside supported range 6..255"),  # beyond the buffers
        (36, 256, "aperture 256 outside supported range 36..255"),
    ]
    for n, l, message in cases:
        with pytest.raises(ValueError) as info:
            scan(n, l, 0, 1, False)
        assert str(info.value) == message
    # windows: 0 <= start < end <= the stage size, C(8, 4) = 70 for 6/9
    windows = [
        (70, 71, "start rank outside the stage's 4-of-8 enumeration"),
        (0, 0, "end rank outside start+1..the size of the stage's 4-of-8 enumeration"),
        (5, 4, "end rank outside start+1..the size of the stage's 4-of-8 enumeration"),
        (0, 71, "end rank outside start+1..the size of the stage's 4-of-8 enumeration"),
    ]
    for start, end, message in windows:
        with pytest.raises(ValueError) as info:
            scan(6, 9, start, end, False)
        assert str(info.value) == message


def test_one_definition_numbers_every_stage():
    assert kernel.stage_shape is _kernel_py.stage_shape
    package = Path(rmra.__file__).resolve().parent
    defining = [
        path.name
        for path in sorted(package.glob("*.py"))
        if re.search(r"^def (stage_shape|_setup)\b", path.read_text(), re.M)
    ]
    assert defining == ["_kernel_py.py"]
    assert kernel.stage_shape(11, 23, False) == (9, 22, 1)
    assert kernel.stage_shape(11, 23, True) == (7, 20, 2)
    assert kernel.stage_shape(40, 300, False) == (38, 299, 1)  # past the engines' range
    for n, l in ((3, 5), (8, 7)):
        with pytest.raises(ValueError, match="need l >= n >= 4"):
            kernel.stage_shape(n, l, False)


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_scan_has_no_mirror_switch(name):
    # Skipping arrays whose mirror comes first is the engines' rule, not an
    # option: scan(n, l, start, end, filtered) takes nothing more.
    scan = BACKENDS[name]
    with pytest.raises(TypeError):
        scan(6, 9, 0, 1, False, True)
    with pytest.raises(TypeError):
        scan(6, 9, 0, 1, mirror_prune=True)
    assert scan(6, 9, 0, 1, filtered=True) == scan(6, 9, 0, 1, True)


@needs_c
@pytest.mark.parametrize("filtered", [False, True])
def test_backends_reject_the_same_bad_windows(filtered):
    n, l = 6, 9
    size = candidate_count(n, l, filtered)
    bad = [
        (-1, 1, ValueError),
        (size, size + 1, ValueError),  # start past the last rank
        (size + 1, "x", ValueError),  # checked before the end
        (-(2**70), 1, ValueError),
        (2**200, 1, ValueError),
        (1.0, 1, TypeError),
        ("0", 1, TypeError),
        ([0, 1, 2, 3], 1, TypeError),  # the old combination argument
        (None, 1, TypeError),
        (0, 1.0, TypeError),
        (0, None, TypeError),
        (0, 0, ValueError),  # an empty window: end <= start
        (5, 5, ValueError),
        (5, 4, ValueError),
        (size - 1, -1, ValueError),
        (0, -(2**70), ValueError),
        (0, size + 1, ValueError),  # end past the stage
        (size - 1, 2**200, ValueError),
    ]
    for start, end, error in bad:
        messages = set()
        for scan in BACKENDS.values():
            with pytest.raises(error) as info:
                scan(n, l, start, end, filtered)
            messages.add(str(info.value))
        if error is ValueError:
            assert len(messages) == 1, (start, end, messages)


def test_rank_lex_round_trips_past_141_bits():
    # _rank_lex sums k binomials; _unrank_lex walks the points one by one.
    rng = random.Random(141)
    shapes = [(252, 34), (254, 34), (250, 32), (76, 23), (10, 0), (10, 10), (1, 1)]
    shapes += [(m, rng.randint(0, min(m, 34))) for m in rng.sample(range(1, 255), 40)]
    for m, k in shapes:
        size = math.comb(m, k)
        ranks = {0, size - 1, size // 2} | {rng.randrange(size) for _ in range(20)}
        for r in ranks:
            combo = _unrank_lex(r, m, k)
            assert len(combo) == k and combo == sorted(set(combo)) and all(0 <= c < m for c in combo)
            assert _rank_lex(combo, m, k) == r, (m, k, r)
    assert math.comb(252, 34).bit_length() == 141


# Nodes the compiled engine visits in one call over the whole stage. The
# found stages end at their first valid array; with "sensor" tried first at
# the right end as well as the left, they visit 1,136, 2,121, 82,120 and
# 1,244,603. The exhausted stages visit every node in any order.
STAGE_NODES = {
    (11, 22, False): (True, 315),
    (12, 26, True): (True, 357),
    (14, 36, True): (True, 4_963),
    (16, 47, True): (True, 613_183),
    (12, 27, True): (False, 9_630),
    (13, 33, True): (False, 14_862),
    (16, 48, True): (False, 1_697_853),
}


@needs_c
@pytest.mark.parametrize("n,l,filtered", sorted(STAGE_NODES))
def test_engine_node_counts_are_pinned_and_repeat(n, l, filtered):
    # An exact count, unlike a wall time: it moves only when the search tree
    # does. The right end's "no sensor first" order and the re-tie to a new
    # find in either order each change the found stages' counts.
    found, nodes = STAGE_NODES[n, l, filtered]
    scan = BACKENDS["c"]
    size = candidate_count(n, l, filtered)
    first = scan(n, l, 0, size, filtered)
    assert (first[1] >= 0, first[4]) == (found, nodes)
    assert scan(n, l, 0, size, filtered) == first


@needs_c
def test_both_engines_return_their_node_count():
    # The 5th element is the call's work: the compiled engine's search nodes,
    # the candidates the pure-Python walk tested, which are all it examined.
    windows = [
        (11, 22, 0, 10**5, False),  # the stage's first valid array at rank 5,499
        (12, 27, 700_000, 735_471, True),  # the end of an exhausted stage
        (9, 14, 5, 305, True),
        (6, 9, 3, 4, False),  # past the pair budget: the engine searches no node
        (36, 253, 0, 500, False),
    ]
    for n, l, start, end, filtered in windows:
        out = {name: scan(n, l, start, end, filtered) for name, scan in BACKENDS.items()}
        assert out["python"][:4] == out["c"][:4]
        assert out["python"][4] == out["python"][0]
        assert type(out["c"][4]) is int and (out["c"][4] == 0) == (l > aperture_upper_bound(n))
    for scan in BACKENDS.values():
        with pytest.raises(TypeError):  # the count is always returned; no switch asks for it
            scan(6, 9, 0, 1, False, nodes=True)
