"""Workload definitions, reference data and correctness oracles.

The references are typed in from the paper's tables and held here, never
read back from ``rmra.catalog``: a benchmark that checked the program
against the program's own data would pass whatever the program says.

Every oracle returns a list of problems; an empty list means the command's
output is correct. Oracles run outside the timed region.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

# Optimal arrays for 6..15 sensors (tables 3 and 5, appendix A.1).
OPTIMAL = {
    6: (0, 1, 2, 3, 5, 6),
    7: (0, 1, 2, 4, 6, 8, 9),
    8: (0, 1, 2, 3, 5, 8, 11, 12),
    9: (0, 1, 2, 3, 4, 9, 10, 14, 15),
    10: (0, 1, 2, 6, 7, 8, 15, 16, 18, 19),
    11: (0, 1, 2, 3, 4, 10, 11, 16, 17, 21, 22),
    12: (0, 1, 2, 3, 4, 5, 12, 13, 19, 20, 25, 26),
    13: (0, 1, 2, 4, 5, 9, 14, 19, 24, 25, 30, 31, 32),
    14: (0, 1, 2, 3, 4, 5, 12, 14, 21, 23, 29, 30, 35, 36),
    15: (0, 1, 2, 4, 5, 9, 14, 19, 24, 29, 34, 35, 40, 41, 42),
}

# Near-optimal arrays for 16..20 sensors (table 6).
NEAR_OPTIMAL = {
    16: (0, 1, 2, 3, 5, 7, 16, 18, 26, 29, 35, 38, 39, 43, 46, 47),
    17: (0, 1, 2, 3, 4, 5, 6, 7, 8, 18, 20, 30, 32, 41, 42, 50, 51),
    18: (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 20, 22, 33, 35, 45, 46, 55, 56),
    19: (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 22, 24, 36, 38, 49, 50, 60, 61),
    20: (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 24, 26, 39, 41, 53, 54, 65, 66),
}

# The 13-sensor double-difference array with a critical interior sensor at 16.
FRA2_13 = (0, 1, 7, 8, 16, 17, 25, 26, 27, 28, 29, 30, 31)

# First valid array per aperture for 11 sensors, L = 11..22 (table 4).
TABLE_4 = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 12),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 13),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 13, 14),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 14, 15),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 16),
    (0, 1, 2, 3, 4, 5, 6, 8, 10, 16, 17),
    (0, 1, 2, 3, 4, 5, 6, 8, 11, 17, 18),
    (0, 1, 2, 3, 4, 5, 6, 11, 12, 18, 19),
    (0, 1, 2, 3, 4, 5, 6, 12, 13, 19, 20),
    (0, 1, 2, 3, 4, 5, 6, 13, 14, 20, 21),
    (0, 1, 2, 3, 4, 10, 11, 16, 17, 21, 22),
)

# First valid array per aperture for 12 sensors, L = 12..26 (table A.1).
TABLE_A1_12 = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 14),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 14, 15),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 18),
    (0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 18, 19),
    (0, 1, 2, 3, 4, 5, 6, 7, 9, 12, 19, 20),
    (0, 1, 2, 3, 4, 5, 6, 7, 12, 13, 20, 21),
    (0, 1, 2, 3, 4, 5, 6, 7, 13, 14, 21, 22),
    (0, 1, 2, 3, 4, 5, 6, 7, 14, 15, 22, 23),
    (0, 1, 2, 3, 4, 5, 6, 7, 15, 16, 23, 24),
    (0, 1, 2, 3, 4, 5, 12, 13, 18, 19, 24, 25),
    (0, 1, 2, 3, 4, 5, 12, 13, 19, 20, 25, 26),
)

CATALOG_ARRAYS = (
    tuple(OPTIMAL.values()) + tuple(NEAR_OPTIMAL.values()) + (FRA2_13,) + TABLE_4 + TABLE_A1_12
)

VERIFY_EVERY = 64  # one `rmra verify` per this many analysis commands


@dataclass(frozen=True)
class SearchExpectation:
    """What a complete search must report: one found stage per table row,
    then an exhausted stage of known size."""

    n: int
    rows: tuple[tuple[int, ...], ...]
    exhausted_count: int

    @property
    def aperture(self) -> int:
        return self.rows[-1][-1]


# 12 sensors, filtered: the exhausted stage L=27 pins 0, 1, 26 and 27 and
# places the other 8 sensors among the 24 remaining grid points.
PROOF_12 = SearchExpectation(12, TABLE_A1_12, math.comb(24, 8))
# 11 sensors, unfiltered: 9 interior sensors among 22 grid points at L=23.
PAPER_11 = SearchExpectation(11, TABLE_4, math.comb(22, 9))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "search" or "analysis"
    search_flags: tuple[str, ...] = ()
    expectation: SearchExpectation | None = None

    @property
    def workers(self) -> int:
        flags = self.search_flags
        return int(flags[flags.index("--workers") + 1]) if "--workers" in flags else 1


WORKLOADS = {
    "proof-serial": Workload(
        "proof-serial", "search", ("--n", "12", "--deterministic"), PROOF_12
    ),
    "paper-parallel": Workload(
        "paper-parallel",
        "search",
        ("--n", "11", "--no-filters", "--deterministic", "--workers", "2"),
        PAPER_11,
    ),
    "analysis": Workload("analysis", "analysis"),
}


def search_argv(wl: Workload, checkpoint: Path) -> list[str]:
    return ["search", *wl.search_flags, "--checkpoint", str(checkpoint), "--format", "json"]


def warmup_search_argv(wl: Workload, checkpoint: Path) -> list[str]:
    """The workload's search flags on 8 sensors: same code path, milliseconds."""
    flags = list(wl.search_flags)
    flags[flags.index("--n") + 1] = "8"
    return ["search", *flags, "--checkpoint", str(checkpoint), "--format", "json"]


def _pair_budget_aperture(n: int) -> int:
    """Widest aperture whose lags 1..L-1 could all be covered twice."""
    return (n * (n - 1) // 2 + 1) // 2


def _random_array(rng: random.Random) -> tuple[int, ...]:
    n = rng.randint(6, 20)
    aperture = rng.randint(n, _pair_budget_aperture(n))
    interior = rng.sample(range(1, aperture), n - 2)
    return (0, *sorted(interior), aperture)


def _moved_sensor(rng: random.Random) -> tuple[int, ...]:
    """A catalog array with one interior sensor moved to a free grid point."""
    pos = list(rng.choice(CATALOG_ARRAYS))
    free = sorted(set(range(1, pos[-1])) - set(pos))
    if not free:  # fully packed aperture: nothing to move to
        return tuple(pos)
    pos[rng.randrange(1, len(pos) - 1)] = rng.choice(free)
    return tuple(sorted(pos))


def analysis_stream(seed: int) -> Iterator[list[str]]:
    """Endless seeded command stream: analyze commands on catalog arrays,
    moved-sensor variants and uniform random arrays, with a verify every
    ``VERIFY_EVERY`` commands. Some inputs arrive shifted and unsorted so
    that canonicalisation has work to do."""
    rng = random.Random(seed)
    index = 0
    while True:
        index += 1
        if index % VERIFY_EVERY == 0:
            yield ["verify", "--format", "json"]
            continue
        kind = rng.randrange(3)
        if kind == 0:
            pos = list(rng.choice(CATALOG_ARRAYS))
        elif kind == 1:
            pos = list(_moved_sensor(rng))
        else:
            pos = list(_random_array(rng))
        if rng.random() < 0.25:
            offset = rng.randint(1, 50)
            pos = [p + offset for p in pos]
            rng.shuffle(pos)
        yield ["analyze", ",".join(map(str, pos)), "--format", "json"]


# ---------------------------------------------------------------- oracles


def parse_envelope(stdout: str, command: str) -> tuple[dict | None, list[str]]:
    """Stdout must be exactly one JSON envelope for ``command``."""
    try:
        env = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not exactly one JSON document: {exc}"]
    if (
        not isinstance(env, dict)
        or env.get("command") != command
        or not isinstance(env.get("result"), dict)
    ):
        return None, [f"stdout is not a {command} envelope"]
    return env, []


def check_search(
    code: int, stdout: str, checkpoint: Path, expect: SearchExpectation
) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    if checkpoint.exists():
        problems.append("checkpoint file left behind after the verdict")
    env, bad = parse_envelope(stdout, "search")
    if env is None:
        return problems + bad
    r = env["result"]
    if r.get("verdict") != "optimal":
        problems.append(f"verdict {r.get('verdict')!r}, expected 'optimal'")
    if r.get("optimal_aperture") != expect.aperture:
        problems.append(f"aperture {r.get('optimal_aperture')}, expected {expect.aperture}")
    stages = r.get("stages") or []
    found = [s for s in stages if s.get("outcome") == "found"]
    got_rows = [tuple(s.get("array") or ()) for s in found]
    if got_rows != list(expect.rows):
        problems.append("found-stage arrays differ from the reference table")
    if [s.get("l") for s in found] != [row[-1] for row in expect.rows]:
        problems.append("found-stage apertures differ from the reference table")
    if len(stages) != len(expect.rows) + 1:
        problems.append(f"{len(stages)} stages, expected {len(expect.rows) + 1}")
    last = stages[-1] if stages else {}
    if last.get("outcome") != "exhausted" or last.get("l") != expect.aperture + 1:
        problems.append(f"last stage is not the exhausted L={expect.aperture + 1}")
    elif last.get("candidates_examined") != expect.exhausted_count:
        problems.append(
            f"exhausted stage examined {last.get('candidates_examined')},"
            f" expected {expect.exhausted_count}"
        )
    return problems


@dataclass(frozen=True)
class AnalyzeExpectation:
    positions: tuple[int, ...]
    weights: tuple[int, ...]
    essential: tuple[int, ...]
    two_essential: bool


def brute_force_analysis(raw: list[int]) -> AnalyzeExpectation:
    """Recompute weights and essential sensors from pairwise differences."""
    base = min(raw)
    pos = tuple(sorted(p - base for p in raw))
    aperture = pos[-1]
    weights = [0] * (aperture + 1)
    weights[0] = len(pos)
    for a in pos:
        for b in pos:
            if b > a:
                weights[b - a] += 1
    essential = []
    for s in pos:
        survivors = [p for p in pos if p != s]
        lags = {b - a for a in survivors for b in survivors if b > a}
        if any(m not in lags for m in range(1, aperture + 1)):
            essential.append(s)
    return AnalyzeExpectation(
        pos, tuple(weights), tuple(essential), essential == [0, aperture]
    )


def analyze_positions(argv: list[str]) -> list[int]:
    return [int(p) for p in argv[1].split(",")]


def check_analyze(code: int, stdout: str, expect: AnalyzeExpectation) -> list[str]:
    problems = []
    if code != (0 if expect.two_essential else 1):
        problems.append(f"exit code {code} disagrees with two_essential={expect.two_essential}")
    env, bad = parse_envelope(stdout, "analyze")
    if env is None:
        return problems + bad
    r = env["result"]
    if tuple(r.get("positions") or ()) != expect.positions:
        problems.append("canonical positions differ from the oracle")
    if tuple(r.get("weights") or ()) != expect.weights:
        problems.append("weights differ from the pairwise-difference oracle")
    if tuple(r.get("essential") or ()) != expect.essential:
        problems.append("essential set differs from the oracle")
    if (r.get("verdict") or {}).get("two_essential") != expect.two_essential:
        problems.append("two_essential differs from the oracle")
    return problems


def check_verify(code: int, stdout: str) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    env, bad = parse_envelope(stdout, "verify")
    if env is None:
        return problems + bad
    r = env["result"]
    if r.get("all_passed") is not True:
        problems.append("all_passed is not true")
    if not r.get("total") or r.get("passed") != r.get("total"):
        problems.append(f"passed {r.get('passed')} of {r.get('total')}")
    return problems
