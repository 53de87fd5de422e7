"""Embedded database of published robust sparse array configurations.

Covers the known optimal arrays for 6..15 sensors, near-optimal arrays for
16..20, the per-stage valid arrays behind the 11..15 results, the
double-difference-base family (with its critical-sensor annotations), the
symmetric nested array apertures, and the cross-family aperture comparison.
Every entry that carries positions is re-verifiable against the analysis
modules; two entries are not hand-typed at all but regenerated from the
15-sensor optimum by spacing-pattern extrapolation.
"""

from functools import lru_cache
from typing import NamedTuple

from .coarray import SensorArray, extend_repeated_spacing
from .robustness import essential_sensors, rmra_check

__all__ = [
    "CatalogEntry",
    "CatalogVerification",
    "ComparisonRow",
    "EntryCheck",
    "FAMILIES",
    "OutsideComparison",
    "all_entries",
    "compare_apertures",
    "known_arrays",
    "verify_catalog",
    "verify_entries",
]

FAMILIES = ("RMRA", "TFRA-valid", "2FRA", "symNA")
_STATUSES = ("optimal", "near-optimal", "stage-valid", "aperture-only")


class OutsideComparison(ValueError):
    """A sensor count the cross-family aperture comparison does not cover."""


class CatalogEntry(NamedTuple):
    family: str
    n: int
    l: int
    positions: tuple[int, ...] | None
    status: str
    critical_interior_sensors: frozenset[int]
    source: str

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "l": self.l,
            "positions": list(self.positions) if self.positions else None,
            "status": self.status,
            "critical_interior_sensors": sorted(self.critical_interior_sensors),
            "source": self.source,
        }


class EntryCheck(NamedTuple):
    entry: CatalogEntry
    passed: bool
    problems: tuple[str, ...]


class CatalogVerification(NamedTuple):
    checks: tuple[EntryCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[EntryCheck, ...]:
        return tuple([c for c in self.checks if not c.passed])


class ComparisonRow(NamedTuple):
    """One line of the cross-family aperture comparison."""

    n: int
    symna: int | None
    rmra: int
    fra2: int
    fra2_critical: frozenset[int]


# Optimal arrays, 6..10 sensors (previously known) and 11..15 (table 5; the
# 15-sensor row comes from the appendix listing, aperture cross-checked
# against the comparison table).
_OPTIMAL: dict[int, tuple[tuple[int, ...], str]] = {
    6: ((0, 1, 2, 3, 5, 6), "table3"),
    7: ((0, 1, 2, 4, 6, 8, 9), "table3"),
    8: ((0, 1, 2, 3, 5, 8, 11, 12), "table3"),
    9: ((0, 1, 2, 3, 4, 9, 10, 14, 15), "table3"),
    10: ((0, 1, 2, 6, 7, 8, 15, 16, 18, 19), "table3"),
    11: ((0, 1, 2, 3, 4, 10, 11, 16, 17, 21, 22), "table5"),
    12: ((0, 1, 2, 3, 4, 5, 12, 13, 19, 20, 25, 26), "table5"),
    13: ((0, 1, 2, 4, 5, 9, 14, 19, 24, 25, 30, 31, 32), "table5"),
    14: ((0, 1, 2, 3, 4, 5, 12, 14, 21, 23, 29, 30, 35, 36), "table5"),
    15: ((0, 1, 2, 4, 5, 9, 14, 19, 24, 29, 34, 35, 40, 41, 42), "tableA1/table7"),
}

# The paper's Table 6 near-optimal arrays, 16..20 sensors, as published.
# `rmra search` goes further (README, "Longer runs"): the 16-sensor row is
# the optimum it finds, and at 17..20 sensors it finds wider apertures.
_NEAR_OPTIMAL: dict[int, tuple[int, ...]] = {
    16: (0, 1, 2, 3, 5, 7, 16, 18, 26, 29, 35, 38, 39, 43, 46, 47),
    17: (0, 1, 2, 3, 4, 5, 6, 7, 8, 18, 20, 30, 32, 41, 42, 50, 51),
    18: (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 20, 22, 33, 35, 45, 46, 55, 56),
    19: (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 22, 24, 36, 38, 49, 50, 60, 61),
    20: (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 24, 26, 39, 41, 53, 54, 65, 66),
}

# Per-stage first valid arrays for 11 sensors (table 4).
_STAGES_11: tuple[tuple[int, ...], ...] = (
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

# Per-stage valid arrays for 12..15 sensors (appendix table A.1).
_STAGES_A1: dict[int, tuple[tuple[int, ...], ...]] = {
    12: (
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
    ),
    13: (
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 14),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 14, 15),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 16),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 17),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 17, 18),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 18, 19),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 19, 20),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 20, 21),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 13, 21, 22),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 13, 14, 22, 23),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 14, 15, 23, 24),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 24, 25),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 16, 17, 25, 26),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 17, 18, 26, 27),
        (0, 1, 2, 3, 4, 5, 6, 13, 14, 20, 21, 27, 28),
        (0, 1, 2, 3, 4, 5, 6, 14, 15, 21, 22, 28, 29),
        (0, 1, 2, 3, 4, 5, 6, 14, 15, 22, 23, 29, 30),
        (0, 1, 2, 3, 4, 10, 12, 18, 20, 25, 26, 30, 31),
        (0, 1, 2, 4, 5, 9, 14, 19, 24, 25, 30, 31, 32),
    ),
    14: (
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 14, 15),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 16),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 16, 17),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 17, 18),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 18, 19),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 19, 20),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 20, 21),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 21, 22),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 22, 23),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 14, 23, 24),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 14, 15, 24, 25),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 25, 26),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 26, 27),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 18, 27, 28),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 18, 19, 28, 29),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 19, 20, 29, 30),
        (0, 1, 2, 3, 4, 5, 6, 7, 14, 15, 22, 23, 30, 31),
        (0, 1, 2, 3, 4, 5, 6, 7, 15, 16, 23, 24, 31, 32),
        (0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 24, 25, 32, 33),
        (0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 25, 26, 33, 34),
        (0, 1, 2, 3, 4, 5, 12, 13, 20, 21, 28, 29, 34, 35),
        (0, 1, 2, 3, 4, 5, 12, 14, 21, 23, 29, 30, 35, 36),
    ),
    15: (
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16, 17),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 17, 18),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 18, 19),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 19, 20),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 20, 21),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 21, 22),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 22, 23),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 23, 24),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 24, 25),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 25, 26),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 16, 26, 27),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 17, 27, 28),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 17, 18, 28, 29),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 18, 19, 29, 30),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 19, 20, 30, 31),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 21, 31, 32),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 21, 22, 32, 33),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 14, 16, 24, 29, 33, 34),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 16, 17, 25, 26, 34, 35),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 17, 18, 26, 27, 35, 36),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 18, 19, 27, 28, 36, 37),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 18, 19, 28, 29, 37, 38),
        (0, 1, 2, 3, 4, 5, 6, 13, 15, 22, 24, 31, 32, 38, 39),
        (0, 1, 2, 3, 4, 5, 6, 14, 15, 23, 24, 32, 33, 39, 40),
        (0, 1, 2, 3, 4, 5, 6, 14, 16, 24, 26, 33, 34, 40, 41),
        (0, 1, 2, 4, 5, 9, 14, 19, 24, 29, 34, 35, 40, 41, 42),
    ),
}

# The 13-sensor double-difference-base array whose interior sensor at 16 is
# critical: its failure punches a hole at lag 15 despite a fully doubly
# redundant healthy coarray.
_FRA2_13 = (0, 1, 7, 8, 16, 17, 25, 26, 27, 28, 29, 30, 31)

# Cross-family aperture comparison, 6..20 sensors:
# n -> (symNA aperture or None, RMRA aperture, 2FRA aperture, 2FRA critical sensors)
_COMPARISON: dict[int, tuple[int | None, int, int, tuple[int, ...]]] = {
    6: (None, 6, 7, (3,)),
    7: (None, 9, 10, (4,)),
    8: (None, 12, 13, (5,)),
    9: (None, 15, 16, (6,)),
    10: (None, 19, 19, (10,)),
    11: (None, 22, 23, (12,)),
    12: (None, 26, 27, (14,)),
    13: (None, 32, 31, (16,)),
    14: (None, 36, 35, ()),
    15: (None, 42, 40, ()),
    16: (24, 47, 45, ()),
    17: (None, 51, 50, ()),
    18: (29, 56, 55, (28,)),
    19: (None, 61, 61, (31,)),
    20: (35, 66, 67, (34,)),
}


def _entry(
    family: str,
    positions: tuple[int, ...] | None,
    status: str,
    source: str,
    *,
    n: int | None = None,
    l: int | None = None,
    critical: tuple[int, ...] = (),
) -> CatalogEntry:
    if positions is not None:
        n = len(positions)
        l = positions[-1]
    assert n is not None and l is not None
    return CatalogEntry(
        family=family,
        n=n,
        l=l,
        positions=positions,
        status=status,
        critical_interior_sensors=frozenset(critical),
        source=source,
    )


@lru_cache(maxsize=1)
def all_entries() -> tuple[CatalogEntry, ...]:
    entries: list[CatalogEntry] = []
    for n, (pos, source) in _OPTIMAL.items():
        entries.append(_entry("RMRA", pos, "optimal", source))
    for pos in _STAGES_11:
        entries.append(_entry("RMRA", pos, "stage-valid", "table4"))
    for rows in _STAGES_A1.values():
        for pos in rows:
            entries.append(_entry("RMRA", pos, "stage-valid", "tableA1"))
    for pos in _NEAR_OPTIMAL.values():
        entries.append(_entry("RMRA", pos, "near-optimal", "table6"))
    # Regenerated, not hand-typed: extrapolate the 15-sensor optimum by
    # repeating its dominant five-unit spacing run.
    base = SensorArray(_OPTIMAL[15][0])
    for extra in (2, 4):
        grown = extend_repeated_spacing(base, extra)
        entries.append(_entry("TFRA-valid", grown.positions, "near-optimal", "fig2"))
    for n, (_, _, l, critical) in _COMPARISON.items():
        if n == 13:
            entries.append(
                _entry("2FRA", _FRA2_13, "optimal", "sec4.5/table7", critical=critical)
            )
        else:
            entries.append(
                _entry("2FRA", None, "aperture-only", "table7", n=n, l=l, critical=critical)
            )
    for n, (symna, _, _, _) in _COMPARISON.items():
        if symna is not None:
            entries.append(
                _entry("symNA", None, "aperture-only", "table7", n=n, l=symna)
            )
    return tuple(entries)


def known_arrays(family: str, n: int | None = None) -> tuple[CatalogEntry, ...]:
    """All catalog entries of one family, optionally restricted to one size."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return tuple(
        [e for e in all_entries() if e.family == family and (n is None or e.n == n)]
    )


@lru_cache(maxsize=256)
def _array(positions: tuple[int, ...]) -> SensorArray:
    """The array at ``positions``, validated once; the catalog's are constants."""
    return SensorArray(positions)


def verify_entries(entries: tuple[CatalogEntry, ...] | list[CatalogEntry]) -> CatalogVerification:
    """Re-derive every entry's claims from its positions."""
    checks = []
    for e in entries:
        problems: list[str] = []
        if e.family not in FAMILIES:
            problems.append(f"unknown family {e.family!r}")
        if e.status not in _STATUSES:
            problems.append(f"unknown status {e.status!r}")
        if e.positions is not None:
            arr = None
            try:
                arr = _array(tuple(e.positions))
            except ValueError as exc:
                problems.append(f"bad positions: {exc}")
            if arr is not None:
                if arr.n != e.n:
                    problems.append(f"n mismatch: {arr.n} != {e.n}")
                if arr.aperture != e.l:
                    problems.append(f"aperture mismatch: {arr.aperture} != {e.l}")
                if e.family in ("RMRA", "TFRA-valid"):
                    verdict = rmra_check(arr, e.n, e.l)
                    if not verdict.overall:
                        problems.append(f"validity check failed: {verdict.to_dict()}")
                elif e.family == "2FRA":
                    expected = tuple(sorted({0, e.l} | set(e.critical_interior_sensors)))
                    got = essential_sensors(arr)
                    if got != expected:
                        problems.append(
                            f"essential sensors {list(got)} != expected {list(expected)}"
                        )
        checks.append(EntryCheck(entry=e, passed=not problems, problems=tuple(problems)))
    return CatalogVerification(checks=tuple(checks))


def verify_catalog() -> CatalogVerification:
    """Verify every embedded entry."""
    return verify_entries(all_entries())


def compare_apertures(n_range=None) -> tuple[ComparisonRow, ...]:
    """Cross-family aperture rows for sensor counts in ``n_range`` (6..20)."""
    if n_range is None:
        n_range = range(6, 21)
    rows = []
    for n in n_range:
        if not 6 <= n <= 20:
            raise OutsideComparison(f"comparison data covers 6..20 sensors, not {n}")
        symna, rmra, fra2, critical = _COMPARISON[n]
        rows.append(
            ComparisonRow(
                n=n, symna=symna, rmra=rmra, fra2=fra2, fra2_critical=frozenset(critical)
            )
        )
    return tuple(rows)
