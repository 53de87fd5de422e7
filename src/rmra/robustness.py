"""Single-sensor failure analysis and the full array-validity checker.

An array is only as robust as its worst sensor: removing one element may
shrink the coarray span or punch holes into it. This module measures that
damage sensor by sensor from one weight table, derives the essential-sensor
set and fragility, and evaluates the five-part validity verdict (sensor
count, hole-free coarray, double redundancy, exactly two essential sensors,
sparsity).

Holes are always measured against the ORIGINAL aperture: survivors are never
re-anchored, so the loss of an endpoint shows up as a missing top lag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coarray import SensorArray, WeightTable, doubly_redundant_span, weight_table

__all__ = [
    "ConstraintVerdict",
    "FailureReport",
    "Fragility",
    "NotASensor",
    "RobustnessReport",
    "analyze",
    "check_failure_robustness",
    "check_healthy_weights",
    "essential_sensors",
    "failure_report",
    "fragility",
    "rmra_check",
    "survivor_weights",
]


class NotASensor(ValueError):
    """The requested failure position is not part of the array."""


@dataclass(frozen=True, slots=True)
class Fragility:
    """Essential-sensor ratio kept unreduced, e.g. 2/6 stays 2/6.

    The numerator is always the count of essential sensors and the
    denominator the total sensor count, so the ratio reads directly as
    "k of N sensors are essential".
    """

    essential_count: int
    total: int

    def as_fraction(self) -> Fraction:
        return Fraction(self.essential_count, self.total)

    def __str__(self) -> str:
        return f"{self.essential_count}/{self.total}"


@dataclass(frozen=True, slots=True)
class FailureReport:
    """Coarray damage caused by removing one sensor."""

    failed_position: int
    surviving_positions: tuple[int, ...]
    holes_in_original_span: tuple[int, ...]
    span_after: int


@dataclass(frozen=True, slots=True)
class RobustnessReport:
    """Full per-sensor failure analysis of one array.

    ``weights`` is the healthy weight table every report was read from;
    ``rmra_check`` and ``survivor_weights`` take the report to reuse it.
    """

    positions: tuple[int, ...]
    essential: tuple[int, ...]
    fragility: Fragility
    per_sensor: tuple[FailureReport, ...]
    weights: WeightTable


@dataclass(frozen=True, slots=True)
class ConstraintVerdict:
    """The five validity predicates and their conjunction."""

    size_ok: bool
    hole_free: bool
    doubly_redundant: bool
    two_essential: bool
    sparse: bool

    @property
    def overall(self) -> bool:
        return (
            self.size_ok
            and self.hole_free
            and self.doubly_redundant
            and self.two_essential
            and self.sparse
        )

    def to_dict(self) -> dict:
        return {
            "size_ok": self.size_ok,
            "hole_free": self.hole_free,
            "doubly_redundant": self.doubly_redundant,
            "two_essential": self.two_essential,
            "sparse": self.sparse,
            "overall": self.overall,
        }


def _survivor_counts(arr: SensorArray, w: WeightTable, failed: int) -> list[int]:
    """``arr``'s weights ``w`` less the n-1 pairs that ``failed`` belongs to.

    ``p == failed`` takes the self-difference off ``counts[0]``, leaving the
    survivor count there.
    """
    counts = list(w.counts)
    for p in arr.positions:
        counts[abs(p - failed)] -= 1
    return counts


def _failure_report(arr: SensorArray, w: WeightTable, failed: int) -> FailureReport:
    """The damage report for ``failed``, read from ``arr``'s weight table ``w``."""
    counts = _survivor_counts(arr, w, failed)
    survivors = tuple([p for p in arr.positions if p != failed])
    return FailureReport(
        failed_position=failed,
        surviving_positions=survivors,
        holes_in_original_span=tuple([m for m in range(1, arr.aperture + 1) if not counts[m]]),
        span_after=survivors[-1] - survivors[0],
    )


def failure_report(arr: SensorArray, failed: int) -> FailureReport:
    """Remove one sensor and list the lags lost from the original span.

    Survivor differences are computed in place (no re-anchoring), so holes
    include the top lags when an endpoint fails.
    """
    if failed not in arr.positions:
        raise NotASensor(f"{failed} is not a sensor of {list(arr.positions)}")
    if arr.n < 3:
        raise ValueError("failure analysis needs at least three sensors")
    return _failure_report(arr, weight_table(arr), failed)


def essential_sensors(arr: SensorArray) -> tuple[int, ...]:
    """Sensors whose individual failure leaves a hole in the original span."""
    return analyze(arr).essential


def fragility(arr: SensorArray) -> Fragility:
    """Ratio of essential sensors to total sensors, unreduced."""
    return analyze(arr).fragility


def analyze(arr: SensorArray) -> RobustnessReport:
    """Run the failure analysis for every sensor from one weight table."""
    if arr.n < 3:
        raise ValueError("failure analysis needs at least three sensors")
    w = weight_table(arr)
    reports = tuple([_failure_report(arr, w, s) for s in arr.positions])
    essential = tuple([r.failed_position for r in reports if r.holes_in_original_span])
    return RobustnessReport(
        positions=arr.positions,
        essential=essential,
        fragility=Fragility(len(essential), arr.n),
        per_sensor=reports,
        weights=w,
    )


def survivor_weights(
    arr: SensorArray, failed: int, *, report: RobustnessReport | None = None
) -> WeightTable:
    """Weight table of the survivors, indexed over the ORIGINAL aperture.

    ``counts[0]`` is the survivor count. Useful for rendering healthy-vs-faulty
    weight comparisons. ``report`` is ``analyze(arr)`` when the caller already
    has it; its weight table is then reused.
    """
    if failed not in arr.positions:
        raise NotASensor(f"{failed} is not a sensor of {list(arr.positions)}")
    w = weight_table(arr) if report is None else report.weights
    return WeightTable(arr.aperture, tuple(_survivor_counts(arr, w, failed)))


def check_healthy_weights(arr: SensorArray) -> bool:
    """Healthy-state screen: every lag below the aperture doubly covered.

    Requires weight >= 2 for lags ``1..L-1`` and weight exactly 1 at the
    aperture itself (only the endpoint pair can span it, so equality doubles
    as a consistency assertion).
    """
    if arr.n < 3:
        raise ValueError("weight screen needs at least three sensors")
    w = weight_table(arr)
    if w.counts[arr.aperture] != 1:
        return False
    return all(w.counts[m] >= 2 for m in range(1, arr.aperture))


def check_failure_robustness(arr: SensorArray) -> bool:
    """True when no interior sensor failure creates a hole.

    Endpoint failures are exempt: the endpoints are essential by definition
    and allowed to be.
    """
    return not any(r.holes_in_original_span for r in analyze(arr).per_sensor[1:-1])


def rmra_check(
    arr: SensorArray, n: int, l: int, *, report: RobustnessReport | None = None
) -> ConstraintVerdict:
    """Evaluate the five validity predicates against a claimed (n, l).

    ``two_essential`` demands the essential set be exactly the two endpoints
    {0, l}; ``doubly_redundant`` demands the doubly redundant span reach
    ``l - 1``; ``hole_free`` demands every lag in ``1..l`` be present.

    ``report`` is ``analyze(arr)`` when the caller already has it; without it
    the failure analysis is run here. Either way one weight table serves every
    predicate.
    """
    if report is None and arr.n >= 3:
        report = analyze(arr)
    w = weight_table(arr) if report is None else report.weights
    size_ok = arr.n == n
    in_reach = arr.aperture == l
    hole_free = in_reach and all(w.counts[m] >= 1 for m in range(1, l + 1))
    doubly = in_reach and doubly_redundant_span(w) == l - 1
    two_essential = report is not None and in_reach and report.essential == (0, l)
    return ConstraintVerdict(
        size_ok=size_ok,
        hole_free=hole_free,
        doubly_redundant=doubly,
        two_essential=two_essential,
        sparse=l >= n,
    )
