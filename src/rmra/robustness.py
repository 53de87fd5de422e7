"""Single-sensor failure analysis and the full array-validity checker.

An array is only as robust as its worst sensor: removing one element may
shrink the coarray span or punch holes into it. This module measures that
damage sensor by sensor from one weight table, derives the essential-sensor
set and fragility, and evaluates the five-part validity verdict (sensor
count, hole-free coarray, double redundancy, exactly two essential sensors,
sparsity).

Holes are always measured against the ORIGINAL aperture: survivors are never
re-anchored, so the loss of an endpoint shows up as a missing top lag.

Every single-failure question is answered from lag bitmasks, the bitmap
method of Golomb-ruler search (Dollas, Rankin & McCracken, IEEE Trans. IT
44(1), 1998): one pass over the weight table gives the lags of weight 0, 1
and 2, and a few big-int operations per sensor give the lags its failure
loses (see :func:`_lost_lags`). No survivor table is built for a verdict.
"""

from typing import NamedTuple

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


class Fragility(NamedTuple):
    """Essential-sensor ratio kept unreduced, e.g. 2/6 stays 2/6.

    The numerator is always the count of essential sensors and the
    denominator the total sensor count, so the ratio reads directly as
    "k of N sensors are essential".
    """

    essential_count: int
    total: int

    def as_fraction(self) -> "Fraction":
        from fractions import Fraction  # imports decimal; only this method needs it

        return Fraction(self.essential_count, self.total)

    def __str__(self) -> str:
        return f"{self.essential_count}/{self.total}"


class FailureReport(NamedTuple):
    """Coarray damage caused by removing one sensor."""

    failed_position: int
    surviving_positions: tuple[int, ...]
    holes_in_original_span: tuple[int, ...]
    span_after: int


class RobustnessReport(NamedTuple):
    """Full per-sensor failure analysis of one array.

    ``weights`` is the healthy weight table every report was read from;
    ``rmra_check`` and ``survivor_weights`` take the report to reuse it.
    """

    positions: tuple[int, ...]
    essential: tuple[int, ...]
    fragility: Fragility
    per_sensor: tuple[FailureReport, ...]
    weights: WeightTable


class ConstraintVerdict(NamedTuple):
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


def _lost_lags(arr: SensorArray, w: WeightTable) -> list[int]:
    """Per sensor, in position order, the bitmask of lags its failure loses.

    Bit ``m`` of a mask is set when lag ``m`` in ``1..L`` has no pair left
    once that sensor fails (``L`` is the original aperture). At lag ``m`` a
    sensor ``p`` belongs to at most two pairs, ``(p-m, p)`` and ``(p, p+m)``,
    so one pass over ``w`` for the lags of weight exactly 0, 1 and 2 decides
    every failure:

    - a lag of weight 0 is a hole already and stays lost;
    - a lag of weight 1 is lost when ``p`` is either end of its pair;
    - a lag of weight 2 is lost only when ``p`` is the middle of the chain
      ``p-m, p, p+m``;
    - a lag of weight 3 or more is never lost.

    With ``S`` the sensor bitset and ``R`` its reflection about the aperture,
    ``S >> p`` has bit ``m`` set when ``p+m`` is a sensor and ``R >> (L-p)``
    when ``p-m`` is one. Their bit 0 (``p`` itself) needs no clearing: the
    weight masks never hold lag 0. Lag ``L`` is lost at an endpoint failure,
    so holes stay measured against the original aperture.
    """
    l = arr.aperture
    zero = one = two = 0
    bit = 1  # counts[0] is the sensor count, at least 3: bit 0 stays clear
    for c in w.counts:
        if c < 3:
            if c == 0:
                zero |= bit
            elif c == 1:
                one |= bit
            else:
                two |= bit
        bit <<= 1
    s = r = 0
    for p in arr.positions:
        s |= 1 << p
        r |= 1 << (l - p)
    lost = []
    for p in arr.positions:
        above = s >> p
        below = r >> (l - p)
        lost.append(zero | (one & (above | below)) | (two & above & below))
    return lost


def _essential(arr: SensorArray, lost: list[int]) -> tuple[int, ...]:
    """The sensors whose mask in ``lost`` (from :func:`_lost_lags`) is nonzero."""
    return tuple([p for p, mask in zip(arr.positions, lost) if mask])


def _tables(arr: SensorArray) -> tuple[WeightTable, list[int]]:
    """``arr``'s weight table and :func:`_lost_lags`, for three or more sensors."""
    if arr.n < 3:
        raise ValueError("failure analysis needs at least three sensors")
    w = weight_table(arr)
    return w, _lost_lags(arr, w)


def _failure_report(arr: SensorArray, lost: int, failed: int) -> FailureReport:
    """The damage report for ``failed``, whose lost-lag mask is ``lost``."""
    holes = []
    while lost:
        low = lost & -lost
        holes.append(low.bit_length() - 1)
        lost ^= low
    survivors = tuple([p for p in arr.positions if p != failed])
    return FailureReport(
        failed_position=failed,
        surviving_positions=survivors,
        holes_in_original_span=tuple(holes),
        span_after=survivors[-1] - survivors[0],
    )


def failure_report(arr: SensorArray, failed: int) -> FailureReport:
    """Remove one sensor and list the lags lost from the original span.

    Survivor differences are computed in place (no re-anchoring), so holes
    include the top lags when an endpoint fails.
    """
    if failed not in arr.positions:
        raise NotASensor(f"{failed} is not a sensor of {list(arr.positions)}")
    _, lost = _tables(arr)
    return _failure_report(arr, lost[arr.positions.index(failed)], failed)


def essential_sensors(arr: SensorArray) -> tuple[int, ...]:
    """Sensors whose individual failure leaves a hole in the original span."""
    return _essential(arr, _tables(arr)[1])


def fragility(arr: SensorArray) -> Fragility:
    """Ratio of essential sensors to total sensors, unreduced."""
    return Fragility(len(essential_sensors(arr)), arr.n)


def analyze(arr: SensorArray) -> RobustnessReport:
    """Run the failure analysis for every sensor from one weight table."""
    w, lost = _tables(arr)
    essential = _essential(arr, lost)
    return RobustnessReport(
        positions=arr.positions,
        essential=essential,
        fragility=Fragility(len(essential), arr.n),
        per_sensor=tuple([_failure_report(arr, m, p) for p, m in zip(arr.positions, lost)]),
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
    return not any(_tables(arr)[1][1:-1])


def rmra_check(
    arr: SensorArray, n: int, l: int, *, report: RobustnessReport | None = None
) -> ConstraintVerdict:
    """Evaluate the five validity predicates against a claimed (n, l).

    ``two_essential`` demands the essential set be exactly the two endpoints
    {0, l}; ``doubly_redundant`` demands the doubly redundant span reach
    ``l - 1``; ``hole_free`` demands every lag in ``1..l`` be present.

    ``report`` is ``analyze(arr)`` when the caller already has it; without it
    the essential set is read off the lost-lag masks, and no failure report
    is built. Either way one weight table serves every predicate.
    """
    if report is not None:
        w, essential = report.weights, report.essential
    else:
        w = weight_table(arr)
        essential = _essential(arr, _lost_lags(arr, w)) if arr.n >= 3 else None
    size_ok = arr.n == n
    in_reach = arr.aperture == l
    hole_free = in_reach and 0 not in w.counts[1:]
    doubly = in_reach and doubly_redundant_span(w) == l - 1
    two_essential = in_reach and essential == (0, l)
    return ConstraintVerdict(
        size_ok=size_ok,
        hole_free=hole_free,
        doubly_redundant=doubly,
        two_essential=two_essential,
        sparse=l >= n,
    )
