"""Integer combinatorics of sparse linear sensor arrays.

Sensor positions live on the half-wavelength grid and are plain non-negative
integers. Everything here is exact integer arithmetic: pairwise differences,
lag weights, coarray holes and inter-element spacings. No floating point,
no physical units.
"""

from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "DuplicatePosition",
    "EmptyInput",
    "IesVector",
    "LagSet",
    "NoRepeatedRun",
    "NonPositiveSpacing",
    "SensorArray",
    "WeightTable",
    "array_from_ies",
    "canonicalize",
    "difference_coarray",
    "doubly_redundant_span",
    "extend_repeated_spacing",
    "holes",
    "ies_of",
    "mirror",
    "weight_table",
]


class DuplicatePosition(ValueError):
    """Two sensors landed on the same grid point."""


class EmptyInput(ValueError):
    """No sensor positions were given."""


class NonPositiveSpacing(ValueError):
    """Inter-element spacings must be positive integers."""


class NoRepeatedRun(ValueError):
    """The array has no consecutively repeated inter-element spacing."""


# An inter-element spacing vector: the consecutive gaps of an array. Prefix
# sums (from 0) recover the positions.
IesVector = tuple[int, ...]


class _Frozen:
    """Immutable value object whose fields are its ``__slots__``.

    Subclasses list their fields in ``__slots__`` in constructor order and
    set them in ``__init__`` with ``object.__setattr__``. Equality (same
    class only), hashing and pickling go through the fields; assigning or
    deleting one raises ``AttributeError``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:  # pickle and copy rebuild through __init__
        return self.__class__, self._values()


class SensorArray(_Frozen):
    """A canonical sparse linear array.

    Positions are strictly increasing integers anchored at 0, so the aperture
    equals the last position. Use :func:`canonicalize` to build one from an
    arbitrary (unsorted, un-anchored) position list.
    """

    __slots__ = ("positions",)
    positions: tuple[int, ...]

    def __init__(self, positions: tuple[int, ...]) -> None:
        # through a list: tuple(map(...)) resizes its tuple (tests/test_source_guards.py)
        pos = tuple([*map(int, positions)])
        if len(pos) < 2 or pos[0] != 0 or pos != tuple(sorted(set(pos))):
            _reject(pos)
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return len(self.positions)

    @property
    def aperture(self) -> int:
        return self.positions[-1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.positions)

    def __len__(self) -> int:
        return len(self.positions)

    def __repr__(self) -> str:
        return f"SensorArray({list(self.positions)})"


def _reject(pos: tuple[int, ...]) -> None:
    """Raise the error that makes ``pos`` no canonical array."""
    if len(pos) < 2:
        raise ValueError("an array needs at least two sensors")
    if pos[0] != 0:
        raise ValueError("canonical arrays start at position 0")
    for a, b in zip(pos, pos[1:]):
        if b == a:
            raise DuplicatePosition(f"duplicate position {a}")
        if b < a:
            raise ValueError("positions must be strictly increasing")


class WeightTable(_Frozen):
    """Lag-indexed pair counts of an array.

    ``counts[m]`` is the number of sensor pairs separated by exactly ``m``
    grid steps, for ``m`` in ``0..aperture``. ``counts[0]`` is fixed to the
    sensor count (self-differences) so that coarray-cardinality arithmetic
    works without special cases.
    """

    __slots__ = ("aperture", "counts")
    aperture: int
    counts: tuple[int, ...]

    def __init__(self, aperture: int, counts: tuple[int, ...]) -> None:
        object.__setattr__(self, "aperture", aperture)
        object.__setattr__(self, "counts", counts)

    def __repr__(self) -> str:
        return f"WeightTable(aperture={self.aperture!r}, counts={self.counts!r})"

    def __getitem__(self, lag: int) -> int:
        return self.counts[lag]

    def __len__(self) -> int:
        return len(self.counts)


class LagSet(NamedTuple):
    """Non-negative lags present in an array's difference coarray.

    Negative lags are implicit: the coarray is symmetric about zero.
    """

    aperture: int
    present: frozenset[int]

    def is_hole_free(self) -> bool:
        return len(self.present) == self.aperture + 1


def canonicalize(raw: Iterable[int]) -> SensorArray:
    """Sort, validate and translate positions so the first sensor sits at 0.

    Raises EmptyInput for an empty sequence and DuplicatePosition when two
    entries coincide.
    """
    entries = sorted(int(p) for p in raw)
    if not entries:
        raise EmptyInput("no positions given")
    if entries[0] < 0:
        raise ValueError("positions must be non-negative")
    for a, b in zip(entries, entries[1:]):
        if a == b:
            raise DuplicatePosition(f"duplicate position {a}")
    base = entries[0]
    return SensorArray(tuple([p - base for p in entries]))


def weight_table(arr: SensorArray) -> WeightTable:
    """Count, for every lag, the sensor pairs separated by that lag."""
    counts = [0] * (arr.aperture + 1)
    counts[0] = arr.n
    for a, b in combinations(arr.positions, 2):
        counts[b - a] += 1
    return WeightTable(arr.aperture, tuple(counts))


def difference_coarray(arr: SensorArray) -> LagSet:
    """The set of non-negative lags realized by at least one sensor pair."""
    counts = weight_table(arr).counts
    return LagSet(arr.aperture, frozenset([m for m, c in enumerate(counts) if c]))


def holes(lags: LagSet) -> tuple[int, ...]:
    """Missing lags in ``1..aperture``, sorted ascending."""
    return tuple([m for m in range(1, lags.aperture + 1) if m not in lags.present])


def doubly_redundant_span(w: WeightTable) -> int:
    """Largest m such that every lag in ``1..m`` has weight at least two.

    Returns 0 when already ``counts[1] < 2``. The symmetric doubly redundant
    coarray then has cardinality ``2*m + 1``.
    """
    m = 0
    while m < w.aperture and w.counts[m + 1] >= 2:
        m += 1
    return m


def ies_of(arr: SensorArray) -> IesVector:
    """Consecutive gaps between neighbouring sensors."""
    pos = arr.positions
    return tuple([b - a for a, b in zip(pos, pos[1:])])


def array_from_ies(ies: Sequence[int]) -> SensorArray:
    """Rebuild an array from its inter-element spacings (prefix sums from 0)."""
    spacings = [int(s) for s in ies]
    if not spacings:
        raise EmptyInput("empty spacing vector")
    if any(s < 1 for s in spacings):
        raise NonPositiveSpacing("spacings must be >= 1")
    positions = [0]
    for s in spacings:
        positions.append(positions[-1] + s)
    return SensorArray(tuple(positions))


def mirror(arr: SensorArray) -> SensorArray:
    """Reflect the array about its midpoint; weights are preserved."""
    l = arr.aperture
    return SensorArray(tuple(sorted(l - p for p in arr.positions)))


def _longest_run(ies: IesVector) -> tuple[int, int, int]:
    """(start, length, value) of the longest, then leftmost, repeated run."""
    best = (0, 0, 0)  # (start, length, value)
    i = 0
    while i < len(ies):
        j = i
        while j + 1 < len(ies) and ies[j + 1] == ies[i]:
            j += 1
        length = j - i + 1
        if length >= 2 and length > best[1]:
            best = (i, length, ies[i])
        i = j + 1
    if best[1] < 2:
        raise NoRepeatedRun("no inter-element spacing repeats consecutively")
    return best


def extend_repeated_spacing(arr: SensorArray, extra: int) -> SensorArray:
    """Grow an array by repeating its dominant spacing pattern.

    Finds the longest (leftmost on ties) run of a repeated spacing value in
    the IES vector and inserts ``extra`` more copies of that value inside the
    run. The sensor count grows by ``extra`` and the aperture by
    ``extra * value``.
    """
    if extra < 0:
        raise ValueError("extra must be non-negative")
    ies = ies_of(arr)
    start, length, value = _longest_run(ies)
    cut = start + length
    return array_from_ies(ies[:cut] + (value,) * extra + ies[cut:])
