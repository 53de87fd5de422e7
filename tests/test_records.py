"""Value semantics of the result records and the validating classes.

Construction with defaults, equality and hashing, immutability, pickling,
reprs and constructor errors, for every record type the package exports.
"""

import pickle

import pytest

from rmra.catalog import CatalogEntry, compare_apertures, verify_entries
from rmra.coarray import (
    DuplicatePosition,
    LagSet,
    SensorArray,
    difference_coarray,
    weight_table,
)
from rmra.robustness import Fragility, analyze, rmra_check
from rmra.search import (
    InvalidConfig,
    SearchConfig,
    SearchOutcome,
    StageOutcome,
    StageResult,
    Verdict,
)

from conftest import RMRA7


def _entry() -> CatalogEntry:
    return CatalogEntry(
        family="RMRA",
        n=7,
        l=9,
        positions=RMRA7.positions,
        status="optimal",
        critical_interior_sensors=frozenset(),
        source="table3",
    )


def _stage() -> StageResult:
    return StageResult(
        l=9,
        outcome=StageOutcome.FOUND,
        candidates_examined=5,
        elapsed=0.25,
        array=SensorArray(RMRA7.positions),
        candidate_index=17,
    )


# Each maker builds a fresh record equal to the one the previous call built,
# and names a field to assign to.
MAKERS = {
    "SensorArray": (lambda: SensorArray((0, 1, 2, 5, 6, 8, 9)), "positions"),
    "WeightTable": (lambda: weight_table(SensorArray(RMRA7.positions)), "counts"),
    "LagSet": (lambda: difference_coarray(SensorArray(RMRA7.positions)), "present"),
    "Fragility": (lambda: analyze(RMRA7).fragility, "total"),
    "FailureReport": (lambda: analyze(RMRA7).per_sensor[3], "span_after"),
    "RobustnessReport": (lambda: analyze(RMRA7), "essential"),
    "ConstraintVerdict": (lambda: rmra_check(RMRA7, 7, 9), "sparse"),
    "SearchConfig": (lambda: SearchConfig(n=8, l_limit=10), "n"),
    "StageResult": (_stage, "l"),
    "SearchOutcome": (
        lambda: SearchOutcome(
            n=7,
            stages=(_stage(),),
            verdict=Verdict.NEAR_OPTIMAL,
            optimal_aperture=9,
            best_array=SensorArray(RMRA7.positions),
        ),
        "verdict",
    ),
    "CatalogEntry": (_entry, "positions"),
    "EntryCheck": (lambda: verify_entries([_entry()]).checks[0], "passed"),
    "CatalogVerification": (lambda: verify_entries([_entry()]), "checks"),
    "ComparisonRow": (lambda: compare_apertures([13])[0], "fra2"),
}


@pytest.mark.parametrize("name", MAKERS)
def test_equal_records_compare_and_hash_equal(name):
    make, _ = MAKERS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", MAKERS)
def test_fields_cannot_be_assigned_or_deleted(name):
    make, field = MAKERS[name]
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before


@pytest.mark.parametrize("name", MAKERS)
def test_pickle_round_trip(name):
    record = MAKERS[name][0]()
    assert pickle.loads(pickle.dumps(record)) == record


def test_result_records_behave_as_tuples_and_the_slotted_classes_do_not():
    # The result records are NamedTuples: equality and hashing follow the
    # field values whatever the type, and they order, index and unpack.
    frag = analyze(RMRA7).fragility
    assert frag == (2, 7) and hash(frag) == hash((2, 7))
    assert frag == Fragility(2, 7) == LagSet(2, 7)
    assert frag < (2, 8) and frag > Fragility(1, 9)
    assert (len(frag), frag[1], frag[:1]) == (2, 7, (2,))
    essential_count, total = frag
    assert (essential_count, total) == (2, 7)
    # SensorArray, WeightTable and SearchConfig equal only their own type
    # and have no order.
    arr = SensorArray((0, 1, 3))
    assert arr != (0, 1, 3) and arr != [0, 1, 3]
    assert weight_table(arr) != (3, (3, 1, 1, 1))
    assert SearchConfig(n=8) != (8, None, None, True, None)
    with pytest.raises(TypeError):
        arr < SensorArray((0, 1, 4))  # noqa: B015
    assert (len(arr), list(arr), weight_table(arr)[3]) == (3, [0, 1, 3], 1)


def test_keyword_construction_fills_defaults():
    stage = StageResult(l=8, outcome=StageOutcome.EXHAUSTED, candidates_examined=3, elapsed=0.0)
    assert (stage.array, stage.candidate_index) == (None, None)
    outcome = SearchOutcome(
        n=8, stages=(stage,), verdict=Verdict.NONE_FOUND, optimal_aperture=None, best_array=None
    )
    assert outcome.reason is None
    cfg = SearchConfig(n=8)
    assert (cfg.l_start, cfg.l_limit, cfg.prune_filters, cfg.checkpoint_path) == (
        None,
        None,
        True,
        None,
    )
    assert SearchConfig(8) == cfg != SearchConfig(8, prune_filters=False)


def test_reprs():
    assert repr(SensorArray([0, 1, 2, 5, 6, 8, 9])) == "SensorArray([0, 1, 2, 5, 6, 8, 9])"
    assert repr(weight_table(SensorArray((0, 1, 3)))) == (
        "WeightTable(aperture=3, counts=(3, 1, 1, 1))"
    )
    assert repr(SearchConfig(n=12, l_limit=20, checkpoint_path="ck.json")) == (
        "SearchConfig(n=12, l_start=None, l_limit=20, prune_filters=True,"
        " checkpoint_path='ck.json')"
    )
    assert repr(analyze(RMRA7).fragility) == "Fragility(essential_count=2, total=7)"
    assert str(analyze(RMRA7).fragility) == "2/7"


@pytest.mark.parametrize(
    "positions, error, message",
    [
        ((0, 1, 1, 3), DuplicatePosition, "duplicate position 1"),
        ((0, 2, 1, 3), ValueError, "positions must be strictly increasing"),
        ((1, 2, 3), ValueError, "canonical arrays start at position 0"),
        ((0,), ValueError, "an array needs at least two sensors"),
    ],
)
def test_sensor_array_validation_errors(positions, error, message):
    with pytest.raises(error) as info:
        SensorArray(positions)
    assert str(info.value) == message


def test_sensor_array_converts_positions_to_an_int_tuple():
    arr = SensorArray([0, True, 2.0])
    assert arr.positions == (0, 1, 2) and all(type(p) is int for p in arr.positions)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n": 5}, "searches start at 6 sensors (smallest valid array)"),
        ({"n": 8, "l_start": 7}, "l_start must be at least n"),
        ({"n": 6, "l_start": 9}, "l_start exceeds the aperture upper bound"),
        ({"n": 8, "l_limit": 7}, "l_limit must be at least the starting aperture"),
        ({"n": 8, "l_start": 10, "l_limit": 9}, "l_limit must be at least the starting aperture"),
    ],
)
def test_search_config_errors(kwargs, message):
    with pytest.raises(InvalidConfig) as info:
        SearchConfig(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "stage",
    [
        _stage(),
        StageResult(l=23, outcome=StageOutcome.EXHAUSTED, candidates_examined=497420, elapsed=1.5),
    ],
)
def test_stage_result_dict_round_trip(stage):
    assert StageResult.from_dict(stage.to_dict()) == stage
    untimed = StageResult.from_dict(stage.to_dict(include_timing=False))
    assert untimed.elapsed == 0.0
    assert untimed.to_dict(include_timing=False) == stage.to_dict(include_timing=False)
