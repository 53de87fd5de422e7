"""Catalog integrity: every published entry re-verifies from first principles."""

from __future__ import annotations

import pytest

from rmra.catalog import (
    CatalogEntry,
    all_entries,
    compare_apertures,
    known_arrays,
    verify_catalog,
    verify_entries,
)
from rmra.coarray import SensorArray
from rmra.robustness import check_failure_robustness, check_healthy_weights

from conftest import OPTIMAL_APERTURES, TABLE3, TABLE4


class TestKnownArrays:
    def test_optimal_eight(self):
        entries = known_arrays("RMRA", 8)
        assert len(entries) == 1
        e = entries[0]
        assert e.positions == TABLE3[8]
        assert e.l == 12 and e.status == "optimal"

    def test_twelve_has_optimal_plus_stage_trail(self):
        entries = known_arrays("RMRA", 12)
        by_status = {}
        for e in entries:
            by_status.setdefault(e.status, []).append(e)
        assert len(by_status["optimal"]) == 1
        assert len(by_status["stage-valid"]) == 15
        assert by_status["optimal"][0].positions == (0, 1, 2, 3, 4, 5, 12, 13, 19, 20, 25, 26)

    def test_eleven_stage_trail_matches_published_rows(self):
        stage_valid = [e for e in known_arrays("RMRA", 11) if e.status == "stage-valid"]
        assert tuple(e.positions for e in stage_valid) == TABLE4

    def test_double_difference_thirteen(self):
        entries = known_arrays("2FRA", 13)
        assert len(entries) == 1
        e = entries[0]
        assert e.positions == (0, 1, 7, 8, 16, 17, 25, 26, 27, 28, 29, 30, 31)
        assert e.l == 31
        assert e.critical_interior_sensors == frozenset({16})

    def test_symna_undefined_sizes(self):
        assert known_arrays("symNA", 17) == ()
        assert known_arrays("symNA", 16)[0].l == 24

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            known_arrays("nested", 8)

    def test_near_optimal_sixteen_to_twenty(self):
        for n, l in ((16, 47), (17, 51), (18, 56), (19, 61), (20, 66)):
            entries = [e for e in known_arrays("RMRA", n) if e.status == "near-optimal"]
            assert len(entries) == 1
            assert entries[0].l == l

    def test_extrapolated_entries_regenerated(self):
        grown = {e.n: e for e in known_arrays("TFRA-valid")}
        assert set(grown) == {17, 19}
        assert grown[17].l == 52 and grown[19].l == 62
        assert grown[17].status == "near-optimal"
        assert grown[17].positions is not None


class TestVerification:
    def test_everything_passes(self):
        report = verify_catalog()
        assert report.all_passed, [c.problems for c in report.failures]

    def test_corrupt_entry_flagged(self):
        bad = CatalogEntry(
            family="RMRA",
            n=7,
            l=9,
            positions=(0, 1, 2, 5, 6, 8, 9)[:-1] + (10,),  # edited tail
            status="optimal",
            critical_interior_sensors=frozenset(),
            source="test",
        )
        report = verify_entries([*all_entries(), bad])
        assert not report.all_passed
        assert len(report.failures) == 1
        assert report.failures[0].entry is bad
        assert report.failures[0].problems

    def test_malformed_positions_flagged_on_every_run(self):
        bad = CatalogEntry(
            family="RMRA",
            n=3,
            l=2,
            positions=(0, 3, 2),
            status="optimal",
            critical_interior_sensors=frozenset(),
            source="test",
        )
        for _ in range(2):  # the second run must not reuse a cached array
            (check,) = verify_entries([bad]).checks
            assert check.problems == ("bad positions: positions must be strictly increasing",)

    def test_unknown_labels_and_size_mismatch_flagged(self):
        entry = next(e for e in all_entries() if e.family == "RMRA" and e.n == 7)
        cases = [
            (entry._replace(family="nested"), "unknown family 'nested'"),
            (entry._replace(status="guessed"), "unknown status 'guessed'"),
            (entry._replace(n=8), "n mismatch: 7 != 8"),
        ]
        report = verify_entries([bad for bad, _ in cases])
        assert len(report.failures) == len(cases)
        for check, (bad, problem) in zip(report.checks, cases):
            assert check.entry is bad
            assert problem in check.problems

    def test_wrong_essential_claim_flagged(self):
        bad = CatalogEntry(
            family="2FRA",
            n=13,
            l=31,
            positions=(0, 1, 7, 8, 16, 17, 25, 26, 27, 28, 29, 30, 31),
            status="optimal",
            critical_interior_sensors=frozenset({17}),  # wrong sensor
            source="test",
        )
        report = verify_entries([bad])
        assert not report.all_passed

    def test_near_optimal_entries_are_valid_arrays(self):
        for e in known_arrays("RMRA"):
            if e.status == "near-optimal":
                arr = SensorArray(e.positions)
                assert check_healthy_weights(arr)
                assert check_failure_robustness(arr)

    def test_stage_trails_are_contiguous(self):
        for n in (12, 13, 14, 15):
            ls = [e.l for e in known_arrays("RMRA", n) if e.status == "stage-valid"]
            assert ls == list(range(ls[0], ls[-1] + 1))
            assert ls[-1] == OPTIMAL_APERTURES[n]


class TestComparison:
    def test_reference_rows(self):
        rows = {r.n: r for r in compare_apertures()}
        assert (rows[16].symna, rows[16].rmra, rows[16].fra2) == (24, 47, 45)
        assert (rows[10].rmra, rows[10].fra2) == (19, 19)
        assert rows[10].fra2_critical == frozenset({10})
        assert (rows[20].symna, rows[20].rmra, rows[20].fra2) == (35, 66, 67)
        assert rows[20].fra2_critical == frozenset({34})

    def test_no_critical_sensors_fourteen_to_seventeen(self):
        rows = {r.n: r for r in compare_apertures(range(14, 18))}
        assert all(not rows[n].fra2_critical for n in range(14, 18))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            compare_apertures([21])
        with pytest.raises(ValueError):
            compare_apertures([5])

    def test_rmra_column_matches_catalog(self):
        rows = {r.n: r for r in compare_apertures()}
        for n in range(6, 21):
            statuses = ("optimal", "near-optimal")
            entries = [
                e for e in known_arrays("RMRA", n) if e.status in statuses
            ]
            assert len(entries) == 1
            assert entries[0].l == rows[n].rmra

    def test_symna_column_matches_catalog(self):
        rows = {r.n: r for r in compare_apertures()}
        for n in range(6, 21):
            entries = known_arrays("symNA", n)
            if rows[n].symna is None:
                assert entries == ()
            else:
                assert entries[0].l == rows[n].symna

    def test_fra2_column_matches_catalog(self):
        rows = {r.n: r for r in compare_apertures()}
        for n in range(6, 21):
            (entry,) = known_arrays("2FRA", n)
            assert entry.l == rows[n].fra2
            assert entry.critical_interior_sensors == rows[n].fra2_critical
