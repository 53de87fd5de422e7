"""The backend benchmark must run and scan complete stages."""

from __future__ import annotations

import json

import pytest

from rmra.bench import bench_backend, main
from rmra.kernel import available_backends
from rmra.search import candidate_count


def test_bench_scans_whole_stage():
    scan = available_backends()["python"]
    dt, total = bench_backend(scan, 6, 8, False, 1)
    assert total == candidate_count(6, 8, False)
    assert dt > 0


def test_bench_main_runs(capsys):
    assert main(["--n", "6", "--l", "8", "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    assert "python" in out
    assert "candidates/s" in out


def test_bench_json_reports_backends_and_host(capsys):
    assert main(["--n", "6", "--l", "8", "--repeat", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stage"] == {"n": 6, "l": 8, "filtered": False, "candidates": 35}
    assert set(doc["backends"]) == set(available_backends())
    python = doc["backends"]["python"]
    assert python["candidates_per_s"] == pytest.approx(35 / python["seconds"])
    assert doc["host"]["nproc"] >= 1


def test_bench_skips_python_on_large_stages(capsys):
    # 5,311,735 candidates: minutes in pure Python, well under a second compiled
    assert main(["--n", "12", "--l", "27", "--repeat", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "python" not in doc["backends"]


def test_bench_search_times_both_worker_counts(capsys):
    assert main(["--search", "7", "--repeat", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["workers"]) == {"1", "2"}
    for run in doc["workers"].values():
        assert run["seconds"] > 0
        assert (run["verdict"], run["optimal_aperture"]) == ("optimal", 9)
