"""The backend benchmark must run and scan complete stages."""

from __future__ import annotations

import json

from rmra.bench import bench_backend, main
from rmra.kernel import BACKEND, available_backends
from rmra.search import candidate_count


def test_bench_scans_whole_stage():
    scan = available_backends()["python"]
    dt, total = bench_backend(scan, 6, 8, False, 1)
    assert total == candidate_count(6, 8, False)
    assert dt > 0


def test_bench_main_runs(capsys):
    assert main(["--n", "6", "--l", "8", "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    assert f"  {BACKEND:<8} " in out
    assert "candidates/s" not in out


def test_bench_json_reports_backends_and_host(capsys):
    assert main(["--n", "6", "--l", "8", "--repeat", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stage"] == {"n": 6, "l": 8, "filtered": False, "candidates": 35}
    assert doc["backend"] == BACKEND
    assert doc["seconds"] > 0
    assert "candidates_per_s" not in doc
    assert doc["host"]["nproc"] >= 1


def test_bench_search_times_one_run(capsys):
    assert main(["--search", "7", "--repeat", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["search"] == {"n": 7}
    assert doc["backend"] == BACKEND
    assert doc["seconds"] > 0
    assert (doc["verdict"], doc["optimal_aperture"]) == ("optimal", 9)
