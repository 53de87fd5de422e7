"""The backend benchmark must run and scan complete stages."""

from __future__ import annotations

import json

import pytest

from rmra import _kernel_py, bench
from rmra.bench import bench_backend, main
from rmra.kernel import BACKEND
from rmra.search import candidate_count


def test_bench_scans_whole_stage():
    dt, total, nodes = bench_backend(_kernel_py.scan, 6, 8, False, 1)
    assert total == candidate_count(6, 8, False)
    assert dt > 0
    assert nodes == total  # the pure-Python walk tests every candidate


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
    # no compiler flags: the document cannot tell how the extension was built
    assert sorted(doc["host"]) == ["machine", "nproc", "python"]


def test_bench_defaults_to_the_17_sensor_proof(capsys, monkeypatch):
    # the 17-sensor optimum's exhausted stage, filtered: long enough for the
    # compiled engine to time, unlike the 11/23 stage (well under 0.1 ms)
    timed = []

    def fake(scan, n, l, filtered, repeat):
        timed.append((n, l, filtered))
        return 0.25, candidate_count(n, l, filtered), 1_000

    monkeypatch.setattr(bench, "bench_backend", fake)
    assert main(["--repeat", "1"]) == 0
    assert timed == [(17, 54, True)]
    assert capsys.readouterr().out.startswith("stage: n=17 l=54 filtered=True (476260169700 ")
    with pytest.raises(SystemExit):
        main(["--n", "11"])  # a stage needs both
    monkeypatch.setattr(bench.kernel, "BACKEND", "python")
    with pytest.raises(SystemExit):
        main(["--repeat", "1"])  # the pure-Python scanner would take weeks
    assert timed == [(17, 54, True)]


def test_bench_search_times_one_run(capsys):
    assert main(["--search", "7", "--repeat", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["search"] == {"n": 7}
    assert doc["backend"] == BACKEND
    assert doc["seconds"] > 0
    assert (doc["verdict"], doc["optimal_aperture"]) == ("optimal", 9)


def test_bench_rejects_a_stage_that_is_not_exhausted():
    total = candidate_count(6, 8, False)
    with pytest.raises(RuntimeError, match="unexpectedly contains a valid array"):
        bench_backend(lambda n, l, start, end, filtered: (1, 0, [0], 0, 1), 6, 8, False, 1)
    with pytest.raises(RuntimeError, match=f"scanned {total - 1} of {total} candidates"):
        bench_backend(
            lambda n, l, start, end, filtered: (end - 1, -1, None, None, 1), 6, 8, False, 1
        )


def test_bench_search_prints_text(capsys):
    assert main(["--search", "7", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"search: n=7 backend={BACKEND}"
    assert len(lines) == 2 and lines[1].endswith(" ms   optimal, aperture 9")


@pytest.mark.skipif(BACKEND != "c", reason="compiled kernel not built")
def test_bench_reports_the_engine_nodes(capsys):
    # 12/27 filtered, the 12-sensor exhaustion proof: 9,630 nodes every run
    assert main(["--n", "12", "--l", "27", "--filtered", "--repeat", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["nodes"] == 9_630
    assert doc["nodes_per_s"] == pytest.approx(9_630 / doc["seconds"])
    assert main(["--n", "12", "--l", "27", "--filtered", "--repeat", "1"]) == 0
    assert " ms   9,630 nodes, " in capsys.readouterr().out


def test_bench_counts_the_candidates_the_python_backend_tests(capsys, monkeypatch):
    monkeypatch.setattr(bench.kernel, "BACKEND", "python")
    monkeypatch.setattr(bench.kernel, "scan", _kernel_py.scan)
    assert main(["--n", "6", "--l", "8", "--repeat", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["backend"] == "python"
    assert doc["nodes"] == 35  # every candidate of the stage
    assert doc["nodes_per_s"] == pytest.approx(35 / doc["seconds"])
    assert main(["--n", "6", "--l", "8", "--repeat", "1"]) == 0
    assert " ms   35 nodes, " in capsys.readouterr().out


def test_bench_search_runs_on_the_python_backend(capsys, monkeypatch):
    # --search times no stage, so the reference stage's guard does not apply
    monkeypatch.setattr(bench.kernel, "BACKEND", "python")
    monkeypatch.setattr(bench.kernel, "scan", _kernel_py.scan)
    assert main(["--search", "7", "--repeat", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["backend"], doc["verdict"], doc["optimal_aperture"]) == ("python", "optimal", 9)
