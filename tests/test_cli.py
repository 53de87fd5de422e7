"""Command-line surface: payloads, renderings, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rmra
from rmra.cli import build_parser, main, render_text

from conftest import TABLE3


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSearch:
    def test_six_sensors(self, capsys):
        code, out, err = run(capsys, "search", "--n", "6")
        assert code == 0
        assert "best array: [0, 1, 2, 3, 5, 6]" in out
        assert "Valid configuration found for L = 6" in err
        assert "Failure to find L = 7 for N = 6" in err

    def test_matches_published_optima_six_to_ten(self, capsys):
        for n, positions in TABLE3.items():
            code, out, err = run(capsys, "search", "--n", str(n))
            assert code == 0
            assert f"best array: [{', '.join(str(p) for p in positions)}]" in out

    def test_eleven_stage_narrative(self, capsys):
        code, out, err = run(capsys, "search", "--n", "11")
        assert code == 0
        assert err.count("Valid configuration found for L = ") == 12
        assert "Failure to find L = 23 for N = 11" in err

    def test_json_payload(self, capsys):
        code, out, err = run(capsys, "search", "--n", "6", "--format", "json")
        assert code == 0
        env = json.loads(out)
        assert env["schema_version"] == 1
        assert env["command"] == "search"
        assert env["result"]["verdict"] == "optimal"
        assert env["result"]["best_array"] == [0, 1, 2, 3, 5, 6]

    def test_l_limit_exit_code(self, capsys):
        code, out, err = run(capsys, "search", "--n", "12", "--l-limit", "14")
        assert code == 4
        assert "verdict: near-optimal" in out
        assert "reason: aperture limit reached" in out
        # the candidate budget and the tight start are gone
        assert run(capsys, "search", "--n", "12", "--budget", "5")[0] == 3
        assert run(capsys, "search", "--n", "12", "--tight-bounds")[0] == 3
        _, out, _ = run(capsys, "search", "--n", "12", "--l-limit", "14", "--format", "json")
        assert list(json.loads(out)["inputs"]) == ["n", "l_start", "l_limit", "filters"]

    def test_unwritable_checkpoint_is_an_error_not_a_crash(self, capsys, tmp_path):
        # a capped run always writes its checkpoint, here into a missing directory
        path = tmp_path / "missing" / "run.ckpt"
        code, out, err = run(
            capsys, "search", "--n", "12", "--l-limit", "14", "--checkpoint", str(path)
        )
        assert code == 3
        # the message names the file asked for, not the temporary one beside it
        assert err.splitlines()[-1].startswith(f"error: could not write checkpoint {path}: ")
        assert ".tmp" not in err

    def test_usage_errors(self, capsys):
        assert run(capsys, "search", "--n", "5")[0] == 3
        assert run(capsys, "search", "--n", "11", "--l-start", "25", "--l-limit", "20")[0] == 3
        assert run(capsys, "search")[0] == 3

    def test_none_found_exit_code(self, capsys):
        code, out, err = run(capsys, "search", "--n", "6", "--l-start", "8")
        assert code == 2

    def test_workers_flag(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "7", "--workers", "4")
        assert code == 0
        assert "aperture: 9" in out

    def test_workers_below_one_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "search", "--n", "7", "--workers", "0")
        assert (code, out) == (3, "")
        assert err == "usage error: workers must be >= 1\n"

    def test_json_round_trip_rendering(self, capsys):
        code, json_out, _ = run(capsys, "search", "--n", "7", "--format", "json")
        env = json.loads(json_out)
        code, text_out, _ = run(capsys, "search", "--n", "7")
        assert render_text(env) == text_out

    def test_deterministic_flag_is_accepted_no_op(self, capsys):
        # every search is deterministic; the flag stays for old command lines
        _, plain, _ = run(capsys, "search", "--n", "7")
        code, flagged, _ = run(capsys, "search", "--n", "7", "--deterministic")
        assert code == 0
        assert flagged == plain
        _, out, _ = run(capsys, "search", "--n", "7", "--deterministic", "--format", "json")
        assert "deterministic" not in json.loads(out)["inputs"]


class TestAnalyze:
    def test_healthy_array(self, capsys):
        code, out, _ = run(capsys, "analyze", "0,1,2,5,6,8,9")
        assert code == 0
        assert "essential sensors: [0, 9]" in out
        assert "fragility: 2/7" in out

    def test_fragile_array_exit_one(self, capsys):
        code, out, _ = run(capsys, "analyze", "0,1,7,8,16,17,25,26,27,28,29,30,31")
        assert code == 1
        assert "essential sensors: [0, 16, 31]" in out
        assert "fragility: 3/13" in out

    def test_failed_sensor_detail(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "0,1,7,8,16,17,25,26,27,28,29,30,31", "--failed", "16"
        )
        assert code == 1
        assert "after failure of 16:" in out
        assert "holes: [15]" in out

    def test_failed_not_a_sensor(self, capsys):
        code, _, err = run(capsys, "analyze", "0,1,2,5,6,8,9", "--failed", "4")
        assert code == 2

    def test_whitespace_and_commas_accepted(self, capsys):
        code, out, _ = run(capsys, "analyze", "3", "4", "5", "8", "9", "11", "12")
        assert code == 0
        assert "positions: [0, 1, 2, 5, 6, 8, 9]" in out  # canonical echo

    def test_malformed_positions(self, capsys):
        assert run(capsys, "analyze", "0,1,x")[0] == 3

    def test_duplicate_positions(self, capsys):
        assert run(capsys, "analyze", "0,1,1,3")[0] == 3

    def test_csv_weight_table(self, capsys):
        code, out, _ = run(capsys, "analyze", "0,1,2,5,6,8,9", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "lag,weight"
        assert lines[1] == "0,7"
        assert lines[2] == "1,4"
        assert len(lines) == 11

    def test_csv_faulty_weight_table(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze",
            "0,1,7,8,16,17,25,26,27,28,29,30,31",
            "--failed",
            "16",
            "--format",
            "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "lag,weight"
        assert lines[16] == "15,0"  # the hole

    def test_json_round_trip_rendering(self, capsys):
        code, json_out, _ = run(
            capsys, "analyze", "0,1,2,5,6,8,9", "--format", "json"
        )
        env = json.loads(json_out)
        code, text_out, _ = run(capsys, "analyze", "0,1,2,5,6,8,9")
        assert render_text(env) == text_out


class TestCatalog:
    def test_family_and_size(self, capsys):
        code, out, _ = run(capsys, "catalog", "--family", "rmra", "--n", "14")
        assert code == 0
        assert "[0, 1, 2, 3, 4, 5, 12, 14, 21, 23, 29, 30, 35, 36]" in out

    def test_unknown_family(self, capsys):
        assert run(capsys, "catalog", "--family", "nested")[0] == 3

    def test_empty_result(self, capsys):
        assert run(capsys, "catalog", "--family", "symna", "--n", "17")[0] == 2

    def test_comparison_table(self, capsys):
        code, out, _ = run(capsys, "catalog", "--compare")
        assert code == 0
        assert "16 24     47    45    -" in out

    def test_comparison_csv(self, capsys):
        code, out, _ = run(capsys, "catalog", "--compare", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "N,symNA,RMRA,2FRA,2FRA_critical"
        assert len(lines) == 16
        assert "16,24,47,45," in lines
        assert "13,,32,31,16" in lines

    def test_jsonl_export(self, capsys):
        code, out, _ = run(capsys, "catalog", "--family", "rmra", "--format", "jsonl")
        assert code == 0
        entries = [json.loads(line) for line in out.strip().splitlines()]
        assert all(e["family"] == "RMRA" for e in entries)
        assert any(e["status"] == "optimal" and e["n"] == 13 for e in entries)

    def test_search_results_match_catalog_optima(self, capsys):
        # the searched optimum and the cataloged optimum agree in aperture
        code, out, _ = run(capsys, "search", "--n", "8", "--format", "json")
        found = json.loads(out)["result"]["optimal_aperture"]
        code, out, _ = run(capsys, "catalog", "--family", "rmra", "--n", "8", "--format", "jsonl")
        catalogued = json.loads(out.strip().splitlines()[0])["l"]
        assert found == catalogued == 12

    def test_json_round_trip_rendering(self, capsys):
        code, json_out, _ = run(capsys, "catalog", "--compare", "--format", "json")
        env = json.loads(json_out)
        code, text_out, _ = run(capsys, "catalog", "--compare")
        assert render_text(env) == text_out


class TestVerify:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "entries passed" in out
        assert "FAIL" not in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--format", "json")
        env = json.loads(out)
        assert env["result"]["all_passed"] is True
        assert env["result"]["passed"] == env["result"]["total"]


class TestIes:
    def test_positions_to_ies(self, capsys):
        code, out, _ = run(capsys, "ies", "0,1,2,5,6,8,9")
        assert code == 0
        assert "ies: [1, 1, 3, 1, 2, 1]" in out

    def test_from_ies(self, capsys):
        code, out, _ = run(capsys, "ies", "--from-ies", "1,1,3,1,2,1")
        assert code == 0
        assert "positions: [0, 1, 2, 5, 6, 8, 9]" in out

    def test_extend_grows_and_verifies(self, capsys):
        code, out, _ = run(
            capsys, "ies", "0,1,2,4,5,9,14,19,24,29,34,35,40,41,42", "--extend", "2"
        )
        assert code == 0
        assert "n: 17  aperture: 52" in out
        assert "valid: True" in out

    def test_extend_patternless(self, capsys):
        code, _, err = run(capsys, "ies", "0,1,3,7", "--extend", "1")
        assert code == 2

    def test_requires_input(self, capsys):
        assert run(capsys, "ies")[0] == 3

    def test_rejects_both_inputs(self, capsys):
        assert run(capsys, "ies", "0,1,3", "--from-ies", "1,2")[0] == 3


class TestParserReuse:
    """``main`` reuses one parser per process; no call may see another's arguments."""

    FRA2 = "0,1,7,8,16,17,25,26,27,28,29,30,31"

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_failed_sensor_does_not_carry_over(self, capsys):
        code, out, _ = run(capsys, "analyze", self.FRA2, "--failed", "16", "--format", "json")
        assert code == 1
        assert json.loads(out)["inputs"]["failed"] == 16
        code, out, _ = run(capsys, "analyze", self.FRA2, "--format", "json")
        assert code == 1
        env = json.loads(out)
        assert env["inputs"]["failed"] is None
        assert "failed_detail" not in env["result"]

    def test_usage_error_then_valid_search_matches_a_fresh_process(self, capsys):
        assert run(capsys, "search", "--n", "7", "--format", "yaml")[0] == 3
        code, out, err = run(capsys, "search", "--n", "7")
        assert code == 0
        src = Path(rmra.__file__).resolve().parent.parent
        fresh = subprocess.run(
            [sys.executable, "-m", "rmra.cli", "search", "--n", "7"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=False,
        )
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, out, err)


ENVELOPES = Path(__file__).resolve().parent / "data" / "json_envelopes.jsonl"


@pytest.mark.parametrize(
    "case",
    [json.loads(line) for line in ENVELOPES.read_text().splitlines()],
    ids=lambda case: " ".join(case["argv"]),
)
def test_json_output_is_one_line_holding_the_recorded_envelope(capsys, case):
    # The recorded envelopes come from the earlier indented renderer, timings
    # removed; the one-line rendering must carry the same payload in the same
    # key order.
    code, out, _ = run(capsys, *case["argv"], "--format", "json")
    assert code == case["exit_code"]
    assert out.endswith("\n") and out.count("\n") == 1
    env = json.loads(out)
    assert list(env.pop("timing")) == ["seconds"]
    for stage in env["result"].get("stages", []):
        del stage["elapsed"]
    assert json.dumps(env) == json.dumps(case["envelope"])
