"""Self-test of the benchmark harness.

Usage (from the root of a checkout): ``python3 perfbench/selftest.py``

Checks that each oracle rejects output that disagrees with a (deliberately
wrong) expectation and that the harness then counts the command as failed;
that a short run of every workload emits exactly the metrics named in
``BENCHMARK.json``; that the deterministic counts repeat; and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from argparse import Namespace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import (  # noqa: E402
    PAPER_11,
    WORKLOADS,
    brute_force_analysis,
    check_analyze,
    check_search,
    check_verify,
)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKDIR = run.OUT / "selftest"

_, cli = run.load_program()


def capture(argv: list[str]) -> tuple[int | None, str]:
    code, stdout, _, _ = run.run_command(cli, argv)
    return code, stdout


def bench(workload: str, trace: int, seed: int = 7, cwd: Path = run.ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class OracleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        WORKDIR.mkdir(parents=True, exist_ok=True)
        cls.checkpoint = WORKDIR / "ckpt.json"
        cls.checkpoint.unlink(missing_ok=True)
        argv = workloads.search_argv(WORKLOADS["paper-parallel"], cls.checkpoint)
        cls.search_code, cls.search_out = capture(argv)

    def test_search_oracle_accepts_the_program(self):
        self.assertEqual(
            check_search(self.search_code, self.search_out, self.checkpoint, PAPER_11), []
        )

    def test_search_oracle_rejects_wrong_exhaustion_count(self):
        wrong = dataclasses.replace(PAPER_11, exhausted_count=PAPER_11.exhausted_count + 1)
        self.assertTrue(check_search(self.search_code, self.search_out, self.checkpoint, wrong))

    def test_search_oracle_rejects_wrong_row(self):
        rows = list(PAPER_11.rows)
        rows[3] = rows[4]
        wrong = dataclasses.replace(PAPER_11, rows=tuple(rows))
        self.assertTrue(check_search(self.search_code, self.search_out, self.checkpoint, wrong))

    def test_search_oracle_rejects_leftover_checkpoint_and_bad_stdout(self):
        self.checkpoint.write_text("{}")
        try:
            self.assertTrue(
                check_search(self.search_code, self.search_out, self.checkpoint, PAPER_11)
            )
        finally:
            self.checkpoint.unlink()
        doubled = self.search_out + self.search_out
        self.assertTrue(check_search(0, doubled, self.checkpoint, PAPER_11))

    def test_analyze_oracle(self):
        for raw in ([3, 4, 5, 8, 9, 11, 12], list(workloads.FRA2_13), [0, 1, 2, 3, 7]):
            argv = ["analyze", ",".join(map(str, raw)), "--format", "json"]
            code, out = capture(argv)
            expect = brute_force_analysis(raw)
            self.assertEqual(check_analyze(code, out, expect), [], raw)
            wrong = dataclasses.replace(expect, essential=expect.essential[1:])
            self.assertTrue(check_analyze(code, out, wrong), raw)
            flipped = dataclasses.replace(expect, two_essential=not expect.two_essential)
            self.assertTrue(check_analyze(code, out, flipped), raw)

    def test_brute_force_oracle_on_known_arrays(self):
        self.assertEqual(brute_force_analysis([3, 4, 5, 8, 9, 11, 12]).essential, (0, 9))
        fra2 = brute_force_analysis(list(workloads.FRA2_13))
        self.assertEqual(fra2.essential, (0, 16, 31))
        self.assertFalse(fra2.two_essential)

    def test_verify_oracle(self):
        code, out = capture(["verify", "--format", "json"])
        self.assertEqual(check_verify(code, out), [])
        env = json.loads(out)
        env["result"]["passed"] -= 1
        self.assertTrue(check_verify(code, json.dumps(env)))
        self.assertTrue(check_verify(1, out))


class HarnessCountsFailures(unittest.TestCase):
    def make_run(self, wl):
        args = Namespace(seed=3, seconds=0.0, trace=0, workload=wl.name)
        return run.Run(cli, wl, args)

    def test_wrong_exhaustion_count_fails_the_command(self):
        wl = WORKLOADS["paper-parallel"]
        wrong = dataclasses.replace(
            wl, expectation=dataclasses.replace(wl.expectation, exhausted_count=1)
        )
        r = self.make_run(wrong)
        r.checkpoint = WORKDIR / "harness-ckpt.json"
        r.one(workloads.search_argv(wrong, r.checkpoint), "search", False)
        self.assertEqual((r.attempted, r.failed), (1, 1))

    def test_wrong_essential_set_fails_the_command(self):
        def wrong_oracle(raw):
            expect = brute_force_analysis(raw)
            return dataclasses.replace(expect, essential=expect.essential + (10**6,))

        r = self.make_run(WORKLOADS["analysis"])
        saved = run.brute_force_analysis
        run.brute_force_analysis = wrong_oracle
        try:
            r.one(["analyze", "0,1,2,5,6,8,9", "--format", "json"], "analyze", False)
        finally:
            run.brute_force_analysis = saved
        r.one(["analyze", "0,1,2,5,6,8,9", "--format", "json"], "analyze", False)
        self.assertEqual((r.attempted, r.failed), (2, 1))


class SmokeRuns(unittest.TestCase):
    def assert_metrics(self, result: dict, group: str) -> dict:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        named = {m["name"]: m["unit"] for m in BENCHMARK[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, named)
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_every_workload_emits_every_metric(self):
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(WORKLOADS))
        for name in WORKLOADS:
            with self.subTest(workload=name):
                values = self.assert_metrics(result_of(bench(name, 0)), "end_to_end")
                self.assertTrue(all(v > 0 for v in values.values()), values)

    def test_traced_runs_and_deterministic_counts(self):
        serial = self.assert_metrics(result_of(bench("proof-serial", 1)), "per_layer")
        self.assertEqual(serial["kernel.candidates"], 741_532)
        self.assertEqual(serial["search.stages"], 16)
        self.assertEqual(serial["search.useful_ratio"], 1.0)
        self.assertEqual(serial["robustness.failure_reports"], 0)
        parallel = self.assert_metrics(result_of(bench("paper-parallel", 1)), "per_layer")
        self.assertEqual(parallel["search.stages"], 13)
        # In-flight chunks may finish after a find, so the kernel can do more
        # work than the stages report, never less.
        self.assertGreater(parallel["search.useful_ratio"], 0)
        self.assertLessEqual(parallel["search.useful_ratio"], 1.0)
        first = self.assert_metrics(result_of(bench("analysis", 1)), "per_layer")
        again = self.assert_metrics(result_of(bench("analysis", 1)), "per_layer")
        for key in ("robustness.failure_reports", "catalog.entries", "kernel.calls"):
            self.assertEqual(first[key], again[key], key)
        self.assertGreater(first["robustness.failure_reports"], 0)
        self.assertGreater(first["catalog.entries"], 0)
        self.assertEqual(first["kernel.calls"], 0)

    def test_refuses_to_run_without_the_program(self):
        bare = WORKDIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = bench("analysis", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


class InteractionMap(unittest.TestCase):
    def test_map_covers_every_layer_metric(self):
        mapping = json.loads((HERE / "interactions.json").read_text())
        layer = {m["name"] for m in BENCHMARK["per_layer"]}
        self.assertEqual(set(mapping), layer)
        e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
        for name, entry in mapping.items():
            for metric, workload in entry["moves"]:
                self.assertIn(metric, e2e, name)
                self.assertIn(workload, WORKLOADS, name)
            self.assertLessEqual(set(entry["unchanged_on"]), set(WORKLOADS), name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
