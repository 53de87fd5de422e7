"""Run every workload once untraced and once traced, and print every metric.

Usage (from the root of a checkout):

    python3 perfbench/report.py --seconds 30 --seed 1

Each run is a separate ``run.py`` process, so peak memory is per workload.
The report lists the end-to-end metrics under their own names (``search_s``,
``analyze_ms``, ``analyze_ms_p99``, ``verify_ms``, ``setup_s``,
``peak_rss_mb``, ``failure_rate``), then ``trace.overhead`` and the per-layer
metrics of the traced runs, then the provenance. Exits 1 if any command
failed its check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("proof-serial", "paper-parallel", "analysis")


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(detail line, result line) of one run.py run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} --trace {trace} failed:\n{proc.stderr}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)

    failed = 0
    provenance = None
    for workload in WORKLOADS:
        detail, result = bench(workload, args.seed, args.seconds, 0)
        traced_detail, traced = bench(workload, args.seed, args.seconds, 1)
        failed += result["failed"] + traced["failed"]
        provenance = detail["provenance"]
        print(f"== {workload}: {result['attempted']} commands in the untraced run, "
              f"{traced['attempted']} in the traced run, "
              f"{result['failed'] + traced['failed']} failed")
        for name, m in detail["metrics"].items():
            if isinstance(m, dict):
                samples = f"  (n={m['samples']})" if "samples" in m else ""
                print(f"  {name:<28} {_fmt(m['value']):>14} {m['unit']}{samples}")
        for name, m in result["metrics"].items():
            print(f"  {name:<28} {_fmt(m['value']):>14} {m['unit']}  [gated]")
        overhead = traced_detail["metrics"]["trace.overhead"]
        print(f"  {'trace.overhead':<28} {_fmt(overhead['value']):>14} ratio  "
              f"(traced {overhead['traced_samples']} / untraced "
              f"{overhead['untraced_samples']} commands)")
        for name, m in traced["metrics"].items():
            if name != "trace.overhead":
                print(f"    {name:<26} {_fmt(m['value']):>14} {m['unit']}")
    print("provenance:", json.dumps(
        {k: v for k, v in provenance.items() if k not in ("workload", "workload_params", "trace")}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
