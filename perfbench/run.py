"""rmra benchmark: drive the ``rmra`` command line in-process and measure it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload proof-serial --seed 1 --seconds 30 --trace 0

One client runs the workload's commands in a closed loop through
``rmra.cli.main``: the next command starts when the previous one returned.
Every command's output is checked against the oracles in ``workloads.py``,
outside the timed region. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds every metric under the names used in ``perfbench/README.md``, the
sample counts and the provenance of the run.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
traced and untraced commands, reports the per-layer metrics of the traced
ones and the tracing overhead, and writes the spans of the first traced
commands to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import (  # noqa: E402
    VERIFY_EVERY,
    WORKLOADS,
    Workload,
    analysis_stream,
    analyze_positions,
    brute_force_analysis,
    check_analyze,
    check_search,
    check_verify,
    search_argv,
    warmup_search_argv,
)

SETUP_SAMPLES = 15
COUNT_WINDOW = 200  # traced analyze commands the deterministic counts cover
KEEP_SPANS_OF = 16  # traced commands whose spans are written out

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import rmra
backend = rmra.KERNEL_BACKEND
t1 = time.perf_counter()
print(repr(t1 - t0), backend, rmra.__file__)
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


# ------------------------------------------------------------------ setup


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RMRA_KERNEL", None)  # measure the backend the build selects
    env["PYTHONPATH"] = str(SRC)
    return env


def build() -> float:
    """Run the repository's own build step; it selects the kernel backend."""
    if not (ROOT / "setup.py").is_file() or not (SRC / "rmra" / "__init__.py").is_file():
        raise BenchError(f"no rmra sources under {ROOT}")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", str(OUT / "build")],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise BenchError(f"build failed:\n{proc.stderr[-2000:]}")
    return time.perf_counter() - t0


def _is_local(module_file: str) -> bool:
    return Path(module_file).resolve().is_relative_to(SRC.resolve())


def setup_samples() -> list[float]:
    """Import time of ``rmra`` (with backend selection) in fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=120, check=True,
        )
        seconds, _backend, module_file = proc.stdout.split(maxsplit=2)
        if not _is_local(module_file.strip()):
            raise BenchError(f"fresh interpreter imported rmra from {module_file}")
        samples.append(float(seconds))
    return samples


def load_program():
    os.environ.pop("RMRA_KERNEL", None)
    sys.path.insert(0, str(SRC))
    import rmra
    import rmra.cli

    if not _is_local(rmra.__file__):
        raise BenchError(f"imported rmra from {rmra.__file__}, not from {SRC}")
    return rmra, rmra.cli


def provenance(rmra, wl: Workload, args) -> dict:
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".pyx", ".c") and path.is_file():
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "kernel_backend": rmra.KERNEL_BACKEND,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "git_commit": commit,  # None in a checkout that is not a git repository
        "source_sha256": digest.hexdigest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": wl.name,
        "workload_params": {
            "kind": wl.kind,
            "search_flags": list(wl.search_flags),
            "workers": wl.workers,
            "verify_every": VERIFY_EVERY if wl.kind == "analysis" else None,
        },
    }


# ---------------------------------------------------------------- commands


def run_command(cli, argv: list[str]) -> tuple[int | None, str, float, str]:
    """Run one command in-process; time only the ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)  # looked up per call, so tracing wraps it
        except Exception:  # a crash is a failed command, not a dead benchmark
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
    return code, out.getvalue(), elapsed, err.getvalue()


def check_command(wl: Workload, argv: list[str], code, stdout: str, checkpoint: Path) -> list[str]:
    if code is None:
        return ["command raised"]
    try:
        return _check(wl, argv, code, stdout, checkpoint)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return [f"output has an unexpected shape: {exc!r}"]


def _check(wl: Workload, argv: list[str], code, stdout: str, checkpoint: Path) -> list[str]:
    if argv[0] == "search":
        return check_search(code, stdout, checkpoint, wl.expectation)
    if argv[0] == "analyze":
        expect = brute_force_analysis(analyze_positions(argv))
        return check_analyze(code, stdout, expect)
    return check_verify(code, stdout)


def command_stream(wl: Workload, seed: int, checkpoint: Path):
    if wl.kind == "search":
        argv = search_argv(wl, checkpoint)
        while True:
            yield argv
    else:
        yield from analysis_stream(seed)


def warm_up(cli, wl: Workload, seed: int, checkpoint: Path) -> None:
    """Let lazy set-up finish before timing; results are not counted."""
    if wl.kind == "search":
        checkpoint.unlink(missing_ok=True)
        run_command(cli, warmup_search_argv(wl, checkpoint))
        return
    stream = analysis_stream(seed ^ 0x5EED)
    for _ in range(VERIFY_EVERY):
        run_command(cli, next(stream))


# ----------------------------------------------------------------- metrics


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, str]:
    """p90 when at least ten samples lie beyond it, else the median.

    Not p99: on a shared 2-vCPU virtual machine a few stalls of several
    milliseconds per run move the p99 of 2 ms commands by up to 3x between
    runs, which no bound of 25 % can hold. p99 stays in the detail line."""
    if len(values) >= 100:
        return statistics.quantiles(values, n=10)[8], "p90"
    return median(values), "p50"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(folds: list[tracing.CommandFold], window: list[tracing.CommandFold]) -> dict:
    """Per-layer metrics: per command of the kind that uses the layer; 0 when
    the workload never enters the layer."""
    search = [f.values for f in folds if f.kind == "search"]
    analyze = [f.values for f in folds if f.kind == "analyze"]
    verify = [f.values for f in folds if f.kind == "verify"]
    every = [f.values for f in folds]

    def mean(rows: list[dict], key: str, scale: float = 1.0) -> float:
        return scale * sum(r[key] for r in rows) / len(rows) if rows else 0.0

    def total(rows: list[dict], key: str) -> float:
        return sum(r[key] for r in rows)

    windowed = [f.values for f in window]
    return {
        "kernel.calls": (mean(search, "kernel.calls"), "count"),
        "kernel.candidates": (mean(search, "kernel.candidates"), "count"),
        "kernel.busy_s": (mean(search, "kernel.busy"), "s"),
        "kernel.ns_per_candidate": (
            1e9 * _ratio(total(search, "kernel.busy"), total(search, "kernel.candidates")), "ns"),
        "kernel.cpu_ratio": (
            _ratio(total(search, "kernel.cpu"), total(search, "kernel.busy")), "ratio"),
        "search.stages": (mean(search, "search.stages"), "count"),
        "search.self_s": (mean(search, "search.self"), "s"),
        "search.between_stages_s": (mean(search, "search.between"), "s"),
        "search.useful_ratio": (
            _ratio(total(search, "search.useful"), total(search, "kernel.candidates")), "ratio"),
        "search.worker_util": (
            _ratio(total(search, "kernel.busy"), total(search, "search.stage_capacity")), "ratio"),
        "search.checkpoint_writes": (mean(search, "search.checkpoint_writes"), "count"),
        "search.checkpoint_write_ms": (
            1e3 * _ratio(total(search, "search.checkpoint_time"),
                         total(search, "search.checkpoint_writes")), "ms"),
        "cli.self_ms": (mean(every, "cli.self", 1e3), "ms"),
        "cli.build_parser_ms": (mean(every, "cli.build_parser", 1e3), "ms"),
        "robustness.analyze_ms": (mean(analyze, "robustness.analyze", 1e3), "ms"),
        "robustness.rmra_check_ms": (mean(analyze, "robustness.rmra_check", 1e3), "ms"),
        "robustness.failure_reports": (mean(windowed, "robustness.failure_reports"), "count"),
        "coarray.canonicalize_ms": (mean(analyze, "coarray.canonicalize", 1e3), "ms"),
        "coarray.weight_table_ms": (mean(analyze, "coarray.weight_table", 1e3), "ms"),
        "catalog.verify_ms": (mean(verify, "catalog.verify", 1e3), "ms"),
        "catalog.entries": (mean(verify, "catalog.entries"), "count"),
    }


# -------------------------------------------------------------------- run


class Run:
    """One benchmark run: the command loop and what it measured."""

    def __init__(self, cli, wl: Workload, args) -> None:
        self.cli, self.wl, self.args = cli, wl, args
        self.checkpoint = OUT / f"ckpt-{wl.name}.json"
        self.times: dict[tuple[str, bool], list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.folds: list[tracing.CommandFold] = []
        self.window: list[tracing.CommandFold] = []
        self.kept_spans: list[tracing.Span] = []
        self.tracer = tracing.Tracer() if args.trace else None

    def samples(self, kind: str, traced: bool = False) -> list[float]:
        return self.times.get((kind, traced), [])

    def _enough(self) -> bool:
        """A traced run needs traced and untraced samples of every kind it
        runs, and a full count window on the analysis workload."""
        if not self.args.trace:
            return self.attempted > 0
        kinds = ("search",) if self.wl.kind == "search" else ("analyze", "verify")
        if any(not self.samples(k, t) for k in kinds for t in (False, True)):
            return False
        return self.wl.kind == "search" or len(self.window) >= COUNT_WINDOW

    def execute(self) -> None:
        OUT.mkdir(exist_ok=True)
        warm_up(self.cli, self.wl, self.args.seed, self.checkpoint)
        seen: dict[str, int] = {}
        deadline = time.perf_counter() + self.args.seconds
        for argv in command_stream(self.wl, self.args.seed, self.checkpoint):
            if time.perf_counter() >= deadline and self._enough():
                break
            kind = argv[0]
            seen[kind] = seen.get(kind, 0) + 1
            traced = self.tracer is not None and seen[kind] % 2 == 1
            self.one(argv, kind, traced)

    def one(self, argv: list[str], kind: str, traced: bool) -> None:
        self.checkpoint.unlink(missing_ok=True)
        if traced:
            self.tracer.command = self.attempted
            self.tracer.install()
        try:
            code, stdout, elapsed, stderr = run_command(self.cli, argv)
        finally:
            if traced:
                self.tracer.uninstall()
        self.attempted += 1
        problems = check_command(self.wl, argv, code, stdout, self.checkpoint)
        if problems:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{' '.join(argv)}: {'; '.join(problems)}\n{stderr[-1000:]}")
        self.times.setdefault((kind, traced), []).append(elapsed)
        if traced:
            spans = self.tracer.take()
            fold = tracing.fold(spans, kind, self.wl.workers)
            self.folds.append(fold)
            if kind == "analyze" and len(self.window) < COUNT_WINDOW:
                self.window.append(fold)
            if len(self.folds) <= KEEP_SPANS_OF:
                self.kept_spans.extend(spans)

    def main_kind(self) -> str:
        return "search" if self.wl.kind == "search" else "analyze"

    def end_to_end(self, setup: list[float]) -> tuple[dict, dict]:
        """(gated metrics, metrics under their per-workload names)."""
        main = self.samples(self.main_kind())
        everything = [t for ts in self.times.values() for t in ts]
        tail_value, tail_label = tail(main)
        metrics = {
            "command_ms": (1e3 * median(main), "ms"),
            "command_tail_ms": (1e3 * tail_value, "ms"),
            "command_mean_ms": (1e3 * statistics.fmean(everything), "ms"),
            "setup_s": (median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        named = {
            "setup_s": {"value": median(setup), "unit": "s", "samples": len(setup)},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "failure_rate": {"value": self.failed / self.attempted, "unit": "ratio",
                             "samples": self.attempted},
            "command_tail_percentile": tail_label,
        }
        if self.wl.kind == "search":
            named["search_s"] = {"value": median(main), "unit": "s", "samples": len(main)}
        else:
            verify = self.samples("verify")
            p99 = statistics.quantiles(main, n=100)[98] if len(main) >= 2 else median(main)
            named["analyze_ms"] = {"value": 1e3 * median(main), "unit": "ms", "samples": len(main)}
            named["analyze_ms_p99"] = {"value": 1e3 * p99, "unit": "ms", "samples": len(main)}
            named["verify_ms"] = {"value": 1e3 * median(verify), "unit": "ms",
                                  "samples": len(verify)}
        return metrics, named

    def per_layer(self) -> tuple[dict, dict]:
        kind = self.main_kind()
        overhead = _ratio(median(self.samples(kind, True)), median(self.samples(kind, False)))
        metrics = layer_metrics(self.folds, self.window)
        metrics["trace.overhead"] = (overhead, "ratio")
        named = {
            "trace.overhead": {"value": overhead, "unit": "ratio",
                               "traced_samples": len(self.samples(kind, True)),
                               "untraced_samples": len(self.samples(kind, False))},
            "count_window": len(self.window),
            "traced_commands": len(self.folds),
        }
        return metrics, named


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        build_s = build()
        setup = [] if args.trace else setup_samples()
        rmra, cli = load_program()
    except (BenchError, subprocess.SubprocessError, OSError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    run = Run(cli, wl, args)
    try:
        run.execute()
    finally:
        run.checkpoint.unlink(missing_ok=True)
        run.checkpoint.with_suffix(".tmp").unlink(missing_ok=True)
    for message in run.failures:
        print(f"FAILED {message}", file=sys.stderr)

    if args.trace:
        metrics, named = run.per_layer()
        span_file = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracing.write_spans(span_file, run.kept_spans)
        named["span_file"] = str(span_file.relative_to(ROOT))
    else:
        metrics, named = run.end_to_end(setup)
    named["build_s"] = {"value": build_s, "unit": "s"}
    print(json.dumps({"detail": {"metrics": named, "provenance": provenance(rmra, wl, args)}}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
