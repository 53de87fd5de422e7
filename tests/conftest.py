"""Shared fixtures plus a per-criterion summary for the acceptance suite."""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest


def _build_kernel() -> None:
    """Build the compiled kernel in place, as perfbench/run.py does.

    Runs before anything imports rmra, so the suite cross-checks both
    backends. Without a C compiler, or if the build fails (setup.py turns
    compiler errors into warnings), the compiled-kernel tests skip.
    """
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        return
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=Path(__file__).resolve().parent.parent,
        capture_output=True,
        check=False,
    )


_build_kernel()

from rmra.coarray import SensorArray  # noqa: E402

# Reference arrays used across the suite.
RMRA7 = SensorArray((0, 1, 2, 5, 6, 8, 9))  # the worked 7-sensor example
FRA2_13 = SensorArray((0, 1, 7, 8, 16, 17, 25, 26, 27, 28, 29, 30, 31))
TABLE3 = {
    6: (0, 1, 2, 3, 5, 6),
    7: (0, 1, 2, 4, 6, 8, 9),
    8: (0, 1, 2, 3, 5, 8, 11, 12),
    9: (0, 1, 2, 3, 4, 9, 10, 14, 15),
    10: (0, 1, 2, 6, 7, 8, 15, 16, 18, 19),
}
TABLE4 = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 12),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 13),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 13, 14),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 14, 15),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 16),
    (0, 1, 2, 3, 4, 5, 6, 8, 10, 16, 17),
    (0, 1, 2, 3, 4, 5, 6, 8, 11, 17, 18),
    (0, 1, 2, 3, 4, 5, 6, 11, 12, 18, 19),
    (0, 1, 2, 3, 4, 5, 6, 12, 13, 19, 20),
    (0, 1, 2, 3, 4, 5, 6, 13, 14, 20, 21),
    (0, 1, 2, 3, 4, 10, 11, 16, 17, 21, 22),
)
OPTIMAL_APERTURES = {6: 6, 7: 9, 8: 12, 9: 15, 10: 19, 11: 22, 12: 26, 13: 32, 14: 36, 15: 42}


def random_array(rng: random.Random, max_n: int = 12, max_l: int = 40) -> SensorArray:
    """A random canonical array: 0 and an aperture, interior sampled freely."""
    l = rng.randint(1, max_l)
    n = rng.randint(2, min(max_n, l + 1))
    interior = rng.sample(range(1, l), n - 2) if n > 2 else []
    return SensorArray(tuple(sorted([0, *interior, l])))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = []
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            if getattr(report, "when", "call") != "call" and status != "skipped":
                continue
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            lines.append((name, status.upper()))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, status in sorted(set(lines)):
            terminalreporter.write_line(f"{status:>7}  {name}")
