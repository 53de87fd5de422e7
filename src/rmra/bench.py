"""Benchmark the candidate scanners: compiled extension vs pure Python.

Run as ``python -m rmra.bench``. Scans a full stage with each available
backend and reports throughput; the reference stage (11 sensors, aperture
23) is the classic half-million-candidate exhaustion proof.
"""

from __future__ import annotations

import argparse
import time

from .kernel import available_backends
from .search import candidate_count


def bench_backend(scan, n: int, l: int, filtered: bool, repeat: int) -> tuple[float, int]:
    total = candidate_count(n, l, filtered)
    k = (n - 4) if filtered else (n - 2)
    first = list(range(k))
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        # mirror pruning on, as in every search
        examined, found, _ = scan(n, l, first, total, filtered, True)
        dt = time.perf_counter() - t0
        if found >= 0:
            raise RuntimeError("benchmark stage unexpectedly contains a valid array")
        if examined != total:
            raise RuntimeError(f"scanned {examined} of {total} candidates")
        best = min(best, dt)
    return best, total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=11)
    parser.add_argument("--l", type=int, default=23)
    parser.add_argument("--filtered", action="store_true")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)

    backends = available_backends()
    print(f"stage: n={args.n} l={args.l} filtered={args.filtered} "
          f"({candidate_count(args.n, args.l, args.filtered)} candidates)")
    results = {}
    for name, scan in backends.items():
        dt, total = bench_backend(scan, args.n, args.l, args.filtered, args.repeat)
        results[name] = dt
        print(f"  {name:<8} {dt:8.3f} s   {total / dt / 1e6:8.2f} M candidates/s")
    if "c" in results and "python" in results:
        print(f"  speedup: {results['python'] / results['c']:.1f}x")
    elif "c" not in results:
        print("  compiled backend unavailable; showing pure Python only")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
