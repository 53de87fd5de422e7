"""Benchmark the stage scanners and the whole search.

Run as ``python -m rmra.bench``. By default it times one full stage with
each available backend; the headline figure is the stage's wall time. The
reference stage (11 sensors, aperture 23) is the classic half-million-
candidate exhaustion proof. Candidates/s counts the lexicographic candidates
a stage covers: the pure-Python scanner visits each of them, the compiled
branch-and-bound engine prunes most of them unvisited, so it is no measure
of work done. Pure Python sits out stages above two million candidates,
which would take it minutes.

``--search N`` times :func:`rmra.search.loses_search` end to end for N
sensors at 1 and 2 workers instead. ``--json`` prints the same figures, plus
the host, as one JSON document.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

from .kernel import BACKEND, available_backends
from .search import SearchConfig, candidate_count, loses_search

PYTHON_STAGE_LIMIT = 2_000_000  # candidates; ~0.2-0.3 M/s makes larger stages minutes long


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


def bench_search(n: int, workers: int, repeat: int) -> dict:
    """Best wall seconds of ``repeat`` whole searches, with their verdict."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        outcome = loses_search(SearchConfig(n=n, workers=workers))
        best = min(best, time.perf_counter() - t0)
    return {"seconds": best, "verdict": outcome.verdict.value,
            "optimal_aperture": outcome.optimal_aperture}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=11)
    parser.add_argument("--l", type=int, default=23)
    parser.add_argument("--filtered", action="store_true")
    parser.add_argument("--search", type=int, default=None, metavar="N",
                        help="time a whole search for N sensors at 1 and 2 workers")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--json", action="store_true", help="print one JSON document")
    args = parser.parse_args(argv)

    if args.search is not None:
        runs = {str(w): bench_search(args.search, w, args.repeat) for w in (1, 2)}
        doc = {"search": {"n": args.search, "backend": BACKEND}, "workers": runs}
    else:
        total = candidate_count(args.n, args.l, args.filtered)
        backends = available_backends()
        compiled = "c" in backends
        if total > PYTHON_STAGE_LIMIT:
            backends.pop("python")
        results = {}
        for name, scan in backends.items():
            dt, _ = bench_backend(scan, args.n, args.l, args.filtered, args.repeat)
            results[name] = {"seconds": dt, "candidates_per_s": total / dt}
        doc = {
            "stage": {"n": args.n, "l": args.l, "filtered": args.filtered, "candidates": total},
            "backends": results,
        }
    if args.json:
        doc["repeat"] = args.repeat
        doc["host"] = {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "compile_args": "-O3",  # setup.py's extra_compile_args for rmra._kernel_c
        }
        print(json.dumps(doc, indent=2))
        return 0
    if args.search is not None:
        print(f"search: n={args.search} backend={BACKEND}")
        for workers, r in runs.items():
            print(f"  workers={workers}  {r['seconds'] * 1e3:10.3f} ms   "
                  f"{r['verdict']}, aperture {r['optimal_aperture']}")
        return 0
    print(f"stage: n={args.n} l={args.l} filtered={args.filtered} ({total} candidates)")
    for name, r in results.items():
        print(f"  {name:<8} {r['seconds'] * 1e3:10.3f} ms   "
              f"({r['candidates_per_s'] / 1e6:.2f} M lexicographic candidates/s covered)")
    if "c" in results and "python" in results:
        print(f"  speedup: {results['python']['seconds'] / results['c']['seconds']:.1f}x")
    if "python" not in results:
        print(f"  python   skipped: stage above {PYTHON_STAGE_LIMIT:,} candidates")
    if not compiled:
        print("  compiled backend unavailable")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
