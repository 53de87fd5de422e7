"""Benchmark the stage scanner and the whole search.

Run as ``python -m rmra.bench``. By default it times one full stage with
:func:`rmra.kernel.scan`, the scanner every search runs, labelled with
``kernel.BACKEND``; the figure is the stage's best wall time. The reference
stage (11 sensors, aperture 23) is the classic half-million-candidate
exhaustion proof.

``--search N`` times :func:`rmra.search.loses_search` end to end for N
sensors instead. ``--json`` prints the same figures, plus the host, as one
JSON document.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

from . import kernel
from .search import SearchConfig, candidate_count, loses_search


def bench_backend(scan, n: int, l: int, filtered: bool, repeat: int) -> tuple[float, int]:
    total = candidate_count(n, l, filtered)
    k, _, _ = kernel.stage_shape(n, l, filtered)
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


def bench_search(n: int, repeat: int) -> dict:
    """Best wall seconds of ``repeat`` whole searches, with their verdict."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        outcome = loses_search(SearchConfig(n=n))
        best = min(best, time.perf_counter() - t0)
    return {"seconds": best, "verdict": outcome.verdict.value,
            "optimal_aperture": outcome.optimal_aperture}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=11)
    parser.add_argument("--l", type=int, default=23)
    parser.add_argument("--filtered", action="store_true")
    parser.add_argument("--search", type=int, default=None, metavar="N",
                        help="time a whole search for N sensors")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--json", action="store_true", help="print one JSON document")
    args = parser.parse_args(argv)

    if args.search is not None:
        doc = {"search": {"n": args.search}, "backend": kernel.BACKEND,
               **bench_search(args.search, args.repeat)}
    else:
        dt, total = bench_backend(kernel.scan, args.n, args.l, args.filtered, args.repeat)
        doc = {
            "stage": {"n": args.n, "l": args.l, "filtered": args.filtered, "candidates": total},
            "backend": kernel.BACKEND,
            "seconds": dt,
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
        print(f"search: n={args.search} backend={kernel.BACKEND}")
        print(f"  {doc['seconds'] * 1e3:10.3f} ms   "
              f"{doc['verdict']}, aperture {doc['optimal_aperture']}")
        return 0
    print(f"stage: n={args.n} l={args.l} filtered={args.filtered} ({total} candidates)")
    print(f"  {kernel.BACKEND:<8} {dt * 1e3:10.3f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
