"""Benchmark the stage scanner and the whole search.

Run as ``python -m rmra.bench``. By default it times one full stage with
:func:`rmra.kernel.scan`, the scanner every search runs, labelled with
``kernel.BACKEND``; the figure is the stage's best wall time. The reference
stage, without ``--n`` and ``--l``, is the 17-sensor optimum's exhaustion
proof (aperture 54, filtered: 4.8e11 candidates, over 0.1 s for the
compiled engine). The pure-Python scanner visits every candidate, so
without the extension a stage must be given, a small one such as
``--n 11 --l 23`` (497,420). With the compiled engine the stage figure
also gives the nodes its search visits and the nodes per second of the
best run; the node count is exact and repeats on any machine, so it tells
a smaller tree from a faster machine. The Python backend has no search
tree, and its node figures are ``null``.

``--search N`` times :func:`rmra.search.loses_search` end to end for N
sensors instead. ``--json`` prints the same figures, plus the host (core
count, machine and Python version), as one JSON document.
"""

import argparse
import json
import os
import platform
import time

from . import kernel
from .search import SearchConfig, candidate_count, loses_search

REFERENCE_STAGE = (17, 54, True)  # (n, l, filtered)


def bench_backend(scan, n: int, l: int, filtered: bool, repeat: int) -> tuple[float, int]:
    total = candidate_count(n, l, filtered)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        examined, found = scan(n, l, 0, total, filtered)[:2]
        dt = time.perf_counter() - t0
        if found >= 0:
            raise RuntimeError("benchmark stage unexpectedly contains a valid array")
        if examined != total:
            raise RuntimeError(f"scanned {examined} of {total} candidates")
        best = min(best, dt)
    return best, total


def stage_nodes(n: int, l: int, filtered: bool) -> int | None:
    """Nodes the compiled engine visits on the whole stage; ``None`` without it."""
    if kernel.BACKEND != "c":
        return None
    return kernel.scan(n, l, 0, candidate_count(n, l, filtered), filtered, nodes=True)[4]


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
    parser.add_argument("--n", type=int, default=None, help="with --l: the stage to time")
    parser.add_argument("--l", type=int, default=None)
    parser.add_argument("--filtered", action="store_true", help="with --n and --l")
    parser.add_argument("--search", type=int, default=None, metavar="N",
                        help="time a whole search for N sensors")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--json", action="store_true", help="print one JSON document")
    args = parser.parse_args(argv)
    if (args.n is None) != (args.l is None):
        parser.error("give --n and --l together")
    if args.n is None:
        if kernel.BACKEND != "c":  # it would visit all 4.8e11 candidates, for weeks
            parser.error("the reference stage needs the compiled engine; give --n and --l")
        args.n, args.l, args.filtered = REFERENCE_STAGE

    if args.search is not None:
        doc = {"search": {"n": args.search}, "backend": kernel.BACKEND,
               **bench_search(args.search, args.repeat)}
    else:
        dt, total = bench_backend(kernel.scan, args.n, args.l, args.filtered, args.repeat)
        nodes = stage_nodes(args.n, args.l, args.filtered)
        doc = {
            "stage": {"n": args.n, "l": args.l, "filtered": args.filtered, "candidates": total},
            "backend": kernel.BACKEND,
            "seconds": dt,
            "nodes": nodes,
            "nodes_per_s": None if nodes is None else nodes / dt,
        }
    if args.json:
        doc["repeat"] = args.repeat
        doc["host"] = {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        }
        print(json.dumps(doc, indent=2))
        return 0
    if args.search is not None:
        print(f"search: n={args.search} backend={kernel.BACKEND}")
        print(f"  {doc['seconds'] * 1e3:10.3f} ms   "
              f"{doc['verdict']}, aperture {doc['optimal_aperture']}")
        return 0
    print(f"stage: n={args.n} l={args.l} filtered={args.filtered} ({total} candidates)")
    line = f"  {kernel.BACKEND:<8} {dt * 1e3:10.3f} ms"
    if nodes is not None:
        line += f"   {nodes:,} nodes, {doc['nodes_per_s'] / 1e6:.1f} M nodes/s"
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
