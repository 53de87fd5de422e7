"""Command-line interface.

Subcommands: search | analyze | catalog | verify | ies. Every command builds
one JSON-serializable envelope; text and JSON output are two renderings of
that same payload, and progress lines go to stderr so JSON stays pipe-safe.
`--format json` prints the envelope on one line; pipe it to `jq .` or
`python -m json.tool` to read it.

Exit codes: 0 success/valid, 1 analysis found a violation, 2 not found or
outside the input domain, 3 usage error, 4 aperture-limit-capped search.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time

from . import __version__
from .catalog import FAMILIES, compare_apertures, known_arrays, verify_catalog
from .coarray import (
    DuplicatePosition,
    EmptyInput,
    NoRepeatedRun,
    NonPositiveSpacing,
    SensorArray,
    array_from_ies,
    canonicalize,
    extend_repeated_spacing,
    ies_of,
    weight_table,  # noqa: F401  (unused here; perfbench/tracer.py wraps rmra.cli.weight_table)
)
from .robustness import NotASensor, analyze, rmra_check, survivor_weights
from .search import (
    CorruptCheckpoint,
    SearchConfig,
    StageOutcome,
    Verdict,
    loses_search,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_NOT_FOUND = 2
EXIT_USAGE = 3
EXIT_CAPPED = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2)
        raise UsageError(message)


def _positions_arg(tokens: list[str]) -> list[int]:
    text = " ".join(tokens)
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    if not parts:
        raise UsageError("no positions given")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"positions must be integers: {exc}") from exc


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built on first use and shared by every ``main`` call.

    ``parse_args`` keeps no state between calls: each returns a fresh namespace.
    """
    p = _Parser(prog="rmra", description=__doc__)
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("search", help="staged exhaustive search for the widest valid array")
    ps.add_argument("--n", type=int, required=True, help="sensor count (>= 6)")
    ps.add_argument("--l-start", type=int, default=None)
    ps.add_argument("--l-limit", type=int, default=None)
    ps.add_argument("--no-filters", action="store_true", help="disable sound pruning filters")
    ps.add_argument(
        "--deterministic",
        action="store_true",
        help="no effect; kept for the benchmark's command lines (searches are deterministic)",
    )
    ps.add_argument(
        "--workers",
        type=int,
        default=1,
        help="no effect, must be >= 1; kept for the benchmark's command lines"
        " (searches scan on one thread)",
    )
    ps.add_argument("--checkpoint", default=None, help="resumable checkpoint file")
    ps.add_argument("--format", choices=("text", "json"), default="text")

    pa = sub.add_parser("analyze", help="weights, failures, essential sensors, verdict")
    pa.add_argument("positions", nargs="+")
    pa.add_argument("--failed", type=int, default=None, help="also report this sensor's failure")
    pa.add_argument("--format", choices=("text", "json", "csv"), default="text")

    pc = sub.add_parser("catalog", help="query the published-array catalog")
    pc.add_argument("--family", default=None, help="|".join(FAMILIES))
    pc.add_argument("--n", type=int, default=None)
    pc.add_argument("--compare", action="store_true", help="cross-family aperture table")
    pc.add_argument("--format", choices=("text", "json", "jsonl", "csv"), default="text")

    pv = sub.add_parser("verify", help="re-verify every catalog entry")
    pv.add_argument("--format", choices=("text", "json"), default="text")

    pi = sub.add_parser("ies", help="inter-element spacing tools")
    pi.add_argument("positions", nargs="*")
    pi.add_argument("--from-ies", default=None, help="spacing list to convert to positions")
    pi.add_argument("--extend", type=int, default=None, metavar="K",
                    help="repeat the dominant spacing run K more times and re-verify")
    pi.add_argument("--format", choices=("text", "json"), default="text")
    return p


def _envelope(command: str, inputs: dict, result: dict, t0: float) -> dict:
    return {
        "schema_version": 1,
        "command": command,
        "inputs": inputs,
        "result": result,
        "timing": {"seconds": round(time.perf_counter() - t0, 6)},
    }


def _emit(env: dict, fmt: str) -> None:
    if fmt == "json":
        # One line: without ``indent`` CPython renders with its C encoder.
        print(json.dumps(env))
    elif fmt == "csv":
        print(render_csv(env), end="")
    else:
        print(render_text(env), end="")


def _fmt_array(positions) -> str:
    return "[" + ", ".join(str(p) for p in positions) + "]"


def render_text(env: dict) -> str:
    """Render an envelope as human-readable text (pure function of the payload)."""
    cmd = env["command"]
    r = env["result"]
    lines: list[str] = []
    if cmd == "search":
        lines.append(f"verdict: {r['verdict']}")
        if r.get("reason"):
            lines.append(f"reason: {r['reason']}")
        if r["optimal_aperture"] is not None:
            lines.append(f"aperture: {r['optimal_aperture']}")
        if r["best_array"]:
            lines.append(f"best array: {_fmt_array(r['best_array'])}")
        lines.append("stages:")
        for s in r["stages"]:
            tail = ""
            if s["array"]:
                tail = f" array={_fmt_array(s['array'])} index={s['candidate_index']}"
            lines.append(
                f"  L={s['l']}: {s['outcome']} after {s['candidates_examined']} candidates{tail}"
            )
    elif cmd == "analyze":
        lines.append(f"positions: {_fmt_array(r['positions'])}")
        lines.append(f"n: {r['n']}  aperture: {r['l']}")
        lines.append("healthy weights (lag: weight): " + _fmt_weights(r["weights"]))
        lines.append(f"essential sensors: {_fmt_array(r['essential'])}")
        lines.append(f"fragility: {r['fragility']}")
        v = r["verdict"]
        lines.append(
            "verdict: size_ok={size_ok} hole_free={hole_free} doubly_redundant={doubly_redundant}"
            " two_essential={two_essential} sparse={sparse} -> overall={overall}".format(**v)
        )
        lines.append("failure analysis:")
        for f in r["failures"]:
            holes = _fmt_array(f["holes"]) if f["holes"] else "none"
            lines.append(f"  sensor {f['failed']}: holes {holes}")
        if r.get("failed_detail"):
            d = r["failed_detail"]
            lines.append(f"after failure of {d['failed']}:")
            lines.append("  survivor weights (lag: weight): " + _fmt_weights(d["weights"]))
            lines.append(f"  holes: {_fmt_array(d['holes']) if d['holes'] else 'none'}")
    elif cmd == "catalog":
        if "comparison" in r:
            lines.append("N  symNA  RMRA  2FRA  2FRA-critical")
            for row in r["comparison"]:
                symna = row["symna"] if row["symna"] is not None else "**"
                crit = ",".join(str(c) for c in row["fra2_critical"]) or "-"
                lines.append(f"{row['n']:<3}{symna!s:<7}{row['rmra']:<6}{row['fra2']:<6}{crit}")
        else:
            for e in r["entries"]:
                pos = _fmt_array(e["positions"]) if e["positions"] else "(aperture only)"
                crit = (
                    " critical=" + _fmt_array(e["critical_interior_sensors"])
                    if e["critical_interior_sensors"]
                    else ""
                )
                lines.append(
                    f"{e['family']} n={e['n']} L={e['l']} {e['status']} "
                    f"[{e['source']}] {pos}{crit}"
                )
            lines.append(f"{len(r['entries'])} entries")
    elif cmd == "verify":
        for c in r["checks"]:
            status = "PASS" if c["passed"] else "FAIL"
            e = c["entry"]
            line = f"{status} {e['family']} n={e['n']} L={e['l']} [{e['source']}]"
            if not c["passed"]:
                line += " :: " + "; ".join(c["problems"])
            lines.append(line)
        lines.append(
            f"{r['passed']}/{r['total']} entries passed"
            if not r["all_passed"]
            else f"all {r['total']} entries passed"
        )
    elif cmd == "ies":
        lines.append(f"positions: {_fmt_array(r['positions'])}")
        lines.append(f"ies: {_fmt_array(r['ies'])}")
        if r.get("extended"):
            x = r["extended"]
            lines.append(f"extended positions: {_fmt_array(x['positions'])}")
            lines.append(f"extended ies: {_fmt_array(x['ies'])}")
            lines.append(f"n: {x['n']}  aperture: {x['l']}")
            lines.append(f"valid: {x['verdict']['overall']}")
    else:  # pragma: no cover
        lines.append(json.dumps(r))
    return "\n".join(lines) + "\n"


def _fmt_weights(weights: list[int]) -> str:
    return " ".join(f"{m}:{w}" for m, w in enumerate(weights))


def render_csv(env: dict) -> str:
    cmd = env["command"]
    r = env["result"]
    if cmd == "analyze":
        weights = r["failed_detail"]["weights"] if r.get("failed_detail") else r["weights"]
        rows = ["lag,weight"] + [f"{m},{w}" for m, w in enumerate(weights)]
        return "\n".join(rows) + "\n"
    if cmd == "catalog" and "comparison" in r:
        rows = ["N,symNA,RMRA,2FRA,2FRA_critical"]
        for row in r["comparison"]:
            symna = "" if row["symna"] is None else row["symna"]
            crit = ";".join(str(c) for c in row["fra2_critical"])
            rows.append(f"{row['n']},{symna},{row['rmra']},{row['fra2']},{crit}")
        return "\n".join(rows) + "\n"
    raise UsageError(f"csv output is not defined for this {cmd} invocation")


def _cmd_search(args) -> int:
    t0 = time.perf_counter()
    if args.workers < 1 and args.n >= 6:  # a too-small --n is reported first
        raise UsageError("workers must be >= 1")
    try:
        cfg = SearchConfig(
            n=args.n,
            l_start=args.l_start,
            l_limit=args.l_limit,
            prune_filters=not args.no_filters,
            checkpoint_path=args.checkpoint,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    def report(stage) -> None:
        if stage.outcome is StageOutcome.FOUND:
            print(f"Valid configuration found for L = {stage.l}", file=sys.stderr)
        else:
            print(f"Failure to find L = {stage.l} for N = {args.n}", file=sys.stderr)

    try:
        outcome = loses_search(cfg, on_stage=report)
    except (CorruptCheckpoint, OSError) as exc:  # OSError: the checkpoint could not be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    env = _envelope(
        "search",
        {
            "n": args.n,
            "l_start": cfg.effective_l_start(),
            "l_limit": args.l_limit,
            "filters": not args.no_filters,
        },
        outcome.to_dict(),
        t0,
    )
    _emit(env, args.format)
    if outcome.verdict is Verdict.OPTIMAL:
        return EXIT_OK
    if outcome.verdict is Verdict.NEAR_OPTIMAL:
        return EXIT_CAPPED
    return EXIT_NOT_FOUND


def _cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    raw = _positions_arg(args.positions)
    arr = canonicalize(raw)
    if arr.n < 3:
        raise UsageError("analysis needs at least three sensors")
    report = analyze(arr)
    verdict = rmra_check(arr, arr.n, arr.aperture, report=report)
    result = {
        "positions": list(arr.positions),
        "n": arr.n,
        "l": arr.aperture,
        "weights": list(report.weights.counts),
        "essential": list(report.essential),
        "fragility": str(report.fragility),
        "verdict": verdict.to_dict(),
        "failures": [
            {
                "failed": f.failed_position,
                "holes": list(f.holes_in_original_span),
                "span_after": f.span_after,
            }
            for f in report.per_sensor
        ],
    }
    if args.failed is not None:
        detail = next((f for f in report.per_sensor if f.failed_position == args.failed), None)
        if detail is None:
            raise NotASensor(f"{args.failed} is not a sensor of {list(arr.positions)}")
        result["failed_detail"] = {
            "failed": args.failed,
            "weights": list(survivor_weights(arr, args.failed, report=report).counts),
            "holes": list(detail.holes_in_original_span),
            "span_after": detail.span_after,
        }
    env = _envelope("analyze", {"positions": raw, "failed": args.failed}, result, t0)
    _emit(env, args.format)
    return EXIT_OK if verdict.two_essential else EXIT_VIOLATION


def _cmd_catalog(args) -> int:
    t0 = time.perf_counter()
    if args.compare:
        rows = compare_apertures(range(6, 21) if args.n is None else [args.n])
        result = {
            "comparison": [
                {
                    "n": r.n,
                    "symna": r.symna,
                    "rmra": r.rmra,
                    "fra2": r.fra2,
                    "fra2_critical": sorted(r.fra2_critical),
                }
                for r in rows
            ]
        }
        env = _envelope("catalog", {"compare": True, "n": args.n}, result, t0)
        _emit(env, args.format)
        return EXIT_OK
    if args.family is not None:
        # accept any case; families are conventionally written mixed-case
        matches = [f for f in FAMILIES if f.lower() == args.family.lower()]
        if not matches:
            raise UsageError(f"unknown family {args.family!r}; expected one of {FAMILIES}")
        entries = known_arrays(matches[0], args.n)
    else:
        from .catalog import all_entries

        entries = tuple([e for e in all_entries() if args.n is None or e.n == args.n])
    result = {"entries": [e.to_dict() for e in entries]}
    env = _envelope("catalog", {"family": args.family, "n": args.n}, result, t0)
    if args.format == "jsonl":
        for e in result["entries"]:
            print(json.dumps(e))
    else:
        _emit(env, args.format)
    return EXIT_OK if entries else EXIT_NOT_FOUND


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    verification = verify_catalog()
    result = {
        "all_passed": verification.all_passed,
        "total": len(verification.checks),
        "passed": sum(1 for c in verification.checks if c.passed),
        "checks": [
            {"entry": c.entry.to_dict(), "passed": c.passed, "problems": list(c.problems)}
            for c in verification.checks
        ],
    }
    env = _envelope("verify", {}, result, t0)
    _emit(env, args.format)
    return EXIT_OK if verification.all_passed else EXIT_VIOLATION


def _cmd_ies(args) -> int:
    t0 = time.perf_counter()
    if args.from_ies is not None and args.positions:
        raise UsageError("give positions or --from-ies, not both")
    if args.from_ies is not None:
        spacings = _positions_arg([args.from_ies])
        arr = array_from_ies(spacings)
    elif args.positions:
        arr = canonicalize(_positions_arg(args.positions))
    else:
        raise UsageError("give positions or --from-ies")
    result: dict = {"positions": list(arr.positions), "ies": list(ies_of(arr))}
    exit_code = EXIT_OK
    if args.extend is not None:
        grown = extend_repeated_spacing(arr, args.extend)
        verdict = rmra_check(grown, grown.n, grown.aperture)
        result["extended"] = {
            "positions": list(grown.positions),
            "ies": list(ies_of(grown)),
            "n": grown.n,
            "l": grown.aperture,
            "verdict": verdict.to_dict(),
        }
        if not verdict.overall:
            exit_code = EXIT_VIOLATION
    env = _envelope(
        "ies",
        {"positions": args.positions, "from_ies": args.from_ies, "extend": args.extend},
        result,
        t0,
    )
    _emit(env, args.format)
    return exit_code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "search": _cmd_search,
        "analyze": _cmd_analyze,
        "catalog": _cmd_catalog,
        "verify": _cmd_verify,
        "ies": _cmd_ies,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotASensor, NoRepeatedRun) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except (DuplicatePosition, EmptyInput, NonPositiveSpacing, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
