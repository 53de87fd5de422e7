"""Spans recorded from outside the program, around the calls into each layer.

``Tracer.install`` replaces public functions of the rmra modules with
wrappers that record a span per call: name, start, end, parent span, command
id and thread. Names a module imported from another module (``from .robustness
import analyze`` in ``rmra.cli``) are wrapped where the caller looks them up.
``Tracer.uninstall`` restores the originals, so untraced commands run the
program exactly as shipped.

Spans of one command are folded into per-layer figures when the command
ends (``fold``); the spans of the first commands are also kept and written
out as JSON lines when the run ends.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    command: int = 0
    thread: int = 0
    cpu_s: float = 0.0  # thread CPU time inside the call (kernel spans)
    count: int = 0  # work the call reports: candidates, entries, ...


# (module, attribute, span name). Order matters only for readability.
TARGETS = (
    ("rmra.cli", "main", "cli.main"),
    ("rmra.cli", "build_parser", "cli.build_parser"),
    ("rmra.cli", "loses_search", "search.loses_search"),
    ("rmra.search", "run_stage", "search.run_stage"),
    ("rmra.search", "checkpoint_save", "search.checkpoint_save"),
    ("rmra.kernel", "scan", "kernel.scan"),
    ("rmra.cli", "analyze", "robustness.analyze"),
    ("rmra.cli", "rmra_check", "robustness.rmra_check"),
    ("rmra.robustness", "failure_report", "robustness.failure_report"),
    ("rmra.cli", "canonicalize", "coarray.canonicalize"),
    ("rmra.cli", "weight_table", "coarray.weight_table"),
    ("rmra.robustness", "weight_table", "coarray.weight_table"),
    ("rmra.cli", "verify_catalog", "catalog.verify_catalog"),
)


def _work_count(name: str, result) -> int:
    if name == "kernel.scan":
        return result[0]  # candidates examined
    if name == "search.run_stage":
        return result.candidates_examined
    if name == "catalog.verify_catalog":
        return len(result.checks)
    return 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.command = 0
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A worker thread's first span hangs off the span that is open on
            # the thread that dispatched the work (run_stage for scans).
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None
            )
            span = Span(name, 0.0, parent=parent, command=tracer.command,
                        thread=threading.get_ident())
            stack.append(span)
            cpu0 = time.thread_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu_s = time.thread_time() - cpu0
                stack.pop()
                tracer.spans.append(span)
            span.count = _work_count(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self._main_stack = self._stack()
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of ``span`` that the children's union covers."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span, children: list[Span]) -> float:
    return (span.end - span.start) - _covered(span, children)


@dataclass
class CommandFold:
    """Per-layer figures of one traced command."""

    kind: str
    values: dict[str, float] = field(default_factory=dict)


def fold(spans: list[Span], kind: str, workers: int) -> CommandFold:
    """Reduce one command's spans to per-layer sums."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)

    def kids(s: Span, name: str | None = None) -> list[Span]:
        got = children.get(id(s), [])
        return got if name is None else [c for c in got if c.name == name]

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def dur(ss: list[Span]) -> float:
        return sum(s.end - s.start for s in ss)

    v: dict[str, float] = {}
    main = named("cli.main")
    v["cli.self"] = sum(self_time(m, kids(m)) for m in main)
    v["cli.build_parser"] = dur(named("cli.build_parser"))

    scans = named("kernel.scan")
    stages = named("search.run_stage")
    v["kernel.calls"] = len(scans)
    v["kernel.candidates"] = sum(s.count for s in scans)
    v["kernel.busy"] = dur(scans)
    v["kernel.cpu"] = sum(s.cpu_s for s in scans)
    v["search.stages"] = len(stages)
    v["search.self"] = sum(self_time(st, kids(st, "kernel.scan")) for st in stages)
    v["search.between"] = sum(
        self_time(ls, kids(ls, "search.run_stage")) for ls in named("search.loses_search")
    )
    v["search.useful"] = sum(st.count for st in stages)
    v["search.stage_capacity"] = dur(stages) * workers
    ckpt = named("search.checkpoint_save")
    v["search.checkpoint_writes"] = len(ckpt)
    v["search.checkpoint_time"] = dur(ckpt)

    v["robustness.analyze"] = dur(named("robustness.analyze"))
    v["robustness.rmra_check"] = dur(named("robustness.rmra_check"))
    v["robustness.failure_reports"] = len(named("robustness.failure_report"))
    v["coarray.canonicalize"] = dur(named("coarray.canonicalize"))
    v["coarray.weight_table"] = dur(named("coarray.weight_table"))
    verify = named("catalog.verify_catalog")
    v["catalog.verify"] = dur(verify)
    v["catalog.entries"] = sum(s.count for s in verify)
    return CommandFold(kind, v)


def write_spans(path: Path, spans: list[Span]) -> None:
    """One JSON object per span; parents refer to the span's line index."""
    index = {id(s): i for i, s in enumerate(spans)}
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "id": i,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": index.get(id(s.parent)) if s.parent is not None else None,
                "command": s.command,
                "thread": s.thread,
            }) + "\n")
