"""Leap-on-success staged exhaustive search.

The optimizer looks for the widest valid array a given sensor count can
reach. Each stage fixes an aperture l, enumerates every placement of the
interior sensors between the pinned endpoints in lexicographic order, and
stops at the first valid array ("leap on success"). A found stage advances
the aperture by one; a stage that exhausts without success proves the
previous stage's array optimal.

Two sound necessary-condition filters can shrink a stage without changing
its verdict: grid points 1 and l-1 must be occupied in any valid array
(the lag l-1 needs two generating pairs and only (0, l-1) and (1, l) exist),
and validity is mirror-invariant, so mirror-canonical candidates suffice.
Filters never change whether a stage is found or exhausted, only how much
work proves it.

There is one search mode. Every stage reports its lexicographically first
valid array and the prefix count needed to reach it, whether or not the
run was resumed. Mirror pruning is always on and never changes that answer:
the mirror of a valid array is valid and lies in the same stage, so the
first valid array is always mirror-canonical.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import kernel
from .kernel import _rank_lex, _unrank_lex
from .coarray import SensorArray

__all__ = [
    "CorruptCheckpoint",
    "IndexOutOfRange",
    "SearchConfig",
    "StageOutcome",
    "StageResult",
    "SearchOutcome",
    "Verdict",
    "aperture_upper_bound",
    "candidate_count",
    "checkpoint_load",
    "checkpoint_save",
    "loses_search",
    "rank_candidate",
    "run_stage",
    "unrank_candidate",
]

_FIRST_CHUNK = 1 << 16  # candidates in a stage's first chunk
_FAST_S, _SLOW_S = 0.05, 0.25  # per-call seconds that grow or shrink the next chunk
_CHECKPOINT_VERSION = 2


class IndexOutOfRange(IndexError):
    """Candidate index outside 0..candidate_count-1."""


class CorruptCheckpoint(ValueError):
    """Checkpoint file failed validation (version, digest, or config)."""


class StageOutcome(str, Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted"


class Verdict(str, Enum):
    OPTIMAL = "optimal"
    NEAR_OPTIMAL = "near-optimal"
    NONE_FOUND = "none-found"


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for one search run.

    The run tries apertures ``l_start`` (default n) upward, one per found
    stage; ``l_limit`` is the only cap, and a run it stops ends near-optimal.
    ``prune_filters`` pins grid points 1 and l-1 (see :func:`candidate_count`).
    """

    n: int
    l_start: int | None = None
    l_limit: int | None = None
    prune_filters: bool = True
    checkpoint_path: str | Path | None = None

    def __post_init__(self) -> None:
        if self.n < 6:
            raise ValueError("searches start at 6 sensors (smallest valid array)")
        if self.l_start is not None and self.l_start < self.n:
            raise ValueError("l_start must be at least n")
        start = self.effective_l_start()
        if start > aperture_upper_bound(self.n):
            raise ValueError("l_start exceeds the aperture upper bound")
        if self.l_limit is not None and self.l_limit < start:
            raise ValueError("l_limit must be at least the starting aperture")

    def effective_l_start(self) -> int:
        return self.n if self.l_start is None else self.l_start

    def filter_signature(self) -> dict:
        """Enumeration-affecting settings; must match to resume a checkpoint."""
        return {"prune_filters": self.prune_filters}


@dataclass(frozen=True)
class StageResult:
    """One aperture's verdict.

    ``array`` is the lexicographically first valid array of the stage.
    ``candidate_index`` is its unfiltered lexicographic rank, a stable
    identifier independent of filter settings. ``candidates_examined`` is
    the lexicographic prefix of the stage's enumeration needed to reach the
    verdict: that array's rank in the active enumeration plus one, or the
    stage size when the stage is exhausted. It is identical for
    uninterrupted and resumed runs.
    """

    l: int
    outcome: StageOutcome
    candidates_examined: int
    elapsed: float
    array: SensorArray | None = None
    candidate_index: int | None = None

    def to_dict(self, include_timing: bool = True) -> dict:
        d: dict = {
            "l": self.l,
            "outcome": self.outcome.value,
            "candidates_examined": self.candidates_examined,
            "array": list(self.array.positions) if self.array else None,
            "candidate_index": self.candidate_index,
        }
        if include_timing:
            d["elapsed"] = self.elapsed
        return d

    @staticmethod
    def from_dict(d: dict) -> "StageResult":
        return StageResult(
            l=d["l"],
            outcome=StageOutcome(d["outcome"]),
            candidates_examined=d["candidates_examined"],
            elapsed=d.get("elapsed", 0.0),
            array=SensorArray(tuple(d["array"])) if d.get("array") else None,
            candidate_index=d.get("candidate_index"),
        )


@dataclass(frozen=True)
class SearchOutcome:
    """Whole-run result: the stage trail plus the optimality verdict."""

    n: int
    stages: tuple[StageResult, ...]
    verdict: Verdict
    optimal_aperture: int | None
    best_array: SensorArray | None
    reason: str | None = None

    def to_dict(self, include_timing: bool = True) -> dict:
        return {
            "n": self.n,
            "verdict": self.verdict.value,
            "optimal_aperture": self.optimal_aperture,
            "best_array": list(self.best_array.positions) if self.best_array else None,
            "reason": self.reason,
            "stages": [s.to_dict(include_timing) for s in self.stages],
        }


def aperture_upper_bound(n: int) -> int:
    """Largest aperture the pair budget allows.

    Double coverage of lags 1..l-1 plus the single endpoint pair needs
    2(l-1)+1 pairs, and only n(n-1)/2 exist.
    """
    if n < 6:
        raise ValueError("valid arrays need at least 6 sensors")
    return (n * (n - 1) // 2 + 1) // 2


def candidate_count(n: int, l: int, filtered: bool = False) -> int:
    """Stage size: interior placements with endpoints pinned.

    Unfiltered, n-2 sensors go anywhere in 1..l-1. The filtered count also
    pins grid points 1 and l-1 (forced by the weight of lag l-1).
    """
    if n < 4 or l < n:
        raise ValueError("need l >= n >= 4")
    k, m, _ = kernel.stage_shape(n, l, filtered)
    return math.comb(m, k)


def unrank_candidate(n: int, l: int, index: int) -> SensorArray:
    """The index-th candidate of the unfiltered stage (n, l)."""
    total = candidate_count(n, l, False)
    if not 0 <= index < total:
        raise IndexOutOfRange(f"index {index} outside 0..{total - 1}")
    combo = _unrank_lex(index, l - 1, n - 2)
    return SensorArray((0, *(v + 1 for v in combo), l))


def rank_candidate(n: int, l: int, arr: SensorArray | Sequence[int]) -> int:
    """Unfiltered lexicographic rank of a candidate; inverse of unrank."""
    pos = tuple(arr.positions if isinstance(arr, SensorArray) else arr)
    if len(pos) != n or pos[0] != 0 or pos[-1] != l:
        raise ValueError(f"not a candidate of stage (n={n}, l={l}): {list(pos)}")
    return _rank_lex([p - 1 for p in pos[1:-1]], l - 1, n - 2)


def _unrank_active(n: int, l: int, filtered: bool, index: int) -> list[int]:
    """0-based interior combination at `index` of the active enumeration."""
    k, m, _ = kernel.stage_shape(n, l, filtered)
    return _unrank_lex(index, m, k)


def _scan_chunk(
    n: int, l: int, filtered: bool, lo: int, hi: int
) -> tuple[tuple[int, list[int]] | None, float]:
    """(found, seconds): found is (rank, positions) of the first valid
    candidate in [lo, hi), or None; seconds is the call's wall time."""
    t0 = time.perf_counter()
    first = _unrank_active(n, l, filtered, lo)
    _, offset, positions = kernel.scan(n, l, first, hi - lo, filtered, True)
    found = None if offset < 0 else (lo + offset, positions)
    return found, time.perf_counter() - t0


def _scan(
    n: int,
    l: int,
    filtered: bool,
    start: int,
    end: int,
    on_progress: Callable[[int], None] | None,
) -> tuple[int, list[int]] | None:
    """First valid candidate in [start, end) of the active enumeration.

    Chunks run in rank order on the calling thread, so the first find is the
    lexicographic first. A chunk's cost follows the pruned search tree, not
    its candidate count, so chunk sizes follow the measured time per call:
    doubled after a call under ``_FAST_S``, halved after one over
    ``_SLOW_S``. ``on_progress`` receives each chunk end: no valid candidate
    lies between ``start`` and it.
    """
    chunk, lo = _FIRST_CHUNK, start
    while lo < end:
        hi = min(lo + chunk, end)
        found, seconds = _scan_chunk(n, l, filtered, lo, hi)
        if found is not None:
            return found
        if seconds < _FAST_S:
            chunk *= 2
        elif seconds > _SLOW_S:
            chunk = max(1, chunk // 2)
        if on_progress is not None:
            on_progress(hi)
        lo = hi
    return None


def run_stage(
    n: int,
    l: int,
    cfg: SearchConfig,
    *,
    start_index: int = 0,
    on_progress: Callable[[int], None] | None = None,
) -> StageResult:
    """Scan one aperture's candidates; stop at the first valid array.

    ``start_index`` resumes the stage mid-enumeration (checkpointing). It
    must be a confirmed frontier: no valid array may lie below it. Every
    frontier passed to ``on_progress``, and so every checkpoint, meets that
    condition, and it is what keeps mirror pruning exact on resume. Reported
    counts then equal those of an uninterrupted run.
    """
    t0 = time.perf_counter()
    filtered = cfg.prune_filters
    size = candidate_count(n, l, filtered)
    if start_index > size:
        raise ValueError("start_index beyond stage size")
    found = _scan(n, l, filtered, start_index, size, on_progress)
    elapsed = time.perf_counter() - t0

    if found is not None:
        rank, positions = found
        arr = SensorArray(tuple(positions))
        return StageResult(
            l=l,
            outcome=StageOutcome.FOUND,
            candidates_examined=rank + 1,  # prefix count, identical on resume
            elapsed=elapsed,
            array=arr,
            candidate_index=rank_candidate(n, l, arr),
        )
    return StageResult(
        l=l,
        outcome=StageOutcome.EXHAUSTED,
        candidates_examined=size,
        elapsed=elapsed,
    )


def checkpoint_save(
    path: str | Path,
    *,
    n: int,
    l: int,
    next_index: int,
    stages: Iterable[StageResult],
    filters: dict,
) -> None:
    """Write a resumable snapshot; the digest seals all other fields.

    A failed write raises ``OSError`` naming ``path``, not its temporary file.
    """
    payload = {
        "version": _CHECKPOINT_VERSION,
        "n": n,
        "l": l,
        "next_index": next_index,
        "stages": [s.to_dict() for s in stages],
        "filters": dict(filters),
    }
    payload["digest"] = _digest(payload)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as f:
            f.write(json.dumps(payload))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        fd = os.open(path.parent, os.O_RDONLY)  # make the rename itself durable
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError as exc:
        raise OSError(f"could not write checkpoint {path}: {exc.strerror or exc}") from exc


def checkpoint_load(path: str | Path) -> dict:
    """Read and validate a checkpoint written by :func:`checkpoint_save`."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptCheckpoint(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CorruptCheckpoint(f"unreadable checkpoint {path}: not a JSON object")
    version = payload.get("version")
    if version != _CHECKPOINT_VERSION:
        raise CorruptCheckpoint(
            f"checkpoint {path} has version {version!r}; this rmra reads only"
            f" version {_CHECKPOINT_VERSION}"
        )
    digest = payload.get("digest")
    if digest != _digest({k: v for k, v in payload.items() if k != "digest"}):
        raise CorruptCheckpoint(f"digest mismatch in {path}")
    return payload


def _digest(payload: dict) -> str:
    import hashlib  # only checkpointed runs pay for it

    keys = ["version", "n", "l", "next_index", "stages", "filters"]
    body = json.dumps({k: payload[k] for k in keys}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def loses_search(
    cfg: SearchConfig,
    on_stage: Callable[[StageResult], None] | None = None,
) -> SearchOutcome:
    """Run the staged search to an optimality verdict.

    Apertures increase by one per found stage. The first exhausted stage
    proves the previous find optimal; passing ``cfg.l_limit`` first yields a
    near-optimal verdict instead. When ``cfg.checkpoint_path`` names an
    existing checkpoint the run resumes from it. The file is refreshed at
    most once a second, at a confirmed frontier or a stage boundary, and
    removed once a verdict is reached, except a verdict capped by the
    aperture limit: that one leaves a final checkpoint at the next stage's
    start, so a run without the cap continues it.
    """
    upper = aperture_upper_bound(cfg.n)
    stages: list[StageResult] = []
    l = cfg.effective_l_start()
    start_index = 0

    ckpt = Path(cfg.checkpoint_path) if cfg.checkpoint_path else None
    if ckpt is not None and ckpt.exists():
        payload = checkpoint_load(ckpt)
        if payload["n"] != cfg.n or payload["filters"] != cfg.filter_signature():
            raise CorruptCheckpoint("checkpoint does not match this configuration")
        stages = [StageResult.from_dict(d) for d in payload["stages"]]
        l = payload["l"]
        start_index = payload["next_index"]

    last_saved = time.monotonic()  # one timer across stages

    def save(stage_l: int, next_index: int, done: list[StageResult], force: bool = False) -> None:
        nonlocal last_saved
        if ckpt is None or not (force or time.monotonic() - last_saved >= 1.0):
            return
        checkpoint_save(
            ckpt,
            n=cfg.n,
            l=stage_l,
            next_index=next_index,
            stages=done,
            filters=cfg.filter_signature(),
        )
        last_saved = time.monotonic()

    best: StageResult | None = next(
        (s for s in reversed(stages) if s.outcome is StageOutcome.FOUND), None
    )
    verdict: Verdict
    reason: str | None = None

    capped = False
    while True:
        if cfg.l_limit is not None and l > cfg.l_limit:
            verdict = Verdict.NEAR_OPTIMAL if best is not None else Verdict.NONE_FOUND
            reason = "aperture limit reached"
            save(l, 0, stages, force=True)
            capped = True
            break
        if l > upper:
            # Beyond the pair budget no candidate can doubly cover 1..l-1,
            # so the stage is exhausted with every candidate filtered out.
            synthetic = StageResult(
                l=l, outcome=StageOutcome.EXHAUSTED, candidates_examined=0, elapsed=0.0
            )
            stages.append(synthetic)
            if on_stage is not None:
                on_stage(synthetic)
            verdict = Verdict.OPTIMAL if best is not None else Verdict.NONE_FOUND
            if best is None:
                reason = "aperture upper bound reached"
            break

        result = run_stage(
            cfg.n,
            l,
            cfg,
            start_index=start_index,
            on_progress=(lambda i, _l=l: save(_l, i, stages)) if ckpt is not None else None,
        )
        stages.append(result)
        start_index = 0
        if on_stage is not None:
            on_stage(result)
        if result.outcome is StageOutcome.EXHAUSTED:
            verdict = Verdict.OPTIMAL if best is not None else Verdict.NONE_FOUND
            if best is None:
                reason = "first stage exhausted"
            break
        best = result
        l += 1
        save(l, 0, stages)

    if not capped and ckpt is not None and ckpt.exists():
        ckpt.unlink()
    return SearchOutcome(
        n=cfg.n,
        stages=tuple(stages),
        verdict=verdict,
        optimal_aperture=best.l if best is not None else None,
        best_array=best.array if best is not None else None,
        reason=reason,
    )
