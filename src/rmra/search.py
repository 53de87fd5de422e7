"""Leap-on-success staged exhaustive search.

The optimizer looks for the widest valid array a given sensor count can
reach. Each stage fixes an aperture l, enumerates every placement of the
interior sensors between the pinned endpoints in lexicographic order, and
stops at the first valid array ("leap on success"). A found stage advances
the aperture by one; a stage that exhausts without success proves the
previous stage's array optimal.

Filtering also pins grid points 1 and l-1, which every valid array holds
(only (0, l-1) and (1, l) generate the lag l-1). It changes how a stage's
candidates are numbered, so the counts a run reports, never a verdict or an
array. Nor does it save the compiled engine work: its final-lag rule cuts
every placement without 1 or l-1 at depth two. Only the pure-Python scanner,
which tests each candidate, does several times more work unfiltered.

There is one search mode. Every stage reports its lexicographically first
valid array and the prefix count needed to reach it, whether or not the
run was resumed. Mirror pruning is always on and never changes that answer:
the mirror of a valid array is valid and lies in the same stage, so the
first valid array is always mirror-canonical.
"""

import json
import math
import os
import time
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from . import kernel
from .kernel import _rank_lex, _unrank_lex, stage_shape
from .coarray import SensorArray, _Frozen

__all__ = [
    "CorruptCheckpoint",
    "IndexOutOfRange",
    "InvalidConfig",
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
_GROW_NODES, _SHRINK_NODES = 1 << 22, 1 << 24  # a call's nodes: grow or shrink the next chunk
_CHECKPOINT_VERSION = 2


class IndexOutOfRange(IndexError):
    """Candidate index outside 0..candidate_count-1."""


class CorruptCheckpoint(ValueError):
    """Checkpoint file failed validation (version, digest, field types, or config)."""


class InvalidConfig(ValueError):
    """A :class:`SearchConfig` setting outside its domain."""


class StageOutcome(str, Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted"


class Verdict(str, Enum):
    OPTIMAL = "optimal"
    NEAR_OPTIMAL = "near-optimal"
    NONE_FOUND = "none-found"


class SearchConfig(_Frozen):
    """Knobs for one search run.

    The run tries apertures ``l_start`` (default n) upward, one per found
    stage; ``l_limit`` is the only cap, and a run it stops ends near-optimal.
    ``prune_filters`` pins grid points 1 and l-1 in each stage's numbering
    (see :func:`candidate_count`): it changes the counts, not the results.
    """

    __slots__ = ("n", "l_start", "l_limit", "prune_filters", "checkpoint_path")
    n: int
    l_start: int | None
    l_limit: int | None
    prune_filters: bool
    checkpoint_path: str | Path | None

    def __init__(
        self,
        n: int,
        l_start: int | None = None,
        l_limit: int | None = None,
        prune_filters: bool = True,
        checkpoint_path: str | Path | None = None,
    ) -> None:
        values = (n, l_start, l_limit, prune_filters, checkpoint_path)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        if self.n < 6:
            raise InvalidConfig("searches start at 6 sensors (smallest valid array)")
        if self.n > kernel.MAX_N:
            raise InvalidConfig(f"searches take at most {kernel.MAX_N} sensors (engine limit)")
        if self.l_start is not None and self.l_start < self.n:
            raise InvalidConfig("l_start must be at least n")
        start = self.effective_l_start()
        if start > aperture_upper_bound(self.n):
            raise InvalidConfig("l_start exceeds the aperture upper bound")
        if start > kernel.MAX_L:
            raise InvalidConfig(f"l_start exceeds {kernel.MAX_L} (engine limit)")
        if self.l_limit is not None and self.l_limit < start:
            raise InvalidConfig("l_limit must be at least the starting aperture")

    def __repr__(self) -> str:
        args = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"SearchConfig({args})"

    def effective_l_start(self) -> int:
        return self.n if self.l_start is None else self.l_start

    def filter_signature(self) -> dict:
        """Enumeration-affecting settings; must match to resume a checkpoint."""
        return {"prune_filters": self.prune_filters}


class StageResult(NamedTuple):
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


class SearchOutcome(NamedTuple):
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
    k, m, _ = stage_shape(n, l, filtered)
    return math.comb(m, k)


def unrank_candidate(n: int, l: int, index: int) -> SensorArray:
    """The index-th candidate of the unfiltered stage (n, l)."""
    k, m, base = stage_shape(n, l, False)
    total = math.comb(m, k)
    if not 0 <= index < total:
        raise IndexOutOfRange(f"index {index} outside 0..{total - 1}")
    return SensorArray((0, *(v + base for v in _unrank_lex(index, m, k)), l))


def rank_candidate(n: int, l: int, arr: SensorArray | Sequence[int]) -> int:
    """Unfiltered lexicographic rank of a candidate; inverse of unrank."""
    pos = tuple(arr.positions if isinstance(arr, SensorArray) else arr)
    if len(pos) != n or pos[0] != 0 or pos[-1] != l:
        raise ValueError(f"not a candidate of stage (n={n}, l={l}): {list(pos)}")
    k, m, base = stage_shape(n, l, False)
    return _rank_lex([p - base for p in pos[1:-1]], m, k)


def run_stage(
    n: int,
    l: int,
    filtered: bool,
    *,
    start_index: int = 0,
    on_progress: Callable[[int], None] | None = None,
) -> StageResult:
    """Scan stage (n, l), numbered as ``filtered`` says; stop at the first valid array.

    Chunks run in rank order on the calling thread, so the first find is the
    lexicographic first. A chunk's cost follows the pruned search tree, not
    its candidate count, so the next chunk is doubled after a call of fewer
    than ``_GROW_NODES`` nodes and halved after one of more than
    ``_SHRINK_NODES`` (about 50 and 250 ms of the compiled engine). No clock
    is read, so chunk bounds and checkpoint frontiers repeat on any machine.
    ``on_progress`` receives each chunk end: no valid candidate lies between
    ``start_index`` and it.

    ``start_index`` resumes the stage mid-enumeration (checkpointing). It
    must be a confirmed frontier: no valid array may lie below it. Every
    frontier passed to ``on_progress``, and so every checkpoint, meets that
    condition, and it is what keeps mirror pruning exact on resume. Reported
    counts then equal those of an uninterrupted run.
    """
    t0 = time.perf_counter()
    size = candidate_count(n, l, filtered)
    if start_index > size:
        raise ValueError("start_index beyond stage size")
    chunk, lo = _FIRST_CHUNK, start_index
    while lo < size:
        hi = min(lo + chunk, size)
        _, offset, positions, index, nodes = kernel.scan(n, l, lo, hi, filtered)
        if offset >= 0:  # lo + offset + 1 is the prefix count: identical on resume
            arr = SensorArray(positions)
            elapsed = time.perf_counter() - t0
            return StageResult(l, StageOutcome.FOUND, lo + offset + 1, elapsed, arr, index)
        if nodes < _GROW_NODES:
            chunk *= 2
        elif nodes > _SHRINK_NODES:
            chunk = max(1, chunk // 2)
        if on_progress is not None:
            on_progress(hi)
        lo = hi
    return StageResult(l, StageOutcome.EXHAUSTED, size, time.perf_counter() - t0)


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
    try:
        sealed = _digest(payload)
    except KeyError as exc:
        raise CorruptCheckpoint(f"checkpoint {path} lacks the field {exc}") from exc
    if payload.get("digest") != sealed:
        raise CorruptCheckpoint(f"digest mismatch in {path}")
    if not _well_formed(payload):
        raise CorruptCheckpoint(f"checkpoint {path} holds a field of the wrong type")
    return payload


def _well_formed(payload: dict) -> bool:
    """Whether every field a resumed run reads has its type; the digest only seals."""

    def count(v, optional: bool = False) -> bool:
        return (optional and v is None) or (type(v) is int and v >= 0)  # bool is no count

    def positions(v) -> bool:
        return v is None or (isinstance(v, list) and all(map(count, v)))

    stages = payload["stages"]
    return (
        all(count(payload[k]) for k in ("n", "l", "next_index"))
        and isinstance(stages, list)
        and all(
            isinstance(s, dict)
            and count(s.get("l"))
            and count(s.get("candidates_examined"))
            and count(s.get("candidate_index"), optional=True)
            and s.get("outcome") in ("found", "exhausted")
            and positions(s.get("array"))
            for s in stages
        )
    )


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
        where = f"checkpoint {ckpt} resumes at"  # sealed, but outside this run's stages
        if not cfg.n <= l <= upper + 1:
            raise CorruptCheckpoint(f"{where} aperture {l}, outside {cfg.n}..{upper + 1}")
        if start_index > candidate_count(cfg.n, l, cfg.prune_filters):
            raise CorruptCheckpoint(f"{where} rank {start_index}, past the end of stage {l}")

    last_saved = time.monotonic()  # one timer across stages

    def save(next_index: int, force: bool = False) -> None:
        nonlocal last_saved
        if ckpt is None or not (force or time.monotonic() - last_saved >= 1.0):
            return
        checkpoint_save(
            ckpt,
            n=cfg.n,
            l=l,
            next_index=next_index,
            stages=stages,
            filters=cfg.filter_signature(),
        )
        last_saved = time.monotonic()

    while cfg.l_limit is None or l <= cfg.l_limit:
        if l > upper:
            # Beyond the pair budget no candidate can doubly cover 1..l-1,
            # so the stage is exhausted with every candidate filtered out.
            result = StageResult(
                l=l, outcome=StageOutcome.EXHAUSTED, candidates_examined=0, elapsed=0.0
            )
        else:
            result = run_stage(
                cfg.n, l, cfg.prune_filters, start_index=start_index, on_progress=save
            )
        stages.append(result)
        start_index = 0
        if on_stage is not None:
            on_stage(result)
        if result.outcome is StageOutcome.EXHAUSTED:
            if ckpt is not None:
                ckpt.unlink(missing_ok=True)
            break
        l += 1
        save(0)
    else:  # capped: leave a checkpoint at the next stage's start
        save(0, force=True)

    best = next((s for s in reversed(stages) if s.outcome is StageOutcome.FOUND), None)
    if not stages or stages[-1].outcome is StageOutcome.FOUND:
        verdict = Verdict.NEAR_OPTIMAL if best is not None else Verdict.NONE_FOUND
        reason: str | None = "aperture limit reached"
    elif best is not None:
        verdict, reason = Verdict.OPTIMAL, None
    elif stages[-1].l > upper:
        verdict, reason = Verdict.NONE_FOUND, "aperture upper bound reached"
    else:
        verdict, reason = Verdict.NONE_FOUND, "first stage exhausted"
    return SearchOutcome(
        n=cfg.n,
        stages=tuple(stages),
        verdict=verdict,
        optimal_aperture=best.l if best is not None else None,
        best_array=best.array if best is not None else None,
        reason=reason,
    )
