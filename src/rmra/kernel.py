"""Backend selection for the candidate scanner.

Prefers the compiled engine, falls back to the pure-Python scanner when the
extension was not built. Both backends keep the contract of
:func:`rmra._kernel_py.scan`.
"""

from __future__ import annotations

import math
from typing import Sequence

try:
    from . import _kernel_c
except ImportError:
    _kernel_c = None


def _unrank_lex(index: int, m: int, k: int) -> list[int]:
    """index-th k-subset of {0..m-1} in lexicographic order."""
    combo = []
    v = 0
    r = index
    for i in range(k):
        while True:
            c = math.comb(m - 1 - v, k - i - 1)
            if r < c:
                break
            r -= c
            v += 1
        combo.append(v)
        v += 1
    return combo


def _rank_lex(combo: Sequence[int], m: int, k: int) -> int:
    """Lexicographic rank of a k-subset of {0..m-1}."""
    r = 0
    prev = -1
    for i, c in enumerate(combo):
        for v in range(prev + 1, c):
            r += math.comb(m - 1 - v, k - i - 1)
        prev = c
    return r


def _compiled_scan(
    n: int,
    l: int,
    first: Sequence[int],
    count: int,
    filtered: bool = False,
    mirror_prune: bool = False,
) -> tuple[int, int, list[int] | None]:
    """:func:`rmra._kernel_py.scan` over the compiled engine.

    The engine finds the first valid array of a lexicographic window without
    visiting the candidates before it, so the scan's counts come from ranks:
    the window ends ``count`` candidates after ``first`` (or at the stage
    end), and ``examined`` is the find's offset plus one, or the window size.
    Ranks pass 64 bits at large apertures, so they stay Python ints here.
    """
    k, m, base = (n - 4, l - 3, 2) if filtered else (n - 2, l - 1, 1)
    start = _rank_lex(first, m, k)
    # a one-candidate window when count <= 0, so bad arguments still raise
    end = min(start + max(count, 1), math.comb(m, k))
    last = _unrank_lex(end - 1, m, k)
    positions = _kernel_c.first_valid(n, l, first, last, filtered, mirror_prune)
    if count <= 0:
        return 0, -1, None
    if positions is None:
        return end - start, -1, None
    offset = _rank_lex([p - base for p in positions[base : n - base]], m, k) - start
    return offset + 1, offset, positions


if _kernel_c is None:
    from ._kernel_py import scan

    BACKEND = "python"
else:
    scan = _compiled_scan
    BACKEND = "c"


def available_backends() -> dict[str, object]:
    """Importable scan callables keyed by backend name."""
    from . import _kernel_py

    backends: dict[str, object] = {"python": _kernel_py.scan}
    if _kernel_c is not None:
        backends["c"] = _compiled_scan
    return backends
