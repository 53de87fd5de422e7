"""Pure-Python candidate scanner.

Fallback for :mod:`rmra.kernel` when the compiled extension is unavailable.
Uses big-integer bit tricks: with the position set encoded as a bitmask P,
``P >> s`` marks every lag reachable from sensor s, so folding those shifted
masks through once/twice/thrice accumulators classifies every lag's weight
as >=1, >=2 or >=3 in O(N) word operations per candidate.

A lag of weight exactly two is breakable by a single failure only when its
two generating pairs share a sensor, i.e. when the three positions form an
arithmetic chain a, a+m, a+2m — detected as ``P & (P >> m) & (P >> 2m)``.
Lags of weight three or more survive any single failure because one sensor
can sit in at most two pairs of the same lag.

The module also numbers a stage's candidates, ``stage_shape``, ``_rank_lex``
and ``_unrank_lex``: the reference the compiled engine's own ranks are
checked against, and what :mod:`rmra.search` numbers candidates with.
"""

import math
from typing import Sequence

MAX_N = 36
MAX_L = 255


def stage_shape(n: int, l: int, filtered: bool) -> tuple[int, int, int]:
    """(k, m, base): stage (n, l)'s candidates choose k sensors from the m grid
    points base..base+m-1 in lexicographic order; the points outside them are
    pinned: 0 and l, and 1 and l-1 as well when ``filtered``."""
    if n < 4 or l < n:
        raise ValueError("need l >= n >= 4")
    return (n - 4, l - 3, 2) if filtered else (n - 2, l - 1, 1)


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
    """Lexicographic rank of a k-subset c_0 < ... < c_{k-1} of {0..m-1}.

    The complements m-1-c_i, in reverse order, have colex rank
    sum C(m-1-c_i, k-i); lexicographic rank is C(m, k) - 1 less that.
    """
    r = math.comb(m, k) - 1
    for i, c in enumerate(combo):
        r -= math.comb(m - 1 - c, k - i)
    return r


def scan(
    n: int,
    l: int,
    start: int,
    end: int,
    filtered: bool = False,
) -> tuple[int, int, list[int] | None, int | None, int]:
    """Scan the candidates of ranks ``start..end-1`` in lexicographic order.

    The candidates of stage (n, l) are its interior combinations in
    lexicographic order: n-2 grid points strictly between the endpoints, or
    n-4 when ``filtered`` fixes grid points 1 and l-1 as well. The window
    needs ``0 <= start < end <=`` the stage size. Returns ``(examined,
    found_offset, positions, index, nodes)`` for the first valid,
    mirror-canonical candidate, where ``index`` is its rank in the
    unfiltered numbering (the one :func:`rmra.search.rank_candidate` gives),
    and ``found_offset`` is -1 and the next two ``None`` if the window holds
    none. ``nodes``, the call's work, is the candidates tested: ``examined``.
    A candidate whose mirror comes first counts as examined but never as
    found: validity is mirror-invariant and the mirror lies in the same
    stage, so a stage's first valid array is always mirror-canonical and the
    skip never changes it.
    """
    if not 4 <= n <= MAX_N:
        raise ValueError(f"sensor count {n} outside supported range 4..{MAX_N}")
    if not n <= l <= MAX_L:
        raise ValueError(f"aperture {l} outside supported range {n}..{MAX_L}")
    k, m, base = stage_shape(n, l, filtered)
    if not isinstance(start, int):
        raise TypeError(f"start must be an int, not {type(start).__name__}")
    if not 0 <= start < math.comb(m, k):
        raise ValueError(f"start rank outside the stage's {k}-of-{m} enumeration")
    if not isinstance(end, int):
        raise TypeError(f"end must be an int, not {type(end).__name__}")
    if not start < end <= math.comb(m, k):
        raise ValueError(
            f"end rank outside start+1..the size of the stage's {k}-of-{m} enumeration"
        )
    c = _unrank_lex(start, m, k)

    head = tuple(range(base))
    tail = tuple(range(l + 1 - base, l + 1))
    full = (1 << l) - 2  # lags 1..l-1
    examined = 0
    while True:
        p = head + tuple(v + base for v in c) + tail
        examined += 1
        if _valid(p, n, l, full):
            uk, um, ubase = stage_shape(n, l, False)
            index = _rank_lex([v - ubase for v in p[ubase : n - ubase]], um, uk)
            return examined, examined - 1, list(p), index, examined
        if start + examined == end:
            return examined, -1, None, None, examined
        i = k - 1  # the next combination: end <= the stage size, so there is one
        while c[i] == m - k + i:
            i -= 1
        c[i] += 1
        for j in range(i + 1, k):
            c[j] = c[j - 1] + 1


def _valid(p: tuple[int, ...], n: int, l: int, full: int) -> bool:
    for i in range(n):  # skip p when its mirror comes first lexicographically
        q = l - p[n - 1 - i]
        if q != p[i]:
            if q < p[i]:
                return False
            break
    pm = 0
    for s in p:
        pm |= 1 << s
    once = twice = thrice = 0
    for s in p:
        x = pm >> s
        thrice |= twice & x
        twice |= once & x
        once |= x
    # Lags 1..l-1 need weight >= 2. The aperture lag l needs no test: only
    # the pair (0, l) spans it, so its weight is 1 in every candidate.
    if twice & full != full:
        return False
    weak = twice & ~thrice & full  # lags of weight exactly 2
    while weak:
        low = weak & -weak
        lag = low.bit_length() - 1
        if pm & (pm >> lag) & (pm >> (2 * lag)):
            return False
        weak ^= low
    return True
