"""Backend selection for the candidate scanner.

Prefers the compiled engine, falls back to the pure-Python scanner when the
extension was not built or does not load (on x86-64 it needs a CPU with
POPCNT). Both backends keep the contract of
:func:`rmra._kernel_py.scan`, ``scan(n, l, start, count, filtered) ->
(examined, offset, positions, index)``: the first valid, mirror-canonical
array in a window of ``count`` candidates from lexicographic rank
``start``, and ``index``, its rank in the unfiltered numbering. The
compiled engine does its own rank arithmetic, so ``scan`` is
``_kernel_c.scan`` itself. It alone takes a keyword-only ``nodes=True``,
which appends the number of search nodes the call visited, an exact count
that does not depend on the machine's speed; the pure-Python scanner walks
candidates, not a tree, and has no such count. What the rest of the
package numbers candidates with, ``stage_shape``, ``_rank_lex`` and
``_unrank_lex``, and the engines' limits ``MAX_N`` and ``MAX_L`` are
re-exported from :mod:`rmra._kernel_py`.
"""

from . import _kernel_py
from ._kernel_py import MAX_L, MAX_N, _rank_lex, _unrank_lex, stage_shape  # noqa: F401

try:
    from . import _kernel_c
except ImportError:
    _kernel_c = None

if _kernel_c is None:
    scan = _kernel_py.scan
    BACKEND = "python"
else:
    scan = _kernel_c.scan
    BACKEND = "c"
