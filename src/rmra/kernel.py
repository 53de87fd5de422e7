"""Backend selection for the candidate scanner.

Prefers the compiled engine, falls back to the pure-Python scanner when the
extension was not built or does not load (on x86-64 it needs a CPU with
POPCNT). Both backends keep the contract of :func:`rmra._kernel_py.scan`,
``scan(n, l, start, end, filtered) -> (examined, offset, positions, index,
nodes)``: the first valid, mirror-canonical array among the candidates of
lexicographic rank ``start..end-1``, ``index``, its rank in the unfiltered
numbering, and ``nodes``, the call's work: the search nodes the compiled
engine visited, or the candidates the pure-Python scanner tested. Either is
an exact count that does not depend on the machine's speed. The compiled
engine does its own rank arithmetic, so ``scan`` is ``_kernel_c.scan``
itself. What the rest of the package numbers candidates with,
``stage_shape``, ``_rank_lex`` and ``_unrank_lex``, and the engines' limits
``MAX_N`` and ``MAX_L`` are re-exported from :mod:`rmra._kernel_py`.
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
