"""Backend selection for the candidate scanner.

Prefers the compiled engine, falls back to the pure-Python scanner when the
extension was not built. Both backends keep the contract of
:func:`rmra._kernel_py.scan`, ``scan(n, l, start, count, filtered) ->
(examined, offset, positions)``: the first valid, mirror-canonical array in
a window of ``count`` candidates from lexicographic rank ``start``. The
compiled engine does its own rank arithmetic, so ``scan`` is
``_kernel_c.scan`` itself. The rank arithmetic the rest of the package
uses, ``_rank_lex`` and ``_unrank_lex``, is re-exported from
:mod:`rmra._kernel_py`.
"""

from . import _kernel_py
from ._kernel_py import _rank_lex, _unrank_lex  # noqa: F401  (re-exported)

try:
    from . import _kernel_c
except ImportError:
    _kernel_c = None


def stage_shape(n: int, l: int, filtered: bool) -> tuple[int, int, int]:
    """(k, m, base): a stage's active enumeration chooses k interior sensors
    from the m grid points base..base+m-1. Filtering also pins points 1 and l-1."""
    return (n - 4, l - 3, 2) if filtered else (n - 2, l - 1, 1)


if _kernel_c is None:
    scan = _kernel_py.scan
    BACKEND = "python"
else:
    scan = _kernel_c.scan
    BACKEND = "c"


def available_backends() -> dict[str, object]:
    """Importable scan callables keyed by backend name."""
    backends: dict[str, object] = {"python": _kernel_py.scan}
    if _kernel_c is not None:
        backends["c"] = _kernel_c.scan
    return backends
