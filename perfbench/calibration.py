"""Host-speed reference used to normalize every time the benchmark reports.

On a shared host the CPU speed of one process switches between modes up to
a factor of two apart, every few seconds, and process CPU time drifts with
it, so raw wall times of identical work spread far wider than any useful
regression bound.  The benchmark therefore times this fixed kernel right
before and right after the work it measures and reports

    normalized time = measured time * REFERENCE_S / median kernel time

that is, the time the work would take on a host where the kernel takes
REFERENCE_S.  The kernel is exact rational elimination and tuple sorting
written with the standard library only, the same kind of work the library
does, and no change to coconvex can move it.  Raw times are printed next to
the normalized ones.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Typical kernel time on the 2-core machine the baseline in meta.json was
# measured on; it only fixes the scale of reported times.
REFERENCE_S = 0.0040

_N = 7
_MATRIX = tuple(
    tuple(Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(_N))
    for i in range(_N)
)


def _eliminate():
    rows = [list(r) for r in _MATRIX]
    for c in range(_N):
        pivot = next((r for r in range(c, _N) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(_N):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return sorted(tuple(r) for r in rows)


def kernel_seconds(repeats: int = 2) -> float:
    """Wall time of the fixed kernel, run `repeats` times.

    The garbage collector is paused meanwhile: otherwise the kernel's
    allocations would trigger collections whose cost grows with the
    caller's heap, and the reference would track the program, not the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(repeats):
            _eliminate()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(samples) -> float:
    """Scale that maps times measured next to `samples` to the reference."""
    return REFERENCE_S / statistics.median(samples)

