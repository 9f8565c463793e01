"""The reference kernel: a fixed piece of pure-Python work timed next to every
measured segment, so that op times can be reported at reference speed.

The host's CPU speed drifts by up to 2x within a minute, and the process's
CPU time drifts with it, so raw wall times of identical work spread widely
between runs.  Dividing a segment's time by the kernel's time measured just
before and after it cancels that drift.  The kernel must never call the
program under test, so a change to the program cannot move it.

The kernel mixes the two kinds of work the program does: 150-bit int
shifts with dict stores and a small sort (the GF(2) rows of the 4-regular
pipeline), and tuple, frozenset and dict building with function calls (the
many small frozen objects of the subset loops).  Of the kernels tried, this
mix tracked both `query` and `fourreg` ops best; README.md has the figures.
"""

from __future__ import annotations

import time

# Kernel time, in ms, that defines reference speed: a segment measured next
# to a kernel run of exactly this length is reported at its raw time.
NOMINAL_MS = 5.0

_MASK = (1 << 150) - 1


def _ends(t: tuple[int, ...]) -> int:
    return t[0] ^ t[-1]


def kernel() -> int:
    x = (1 << 149) | 0x5DEECE66D
    table: dict[int, int] = {}
    acc = 0
    for i in range(6000):
        x = ((x << 7) ^ (x >> 5) ^ i) & _MASK
        table[i & 127] = x
        if i & 127 == 127:
            acc ^= sorted(table.values())[64] & 0xFFFF
    for i in range(1500):
        t = tuple(range(i & 7, (i & 7) + 6))
        d = {k: k << 70 for k in t}
        acc += len(frozenset(t)) + _ends(t) + (d[t[2]] >> 70)
    return acc


class Reference:
    """Kernel timings of one run; `factor` scales a segment to reference speed."""

    def __init__(self) -> None:
        self.samples_ms: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        kernel()
        ms = (time.perf_counter() - t0) * 1e3
        self.samples_ms.append(ms)
        return ms

    def factor(self, before_ms: float, after_ms: float) -> float:
        return NOMINAL_MS / ((before_ms + after_ms) / 2)
