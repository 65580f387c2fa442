"""Host-speed reference that the reported times are scaled by.

The benchmark host is shared.  A fixed pure-Python loop, timed in 5 s blocks
for two minutes on a 2-core machine, ran between 14 ms and 22 ms per call,
switching between those speeds every few seconds to tens of seconds.  The
same seed's mink-target pass varied by 18% from run to run.

So every timed interval (a task, a set-up repetition) is bracketed by runs of
``kernel_seconds`` and reported as

    measured seconds * REFERENCE_KERNEL_S / mean(kernel before, kernel after),

the time the interval would take on a host where the kernel takes
``REFERENCE_KERNEL_S``.  On five runs of one mink-target seed this cut the
range of the pass time from 18% to 9% and of the median task time from 25%
to 8%.  The unscaled times are printed in the report line beside them.
"""

from __future__ import annotations

import time

REFERENCE_KERNEL_S = 0.0005


def _kernel() -> int:
    """Dict, tuple and integer work, as in the program's hot loops."""
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(2000):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + i
        acc += len(table) ^ i
    return acc


def kernel_seconds() -> float:
    """Shortest of three back-to-back runs of the kernel."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, before: float, after: float) -> float:
    return seconds * REFERENCE_KERNEL_S * 2.0 / (before + after)
