"""Memory access coalescing: per-thread addresses -> unique cache lines.

GPUs service one memory transaction per distinct cache line touched by a
warp.  The coalescer is the baseline path; under DAC most loads instead take
the AEU path, which produces line addresses directly from the affine tuple
without ever materializing per-thread addresses (paper §4.2, Fig. 10).
"""

from __future__ import annotations

import numpy as np

LINE_SIZE = 128
LINE_SHIFT = 7          # log2(LINE_SIZE)


def coalesce(addresses: np.ndarray, active: np.ndarray) -> list[int]:
    """Unique line addresses for a warp access.

    ``addresses`` are per-thread byte addresses; ``active`` is the
    participation mask.  Returns line-aligned byte addresses in ascending
    order (empty if no thread is active).
    """
    if not active.any():
        return []
    lines = np.unique(addresses[active].astype(np.int64) >> LINE_SHIFT)
    return [int(a) << LINE_SHIFT for a in lines]


def line_of(address: int) -> int:
    """The line-aligned byte address containing ``address``."""
    return (int(address) >> LINE_SHIFT) << LINE_SHIFT


class CoalesceCache:
    """Memoized coalescing for the dominant affine access patterns.

    A warp's coalescing result depends only on the active threads' addresses
    *relative to the first active address's line*: shifting every address by
    a whole number of lines shifts the line list by the same amount.
    Strided workloads therefore repeat a tiny number of relative patterns
    across thousands of accesses, and the ``np.unique`` pass can be
    computed once per pattern.

    Correctness relies on one exact identity over int64:
    ``(a - b*LINE_SIZE) >> LINE_SHIFT == (a >> LINE_SHIFT) - b`` (arithmetic
    shift; the subtrahend is line-aligned).  The tests check the cache
    against the uncached :func:`coalesce`.
    """

    __slots__ = ("_patterns",)

    #: Bound on distinct relative patterns kept (irregular workloads could
    #: otherwise grow the table without limit); on overflow the table is
    #: dropped, not the hit rate for regular patterns.
    MAX_PATTERNS = 1 << 14

    def __init__(self) -> None:
        self._patterns: dict[bytes, tuple[int, ...]] = {}

    def lines(self, addresses: np.ndarray, active: np.ndarray) -> list[int]:
        """Memoized :func:`coalesce` (identical result)."""
        act = addresses[active].astype(np.int64)
        if act.size == 0:
            return []
        base = int(act[0]) >> LINE_SHIFT
        rel = act - (base << LINE_SHIFT)
        key = rel.tobytes()
        pattern = self._patterns.get(key)
        if pattern is None:
            pattern = tuple(int(line)
                            for line in np.unique(rel >> LINE_SHIFT))
            if len(self._patterns) >= self.MAX_PATTERNS:
                self._patterns.clear()
            self._patterns[key] = pattern
        return [(base + line) << LINE_SHIFT for line in pattern]
