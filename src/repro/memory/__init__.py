"""Memory subsystem: coalescer, caches with DAC lock support, DRAM."""

from .cache import SetAssocCache
from .coalescer import (CoalesceCache, LINE_SHIFT, LINE_SIZE, coalesce,
                        line_of)
from .dram import DRAM, PerfectMemory
from .hierarchy import LatencyChannel, MemoryHierarchy

__all__ = [
    "CoalesceCache", "DRAM", "LINE_SHIFT", "LINE_SIZE", "LatencyChannel",
    "MemoryHierarchy", "PerfectMemory", "SetAssocCache", "coalesce",
    "line_of",
]
