"""Wiring: per-SM L1 caches -> interconnect -> shared L2 -> DRAM."""

from __future__ import annotations

from typing import Callable

from ..config import GPUConfig
from ..events import EventQueue
from ..stats import Stats
from ..trace.tracer import NULL_TRACER
from .cache import SetAssocCache
from .dram import DRAM, PerfectMemory


class LatencyChannel:
    """Fixed-latency link between two memory levels (the interconnect)."""

    def __init__(self, next_level, delay: int, events: EventQueue):
        self.next_level = next_level
        self.delay = delay
        self.events = events

    def read(self, line_addr: int, now: int,
             callback: Callable[[int], None]) -> None:
        self.events.schedule(
            now + self.delay,
            lambda t: self.next_level.read(
                line_addr, t,
                lambda t2: self.events.schedule(t2 + self.delay, callback)))

    def write(self, line_addr: int, now: int) -> None:
        self.events.schedule(
            now + self.delay,
            lambda t: self.next_level.write(line_addr, t))


class MemoryHierarchy:
    """The full memory system for one GPU instance.

    With ``config.perfect_memory`` every global access completes in a fixed
    handful of cycles — the classification configuration of §5.1.2.
    """

    def __init__(self, config: GPUConfig, events: EventQueue, stats: Stats,
                 tracer=NULL_TRACER):
        self.config = config
        self.events = events
        self.stats = stats
        if config.perfect_memory:
            endpoint = PerfectMemory(events)
            self.l2 = None
            self.dram = None
            self.l1s = [endpoint for _ in range(config.num_sms)]
            self._perfect = True
            return
        self._perfect = False
        self.dram = DRAM(config.dram, events, stats)
        self.l2 = SetAssocCache("l2", config.l2, self.dram, events, stats,
                                tracer=tracer)
        icnt = LatencyChannel(self.l2, config.interconnect_latency, events)
        self.l1s = [
            SetAssocCache("l1", config.l1, icnt, events, stats,
                          tracer=tracer, trace_label=f"l1.{i}")
            for i in range(config.num_sms)
        ]

    @property
    def perfect(self) -> bool:
        return self._perfect

    def l1_of(self, sm_index: int):
        return self.l1s[sm_index]
