"""Simplified GDDR model: banked, row-buffer aware, FR-FCFS scheduled.

Each bank has a request queue served row-hit-first (FR-FCFS, the policy
GPGPU-sim models): among queued requests the controller picks the oldest
one targeting the open row, falling back to the oldest request overall.
This batches same-row traffic from interleaved streams — without it, two
interleaved streams thrash the row buffers and every access pays the
activate penalty.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..config import DRAMConfig
from ..events import EventQueue
from ..stats import Stats


class DRAM:
    """Bank-parallel DRAM with FR-FCFS per-bank scheduling.

    ``latency`` is the controller/device pipeline outside the bank timing;
    half is charged on the way in, half on the way out.  A read occupies its
    bank for ``t_row_hit`` or ``t_row_miss`` cycles and the shared data bus
    for ``burst_cycles``.  Writes use the same bank/bus path but complete
    silently.
    """

    def __init__(self, config: DRAMConfig, events: EventQueue, stats: Stats,
                 name: str = "dram"):
        self.config = config
        self.events = events
        self.stats = stats
        self.name = name
        n = config.num_banks
        self._queues: list[deque] = [deque() for _ in range(n)]
        self._bank_free = [0] * n
        self._open_row = [-1] * n
        self._pending_kick = [False] * n
        self._bus_free = 0.0
        self._pipe_in = config.latency // 2
        self._pipe_out = config.latency - config.latency // 2
        self._row_div = config.num_banks * max(1, config.row_size // 128)
        # Preformatted per-request stat keys (hot path).
        self._k_reads = name + ".reads"
        self._k_writes = name + ".writes"
        self._k_row_hits = name + ".row_hits"
        self._k_row_misses = name + ".row_misses"

    # ---- geometry --------------------------------------------------------

    def _bank_of(self, line_addr: int) -> int:
        return (line_addr // 128) % self.config.num_banks

    def _row_of(self, line_addr: int) -> int:
        return (line_addr // 128) // self._row_div

    # ---- request entry -----------------------------------------------------

    def read(self, line_addr: int, now: int,
             callback: Callable[[int], None]) -> None:
        self.stats.add(self._k_reads)
        self._enqueue(line_addr, now, callback)

    def write(self, line_addr: int, now: int) -> None:
        self.stats.add(self._k_writes)
        self._enqueue(line_addr, now, None)

    def _enqueue(self, line_addr: int, now: int,
                 callback: Callable[[int], None] | None) -> None:
        bank = self._bank_of(line_addr)
        arrival = now + self._pipe_in
        self.events.schedule(
            arrival,
            lambda t, b=bank, a=line_addr, c=callback: self._arrive(b, a, c,
                                                                    t))

    def _arrive(self, bank: int, line_addr: int, callback, now: int) -> None:
        self._queues[bank].append((now, line_addr, callback))
        self._kick(bank, now)

    # ---- FR-FCFS service ---------------------------------------------------

    def _schedule_kick(self, bank: int, time: int) -> None:
        """Schedule a service attempt, keeping at most one outstanding per
        bank.  Without the guard every arrival during a busy window queues
        its own retry, and deep per-bank queues degenerate into O(N²)
        event churn."""
        if self._pending_kick[bank]:
            return
        self._pending_kick[bank] = True
        self.events.schedule(time, lambda t, b=bank: self._on_kick(b, t))

    def _on_kick(self, bank: int, now: int) -> None:
        self._pending_kick[bank] = False
        self._kick(bank, now)

    def _kick(self, bank: int, now: int) -> None:
        if now < self._bank_free[bank]:
            self._schedule_kick(bank, self._bank_free[bank])
            return
        queue = self._queues[bank]
        if not queue:
            return
        # Row-hit first, oldest first within each class.
        chosen = None
        for i, (arrival, addr, cb) in enumerate(queue):
            if self._row_of(addr) == self._open_row[bank]:
                chosen = i
                break
        if chosen is None:
            chosen = 0
        arrival, addr, cb = queue[chosen]
        del queue[chosen]
        row = self._row_of(addr)
        if row == self._open_row[bank]:
            busy = self.config.t_row_hit
            self.stats.add(self._k_row_hits)
        else:
            busy = self.config.t_row_miss
            self._open_row[bank] = row
            self.stats.add(self._k_row_misses)
        done = now + busy
        self._bank_free[bank] = done
        data_start = max(float(done), self._bus_free)
        self._bus_free = data_start + self.config.burst_cycles
        if cb is not None:
            self.events.schedule(int(data_start + self.config.burst_cycles
                                     + self._pipe_out), cb)
        if queue:
            self._schedule_kick(bank, done)


class PerfectMemory:
    """Zero-latency, infinite-bandwidth endpoint used to classify benchmarks
    as memory- or compute-intensive (paper §5.1.2)."""

    def __init__(self, events: EventQueue, latency: int = 1):
        self.events = events
        self.latency = latency

    def read(self, line_addr: int, now: int,
             callback: Callable[[int], None], lock: bool = False) -> None:
        self.events.schedule(now + self.latency, callback)

    def write(self, line_addr: int, now: int) -> None:
        pass

    # L1-interface shims so the DAC/MTA paths also run (trivially) under
    # perfect memory.
    def can_lock(self, line_addr: int) -> bool:
        return True

    def unlock(self, line_addr: int) -> None:
        pass

    def contains(self, line_addr: int) -> bool:
        return True

    def in_flight(self, line_addr: int) -> bool:
        return False
