"""Set-associative cache with MSHRs and DAC line-lock counters.

The lock counters implement paper §4.2: the AEU locks a line when it issues
an early request so the line cannot be evicted before its demand access; the
non-affine warp unlocks it on access.  The AEU refuses to lock more than
``ways - 1`` ways of a set, which rules out deadlock.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..config import CacheConfig
from ..events import EventQueue
from ..stats import Stats
from ..trace.tracer import NULL_TRACER


class _Line:
    __slots__ = ("tag", "valid", "lock_count", "last_use")

    def __init__(self) -> None:
        self.tag = -1
        self.valid = False
        self.lock_count = 0
        self.last_use = 0


@dataclass
class _MSHREntry:
    callbacks: list[Callable[[int], None]] = field(default_factory=list)
    lock_count: int = 0


class SetAssocCache:
    """One cache level.  ``next_level`` must expose ``read(line_addr, now,
    callback)`` and ``write(line_addr, now)``."""

    def __init__(self, name: str, config: CacheConfig, next_level,
                 events: EventQueue, stats: Stats, tracer=NULL_TRACER,
                 trace_label: str | None = None):
        self.name = name
        self.config = config
        self.next_level = next_level
        self.events = events
        self.stats = stats
        self.tracer = tracer
        self.trace_label = trace_label if trace_label is not None else name
        self.num_sets = max(1, config.size_bytes
                            // (config.line_size * config.ways))
        self._sets = [[_Line() for _ in range(config.ways)]
                      for _ in range(self.num_sets)]
        self._mshrs: dict[int, _MSHREntry] = {}
        self._mshr_wait: deque[tuple[int, Callable, bool]] = deque()
        self._pending_locked_fills: dict[int, int] = {}   # set idx -> count
        self._next_free = 0.0
        self._use_clock = 0
        # Stat keys, preformatted once: these counters are bumped on every
        # access and the f-string formatting shows up in profiles.
        self._k_accesses = name + ".accesses"
        self._k_hits = name + ".hits"
        self._k_misses = name + ".misses"
        self._k_mshr_merged = name + ".mshr_merged"
        self._k_mshr_stalls = name + ".mshr_stalls"
        self._k_locked_bypass = name + ".locked_bypass"
        self._k_evictions = name + ".evictions"
        self._k_writes = name + ".writes"

    # ---- geometry ------------------------------------------------------

    def _set_index(self, line_addr: int) -> int:
        return (line_addr // self.config.line_size) % self.num_sets

    def _lookup(self, line_addr: int) -> _Line | None:
        tag = line_addr // self.config.line_size
        for line in self._sets[tag % self.num_sets]:
            if line.valid and line.tag == tag:
                return line
        return None

    def contains(self, line_addr: int) -> bool:
        return self._lookup(line_addr) is not None

    def in_flight(self, line_addr: int) -> bool:
        return line_addr in self._mshrs

    # ---- throughput limiting --------------------------------------------

    def _admit(self, now: int) -> int:
        start = max(float(now), self._next_free)
        self._next_free = start + self.config.accept_interval
        return int(start)

    # ---- reads -----------------------------------------------------------

    def read(self, line_addr: int, now: int,
             callback: Callable[[int], None], lock: bool = False) -> None:
        """Request a line; ``callback(time)`` fires when the data is present
        in this cache level.  ``lock=True`` is the AEU early-request path."""
        start = self._admit(now)
        self.stats.add(self._k_accesses)
        line = self._lookup(line_addr)
        if line is not None:
            self.stats.add(self._k_hits)
            self._use_clock += 1
            line.last_use = self._use_clock
            if lock:
                line.lock_count += 1
            self.events.schedule(start + self.config.hit_latency, callback)
            if self.tracer.enabled:
                self.tracer.mem_access(start, self.trace_label, line_addr,
                                       True)
            return
        self.stats.add(self._k_misses)
        if self.tracer.enabled:
            self.tracer.mem_access(start, self.trace_label, line_addr, False)
        self._miss(line_addr, start, callback, lock)

    def _miss(self, line_addr: int, now: int,
              callback: Callable[[int], None], lock: bool) -> None:
        entry = self._mshrs.get(line_addr)
        if entry is not None:                       # secondary miss: merge
            self.stats.add(self._k_mshr_merged)
            entry.callbacks.append(callback)
            if lock:
                if entry.lock_count == 0:
                    set_idx = self._set_index(line_addr)
                    self._pending_locked_fills[set_idx] = \
                        self._pending_locked_fills.get(set_idx, 0) + 1
                entry.lock_count += 1
            return
        if len(self._mshrs) >= self.config.num_mshrs:
            self.stats.add(self._k_mshr_stalls)
            self._mshr_wait.append((line_addr, callback, lock))
            return
        self._allocate_mshr(line_addr, now, callback, lock)

    def _allocate_mshr(self, line_addr: int, now: int,
                       callback: Callable[[int], None], lock: bool) -> None:
        entry = _MSHREntry([callback], 1 if lock else 0)
        self._mshrs[line_addr] = entry
        if lock:
            set_idx = self._set_index(line_addr)
            self._pending_locked_fills[set_idx] = \
                self._pending_locked_fills.get(set_idx, 0) + 1
        self.next_level.read(line_addr, now + self.config.hit_latency,
                             lambda t, a=line_addr: self._fill(a, t))

    def _fill(self, line_addr: int, now: int) -> None:
        entry = self._mshrs.pop(line_addr)
        set_idx = self._set_index(line_addr)
        if entry.lock_count:
            remaining = self._pending_locked_fills.get(set_idx, 1) - 1
            if remaining:
                self._pending_locked_fills[set_idx] = remaining
            else:
                self._pending_locked_fills.pop(set_idx, None)
        self._insert(line_addr, entry.lock_count)
        if self.tracer.enabled:
            self.tracer.mem_fill(now, self.trace_label, line_addr)
        for callback in entry.callbacks:
            callback(now)
        # MSHR freed: admit waiting requests.  Keep draining while MSHRs
        # are free — an admitted request may hit or merge (consuming no
        # MSHR), and stopping after one would strand the rest forever.
        while self._mshr_wait and len(self._mshrs) < self.config.num_mshrs:
            addr, cb, lock = self._mshr_wait.popleft()
            self._retry(addr, now, cb, lock)

    def _retry(self, line_addr: int, now: int,
               callback: Callable[[int], None], lock: bool) -> None:
        """Re-issue a request that stalled waiting for an MSHR.  Stats and
        port admission were already charged when the request first arrived,
        so this path must not go back through :meth:`read` — doing so would
        double-count ``accesses``/``misses`` and pay ``_admit`` twice."""
        line = self._lookup(line_addr)
        if line is not None:
            self._use_clock += 1
            line.last_use = self._use_clock
            if lock:
                line.lock_count += 1
            self.events.schedule(now + self.config.hit_latency, callback)
            return
        self._miss(line_addr, now, callback, lock)

    def _insert(self, line_addr: int, lock_count: int) -> None:
        ways = self._sets[self._set_index(line_addr)]
        victim = None
        for line in ways:
            if not line.valid:
                victim = line
                break
        if victim is None:
            unlocked = [l for l in ways if l.lock_count == 0]
            if not unlocked:
                # Every way locked by the AEU (bounded by ways-1) *plus*
                # non-affine fills racing in: deliver without caching.
                self.stats.add(self._k_locked_bypass)
                return
            victim = min(unlocked, key=lambda l: l.last_use)
            self.stats.add(self._k_evictions)
        self._use_clock += 1
        victim.tag = line_addr // self.config.line_size
        victim.valid = True
        victim.lock_count = lock_count
        victim.last_use = self._use_clock

    # ---- writes (write-through, no write-allocate) -----------------------

    def write(self, line_addr: int, now: int) -> None:
        start = self._admit(now)
        self.stats.add(self._k_writes)
        line = self._lookup(line_addr)
        if line is not None:
            self._use_clock += 1
            line.last_use = self._use_clock
        self.next_level.write(line_addr, start + 1)

    # ---- DAC locking ------------------------------------------------------

    def can_lock(self, line_addr: int) -> bool:
        """Whether the AEU may lock this line without risking a fully locked
        set (paper §4.2: at most N-1 ways of an N-way cache)."""
        set_idx = self._set_index(line_addr)
        line = self._lookup(line_addr)
        if line is not None and line.lock_count > 0:
            return True                       # re-locking an already locked line
        locked_ways = sum(1 for l in self._sets[set_idx]
                          if l.valid and l.lock_count > 0)
        locked_ways += self._pending_locked_fills.get(set_idx, 0)
        return locked_ways < self.config.ways - 1

    def unlock(self, line_addr: int) -> None:
        line = self._lookup(line_addr)
        if line is not None and line.lock_count > 0:
            line.lock_count -= 1

    def locked_lines(self) -> int:
        return sum(1 for ways in self._sets for l in ways
                   if l.valid and l.lock_count > 0)
