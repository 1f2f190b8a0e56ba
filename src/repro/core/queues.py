"""DAC hardware queues: ATQ, PWAQ, PWPQ (paper Fig. 9, Table 1).

The Affine Tuple Queue buffers enqueued tuples until the expansion units
process them; the Per-Warp Address/Predicate Queues hold expanded records
until each non-affine warp dequeues them.  Queue capacities are the source
of back-pressure that bounds how far the affine warp runs ahead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np


@dataclass
class TupleEntry:
    """One ATQ entry: an affine tuple (or predicate) awaiting expansion."""

    kind: str                       # 'data' | 'addr' | 'pred'
    queue_id: int
    expr: object                    # AffineExpr or a predicate object
    mask: np.ndarray                # active threads over the whole CTA
    space: object = None            # MemSpace for data/addr entries
    next_warp: int = 0              # expansion progress cursor
    bits: np.ndarray | None = None  # cached predicate evaluation
    dcrf: dict | None = None        # divergent-condition bits (§4.6)


@dataclass
class BarrierMarker:
    """ATQ marker emitted by the affine warp's replicated barrier: the
    expansion units may not process entries past it until the CTA's
    non-affine warps have passed the matching barrier (§4.2)."""

    required_generation: int


@dataclass
class AddressRecord:
    """One PWAQ entry: a warp's compactly-encoded memory access (line
    addresses, paper Fig. 11 ⑤)."""

    kind: str                       # 'data' | 'addr'
    queue_id: int
    lines: list[int]
    addrs: np.ndarray               # concrete per-thread byte addresses
    mask: np.ndarray                # active threads of this warp
    fills_remaining: int = 0        # outstanding early requests (data only)
    locked_lines: list[int] = field(default_factory=list)
    issue_time: int = 0             # when the AEU sent the early requests
    fill_time: int = 0              # when the last early request returned


@dataclass
class PredRecord:
    """One PWPQ entry: a warp's predicate bit vector."""

    queue_id: int
    bits: np.ndarray
    mask: np.ndarray


class ATQ:
    """Affine Tuple Queue: per-CTA FIFOs sharing one entry budget, so the
    expansion units can switch among CTAs (§4.2 'one accumulated address
    register for each concurrent CTA')."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._queues: dict[int, deque] = {}
        self._count = 0
        # Wake hooks: freed entry space unblocks the affine warp's enqueues;
        # a pushed entry (tuple or barrier marker) gives the expansion unit
        # draining this ATQ new work.  The owning DACSM wires both.
        self.on_space = None
        self.on_push = None

    def register_cta(self, cta_key: int) -> None:
        self._queues.setdefault(cta_key, deque())

    def drop_cta(self, cta_key: int) -> list:
        leftovers = list(self._queues.pop(cta_key, ()))
        freed = sum(1 for e in leftovers if isinstance(e, TupleEntry))
        self._count -= freed
        if freed and self.on_space is not None:
            self.on_space()
        return leftovers

    def has_space(self) -> bool:
        return self._count < self.capacity

    def push(self, cta_key: int, entry) -> None:
        if isinstance(entry, TupleEntry):
            if not self.has_space():
                raise RuntimeError("ATQ overflow (caller must check)")
            self._count += 1
        self._queues[cta_key].append(entry)
        if self.on_push is not None:
            self.on_push()

    def head(self, cta_key: int):
        queue = self._queues.get(cta_key)
        return queue[0] if queue else None

    def pop(self, cta_key: int):
        entry = self._queues[cta_key].popleft()
        if isinstance(entry, TupleEntry):
            self._count -= 1
            if self.on_space is not None:
                self.on_space()
        return entry

    def cta_keys(self) -> list[int]:
        return list(self._queues)

    def __len__(self) -> int:
        return self._count


class PerWarpQueue:
    """A bounded FIFO attached to one non-affine warp (PWAQ or PWPQ).

    ``on_push`` is the wake hook for the owning warp's scheduler: a record
    arriving is exactly what a blocked dequeue instruction waits on.
    ``on_pop`` wakes the producing expansion unit: freed space is what a
    full-queue-blocked expansion scan waits on.
    """

    def __init__(self, capacity: int, on_push=None, on_pop=None):
        self.capacity = capacity
        self._items: deque = deque()
        self.on_push = on_push
        self.on_pop = on_pop

    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def push(self, item) -> None:
        if self.full():
            raise RuntimeError("per-warp queue overflow (caller must check)")
        self._items.append(item)
        if self.on_push is not None:
            self.on_push()

    def head(self):
        return self._items[0] if self._items else None

    def pop(self):
        item = self._items.popleft()
        if self.on_pop is not None:
            self.on_pop()
        return item

    def __len__(self) -> int:
        return len(self._items)

    def drain(self) -> list:
        items = list(self._items)
        self._items.clear()
        if items and self.on_pop is not None:
            self.on_pop()
        return items
