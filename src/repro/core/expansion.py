"""Address and Predicate Expansion Units (paper §4.2, §4.3, Fig. 11).

Each unit owns one integer ALU and, every cycle it is free, turns the head
tuple of some CTA's ATQ lane into one per-warp record: the AEU produces a
warp address record (cache-line addresses) and issues the
early, line-locked memory requests for loads; the PEU produces a predicate
bit vector using the cheapest applicable tier (one comparison for scalar
predicates, two for monotonic affine operands, full SIMT expansion
otherwise).
"""

from __future__ import annotations

import numpy as np

from ..affine import AffinePredicate, DivergentSet
from .affine_warp import AffineCTAExec, ConcreteExpr
from .queues import ATQ, AddressRecord, BarrierMarker, PredRecord, TupleEntry


class ExpansionUnit:
    """Shared machinery: CTA round-robin, barrier gating, busy tracking.

    Like the schedulers, a unit whose full scan found nothing processable
    caches that outcome and *sleeps*: the scan's inputs (ATQ heads, barrier
    generations, per-warp queue occupancy, the resident-CTA set) only change
    inside an instruction issue or a CTA assignment, both of which call
    ``DACSM.wake_all``/``wake``.  A blocked scan mutates nothing (the
    round-robin cursor only advances on progress), so skipping it is
    invisible to the timing model.
    """

    def __init__(self, sm, atq: ATQ, name: str):
        self.sm = sm
        self.atq = atq
        self.name = name
        self.busy_until = 0
        self._rr = 0
        self._asleep = False

    def wake(self) -> None:
        self._asleep = False

    def tick(self, now: int) -> bool:
        """One cycle of work.  Returns True when the unit made progress or
        is still mid-expansion (so the GPU loop does not fast-forward past
        it)."""
        if now < self.busy_until:
            return True
        if self._asleep:
            return False
        keys = self.atq.cta_keys()
        if not keys:
            self._asleep = True
            return False
        for i in range(len(keys)):
            key = keys[(self._rr + i) % len(keys)]
            exec_ = self.sm.affine_execs.get(key)
            if exec_ is None:
                continue
            head = self.atq.head(key)
            if head is None:
                continue
            if isinstance(head, BarrierMarker):
                if exec_.cta.barrier_generation >= head.required_generation:
                    self.atq.pop(key)
                    self._rr = (self._rr + i) % len(keys)
                    return True
                continue                      # gated (§4.2)
            if self._process(head, exec_, key, now):
                self._rr = (self._rr + i) % len(keys)
                return True
        self._asleep = True
        return False

    def _process(self, entry: TupleEntry, exec_: AffineCTAExec,
                 key: int, now: int) -> bool:
        raise NotImplementedError

    def _advance(self, entry: TupleEntry, exec_: AffineCTAExec,
                 key: int) -> None:
        entry.next_warp += 1
        if entry.next_warp >= len(exec_.cta_warps):
            self.atq.pop(key)

    @staticmethod
    def _warp_slice(entry: TupleEntry, warp_index: int) -> np.ndarray:
        return entry.mask[warp_index * 32:(warp_index + 1) * 32]


class AddressExpansionUnit(ExpansionUnit):
    """The AEU: expands address tuples and issues early, locked loads."""

    def __init__(self, sm, atq: ATQ):
        super().__init__(sm, atq, "aeu")

    def _process(self, entry: TupleEntry, exec_: AffineCTAExec,
                 key: int, now: int) -> bool:
        # Skip warps with no active threads: no record, no dequeue.
        while entry.next_warp < len(exec_.cta_warps):
            if self._warp_slice(entry, entry.next_warp).any():
                break
            entry.next_warp += 1
        if entry.next_warp >= len(exec_.cta_warps):
            self.atq.pop(key)
            return True
        warp = exec_.cta_warps[entry.next_warp]
        if warp.pwaq.full():
            return False                       # back-pressure: try other CTAs
        mask = self._warp_slice(entry, entry.next_warp).copy()
        expr = entry.expr
        lane = slice(entry.next_warp * 32, (entry.next_warp + 1) * 32)
        if isinstance(expr, DivergentSet):
            addrs = expr.evaluate_with(exec_.tx, exec_.ty, exec_.tz,
                                       entry.dcrf)[lane]
            self.sm.stats.add("dac.divergent_expansions")
        elif isinstance(expr, ConcreteExpr):
            addrs = expr.values[lane]
            self.sm.stats.add("dac.concrete_expansions")
        else:
            addrs = expr.evaluate(exec_.tx[lane], exec_.ty[lane],
                                  exec_.tz[lane])
        lines = self.sm.coalescer.lines(addrs, mask)
        record = AddressRecord(kind=entry.kind, queue_id=entry.queue_id,
                               lines=lines, addrs=addrs, mask=mask)
        stats = self.sm.stats
        stats.add("dac.records")
        if entry.kind == "data":
            record.fills_remaining = len(lines)
            stats.add("dac.affine_loads")
            stats.add("dac.affine_load_lines", len(lines))
            for line in lines:
                lock = self.sm.config.dac.lock_lines \
                    and self.sm.l1.can_lock(line)
                if lock:
                    record.locked_lines.append(line)
                else:
                    stats.add("dac.lock_denied")
                self.sm.l1.read(
                    line, now,
                    lambda t, r=record, w=warp: self._on_fill(r, w, t),
                    lock=lock)
            record.issue_time = now
        else:
            stats.add("dac.affine_store_records")
        warp.pwaq.push(record)
        # One ALU: one accumulated line address per cycle (Fig. 11 ②③).
        busy = max(1, len(lines))
        self.busy_until = now + busy
        stats.add("dac.aeu_alu_cycles", busy)
        if self.sm.trace_on:
            self.sm.tracer.expand(now, self.sm.index, warp.slot, entry.kind,
                                  entry.queue_id, len(lines))
        self._advance(entry, exec_, key)
        return True

    def _on_fill(self, record: AddressRecord, warp, now: int) -> None:
        record.fills_remaining -= 1
        record.fill_time = max(record.fill_time, now)
        if record.fills_remaining:
            return
        # The destination warp may be cached as blocked on this record: a
        # blocked dequeue reads only ``fills_remaining > 0``, which the last
        # fill is the one to change, so earlier fills need not wake it.
        sched = warp.sched
        if sched is not None:
            sched.wake()
        if self.sm.trace_on:
            self.sm.tracer.record_fill(now, self.sm.index, record.queue_id)


class PredicateExpansionUnit(ExpansionUnit):
    """The PEU: expands predicates with the scalar / endpoint / SIMT tiers."""

    def __init__(self, sm, atq: ATQ):
        super().__init__(sm, atq, "peu")

    def _process(self, entry: TupleEntry, exec_: AffineCTAExec,
                 key: int, now: int) -> bool:
        pred = entry.expr
        stats = self.sm.stats
        if isinstance(pred, AffinePredicate) and pred.is_scalar:
            # One comparison covers the whole block (64% case, §4.3) —
            # push every warp's record this cycle.
            value = pred.scalar_value
            for w, warp in enumerate(exec_.cta_warps):
                mask = self._warp_slice(entry, w)
                if not mask.any():
                    continue
                if warp.pwpq.full():
                    return False
            # One shared uniform bit vector serves every warp's record:
            # consumers only read it, so aliasing is unobservable.
            bits = np.full(32, value)
            for w, warp in enumerate(exec_.cta_warps):
                mask = self._warp_slice(entry, w)
                if not mask.any():
                    continue
                warp.pwpq.push(PredRecord(entry.queue_id, bits, mask.copy()))
                stats.add("dac.pred_records")
                stats.add("dac.peu_scalar")
            self.atq.pop(key)
            self.busy_until = now + 1
            stats.add("dac.peu_alu_cycles")
            return True

        # Non-scalar: one warp per ALU slot.
        while entry.next_warp < len(exec_.cta_warps):
            if self._warp_slice(entry, entry.next_warp).any():
                break
            entry.next_warp += 1
        if entry.next_warp >= len(exec_.cta_warps):
            self.atq.pop(key)
            return True
        warp = exec_.cta_warps[entry.next_warp]
        if warp.pwpq.full():
            return False
        w = entry.next_warp
        mask = self._warp_slice(entry, w).copy()
        if entry.bits is None:
            entry.bits = exec_.pred_bits(pred)
        bits = entry.bits[w * 32:(w + 1) * 32].copy()
        cost = 2
        if isinstance(pred, AffinePredicate):
            lane = slice(w * 32, (w + 1) * 32)
            first = (exec_.tx[lane][0], exec_.ty[lane][0], exec_.tz[lane][0])
            last = (exec_.tx[lane][-1], exec_.ty[lane][-1],
                    exec_.tz[lane][-1])
            uniform = pred.endpoint_uniform(first, last)
            if uniform is not None:
                cost = 1                       # 2 comparisons, 93% case
                self.sm.stats.add("dac.peu_endpoint")
            else:
                self.sm.stats.add("dac.peu_simt")
        else:
            self.sm.stats.add("dac.peu_simt")
        warp.pwpq.push(PredRecord(entry.queue_id, bits, mask))
        self.sm.stats.add("dac.pred_records")
        self.busy_until = now + cost
        self.sm.stats.add("dac.peu_alu_cycles", cost)
        self._advance(entry, exec_, key)
        return True
