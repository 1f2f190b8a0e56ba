"""Structured cycle-level event tracer.

The tracer is a passive observer: simulation components emit events into it
(guarded by ``tracer.enabled`` so the untraced path skips event
construction), and the GPU main loop asks it to sample queue occupancy
after each executed cycle.

Issue-slot attribution is not the tracer's job: every run carries it in
``result.extra["stalls"]``, accrued by the schedulers on the one scheduler
path.  The tracer refines it.  Each time a scheduler closes an attribution
interval it calls :meth:`Tracer.slot_interval`, which adds the interval to
the per-warp buckets (``warp_stalls``) and to the scheduler's Chrome slot
timeline.  Two invariants make the data trustworthy:

* every (SM, scheduler, cycle) slot is attributed to exactly one bucket, so
  both ``extra["stalls"]`` and ``warp_stalls`` sum to
  ``cycles x num_sms x num_schedulers``;
* the tracer never mutates simulator state, so a traced run is cycle-exact
  with an untraced one, Stats and ``extra["stalls"]`` included.
"""

from __future__ import annotations

from collections import Counter

#: Every attribution bucket a scheduler slot can land in.  ``issued`` is the
#: cycle an instruction left the scheduler; ``busy`` is the tail of a
#: multi-cycle issue window; ``idle`` means no live warp to walk; the rest
#: are the reasons ``try_issue`` rejected the head-of-line warp.
STALL_REASONS = (
    "issued", "busy", "scoreboard", "memory", "barrier",
    "queue_empty", "queue_full", "idle",
)

#: Synthetic warp-slot id used for the DAC affine warp in issue events.
AFFINE_SLOT = -1


class NullTracer:
    """Do-nothing tracer installed by default.

    ``enabled`` is False so hot paths skip event construction entirely; the
    methods still exist so cold paths may call them unguarded.
    """

    enabled = False
    __slots__ = ()

    def warp_issue(self, now, sm, slot, inst, active, interval):
        pass

    def load_issue(self, now, sm, slot, lines):
        pass

    def load_fill(self, now, sm, slot):
        pass

    def enqueue(self, now, sm, kind, queue_id):
        pass

    def dequeue(self, now, sm, slot, kind, queue_id):
        pass

    def expand(self, now, sm, slot, kind, queue_id, lines):
        pass

    def record_fill(self, now, sm, queue_id):
        pass

    def mem_access(self, now, level, line, hit):
        pass

    def mem_fill(self, now, level, line):
        pass

    def barrier_release(self, now, sm, block_idx):
        pass

    def cta_assign(self, now, sm, block_idx):
        pass

    def cta_retire(self, now, sm, block_idx):
        pass

    def slot_interval(self, sm, sched, slot, reason, start, end):
        pass

    def sample(self, now, sms):
        pass

    def finalize(self, cycles, config):
        pass


NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Recording tracer.

    Events are stored as flat tuples ``(kind, ts, sm, tid, name, args)`` —
    cheap to append, interpreted by the exporters.  ``samples`` holds the
    queue-occupancy time series; ``warp_stalls`` holds the per-warp-slot
    attribution buckets.
    """

    enabled = True
    __slots__ = ("events", "samples", "warp_stalls",
                 "sample_interval", "trace_memory", "_next_sample",
                 "_segments", "cycles", "issue_slots")

    def __init__(self, sample_interval: int = 64,
                 trace_memory: bool = True):
        self.events: list[tuple] = []
        self.samples: list[tuple] = []       # (cycle, sm, atq, pwaq, pwpq,
        #                                       runahead)
        self.warp_stalls: Counter = Counter()    # (sm, slot, reason) -> cyc
        self.sample_interval = max(1, int(sample_interval))
        self.trace_memory = trace_memory
        self._next_sample = 0
        # (sm, sched) -> [reason, start]; run-length encodes the per-
        # scheduler attribution timeline for the Chrome export.
        self._segments: dict[tuple[int, int], list] = {}
        self.cycles = 0
        self.issue_slots = 0                 # schedulers per cycle, chipwide

    # ---- event hooks (called from the simulator) ----------------------

    def warp_issue(self, now, sm, slot, inst, active, interval):
        self.events.append(("issue", now, sm, slot, inst.opcode.value,
                            {"active": int(active), "dur": int(interval)}))

    def load_issue(self, now, sm, slot, lines):
        self.events.append(("load", now, sm, slot, "ld.issue",
                            {"lines": int(lines)}))

    def load_fill(self, now, sm, slot):
        self.events.append(("load", now, sm, slot, "ld.fill", None))

    def enqueue(self, now, sm, kind, queue_id):
        self.events.append(("enq", now, sm, AFFINE_SLOT, f"enq.{kind}",
                            {"queue": queue_id}))

    def dequeue(self, now, sm, slot, kind, queue_id):
        self.events.append(("deq", now, sm, slot, f"deq.{kind}",
                            {"queue": queue_id}))

    def expand(self, now, sm, slot, kind, queue_id, lines):
        self.events.append(("expand", now, sm, slot, f"expand.{kind}",
                            {"queue": queue_id, "lines": int(lines)}))

    def record_fill(self, now, sm, queue_id):
        self.events.append(("fill", now, sm, AFFINE_SLOT, "record.fill",
                            {"queue": queue_id}))

    def mem_access(self, now, level, line, hit):
        if self.trace_memory:
            self.events.append(("mem", now, level, 0,
                                "hit" if hit else "miss", {"line": line}))

    def mem_fill(self, now, level, line):
        if self.trace_memory:
            self.events.append(("mem", now, level, 0, "fill",
                                {"line": line}))

    def barrier_release(self, now, sm, block_idx):
        self.events.append(("barrier", now, sm, 0, "barrier.release",
                            {"block": tuple(block_idx)}))

    def cta_assign(self, now, sm, block_idx):
        self.events.append(("cta", now, sm, 0, "cta.assign",
                            {"block": tuple(block_idx)}))

    def cta_retire(self, now, sm, block_idx):
        self.events.append(("cta", now, sm, 0, "cta.retire",
                            {"block": tuple(block_idx)}))

    # ---- attribution and sampling (called from the scheduler / main loop)

    def slot_interval(self, sm, sched, slot, reason, start, end):
        """Scheduler ``sched`` of SM ``sm`` spent cycles ``[start, end)`` on
        ``reason``, charged to warp ``slot``: add them to the per-warp
        buckets and extend (or cut) the scheduler's timeline segment."""
        self.warp_stalls[(sm, slot, reason)] += end - start
        key = (sm, sched)
        seg = self._segments.get(key)
        if seg is None:
            self._segments[key] = [reason, start]
        elif seg[0] != reason:
            self.events.append(("slot", seg[1], sm, sched, seg[0],
                                {"dur": start - seg[1]}))
            seg[0] = reason
            seg[1] = start

    def sample(self, now, sms):
        """Sample queue occupancy once every ``sample_interval`` cycles."""
        if now >= self._next_sample:
            self._sample(now, sms)
            self._next_sample = now + self.sample_interval

    def _sample(self, now, sms):
        """Queue-occupancy / runahead snapshot.  Duck-typed so the same
        sampler covers every SM flavour: non-DAC SMs report zeros."""
        for sm in sms:
            atq_mem = getattr(sm, "atq_mem", None)
            if atq_mem is not None:
                atq = len(atq_mem) + len(sm.atq_pred)
            else:
                atq = 0
            pwaq = pwpq = 0
            for warp in sm.warps:
                q = getattr(warp, "pwaq", None)
                if q is not None:
                    pwaq += len(q)
                    pwpq += len(warp.pwpq)
            # Runahead distance: decoupled work produced by the affine side
            # but not yet consumed by a dequeue, in records.
            self.samples.append((now, sm.index, atq, pwaq, pwpq,
                                 atq + pwaq + pwpq))

    # ---- end of run -----------------------------------------------------

    def finalize(self, cycles, config):
        """Flush the open timeline segments (the schedulers closed their
        last intervals at ``cycles``)."""
        for (sm, sched), (reason, start) in sorted(self._segments.items()):
            self.events.append(("slot", start, sm, sched, reason,
                                {"dur": cycles - start}))
        self._segments.clear()
        self.cycles = cycles
        self.issue_slots = config.num_sms * config.num_schedulers
