"""The DAC-enabled SM: affine warp + expansion units + dequeue gating.

Extends the baseline SM (paper Fig. 9): an affine warp context shares the
ordinary issue slots (DAC has no dedicated affine functional unit, §4.4);
the AEU/PEU run in parallel with warp execution; the scoreboard stage gates
``deq`` instructions on their per-warp queues and on prefetched data being
present in the L1.
"""

from __future__ import annotations

import numpy as np

from ..isa import Instruction, Opcode
from ..sim.launch import CTAState
from ..sim.sm import SM
from ..sim.warp import WarpContext
from .affine_warp import AffineCTAExec, AffineWarpHandle
from .expansion import AddressExpansionUnit, PredicateExpansionUnit
from .queues import ATQ, PerWarpQueue


class DACSM(SM):
    """SM with Decoupled Affine Computation hardware."""

    def __init__(self, gpu, index: int):
        super().__init__(gpu, index)
        dac = self.config.dac
        self.atq_mem = ATQ(dac.atq_entries // 2)
        self.atq_pred = ATQ(dac.atq_entries - dac.atq_entries // 2)
        # Freed ATQ space is what unblocks the affine warp's enqueues; it
        # lives on scheduler 0 (wake it when either queue drains).
        self.atq_mem.on_space = self._wake_affine
        self.atq_pred.on_space = self._wake_affine
        self.aeu = AddressExpansionUnit(self, self.atq_mem)
        self.peu = PredicateExpansionUnit(self, self.atq_pred)
        # A pushed ATQ entry gives the matching expansion unit new work.
        self.atq_mem.on_push = self.aeu.wake
        self.atq_pred.on_push = self.peu.wake
        self.affine_handle = AffineWarpHandle()
        self.schedulers[0].add_warp(self.affine_handle)
        self.affine_execs: dict[int, AffineCTAExec] = {}
        self._pwaq_capacity = max(1, dac.pwaq_entries
                                  // self.config.warps_per_sm)
        self._pwpq_capacity = max(1, dac.pwpq_entries
                                  // self.config.warps_per_sm)

    @property
    def program(self):
        return getattr(self.gpu, "dac_program", None)

    # ---- CTA lifecycle ------------------------------------------------

    def on_cta_assigned(self, cta: CTAState) -> None:
        for warp in self.warps:
            if warp.cta is cta:
                # A record arriving on a per-warp queue is a wake condition
                # for the owning scheduler (the warp may be blocked on an
                # empty queue); ``warp.sched`` was set by add_warp.
                # ... and a popped record frees the space a full-queue-
                # blocked expansion scan waits on.
                warp.pwaq = PerWarpQueue(self._pwaq_capacity,
                                         on_push=warp.sched.wake,
                                         on_pop=self.aeu.wake)
                warp.pwpq = PerWarpQueue(self._pwpq_capacity,
                                         on_push=warp.sched.wake,
                                         on_pop=self.peu.wake)
        program = self.program
        if program is None or not program.is_decoupled:
            return
        key = id(cta)
        self.atq_mem.register_cta(key)
        self.atq_pred.register_cta(key)
        exec_ = AffineCTAExec(self, cta, program.affine,
                              self.gpu.cfg_of(program.affine))
        self.affine_execs[key] = exec_
        self.affine_handle.add(exec_)
        # A fresh affine stream: the affine warp and the expansion units
        # have new work even if they were cached as blocked.
        self.wake_all()

    def on_cta_retired(self, cta: CTAState) -> None:
        key = id(cta)
        exec_ = self.affine_execs.pop(key, None)
        if exec_ is None:
            return
        self.affine_handle.remove(exec_)
        self.atq_mem.drop_cta(key)
        self.atq_pred.drop_cta(key)
        if not exec_.done:
            self.stats.add("dac.affine_unfinished")
        leftover = 0
        for warp in exec_.cta_warps:
            for record in warp.pwaq.drain():
                leftover += 1
                for line in record.locked_lines:
                    self.l1.unlock(line)
            leftover += len(warp.pwpq.drain())
        if leftover:
            self.stats.add("dac.leftover_records", leftover)
        # Unlocked lines free L1 lock-table space an AEU scan can be
        # blocked on (and the drained queues freed record space).
        self.aeu.wake()
        self.peu.wake()
        # The affine handle's readiness changed (one stream is gone).
        self.schedulers[0].wake()

    # ---- wake plumbing ---------------------------------------------------

    def wake_all(self) -> None:
        super().wake_all()
        self.aeu.wake()
        self.peu.wake()

    def _wake_affine(self) -> None:
        self.schedulers[0].wake()

    # ---- cycle -----------------------------------------------------------

    def cycle(self, now: int) -> bool:
        progressed = False
        if self.affine_execs:
            if self.aeu.tick(now):
                progressed = True
            if self.peu.tick(now):
                progressed = True
        issued = super().cycle(now)
        return issued or progressed

    # ---- issue -------------------------------------------------------------

    def try_issue(self, warp, now: int, scheduler) -> int:
        if warp is self.affine_handle:
            return self._try_issue_affine(now, scheduler)
        if isinstance(warp, WarpContext) and not warp.done \
                and not warp.at_barrier:
            decoded = warp.code[warp.pc]
            if decoded.deq_token is not None:
                if not warp.scoreboard_ready(decoded):
                    scheduler.reject = ("memory" if warp.mem_pending
                                        else "scoreboard")
                    return 0
                return self._try_issue_deq(warp, decoded, now, scheduler)
        return super().try_issue(warp, now, scheduler)

    # ---- affine warp issue ----------------------------------------------

    def _try_issue_affine(self, now: int, scheduler) -> int:
        exec_ = self.affine_handle.pick_ready(now)
        if exec_ is None:
            # ``ready`` only refuses a live stream an enqueue without ATQ
            # space; with every stream done the affine warp is idle.
            if any(not e.done for e in self.affine_handle.execs):
                scheduler.reject = "queue_full"
            return 0
        decoded = exec_.code[exec_.stack.pc]
        inst = decoded.inst
        exec_.step(now)
        stats = self.stats
        stats.add("affine_warp_instructions")
        stats.add(decoded.affine_stat_key)
        if exec_.last_step_concrete:
            # §3 fallback: the value was expanded to concrete per-thread
            # vectors — a full-width vector op over every warp of the CTA.
            warps = len(exec_.cta_warps)
            stats.add("dac.concrete_fallbacks")
            stats.add("affine_alu_lanes", 32 * warps)
            stats.add("rf_accesses", 2 * warps)
            interval = self.config.issue_interval * warps
        else:
            if decoded.counts_alu:
                # Tuple computation maps one base + up to 6 offsets onto
                # SIMT lanes (§4.4, Fig. 12).
                stats.add("affine_alu_lanes", 7)
                stats.add("rf_accesses", 2)
            # Affine instructions occupy a scheduler slot for a single
            # cycle: a tuple fits comfortably in one 16-lane issue group.
            interval = 1
        if self.trace_on:
            self.tracer.warp_issue(now, self.index, -1, inst, 0, interval)
        return interval

    # ---- dequeue issue -------------------------------------------------

    def _try_issue_deq(self, warp: WarpContext, decoded, now: int,
                       scheduler) -> int:
        inst = decoded.inst
        kind = decoded.deq_kind
        mask, active = warp.issue_mask(decoded)
        if not active:
            # Fully predicated off: nothing was expanded for this warp, so
            # nothing is popped (matches the AEU skipping empty warps).
            self._count_issue(warp, decoded, 0)
            warp.stack.pc = warp.pc + 1
            if self.trace_on:
                self.tracer.warp_issue(now, self.index, warp.slot, inst, 0,
                                       self.config.issue_interval)
            return self.config.issue_interval

        if kind == "pred":
            record = warp.pwpq.head()
            if record is None:
                scheduler.note_stall("dac.stall_pred_record")
                scheduler.reject = "queue_empty"
                return 0
            warp.pwpq.pop()
            self.stats.add("dac.deq_preds")
            if self.trace_on:
                self.tracer.dequeue(now, self.index, warp.slot, "pred",
                                    record.queue_id)
            dst = inst.dsts[0]
            name = decoded.dst_name
            warp.executor.write(dst, record.bits, mask)
            warp.acquire(name)
            self.events.schedule(
                now + self.config.alu_latency,
                lambda t, w=warp, n=name: w.release(n))
            self._count_issue(warp, decoded, active)
            warp.stack.pc = warp.pc + 1
            if self.trace_on:
                self.tracer.warp_issue(now, self.index, warp.slot, inst,
                                       active,
                                       self.config.issue_interval)
            return self.config.issue_interval

        record = warp.pwaq.head()
        if record is None:
            scheduler.note_stall("dac.stall_no_record")
            scheduler.reject = "queue_empty"
            return 0
        if record.kind != kind:
            raise RuntimeError(
                f"PWAQ order mismatch: warp expects {kind}, head is "
                f"{record.kind} (kernel {warp.launch.kernel.name!r})")
        if kind == "data":
            if record.fills_remaining > 0:
                scheduler.note_stall("dac.stall_fill")
                scheduler.reject = "memory"
                return 0                       # data not yet in L1 (Fig. 9 ⑨)
            if now < self.lsu_free:
                scheduler.reject = "memory"
                return 0
            warp.pwaq.pop()
            self.stats.add("dac.lead_cycles", now - record.fill_time)
            self.stats.add("dac.issue_to_deq", now - record.issue_time)
            self._finish_deq_load(warp, inst, record, mask, now)
        else:
            if now < self.lsu_free:
                scheduler.reject = "memory"
                return 0
            warp.pwaq.pop()
            self._finish_deq_store(warp, inst, record, mask, now)
        self._count_issue(warp, decoded, active)
        warp.stack.pc = warp.pc + 1
        if self.trace_on:
            self.tracer.dequeue(now, self.index, warp.slot, record.kind,
                                record.queue_id)
            self.tracer.warp_issue(now, self.index, warp.slot, inst,
                                   active,
                                   self.config.issue_interval)
        return self.config.issue_interval

    def _finish_deq_load(self, warp: WarpContext, inst: Instruction,
                         record, mask: np.ndarray, now: int) -> None:
        values = warp.launch.memory.load(record.addrs, mask)
        dst = inst.dsts[0]
        warp.executor.write(dst, values, mask)
        self.stats.add("dac.deq_loads")
        self.stats.add("dac.deq_load_lines", len(record.lines))
        for line in record.locked_lines:
            self.l1.unlock(line)
        if record.locked_lines:
            # Freed lock-table space can unblock an AEU lock acquisition.
            self.aeu.wake()
        missing = [line for line in record.lines
                   if not (self.l1.contains(line)
                           or self.l1.in_flight(line))]
        warp.acquire(dst.name)
        warp.mem_pending += 1
        if missing:
            # An unlocked line was evicted between fill and use: re-fetch.
            self.stats.add("dac.deq_refetches", len(missing))
            state = {"remaining": len(missing)}

            def on_line(t, state=state, w=warp, name=dst.name):
                state["remaining"] -= 1
                if state["remaining"] == 0:
                    w.release(name)
                    w.mem_pending -= 1

            for line in missing:
                self.l1.read(line, now, on_line)
        else:
            self.events.schedule(
                now + self.config.l1.hit_latency,
                lambda t, w=warp, n=dst.name: (w.release(n),
                                               _dec_mem(w)))
        self.stats.add("l1.deq_reads", len(record.lines))
        self.lsu_free = now + max(1, len(record.lines))

    def _finish_deq_store(self, warp: WarpContext, inst: Instruction,
                          record, mask: np.ndarray, now: int) -> None:
        raw = warp.executor.value(inst.srcs[0])
        values = np.broadcast_to(np.asarray(raw, dtype=np.float64),
                                 (warp.width,))
        if inst.opcode is Opcode.ATOM:
            warp.launch.memory.atomic_add(record.addrs, values, mask)
        else:
            warp.launch.memory.store(record.addrs, values, mask)
        self.stats.add("dac.deq_stores")
        for line in record.lines:
            self.l1.write(line, now)
        self.lsu_free = now + max(1, len(record.lines))


def _dec_mem(warp: WarpContext) -> None:
    warp.mem_pending -= 1
