"""Streaming Multiprocessor timing model.

Per cycle each of the SM's schedulers issues at most one warp instruction
from a ready warp (scoreboard + structural checks).  Values are computed at
issue; the scoreboard and the memory hierarchy decide when dependents may
issue.  Subclasses hook the issue path to add CAE, MTA, or DAC behaviour.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..isa import Decoded, Instruction
from .launch import CTAState, KernelLaunch
from .scheduler import Scheduler
from .warp import WarpContext


class SM:
    """One streaming multiprocessor."""

    def __init__(self, gpu, index: int):
        self.gpu = gpu
        self.index = index
        self.config = gpu.config
        self.stats = gpu.stats
        self.events = gpu.events
        self.tracer = gpu.tracer
        self.trace_on = gpu.tracer.enabled
        self.l1 = gpu.hierarchy.l1_of(index)
        self.coalescer = gpu.coalescer
        self.ctas: list[CTAState] = []
        self.warps: list[WarpContext] = []
        # Min-heap of free hardware warp slots (list(range(n)) is already
        # heap-ordered); assignment always takes the lowest slot.
        self._free_slots = list(range(self.config.warps_per_sm))
        self.schedulers = [
            Scheduler(self, i, self.config.scheduler,
                      self.config.issue_interval)
            for i in range(self.config.num_schedulers)
        ]
        self.lsu_free = 0

    # ---- CTA management -------------------------------------------------

    def can_accept(self, launch: KernelLaunch) -> bool:
        return (len(self.ctas) < self.config.max_ctas_per_sm
                and len(self._free_slots) >= launch.warps_per_block)

    def assign_cta(self, launch: KernelLaunch,
                   block_idx: tuple[int, int, int]) -> CTAState:
        cta = CTAState(block_idx, launch)
        self.ctas.append(cta)
        for w in range(launch.warps_per_block):
            slot = heapq.heappop(self._free_slots)
            warp = WarpContext(launch, cta, w, slot)
            self.warps.append(warp)
            self.schedulers[slot % len(self.schedulers)].add_warp(warp)
        self.on_cta_assigned(cta)
        if self.trace_on:
            self.tracer.cta_assign(self.gpu.now, self.index, cta.block_idx)
        return cta

    def on_cta_assigned(self, cta: CTAState) -> None:
        """Hook for DAC: start the affine-stream execution for this CTA."""

    def _retire_cta(self, cta: CTAState) -> None:
        # Backward swap-pop filter: O(retired) instead of O(N) shifting per
        # removed warp.  Indices above the cursor are already-kept warps, so
        # the element swapped down is never one we still have to visit.
        warps = self.warps
        num_scheds = len(self.schedulers)
        for i in range(len(warps) - 1, -1, -1):
            warp = warps[i]
            if warp.cta is not cta:
                continue
            last = warps.pop()
            if last is not warp:
                warps[i] = last
            self.schedulers[warp.slot % num_scheds].remove_warp(warp)
            heapq.heappush(self._free_slots, warp.slot)
        ctas = self.ctas
        i = ctas.index(cta)
        last = ctas.pop()
        if last is not cta:
            ctas[i] = last
        self.on_cta_retired(cta)
        if self.trace_on:
            self.tracer.cta_retire(self.gpu.now, self.index, cta.block_idx)
        self.gpu.on_cta_complete(self)

    def on_cta_retired(self, cta: CTAState) -> None:
        """Hook for DAC teardown (unlock leftover lines, clear queues)."""

    # ---- main loop --------------------------------------------------------

    def cycle(self, now: int) -> bool:
        issued = False
        for scheduler in self.schedulers:
            if scheduler.tick(now):
                issued = True
        return issued

    def busy(self) -> bool:
        return bool(self.warps)

    def wake_all(self) -> None:
        """Clear every scheduler's blocked-walk cache.  Called at the SM-wide
        state changes that can unblock warps on *any* scheduler: a barrier
        release and a CTA assignment.  Narrower changes wake their own
        scheduler (scoreboard releases, DAC queue pushes); ``lsu_free`` is
        time-bounded by each sleeper's own wake time."""
        for scheduler in self.schedulers:
            scheduler.wake()

    # ---- issue ------------------------------------------------------------

    def try_issue(self, warp: WarpContext, now: int,
                  scheduler: Scheduler) -> int:
        """Issue the warp's next instruction if it is ready.  Returns the
        number of cycles the scheduler is busy (0 = nothing issued); a
        rejected live warp records why in ``scheduler.reject``."""
        if warp.done:
            return 0
        if warp.at_barrier:
            scheduler.reject = "barrier"
            return 0
        decoded = warp.code[warp.pc]
        if not warp.scoreboard_ready(decoded):
            scheduler.reject = "memory" if warp.mem_pending else "scoreboard"
            return 0
        if decoded.needs_lsu and now < self.lsu_free:
            scheduler.reject = "memory"
            return 0
        return self.issue(warp, decoded, now)

    def issue(self, warp: WarpContext, decoded: Decoded, now: int) -> int:
        inst = decoded.inst
        mask, active = warp.issue_mask(decoded)
        self._count_issue(warp, decoded, active)
        warp.last_issue = now

        if decoded.is_exit:
            self._do_exit(warp)
        elif decoded.is_barrier:
            self._do_barrier(warp)
        elif decoded.is_branch:
            self._do_branch(warp, inst, mask)
        elif decoded.is_memory:
            self._do_memory(warp, decoded, mask, now)
            warp.stack.pc = warp.pc + 1
        else:
            self._do_alu(warp, decoded, mask, now)
            warp.stack.pc = warp.pc + 1
        interval = self.issue_interval_for(warp, inst, now)
        if self.trace_on:
            self.tracer.warp_issue(now, self.index, warp.slot, inst,
                                   active, interval)
        return interval

    def issue_interval_for(self, warp: WarpContext, inst: Instruction,
                           now: int) -> int:
        """Hook: CAE issues affine instructions off the SIMT lanes in a
        single cycle."""
        return self.config.issue_interval

    def _count_issue(self, warp: WarpContext, decoded: Decoded,
                     active: int) -> None:
        stats = self.stats
        stats.add("warp_instructions")
        stats.add("thread_instructions", active)
        stats.add(decoded.stat_key)
        stats.add("rf_accesses", decoded.nregs * active)
        if decoded.counts_alu:
            stats.add("sfu_ops" if decoded.is_sfu else "alu_ops", active)

    # ---- per-class execution ---------------------------------------------

    def _do_exit(self, warp: WarpContext) -> None:
        warp.done = True
        cta = warp.cta
        cta.warps_done += 1
        if cta.warps_done == warp.launch.warps_per_block:
            self._retire_cta(cta)

    def _do_barrier(self, warp: WarpContext) -> None:
        cta = warp.cta
        warp.at_barrier = True
        cta.barrier_count += 1
        waiting = sum(1 for w in self.warps
                      if w.cta is cta and not w.done)
        if cta.barrier_count >= waiting:
            cta.barrier_count = 0
            cta.barrier_generation = getattr(cta, "barrier_generation", 0) + 1
            for w in self.warps:
                if w.cta is cta and w.at_barrier:
                    w.at_barrier = False
                    w.stack.pc = w.pc + 1
            # Released warps live on both schedulers (and the expansion
            # units may resume past a barrier marker): wake every sleeper.
            self.wake_all()
            self.on_barrier_release(cta)
            if self.trace_on:
                self.tracer.barrier_release(self.gpu.now, self.index,
                                            cta.block_idx)

    def on_barrier_release(self, cta: CTAState) -> None:
        """Hook: the AEU resumes expansion for this CTA (paper §4.2)."""

    def _do_branch(self, warp: WarpContext, inst: Instruction,
                   mask: np.ndarray) -> None:
        target = warp.launch.kernel.target_index(inst.target)
        if inst.guard is None:
            warp.stack.pc = target
            return
        taken, ntaken, taken_any, ntaken_any = warp.branch_split(mask)
        if not ntaken_any:
            warp.stack.pc = target
        elif not taken_any:
            warp.stack.pc = warp.pc + 1
        else:
            self.stats.add("divergent_branches")
            rpc = self.gpu.reconvergence(warp.launch.kernel, warp.pc)
            warp.stack.diverge(taken, ntaken, target, warp.pc + 1, rpc)

    def _do_alu(self, warp: WarpContext, decoded: Decoded,
                mask: np.ndarray, now: int) -> None:
        inst = decoded.inst
        warp.executor.execute_alu(inst, mask)
        latency = (self.config.sfu_latency if decoded.is_sfu
                   else self.config.alu_latency)
        name = decoded.dst_name
        warp.acquire(name)
        self.events.schedule(now + latency,
                             lambda t, w=warp, n=name: w.release(n))
        self.on_alu_executed(warp, inst, mask)

    def on_alu_executed(self, warp: WarpContext, inst: Instruction,
                        mask: np.ndarray) -> None:
        """Hook: CAE affine-tag maintenance."""

    def _do_memory(self, warp: WarpContext, decoded: Decoded,
                   mask: np.ndarray, now: int) -> None:
        inst = decoded.inst
        ex = warp.executor
        addrs = ex.addresses(decoded.mem_ref)
        if decoded.is_shared:
            self._do_shared(warp, decoded, mask, addrs, now)
            return
        if decoded.is_load:
            ex.execute_load(inst, mask, addrs)
            lines = self.coalescer.lines(addrs, mask)
            self.stats.add("gmem_loads")
            self.stats.add("gmem_load_lines", len(lines))
            if not lines:
                return
            self.lsu_free = now + len(lines)
            warp.acquire(decoded.dst_name)
            warp.mem_pending += 1
            state = {"remaining": len(lines)}
            if self.trace_on:
                self.tracer.load_issue(now, self.index, warp.slot,
                                       len(lines))

            def on_line(t, state=state, w=warp, name=decoded.dst_name):
                state["remaining"] -= 1
                if state["remaining"] == 0:
                    w.release(name)
                    w.mem_pending -= 1
                    if self.trace_on:
                        self.tracer.load_fill(t, self.index, w.slot)

            for line in lines:
                self.issue_line_read(warp, inst, line, now, on_line)
        else:
            ex.execute_store(inst, mask, addrs)
            lines = self.coalescer.lines(addrs, mask)
            self.stats.add("gmem_stores")
            self.stats.add("gmem_store_lines", len(lines))
            self.lsu_free = now + max(1, len(lines))
            for line in lines:
                self.l1.write(line, now)

    def issue_line_read(self, warp: WarpContext, inst: Instruction,
                        line: int, now: int, callback) -> None:
        """Hook: MTA redirects through the prefetch buffer and trains the
        stride tables here."""
        self.l1.read(line, now, callback)

    def _do_shared(self, warp: WarpContext, decoded: Decoded,
                   mask: np.ndarray, addrs: np.ndarray, now: int) -> None:
        self.stats.add("shared_accesses")
        inst = decoded.inst
        if decoded.is_load:
            warp.executor.execute_load(inst, mask, addrs)
            name = decoded.dst_name
            warp.acquire(name)
            self.events.schedule(
                now + self.config.shared_latency,
                lambda t, w=warp, n=name: w.release(n))
        else:
            warp.executor.execute_store(inst, mask, addrs)
