"""Top-level GPU: SMs + memory hierarchy + CTA dispatch + main loop."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..compiler.cfg import CFG
from ..config import GPUConfig
from ..events import EventQueue
from ..memory.coalescer import CoalesceCache
from ..memory.hierarchy import MemoryHierarchy
from ..stats import Stats
from ..trace.tracer import NULL_TRACER, STALL_REASONS
from .launch import KernelLaunch
from .sm import SM


class DeadlockError(RuntimeError):
    """The machine can make no further progress (a modeling bug or a
    mis-decoupled kernel)."""


class SimulationHang(DeadlockError):
    """A structured hang report: either forward progress stopped entirely
    (``no_progress``) or the run hit the ``max_cycles`` wall.

    Beyond the message, the exception carries machine-readable state so the
    harness and the lint campaign can classify hangs without parsing text:
    the stall reason every scheduler recorded at the moment of death,
    DAC queue occupancies, the cycle of the last issued instruction, and a
    per-warp state table.
    """

    def __init__(self, reason: str, cycle: int, last_progress_cycle: int,
                 stall_snapshot: dict, queue_occupancy: dict,
                 warp_states: list[str]):
        self.reason = reason
        self.cycle = cycle
        self.last_progress_cycle = last_progress_cycle
        self.stall_snapshot = dict(stall_snapshot)
        self.queue_occupancy = dict(queue_occupancy)
        self.warp_states = list(warp_states)
        super().__init__(self._render())

    def to_dict(self) -> dict:
        """Lossless JSON-able form so a hang report can cross the service
        wire.  ``queue_occupancy`` is keyed by SM index (an int), which
        JSON would silently stringify — :meth:`from_dict` restores it."""
        return {
            "reason": self.reason,
            "cycle": self.cycle,
            "last_progress_cycle": self.last_progress_cycle,
            "stall_snapshot": dict(self.stall_snapshot),
            "queue_occupancy": {str(sm): dict(occ) for sm, occ
                                in self.queue_occupancy.items()},
            "warp_states": list(self.warp_states),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationHang":
        occupancy = {}
        for sm, occ in data["queue_occupancy"].items():
            try:
                key = int(sm)
            except ValueError:
                key = sm
            occupancy[key] = dict(occ)
        return cls(data["reason"], data["cycle"],
                   data["last_progress_cycle"], data["stall_snapshot"],
                   occupancy, data["warp_states"])

    def _render(self) -> str:
        head = ("simulation hang" if self.reason == "no_progress"
                else f"exceeded max_cycles")
        lines = [f"{head} at cycle {self.cycle} "
                 f"(last progress at cycle {self.last_progress_cycle})"]
        if self.stall_snapshot:
            stalls = ", ".join(f"{k}={v}" for k, v in
                               sorted(self.stall_snapshot.items()))
            lines.append(f"  scheduler stalls: {stalls}")
        for sm, occ in sorted(self.queue_occupancy.items()):
            body = ", ".join(f"{k}={v}" for k, v in sorted(occ.items()))
            lines.append(f"  sm{sm} queues: {body}")
        lines.extend(self.warp_states)
        return "\n".join(lines)


@dataclass
class RunResult:
    """Outcome of simulating one kernel launch."""

    cycles: int
    stats: Stats
    config: GPUConfig
    kernel_name: str
    extra: dict = field(default_factory=dict)

    @property
    def warp_instructions(self) -> float:
        return self.stats["warp_instructions"]

    @property
    def ipc(self) -> float:
        return self.stats["thread_instructions"] / max(1, self.cycles)


class GPU:
    """A simulated GPU instance.  Create one per kernel launch."""

    def __init__(self, config: GPUConfig, dac_program=None, tracer=None):
        self.config = config
        self.dac_program = dac_program
        self.stats = Stats()
        self.events = EventQueue()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.now = 0
        self.hierarchy = MemoryHierarchy(config, self.events, self.stats,
                                         tracer=self.tracer)
        self.coalescer = CoalesceCache()
        self.sms = [self._make_sm(i) for i in range(config.num_sms)]
        self._pending_blocks: deque[tuple[int, int, int]] = deque()
        self._launch: KernelLaunch | None = None
        self._last_progress = 0

    def _make_sm(self, index: int) -> SM:
        technique = self.config.technique
        if technique == "baseline":
            return SM(self, index)
        if technique == "cae":
            from ..baselines.cae import CAESM
            return CAESM(self, index)
        if technique == "mta":
            from ..baselines.mta import MTASM
            return MTASM(self, index)
        if technique == "dac":
            from ..core.dac_sm import DACSM
            return DACSM(self, index)
        raise ValueError(f"unknown technique: {technique}")

    # ---- shared analyses -------------------------------------------------

    def cfg_of(self, kernel) -> CFG:
        # The CFG rides on the kernel object itself: an ``id()``-keyed map
        # can serve a stale CFG when a collected kernel's id is reused, and
        # kernels (eq-comparing dataclasses) are unhashable, so a
        # WeakKeyDictionary is not an option either.
        cfg = getattr(kernel, "_cfg", None)
        if cfg is None:
            cfg = CFG(kernel)
            kernel._cfg = cfg
        return cfg

    def reconvergence(self, kernel, branch_index: int) -> int:
        return self.cfg_of(kernel).reconvergence_pc(branch_index)

    # ---- CTA dispatch -------------------------------------------------------

    def _fill_sms(self) -> None:
        progress = True
        while self._pending_blocks and progress:
            progress = False
            for sm in self.sms:
                if not self._pending_blocks:
                    break
                if sm.can_accept(self._launch):
                    sm.assign_cta(self._launch,
                                  self._pending_blocks.popleft())
                    progress = True

    def on_cta_complete(self, sm: SM) -> None:
        if self._pending_blocks and sm.can_accept(self._launch):
            sm.assign_cta(self._launch, self._pending_blocks.popleft())

    # ---- main loop ---------------------------------------------------------

    def run(self, launch: KernelLaunch) -> RunResult:
        if launch.warps_per_block > self.config.warps_per_sm:
            raise ValueError("CTA needs more warp slots than an SM has")
        self._launch = launch
        self._pending_blocks = deque(launch.block_indices())
        self._fill_sms()

        now = 0
        idle_streak = 0
        self._last_progress = 0
        tracer = self.tracer
        trace = tracer.enabled
        while True:
            self.now = now
            self.events.run_until(now)
            issued = False
            for sm in self.sms:
                if sm.cycle(now):
                    issued = True
            if not self._pending_blocks and not any(sm.busy()
                                                    for sm in self.sms):
                break
            if now >= self.config.max_cycles:
                raise self._hang("max_cycles", now)
            if trace:
                tracer.sample(now, self.sms)
            if issued:
                self._last_progress = now
                now += 1
                idle_streak = 0
                continue
            # Nothing issued: fast-forward to the next time anything can
            # change — an event, or a scheduler coming off its busy window.
            # The set of executed cycles is part of the timing semantics
            # (blocked DAC dequeues accrue stall counters each executed
            # cycle), so the skip condition must stay machine-wide; the
            # per-scheduler next-wake tracking lives inside Scheduler.tick,
            # which makes the non-skippable cycles O(1) per scheduler.
            candidates = []
            next_event = self.events.next_time()
            if next_event is not None:
                candidates.append(max(next_event, now + 1))
            for sm in self.sms:
                if now < sm.lsu_free:
                    candidates.append(sm.lsu_free)
                for sched in sm.schedulers:
                    if sched.warps and sched.busy_until > now:
                        candidates.append(sched.busy_until)
            if not candidates:
                idle_streak += 1
                if idle_streak > 4:
                    raise self._hang("no_progress", now)
                now += 1
                continue
            idle_streak = 0
            # The skipped cycles are provably quiescent (no event fires, no
            # scheduler frees up): each scheduler's recorded reason holds
            # over them, and its running interval simply grows.
            now = min(candidates)

        # Drain in-flight writes/events so the memory stats are complete
        # (does not extend the reported cycle count).
        while len(self.events):
            self.events.run_until(self.events.next_time())

        self.stats.add("cycles", now)
        stalls = dict.fromkeys(STALL_REASONS, 0)
        for sm in self.sms:
            for scheduler in sm.schedulers:
                scheduler.close(now)
                for reason, cyc in scheduler.stalls.items():
                    stalls[reason] += cyc
        if trace:
            tracer.finalize(now, self.config)
        return RunResult(cycles=now, stats=self.stats, config=self.config,
                         kernel_name=launch.kernel.name,
                         extra={"stalls": {reason: cyc for reason, cyc
                                           in stalls.items() if cyc}})

    def _hang(self, reason: str, now: int) -> SimulationHang:
        """The structured report for either hang path: the reason each
        scheduler with warps recorded at its last tick, DAC queue
        occupancies, and a per-warp state table."""
        stalls: dict[str, int] = {}
        for sm in self.sms:
            for scheduler in sm.schedulers:
                if scheduler.warps:
                    why = scheduler.reason
                    stalls[why] = stalls.get(why, 0) + 1
        occupancy: dict[int, dict[str, int]] = {}
        for sm in self.sms:
            if not hasattr(sm, "atq_mem"):
                continue
            occupancy[sm.index] = {
                "atq_mem": len(sm.atq_mem),
                "atq_pred": len(sm.atq_pred),
                "pwaq": sum(len(w.pwaq) for w in sm.warps
                            if hasattr(w, "pwaq")),
                "pwpq": sum(len(w.pwpq) for w in sm.warps
                            if hasattr(w, "pwpq")),
            }
        return SimulationHang(reason, now, self._last_progress, stalls,
                              occupancy, self._warp_states())

    def _warp_states(self) -> list[str]:
        lines = []
        for sm in self.sms:
            for warp in sm.warps:
                inst = warp.launch.kernel.instructions[warp.pc] \
                    if not warp.done else None
                lines.append(
                    f"  sm{sm.index} warp slot {warp.slot} "
                    f"cta {warp.cta.block_idx} pc {warp.pc} "
                    f"done={warp.done} barrier={warp.at_barrier} "
                    f"pending={ {k: v for k, v in warp.pending.items() if v} } "
                    f"inst={inst}")
        return lines


def simulate(launch: KernelLaunch, config: GPUConfig,
             tracer=None) -> RunResult:
    """Convenience one-call entry point."""
    return GPU(config, tracer=tracer).run(launch)
