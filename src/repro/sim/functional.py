"""Pure functional kernel interpreter (no timing).

Executes a :class:`KernelLaunch` to completion, warp by warp, using the
same operand/ALU semantics and SIMT-stack reconvergence as the timing
model but without any notion of cycles.  Uses:

* a fast way to run a kernel when only its output matters;
* the oracle the test suite checks every timing model against;
* a debugging aid (`trace=` captures every executed instruction).

Barriers are honoured by interleaving the CTA's warps at barrier
granularity; warp-level races within a barrier interval execute in warp
order (the same order the timing model's functional layer uses).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..compiler.cfg import CFG
from ..isa import Instruction, Kernel
from .launch import CTAState, KernelLaunch
from .warp import WarpContext


@dataclass
class TraceEntry:
    """One executed warp instruction (produced with ``trace=True``)."""

    block: tuple[int, int, int]
    warp: int
    pc: int
    instruction: Instruction
    active: int

    def __str__(self) -> str:
        return (f"cta{self.block} w{self.warp} pc={self.pc:3d} "
                f"[{self.active:2d} lanes] {self.instruction}")


@dataclass
class FunctionalResult:
    instructions: int = 0
    per_warp: dict = field(default_factory=dict)
    trace: list[TraceEntry] = field(default_factory=list)


class FunctionalInterpreter:
    """Executes kernels functionally; see module docstring."""

    def __init__(self, launch: KernelLaunch, trace: bool = False,
                 max_instructions: int = 50_000_000):
        self.launch = launch
        self.cfg = CFG(launch.kernel)
        self.trace = trace
        self.max_instructions = max_instructions
        self.result = FunctionalResult()

    def run(self) -> FunctionalResult:
        for block_idx in self.launch.block_indices():
            self._run_cta(block_idx)
        return self.result

    # ---- one CTA ------------------------------------------------------

    def _run_cta(self, block_idx: tuple[int, int, int]) -> None:
        cta = CTAState(block_idx, self.launch)
        warps = [WarpContext(self.launch, cta, w, w)
                 for w in range(self.launch.warps_per_block)]
        # Run warps round-robin in barrier-delimited phases: each warp runs
        # until it hits a barrier or exits; when all have, release and
        # repeat.
        while not all(w.done for w in warps):
            progressed = False
            for warp in warps:
                if warp.done or warp.at_barrier:
                    continue
                self._run_warp_until_barrier(warp, block_idx)
                progressed = True
            if not progressed:
                raise RuntimeError("functional interpreter wedged "
                                   "(barrier without release?)")
            if all(w.done or w.at_barrier for w in warps):
                for warp in warps:
                    if warp.at_barrier:
                        warp.at_barrier = False
                        warp.stack.pc = warp.pc + 1

    def _run_warp_until_barrier(self, warp: WarpContext,
                                block_idx) -> None:
        executor = warp.executor
        while not warp.done:
            decoded = warp.code[warp.pc]
            inst = decoded.inst
            mask, active = warp.issue_mask(decoded)
            self._count(warp, inst, active, block_idx)
            if decoded.is_exit:
                warp.done = True
                return
            if decoded.is_barrier:
                warp.at_barrier = True
                return
            if decoded.is_branch:
                self._branch(warp, inst, mask)
                continue
            if decoded.is_memory:
                addrs = executor.addresses(decoded.mem_ref)
                if decoded.is_load:
                    executor.execute_load(inst, mask, addrs)
                else:
                    executor.execute_store(inst, mask, addrs)
            elif inst.written_regs():
                executor.execute_alu(inst, mask)
            warp.stack.pc = warp.pc + 1

    def _branch(self, warp: WarpContext, inst: Instruction, mask) -> None:
        target = self.launch.kernel.target_index(inst.target)
        if inst.guard is None:
            warp.stack.pc = target
            return
        taken, ntaken, taken_any, ntaken_any = warp.branch_split(mask)
        if not ntaken_any:
            warp.stack.pc = target
        elif not taken_any:
            warp.stack.pc = warp.pc + 1
        else:
            rpc = self.cfg.reconvergence_pc(warp.pc)
            warp.stack.diverge(taken, ntaken, target, warp.pc + 1, rpc)

    def _count(self, warp, inst, active: int, block_idx) -> None:
        res = self.result
        res.instructions += 1
        if res.instructions > self.max_instructions:
            raise RuntimeError("functional interpreter exceeded "
                               f"{self.max_instructions} instructions")
        key = (block_idx, warp.warp_in_cta)
        res.per_warp[key] = res.per_warp.get(key, 0) + 1
        if self.trace:
            res.trace.append(TraceEntry(block_idx, warp.warp_in_cta,
                                        warp.pc, inst, active))


def run_functional(launch: KernelLaunch,
                   trace: bool = False) -> FunctionalResult:
    """Execute a launch functionally (no timing); mutates ``launch.memory``."""
    return FunctionalInterpreter(launch, trace=trace).run()
