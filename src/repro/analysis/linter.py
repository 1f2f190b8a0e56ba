"""Lint entry points: kernel, launch, and decoupled-program linting.

The driver composes the six passes:

* always: dead code (RPL001), uninitialized reads (RPL002/003), barrier
  divergence (RPL011/012);
* with a launch (geometry + memory image): races (RPL021/022) and bounds
  (RPL041/042) — without one these passes are recorded in
  ``report.skipped_passes`` rather than silently dropped;
* when the kernel decouples: queue pairing/pressure (RPL031-034) on the
  generated :class:`~repro.compiler.decouple.DecoupledProgram`, plus the
  translation-validation certifier (RPL050-054,
  :mod:`repro.analysis.certify`).  An already-decoupled stream kernel
  (containing enq/deq forms) is not re-decoupled.

The barrier, race and bounds passes and the certifier share the
context's one :class:`~repro.analysis.symexec.SymbolicKernel`.
"""

from __future__ import annotations

from ..config import GPUConfig
from ..isa import DeqToken, Kernel
from ..compiler.decouple import DecoupledProgram, decouple
from ..sim.launch import KernelLaunch
from .diagnostics import LintReport
from .passes import (
    LintContext,
    barrier_pass,
    bounds_pass,
    dead_code_pass,
    queue_pass,
    race_pass,
    uninit_pass,
)


def _is_stream_kernel(kernel: Kernel) -> bool:
    """Does the kernel already contain decoupled forms (enq / deq)?"""
    for inst in kernel.instructions:
        if inst.is_enq or isinstance(inst.guard, DeqToken):
            return True
        if any(isinstance(op, DeqToken) for op in inst.srcs + inst.dsts):
            return True
    return False


def lint_kernel(kernel: Kernel, config: GPUConfig | None = None,
                launch: KernelLaunch | None = None) -> LintReport:
    """Run every applicable pass over one kernel."""
    config = config or GPUConfig()
    ctx = LintContext(kernel, launch=launch, config=config)
    report = LintReport()
    report.extend(dead_code_pass(ctx))
    report.extend(uninit_pass(ctx))
    report.extend(barrier_pass(ctx))
    if launch is not None:
        report.extend(race_pass(ctx))
        report.extend(bounds_pass(ctx))
    else:
        report.skipped_passes.extend(["races", "bounds"])

    if _is_stream_kernel(kernel):
        report.skipped_passes.append("queues")
    else:
        try:
            program = decouple(kernel)
        except Exception as exc:    # defensive: lint must not crash
            report.skipped_passes.append(f"queues ({exc})")
        else:
            report.extend(queue_pass(program, config))
            if program.is_decoupled:
                from .certify import certify_program
                report.merge(certify_program(program, ctx.symbolic))
    return report.finalize()


def lint_launch(launch: KernelLaunch,
                config: GPUConfig | None = None) -> LintReport:
    """Lint a launch: the kernel plus geometry/memory-aware passes."""
    return lint_kernel(launch.kernel, config=config, launch=launch)


def lint_program(program: DecoupledProgram,
                 config: GPUConfig | None = None) -> LintReport:
    """Lint an existing decoupled program (queue passes only)."""
    report = LintReport()
    report.extend(queue_pass(program, config))
    return report.finalize()
