"""Decoupled Affine Computation: the paper's primary contribution.

``run_dac`` is the one-call entry point: it compiles the kernel into affine
and non-affine streams and simulates it on a DAC-enabled GPU.
"""

from __future__ import annotations

from ..compiler.decouple import DecoupledProgram, decouple
from ..compiler.verifier import verify
from ..config import GPUConfig
from ..sim.gpu import GPU, RunResult
from ..sim.launch import KernelLaunch
from .affine_warp import AffineCTAExec, AffineWarpHandle, ConcretePredicate, \
    DecoupleRuntimeError
from .dac_sm import DACSM
from .expansion import AddressExpansionUnit, PredicateExpansionUnit
from .queues import ATQ, AddressRecord, BarrierMarker, PerWarpQueue, \
    PredRecord, TupleEntry


def run_dac(launch: KernelLaunch, config: GPUConfig,
            program: DecoupledProgram | None = None,
            tracer=None) -> RunResult:
    """Decouple the launch's kernel and simulate it under DAC.

    When the kernel has no eligible affine instructions the non-affine
    stream equals the original kernel and DAC behaves as the baseline —
    exactly the paper's low-coverage benchmarks (BFS, BT).

    A freshly decoupled program is verified structurally only (pairing,
    ordering, guards, purity, barriers).  Semantic certification depends
    only on the kernel, so it runs once, at compile time, in
    ``repro certify``, ``repro lint`` and ``repro decouple`` — not on
    every launch.
    """
    if program is None:
        program = decouple(launch.kernel)
        report = verify(program, semantic=False)
        if not report.ok:
            raise RuntimeError(f"decoupler produced inconsistent streams "
                               f"for {launch.kernel.name!r}:\n{report}")
    gpu = GPU(config.with_technique("dac"), dac_program=program,
              tracer=tracer)
    decoupled_launch = KernelLaunch(
        kernel=program.nonaffine,
        grid_dim=launch.grid_dim,
        block_dim=launch.block_dim,
        params=launch.params,
        memory=launch.memory,
        shared_words=launch.shared_words,
    )
    return gpu.run(decoupled_launch)


__all__ = [
    "ATQ", "AddressExpansionUnit", "AddressRecord", "AffineCTAExec",
    "AffineWarpHandle", "BarrierMarker", "ConcretePredicate", "DACSM",
    "DecoupleRuntimeError", "DecoupledProgram", "PerWarpQueue",
    "PredRecord", "PredicateExpansionUnit", "TupleEntry", "decouple",
    "run_dac",
]
