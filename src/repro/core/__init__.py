"""Decoupled Affine Computation: the paper's primary contribution.

``run_dac`` is the one-call entry point: it compiles the kernel into affine
and non-affine streams and simulates it on a DAC-enabled GPU.
"""

from __future__ import annotations

from ..compiler.decouple import DecoupledProgram, decouple
from ..compiler.verifier import verify
from ..config import GPUConfig
from ..faults import CheckerError
from ..sim.gpu import GPU, RunResult, SimulationHang
from ..sim.launch import KernelLaunch
from .affine_warp import AffineCTAExec, AffineWarpHandle, ConcretePredicate, \
    DecoupleRuntimeError
from .dac_sm import DACSM
from .expansion import AddressExpansionUnit, PredicateExpansionUnit
from .queues import ATQ, AddressRecord, BarrierMarker, PerWarpQueue, \
    PredRecord, TupleEntry


def run_dac(launch: KernelLaunch, config: GPUConfig,
            program: DecoupledProgram | None = None,
            tracer=None, faults=None, checkers=None,
            safe_mode: bool = False) -> RunResult:
    """Decouple the launch's kernel and simulate it under DAC.

    When the kernel has no eligible affine instructions the non-affine
    stream equals the original kernel and DAC behaves as the baseline —
    exactly the paper's low-coverage benchmarks (BFS, BT).

    ``safe_mode=True`` adds graceful degradation: if a runtime checker
    fires, the affine machinery wedges the queues (:class:`SimulationHang`),
    or the affine warp trips a :class:`DecoupleRuntimeError`, the partially
    mutated memory image is rolled back and the launch replays
    non-decoupled on the baseline SM.  The replay's stats carry a
    ``dac.fallbacks`` count and the result records the triggering fault in
    ``extra["fallback_reason"]``.

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
              tracer=tracer, faults=faults, checkers=checkers)
    decoupled_launch = KernelLaunch(
        kernel=program.nonaffine,
        grid_dim=launch.grid_dim,
        block_dim=launch.block_dim,
        params=launch.params,
        memory=launch.memory,
        shared_words=launch.shared_words,
    )
    snapshot = launch.memory.words.copy() if safe_mode else None
    try:
        result = gpu.run(decoupled_launch)
    except (CheckerError, SimulationHang, DecoupleRuntimeError) as exc:
        if not safe_mode:
            raise
        # Drain DAC state by abandoning the wedged GPU instance, restore
        # the pristine memory image, and replay non-decoupled.
        launch.memory.words[:] = snapshot
        from ..sim.gpu import simulate
        result = simulate(launch, config.with_technique("baseline"))
        result.stats.add("dac.fallbacks")
        result.extra["fallback_reason"] = f"{type(exc).__name__}: {exc}"
    return result


__all__ = [
    "ATQ", "AddressExpansionUnit", "AddressRecord", "AffineCTAExec",
    "AffineWarpHandle", "BarrierMarker", "ConcretePredicate", "DACSM",
    "DecoupleRuntimeError", "DecoupledProgram", "PerWarpQueue",
    "PredRecord", "PredicateExpansionUnit", "TupleEntry", "decouple",
    "run_dac",
]
