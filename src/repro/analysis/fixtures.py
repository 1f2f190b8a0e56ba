"""Seeded lint fixtures: clean kernels and one defect class per code.

Two roles:

* the *clean corpus* (``clean_bundle``) — randomly shaped but
  clean-by-construction kernels that must produce **zero** diagnostics and
  whose timing simulation must match the functional oracle;
* one *defect builder per diagnostic code* (``DEFECTS``) — each seeds a
  specific defect whose static diagnosis carries a dynamic prediction the
  campaign checks against the simulator:

  ========  ==========  ================================================
  code      prediction  dynamic check
  ========  ==========  ================================================
  RPL001    preserve    functional image identical to the clean parent
  RPL002    corrupt     functional image differs from the clean parent
  RPL011    hang        timing sim hangs; functional oracle terminates
  RPL012    hang        ditto, via engineered per-thread data
  RPL021    mismatch    timing image differs from the functional oracle
  RPL022    mismatch    ditto (stale read wins the race in timing)
  RPL031    hang        DAC starves on the dropped enqueue
  RPL032    misbehave   DAC diverges from the oracle (wrong values,
                        a hang, or a runtime error)
  RPL033    hang        zero-capacity ATQ partition wedges the AEU
  RPL034    throttle    completes *correctly* despite back-pressure
  RPL041    corrupt     negative addresses wrap and clobber high memory
  RPL042    corrupt     stride overrun clobbers the canary allocation
  ========  ==========  ================================================

Every builder returns fresh state on each call (memory images are mutated
by the simulators), deterministically per seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..compiler.decouple import DecoupledProgram, decouple
from ..config import DACConfig, GPUConfig
from ..isa import CmpOp, Kernel, KernelBuilder, Register
from ..sim.launch import GlobalMemory, KernelLaunch

#: One CTA of two warps: enough for intra-CTA barrier divergence and
#: cross-warp races while keeping simulations fast.
N = 64

#: Small machine for fixture runs: hangs are detected by the no-progress
#: watchdog, so the cycle ceiling only caps pathological slow runs.
FIXTURE_CONFIG = GPUConfig(num_sms=1, max_cycles=400_000)


@dataclass
class FixtureBundle:
    """Everything the campaign needs for one case."""

    name: str
    launch: KernelLaunch
    config: GPUConfig = FIXTURE_CONFIG
    clean_launch: KernelLaunch | None = None   # parent with identical data
    program: DecoupledProgram | None = None    # pre-mutated DAC program


def _alloc_launch(kernel: Kernel, seed: int,
                  arrays: tuple[str, ...] = ("A", "B"),
                  outputs: tuple[str, ...] = ("O",),
                  extra_params: dict[str, float] | None = None,
                  grid: tuple[int, int, int] = (1, 1, 1),
                  block: tuple[int, int, int] = (N, 1, 1)) -> KernelLaunch:
    rng = np.random.default_rng(seed)
    mem = GlobalMemory(1 << 16)
    params: dict[str, float] = {}
    for name in arrays:
        params[name] = float(mem.alloc_array(
            rng.integers(1, 100, size=N).astype(np.float64)))
    for name in outputs:
        params[name] = float(mem.alloc(N))
    params.update(extra_params or {})
    params = {k: v for k, v in params.items() if k in kernel.params}
    if "n" in kernel.params:
        params["n"] = float(N)
    return KernelLaunch(kernel=kernel, grid_dim=grid, block_dim=block,
                        params=params, memory=mem)


def _chain(b: KernelBuilder, value, length: int, salt: int = 1000):
    """A long dependent ALU chain — delays whichever warp executes it."""
    v = b.add(value, salt)
    for _ in range(length):
        v = b.add(v, 1)
    return v


# ---------------------------------------------------------------------------
# Clean corpus
# ---------------------------------------------------------------------------

def _clean_builder(seed: int) -> KernelBuilder:
    """A randomly shaped kernel with no lintable defects: every definition
    is used, every read is initialized, barriers are unconditional, arrays
    are indexed in-bounds with distinct bases."""
    rng = random.Random(seed)
    b = KernelBuilder(f"lint_clean_{seed}", params=("A", "B", "O", "n"))
    tid = b.global_tid_x()
    off = b.mul(tid, 4, name="off")
    a = b.load(b.add(b.param("A"), off))
    v = b.load(b.add(b.param("B"), off))
    x = b.add(a, v, name="x")
    for _ in range(rng.randint(1, 4)):
        op = rng.choice(("add", "mul", "sub", "max"))
        x = getattr(b, op)(x, rng.randint(1, 9))
    if rng.random() < 0.5:
        b.barrier()
    if rng.random() < 0.5:
        acc = b.mov(0, name="acc")
        b.loop_counter(rng.randint(2, 4))
        b.assign(acc, b.add(acc, x))
        b.end_loop()
        x = b.add(x, acc)
    b.store(b.add(b.param("O"), off), x)
    return b


def clean_bundle(seed: int) -> FixtureBundle:
    kernel = _clean_builder(seed).build()
    return FixtureBundle(name=f"clean/{seed}",
                         launch=_alloc_launch(kernel, seed))


# ---------------------------------------------------------------------------
# Straight-line parent used by the queue and bounds defect classes
# ---------------------------------------------------------------------------

def _straightline_builder(name: str,
                          params=("A", "B", "O", "n")) -> KernelBuilder:
    b = KernelBuilder(name, params=params)
    tid = b.global_tid_x()
    off = b.mul(tid, 4, name="off")
    a = b.load(b.add(b.param("A"), off))
    v = b.load(b.add(b.param("B"), off))
    b._x = b.add(a, v, name="x")          # stashed for defect builders
    b._off = off
    b._tid = tid
    b._a = a
    return b


# ---------------------------------------------------------------------------
# Defect builders, one per code
# ---------------------------------------------------------------------------

def build_rpl001(seed: int) -> FixtureBundle:
    """Dead code: an extra computation whose value is never consumed."""
    b = _straightline_builder(f"lint_dead_{seed}")
    b.add(b._a, 7, name="junk")                    # never used
    b.store(b.add(b.param("O"), b._off), b._x)
    kernel = b.build()

    c = _straightline_builder(f"lint_dead_{seed}_clean")
    c.store(c.add(c.param("O"), c._off), c._x)
    return FixtureBundle(
        name=f"RPL001/{seed}", launch=_alloc_launch(kernel, seed),
        clean_launch=_alloc_launch(c.build(), seed))


def build_rpl002(seed: int) -> FixtureBundle:
    """Uninitialized read: ``ghost`` has no definition, reads as zero."""
    b = _straightline_builder(f"lint_uninit_{seed}")
    y = b.add(b._x, Register("ghost"))             # intended: x + 1
    b.store(b.add(b.param("O"), b._off), y)
    kernel = b.build()

    c = _straightline_builder(f"lint_uninit_{seed}_clean")
    y = c.add(c._x, 1)
    c.store(c.add(c.param("O"), c._off), y)
    return FixtureBundle(
        name=f"RPL002/{seed}", launch=_alloc_launch(kernel, seed),
        clean_launch=_alloc_launch(c.build(), seed))


def build_rpl011(seed: int) -> FixtureBundle:
    """Barrier under a thread-divergent (affine) branch.

    Warp 0 (tid < 32) enters the barrier immediately; warp 1 skips it and
    exits only after a long ALU chain, so warp 0 is already waiting when
    warp 1 retires — the barrier never releases (see sim/sm.py)."""
    b = KernelBuilder(f"lint_bardiv_{seed}", params=("O",))
    tid = b.global_tid_x()
    p = b.setp(CmpOp.LT, tid, 32)
    with b.if_then(p):
        b.barrier()
    v = _chain(b, tid, 24)
    b.store(b.add(b.param("O"), b.mul(tid, 4)), v)
    kernel = b.build()
    return FixtureBundle(
        name=f"RPL011/{seed}",
        launch=_alloc_launch(kernel, seed, arrays=(), outputs=("O",)))


def build_rpl012(seed: int) -> FixtureBundle:
    """Barrier under a data-dependent branch, with data engineered so the
    two warps of the CTA actually diverge (warp 0 loads 1, warp 1 loads
    0)."""
    b = KernelBuilder(f"lint_bardata_{seed}", params=("F", "O"))
    tid = b.global_tid_x()
    off = b.mul(tid, 4, name="off")
    flag = b.load(b.add(b.param("F"), off))
    p = b.setp(CmpOp.GT, flag, 0)
    with b.if_then(p):
        b.barrier()
    v = _chain(b, flag, 24)
    b.store(b.add(b.param("O"), off), v)
    kernel = b.build()

    mem = GlobalMemory(1 << 16)
    flags = np.zeros(N)
    flags[:32] = 1.0                       # warp 0 takes the barrier
    f = mem.alloc_array(flags)
    o = mem.alloc(N)
    launch = KernelLaunch(kernel=kernel, grid_dim=(1, 1, 1),
                          block_dim=(N, 1, 1),
                          params={"F": float(f), "O": float(o)}, memory=mem)
    return FixtureBundle(name=f"RPL012/{seed}", launch=launch)


def build_rpl021(seed: int) -> FixtureBundle:
    """Every thread stores its own value to one location.  Warp 0 is
    delayed by a chain, so in the timing simulation it writes *last* and
    its lane 31 wins; the functional oracle executes warps in order and
    warp 1's lane 31 wins."""
    b = KernelBuilder(f"lint_wuni_{seed}", params=("O",))
    tid = b.global_tid_x()
    x = b.mov(tid, name="xval")
    p = b.setp(CmpOp.LT, tid, 32)
    with b.if_then(p):
        b.assign(x, _chain(b, tid, 24))
    b.store(b.param("O"), x)               # address is uniform: param.O
    kernel = b.build()
    return FixtureBundle(
        name=f"RPL021/{seed}",
        launch=_alloc_launch(kernel, seed, arrays=(), outputs=("O",)))


def build_rpl022(seed: int) -> FixtureBundle:
    """Producer/consumer race: warp 0 stores X[tid] after a long chain,
    warp 1 reads X[tid-32] early.  Timing sees the stale zero; the
    functional oracle (warps in order) sees the produced value."""
    b = KernelBuilder(f"lint_race_{seed}", params=("X", "O"))
    tid = b.global_tid_x()
    off = b.mul(tid, 4, name="off")
    p_lo = b.setp(CmpOp.LT, tid, 32)
    with b.if_then(p_lo):
        b.store(b.add(b.param("X"), off), _chain(b, tid, 40))
    p_hi = b.setp(CmpOp.GE, tid, 32)
    with b.if_then(p_hi):
        y = b.load(b.add(b.param("X"), b.sub(off, 128)))
        b.store(b.add(b.param("O"), off), y)
    kernel = b.build()
    return FixtureBundle(
        name=f"RPL022/{seed}",
        launch=_alloc_launch(kernel, seed, arrays=("X",), outputs=("O",)))


def _decoupled_parent(seed: int, tag: str):
    b = _straightline_builder(f"lint_{tag}_{seed}")
    b.store(b.add(b.param("O"), b._off), b._x)
    kernel = b.build()
    return kernel, decouple(kernel)


def drop_last_enq(program: DecoupledProgram) -> DecoupledProgram:
    """``program`` without the affine stream's last enqueue: the
    consumer's final dequeue starves forever."""
    enq_indices = [i for i, inst in enumerate(program.affine.instructions)
                   if inst.is_enq]
    keep = [inst for i, inst in enumerate(program.affine.instructions)
            if i != enq_indices[-1]]
    return replace(program, affine=Kernel(
        name=program.affine.name, params=program.affine.params,
        instructions=keep, labels=dict(program.affine.labels)))


def build_rpl031(seed: int) -> FixtureBundle:
    """Drop the last enqueue from the affine stream (:func:`drop_last_enq`)."""
    kernel, program = _decoupled_parent(seed, "qstarve")
    return FixtureBundle(name=f"RPL031/{seed}",
                         launch=_alloc_launch(kernel, seed),
                         program=drop_last_enq(program))


def build_rpl032(seed: int) -> FixtureBundle:
    """Insert a spurious enqueue (fresh queue id) before the first real
    one: every later dequeue pops a shifted — wrong — entry."""
    kernel, program = _decoupled_parent(seed, "qleak")
    insts = list(program.affine.instructions)
    first_enq = next(i for i, inst in enumerate(insts) if inst.is_enq)
    insts.insert(first_enq, insts[first_enq].clone(queue_id=999))
    mutated = replace(program, affine=Kernel(
        name=program.affine.name, params=program.affine.params,
        instructions=insts, labels=dict(program.affine.labels)))
    return FixtureBundle(name=f"RPL032/{seed}",
                         launch=_alloc_launch(kernel, seed),
                         program=mutated)


def build_rpl033(seed: int) -> FixtureBundle:
    """A used queue class with zero configured capacity: ``atq_entries=1``
    gives the memory partition ``1 // 2 == 0`` entries."""
    kernel, program = _decoupled_parent(seed, "qzero")
    config = replace(FIXTURE_CONFIG, dac=DACConfig(atq_entries=1))
    return FixtureBundle(name=f"RPL033/{seed}",
                         launch=_alloc_launch(kernel, seed),
                         config=config, program=program)


def build_rpl034(seed: int) -> FixtureBundle:
    """Interval pressure (3 memory tuples) exceeds the ATQ memory
    partition (``4 // 2 == 2``): back-pressure throttles the affine warp
    but the run must still complete correctly."""
    kernel, program = _decoupled_parent(seed, "qpress")
    config = replace(FIXTURE_CONFIG, dac=DACConfig(atq_entries=4))
    return FixtureBundle(name=f"RPL034/{seed}",
                         launch=_alloc_launch(kernel, seed),
                         config=config, program=program)


def build_rpl041(seed: int) -> FixtureBundle:
    """Provably out-of-memory store: the base parameter is negative, so
    every thread's address is below zero and numpy's negative indexing
    silently clobbers the top of device memory."""
    b = _straightline_builder(f"lint_oob_{seed}",
                              params=("A", "B", "Obad", "n"))
    b.store(b.add(b.param("Obad"), b._off), b._x)
    kernel = b.build()

    c = _straightline_builder(f"lint_oob_{seed}_clean")
    c.store(c.add(c.param("O"), c._off), c._x)
    return FixtureBundle(
        name=f"RPL041/{seed}",
        launch=_alloc_launch(kernel, seed, extra_params={"Obad": -4096.0}),
        clean_launch=_alloc_launch(c.build(), seed))


def build_rpl042(seed: int) -> FixtureBundle:
    """Stride-2 indexing overruns the 64-word output allocation and
    corrupts the canary array allocated right behind it."""
    b = _straightline_builder(f"lint_extent_{seed}")
    b.store(b.add(b.param("O"), b.mul(b._tid, 8)), b._x)
    kernel = b.build()

    c = _straightline_builder(f"lint_extent_{seed}_clean")
    c.store(c.add(c.param("O"), c._off), c._x)
    # Identical memory layout for both: A, B, O, then an untouched canary.
    bundles = []
    for k in (kernel, c.build()):
        launch = _alloc_launch(k, seed)
        launch.memory.alloc_array(np.full(N, 7.0))     # canary
        bundles.append(launch)
    return FixtureBundle(name=f"RPL042/{seed}", launch=bundles[0],
                         clean_launch=bundles[1])


#: code -> (builder, predicted dynamic behavior)
DEFECTS: dict[str, tuple[Callable[[int], FixtureBundle], str]] = {
    "RPL001": (build_rpl001, "preserve"),
    "RPL002": (build_rpl002, "corrupt"),
    "RPL011": (build_rpl011, "hang"),
    "RPL012": (build_rpl012, "hang"),
    "RPL021": (build_rpl021, "mismatch"),
    "RPL022": (build_rpl022, "mismatch"),
    "RPL031": (build_rpl031, "hang"),
    "RPL032": (build_rpl032, "misbehave"),
    "RPL033": (build_rpl033, "hang"),
    "RPL034": (build_rpl034, "throttle"),
    "RPL041": (build_rpl041, "corrupt"),
    "RPL042": (build_rpl042, "corrupt"),
}
