"""Seeded mutation campaign against the decoupling certifier.

The certifier (:mod:`repro.analysis.certify`) claims that an empty report
is a proof of stream equivalence.  This module stress-tests the claim the
only honest way: seed known defect classes into otherwise-clean
:class:`~repro.compiler.decouple.DecoupledProgram` instances — perturbed
coefficients, dropped guards, reordered enqueues, widened slices, stale
loop counters, misclassified mod tuples, ... — and demand that every
mutant is either

* **caught-static** — the structural verifier or the certifier reports at
  least one diagnostic (the mutated program never reaches hardware); or
* **caught-dynamic** — the DAC simulation of the mutant hangs, raises, or
  produces a memory image that differs from the functional oracle, i.e.
  the defect is *observable* and a differential harness would flag it.

A mutant that certifies clean **and** simulates bit-identically is a
**silent escape**: a hole in the verification story.  The campaign exits
non-zero on any escape, and on any defect class that never applied to any
target (an unexercised class proves nothing).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from ..compiler.decouple import DecoupledProgram, decouple
from ..config import GPUConfig
from ..core import run_dac
from ..isa import (
    CmpOp,
    Immediate,
    Instruction,
    Kernel,
    KernelBuilder,
    MemRef,
    MemSpace,
    Opcode,
    PredReg,
)
from ..sim import GlobalMemory, KernelLaunch
from ..sim.functional import run_functional
from ..workloads import BY_ABBR
from ..workloads.fuzz import build_fuzz_launch
from .certify import certify_program

__all__ = ["MUTATORS", "Mutant", "MutationCase", "MutationReport",
           "Target", "default_targets", "run_mutation_campaign"]


CAMPAIGN_CONFIG = GPUConfig(num_sms=1, max_cycles=400_000)


# ---------------------------------------------------------------------------
# Kernel surgery helpers.
# ---------------------------------------------------------------------------

def _rekernel(kernel: Kernel, instructions) -> Kernel:
    return Kernel(name=kernel.name, params=kernel.params,
                  instructions=list(instructions),
                  labels=dict(kernel.labels))


def _delete(kernel: Kernel, index: int) -> Kernel:
    """Remove one instruction, shifting label targets past it."""
    insts = [inst for j, inst in enumerate(kernel.instructions) if j != index]
    labels = {lbl: (t - 1 if t > index else t)
              for lbl, t in kernel.labels.items()}
    return Kernel(name=kernel.name, params=kernel.params,
                  instructions=insts, labels=labels)


def _feeds_enq(kernel: Kernel, start: int) -> bool:
    """Does the value written at ``start`` (transitively, by a forward
    scan) feed an enqueue operand or guard?  Conservative site filter so
    mutations land on live computation, not dead slice residue."""
    tainted = {r.name for r in kernel.instructions[start].written_regs()}
    if not tainted:
        return False
    for inst in kernel.instructions[start + 1:]:
        reads = {r.name for r in inst.read_regs()}
        if isinstance(inst.guard, PredReg):
            reads.add(inst.guard.name)
        if reads & tainted:
            if inst.is_enq:
                return True
            tainted |= {r.name for r in inst.written_regs()}
    return False


def _enq_positions(program: DecoupledProgram) -> list[int]:
    return [i for i, inst in enumerate(program.affine.instructions)
            if inst.is_enq]


def _queue_class(inst: Instruction) -> str:
    return "pwpq" if inst.opcode is Opcode.ENQ_PRED else "pwaq"


# ---------------------------------------------------------------------------
# Mutation operators.  Each returns a Mutant or None (no applicable site).
# ---------------------------------------------------------------------------

@dataclass
class Mutant:
    klass: str
    description: str
    program: DecoupledProgram


def _mut_coeff_perturb(program: DecoupledProgram,
                       rng: random.Random) -> Mutant | None:
    """+1 on an immediate coefficient of an affine-slice ALU instruction
    that feeds an enqueue (excluding self-increments — that is
    ``stale_loop``'s territory)."""
    aff = program.affine
    sites = []
    for i, inst in enumerate(aff.instructions):
        if inst.opcode not in (Opcode.ADD, Opcode.SUB, Opcode.MUL,
                               Opcode.MAD, Opcode.SHL):
            continue
        written = {r.name for r in inst.written_regs()}
        if written & {r.name for r in inst.read_regs()}:
            continue
        if not _feeds_enq(aff, i):
            continue
        for j, src in enumerate(inst.srcs):
            if isinstance(src, Immediate):
                sites.append((i, j))
    if not sites:
        return None
    i, j = sites[rng.randrange(len(sites))]
    inst = aff.instructions[i]
    srcs = list(inst.srcs)
    srcs[j] = Immediate(srcs[j].value + 1)
    insts = list(aff.instructions)
    insts[i] = inst.clone(srcs=tuple(srcs))
    return Mutant(
        "coeff_perturb",
        f"immediate of {inst.opcode.value} at affine[{i}] bumped by +1",
        dc_replace(program, affine=_rekernel(aff, insts)))


def _guarded_enqs(program: DecoupledProgram) -> list[int]:
    return [i for i in _enq_positions(program)
            if isinstance(program.affine.instructions[i].guard, PredReg)]


def _mut_guard_drop(program: DecoupledProgram,
                    rng: random.Random) -> Mutant | None:
    """Strip the guard off one enqueue: the affine warp enqueues for lanes
    the original access masked out."""
    sites = _guarded_enqs(program)
    if not sites:
        return None
    i = sites[rng.randrange(len(sites))]
    insts = list(program.affine.instructions)
    insts[i] = insts[i].clone(guard=None, guard_negated=False)
    return Mutant(
        "guard_drop", f"guard removed from enqueue at affine[{i}]",
        dc_replace(program, affine=_rekernel(program.affine, insts)))


def _mut_guard_flip(program: DecoupledProgram,
                    rng: random.Random) -> Mutant | None:
    """Invert the polarity of one enqueue's guard."""
    sites = _guarded_enqs(program)
    if not sites:
        return None
    i = sites[rng.randrange(len(sites))]
    insts = list(program.affine.instructions)
    insts[i] = insts[i].clone(guard_negated=not insts[i].guard_negated)
    return Mutant(
        "guard_flip", f"guard polarity inverted on enqueue at affine[{i}]",
        dc_replace(program, affine=_rekernel(program.affine, insts)))


def _mut_enq_reorder(program: DecoupledProgram,
                     rng: random.Random) -> Mutant | None:
    """Swap two adjacent same-class enqueues (provenance swapped with
    them): the per-class FIFO now pairs tuples with the wrong dequeues."""
    aff = program.affine
    targets = set(aff.labels.values())
    sites = []
    for i in range(len(aff.instructions) - 1):
        a, b = aff.instructions[i], aff.instructions[i + 1]
        if a.is_enq and b.is_enq and i + 1 not in targets \
                and _queue_class(a) == _queue_class(b):
            sites.append(i)
    if not sites:
        return None
    i = sites[rng.randrange(len(sites))]
    insts = list(aff.instructions)
    insts[i], insts[i + 1] = insts[i + 1], insts[i]
    origin = list(program.affine_origin)
    if origin:
        origin[i], origin[i + 1] = origin[i + 1], origin[i]
    return Mutant(
        "enq_reorder",
        f"adjacent {_queue_class(insts[i])} enqueues at affine[{i}] "
        "and affine[{}] swapped".format(i + 1),
        dc_replace(program, affine=_rekernel(aff, insts),
                   affine_origin=origin))


def _mut_queue_retarget(program: DecoupledProgram,
                        rng: random.Random) -> Mutant | None:
    """Swap the queue ids of two same-kind enqueues (or, with a single
    queue, retarget it to a fresh id): each dequeue now drains a tuple
    computed for a different original access."""
    aff = program.affine
    by_opcode: dict[Opcode, list[int]] = {}
    for i in _enq_positions(program):
        by_opcode.setdefault(aff.instructions[i].opcode, []).append(i)
    pairs = [v for v in by_opcode.values() if len(v) >= 2]
    insts = list(aff.instructions)
    if pairs:
        group = pairs[rng.randrange(len(pairs))]
        i, j = group[0], group[1]
        qi, qj = insts[i].queue_id, insts[j].queue_id
        insts[i] = insts[i].clone(queue_id=qj)
        insts[j] = insts[j].clone(queue_id=qi)
        what = f"queue ids of affine[{i}] and affine[{j}] swapped"
    else:
        sites = _enq_positions(program)
        if not sites:
            return None
        i = sites[rng.randrange(len(sites))]
        fresh = max(program.queue_origin, default=0) + 1
        insts[i] = insts[i].clone(queue_id=fresh)
        what = f"enqueue at affine[{i}] retargeted to unknown queue {fresh}"
    return Mutant("queue_retarget", what,
                  dc_replace(program, affine=_rekernel(aff, insts)))


def _mut_slice_widen(program: DecoupledProgram,
                     rng: random.Random) -> Mutant | None:
    """Un-decouple one access: drop its enqueue and restore the original
    instruction over its dequeue form, as if the compiler had widened the
    non-affine slice.  Either the restored access reads definitions the
    slice removed (soundness error) or the program is a certifiably
    missed optimization (RPL051)."""
    if len(program.queue_origin) < 2:
        return None                     # keep the mutant decoupled
    qids = sorted(program.queue_origin)
    qid = qids[rng.randrange(len(qids))]
    orig_index = program.queue_origin[qid]
    aff = program.affine
    enq_i = next(i for i in _enq_positions(program)
                 if aff.instructions[i].queue_id == qid)
    new_affine = _delete(aff, enq_i)
    affine_origin = [o for j, o in enumerate(program.affine_origin)
                     if j != enq_i]
    try:
        pos = program.nonaffine_origin.index(orig_index)
    except ValueError:
        return None
    insts = list(program.nonaffine.instructions)
    insts[pos] = program.original.instructions[orig_index].clone()
    queue_origin = dict(program.queue_origin)
    del queue_origin[qid]
    return Mutant(
        "slice_widen",
        f"queue {qid} un-decoupled: enqueue dropped, original "
        f"instruction restored at non-affine[{pos}]",
        dc_replace(program, affine=new_affine,
                   nonaffine=_rekernel(program.nonaffine, insts),
                   affine_origin=affine_origin, queue_origin=queue_origin,
                   num_queues=program.num_queues - 1))


def _mut_stale_loop(program: DecoupledProgram,
                    rng: random.Random) -> Mutant | None:
    """Double the step of a loop counter in the affine stream while the
    non-affine copy keeps stepping by one: the streams' loop-carried
    closed forms drift apart and the enqueue count no longer matches."""
    aff = program.affine
    sites = []
    for i, inst in enumerate(aff.instructions):
        if not (inst.is_branch and inst.target is not None):
            continue
        head = aff.labels.get(inst.target, len(aff.instructions))
        if head > i:
            continue                    # forward branch: not a loop latch
        body = range(head, i + 1)
        if not any(aff.instructions[k].is_enq for k in body):
            continue                    # no queue traffic: nothing to skew
        for k in body:
            upd = aff.instructions[k]
            if upd.opcode is Opcode.ADD and (
                    {r.name for r in upd.written_regs()}
                    & {r.name for r in upd.read_regs()}):
                for j, src in enumerate(upd.srcs):
                    if isinstance(src, Immediate):
                        sites.append((k, j))
    if not sites:
        return None
    k, j = sites[rng.randrange(len(sites))]
    inst = aff.instructions[k]
    srcs = list(inst.srcs)
    srcs[j] = Immediate(srcs[j].value * 2 if srcs[j].value else 1.0)
    insts = list(aff.instructions)
    insts[k] = inst.clone(srcs=tuple(srcs))
    return Mutant(
        "stale_loop",
        f"loop-counter update at affine[{k}] steps by "
        f"{int(srcs[j].value)} instead of {int(inst.srcs[j].value)}",
        dc_replace(program, affine=_rekernel(aff, insts)))


def _mut_mod_divisor(program: DecoupledProgram,
                     rng: random.Random) -> Mutant | None:
    """+1 on the immediate divisor of a ``rem`` feeding an enqueue: a
    mod-type tuple classified with the wrong modulus."""
    aff = program.affine
    sites = []
    for i, inst in enumerate(aff.instructions):
        if inst.opcode is not Opcode.REM or not _feeds_enq(aff, i):
            continue
        for j, src in enumerate(inst.srcs):
            if isinstance(src, Immediate) and j == 1:
                sites.append((i, j))
    if not sites:
        return None
    i, j = sites[rng.randrange(len(sites))]
    inst = aff.instructions[i]
    srcs = list(inst.srcs)
    srcs[j] = Immediate(srcs[j].value + 1)
    insts = list(aff.instructions)
    insts[i] = inst.clone(srcs=tuple(srcs))
    return Mutant(
        "mod_divisor",
        f"rem divisor at affine[{i}] changed to {int(srcs[j].value)}",
        dc_replace(program, affine=_rekernel(aff, insts)))


def _mut_disp_drop(program: DecoupledProgram,
                   rng: random.Random) -> Mutant | None:
    """Drop the displacement from an enqueue's address operand: the tuple
    base is off by a constant the dequeue side still expects."""
    aff = program.affine
    sites = [i for i in _enq_positions(program)
             if aff.instructions[i].srcs
             and isinstance(aff.instructions[i].srcs[0], MemRef)
             and aff.instructions[i].srcs[0].displacement]
    if not sites:
        return None
    i = sites[rng.randrange(len(sites))]
    inst = aff.instructions[i]
    insts = list(aff.instructions)
    insts[i] = inst.clone(srcs=(inst.srcs[0].address,))
    return Mutant(
        "disp_drop",
        f"displacement {inst.srcs[0].displacement} dropped from enqueue "
        f"at affine[{i}]",
        dc_replace(program, affine=_rekernel(aff, insts)))


_CMP_WEAKEN = {CmpOp.LT: CmpOp.LE, CmpOp.LE: CmpOp.LT,
               CmpOp.GT: CmpOp.GE, CmpOp.GE: CmpOp.GT,
               CmpOp.EQ: CmpOp.NE, CmpOp.NE: CmpOp.EQ}


def _mut_pred_cmp_flip(program: DecoupledProgram,
                       rng: random.Random) -> Mutant | None:
    """Weaken/flip the comparison of an affine-stream setp (LT↔LE, EQ↔NE):
    off-by-one iteration spaces and wrong guard masks."""
    aff = program.affine
    sites = [i for i, inst in enumerate(aff.instructions)
             if inst.opcode is Opcode.SETP and inst.cmp in _CMP_WEAKEN]
    if not sites:
        return None
    i = sites[rng.randrange(len(sites))]
    inst = aff.instructions[i]
    insts = list(aff.instructions)
    insts[i] = inst.clone(cmp=_CMP_WEAKEN[inst.cmp])
    return Mutant(
        "pred_cmp_flip",
        f"setp at affine[{i}] weakened from {inst.cmp.value} to "
        f"{_CMP_WEAKEN[inst.cmp].value}",
        dc_replace(program, affine=_rekernel(aff, insts)))


def _mut_barrier_drop(program: DecoupledProgram,
                      rng: random.Random) -> Mutant | None:
    """Delete one replicated barrier from the affine stream: the streams'
    synchronization schedules no longer line up."""
    aff = program.affine
    sites = [i for i, inst in enumerate(aff.instructions) if inst.is_barrier]
    if not sites:
        return None
    i = sites[rng.randrange(len(sites))]
    affine_origin = [o for j, o in enumerate(program.affine_origin) if j != i]
    return Mutant(
        "barrier_drop", f"barrier at affine[{i}] deleted",
        dc_replace(program, affine=_delete(aff, i),
                   affine_origin=affine_origin))


def _mut_origin_skew(program: DecoupledProgram,
                     rng: random.Random) -> Mutant | None:
    """Point one queue's recorded origin at a different instruction of the
    same kind: the tuple is proven against the wrong original access."""
    by_kind: dict[str, list[int]] = {}
    for idx, inst in enumerate(program.original.instructions):
        if inst.is_load:
            by_kind.setdefault("data", []).append(idx)
        elif inst.is_store:
            by_kind.setdefault("addr", []).append(idx)
        elif inst.opcode is Opcode.SETP:
            by_kind.setdefault("pred", []).append(idx)
    kind_of = {Opcode.ENQ_DATA: "data", Opcode.ENQ_ADDR: "addr",
               Opcode.ENQ_PRED: "pred"}
    sites = []
    for qid, orig_index in sorted(program.queue_origin.items()):
        enq_i = next((i for i in _enq_positions(program)
                      if program.affine.instructions[i].queue_id == qid),
                     None)
        if enq_i is None:
            continue
        kind = kind_of[program.affine.instructions[enq_i].opcode]
        others = [x for x in by_kind.get(kind, ()) if x != orig_index]
        if others:
            sites.append((qid, others))
    if not sites:
        return None
    qid, others = sites[rng.randrange(len(sites))]
    queue_origin = dict(program.queue_origin)
    queue_origin[qid] = others[rng.randrange(len(others))]
    return Mutant(
        "origin_skew",
        f"queue {qid} origin redirected from index "
        f"{program.queue_origin[qid]} to {queue_origin[qid]}",
        dc_replace(program, queue_origin=queue_origin))


#: Defect class -> mutation operator, in reporting order.
MUTATORS = {
    "coeff_perturb": _mut_coeff_perturb,
    "guard_drop": _mut_guard_drop,
    "guard_flip": _mut_guard_flip,
    "enq_reorder": _mut_enq_reorder,
    "queue_retarget": _mut_queue_retarget,
    "slice_widen": _mut_slice_widen,
    "stale_loop": _mut_stale_loop,
    "mod_divisor": _mut_mod_divisor,
    "disp_drop": _mut_disp_drop,
    "pred_cmp_flip": _mut_pred_cmp_flip,
    "barrier_drop": _mut_barrier_drop,
    "origin_skew": _mut_origin_skew,
}


# ---------------------------------------------------------------------------
# Targets.
# ---------------------------------------------------------------------------

@dataclass
class Target:
    """A kernel the campaign mutates.  ``launch_factory`` must build a
    *fresh* launch each call — simulations mutate memory in place."""

    name: str
    launch_factory: object

    def launch(self) -> KernelLaunch:
        return self.launch_factory()


def _synthetic_launch() -> KernelLaunch:
    """One kernel with an applicable site for every defect class: two
    adjacent data queues, a displaced load, a rem-indexed load, a guarded
    store, a barrier, and an enqueueing loop."""
    kb = KernelBuilder("mutsynth", params=("A", "B", "O", "n"))
    gtid = kb.global_tid_x()
    a1 = kb.mad(gtid, 4, kb.param("A"))
    m = kb.rem(gtid, 8)
    a2 = kb.mad(m, 4, kb.param("B"))
    x = kb.load(a1, displacement=8)
    y = kb.load(a2)
    kb.barrier()
    acc = kb.mov(0)
    i = kb.loop_counter(4)
    ai = kb.add(a1, kb.shl(i, 2))
    t = kb.load(ai)
    kb.assign(acc, kb.add(acc, t))
    kb.end_loop()
    p = kb.setp(CmpOp.LT, gtid, kb.param("n"))
    out = kb.mad(gtid, 4, kb.param("O"))
    total = kb.add(kb.add(x, y), acc)
    kb.emit(Instruction(Opcode.ST, dsts=(MemRef(out),), srcs=(total,),
                        space=MemSpace.GLOBAL, guard=p))
    kernel = kb.build()
    memory = GlobalMemory(4096)
    memory.words[:] = (7 * np.arange(len(memory.words),
                                     dtype=memory.words.dtype)) % 251
    return KernelLaunch(kernel=kernel, grid_dim=(2, 1, 1),
                        block_dim=(32, 1, 1),
                        params={"A": 0, "B": 1024, "O": 2048, "n": 48},
                        memory=memory)


def default_targets() -> list[Target]:
    targets = [Target("SYNTH", _synthetic_launch)]
    for abbr in ("ST", "BP", "SP", "HS"):
        bench = BY_ABBR[abbr]
        targets.append(Target(
            abbr, (lambda b: lambda: b.launch("tiny"))(bench)))
    for seed in (3, 11):
        targets.append(Target(
            f"FUZZ-{seed}", (lambda s: lambda: build_fuzz_launch(s))(seed)))
    return targets


# ---------------------------------------------------------------------------
# Campaign driver.
# ---------------------------------------------------------------------------

@dataclass
class MutationCase:
    target: str
    klass: str
    outcome: str                 # caught-static | caught-dynamic |
    #                              skipped | silent-escape
    detail: str = ""
    codes: tuple = ()

    def to_dict(self) -> dict:
        return {"target": self.target, "class": self.klass,
                "outcome": self.outcome, "detail": self.detail,
                "codes": list(self.codes)}


@dataclass
class MutationReport:
    cases: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def escapes(self) -> list:
        return [c for c in self.cases if c.outcome == "silent-escape"]

    def unexercised(self) -> list[str]:
        applied = {c.klass for c in self.cases if c.outcome != "skipped"}
        tried = {c.klass for c in self.cases}
        return sorted(tried - applied)

    @property
    def ok(self) -> bool:
        return not self.escapes and not self.unexercised()

    def counts(self) -> dict[str, int]:
        out = {"caught-static": 0, "caught-dynamic": 0, "skipped": 0,
               "silent-escape": 0}
        for c in self.cases:
            out[c.outcome] += 1
        return out

    def render(self) -> str:
        lines = []
        width = max((len(c.klass) for c in self.cases), default=8)
        for c in self.cases:
            codes = f" [{','.join(c.codes)}]" if c.codes else ""
            lines.append(f"  {c.target:<10} {c.klass:<{width}} "
                         f"{c.outcome:<14}{codes} {c.detail}")
        counts = self.counts()
        summary = ", ".join(f"{k}={v}" for k, v in counts.items() if v)
        lines.append(f"mutation campaign: {summary}")
        for klass in self.unexercised():
            lines.append(f"  UNEXERCISED class: {klass} "
                         "(never applied to any target)")
        for c in self.escapes:
            lines.append(f"  SILENT ESCAPE: {c.target}/{c.klass} — "
                         f"{c.detail}")
        lines.append("mutation campaign: "
                     + ("no silent escapes" if self.ok else "FAILED"))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"cases": [c.to_dict() for c in self.cases],
                "counts": self.counts(), "ok": self.ok,
                "unexercised": self.unexercised(), "notes": self.notes}


def _validate_dynamic(target: Target, mutant: Mutant,
                      config: GPUConfig) -> tuple[str, str]:
    launch = target.launch()
    try:
        run_dac(launch, config, program=mutant.program)
        image = launch.memory.words.copy()
    except Exception as exc:            # hang, PWAQ order or decode error
        detail = f"{type(exc).__name__}: {exc}"
        return "caught-dynamic", (detail[:97] + "...") if len(detail) > 100 \
            else detail
    oracle = target.launch()
    run_functional(oracle)
    if not np.array_equal(image, oracle.memory.words):
        return "caught-dynamic", "memory image diverges from oracle"
    return "silent-escape", "certified clean and simulated bit-identically"


def run_mutation_campaign(targets: list[Target] | None = None,
                          classes: list[str] | None = None,
                          seed: int = 0,
                          config: GPUConfig = CAMPAIGN_CONFIG) \
        -> MutationReport:
    """Mutate every target with every defect class; classify each mutant
    as caught-static, caught-dynamic, skipped, or silent-escape."""
    report = MutationReport()
    if targets is None:
        targets = default_targets()
    names = list(MUTATORS) if classes is None else list(classes)
    for name in names:
        if name not in MUTATORS:
            raise ValueError(f"unknown mutation class {name!r}; known: "
                             f"{', '.join(MUTATORS)}")

    for target in targets:
        program = decouple(target.launch().kernel)
        if not program.is_decoupled:
            report.notes.append(f"{target.name}: not decoupled, skipped")
            continue
        baseline = certify_program(program)
        if baseline.diagnostics:
            report.notes.append(
                f"{target.name}: baseline not clean "
                f"({sorted(baseline.codes())}), skipped")
            continue
        for klass in names:
            rng = random.Random(f"{seed}:{target.name}:{klass}")
            mutant = MUTATORS[klass](program, rng)
            if mutant is None:
                report.cases.append(MutationCase(
                    target.name, klass, "skipped", "no applicable site"))
                continue
            cert = certify_program(mutant.program)
            if cert.diagnostics:
                report.cases.append(MutationCase(
                    target.name, klass, "caught-static",
                    mutant.description, tuple(sorted(cert.codes()))))
                continue
            outcome, detail = _validate_dynamic(target, mutant, config)
            report.cases.append(MutationCase(
                target.name, klass, outcome,
                f"{mutant.description}; {detail}"))
    return report
