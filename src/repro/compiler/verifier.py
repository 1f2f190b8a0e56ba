"""Static verifier for decoupled programs.

The DAC hardware relies on the two streams agreeing dynamically: each
warp's sequence of dequeues must match the affine warp's sequence of
enqueues (per queue class, FIFO).  The decoupler guarantees this by
construction; this verifier re-derives the guarantees independently so a
compiler regression fails loudly at compile time rather than as a queue
mismatch deep inside a simulation.

Checks:

* **pairing** — enq queue ids and deq queue ids are the same bijection,
  and each pair originates from the same original instruction;
* **ordering** — within each basic block of each stream, queue operations
  appear in ascending original-program order, separately per queue class
  (PWAQ: data+addr interleaved; PWPQ: pred);
* **guards** — an enq and its deq carry the same guard (same predicate
  name and polarity), so warp-level masks agree at expansion and dequeue;
* **purity** — the affine stream contains no loads/stores (it may only
  observe read-only state: parameters, thread geometry) and the non-affine
  stream contains no enqueues;
* **barriers** — both streams contain the same number of barriers, in the
  same relative order against queue operations (by original index).

``verify(program)`` also runs the semantic certifier
(:mod:`repro.analysis.certify`) by default, as ``repro decouple`` does;
``repro certify`` and ``repro lint`` call the certifier directly.
``run_dac`` calls ``verify(program, semantic=False)`` on every launch:
the certifier's verdict depends only on the kernel, so it is a
compile-time gate, not a per-simulation cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa import DeqToken, Instruction, Kernel, Opcode, PredReg
from .decouple import DecoupledProgram


@dataclass
class VerificationReport:
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def __str__(self) -> str:
        if self.ok:
            return "decoupling verified: no inconsistencies"
        return "decoupling FAILED verification:\n" + "\n".join(
            f"  - {e}" for e in self.errors)


def _deq_tokens(inst: Instruction):
    for op in inst.srcs + inst.dsts:
        if isinstance(op, DeqToken):
            yield op
    if isinstance(inst.guard, DeqToken):
        yield inst.guard


def _queue_class(kind: str) -> str:
    return "pwpq" if kind == "pred" else "pwaq"


def _guard_signature(inst: Instruction):
    if isinstance(inst.guard, PredReg):
        return (inst.guard.name, inst.guard_negated)
    return None


def _loc(kernel: Kernel, index: int) -> str:
    """``name[index] (line N)`` — where an offending instruction lives."""
    inst = kernel.instructions[index]
    line = "" if inst.source_line is None else f" (line {inst.source_line})"
    return f"{kernel.name}[{index}]{line}"


def verify(program: DecoupledProgram,
           semantic: bool = True) -> VerificationReport:
    """Run every structural check; with ``semantic=True`` (the default)
    also run the translation-validation certifier
    (:mod:`repro.analysis.certify`) and fold its errors into the report,
    upgrading verification from structural to semantic.  Returns a
    report (never raises)."""
    report = _verify_structural(program)
    if semantic and program.is_decoupled:
        # Imported lazily: analysis.certify itself calls back into this
        # module for the structural half.
        from ..analysis.certify import certify_program
        for diag in certify_program(program).errors:
            if diag.code == "RPL050":
                continue                 # already present structurally
            report.errors.append(diag.render())
    return report


def _verify_structural(program: DecoupledProgram) -> VerificationReport:
    report = VerificationReport()
    if not program.is_decoupled:
        return report

    enqs: dict[int, Instruction] = {}
    for idx, inst in enumerate(program.affine.instructions):
        if inst.is_enq:
            if inst.queue_id in enqs:
                report.errors.append(
                    f"duplicate enqueue for queue {inst.queue_id} at "
                    f"{_loc(program.affine, idx)}")
            enqs[inst.queue_id] = inst
        if inst.is_memory:
            report.errors.append(
                f"affine stream contains a memory access at "
                f"{_loc(program.affine, idx)}: {inst}")

    deqs: dict[int, Instruction] = {}
    for idx, inst in enumerate(program.nonaffine.instructions):
        if inst.is_enq:
            report.errors.append(
                f"non-affine stream contains an enqueue at "
                f"{_loc(program.nonaffine, idx)}: {inst}")
        for token in _deq_tokens(inst):
            if token.queue_id in deqs:
                report.errors.append(
                    f"duplicate dequeue for queue {token.queue_id} at "
                    f"{_loc(program.nonaffine, idx)}")
            deqs[token.queue_id] = inst

    # Pairing.
    enq_index = {inst.uid: i
                 for i, inst in enumerate(program.affine.instructions)}
    deq_index = {inst.uid: i
                 for i, inst in enumerate(program.nonaffine.instructions)}
    if set(enqs) != set(deqs):
        where = []
        for qid in sorted(set(enqs) - set(deqs)):
            where.append(f"queue {qid} enq at "
                         f"{_loc(program.affine, enq_index[enqs[qid].uid])} "
                         "has no deq")
        for qid in sorted(set(deqs) - set(enqs)):
            where.append(f"queue {qid} deq at "
                         f"{_loc(program.nonaffine, deq_index[deqs[qid].uid])} "
                         "has no enq")
        report.errors.append(
            f"queue id mismatch: enq={sorted(enqs)} deq={sorted(deqs)} "
            f"({'; '.join(where)})")
        return report
    if set(enqs) != set(program.queue_origin):
        stray = sorted(set(enqs) ^ set(program.queue_origin))
        locs = [_loc(program.affine, enq_index[enqs[q].uid])
                for q in stray if q in enqs]
        report.errors.append(
            f"queue ids do not match recorded origins: "
            f"unmatched={stray}"
            + (f" (enq at {', '.join(locs)})" if locs else ""))

    kind_of_enq = {Opcode.ENQ_DATA: "data", Opcode.ENQ_ADDR: "addr",
                   Opcode.ENQ_PRED: "pred"}
    for qid, enq in enqs.items():
        deq = deqs[qid]
        where = (f"enq at {_loc(program.affine, enq_index[enq.uid])}, "
                 f"deq at {_loc(program.nonaffine, deq_index[deq.uid])}")
        enq_kind = kind_of_enq[enq.opcode]
        deq_kind = next(_deq_tokens(deq)).kind
        if enq_kind != deq_kind:
            report.errors.append(
                f"queue {qid}: enq kind {enq_kind} vs deq kind {deq_kind} "
                f"({where})")
        if enq_kind != "pred" and \
                _guard_signature(enq) != _guard_signature(deq):
            report.errors.append(
                f"queue {qid}: guard mismatch "
                f"({_guard_signature(enq)} vs {_guard_signature(deq)}; "
                f"{where})")

    # Ordering: queue ids ascend with original program order, so checking
    # ascending qid order per block per class suffices.
    def check_order(kernel: Kernel, ids_of, label: str) -> None:
        from .cfg import CFG
        cfg = CFG(kernel)
        for block in cfg.blocks:
            last: dict[str, int] = {}
            for offset, inst in enumerate(block.instructions(kernel)):
                for cls, qid in ids_of(inst):
                    origin = program.queue_origin.get(qid, -1)
                    if cls in last and origin < last[cls]:
                        report.errors.append(
                            f"{label}: queue ops out of original order in "
                            f"block {block.index} (queue {qid}) at "
                            f"{_loc(kernel, block.start + offset)}")
                    last[cls] = origin

    def affine_ids(inst):
        if inst.is_enq:
            yield _queue_class(kind_of_enq[inst.opcode]), inst.queue_id

    def nonaffine_ids(inst):
        for token in _deq_tokens(inst):
            yield _queue_class(token.kind), token.queue_id

    check_order(program.affine, affine_ids, "affine stream")
    check_order(program.nonaffine, nonaffine_ids, "non-affine stream")

    # Barrier counts.
    affine_bars = [i for i, inst in enumerate(program.affine.instructions)
                   if inst.is_barrier]
    nonaffine_bars = [i for i, inst
                      in enumerate(program.nonaffine.instructions)
                      if inst.is_barrier]
    if len(affine_bars) != len(nonaffine_bars):
        spare_kernel, spare = (
            (program.affine, affine_bars[len(nonaffine_bars):])
            if len(affine_bars) > len(nonaffine_bars)
            else (program.nonaffine, nonaffine_bars[len(affine_bars):]))
        locs = ", ".join(_loc(spare_kernel, i) for i in spare)
        report.errors.append(
            f"barrier replication mismatch: affine {len(affine_bars)} vs "
            f"non-affine {len(nonaffine_bars)} (unmatched at {locs})")

    return report
