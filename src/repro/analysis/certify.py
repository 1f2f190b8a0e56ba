"""Translation validation of the decoupling compiler.

:func:`certify_program` independently proves that a
:class:`~repro.compiler.decouple.DecoupledProgram` *means* the same thing
as the kernel it was compiled from — the §4.7 obligation the structural
verifier cannot discharge.  Both the affine stream and the original
kernel are symbolically executed (:mod:`repro.analysis.symexec`) and four
families of facts are compared per queue:

* **payload** — the ENQ operand's closed form equals the original
  address (loads/stores) or predicate (setp) closed form;
* **guard** — the canonical guard predicates agree;
* **path** — the canonical path conditions under which the two sites
  execute agree;
* **loops** — the sites sit in the same loops (by head label), and each
  shared loop's continue condition agrees, so per-iteration closed forms
  range over the same iteration space.

Equality is *decided* only on proof-grade closed forms: any ``load``,
``deq``, or ``opaque`` atom in an obligation makes it unprovable and the
certifier reports an error rather than trusting congruence over
state-dependent terms (imprecision can cause a false alarm, never a
false proof).  The non-affine stream is checked structurally against the
original *modulo decoupled definitions*: every surviving instruction is
field-identical or the canonical DEQ replacement, and every removed
instruction is effect-free and feeds no surviving read.

Findings surface as RPL05x diagnostics:

* ``RPL050`` — structural verification failed (wraps
  :func:`repro.compiler.verifier.verify`);
* ``RPL051`` — the compiler's own eligibility recompute names an access
  it did not decouple whose closed form we can certify (missed
  optimization, warning);
* ``RPL052`` — a decoupled access is not provably equivalent
  (soundness error);
* ``RPL053`` — the disagreement is loop-carried (induction variables,
  trip counts, or loop contexts differ);
* ``RPL054`` — the disagreement vanishes when ``rem`` (mod-type)
  structure is stripped, i.e. a mod-tuple misclassification.
"""

from __future__ import annotations

from ..compiler.decouple import DecoupledProgram, Decoupler, decouple
from ..compiler.verifier import verify
from ..isa import DeqToken, Kernel, Opcode
from .diagnostics import LintReport, make_diagnostic
from .symexec import (
    LOOP_PLACEHOLDERS,
    Atom,
    Pred,
    SymExpr,
    SymbolicKernel,
    atoms_of,
    from_atom,
    symbols_of,
    symexec,
    uncertifiable_kinds,
)

__all__ = ["certify_program", "certify_kernel"]


# ---------------------------------------------------------------------------
# Obligation helpers.
# ---------------------------------------------------------------------------

def _strip_mods(x):
    """Replace every ``rem`` atom by its dividend, recursively.  If two
    closed forms agree after stripping but not before, the defect is in
    mod-type handling (RPL054)."""
    if isinstance(x, SymExpr):
        out = None
        for m, c in x.terms:
            factor = SymExpr((((), c),)) if c != 0.0 else SymExpr(())
            for s in m:
                if isinstance(s, Atom):
                    stripped = _strip_mods(s)
                    term = stripped if isinstance(stripped, SymExpr) \
                        else from_atom(stripped)
                else:
                    term = SymExpr((((s,), 1.0),))
                factor = factor * term
            out = factor if out is None else out + factor
        return out if out is not None else SymExpr(())
    if isinstance(x, Atom):
        if x.kind == "rem":
            return _strip_mods(x.args[0])
        return Atom(x.kind, tuple(_strip_mods(a) for a in x.args))
    if isinstance(x, Pred):
        return Pred(x.kind, tuple(_strip_mods(a) for a in x.payload))
    if isinstance(x, frozenset):
        return frozenset(_strip_mods(a) for a in x)
    if isinstance(x, tuple):
        return tuple(_strip_mods(a) for a in x)
    return x


def _has_rem(x) -> bool:
    return any(a.kind == "rem" for a in atoms_of(x))


def _loopish(x) -> bool:
    """Does a closed form involve loop state (induction symbols, trip
    counts, or loop-widening failures)?"""
    if any(s.startswith("iter:") for s in symbols_of(x)):
        return True
    for a in atoms_of(x):
        if a.kind == "exitcount":
            return True
        if a.kind == "opaque" and a.args and a.args[0] in LOOP_PLACEHOLDERS:
            return True
    return False


def _classify(obligations: list, loops_differ: bool) -> str:
    """Pick the RPL code for a failed proof from the failing obligations:
    ``obligations`` is a list of (label, lhs, rhs) that did not match."""
    if loops_differ:
        return "RPL053"
    mod_explains = bool(obligations)
    loop_marks = False
    for _label, lhs, rhs in obligations:
        if _strip_mods(lhs) != _strip_mods(rhs) or not (_has_rem(lhs)
                                                        or _has_rem(rhs)):
            mod_explains = False
        if _loopish(lhs) or _loopish(rhs):
            loop_marks = True
    if mod_explains:
        return "RPL054"
    if loop_marks:
        return "RPL053"
    return "RPL052"


def _proof_grade(*values) -> set[str]:
    bad: set[str] = set()
    for v in values:
        if v is not None:
            bad |= uncertifiable_kinds(v)
    return bad


def _fmt(x) -> str:
    s = repr(x)
    return s if len(s) <= 120 else s[:117] + "..."


# ---------------------------------------------------------------------------
# Affine-stream obligations.
# ---------------------------------------------------------------------------

def _loop_obligations(sym_orig: SymbolicKernel, sym_aff: SymbolicKernel,
                      orig_loops: tuple, aff_loops: tuple) -> list:
    """Continue-condition obligations for the loops shared by both sites
    (context mismatch itself is reported separately)."""
    out = []
    for name in orig_loops:
        if name not in aff_loops:
            continue
        lo = sym_orig.loops.get(name)
        la = sym_aff.loops.get(name)
        if lo is None or la is None or lo.cond is None or la.cond is None:
            out.append((f"loop {name} condition", lo.cond if lo else None,
                        la.cond if la else None))
        elif lo.cond != la.cond:
            out.append((f"loop {name} condition", lo.cond, la.cond))
    return out


def _certify_queue(report: LintReport, program: DecoupledProgram,
                   sym_orig: SymbolicKernel, sym_aff: SymbolicKernel,
                   aff_index: int, qid: int) -> None:
    orig_index = program.queue_origin[qid]
    enq = program.affine.instructions[aff_index]
    site_a = sym_aff.sites.get(aff_index)
    site_o = sym_orig.sites.get(orig_index)
    where = f"q{qid} ({enq.opcode.value} -> original index {orig_index})"
    if site_a is None or site_o is None:
        report.add(make_diagnostic(
            "RPL052", f"{where}: unreachable enqueue or original site",
            program.original, inst_index=orig_index))
        return
    if program.affine_origin and \
            program.affine_origin[aff_index] != orig_index:
        report.add(make_diagnostic(
            "RPL052",
            f"{where}: provenance mismatch (affine instruction derives "
            f"from index {program.affine_origin[aff_index]})",
            program.original, inst_index=orig_index))
        return

    failed: list = []
    if site_a.value != site_o.value:
        label = ("predicate" if enq.opcode is Opcode.ENQ_PRED
                 else "address")
        failed.append((label, site_o.value, site_a.value))
    guard_o = site_o.guard
    guard_a = site_a.guard
    if guard_o != guard_a:
        failed.append(("guard", guard_o, guard_a))
    if site_o.path != site_a.path:
        failed.append(("path condition", site_o.path, site_a.path))
    loops_differ = site_o.loops != site_a.loops
    failed.extend(_loop_obligations(sym_orig, sym_aff,
                                    site_o.loops, site_a.loops))

    opaque = _proof_grade(site_o.value, site_a.value, guard_o, guard_a,
                          site_o.path, site_a.path)
    if not failed and not loops_differ and not opaque:
        return                                  # proven equivalent
    if not failed and not loops_differ:
        code = "RPL053" if any(
            _loopish(v) for v in (site_o.value, site_a.value)) else "RPL052"
        report.add(make_diagnostic(
            code,
            f"{where}: closed forms contain unprovable terms "
            f"({', '.join(sorted(opaque))}); equivalence not certified",
            program.original, inst_index=orig_index))
        return
    code = _classify(failed, loops_differ)
    details = []
    if loops_differ:
        details.append(f"loop context {site_o.loops} vs {site_a.loops}")
    for label, lhs, rhs in failed:
        details.append(f"{label}: original {_fmt(lhs)} != affine {_fmt(rhs)}")
    report.add(make_diagnostic(
        code, f"{where}: " + "; ".join(details),
        program.original, inst_index=orig_index))


# ---------------------------------------------------------------------------
# Non-affine stream: original modulo decoupled defs.
# ---------------------------------------------------------------------------

def _signature(inst) -> tuple:
    return (inst.opcode, inst.dsts, inst.srcs, inst.guard,
            inst.guard_negated, inst.cmp, inst.space, inst.target,
            inst.dtype, inst.queue_id)


def _check_replacement(report: LintReport, program: DecoupledProgram,
                       orig_index: int, kind: str, qid: int) -> None:
    orig = program.original.instructions[orig_index]
    kept = dict(zip(program.nonaffine_origin,
                    program.nonaffine.instructions))
    repl = kept.get(orig_index)
    where = f"q{qid} non-affine replacement at original index {orig_index}"
    if repl is None:
        report.add(make_diagnostic(
            "RPL052", f"{where}: decoupled instruction missing from the "
            "non-affine stream", program.original, inst_index=orig_index))
        return
    ok = (repl.guard == orig.guard
          and repl.guard_negated == orig.guard_negated)
    if kind == "data":
        ok = ok and repl.opcode is orig.opcode and repl.dsts == orig.dsts \
            and repl.srcs == (DeqToken("data", qid),) \
            and repl.space is orig.space
    elif kind == "addr":
        ok = ok and repl.opcode is orig.opcode \
            and repl.dsts == (DeqToken("addr", qid),) \
            and repl.srcs == orig.srcs and repl.space is orig.space
    else:                                       # pred
        ok = ok and repl.opcode is Opcode.MOV and repl.dsts == orig.dsts \
            and repl.srcs == (DeqToken("pred", qid),)
    if not ok:
        report.add(make_diagnostic(
            "RPL052", f"{where}: not the canonical deq form of the "
            f"original {orig.opcode.value}", program.original,
            inst_index=orig_index))


def _check_nonaffine(report: LintReport,
                     program: DecoupledProgram) -> None:
    insts = program.original.instructions
    if len(program.nonaffine_origin) != len(program.nonaffine):
        report.add(make_diagnostic(
            "RPL052", "non-affine provenance does not cover the stream",
            program.original))
        return
    kept = dict(zip(program.nonaffine_origin,
                    program.nonaffine.instructions))
    replaced = {idx: qid for qid, idx in program.queue_origin.items()}

    for orig_index, qid in sorted(replaced.items()):
        orig = insts[orig_index]
        kind = ("pred" if orig.opcode is Opcode.SETP
                else "data" if orig.is_load else "addr")
        _check_replacement(report, program, orig_index, kind, qid)

    for idx, inst in enumerate(insts):
        if idx in kept:
            if idx in replaced:
                continue
            if _signature(kept[idx]) != _signature(inst):
                report.add(make_diagnostic(
                    "RPL052",
                    f"non-affine instruction at original index {idx} "
                    f"was altered ({inst.opcode.value})",
                    program.original, inst_index=idx))
            continue
        # Removed: must be effect-free ...
        if inst.is_memory and not inst.is_load or inst.is_barrier \
                or inst.is_exit or inst.is_branch:
            report.add(make_diagnostic(
                "RPL052",
                f"effectful {inst.opcode.value} at original index {idx} "
                "was removed from the non-affine stream",
                program.original, inst_index=idx))
            continue
        # ... and feed no surviving read.
        written = {r.name for r in inst.written_regs()}
        if not written:
            continue
        reaching = program.analysis.reaching
        for kidx, kinst in kept.items():
            needed = {r.name for r in kinst.read_regs()}
            if kinst.guard is not None:
                needed |= {r.name for r in kinst.written_regs()}
            for name in needed & written:
                if idx in reaching.reaching(kidx, name):
                    report.add(make_diagnostic(
                        "RPL052",
                        f"removed definition at original index {idx} "
                        f"({inst.opcode.value} {name}) still reaches the "
                        f"surviving instruction at index {kidx}",
                        program.original, inst_index=idx))
                    break
            else:
                continue
            break


# ---------------------------------------------------------------------------
# Missed-optimization scan (RPL051).
# ---------------------------------------------------------------------------

def _scan_missed(report: LintReport, program: DecoupledProgram,
                 sym_orig: SymbolicKernel) -> None:
    decoupler = Decoupler(program.original)
    candidates = decoupler.candidate_map()
    decoupled = set(program.queue_origin.values())
    for idx in sorted(set(candidates) - decoupled):
        site = sym_orig.sites.get(idx)
        if site is None:
            continue
        if _proof_grade(site.value, site.guard, site.path):
            continue                            # not provable; stay quiet
        inst = program.original.instructions[idx]
        report.add(make_diagnostic(
            "RPL051",
            f"{inst.opcode.value} at index {idx} is provably affine "
            f"({candidates[idx]} queue candidate) but was not decoupled",
            program.original, inst_index=idx))


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------

def certify_program(program: DecoupledProgram,
                    sym_orig: SymbolicKernel | None = None) -> LintReport:
    """Certify one decoupled program; findings are RPL05x diagnostics.
    An empty report is a machine-checked proof that every queue's tuples
    reproduce the original addresses/predicates for all launches.

    ``sym_orig`` is ``symexec(program.original)`` when the caller already
    has it (the linter shares its own)."""
    report = LintReport()
    structural = verify(program, semantic=False)
    for err in structural.errors:
        report.add(make_diagnostic("RPL050", err, program.original))
    if not program.is_decoupled:
        return report.finalize()

    if sym_orig is None:
        sym_orig = symexec(program.original)
    elif sym_orig.kernel is not program.original:
        raise ValueError("sym_orig was not built from program.original")
    sym_aff = symexec(program.affine)

    enq_by_qid: dict[int, int] = {}
    for j, inst in enumerate(program.affine.instructions):
        if inst.is_enq and inst.queue_id is not None:
            enq_by_qid.setdefault(inst.queue_id, j)
    for qid in sorted(program.queue_origin):
        if qid not in enq_by_qid:
            continue                            # RPL050 already covers it
        _certify_queue(report, program, sym_orig, sym_aff,
                       enq_by_qid[qid], qid)

    _check_nonaffine(report, program)
    _scan_missed(report, program, sym_orig)
    return report.finalize()


def certify_kernel(kernel: Kernel) -> tuple[LintReport, DecoupledProgram]:
    """Decouple a kernel and certify the result."""
    program = decouple(kernel)
    return certify_program(program), program
