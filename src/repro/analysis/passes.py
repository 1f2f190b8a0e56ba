"""The six lint passes.

Each pass is a function from a :class:`LintContext` (or a decoupled
program) to a list of :class:`~repro.analysis.diagnostics.Diagnostic`.
All passes are *read-only*: they build their own analyses over the kernel
and never mutate it — a property the test suite checks with hypothesis.

The barrier, race and bounds passes read one symbolic domain: the
per-instruction closed forms of :func:`~repro.analysis.symexec.symexec`,
the same :class:`~repro.analysis.symexec.SymbolicKernel` the certifier
uses.  A value is thread-varying when its closed form is
(:meth:`~repro.analysis.symexec.SymbolicKernel.thread_varying`: a
``tid.*`` symbol, a dequeue, or a placeholder of a loop some thread may
run differently), and an address is
analysed through its degree-<=1 fragment
(:func:`~repro.analysis.symexec.linear_form`).

Conservatism policy: error-severity codes fire only on *proofs* (a barrier
under a provably thread-divergent branch, a dequeue with no enqueue);
warning codes may use heuristics but are tuned so the 29 shipped workloads
stay quiet.  Anything the closed forms cannot pin down (non-linear or
loop-carried addresses, data-dependent guards, unreachable code) is
skipped, not guessed at.
"""

from __future__ import annotations

from ..config import GPUConfig
from ..isa import Kernel, MemRef, MemSpace, Opcode, PredReg
from ..compiler.affine_analysis import AffineAnalysis
from ..compiler.cfg import strongly_connected_components
from ..compiler.decouple import DecoupledProgram
from ..compiler.verifier import _deq_tokens
from ..sim.launch import WORD, KernelLaunch
from .diagnostics import Diagnostic, make_diagnostic
from .liveness import Liveness
from .symexec import SymbolicKernel, linear_form, symexec


class LintContext:
    """Shared lazily-built analyses for one kernel (and optional launch)."""

    def __init__(self, kernel: Kernel, launch: KernelLaunch | None = None,
                 config: GPUConfig | None = None):
        self.kernel = kernel
        self.launch = launch
        self.config = config or GPUConfig()
        #: launch constants folded into address forms
        self.geometry: dict[str, float] = {}
        #: inclusive value range of every other symbol of a launch
        self.spans: dict[str, tuple[float, float]] = {}
        if launch is not None:
            for axis, g, b in zip("xyz", launch.grid_dim, launch.block_dim):
                self.geometry[f"ntid.{axis}"] = float(b)
                self.geometry[f"nctaid.{axis}"] = float(g)
                self.spans[f"tid.{axis}"] = (0.0, float(b - 1))
                self.spans[f"ctaid.{axis}"] = (0.0, float(g - 1))
            for name, value in launch.params.items():
                self.spans[f"param:{name}"] = (float(value), float(value))
        self._analysis: AffineAnalysis | None = None
        self._symbolic: SymbolicKernel | None = None

    @property
    def analysis(self) -> AffineAnalysis:
        if self._analysis is None:
            self._analysis = AffineAnalysis(self.kernel)
        return self._analysis

    @property
    def cfg(self):
        return self.analysis.cfg

    @property
    def reaching(self):
        return self.analysis.reaching

    @property
    def symbolic(self) -> SymbolicKernel:
        """The kernel's closed forms, built once and shared with the
        certifier."""
        if self._symbolic is None:
            self._symbolic = symexec(self.kernel)
        return self._symbolic

    def varies(self, inst_index: int, op) -> bool | None:
        """May operand ``op`` differ between the CTA's threads at this
        instruction?  ``None`` when the instruction is unreachable."""
        sym = self.symbolic
        if sym.env_at[inst_index] is None:
            return None
        if isinstance(op, PredReg):
            return sym.thread_varying(sym.pred_at(inst_index, op.name))
        return sym.thread_varying(sym.value_at(inst_index, op))

    def divergent_branch(self, branch: int) -> bool | None:
        """:meth:`varies` for a branch's guard (unguarded: ``False``)."""
        guard = self.kernel.instructions[branch].guard
        return False if guard is None else self.varies(branch, guard)

    def divergent_context(self, inst_index: int) -> bool:
        """Guarded, or control-dependent on a branch not proven
        CTA-invariant — i.e. the instruction may execute in only a
        subset of the CTA's threads."""
        inst = self.kernel.instructions[inst_index]
        if inst.guard is not None:
            return True
        return any(self.divergent_branch(b) is not False
                   for b in self.analysis.control_deps.get(inst_index, ()))

    def address_form(self, inst_index: int
                     ) -> tuple[float, dict[str, float]] | None:
        """A memory instruction's byte address as ``(const, {symbol:
        coeff})`` with the launch geometry folded in; ``None`` when it is
        not linear or the instruction is unreachable."""
        ref = self.kernel.instructions[inst_index].mem_ref()
        sym = self.symbolic
        if not isinstance(ref, MemRef) or sym.env_at[inst_index] is None:
            return None
        return linear_form(sym.value_at(inst_index, ref), self.geometry)


def _loc(kernel: Kernel, index: int) -> str:
    inst = kernel.instructions[index]
    line = "" if inst.source_line is None else f" (line {inst.source_line})"
    return f"{kernel.name}[{index}]{line}"


# ---------------------------------------------------------------------------
# Pass 1: dead code / unused definitions (RPL001)
# ---------------------------------------------------------------------------

def dead_code_pass(ctx: LintContext) -> list[Diagnostic]:
    kernel, cfg = ctx.kernel, ctx.cfg
    removable: set[int] = set()
    while True:
        live = Liveness(kernel, cfg, ignore=removable)
        grown = set(removable)
        for idx, inst in enumerate(kernel.instructions):
            if idx in removable or not inst.written_regs():
                continue
            if inst.is_memory or inst.is_enq:
                continue        # the access / enqueue is an effect
            if all(r.name not in live.live_out(idx)
                   for r in inst.written_regs()):
                grown.add(idx)
        if grown == removable:
            break
        removable = grown

    diags = []
    for idx in sorted(removable):
        inst = kernel.instructions[idx]
        regs = ", ".join(sorted({r.name for r in inst.written_regs()}))
        diags.append(make_diagnostic(
            "RPL001", f"dead code: value of {regs} is never used "
            f"({inst})", kernel, idx))
    # Loads whose result is never consumed: the access still happens (so
    # they are not removable and their address chain stays live), but the
    # definition is unused.
    live = Liveness(kernel, cfg, ignore=removable)
    for idx, inst in enumerate(kernel.instructions):
        if not inst.is_load or not inst.written_regs():
            continue
        if all(r.name not in live.live_out(idx)
               for r in inst.written_regs()):
            regs = ", ".join(sorted({r.name for r in inst.written_regs()}))
            diags.append(make_diagnostic(
                "RPL001", f"unused definition: loaded value {regs} is "
                f"never used ({inst})", kernel, idx))
    return diags


# ---------------------------------------------------------------------------
# Pass 2: uninitialized reads (RPL002 / RPL003)
# ---------------------------------------------------------------------------

class _MustAssigned:
    """Forward must-analysis: registers assigned on *every* path to a point.

    Unguarded writes always count.  With ``accept_sig=(name, negated)``,
    writes guarded by that exact predicate signature count too — used to
    accept the predicated idiom ``@p ld t; @p add u, t, ...``, where any
    thread reaching the use with ``p`` true also executed the definition
    (valid as long as ``p`` is not recomputed in between; the caller
    restricts this to single-definition predicates).
    """

    def __init__(self, kernel: Kernel, cfg,
                 accept_sig: tuple[str, bool] | None = None):
        self.kernel = kernel
        self.cfg = cfg
        self.accept_sig = accept_sig
        self._block_in: dict[int, frozenset[str] | None] = \
            {b.index: None for b in cfg.blocks}
        self._solve()

    def _counts(self, inst) -> bool:
        if inst.guard is None:
            return True
        return self.accept_sig is not None \
            and isinstance(inst.guard, PredReg) \
            and (inst.guard.name, inst.guard_negated) == self.accept_sig

    def _block_gen(self, block) -> set[str]:
        gen: set[str] = set()
        for idx in range(block.start, block.end):
            inst = self.kernel.instructions[idx]
            if self._counts(inst):
                gen |= {r.name for r in inst.written_regs()}
        return gen

    def _solve(self) -> None:
        order = self.cfg.reverse_postorder()
        self._block_in[0] = frozenset()
        gens = {b.index: self._block_gen(b) for b in self.cfg.blocks}
        changed = True
        while changed:
            changed = False
            for bid in order:
                block = self.cfg.blocks[bid]
                if block.predecessors:
                    preds = [self._block_in[p] | frozenset(gens[p])
                             for p in block.predecessors
                             if self._block_in[p] is not None]
                    if not preds:
                        continue       # unreachable so far
                    new_in = frozenset.intersection(*preds)
                    if bid == 0:
                        new_in = frozenset()   # entry: nothing pre-assigned
                else:
                    new_in = frozenset() if bid == 0 else None
                if new_in != self._block_in[bid]:
                    self._block_in[bid] = new_in
                    changed = True

    def assigned_before(self, inst_index: int) -> frozenset[str]:
        block = self.cfg.block_of(inst_index)
        base = self._block_in[block.index]
        assigned = set(base) if base is not None else set()
        for idx in range(block.start, inst_index):
            inst = self.kernel.instructions[idx]
            if self._counts(inst):
                assigned |= {r.name for r in inst.written_regs()}
        return frozenset(assigned)


def uninit_pass(ctx: LintContext) -> list[Diagnostic]:
    kernel = ctx.kernel
    pred_def_count: dict[str, int] = {}
    for inst in kernel.instructions:
        for reg in inst.written_regs():
            if isinstance(reg, PredReg):
                pred_def_count[reg.name] = \
                    pred_def_count.get(reg.name, 0) + 1
    must_cache: dict[tuple[str, bool] | None, _MustAssigned] = {}

    def must_for(inst) -> _MustAssigned:
        sig = None
        if isinstance(inst.guard, PredReg) and \
                pred_def_count.get(inst.guard.name) == 1:
            sig = (inst.guard.name, inst.guard_negated)
        if sig not in must_cache:
            must_cache[sig] = _MustAssigned(kernel, ctx.cfg, accept_sig=sig)
        return must_cache[sig]

    diags = []
    for idx, inst in enumerate(kernel.instructions):
        assigned = None
        for op in dict.fromkeys(inst.read_regs()):
            defs = ctx.reaching.reaching(idx, op.name)
            if not defs:
                diags.append(make_diagnostic(
                    "RPL002", f"register {op.name} is read but has no "
                    f"reaching definition (evaluates as zero)", kernel, idx))
            else:
                if assigned is None:
                    assigned = must_for(inst).assigned_before(idx)
                if op.name not in assigned:
                    diags.append(make_diagnostic(
                        "RPL003", f"register {op.name} may be read before "
                        f"it is assigned", kernel, idx))
    return diags


# ---------------------------------------------------------------------------
# Pass 3: barrier divergence (RPL011 / RPL012)
# ---------------------------------------------------------------------------

def barrier_pass(ctx: LintContext) -> list[Diagnostic]:
    kernel, analysis = ctx.kernel, ctx.analysis
    diags = []
    for idx, inst in enumerate(kernel.instructions):
        if not inst.is_barrier:
            continue
        for branch in sorted(analysis.control_deps.get(idx, ())):
            if not ctx.divergent_branch(branch):
                continue        # CTA-invariant guard, or unreachable
            kind = analysis.branch_kind(branch)
            where = _loc(kernel, branch)
            if kind == "affine":
                # Provably thread-ID-divergent: some threads of the CTA
                # skip the barrier => the simulator's barrier never
                # releases (see sim/sm.py _do_barrier) and the kernel
                # hangs.
                diags.append(make_diagnostic(
                    "RPL011", f"barrier is control-dependent on the "
                    f"thread-divergent branch at {where}; threads that "
                    f"skip it deadlock the CTA", kernel, idx))
            else:
                diags.append(make_diagnostic(
                    "RPL012", f"barrier is control-dependent on the "
                    f"data-dependent branch at {where}; divergence "
                    f"cannot be ruled out", kernel, idx))
    return diags


# ---------------------------------------------------------------------------
# Pass 4: warp-granularity races (RPL021 / RPL022)
# ---------------------------------------------------------------------------

def _barrier_free_path(ctx: LintContext, i: int, j: int) -> bool:
    """Can execution reach instruction ``j`` after ``i`` without crossing a
    barrier?  (Same-block fallthrough, or a CFG path through barrier-free
    blocks.)"""
    kernel, cfg = ctx.kernel, ctx.cfg
    insts = kernel.instructions

    def has_barrier(lo: int, hi: int) -> bool:
        return any(insts[k].is_barrier for k in range(lo, hi))

    bi, bj = cfg.block_of(i), cfg.block_of(j)
    if bi.index == bj.index and i < j and not has_barrier(i + 1, j):
        return True
    if has_barrier(i + 1, bi.end) or has_barrier(bj.start, j):
        return False
    barrier_blocks = {b.index for b in cfg.blocks
                      if has_barrier(b.start, b.end)}
    stack = list(bi.successors)
    seen: set[int] = set()
    while stack:
        b = stack.pop()
        if b == bj.index:
            return True
        if b in seen or b in barrier_blocks:
            continue
        seen.add(b)
        stack.extend(cfg.blocks[b].successors)
    return False


def _global_thread_form(form: tuple[float, dict[str, float]],
                        block_dim_x: int) -> tuple | None:
    """Split an address form into ``stride * gtid_x + offset + params``.

    Requires the ``ctaid.x`` coefficient to equal ``ntid.x`` times the
    ``tid.x`` coefficient (the canonical ``ctaid*ntid + tid`` flattening)
    and no other thread-geometry symbol.  Returns ``(stride, offset,
    param terms)`` or ``None`` when the form does not fit."""
    offset, coeffs = form
    stride = coeffs.get("tid.x", 0.0)
    if coeffs.get("ctaid.x", 0.0) != stride * block_dim_x:
        return None
    params = []
    for sym, c in coeffs.items():
        if sym in ("tid.x", "ctaid.x"):
            continue
        if not sym.startswith("param:"):
            return None      # y/z geometry left over
        params.append((sym, c))
    return stride, offset, tuple(sorted(params))


def race_pass(ctx: LintContext) -> list[Diagnostic]:
    launch = ctx.launch
    if launch is None:
        return []
    kernel = ctx.kernel
    total_threads = launch.threads_per_block * launch.num_blocks
    if total_threads <= 1:
        return []
    diags = []

    accesses = []       # (idx, inst, stride, offset, param terms)
    for idx, inst in enumerate(kernel.instructions):
        if not inst.is_memory:
            continue
        form = ctx.address_form(idx)
        if form is None:
            continue
        split = _global_thread_form(form, launch.block_dim[0])
        if split is not None:
            accesses.append((idx, inst) + split)

    # RPL021: every thread stores a thread-varying value to one location.
    for idx, inst, stride, _offset, _params in accesses:
        if inst.opcode is not Opcode.ST or stride != 0:
            continue
        if ctx.divergent_context(idx):
            continue        # a mask may single out one thread
        if not ctx.varies(idx, inst.srcs[0]):
            continue        # uniform broadcast: rendezvous is benign
        diags.append(make_diagnostic(
            "RPL021", f"all {total_threads} threads store a "
            f"thread-varying value to the same address ({inst}); the "
            f"surviving value depends on warp scheduling", kernel, idx))

    # RPL022: distinct threads touch the same location with no barrier
    # in between (equal non-zero stride, same symbolic base, constant
    # offset delta that is a whole number of elements).
    for a in range(len(accesses)):
        i, inst_i, s_i, off_i, params_i = accesses[a]
        for b in range(a + 1, len(accesses)):
            j, inst_j, s_j, off_j, params_j = accesses[b]
            if not (inst_i.is_store or inst_j.is_store):
                continue
            if inst_i.opcode is Opcode.ATOM and \
                    inst_j.opcode is Opcode.ATOM:
                continue        # atomic add commutes with itself
            if inst_i.space is not inst_j.space:
                continue
            if s_i != s_j or s_i == 0:
                continue
            if params_i != params_j:
                continue        # different symbolic base arrays
            delta = off_j - off_i
            if delta == 0 or delta % s_i:
                continue        # same thread, or never aliasing
            if abs(delta / s_i) >= total_threads:
                continue
            if _barrier_free_path(ctx, i, j) or \
                    _barrier_free_path(ctx, j, i):
                threads = int(abs(delta / s_i))
                diags.append(make_diagnostic(
                    "RPL022", f"threads {threads} apart access the same "
                    f"location as {_loc(kernel, j)} with no intervening "
                    f"barrier", kernel, i))
    return diags


# ---------------------------------------------------------------------------
# Pass 5: queue pressure and pairing (RPL031-RPL034)
# ---------------------------------------------------------------------------

_MEM_KINDS = ("data", "addr")


def _interval_pressure(kernel: Kernel, cfg, kinds) -> int:
    """Max enqueues of the given kinds along any barrier-free path.

    Loops are approximated by one iteration (each strongly-connected
    component counts once): in-flight entries are what matters, and the
    consumer drains within an iteration.
    """
    insts = kernel.instructions
    of_kind = {Opcode.ENQ_DATA: "data", Opcode.ENQ_ADDR: "addr",
               Opcode.ENQ_PRED: "pred"}
    seg_weight: dict[tuple[int, int], int] = {}
    first_seg: dict[int, tuple[int, int]] = {}
    last_seg: dict[int, tuple[int, int]] = {}
    for block in cfg.blocks:
        seg_no, weight = 0, 0
        first_seg[block.index] = (block.index, 0)
        for idx in range(block.start, block.end):
            inst = insts[idx]
            if inst.is_barrier:
                seg_weight[(block.index, seg_no)] = weight
                seg_no += 1
                weight = 0      # a barrier drains the interval
            elif inst.is_enq and of_kind[inst.opcode] in kinds:
                weight += 1
        seg_weight[(block.index, seg_no)] = weight
        last_seg[block.index] = (block.index, seg_no)
    succs: dict[tuple[int, int], list[tuple[int, int]]] = {
        seg: [] for seg in seg_weight}
    for block in cfg.blocks:
        succs[last_seg[block.index]].extend(
            first_seg[s] for s in block.successors)
    # Longest weighted path over the condensation, in topological order.
    incoming = dict.fromkeys(seg_weight, 0)
    peak = 0
    for scc in strongly_connected_components(seg_weight, succs.__getitem__):
        best = max(incoming[m] for m in scc) + \
            sum(seg_weight[m] for m in scc)
        peak = max(peak, best)
        for m in scc:
            for nxt in succs[m]:
                incoming[nxt] = max(incoming[nxt], best)
    return peak


def queue_pass(program: DecoupledProgram,
               config: GPUConfig | None = None) -> list[Diagnostic]:
    config = config or GPUConfig()
    if not program.is_decoupled:
        return []
    dac = config.dac
    diags = []

    enq_at: dict[int, int] = {}         # queue id -> affine inst index
    enq_kind: dict[int, str] = {}
    of_kind = {Opcode.ENQ_DATA: "data", Opcode.ENQ_ADDR: "addr",
               Opcode.ENQ_PRED: "pred"}
    for idx, inst in enumerate(program.affine.instructions):
        if inst.is_enq:
            enq_at[inst.queue_id] = idx
            enq_kind[inst.queue_id] = of_kind[inst.opcode]
    deq_at: dict[int, int] = {}
    deq_kind: dict[int, str] = {}
    for idx, inst in enumerate(program.nonaffine.instructions):
        for token in _deq_tokens(inst):
            deq_at[token.queue_id] = idx
            deq_kind[token.queue_id] = token.kind

    for qid in sorted(set(deq_at) - set(enq_at)):
        diags.append(make_diagnostic(
            "RPL031", f"dequeue from queue {qid} has no matching enqueue "
            f"in the affine stream; the consumer warp starves and the "
            f"simulation hangs", program.nonaffine, deq_at[qid]))
    for qid in sorted(set(enq_at) - set(deq_at)):
        diags.append(make_diagnostic(
            "RPL032", f"enqueue to queue {qid} is never dequeued by the "
            f"non-affine stream; entries leak until the queue is "
            f"permanently full", program.affine, enq_at[qid]))

    kinds_used = set(enq_kind.values()) | set(deq_kind.values())
    atq_mem = dac.atq_entries // 2
    atq_pred = dac.atq_entries - atq_mem
    uses_mem = bool(kinds_used & set(_MEM_KINDS))
    uses_pred = "pred" in kinds_used
    if uses_mem and atq_mem == 0:
        first = min(i for q, i in enq_at.items()
                    if enq_kind[q] in _MEM_KINDS)
        diags.append(make_diagnostic(
            "RPL033", f"memory tuples are enqueued but the ATQ memory "
            f"partition has zero entries (atq_entries="
            f"{dac.atq_entries}); the affine warp can never make "
            f"progress", program.affine, first))
    if uses_pred and atq_pred == 0:
        first = min(i for q, i in enq_at.items() if enq_kind[q] == "pred")
        diags.append(make_diagnostic(
            "RPL033", f"predicate tuples are enqueued but the ATQ "
            f"predicate partition has zero entries (atq_entries="
            f"{dac.atq_entries})", program.affine, first))

    cfg = AffineAnalysis(program.affine).cfg
    for kinds, cap, label in ((set(_MEM_KINDS), atq_mem, "memory"),
                              ({"pred"}, atq_pred, "predicate")):
        if not kinds_used & kinds or cap == 0:
            continue
        pressure = _interval_pressure(program.affine, cfg, kinds)
        if pressure > cap:
            diags.append(make_diagnostic(
                "RPL034", f"up to {pressure} {label} tuples can be "
                f"in flight between barriers but the ATQ {label} "
                f"partition holds {cap}; the affine warp will stall on "
                f"back-pressure", program.affine, None))
    return diags


# ---------------------------------------------------------------------------
# Pass 6: address bounds (RPL041 / RPL042)
# ---------------------------------------------------------------------------

def bounds_pass(ctx: LintContext) -> list[Diagnostic]:
    launch = ctx.launch
    if launch is None:
        return []
    kernel, spans = ctx.kernel, ctx.spans
    memory = launch.memory
    allocations = getattr(memory, "allocations", {})
    diags = []
    for idx, inst in enumerate(kernel.instructions):
        if not inst.is_memory or inst.space is MemSpace.SHARED:
            continue
        form = ctx.address_form(idx)
        if form is None:
            continue
        if ctx.divergent_context(idx):
            continue        # a guard may clip the executed range
        offset, coeffs = form
        if any(sym not in spans for sym in coeffs):
            continue
        lo = hi = offset
        for sym, c in coeffs.items():
            s_lo, s_hi = spans[sym]
            lo += c * (s_lo if c >= 0 else s_hi)
            hi += c * (s_hi if c >= 0 else s_lo)
        if lo < 0 or hi + WORD > memory.size_bytes:
            diags.append(make_diagnostic(
                "RPL041", f"address range [{lo:g}, {hi + WORD - 1:g}] "
                f"falls outside device memory "
                f"(size {memory.size_bytes})", kernel, idx))
            continue
        param_terms = [(sym, c) for sym, c in coeffs.items()
                       if sym.startswith("param:")]
        if len(param_terms) == 1 and param_terms[0][1] == 1.0:
            pname = param_terms[0][0][len("param:"):]
            base = float(launch.params[pname])
            extent = allocations.get(int(base))
            if extent is None:
                continue
            if lo < base or hi + WORD > base + extent:
                diags.append(make_diagnostic(
                    "RPL042", f"indexing reaches [{lo - base:g}, "
                    f"{hi - base + WORD - 1:g}] relative to param "
                    f"{pname}, beyond its {extent}-byte allocation",
                    kernel, idx))
    return diags
