"""The affine warp: executes the affine instruction stream on tuples.

One affine warp per SM services every non-affine warp (paper §4).  Because
tuples are parameterized over thread indices with the block index folded
into the base (DESIGN.md), the affine warp executes the affine stream once
per resident CTA; a single hardware context round-robins over the resident
CTAs' streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..affine import (
    AffineError,
    AffinePredicate,
    AffineTuple,
    DivergentSet,
    MAX_DIVERGENT_TUPLES,
    apply_op,
    scalar,
)
from ..isa import (
    Immediate,
    Instruction,
    MemRef,
    Opcode,
    Param,
    PredReg,
    Register,
    SpecialReg,
    decoded_of,
)
from ..sim.simt_stack import SIMTStack
from .queues import BarrierMarker, TupleEntry


class DecoupleRuntimeError(RuntimeError):
    """The affine warp hit a value pattern the compiler should have
    excluded — a modeling bug, surfaced loudly."""


@dataclass(frozen=True)
class ConcretePredicate:
    """A predicate that had to be materialized per thread (divergent-tuple
    operands or divergent merges).  The PEU expands these on the SIMT lanes
    (the 7% tier of §4.3)."""

    bits: np.ndarray

    @property
    def is_scalar(self) -> bool:
        return False


@dataclass(frozen=True)
class ConcreteExpr:
    """An affine-stream value expanded into concrete per-thread values.

    Paper §3: "If an affine tuple cannot be expanded into predicate bit
    vectors or addresses, then it must be expanded into concrete vector
    values by evaluating function (1) explicitly for each thread."  The
    affine warp runs on the SIMT lanes (§4.4), so this fallback is a plain
    vector operation — correct, just not compact.  ``values`` covers the
    whole CTA."""

    values: np.ndarray

    @property
    def is_scalar(self) -> bool:
        return False

    def evaluate(self, tx, ty, tz) -> np.ndarray:
        # Only called full-width (the AEU slices explicitly).
        return self.values

    def add(self, other) -> "ConcreteExpr":
        if not other.is_scalar:
            raise AffineError("concrete values only add scalars lazily")
        return ConcreteExpr(self.values + other.scalar_value)

    def scale(self, factor: float) -> "ConcreteExpr":
        return ConcreteExpr(self.values * factor)


class AffineCTAExec:
    """Affine-stream execution state for one resident CTA."""

    def __init__(self, sm, cta, kernel, cfg):
        self.sm = sm
        self.cta = cta
        self.kernel = kernel
        self.code = decoded_of(kernel)      # shared per-kernel decode cache
        self.cfg = cfg
        launch = cta.launch
        self.launch = launch
        width = launch.warps_per_block * 32
        self.width = width
        bx, by, bz = launch.block_dim
        linear = np.arange(width)
        self.valid = linear < launch.threads_per_block
        clamped = np.minimum(linear, launch.threads_per_block - 1)
        self.tx = (clamped % bx).astype(np.float64)
        self.ty = ((clamped // bx) % by).astype(np.float64)
        self.tz = (clamped // (bx * by)).astype(np.float64)
        self.stack = SIMTStack(self.valid)
        self.regs: dict[str, object] = {}
        self.preds: dict[str, object] = {}
        self.dcrf: dict[int, np.ndarray] = {}
        self._next_cond = 0
        self.done = False
        self.barriers_seen = 0
        self.last_step_concrete = False
        self.cta_warps = sorted((w for w in sm.warps if w.cta is cta),
                                key=lambda w: w.warp_in_cta)

    # ---- operand evaluation -------------------------------------------

    def _expr(self, op):
        if isinstance(op, Register):
            return self.regs.get(op.name, scalar(0.0))
        if isinstance(op, Immediate):
            return scalar(op.value)
        if isinstance(op, Param):
            return scalar(self.launch.params[op.name])
        if isinstance(op, SpecialReg):
            if op.family == "tid":
                offsets = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0),
                           "z": (0.0, 0.0, 1.0)}[op.dim]
                return AffineTuple(0.0, offsets)
            axis = "xyz".index(op.dim)
            if op.family == "ntid":
                return scalar(self.launch.block_dim[axis])
            if op.family == "ctaid":
                return scalar(self.cta.block_idx[axis])
            return scalar(self.launch.grid_dim[axis])
        if isinstance(op, PredReg):
            pred = self.preds.get(op.name)
            if pred is None:
                pred = ConcretePredicate(np.zeros(self.width, dtype=bool))
            return pred
        if isinstance(op, MemRef):
            base = self._expr(op.address)
            if op.displacement:
                return apply_op(Opcode.ADD, [base, scalar(op.displacement)])
            return base
        raise TypeError(f"affine warp cannot evaluate {op!r}")

    def pred_bits(self, pred) -> np.ndarray:
        if isinstance(pred, ConcretePredicate):
            return pred.bits
        if isinstance(pred, AffinePredicate):
            return pred.evaluate(self.tx, self.ty, self.tz)
        raise TypeError(f"not a predicate: {pred!r}")

    def eval_concrete(self, expr) -> np.ndarray:
        """Per-thread concrete values (DivergentSets use the DCRF)."""
        if isinstance(expr, DivergentSet):
            return expr.evaluate_with(self.tx, self.ty, self.tz, self.dcrf)
        if isinstance(expr, ConcreteExpr):
            return expr.values
        return expr.evaluate(self.tx, self.ty, self.tz)

    # ---- divergent writes (§4.6, runtime side) --------------------------

    def _merge_write(self, name: str, new_expr, mask: np.ndarray) -> None:
        full = bool(np.array_equal(mask & self.valid, self.valid))
        old = self.regs.get(name, scalar(0.0))
        if isinstance(new_expr, ConcreteExpr) or \
                isinstance(old, ConcreteExpr):
            if full:
                self.regs[name] = new_expr
            else:
                merged = np.where(mask, self.eval_concrete(new_expr),
                                  self.eval_concrete(old))
                self.regs[name] = ConcreteExpr(merged)
            return
        if full or str(old) == str(new_expr):
            self.regs[name] = new_expr
            return
        cond_id = self._next_cond
        self._next_cond += 1
        self.dcrf[cond_id] = mask.copy()
        self.sm.stats.add("dac.dcrf_writes")
        alternatives = [(cond_id, new_expr)]
        if isinstance(old, DivergentSet):
            alternatives.extend(old.alternatives)
        else:
            alternatives.append((None, old))
        merged = DivergentSet(tuple(alternatives))
        if merged.leaf_count() > MAX_DIVERGENT_TUPLES:
            raise DecoupleRuntimeError(
                f"register {name} exceeded {MAX_DIVERGENT_TUPLES} divergent "
                f"tuples at runtime (compiler bound violated)")
        self.regs[name] = merged

    def _merge_pred_write(self, name: str, pred, mask: np.ndarray) -> None:
        full = bool(np.array_equal(mask & self.valid, self.valid))
        if full:
            self.preds[name] = pred
            return
        new_bits = self.pred_bits(pred)
        old = self.preds.get(name)
        old_bits = (self.pred_bits(old) if old is not None
                    else np.zeros(self.width, dtype=bool))
        merged = np.where(mask, new_bits, old_bits)
        self.preds[name] = ConcretePredicate(merged)

    # ---- stepping ----------------------------------------------------------

    def current_instruction(self) -> Instruction | None:
        if self.done:
            return None
        return self.kernel.instructions[self.stack.pc]

    def effective_mask(self, inst: Instruction) -> np.ndarray:
        mask = self.stack.active_mask & self.valid
        if isinstance(inst.guard, PredReg):
            pred = self.preds.get(inst.guard.name)
            bits = (self.pred_bits(pred) if pred is not None
                    else np.zeros(self.width, dtype=bool))
            mask = mask & (~bits if inst.guard_negated else bits)
        return mask

    def ready(self, now: int) -> bool:
        if self.done:
            return False
        decoded = self.code[self.stack.pc]
        if decoded.is_enq:
            atq = (self.sm.atq_pred if decoded.opcode is Opcode.ENQ_PRED
                   else self.sm.atq_mem)
            return atq.has_space()
        return True

    def step(self, now: int) -> None:
        """Execute one affine-stream instruction (caller checked ready)."""
        inst = self.current_instruction()
        pc = self.stack.pc
        self.last_step_concrete = False
        if inst.is_exit:
            self.done = True
            return
        if inst.is_barrier:
            self.barriers_seen += 1
            marker_a = BarrierMarker(self.barriers_seen)
            marker_b = BarrierMarker(self.barriers_seen)
            self.sm.atq_mem.push(id(self.cta), marker_a)
            self.sm.atq_pred.push(id(self.cta), marker_b)
            self.stack.pc = pc + 1
            return
        if inst.is_branch:
            self._step_branch(inst, pc)
            return
        mask = self.effective_mask(inst)
        if inst.is_enq:
            self._step_enq(inst, mask, now)
            self.stack.pc = pc + 1
            return
        self._step_alu(inst, mask)
        self.stack.pc = pc + 1

    def _step_branch(self, inst: Instruction, pc: int) -> None:
        target = self.kernel.target_index(inst.target)
        if inst.guard is None:
            self.stack.pc = target
            return
        pred = self.preds.get(inst.guard.name)
        if isinstance(pred, AffinePredicate) and pred.is_scalar:
            taken = pred.scalar_value ^ inst.guard_negated
            self.stack.pc = target if taken else pc + 1
            return
        bits = (self.pred_bits(pred) if pred is not None
                else np.zeros(self.width, dtype=bool))
        if inst.guard_negated:
            bits = ~bits
        active = self.stack.active_mask & self.valid
        taken = active & bits
        ntaken = active & ~bits
        if not ntaken.any():
            self.stack.pc = target
        elif not taken.any():
            self.stack.pc = pc + 1
        else:
            rpc = self.cfg.reconvergence_pc(pc)
            self.stack.diverge(taken, ntaken, target, pc + 1, rpc)
            self._count_stack_divergence(taken, ntaken)

    def _count_stack_divergence(self, taken, ntaken) -> None:
        """Two-level Affine SIMT Stack accounting (§4.5): warps that are
        all-taken or all-not-taken only touch the Warp Level Stack; mixed
        warps also write their Per Warp Stack."""
        stats = self.sm.stats
        stats.add("dac.wls_writes")
        # Mixed warps (some taken, some not) in one vectorized pass over the
        # CTA-wide masks; adding the count once is exact (integer-valued
        # float64 accumulation, same sum as per-warp increments).
        n = len(self.cta_warps)
        mixed = (taken[:n * 32].reshape(n, 32).any(axis=1)
                 & ntaken[:n * 32].reshape(n, 32).any(axis=1))
        count = int(np.count_nonzero(mixed))
        if count:
            stats.add("dac.pws_writes", count)
        if self.stack.depth > self.sm.config.dac.stack_depth:
            stats.add("dac.stack_overflows")

    def _step_enq(self, inst: Instruction, mask: np.ndarray,
                  now: int) -> None:
        if not mask.any():
            return
        cta_key = id(self.cta)
        if inst.opcode is Opcode.ENQ_PRED:
            pred = self.preds.get(inst.srcs[0].name)
            if pred is None:
                pred = ConcretePredicate(np.zeros(self.width, dtype=bool))
            entry = TupleEntry("pred", inst.queue_id, pred, mask.copy())
            atq = self.sm.atq_pred
        else:
            expr = self._expr(inst.srcs[0])
            kind = "data" if inst.opcode is Opcode.ENQ_DATA else "addr"
            entry = TupleEntry(kind, inst.queue_id, expr, mask.copy(),
                               space=inst.space)
            entry.dcrf = self.dcrf
            atq = self.sm.atq_mem
        atq.push(cta_key, entry)
        self.sm.stats.add("dac.atq_pushes")
        if self.sm.trace_on:
            self.sm.tracer.enqueue(now, self.sm.index, entry.kind,
                                   inst.queue_id)

    def _step_alu(self, inst: Instruction, mask: np.ndarray) -> None:
        if not mask.any():
            return
        args = [self._expr(op) for op in inst.srcs]
        concrete = False
        if inst.opcode is Opcode.SETP and any(
                isinstance(a, (DivergentSet, ConcreteExpr)) for a in args):
            # Divergent-tuple / concrete operands: the predicate is
            # materialized per thread; the PEU later expands it on the SIMT
            # lanes (§4.6).
            from ..sim.executor import CMP_FUNCS
            lhs, rhs = (self.eval_concrete(a) for a in args)
            result = ConcretePredicate(CMP_FUNCS[inst.cmp](lhs, rhs))
            concrete = True
        else:
            try:
                result = apply_op(inst.opcode, args, inst.cmp)
            except AffineError:
                # §3 fallback: expand to concrete per-thread values and run
                # the operation as an ordinary vector op on the SIMT lanes.
                result = self._concrete_fallback(inst, args)
                concrete = True
        dst = inst.dsts[0]
        if isinstance(dst, PredReg) or isinstance(result,
                                                  (AffinePredicate,
                                                   ConcretePredicate)):
            self._merge_pred_write(dst.name, result, mask)
        else:
            self._merge_write(dst.name, result, mask)
        self.last_step_concrete = concrete

    def _concrete_fallback(self, inst: Instruction, args):
        from ..sim.executor import alu
        values = []
        for arg in args:
            if isinstance(arg, (AffinePredicate, ConcretePredicate)):
                values.append(self.pred_bits(arg))
            else:
                values.append(self.eval_concrete(arg))
        result = alu(inst.opcode, values, inst.cmp)
        if inst.opcode is Opcode.SETP:
            return ConcretePredicate(np.asarray(result, dtype=bool))
        return ConcreteExpr(np.broadcast_to(
            np.asarray(result, dtype=np.float64), (self.width,)).copy())



class AffineWarpHandle:
    """The single per-SM affine warp context; multiplexes the resident
    CTAs' affine streams, round-robin."""

    #: Issue-slot attribution charges the affine warp to this slot id (the
    #: tracer's ``AFFINE_SLOT``).
    slot = -1

    def __init__(self) -> None:
        self.execs: list[AffineCTAExec] = []
        self._rr = 0

    def add(self, exec_: AffineCTAExec) -> None:
        self.execs.append(exec_)

    def remove(self, exec_: AffineCTAExec) -> None:
        self.execs.remove(exec_)

    def pick_ready(self, now: int) -> AffineCTAExec | None:
        n = len(self.execs)
        for i in range(n):
            exec_ = self.execs[(self._rr + i) % n]
            if exec_.ready(now):
                self._rr = (self._rr + i + 1) % max(1, n)
                return exec_
        return None
