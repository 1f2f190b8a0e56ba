"""Functional (value-level) execution of warp instructions.

The timing models call into this module at issue time ("execute-at-issue",
the structure GPGPU-sim uses): results are computed immediately, and the
timing layer decides when dependent instructions may observe them via the
scoreboard.
"""

from __future__ import annotations

import numpy as np

from ..isa import (
    CmpOp,
    Immediate,
    Instruction,
    MemRef,
    MemSpace,
    Opcode,
    Param,
    PredReg,
    Register,
    SpecialReg,
)

CMP_FUNCS = {
    CmpOp.EQ: np.equal,
    CmpOp.NE: np.not_equal,
    CmpOp.LT: np.less,
    CmpOp.LE: np.less_equal,
    CmpOp.GT: np.greater,
    CmpOp.GE: np.greater_equal,
}


#: int64 range endpoints exactly representable in float64: -2**63 is exact;
#: the largest float64 *below* 2**63 is 2**63 - 1024 (53-bit mantissa).
_INT64_MIN_F = np.float64(-(2 ** 63))
_INT64_MAX_F = np.float64(2 ** 63 - 1024)


def _to_int(x):
    """float64 lanes -> int64 with *pinned* edge semantics.

    A plain ``astype(np.int64)`` is C-undefined for NaN and for values
    outside int64 range (and numpy both warns and produces a
    platform-dependent pattern).  The datapath instead defines: NaN -> 0,
    out-of-range -> saturate to the nearest exactly-representable int64
    endpoint.  Integers with \\|x\\| <= 2**53 (every value the integer-exact
    workloads produce) convert exactly, same as before.
    """
    arr = np.asarray(x, dtype=np.float64)
    clipped = np.clip(arr, _INT64_MIN_F, _INT64_MAX_F)
    if arr.ndim:
        nan = np.isnan(arr)
        if nan.any():
            clipped = np.where(nan, 0.0, clipped)
    elif np.isnan(arr):
        clipped = np.float64(0.0)
    return clipped.astype(np.int64)


def _shift(a, counts, left: bool):
    """64-bit shift with *pinned* out-of-range semantics: any shift count
    outside [0, 64) yields 0 (a barrel shifter flushing invalid counts).
    The C-level ``<<`` / ``>>`` is undefined there — and Python ints would
    instead grow without bound — so the semantics are made explicit and a
    regression test (tests/test_int_width.py) holds them in place."""
    values = _to_int(a)
    n = _to_int(counts)
    safe = n & 63            # always in range for the C operator
    shifted = (values << safe) if left else (values >> safe)
    return np.where((n >= 0) & (n < 64), shifted, 0).astype(np.float64)


def alu(opcode: Opcode, args: list, cmp: CmpOp | None = None):
    """Evaluate an ALU/SFU op over float64 lane arrays (or scalars)."""
    a = args[0] if args else None
    if opcode is Opcode.MOV:
        return np.asarray(a, dtype=np.float64)
    if opcode is Opcode.ADD:
        return a + args[1]
    if opcode is Opcode.SUB:
        return a - args[1]
    if opcode is Opcode.MUL:
        return a * args[1]
    if opcode is Opcode.MAD:
        return a * args[1] + args[2]
    if opcode is Opcode.DIV:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(args[1] == 0, 0.0, a / args[1])
    if opcode is Opcode.REM:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(args[1] == 0, 0.0, np.mod(a, args[1]))
    if opcode is Opcode.MIN:
        return np.minimum(a, args[1])
    if opcode is Opcode.MAX:
        return np.maximum(a, args[1])
    if opcode is Opcode.ABS:
        return np.abs(a)
    if opcode is Opcode.NEG:
        return -np.asarray(a, dtype=np.float64)
    if opcode is Opcode.AND:
        return (_to_int(a) & _to_int(args[1])).astype(np.float64)
    if opcode is Opcode.OR:
        return (_to_int(a) | _to_int(args[1])).astype(np.float64)
    if opcode is Opcode.XOR:
        return (_to_int(a) ^ _to_int(args[1])).astype(np.float64)
    if opcode is Opcode.NOT:
        return (~_to_int(a)).astype(np.float64)
    if opcode is Opcode.SHL:
        return _shift(a, args[1], left=True)
    if opcode is Opcode.SHR:
        return _shift(a, args[1], left=False)
    if opcode is Opcode.SELP:
        return np.where(args[2], a, args[1])
    if opcode is Opcode.SETP:
        return CMP_FUNCS[cmp](a, args[1])
    if opcode is Opcode.RCP:
        with np.errstate(divide="ignore"):
            return np.where(a == 0, 0.0, 1.0 / a)
    if opcode is Opcode.SQRT:
        return np.sqrt(np.abs(a))
    if opcode is Opcode.EXP:
        return np.exp(np.clip(a, -60.0, 60.0))
    if opcode is Opcode.LOG:
        return np.log(np.abs(a) + 1e-30)
    if opcode is Opcode.SIN:
        return np.sin(a)
    if opcode is Opcode.COS:
        return np.cos(a)
    raise ValueError(f"not an ALU opcode: {opcode}")


class WarpExecutor:
    """Evaluates operands and executes instructions for one warp context.

    The warp context must expose ``regs`` / ``preds`` dicts, ``special``
    scalars and per-lane thread-index arrays, the launch (for params and
    memory), and the CTA's shared memory array.
    """

    def __init__(self, warp):
        self.warp = warp

    # ---- operand evaluation ------------------------------------------

    def value(self, op):
        warp = self.warp
        if isinstance(op, Register):
            reg = warp.regs.get(op.name)
            if reg is None:
                reg = np.zeros(warp.width, dtype=np.float64)
                warp.regs[op.name] = reg
            return reg
        if isinstance(op, Immediate):
            return op.value
        if isinstance(op, Param):
            return warp.launch.params[op.name]
        if isinstance(op, SpecialReg):
            return warp.special(op.family, op.dim)
        if isinstance(op, PredReg):
            pred = warp.preds.get(op.name)
            if pred is None:
                pred = np.zeros(warp.width, dtype=bool)
                warp.preds[op.name] = pred
            return pred
        raise TypeError(f"cannot evaluate operand {op!r}")

    def addresses(self, ref: MemRef) -> np.ndarray:
        base = self.value(ref.address)
        addrs = np.asarray(base + ref.displacement, dtype=np.float64)
        if addrs.ndim == 0:
            addrs = np.full(self.warp.width, float(addrs))
        return addrs

    # ---- writeback -----------------------------------------------------

    def write(self, dst, values, mask: np.ndarray) -> None:
        warp = self.warp
        dtype = bool if isinstance(dst, PredReg) else np.float64
        current = self.value(dst)
        vals = np.asarray(values, dtype=dtype)
        if vals.shape != (warp.width,):
            vals = np.broadcast_to(vals, (warp.width,))
        full = (warp.active_all() if mask is warp.stack.active_mask
                else mask.all())
        if full:
            # Full-mask writeback (the common case): plain copy instead of
            # two boolean fancy-index operations.
            current[:] = vals
        else:
            current[mask] = vals[mask]

    # ---- instruction execution -----------------------------------------

    def guard_mask(self, inst: Instruction, base_mask: np.ndarray):
        if isinstance(inst.guard, PredReg):
            pred = self.value(inst.guard)
            return base_mask & (~pred if inst.guard_negated else pred)
        return base_mask

    def execute_alu(self, inst: Instruction, mask: np.ndarray) -> None:
        args = [self.value(s) for s in inst.srcs]
        result = alu(inst.opcode, args, inst.cmp)
        self.write(inst.dsts[0], result, mask)

    def execute_load(self, inst: Instruction, mask: np.ndarray,
                     addrs: np.ndarray) -> None:
        warp = self.warp
        if inst.space is MemSpace.SHARED:
            vals = np.zeros(warp.width, dtype=np.float64)
            idx = addrs[mask].astype(np.int64) // 4
            vals[mask] = warp.cta.shared[idx]
        else:
            vals = warp.launch.memory.load(addrs, mask)
        self.write(inst.dsts[0], vals, mask)

    def execute_store(self, inst: Instruction, mask: np.ndarray,
                      addrs: np.ndarray) -> None:
        warp = self.warp
        raw = self.value(inst.srcs[0])
        vals = np.broadcast_to(np.asarray(raw, dtype=np.float64),
                               (warp.width,))
        if inst.space is MemSpace.SHARED:
            idx = addrs[mask].astype(np.int64) // 4
            if inst.opcode is Opcode.ATOM:
                np.add.at(warp.cta.shared, idx, vals[mask])
            else:
                warp.cta.shared[idx] = vals[mask]
        elif inst.opcode is Opcode.ATOM:
            warp.launch.memory.atomic_add(addrs, vals, mask)
        else:
            warp.launch.memory.store(addrs, vals, mask)
