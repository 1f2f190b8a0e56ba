"""Runtime evaluation of ISA operations over affine expressions.

This is what the affine warp's "functional units" compute (paper §4.4: DAC
maps bases and offsets onto SIMT lanes, so one warp-instruction slot performs
a whole tuple operation).
"""

from __future__ import annotations

from ..isa import CmpOp, Opcode
from .predicates import AffinePredicate
from .tuples import (
    AffineError,
    AffineExpr,
    AffineTuple,
    ClampExpr,
    _add,
    scalar,
)


def _as_scalar(expr: AffineExpr) -> float:
    if not expr.is_scalar:
        raise AffineError(f"expected scalar, got {expr}")
    return expr.scalar_value


def _mul(a: AffineExpr, b: AffineExpr) -> AffineExpr:
    if isinstance(a, AffineTuple) and isinstance(b, AffineTuple):
        return a.mul(b)
    if b.is_scalar:
        return a.scale(_as_scalar(b))
    if a.is_scalar:
        return b.scale(_as_scalar(a))
    raise AffineError("multiplication needs a scalar operand")


def _require_tuples(*exprs: AffineExpr) -> None:
    for e in exprs:
        if not isinstance(e, AffineTuple):
            raise AffineError(f"operation needs a plain tuple, got {e}")


def _clamp(op: str, a: AffineExpr, b: AffineExpr) -> AffineExpr:
    if a.is_scalar and b.is_scalar:
        va, vb = _as_scalar(a), _as_scalar(b)
        return scalar(min(va, vb) if op == "min" else max(va, vb))
    expr = ClampExpr(op, (a, b))
    if expr.depth() > 2:
        raise AffineError("clamp nesting exceeds hardware depth")
    return expr


def apply_op(opcode: Opcode, args: list, cmp: CmpOp | None = None):
    """Apply ``opcode`` to affine-expression arguments.

    ``args`` holds :class:`AffineExpr` values (and, for ``selp``, a trailing
    :class:`AffinePredicate`).  Returns an :class:`AffineExpr`, or an
    :class:`AffinePredicate` for ``setp``.  Raises :class:`AffineError` when
    the operation cannot stay in tuple form — the compiler guarantees this
    does not happen for instructions it placed in the affine stream.
    """
    if opcode is Opcode.MOV:
        return args[0]
    if opcode is Opcode.ADD:
        return _add(args[0], args[1])
    if opcode is Opcode.SUB:
        _require_tuples(args[1])
        if isinstance(args[0], AffineTuple):
            return args[0].sub(args[1])
        return args[0].add(args[1].negate())
    if opcode is Opcode.MUL:
        return _mul(args[0], args[1])
    if opcode is Opcode.MAD:
        return _add(_mul(args[0], args[1]), args[2])
    if opcode is Opcode.NEG:
        _require_tuples(args[0])
        return args[0].negate()
    if opcode is Opcode.REM:
        _require_tuples(args[0], args[1])
        return args[0].mod(args[1])
    if opcode is Opcode.SHL:
        _require_tuples(args[1])
        if isinstance(args[0], AffineTuple):
            return args[0].shl(args[1])
        return args[0].scale(float(2 ** int(_as_scalar(args[1]))))
    if opcode is Opcode.SHR:
        _require_tuples(args[0], args[1])
        return args[0].shr(args[1])
    if opcode is Opcode.MIN:
        return _clamp("min", args[0], args[1])
    if opcode is Opcode.MAX:
        return _clamp("max", args[0], args[1])
    if opcode is Opcode.ABS:
        if args[0].is_scalar:
            return scalar(abs(_as_scalar(args[0])))
        return ClampExpr("abs", (args[0],))
    if opcode in (Opcode.AND, Opcode.OR, Opcode.XOR):
        a, b = int(_as_scalar(args[0])), int(_as_scalar(args[1]))
        ops = {Opcode.AND: a & b, Opcode.OR: a | b, Opcode.XOR: a ^ b}
        return scalar(float(ops[opcode]))
    if opcode is Opcode.NOT:
        return scalar(float(~int(_as_scalar(args[0]))))
    if opcode is Opcode.SETP:
        return AffinePredicate(cmp, args[0], args[1])
    if opcode is Opcode.SELP:
        pred = args[2]
        if isinstance(pred, AffinePredicate) and pred.is_scalar:
            return args[0] if pred.scalar_value else args[1]
        raise AffineError("selp with a non-scalar predicate is not decoupled")
    raise AffineError(f"opcode {opcode.value} is not affine-computable")
