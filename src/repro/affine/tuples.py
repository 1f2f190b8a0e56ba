"""Affine tuple algebra (paper §3, §4.4, §4.6).

An affine operand's per-thread value is ``base + Σ_d offset_d · tid_d`` where
``d`` ranges over the up-to-3 thread-index dimensions.  Following the design
decision in DESIGN.md, the block index contribution is folded into ``base``
(the AEU recomputes the base once per CTA, Fig. 11 ①), so a tuple carries one
base plus three thread-dimension offsets.

Three expression forms exist:

* :class:`AffineTuple` — the plain linear form, optionally carrying the
  mod-type extension fields ``(mod_base, divisor)`` of §4.4, in which case
  the value is ``base + ((mod_base + Σ offset·tid) mod divisor)``.
* :class:`ClampExpr` — ``min``/``max``/``abs``/``selp`` over affine operands
  (§4.6 "instructions that incorporate both value assignment and
  predication").
* :class:`DivergentSet` — up to four guarded tuples produced by control-flow
  divergence (§4.6); the guard is a DCRF condition id resolved per thread at
  expansion time.

All forms can be *evaluated* into concrete per-thread values; the simple
forms can also participate in further affine arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: §4.6: at most 2 divergent conditions — hence at most 4 guarded tuples —
#: may influence a decoupled operand.
MAX_DIVERGENT_TUPLES = 4


class AffineError(Exception):
    """An operation is not expressible in affine-tuple form."""


@dataclass(frozen=True)
class AffineTuple:
    """``base + Σ offsets[d]·tid[d]``, optionally modulo-adjusted (§4.4)."""

    base: float
    offsets: tuple[float, float, float] = (0.0, 0.0, 0.0)
    mod_base: float = 0.0
    divisor: float = 0.0          # 0 means "not a mod-type tuple"

    # ---- classification ------------------------------------------------

    @property
    def is_mod(self) -> bool:
        return self.divisor != 0.0

    @property
    def is_scalar(self) -> bool:
        """All threads share one value (offset 0 in every dimension)."""
        return not self.is_mod and all(o == 0.0 for o in self.offsets)

    @property
    def scalar_value(self) -> float:
        if not self.is_scalar:
            raise AffineError("tuple is not scalar")
        return self.base

    # ---- evaluation ----------------------------------------------------

    def evaluate(self, tx: np.ndarray, ty: np.ndarray,
                 tz: np.ndarray) -> np.ndarray:
        """Concrete per-thread values for the given thread-index arrays."""
        lin = (self.offsets[0] * tx + self.offsets[1] * ty
               + self.offsets[2] * tz)
        if self.is_mod:
            return self.base + np.mod(self.mod_base + lin, self.divisor)
        return self.base + lin

    def value_at(self, tx: float, ty: float = 0.0, tz: float = 0.0) -> float:
        lin = (self.offsets[0] * tx + self.offsets[1] * ty
               + self.offsets[2] * tz)
        if self.is_mod:
            return self.base + float(np.mod(self.mod_base + lin,
                                            self.divisor))
        return self.base + lin

    # ---- arithmetic (paper Eq. 2 and 3, §4.4 mod rules) -----------------

    def add(self, other: "AffineTuple") -> "AffineTuple":
        if self.is_mod and other.is_mod:
            raise AffineError("cannot add two mod-type tuples")
        if self.is_mod or other.is_mod:
            mod, plain = (self, other) if self.is_mod else (other, self)
            if not plain.is_scalar:
                raise AffineError("mod-type tuple only adds with a scalar")
            return AffineTuple(mod.base + plain.base, mod.offsets,
                               mod.mod_base, mod.divisor)
        return AffineTuple(
            self.base + other.base,
            tuple(a + b for a, b in zip(self.offsets, other.offsets)))

    def negate(self) -> "AffineTuple":
        if self.is_mod:
            raise AffineError("cannot negate a mod-type tuple")
        return AffineTuple(-self.base, tuple(-o for o in self.offsets))

    def sub(self, other: "AffineTuple") -> "AffineTuple":
        if other.is_mod:
            raise AffineError("cannot subtract a mod-type tuple")
        return self.add(other.negate())

    def scale(self, factor: float) -> "AffineTuple":
        """Multiply by a scalar.  Mod-type tuples scale every field,
        including the divisor (§4.4)."""
        if self.is_mod:
            if factor < 0:
                raise AffineError("mod-type tuples scale by >= 0 only")
            if factor == 0:
                return AffineTuple(0.0)
            return AffineTuple(self.base * factor,
                               tuple(o * factor for o in self.offsets),
                               self.mod_base * factor,
                               self.divisor * factor)
        return AffineTuple(self.base * factor,
                           tuple(o * factor for o in self.offsets))

    def mul(self, other: "AffineTuple") -> "AffineTuple":
        """Multiplication: at least one side must be scalar (Eq. 3)."""
        if other.is_scalar:
            return self.scale(other.base)
        if self.is_scalar:
            return other.scale(self.base)
        raise AffineError("multiplication of two non-scalar affine operands")

    def mod(self, divisor: "AffineTuple") -> "AffineTuple":
        """``self mod divisor`` with a scalar positive divisor (§4.4)."""
        if self.is_mod:
            raise AffineError("cannot re-mod a mod-type tuple")
        if not divisor.is_scalar or divisor.base <= 0:
            raise AffineError("mod divisor must be a positive scalar")
        m = divisor.base
        if self.is_scalar:
            return AffineTuple(float(np.mod(self.base, m)))
        return AffineTuple(0.0, self.offsets,
                           mod_base=float(np.mod(self.base, m)), divisor=m)

    def shl(self, amount: "AffineTuple") -> "AffineTuple":
        """Left shift as a scale: exact only when every field is an
        integer (the datapath truncates each lane to int64 first) and the
        count is in [0, 64) — otherwise the affine warp falls back to
        non-affine execution."""
        if not amount.is_scalar:
            raise AffineError("shift amount must be scalar")
        count = int(amount.base)
        if not 0 <= count < 64:
            raise AffineError("shift count out of range")
        fields = (self.base, *self.offsets, self.mod_base, self.divisor)
        if not all(float(f).is_integer() for f in fields):
            raise AffineError("left shift of a non-integer is not affine")
        return self.scale(float(2 ** count))

    def shr(self, amount: "AffineTuple") -> "AffineTuple":
        """Right shift: exact only when base and offsets are divisible by
        ``2**amount`` — the affine warp checks the concrete values and falls
        back to non-affine execution otherwise (the compiler keeps such
        instructions out of the affine stream for our workloads)."""
        if not amount.is_scalar:
            raise AffineError("shift amount must be scalar")
        if self.is_mod:
            raise AffineError("cannot shift a mod-type tuple")
        if self.is_scalar:
            # Scalar >> scalar is an exact integer shift.
            return AffineTuple(float(int(self.base) >> int(amount.base)))
        div = float(2 ** int(amount.base))
        fields = (self.base, *self.offsets)
        if any(f % div for f in fields):
            raise AffineError("right shift with carries is not affine")
        return AffineTuple(self.base / div,
                           tuple(o / div for o in self.offsets))

    def __str__(self) -> str:
        if self.is_mod:
            return (f"({self.base:g}, {self.offsets}, "
                    f"mod {self.mod_base:g} % {self.divisor:g})")
        return f"({self.base:g}, {self.offsets})"


def scalar(value: float) -> AffineTuple:
    """A scalar tuple: every thread sees the same value."""
    return AffineTuple(float(value))


@dataclass(frozen=True)
class ClampExpr:
    """``min``/``max``/``abs``/``selp`` over affine operands (§4.6).

    These ops fold predication into value assignment, so the result is no
    longer a single linear tuple; it stays cheaply expandable because the
    PEU-style endpoint test resolves each warp with two comparisons.
    """

    op: str                               # "min" | "max" | "abs" | "selp"
    args: tuple["AffineExpr", ...]

    def __post_init__(self) -> None:
        if self.op not in ("min", "max", "abs", "selp"):
            raise AffineError(f"unsupported clamp op: {self.op}")

    @property
    def is_scalar(self) -> bool:
        return all(a.is_scalar for a in self.args)

    @property
    def scalar_value(self) -> float:
        return float(self.evaluate(np.zeros(1), np.zeros(1), np.zeros(1))[0])

    def evaluate(self, tx, ty, tz) -> np.ndarray:
        vals = [a.evaluate(tx, ty, tz) for a in self.args]
        if self.op == "min":
            return np.minimum(vals[0], vals[1])
        if self.op == "max":
            return np.maximum(vals[0], vals[1])
        if self.op == "abs":
            return np.abs(vals[0])
        # selp: args = (then, else, cond) with cond > 0.5 meaning true.
        return np.where(vals[2] > 0.5, vals[0], vals[1])

    def add(self, other: "AffineExpr") -> "ClampExpr":
        """Adding a tuple distributes into min/max/selp branches (pointwise
        ``min(a,b) + t == min(a+t, b+t)``); abs does not distribute."""
        if self.op == "abs" or isinstance(other, (ClampExpr, DivergentSet)):
            raise AffineError(f"cannot add {other} to {self.op} expression")
        if self.op == "selp":
            then, other_branch, cond = self.args
            return ClampExpr("selp",
                             (_add(then, other), _add(other_branch, other),
                              cond))
        return ClampExpr(self.op, tuple(_add(a, other) for a in self.args))

    def scale(self, factor: float) -> "ClampExpr":
        if self.op == "abs":
            if factor < 0:
                raise AffineError("cannot scale abs by a negative")
            return ClampExpr("abs", tuple(_scale(a, factor)
                                          for a in self.args))
        op = self.op
        if factor < 0 and op in ("min", "max"):
            op = "max" if op == "min" else "min"
        if op == "selp":
            then, other_branch, cond = self.args
            return ClampExpr("selp", (_scale(then, factor),
                                      _scale(other_branch, factor), cond))
        return ClampExpr(op, tuple(_scale(a, factor) for a in self.args))

    def depth(self) -> int:
        return 1 + max((a.depth() if isinstance(a, ClampExpr) else 0)
                       for a in self.args)

    def __str__(self) -> str:
        return f"{self.op}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class DivergentSet:
    """Guarded alternative tuples from control-flow divergence (§4.6).

    Each alternative is ``(condition_id, expr)``; ``condition_id`` indexes a
    DCRF entry whose per-thread bit vector says which threads take that
    alternative.  ``None`` marks the default (fall-through) alternative.
    """

    alternatives: tuple[tuple[int | None, "AffineExpr"], ...]

    def __post_init__(self) -> None:
        if not 2 <= len(self.alternatives) <= MAX_DIVERGENT_TUPLES:
            raise AffineError(
                f"divergent set must have 2..{MAX_DIVERGENT_TUPLES} "
                f"alternatives, got {len(self.alternatives)}")

    @property
    def is_scalar(self) -> bool:
        return False

    def add(self, other: "AffineExpr") -> "DivergentSet":
        return DivergentSet(tuple((c, _add(e, other))
                                  for c, e in self.alternatives))

    def scale(self, factor: float) -> "DivergentSet":
        return DivergentSet(tuple((c, _scale(e, factor))
                                  for c, e in self.alternatives))

    def evaluate_with(self, tx, ty, tz, condition_bits) -> np.ndarray:
        """Evaluate choosing per-thread alternatives.

        ``condition_bits`` maps condition_id -> bool array over threads.
        Alternatives are tried in order; the default (``None``) catches the
        remaining threads.
        """
        out = np.zeros_like(tx, dtype=np.float64)
        remaining = np.ones_like(tx, dtype=bool)
        for cond_id, expr in self.alternatives:
            mask = (remaining if cond_id is None
                    else remaining & condition_bits[cond_id])
            if mask.any():
                if isinstance(expr, DivergentSet):
                    # A divergent value written under divergence nests; its
                    # guards were snapshotted at creation, so recursion with
                    # the same DCRF is exact.
                    values = expr.evaluate_with(tx, ty, tz, condition_bits)
                else:
                    values = expr.evaluate(tx, ty, tz)
                out[mask] = values[mask]
            remaining &= ~mask
        return out

    def leaf_count(self) -> int:
        """Total guarded tuples, flattening nesting — the quantity the
        hardware's 4-tuple budget (§4.6) bounds."""
        total = 0
        for _, expr in self.alternatives:
            total += (expr.leaf_count() if isinstance(expr, DivergentSet)
                      else 1)
        return total

    def __str__(self) -> str:
        alts = ", ".join(f"[c{c}] {e}" for c, e in self.alternatives)
        return f"{{{alts}}}"


AffineExpr = AffineTuple | ClampExpr | DivergentSet


def _add(a: AffineExpr, b: AffineExpr) -> AffineExpr:
    if isinstance(a, AffineTuple) and isinstance(b, AffineTuple):
        return a.add(b)
    if isinstance(a, (ClampExpr, DivergentSet)):
        return a.add(b)
    if isinstance(b, (ClampExpr, DivergentSet)):
        return b.add(a)
    raise AffineError(f"cannot add {a} and {b}")


def _scale(a: AffineExpr, factor: float) -> AffineExpr:
    return a.scale(factor)
