"""Affine tuple algebra, predicates, and the compiler type lattice."""

from .lattice import OperandClass, join, leaf_class, result_class
from .ops import apply_op
from .predicates import AffinePredicate
from .tuples import (
    AffineError,
    AffineExpr,
    AffineTuple,
    ClampExpr,
    DivergentSet,
    MAX_DIVERGENT_TUPLES,
    scalar,
)

__all__ = [
    "AffineError", "AffineExpr", "AffinePredicate", "AffineTuple",
    "ClampExpr", "DivergentSet", "MAX_DIVERGENT_TUPLES", "OperandClass",
    "apply_op", "join", "leaf_class", "result_class",
    "scalar",
]
