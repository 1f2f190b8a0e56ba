"""Unit + property tests for affine tuple algebra (paper §3, §4.4, §4.6).

The central invariant: every tuple operation must agree with performing the
same arithmetic on the concrete per-thread values.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.affine import (
    AffineError,
    AffineTuple,
    ClampExpr,
    DivergentSet,
    scalar,
)

TX = np.arange(32, dtype=np.float64)
TY = np.zeros(32)
TZ = np.zeros(32)


def evaluate(t):
    return t.evaluate(TX, TY, TZ)


small_ints = st.integers(min_value=-100, max_value=100)


@st.composite
def tuples(draw, allow_mod=False):
    base = draw(small_ints)
    ox = draw(small_ints)
    t = AffineTuple(float(base), (float(ox), 0.0, 0.0))
    if allow_mod and draw(st.booleans()):
        divisor = draw(st.integers(min_value=1, max_value=64))
        t = t.mod(scalar(divisor * 4))
    return t


class TestBasics:
    def test_paper_figure1(self):
        a = AffineTuple(0x100, (4.0, 0.0, 0.0))
        b = scalar(0x200)
        c = a.add(b)
        assert c.base == 0x300 and c.offsets[0] == 4.0

    def test_scalar_properties(self):
        assert scalar(5).is_scalar
        assert scalar(5).scalar_value == 5
        assert not AffineTuple(0, (1, 0, 0)).is_scalar

    def test_scalar_value_raises_for_affine(self):
        with pytest.raises(AffineError):
            AffineTuple(0, (1, 0, 0)).scalar_value

    def test_mul_requires_scalar_side(self):
        affine = AffineTuple(0, (1, 0, 0))
        with pytest.raises(AffineError):
            affine.mul(affine)

    def test_shl(self):
        t = AffineTuple(2, (1, 0, 0)).shl(scalar(3))
        np.testing.assert_array_equal(evaluate(t), (2 + TX) * 8)

    def test_shl_of_non_integer_rejected(self):
        # The datapath truncates to int64 before shifting: 0.5 << 1 is 0.
        with pytest.raises(AffineError):
            AffineTuple(0, (0.5, 0, 0)).shl(scalar(1))

    def test_shl_count_out_of_range_rejected(self):
        with pytest.raises(AffineError):
            AffineTuple(2, (1, 0, 0)).shl(scalar(64))

    def test_shr_divisible(self):
        t = AffineTuple(8, (4, 0, 0)).shr(scalar(2))
        np.testing.assert_array_equal(evaluate(t), (8 + 4 * TX) / 4)

    def test_shr_with_carries_rejected(self):
        with pytest.raises(AffineError):
            AffineTuple(1, (4, 0, 0)).shr(scalar(1))

    def test_shr_scalar_exact(self):
        assert scalar(7).shr(scalar(1)).scalar_value == 3


class TestModTuples:
    def test_mod_matches_concrete(self):
        t = AffineTuple(100, (4, 0, 0)).mod(scalar(64))
        np.testing.assert_array_equal(evaluate(t),
                                      np.mod(100 + 4 * TX, 64))

    def test_mod_add_scalar(self):
        t = AffineTuple(100, (4, 0, 0)).mod(scalar(64)).add(scalar(1000))
        np.testing.assert_array_equal(evaluate(t),
                                      1000 + np.mod(100 + 4 * TX, 64))

    def test_mod_scale(self):
        t = AffineTuple(100, (4, 0, 0)).mod(scalar(64)).scale(2.0)
        np.testing.assert_array_equal(evaluate(t),
                                      2 * np.mod(100 + 4 * TX, 64))

    def test_mod_of_scalar_folds(self):
        t = scalar(100).mod(scalar(64))
        assert t.is_scalar and t.scalar_value == 36

    def test_mod_restrictions(self):
        m = AffineTuple(0, (1, 0, 0)).mod(scalar(8))
        with pytest.raises(AffineError):
            m.mod(scalar(4))
        with pytest.raises(AffineError):
            m.add(m)
        with pytest.raises(AffineError):
            m.negate()
        with pytest.raises(AffineError):
            m.scale(-1.0)

    def test_mod_requires_positive_scalar_divisor(self):
        with pytest.raises(AffineError):
            AffineTuple(0, (1, 0, 0)).mod(AffineTuple(0, (1, 0, 0)))
        with pytest.raises(AffineError):
            AffineTuple(0, (1, 0, 0)).mod(scalar(0))


class TestClamp:
    def test_min_matches_concrete(self):
        c = ClampExpr("min", (AffineTuple(0, (2, 0, 0)), scalar(20)))
        np.testing.assert_array_equal(evaluate(c),
                                      np.minimum(2 * TX, 20))

    def test_add_distributes(self):
        c = ClampExpr("min", (AffineTuple(0, (2, 0, 0)), scalar(20)))
        shifted = c.add(AffineTuple(5, (1, 0, 0)))
        np.testing.assert_array_equal(
            evaluate(shifted), np.minimum(2 * TX, 20) + 5 + TX)

    def test_negative_scale_swaps_min_max(self):
        c = ClampExpr("min", (AffineTuple(0, (2, 0, 0)), scalar(20)))
        neg = c.scale(-3.0)
        np.testing.assert_array_equal(evaluate(neg),
                                      -3 * np.minimum(2 * TX, 20))

    def test_abs_does_not_distribute_add(self):
        c = ClampExpr("abs", (AffineTuple(-16, (1, 0, 0)),))
        with pytest.raises(AffineError):
            c.add(scalar(1))

    def test_is_scalar(self):
        assert ClampExpr("min", (scalar(3), scalar(5))).is_scalar
        assert ClampExpr("min", (scalar(3), scalar(5))).scalar_value == 3


class TestDivergentSet:
    def test_evaluate_with_conditions(self):
        cond = TX < 10
        ds = DivergentSet(((0, scalar(0)),
                           (None, AffineTuple(0, (4, 0, 0)))))
        values = ds.evaluate_with(TX, TY, TZ, {0: cond})
        np.testing.assert_array_equal(values,
                                      np.where(cond, 0.0, 4 * TX))

    def test_add_distributes(self):
        ds = DivergentSet(((0, scalar(0)),
                           (None, AffineTuple(0, (4, 0, 0)))))
        shifted = ds.add(scalar(100))
        values = shifted.evaluate_with(TX, TY, TZ, {0: TX < 10})
        np.testing.assert_array_equal(
            values, 100 + np.where(TX < 10, 0.0, 4 * TX))

    def test_alternative_cap(self):
        alts = tuple((i, scalar(i)) for i in range(5))
        with pytest.raises(AffineError):
            DivergentSet(alts)


class TestProperties:
    @given(tuples(), tuples())
    def test_add_matches_concrete(self, a, b):
        np.testing.assert_allclose(evaluate(a.add(b)),
                                   evaluate(a) + evaluate(b))

    @given(tuples(), small_ints)
    def test_scale_matches_concrete(self, a, factor):
        np.testing.assert_allclose(evaluate(a.scale(float(factor))),
                                   evaluate(a) * factor)

    @given(tuples(), tuples())
    def test_sub_matches_concrete(self, a, b):
        np.testing.assert_allclose(evaluate(a.sub(b)),
                                   evaluate(a) - evaluate(b))

    @given(tuples(allow_mod=True), small_ints.filter(lambda v: v >= 0))
    def test_mod_tuple_add_scalar(self, a, s):
        np.testing.assert_allclose(evaluate(a.add(scalar(s))),
                                   evaluate(a) + s)

    @given(tuples(allow_mod=True),
           st.integers(min_value=0, max_value=50))
    def test_mod_tuple_scale_nonneg(self, a, s):
        np.testing.assert_allclose(evaluate(a.scale(float(s))),
                                   evaluate(a) * s)

    @given(tuples(), st.integers(min_value=1, max_value=512))
    def test_mod_matches_numpy(self, a, divisor):
        np.testing.assert_allclose(evaluate(a.mod(scalar(divisor))),
                                   np.mod(evaluate(a), divisor))
