"""Unit tests for bounded datatypes and mismatch annotations."""

import math

import pytest

from repro.core.datatypes import (INF, LambdaType, Mismatch,
                                  RealType, integer, lambd, real,
                                  same_kind)
from repro.errors import DatatypeError


class TestRealType:
    def test_check_accepts_in_range(self):
        assert real(0.0, 1.0).check(0.5) == 0.5

    def test_check_accepts_bounds(self):
        dt = real(0.0, 1.0)
        assert dt.check(0.0) == 0.0
        assert dt.check(1.0) == 1.0

    def test_check_accepts_int_value(self):
        assert real(0.0, 2.0).check(1) == 1.0

    def test_check_rejects_below(self):
        with pytest.raises(DatatypeError):
            real(0.0, 1.0).check(-0.1)

    def test_check_rejects_above(self):
        with pytest.raises(DatatypeError):
            real(0.0, 1.0).check(1.1)

    def test_check_rejects_nan(self):
        with pytest.raises(DatatypeError):
            real(0.0, 1.0).check(float("nan"))

    def test_check_rejects_non_numeric(self):
        with pytest.raises(DatatypeError):
            real(0.0, 1.0).check("half")

    def test_check_rejects_bool(self):
        with pytest.raises(DatatypeError):
            real(0.0, 1.0).check(True)

    def test_unbounded_range(self):
        dt = real(-INF, INF)
        assert dt.check(1e300) == 1e300

    def test_empty_range_rejected(self):
        with pytest.raises(DatatypeError):
            RealType(2.0, 1.0)

    def test_subrange(self):
        assert real(0.2, 0.8).is_subrange_of(real(0.0, 1.0))
        assert real(0.0, 1.0).is_subrange_of(real(0.0, 1.0))
        assert not real(-0.1, 0.5).is_subrange_of(real(0.0, 1.0))
        assert not real(0.5, 1.5).is_subrange_of(real(0.0, 1.0))

    def test_str_includes_mismatch(self):
        assert "mm" in str(real(0.0, 1.0, mm=(0.0, 0.1)))


class TestIntType:
    def test_check_accepts_in_range(self):
        assert integer(0, 5).check(3) == 3

    def test_check_accepts_integral_float(self):
        assert integer(0, 5).check(3.0) == 3

    def test_check_rejects_fractional(self):
        with pytest.raises(DatatypeError):
            integer(0, 5).check(3.5)

    def test_check_rejects_out_of_range(self):
        with pytest.raises(DatatypeError):
            integer(0, 1).check(2)

    def test_check_rejects_bool(self):
        with pytest.raises(DatatypeError):
            integer(0, 1).check(True)

    def test_subrange(self):
        assert integer(1, 2).is_subrange_of(integer(0, 5))
        assert not integer(0, 9).is_subrange_of(integer(0, 5))

    @pytest.mark.parametrize("bounds", [(0.5, 3), (0, 3.7), (0, INF),
                                        (-INF, 0), (0, math.nan)])
    def test_bounds_must_be_finite_integers(self, bounds):
        # Truncating them would silently change the declared range.
        with pytest.raises(DatatypeError, match="finite integers"):
            integer(*bounds)

    def test_integral_float_bounds_accepted(self):
        datatype = integer(0.0, 3.0)
        assert (datatype.lo, datatype.hi) == (0, 3)
        assert type(datatype.lo) is int and type(datatype.hi) is int


class TestLambdaType:
    def test_check_accepts_callable(self):
        fn = lambd(1).check(lambda t: t)
        assert fn(3) == 3

    def test_check_rejects_non_callable(self):
        with pytest.raises(DatatypeError):
            lambd(1).check(42)

    def test_arity_compatibility(self):
        assert lambd(2).is_subrange_of(lambd(2))
        assert not lambd(1).is_subrange_of(lambd(2))

    def test_negative_arity_rejected(self):
        with pytest.raises(DatatypeError):
            LambdaType(-1)


class TestMismatch:
    def test_sigma_absolute(self):
        assert Mismatch(0.02, 0.0).sigma(0.0) == 0.02

    def test_sigma_relative(self):
        assert Mismatch(0.0, 0.1).sigma(2.0) == pytest.approx(0.2)

    def test_sigma_combined(self):
        assert Mismatch(0.01, 0.1).sigma(1.0) == pytest.approx(0.11)

    def test_sigma_uses_magnitude(self):
        assert Mismatch(0.0, 0.1).sigma(-2.0) == pytest.approx(0.2)

    def test_negative_components_rejected(self):
        with pytest.raises(DatatypeError):
            Mismatch(-0.1, 0.0)


def test_same_kind():
    assert same_kind(real(0, 1), real(5, 6))
    assert same_kind(integer(0, 1), integer(5, 6))
    assert not same_kind(real(0, 1), integer(0, 1))
    assert not same_kind(lambd(1), real(0, 1))


def test_inf_constant():
    assert math.isinf(INF)
