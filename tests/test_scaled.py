import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sl3maass.scaled import ScaledArray, ScaledComplex, scaled_sum


finite_complex = st.builds(
    complex,
    st.floats(min_value=-1e8, max_value=1e8, allow_nan=False),
    st.floats(min_value=-1e8, max_value=1e8, allow_nan=False),
).filter(lambda z: abs(z) > 1e-100)

log_scales = st.floats(min_value=-5e4, max_value=5e4, allow_nan=False)

# 0 or a magnitude in [2^-500, 2^500], either sign: both parts stay normal
# floats when scaled by the 2^-k of any such value
wide_part = st.just(0.0) | st.builds(
    lambda sign, e: sign * 2.0 ** e, st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=-500.0, max_value=500.0))


def test_zero_normalization():
    z = ScaledComplex(0j, 123.0)
    assert z.is_zero
    assert z.log_scale == 0.0
    assert z.abs() == 0.0
    assert z.log_abs() == -math.inf


@given(finite_complex, log_scales)
def test_mantissa_normalized(m, s):
    v = ScaledComplex(m, s)
    assert 0.5 <= abs(v.mantissa) < 1.0
    # represented value is preserved: compare logs
    assert math.isclose(v.log_abs(), math.log(abs(m)) + s, rel_tol=0, abs_tol=1e-9)


@given(finite_complex, finite_complex)
def test_product_matches_complex(a, b):
    va = ScaledComplex.from_complex(a)
    vb = ScaledComplex.from_complex(b)
    got = (va * vb).to_complex()
    assert cmath.isclose(got, a * b, rel_tol=1e-14)


@given(st.builds(complex, wide_part, wide_part))
def test_from_complex_round_trip_is_exact(a):
    # normalization scales by a power of two, and a scale k ln 2 is read
    # back as exactly 2^k
    assert ScaledComplex.from_complex(a).to_complex() == a


@given(finite_complex, finite_complex)
@example(99984882j, -99998721j)  # cancels to 1.4e-4 of |a|
def test_sum_matches_complex(a, b):
    got = (ScaledComplex.from_complex(a) + ScaledComplex.from_complex(b))
    want = a + b
    if want == 0:
        assert got.abs() < 1e-8 * abs(a)
    else:
        assert cmath.isclose(got.to_complex(), want, rel_tol=1e-12, abs_tol=1e-30)


def test_from_log_roundtrip():
    w = complex(-3.5, 2.25)
    v = ScaledComplex.from_log(w)
    assert cmath.isclose(v.to_complex(), cmath.exp(w), rel_tol=1e-14)


def test_extreme_scale_product_stays_finite():
    tiny = ScaledComplex.from_log(-50000.0)
    huge = ScaledComplex.from_log(+49990.0)
    prod = tiny * huge
    assert math.isclose(prod.log_abs(), -10.0, abs_tol=1e-9)


def test_scaled_sum_exact_cancellation():
    vals = [ScaledComplex.from_complex(1.0),
            ScaledComplex.from_complex(1e-18),
            ScaledComplex.from_complex(-1.0)]
    out = scaled_sum(vals)
    assert math.isclose(out.to_complex().real, 1e-18, rel_tol=1e-12)


def test_scaled_sum_common_scale():
    vals = [ScaledComplex(1.0 + 0j, 100.0), ScaledComplex(1.0 + 0j, 100.0 + math.log(2))]
    out = scaled_sum(vals)
    assert math.isclose(out.log_abs(), 100.0 + math.log(3.0), rel_tol=1e-14)


def test_rel_diff():
    a = ScaledComplex.from_complex(1.0 + 1j)
    b = ScaledComplex.from_complex((1.0 + 1j) * (1 + 1e-9))
    assert 0.5e-9 < a.rel_diff(b) < 2e-9
    assert a.rel_diff(a) == 0.0


def test_conjugate_and_neg():
    v = ScaledComplex.from_complex(2.0 - 3.0j)
    assert v.conjugate().to_complex() == (2.0 + 3.0j)
    assert (-v).to_complex() == -(2.0 - 3.0j)


@pytest.mark.parametrize("call, match", [
    (lambda: ScaledComplex(complex(math.nan, 0.0)), "non-finite scaled value"),
    (lambda: ScaledComplex(1.0, math.inf), "non-finite scaled value"),
    (lambda: ScaledArray(np.ones((2, 2)), 0.0), "1-D mantissa"),
], ids=["mantissa-nan", "scale-inf", "array-2d"])
def test_argument_guards(call, match):
    with pytest.raises(ValueError, match=match):
        call()
