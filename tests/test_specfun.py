import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sl3maass.errors import DomainError, PoleError, UnderflowError
from sl3maass.specfun import (BesselOrder, GammaRatioSpec, bessel_k,
                              bessel_k_mellin, bessel_k_prime,
                              bessel_k_prime_scaled, bessel_k_scaled,
                              gamma_ratio, log_gamma, pochhammer)


# ---------------------------------------------------------------------------
# oracles local to the tests (independent of the library paths they check)
# ---------------------------------------------------------------------------

EULER_GAMMA = 0.5772156649015328606

def k0_series(x: float, terms: int = 60) -> float:
    """Ascending series K_0(x) = -(log(x/2)+g) I_0(x) + sum H_k (x^2/4)^k/(k!)^2."""
    q = x * x / 4.0
    i0 = 0.0
    s = 0.0
    term = 1.0
    h = 0.0
    for k in range(terms):
        if k > 0:
            term *= q / (k * k)
            h += 1.0 / k
        i0 += term
        s += term * h
    return -(math.log(x / 2.0) + EULER_GAMMA) * i0 + s


def k1_series(x: float, terms: int = 60) -> float:
    """Ascending series for K_1 from the n = 1 ascending expansion."""
    q = x * x / 4.0
    # I_1(x) = (x/2) sum q^k / (k!(k+1)!)
    i1 = 0.0
    term = 1.0
    for k in range(terms):
        if k > 0:
            term *= q / (k * (k + 1))
        i1 += term
    i1 *= x / 2.0
    # K_1 = 1/x + log(x/2) I_1 - (x/4) sum [psi(k+1)+psi(k+2)] q^k/(k!(k+1)!)
    s = 0.0
    term = 1.0
    psi1 = -EULER_GAMMA
    psi2 = 1.0 - EULER_GAMMA
    for k in range(terms):
        if k > 0:
            term *= q / (k * (k + 1))
            psi1 += 1.0 / k
            psi2 += 1.0 / (k + 1)
        s += (psi1 + psi2) * term
    return 1.0 / x + math.log(x / 2.0) * i1 - (x / 4.0) * s


K0_AT_1 = 0.42102443824070834  # frozen from k0_series(1.0)


# ---------------------------------------------------------------------------
# log gamma
# ---------------------------------------------------------------------------

def test_log_gamma_at_one_and_half():
    assert abs(log_gamma(1.0)) < 1e-13
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-13


def test_log_gamma_recursion_at_complex_point():
    s = 0.5 + 3.0j
    ratio = cmath.exp(log_gamma(s + 1) - log_gamma(s))
    assert abs(ratio - s) <= 1e-13 * abs(s)


def test_log_gamma_recursion_grid():
    # Re(s) > 0, |s| < 30
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = complex(rng.uniform(0.05, 20.0), rng.uniform(-25.0, 25.0))
        ratio = cmath.exp(log_gamma(s + 1) - log_gamma(s) - cmath.log(s))
        assert abs(ratio - 1.0) < 1e-13


def test_log_gamma_against_scipy():
    from scipy.special import loggamma as ref
    rng = np.random.default_rng(11)
    pts = [complex(rng.uniform(-20, 30), rng.uniform(-50, 50)) for _ in range(300)]
    pts = [s for s in pts if min(abs(s - n) for n in range(-25, 1)) > 1e-3]
    for s in pts:
        assert abs(cmath.exp(log_gamma(s) - complex(ref(s))) - 1.0) < 5e-13


def test_log_gamma_vectorized_matches_scalar():
    z = np.array([0.5 + 3j, 2.0 - 1j, -3.3 + 0.25j])
    arr = log_gamma(z)
    for i, s in enumerate(z):
        assert abs(arr[i] - log_gamma(complex(s))) < 1e-13


def test_log_gamma_pole():
    with pytest.raises(PoleError):
        log_gamma(0.0)
    with pytest.raises(PoleError):
        log_gamma(-3.0 + 1e-13j)


# ---------------------------------------------------------------------------
# gamma ratios
# ---------------------------------------------------------------------------

def test_gamma_ratio_trivial():
    assert abs(gamma_ratio(GammaRatioSpec([2.0], [1.0])).to_complex() - 1.0) < 1e-14
    assert abs(gamma_ratio(GammaRatioSpec()).to_complex() - 1.0) == 0.0


def test_gamma_ratio_reflection_oracle():
    # |Gamma(1/2 + 10i)|^2 = pi / cosh(10 pi)
    v = gamma_ratio(GammaRatioSpec([0.5 + 10j, 0.5 - 10j])).to_complex()
    ref = math.pi / math.cosh(10.0 * math.pi)
    assert abs(v.real - ref) < 1e-12 * ref
    assert abs(v.imag) < 1e-12 * ref


def test_gamma_ratio_poles():
    with pytest.raises(PoleError):
        gamma_ratio(GammaRatioSpec([-2.0]))
    assert gamma_ratio(GammaRatioSpec([1.0], [-3.0])).is_zero


# ---------------------------------------------------------------------------
# pochhammer
# ---------------------------------------------------------------------------

def test_pochhammer_trivial():
    assert pochhammer(3.7 - 2j, 0) == 1
    assert pochhammer(1.0, 4) == 24.0
    v = pochhammer(-1.5, 2)
    assert abs(v - 0.75) < 1e-15
    # matches (-1)^2 Gamma(2.5)/Gamma(0.5)
    ref = cmath.exp(log_gamma(2.5) - log_gamma(0.5))
    assert abs(v - ref) < 1e-13


@settings(max_examples=150)
@given(st.complex_numbers(max_magnitude=12.0, allow_nan=False, allow_infinity=False),
       st.integers(min_value=0, max_value=30))
def test_pochhammer_gamma_identity(x, n):
    # (1-x)_n Gamma(x-n) = (-1)^n Gamma(x), away from poles of either side
    if min(abs((x - n) - k) for k in range(-50, 1)) < 0.05:
        return
    if min(abs(x - k) for k in range(-50, 1)) < 0.05:
        return
    lhs = pochhammer(1 - x, n) * cmath.exp(log_gamma(x - n))
    rhs = (-1.0) ** n * cmath.exp(log_gamma(x))
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


# ---------------------------------------------------------------------------
# K-Bessel
# ---------------------------------------------------------------------------

def test_bessel_order_validation():
    with pytest.raises(DomainError):
        BesselOrder(0.5 + 1j)
    assert BesselOrder(3j).t == 3.0


def test_k0_at_1_against_series_oracle():
    assert abs(k0_series(1.0) - K0_AT_1) < 1e-15
    assert abs(bessel_k(0.0, 1.0) - K0_AT_1) < 1e-12


def test_kprime_is_minus_k1():
    for x in (0.5, 1.0, 3.0):
        ref = -k1_series(x)
        assert abs(bessel_k_prime(0.0, x) - ref) < 1e-10 * abs(ref)


def test_dual_backend_agreement_grid():
    for m in (0.0, 1.0, 10.0, 40.0):
        for x in (0.5, 2.0, 10.0):
            a = bessel_k(1j * m, x)
            b = bessel_k_mellin(1j * m, x)
            assert abs(a - b) <= 1e-9 * abs(b), (m, x, a, b)


def test_dual_backend_at_large_argument():
    # order from the first spectral gap of the cross-validation suite
    m = 2.0 * 9.533695
    a = bessel_k(1j * m, 20.0)
    b = bessel_k_mellin(1j * m, 20.0)
    assert abs(a - b) <= 1e-10 * abs(b)


def test_bessel_differential_equation():
    # second difference of K matches ((x^2 + mu^2) K - x K') / x^2
    h = 1e-4
    for m, x in [(0.0, 0.5), (0.0, 2.0), (1.0, 1.0), (5.0, 2.0), (10.0, 2.0)]:
        mu = 1j * m
        k = bessel_k(mu, x)
        kp = bessel_k_prime(mu, x)
        second = (bessel_k(mu, x + h) - 2.0 * k + bessel_k(mu, x - h)) / (h * h)
        rhs = ((x * x + (mu * mu).real) * k - x * kp) / (x * x)
        scale = max(abs(rhs), abs(k))
        assert abs(second - rhs) < 1e-6 * scale, (m, x)


def test_bessel_is_real_valued():
    for m in (0.0, 2.5, 17.0):
        for x in (0.1, 1.0, 30.0):
            v = bessel_k_scaled(1j * m, x)
            assert v.mantissa.imag == 0.0


def test_bessel_decay():
    # K(2x)/K(x) < exp(-x/2) on the decay side of the transition
    for m in (0.0, 1.0, 2.0):
        for x in (5.0, 10.0):
            r = bessel_k(1j * m, 2 * x) / bessel_k(1j * m, x)
            assert r < math.exp(-x / 2.0)


def test_bessel_domain_and_underflow():
    with pytest.raises(DomainError):
        bessel_k(0.0, -1.0)
    with pytest.raises(DomainError):
        bessel_k(0.0, 0.0)
    with pytest.raises(UnderflowError):
        bessel_k(0.0, 800.0)
    # scaled variant survives deep in the tail: K_0(800) ~ sqrt(pi/1600) e^-800
    v = bessel_k_scaled(0.0, 800.0)
    assert abs(v.log_abs() - (-800.0 + 0.5 * math.log(math.pi / 1600.0))) < 1e-2


def test_bessel_scaled_consistency():
    for m, x in [(0.0, 1.0), (12.0, 3.0), (19.06739, 2.0)]:
        sc = bessel_k_scaled(1j * m, x)
        assert abs(sc.to_complex().real - bessel_k(1j * m, x)) == 0.0
        scp = bessel_k_prime_scaled(1j * m, x)
        assert abs(scp.to_complex().real - bessel_k_prime(1j * m, x)) == 0.0


def test_bessel_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for m in (0.0, 1.0, 7.3, 19.06739, 40.0):
        for x in (0.3, 1.0, 5.0, 20.0):
            ref = float(mp.re(mp.besselk(1j * m, x)))
            got = bessel_k(1j * m, x)
            assert abs(got - ref) <= 5e-13 * abs(ref), (m, x)
    # derivative against a high-precision central difference
    h = mp.mpf("1e-10")
    for m, x in ((3.0, 1.5), (10.0, 2.0)):
        ref = float(mp.re(mp.besselk(1j * m, x + h) - mp.besselk(1j * m, x - h)) / (2 * h))
        got = bessel_k_prime(1j * m, x)
        assert abs(got - ref) <= 1e-8 * abs(ref), (m, x)


# ---------------------------------------------------------------------------
# K-Bessel over an argument vector
# ---------------------------------------------------------------------------

LIFT_M = 19.06739
GEN_M = 2.45
# the LIFT order switches from the shifted contour to the real-axis rule
# at x = pi m / 2 - 8 (about 21.95); these arguments sit on both sides.
# Just past the switch the real-axis rule cancels ~e^8; with the exponent
# x (cosh t - 1) formed as 2 x sinh(t/2)^2 it still holds ~1e-13 there
LIFT_XS = np.array([0.3, 1.0, 5.0, 12.0, 20.0, 21.5, 21.9,
                    22.0, 23.0, 25.0, 27.0, 29.0, 30.0, 40.0])
GEN_XS = np.array([0.05, 0.3, 1.0, 3.7, 8.0, 20.0, 60.0])


def test_bessel_array_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for m, xs in ((LIFT_M, LIFT_XS), (GEN_M, GEN_XS)):
        k = bessel_k_scaled(1j * m, xs)
        kp = bessel_k_prime_scaled(1j * m, xs)
        assert len(k) == len(kp) == len(xs)
        for i, x in enumerate(xs.tolist()):
            ref = mp.re(mp.besselk(1j * m, x))
            # K'_mu = -(K_{mu-1} + K_{mu+1}) / 2
            ref_p = -mp.re(mp.besselk(1j * m - 1, x) + mp.besselk(1j * m + 1, x)) / 2
            got = mp.mpf(k.mantissa[i]) * mp.exp(k.log_scale[i])
            got_p = mp.mpf(kp.mantissa[i]) * mp.exp(kp.log_scale[i])
            assert abs(got - ref) <= 5e-13 * abs(ref), (m, x)
            assert abs(got_p - ref_p) <= 1e-8 * abs(ref_p), (m, x)


def test_bessel_array_equals_scalar_calls():
    # determinism contract: every element is reduced from its own samples
    # only, so neither the other elements nor the order changes its bits
    rng = np.random.default_rng(5)
    for m, xs in ((LIFT_M, LIFT_XS), (GEN_M, GEN_XS), (0.0, GEN_XS)):
        xs = np.concatenate([xs, rng.uniform(0.1, 40.0, 20)])
        for fn in (bessel_k_scaled, bessel_k_prime_scaled):
            batch = fn(1j * m, xs)
            backwards = fn(1j * m, xs[::-1])
            for i, x in enumerate(xs.tolist()):
                one = fn(1j * m, x)
                assert batch.item(i) == one, (fn.__name__, m, x)
                assert backwards.item(len(xs) - 1 - i) == one


def test_bessel_large_argument_step():
    """Past x ~ 1755 the real-axis step of 1/64 no longer resolves the
    exp(-x t^2 / 2) envelope: K at x = 2 pi 1000 was 5e-6 off.  The step
    halves per factor 4 in x, and an array of arguments on several steps
    still equals the scalar calls.  The exponent x (cosh t - 1) is formed
    without subtraction, so the error does not grow with x: forming
    cosh t - 1 by subtraction left K at x = 1e5 1e-11 off."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    xs = np.array([30.0, 1500.0, 3000.0, 2000.0 * math.pi, 3e4, 1e5])
    for m in (0.65, GEN_M):
        k = bessel_k_scaled(1j * m, xs)
        kp = bessel_k_prime_scaled(1j * m, xs)
        for i, x in enumerate(xs.tolist()):
            assert k.item(i) == bessel_k_scaled(1j * m, x)
            assert kp.item(i) == bessel_k_prime_scaled(1j * m, x)
            ref = mp.re(mp.besselk(1j * m, x))
            ref_p = -mp.re(mp.besselk(1j * m - 1, x) + mp.besselk(1j * m + 1, x)) / 2
            got = mp.mpf(k.mantissa[i]) * mp.exp(k.log_scale[i])
            got_p = mp.mpf(kp.mantissa[i]) * mp.exp(kp.log_scale[i])
            assert abs(got - ref) <= 5e-13 * abs(ref), (m, x)
            assert abs(got_p - ref_p) <= 5e-13 * abs(ref_p), (m, x)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_bessel_array_rejects_any_bad_element(bad):
    xs = np.array([0.5, 2.0, bad, 3.0])
    for fn in (bessel_k_scaled, bessel_k_prime_scaled):
        with pytest.raises(DomainError):
            fn(1j * LIFT_M, xs)

