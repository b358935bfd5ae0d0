import cmath
import math

import numpy as np
import pytest

from sl3maass import specfun
from sl3maass.errors import DomainError, PoleError, UnderflowError
from sl3maass.scaled import ScaledArray, ScaledComplex
from sl3maass.specfun import (bessel_k, bessel_k_mellin, bessel_k_prime,
                              bessel_k_pair_scaled, bessel_k_prime_scaled,
                              bessel_k_scaled, log_gamma)


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
# gamma ratios, as sums of log_gamma values in scaled form (the origin
# series forms its gamma prefactors this way)
# ---------------------------------------------------------------------------

def test_gamma_ratio_trivial():
    ratio = ScaledComplex.from_log(log_gamma(2.0) - log_gamma(1.0))
    assert abs(ratio.to_complex() - 1.0) < 1e-14
    # the empty sum, 0j, is exactly 1
    assert abs(ScaledComplex.from_log(0j).to_complex() - 1.0) == 0.0


def test_gamma_ratio_reflection_oracle():
    # |Gamma(1/2 + 10i)|^2 = pi / cosh(10 pi)
    v = ScaledComplex.from_log(log_gamma(0.5 + 10j) + log_gamma(0.5 - 10j)).to_complex()
    ref = math.pi / math.cosh(10.0 * math.pi)
    assert abs(v.real - ref) < 1e-12 * ref
    assert abs(v.imag) < 1e-12 * ref


def test_gamma_ratio_poles():
    with pytest.raises(PoleError):
        log_gamma(-2.0)


# ---------------------------------------------------------------------------
# K-Bessel
# ---------------------------------------------------------------------------

def test_bessel_order_validation():
    with pytest.raises(DomainError, match="purely imaginary"):
        bessel_k_scaled(0.5 + 1j, 1.0)
    # K depends on |Im mu| alone
    assert repr(bessel_k_scaled(3j, 1.0)) == repr(bessel_k_scaled(-3j, 1.0))


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


@pytest.mark.parametrize("m", [0.0, 10.0, 19.067])
def test_mellin_backend_against_mpmath_at_large_argument(m):
    # the summed terms carry (x/2)^-sigma; a tail walk stopped by the
    # transform's size alone left m = 0 wrong by 0.82 at x = 22
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for x in (16.0, 22.0, 30.0, 40.0):
        ref = float(mp.re(mp.besselk(1j * m, x)))
        assert abs(bessel_k_mellin(1j * m, x) - ref) <= 1e-12 * abs(ref), x


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
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="must be positive"):
            bessel_k_mellin(3j, bad)
    with pytest.raises(ValueError, match="scalar or 1-D array"):
        bessel_k_scaled(3j, np.ones((2, 2)))
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
# the LIFT order switches from the steepest-descent contour to the real-axis rule
# at x* = 24.21, where env + x = -8 (_k_envelope); these arguments sit on both
# sides.  Just past the switch the real-axis rule cancels ~e^8; with the
# exponent x (cosh t - 1) formed as 2 x sinh(t/2)^2 it still holds ~1e-13 there
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


# at the lift order: the steepest-descent contour, and the real axis at 0
# to 3 step halvings
EVERY_RULE_XS = np.array([0.3, 12.0, 21.9, 22.0, 25.0, 40.0, 1500.0, 3000.0, 3e4, 1e5])


def test_bessel_one_call_on_every_rule(monkeypatch):
    """At the lift order the switch is at x* ~ 24.21 and the axis step
    first halves past x ~ 2496, so one array reaches the steepest-descent
    contour and the real axis at 0 to 3 step halvings.  Each group is
    summed by one call, and every element equals its scalar call in either
    order."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    xs = EVERY_RULE_XS
    keys = []
    line = specfun._bessel_line

    def spy(m, x, derivatives, key, h):
        keys.append((key, x.tolist()))
        return line(m, x, derivatives, key, h)

    monkeypatch.setattr(specfun, "_bessel_line", spy)
    k = bessel_k_scaled(1j * LIFT_M, xs)
    assert sorted(keys) == [(-1, [0.3, 12.0, 21.9, 22.0]), (0, [25.0, 40.0, 1500.0]),
                            (1, [3000.0]), (2, [3e4]), (3, [1e5])]
    kp = bessel_k_prime_scaled(1j * LIFT_M, xs)
    for fn, batch in ((bessel_k_scaled, k), (bessel_k_prime_scaled, kp)):
        backwards = fn(1j * LIFT_M, xs[::-1])
        for i, x in enumerate(xs.tolist()):
            one = fn(1j * LIFT_M, x)
            assert batch.item(i) == one, (fn.__name__, x)
            assert backwards.item(len(xs) - 1 - i) == one
    for i, x in enumerate(xs.tolist()):
        ref = mp.re(mp.besselk(1j * LIFT_M, x))
        ref_p = -mp.re(mp.besselk(1j * LIFT_M - 1, x) + mp.besselk(1j * LIFT_M + 1, x)) / 2
        got = mp.mpf(k.mantissa[i]) * mp.exp(k.log_scale[i])
        got_p = mp.mpf(kp.mantissa[i]) * mp.exp(kp.log_scale[i])
        assert abs(got - ref) <= 5e-13 * abs(ref), x
        assert abs(got_p - ref_p) <= 5e-13 * abs(ref_p), x


# the contour regime, x < pi m / 2 - 8: about 40 geometric arguments from
# 0.01 to the switch per order, and the turning point x = m where it lies
# in that regime
CONTOUR_ORDERS = (5.5, 9.53, 12.0, LIFT_M, 28.6, 40.0)


def _contour_grid(m: float) -> np.ndarray:
    switch = 0.5 * math.pi * m - 8.0
    turning = [m * r for r in (0.99, 0.999, 1.001, 1.01) if m * r < switch]
    return np.concatenate([np.geomspace(0.01, switch, 41)[:-1], turning])


@pytest.mark.parametrize("m", CONTOUR_ORDERS)
def test_bessel_contour_against_mpmath(m):
    """K and K' on the steepest-descent contours, against mpmath, measured
    against the envelope: exp(-pi m / 2) for x < m and the saddle value
    exp(-sqrt(x^2 - m^2) - m asin(m/x)) for x >= m (times max(1, m/x), the
    size of cosh t on the segment, for K').  The worst is 2.0e-14 (m = 40,
    x = 0.01), where the segment's phase reaches 320 radians.  Array calls
    equal the scalar calls bit for bit, in either order."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    xs = _contour_grid(m)
    assert (0.5 * math.pi * m - xs > specfun._SHIFT_THRESHOLD).all()
    k = bessel_k_scaled(1j * m, xs)
    kp = bessel_k_prime_scaled(1j * m, xs)
    for fn, batch in ((bessel_k_scaled, k), (bessel_k_prime_scaled, kp)):
        backwards = fn(1j * m, xs[::-1])
        for i, x in enumerate(xs.tolist()):
            one = fn(1j * m, x)
            assert batch.item(i) == one, (fn.__name__, x)
            assert backwards.item(len(xs) - 1 - i) == one
    for i, x in enumerate(xs.tolist()):
        env = mp.exp(-math.sqrt(max(x * x - m * m, 0.0)) - m * math.asin(min(m / x, 1.0)))
        ref = mp.re(mp.besselk(1j * m, x))
        ref_p = -mp.re(mp.besselk(1j * m - 1, x) + mp.besselk(1j * m + 1, x)) / 2
        got = mp.mpf(k.mantissa[i]) * mp.exp(k.log_scale[i])
        got_p = mp.mpf(kp.mantissa[i]) * mp.exp(kp.log_scale[i])
        assert abs(got - ref) <= 2.5e-14 * env, x
        assert abs(got_p - ref_p) <= 2.5e-14 * env * max(1.0, m / x), x


@pytest.mark.parametrize("n", [8, 40, 56, 176])
def test_gauss_legendre_rule(n):
    # exact for x^k, k < 2n, on (0, 1), with nodes in increasing order
    x, w = specfun._gauss_legendre(n)
    assert (np.diff(x) > 0).all() and 0.0 < x[0] and x[-1] < 1.0
    for k in range(2 * n):
        assert abs(math.fsum(w * x ** k) - 1.0 / (k + 1)) <= 1e-15


@pytest.mark.parametrize("m, xs", [
    (LIFT_M, EVERY_RULE_XS),
    (GEN_M, np.concatenate([GEN_XS, [1500.0, 3000.0, 3e4, 1e5]])),
], ids=["LIFT", "GEN"])
def test_bessel_pair_equals_single_calls(m, xs):
    """The pair's K and K' equal bessel_k_scaled and bessel_k_prime_scaled
    bit for bit, as arrays and as scalars: at the lift order on the
    contour and the axis at 0 to 3 step halvings, at a GEN order (m < 4)
    on the axis alone."""
    k, kp = bessel_k_pair_scaled(1j * m, xs)
    for got, fn in ((k, bessel_k_scaled), (kp, bessel_k_prime_scaled)):
        ref = fn(1j * m, xs)
        assert got.mantissa.tobytes() == ref.mantissa.tobytes(), fn.__name__
        assert got.log_scale.tobytes() == ref.log_scale.tobytes(), fn.__name__
    for x in xs.tolist():
        pair = bessel_k_pair_scaled(1j * m, x)
        assert repr(pair) == repr((bessel_k_scaled(1j * m, x), bessel_k_prime_scaled(1j * m, x))), x


@pytest.mark.parametrize("m, xs, key", [
    (LIFT_M, np.array([0.3, 5.0, 12.0, 21.9, 22.0]), -1),
    (LIFT_M, np.array([25.0, 40.0, 1500.0]), 0),
    (GEN_M, GEN_XS, 0),
    (GEN_M, np.array([3e4, 5e4]), 3),
], ids=["LIFT-contour", "LIFT-axis", "GEN-axis", "GEN-axis-3"])
def test_bessel_one_key_array_equals_scalar_calls(m, xs, key, monkeypatch):
    """An array whose arguments share one rule key is summed by one
    _bessel_line call on the whole array (no per-key scatter), and its K,
    K' and pair values equal the elementwise scalar calls bit for bit."""
    keys = []
    line = specfun._bessel_line

    def spy(m, x, derivatives, key, h):
        keys.append((key, x.size))
        return line(m, x, derivatives, key, h)

    monkeypatch.setattr(specfun, "_bessel_line", spy)
    k, kp = bessel_k_pair_scaled(1j * m, xs)
    assert keys == [(key, xs.size)]
    for fn, batch in ((bessel_k_scaled, k), (bessel_k_prime_scaled, kp)):
        ref = fn(1j * m, xs)
        assert ref.mantissa.tobytes() == batch.mantissa.tobytes(), fn.__name__
        for i, x in enumerate(xs.tolist()):
            assert repr(batch.item(i)) == repr(fn(1j * m, x)), (fn.__name__, x)


@pytest.mark.parametrize("m, x_star", [(LIFT_M, 24.21), (40.0, 101.36)], ids=["LIFT", "40"])
def test_bessel_switch_is_where_the_axis_cancels_by_e8(m, x_star, monkeypatch):
    """The contour takes every argument where the real axis would cancel by
    more than e^8, -(env + x) > 8, past the turning point x = m too: up to
    x*, 24.21 at the lift order and 101.36 at m = 40 (pi m/2 - 8 is 21.95
    and 54.8).  x* comes from a bisection on the saddle formula in math;
    the key flips between arguments a relative 1e-12 either side of it."""
    def excess(x):  # -(env + x) - 8, falling in x past x = m
        return math.sqrt(x * x - m * m) + m * math.asin(m / x) - x - 8.0

    lo, hi = m, 10.0 * m
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
    assert round(lo, 2) == x_star
    keys = []
    line = specfun._bessel_line

    def spy(m, x, derivatives, key, h):
        keys.append((key, x.tolist()))
        return line(m, x, derivatives, key, h)

    monkeypatch.setattr(specfun, "_bessel_line", spy)
    past_old_switch, below, above = 0.5 * math.pi * m - 7.5, lo * (1.0 - 1e-12), lo * (1.0 + 1e-12)
    bessel_k_pair_scaled(1j * m, np.array([past_old_switch, below, above]))
    assert sorted(keys) == [(-1, [past_old_switch, below]), (0, [above])]


def test_bessel_rule_bounds_its_calls(monkeypatch):
    """A 1000-argument pair call at m = 100 over [0.06, 1e4] (the contour
    below x* ~ 626, the axis above) reaches _bessel_line in calls of at most
    100 arguments, which bounds its (arguments x nodes) arrays; the array
    values equal the scalar calls bit for bit."""
    m, xs = 100.0, np.geomspace(0.06, 1e4, 1000)
    sizes = []
    line = specfun._bessel_line

    def spy(m, x, derivatives, key, h):
        sizes.append(x.size)
        return line(m, x, derivatives, key, h)

    monkeypatch.setattr(specfun, "_bessel_line", spy)
    k, kp = bessel_k_pair_scaled(1j * m, xs)
    assert sum(sizes) == len(xs) and max(sizes) <= 100
    for i in range(0, len(xs), 37):
        assert repr((k.item(i), kp.item(i))) == repr(bessel_k_pair_scaled(1j * m, xs[i].item())), i


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_bessel_array_rejects_any_bad_element(bad):
    xs = np.array([0.5, 2.0, bad, 3.0])
    for fn in (bessel_k_scaled, bessel_k_prime_scaled, bessel_k_pair_scaled):
        with pytest.raises(DomainError):
            fn(1j * LIFT_M, xs)
        with pytest.raises(DomainError):
            fn(1j * LIFT_M, bad)


def test_bessel_empty_array_gives_empty_values():
    # an empty array raised numpy's zero-size reduction ValueError
    for m in (LIFT_M, 0.0):
        k, kp = bessel_k_pair_scaled(1j * m, np.array([]))
        for fn, v in ((bessel_k_scaled, k), (bessel_k_prime_scaled, kp)):
            got = fn(1j * m, np.array([]))
            for out in (got, v):
                assert isinstance(out, ScaledArray)
                assert out.mantissa.shape == out.log_scale.shape == (0,)



# ---------------------------------------------------------------------------
# w_stade's per-order K table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [LIFT_M, 9.53, GEN_M, 0.65, 40.0])
def test_k_table_against_mpmath(m):
    """The table's K against mpmath, relative to the envelope (as in
    test_bessel_contour_against_mpmath), on 121 geometric arguments over
    [0.01, 1e4] and on the table's samples there, next to its source, the
    direct rule, on the same points.  The table interpolates the direct
    rule's samples and carries their noise: every value stays within its
    panel's worst sample + 5e-15, and the table's worst within the direct
    rule's + 5e-15.  The 121 arguments alone miss the direct rule's worst
    (2.3e-14 at 9.53, x ~ 7, against 8.6e-15 on them).  At every order
    the table's worst stays below half of w_stade's _STADE_NOISE, its
    budget for one K factor: 3.85e-14 at m = 40, x ~ 0.01, the contour's
    phase floor."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    from sl3maass.whittaker import _STADE_NOISE
    xs = np.geomspace(0.01, 1e4, 121)
    table = specfun._KTable(m)
    table.read(xs)
    nodes = (table.rows[:, 26:27] * np.exp(0.5 * table.width * specfun._PANEL_NODES)).ravel()
    points = np.concatenate([xs, nodes])
    ref = [mp.re(mp.besselk(1j * m, x)) for x in points.tolist()]
    env = [mp.exp(-math.sqrt(max(x * x - m * m, 0.0)) - m * math.asin(min(m / x, 1.0)))
           for x in points.tolist()]
    table_err, direct_err = (
        np.array([float(abs(mp.mpf(v.mantissa[i]) * mp.exp(v.log_scale[i]) - ref[i]) / env[i])
                  for i in range(len(points))])
        for v in (ScaledArray(*table.read(points)), bessel_k_scaled(1j * m, points)))
    panel_worst = direct_err[len(xs):].reshape(len(table.rows), -1).max(axis=1)
    panels = np.floor(np.log(xs) / table.width).astype(np.int64) - table.first
    assert (table_err[:len(xs)] <= panel_worst[panels] + 5e-15).all()
    assert table_err.max() <= direct_err.max() + 5e-15
    assert table_err.max() < _STADE_NOISE / 2


@pytest.mark.parametrize("m", [LIFT_M, GEN_M])
def test_k_table_bits_depend_on_m_and_x_alone(m):
    """Panels built one by one, all at once or in reverse order hold the
    same bits, and give the same values; an array call equals the scalar
    calls, and an argument on a node reads the node's sample."""
    rng = np.random.default_rng(11)
    xs = np.sort(np.exp(rng.uniform(math.log(0.05), math.log(300.0), 40)))
    ascending, at_once, descending = (specfun._KTable(m) for _ in range(3))
    for x in xs:
        ascending.read(np.array([x]))
    for x in xs[::-1]:
        descending.read(np.array([x]))
    batch = ScaledArray(*at_once.read(xs))
    for table in (ascending, descending):
        assert table.first == at_once.first
        assert table.rows.tobytes() == at_once.rows.tobytes()
    assert (batch.log_scale == -xs).all()  # c_j = 0 below m = 162
    for i, x in enumerate(xs.tolist()):
        for table in (ascending, at_once, descending):
            assert ScaledArray(*table.read(np.array([x]))).item(0) == batch.item(i), x


def test_k_table_argument_on_a_node_reads_its_sample(monkeypatch):
    """An argument whose panel coordinate equals a node exactly would
    divide by zero in the barycentric formula; it reads the node's
    sample.  The middle node is moved from cos(pi/2) = 6e-17 to 0, which
    a panel's centre hits."""
    table = specfun._KTable(LIFT_M)
    table.read(np.array([1.0]))
    nodes = specfun._PANEL_NODES.copy()
    nodes[12] = 0.0
    monkeypatch.setattr(specfun, "_PANEL_NODES", nodes)
    centre = table.rows[0, 26]
    k = ScaledArray(*table.read(np.array([centre])))
    assert abs(k.mantissa[0] - table.rows[0, 12]) <= 4e-16 * abs(table.rows[0, 12])
    assert k.log_scale[0] == -centre
    assert k.item(0).rel_diff(bessel_k_scaled(1j * LIFT_M, centre)) < 1e-14


def test_k_table_at_a_large_order():
    """At m = 600 a panel's fit of env + x reaches -pi m/2 = -942, whose
    exponential underflows: the table carries it in the log scale, and its
    values stay within 2e-13 of the envelope of the direct rule's (5e-14 seen)."""
    m = 600.0
    xs = np.geomspace(4.0, 4.2, 7)
    (mantissa, log_scale), ref = specfun._KTable(m).read(xs), bessel_k_scaled(1j * m, xs)
    env = -0.5 * math.pi * m
    assert np.isfinite(mantissa).all()
    diff = mantissa * np.exp(log_scale - env) - ref.mantissa * np.exp(ref.log_scale - env)
    assert (np.abs(diff) < 2e-13).all()
    assert (np.abs(ref.mantissa * np.exp(ref.log_scale - env)) > 1e-3).any()
