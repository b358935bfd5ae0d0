import math

import numpy as np
import pytest

from sl3maass.quadrature import (MellinGrid2D, QuadratureGrid,
                                 inverse_mellin_line, refine_check,
                                 strip_error_log, strip_step, trapezoid_line)
from sl3maass.scaled import ScaledArray, ScaledComplex
from sl3maass.specfun import _log_gamma_array, bessel_k

from test_specfun import k0_series


def gaussian(x: np.ndarray) -> ScaledArray:
    return ScaledArray.from_log(-x * x)


def k0_integrand(x: np.ndarray) -> ScaledArray:
    # exp(-cosh x) over the whole line integrates to 2 K_0(1)
    return ScaledArray.from_log(-np.cosh(x))


def zero_integrand(x: np.ndarray) -> ScaledArray:
    return ScaledArray(np.zeros_like(x), 0.0)


@pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12])
def test_strip_step_bounds_the_error(eps):
    # sech is analytic in |Im u| < pi/2, where |sech(u + iv)| <= sech(u) /
    # cos(v); its integral over the line is pi
    a = 1.2
    growth = -math.log(math.cos(a))
    h, disc_log = strip_step(a, growth, eps)
    assert disc_log == pytest.approx(math.log(eps), abs=1e-9)
    assert strip_error_log(a, growth, h) == disc_log
    n = int(math.ceil(60.0 / h))
    total = trapezoid_line(lambda t: ScaledArray(1.0 / np.cosh(t), 0.0), QuadratureGrid(h=h, N=n))
    err = abs(total.to_complex() - math.pi)
    assert err <= math.exp(disc_log) * math.pi


def test_grid_validation():
    with pytest.raises(ValueError):
        QuadratureGrid(h=0.0)
    with pytest.raises(ValueError):
        MellinGrid2D(h=0.1, sigma1=2, sigma2=2, N1=0, N2=5)
    for h in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            MellinGrid2D(h=h, sigma1=2, sigma2=2, N1=5, N2=5)
    for sigma in (0.0, -0.5, -3.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="sigma1"):
            MellinGrid2D(h=0.1, sigma1=sigma, sigma2=2, N1=5, N2=5)
        with pytest.raises(ValueError, match="sigma2"):
            MellinGrid2D(h=0.1, sigma1=2, sigma2=sigma, N1=5, N2=5)


@pytest.mark.parametrize("field, value", [("N1", 300.5), ("N1", 300.0), ("N1", True),
                                          ("N2", 400.5), ("N2", False), ("N2", "400")])
def test_mellin_grid_half_widths_must_be_ints(field, value):
    # a float N2 breaks the kernel's slicing, a float N1 puts the nodes at
    # half-integers, and True would count as 1
    fields = dict(h=0.1, sigma1=2.0, sigma2=2.0, N1=300, N2=400)
    with pytest.raises(ValueError, match=field):
        MellinGrid2D(**dict(fields, **{field: value}))


@pytest.mark.parametrize("value", [20.5, 20.0, True, "20"])
def test_quadrature_grid_half_width_must_be_an_int(value):
    with pytest.raises(ValueError, match="half-width N"):
        QuadratureGrid(h=0.5, N=value)


@pytest.mark.parametrize("make, kwargs, field", [
    (QuadratureGrid, dict(h=0.5, sigma=math.nan), "sigma"),
    (QuadratureGrid, dict(h=0.5, sigma=math.inf), "sigma"),
    (QuadratureGrid, dict(h=math.nan), "h"),
    (QuadratureGrid, dict(h=0.5, N=0), "N"),
], ids=["grid-sigma-nan", "grid-sigma-inf", "grid-h-nan", "grid-N-zero"])
def test_line_fields_are_checked(make, kwargs, field):
    with pytest.raises(ValueError, match=rf"\b{field} must"):
        make(**kwargs)


def test_gaussian():
    g = QuadratureGrid(h=0.5, N=200)
    v = trapezoid_line(gaussian, g)
    assert abs(v.to_complex().real - math.sqrt(math.pi)) < 1e-10


def test_zero_integrand():
    g = QuadratureGrid(h=0.5, N=20)
    v = trapezoid_line(zero_integrand, g)
    assert v.is_zero


def test_k0_integrand_against_series_oracle():
    # the full-line integral equals 2 K_0(1)
    g = QuadratureGrid(h=0.25, N=400)
    v = trapezoid_line(k0_integrand, g)
    assert abs(v.to_complex().real - 2.0 * k0_series(1.0)) < 1e-10
    assert abs(v.to_complex().real / 2.0 - 0.42102443824) < 1e-10


def test_determinism():
    g = QuadratureGrid(h=0.37, N=300)
    v1 = trapezoid_line(k0_integrand, g)
    v2 = trapezoid_line(k0_integrand, g)
    assert v1.mantissa == v2.mantissa and v1.log_scale == v2.log_scale


# ---------------------------------------------------------------------------
# the node set is fixed before sampling
# ---------------------------------------------------------------------------

def test_sums_exactly_the_fixed_nodes_in_one_call():
    h, n = 0.5, 70
    calls = []

    def f(t: np.ndarray) -> ScaledArray:
        calls.append(t.copy())
        # every node changes the exactly rounded sum
        k = np.rint(t / h)
        return ScaledArray(1.0 + k * 2.0 ** -20, 0.0)

    v = trapezoid_line(f, QuadratureGrid(h=h, N=n))
    assert len(calls) == 1
    assert calls[0].tolist() == (np.arange(-n, n + 1) * h).tolist()
    ref = ScaledComplex(complex(math.fsum(f(calls[0]).mantissa.tolist())), 0.0) * h
    assert (v.mantissa, v.log_scale) == (ref.mantissa, ref.log_scale)


# ---------------------------------------------------------------------------
# inverse Mellin
# ---------------------------------------------------------------------------

def gamma_transform(s: np.ndarray) -> ScaledArray:
    return ScaledArray.from_log(_log_gamma_array(s))


def bessel_pair_transform(s: np.ndarray) -> ScaledArray:
    return ScaledArray.from_log(_log_gamma_array(s / 2.0) + _log_gamma_array(s / 2.0))


MELLIN_GRID = QuadratureGrid(h=0.2, sigma=2.0, N=3000)


def test_cahen_mellin():
    v = inverse_mellin_line(gamma_transform, 1.0, MELLIN_GRID)
    assert abs(v.to_complex().real - math.exp(-1.0)) < 1e-12
    assert abs(v.to_complex().imag) < 1e-14


def test_mellin_bessel_pair():
    # with M(s) = Gamma(s/2)^2 the line sum at pi*y = pi equals
    # 4 K_0(2 pi); checked against the cosh-integral backend
    v = inverse_mellin_line(bessel_pair_transform, math.pi, MELLIN_GRID)
    ref = 4.0 * bessel_k(0.0, 2.0 * math.pi)
    assert abs(v.to_complex().real - ref) < 1e-9 * ref


def test_exponential_law():
    v1 = inverse_mellin_line(gamma_transform, 1.0, MELLIN_GRID)
    v2 = inverse_mellin_line(gamma_transform, 2.0, MELLIN_GRID)
    ratio = v2.to_complex().real / v1.to_complex().real
    assert abs(ratio - math.exp(-2.0) / math.exp(-1.0)) < 1e-12


# ---------------------------------------------------------------------------
# refine_check
# ---------------------------------------------------------------------------

def test_refine_gaussian():
    g = QuadratureGrid(h=0.5, N=200)
    v, err = refine_check(gaussian, g)
    assert err < 1e-10
    assert abs(v.to_complex().real - math.sqrt(math.pi)) < 1e-12


def test_refine_zero():
    g = QuadratureGrid(h=0.5, N=20)
    v, err = refine_check(zero_integrand, g)
    assert v.is_zero and err == 0.0


def test_refine_superlinear_decay():
    # discretization error O(e^{-c/h}): halving h from 1 to 0.5 shrinks the
    # estimate by far more than 1e3
    coarse = QuadratureGrid(h=1.0, N=200)
    fine = QuadratureGrid(h=0.5, N=400)
    _, e1 = refine_check(k0_integrand, coarse)
    _, e2 = refine_check(k0_integrand, fine)
    assert e1 > 0
    assert e1 / max(e2, 1e-300) > 1e3


def test_refine_monotone_under_halving():
    errs = []
    for h, n in ((1.0, 200), (0.5, 400), (0.25, 800)):
        g = QuadratureGrid(h=h, N=n)
        _, e = refine_check(k0_integrand, g)
        errs.append(e)
    assert errs[0] >= errs[1] >= errs[2]


def test_refine_mellin_mode():
    g = QuadratureGrid(h=0.3, sigma=2.0, N=2000)
    v, err = refine_check(gamma_transform, g, y=1.0)
    assert abs(v.to_complex().real - math.exp(-1.0)) < 1e-12
    assert err < 1e-8


@pytest.mark.parametrize("call, error, match", [
    (lambda: trapezoid_line(lambda x: np.exp(-x * x), QuadratureGrid(h=0.5, N=8)), TypeError,
     "ScaledArray of the same length"),
    (lambda: trapezoid_line(lambda x: gaussian(x[1:]), QuadratureGrid(h=0.5, N=8)), TypeError,
     "ScaledArray of the same length"),
    (lambda: inverse_mellin_line(gaussian, 0.0, QuadratureGrid(h=0.5, N=8)), ValueError,
     "y must be positive"),
], ids=["integrand-not-scaled", "integrand-short", "mellin-y-zero"])
def test_argument_guards(call, error, match):
    with pytest.raises(error, match=match):
        call()
