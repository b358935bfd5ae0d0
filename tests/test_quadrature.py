import math

import pytest

from sl3maass.errors import NonConvergenceError
from sl3maass.quadrature import (MellinGrid2D, QuadratureGrid,
                                 inverse_mellin_line, refine_check,
                                 trapezoid_line)
from sl3maass.scaled import ScaledComplex
from sl3maass.specfun import GammaRatioSpec, bessel_k, gamma_ratio

from test_specfun import k0_series


def gaussian(x: float) -> ScaledComplex:
    return ScaledComplex.from_log(-x * x)


def k0_integrand(x: float) -> ScaledComplex:
    # exp(-cosh x) over the whole line integrates to 2 K_0(1)
    return ScaledComplex.from_log(-math.cosh(x))


def test_grid_validation():
    with pytest.raises(ValueError):
        QuadratureGrid(h=0.0)
    with pytest.raises(ValueError):
        QuadratureGrid(h=0.5, stop_threshold=1e-10, stop_run=2)
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


def test_gaussian():
    g = QuadratureGrid(h=0.5, N=200, stop_threshold=1e-22, stop_run=5)
    v = trapezoid_line(gaussian, g)
    assert abs(v.to_complex().real - math.sqrt(math.pi)) < 1e-10


def test_zero_integrand():
    g = QuadratureGrid(h=0.5, N=20, stop_threshold=0.0)
    v = trapezoid_line(lambda x: ScaledComplex.zero(), g)
    assert v.is_zero


def test_k0_integrand_against_series_oracle():
    # the full-line integral equals 2 K_0(1)
    g = QuadratureGrid(h=0.25, N=400, stop_threshold=1e-24, stop_run=5)
    v = trapezoid_line(k0_integrand, g)
    assert abs(v.to_complex().real - 2.0 * k0_series(1.0)) < 1e-10
    assert abs(v.to_complex().real / 2.0 - 0.42102443824) < 1e-10


def test_nonconvergence():
    g = QuadratureGrid(h=0.5, N=5, stop_threshold=1e-30, stop_run=5)
    with pytest.raises(NonConvergenceError):
        trapezoid_line(gaussian, g)


def test_determinism():
    g = QuadratureGrid(h=0.37, N=300, stop_threshold=1e-20, stop_run=5)
    v1 = trapezoid_line(k0_integrand, g)
    v2 = trapezoid_line(k0_integrand, g)
    assert v1.mantissa == v2.mantissa and v1.log_scale == v2.log_scale


# ---------------------------------------------------------------------------
# inverse Mellin
# ---------------------------------------------------------------------------

def gamma_transform(s: complex) -> ScaledComplex:
    return gamma_ratio(GammaRatioSpec([s]))


def bessel_pair_transform(s: complex) -> ScaledComplex:
    return gamma_ratio(GammaRatioSpec([s / 2.0, s / 2.0]))


MELLIN_GRID = QuadratureGrid(h=0.2, sigma=2.0, N=3000, stop_threshold=1e-24, stop_run=6)


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
    g = QuadratureGrid(h=0.5, N=200, stop_threshold=1e-22, stop_run=5)
    v, err = refine_check(gaussian, g)
    assert err < 1e-10
    assert abs(v.to_complex().real - math.sqrt(math.pi)) < 1e-12


def test_refine_zero():
    g = QuadratureGrid(h=0.5, N=20)
    v, err = refine_check(lambda x: ScaledComplex.zero(), g)
    assert v.is_zero and err == 0.0


def test_refine_superlinear_decay():
    # discretization error O(e^{-c/h}): halving h from 1 to 0.5 shrinks the
    # estimate by far more than 1e3
    coarse = QuadratureGrid(h=1.0, N=200, stop_threshold=1e-24, stop_run=5)
    fine = QuadratureGrid(h=0.5, N=400, stop_threshold=1e-24, stop_run=5)
    _, e1 = refine_check(k0_integrand, coarse)
    _, e2 = refine_check(k0_integrand, fine)
    assert e1 > 0
    assert e1 / max(e2, 1e-300) > 1e3


def test_refine_monotone_under_halving():
    errs = []
    for h, n in ((1.0, 200), (0.5, 400), (0.25, 800)):
        g = QuadratureGrid(h=h, N=n, stop_threshold=1e-24, stop_run=5)
        _, e = refine_check(k0_integrand, g)
        errs.append(e)
    assert errs[0] >= errs[1] >= errs[2]


def test_refine_mellin_mode():
    g = QuadratureGrid(h=0.3, sigma=2.0, N=2000, stop_threshold=1e-22, stop_run=6)
    v, err = refine_check(gamma_transform, g, y=1.0)
    assert abs(v.to_complex().real - math.exp(-1.0)) < 1e-12
    assert err < 1e-8


def test_truncation_error_bounded_by_first_discarded_term():
    # adaptive truncation vs a 4N reference sum with a much lower threshold
    def run(thresh, n):
        g = QuadratureGrid(h=0.25, N=n, stop_threshold=thresh, stop_run=5)
        return trapezoid_line(k0_integrand, g)

    g = QuadratureGrid(h=0.25, N=400, stop_threshold=1e-8, stop_run=5)
    truncated = trapezoid_line(k0_integrand, g)
    reference = run(1e-30, 1600)
    err = (truncated - reference).abs()
    # the first discarded term is below the threshold by construction
    bound = g.stop_run * g.h * g.stop_threshold
    assert err <= bound
