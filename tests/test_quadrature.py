import math

import numpy as np
import pytest

from sl3maass.errors import NonConvergenceError
from sl3maass.quadrature import (BLOCK, MellinGrid2D, QuadratureGrid,
                                 inverse_mellin_line, refine_check,
                                 trapezoid_line)
from sl3maass.scaled import ScaledArray
from sl3maass.specfun import _log_gamma_array, bessel_k

from test_specfun import k0_series


def gaussian(x: np.ndarray) -> ScaledArray:
    return ScaledArray.from_log(-x * x)


def k0_integrand(x: np.ndarray) -> ScaledArray:
    # exp(-cosh x) over the whole line integrates to 2 K_0(1)
    return ScaledArray.from_log(-np.cosh(x))


def zero_integrand(x: np.ndarray) -> ScaledArray:
    return ScaledArray(np.zeros_like(x), 0.0)


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


def test_gaussian():
    g = QuadratureGrid(h=0.5, N=200, stop_threshold=1e-22, stop_run=5)
    v = trapezoid_line(gaussian, g)
    assert abs(v.to_complex().real - math.sqrt(math.pi)) < 1e-10


def test_zero_integrand():
    g = QuadratureGrid(h=0.5, N=20, stop_threshold=0.0)
    v = trapezoid_line(zero_integrand, g)
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
# block evaluation keeps the node set of a node-by-node walk
# ---------------------------------------------------------------------------

def pattern_integrand(small_nodes: set, h: float):
    """Value 1 at every node k except those in small_nodes (value 1/4),
    plus k * 2^-20 so that every node changes the exactly rounded sum."""
    def f(t: np.ndarray) -> ScaledArray:
        k = np.rint(t / h).astype(int)
        base = np.where(np.isin(k, list(small_nodes)), 0.25, 1.0)
        return ScaledArray(base + k * 2.0 ** -20, 0.0)
    return f


def node_walk(f, grid: QuadratureGrid) -> list:
    """The nodes kept by walking each tail one node at a time: a tail
    stops after stop_run consecutive samples below the threshold."""
    log_thr = math.log(grid.stop_threshold) if grid.stop_threshold > 0 else -math.inf
    kept = [0]
    for side in (-1, 1):
        run = 0
        for j in range(1, grid.N + 1):
            kept.append(side * j)
            if f(np.array([side * j * grid.h])).log_abs()[0] < log_thr:
                run += 1
                if run >= grid.stop_run:
                    break
            else:
                run = 0
        else:
            if math.isfinite(log_thr):
                raise NonConvergenceError("walk reached N")
    return kept


def walked_sum(f, grid):
    nodes = np.array(node_walk(f, grid)) * grid.h
    return f(nodes).sum() * grid.h


@pytest.mark.parametrize("stops, n", [
    ((6, 11), 400),                              # inside the first block
    ((BLOCK, BLOCK - 2), 400),                   # a run ending on the block boundary
    ((BLOCK - 2, BLOCK + 1), 400),               # a run straddling it
    ((3 * BLOCK + 7, 5 * BLOCK + 2), 400),       # after several blocks
    ((6, BLOCK + 10), BLOCK + 14),               # inside a partial last block
    ((6, BLOCK + 14), BLOCK + 14),               # on N, in a partial last block
])
def test_blocks_keep_the_walked_nodes(stops, n):
    h = 0.5
    left, right = stops
    run = 5
    # each tail: scattered small nodes that never make a run, then a run
    # of stop_run small nodes ending at its stop
    small = {k for k in range(1, max(stops) + 1) if k % 3 == 0}
    small = {-k for k in small if k < left - run} | {k for k in small if k < right - run}
    small |= {-k for k in range(left - run + 1, left + 1)}
    small |= {k for k in range(right - run + 1, right + 1)}
    f = pattern_integrand(small, h)
    g = QuadratureGrid(h=h, N=n, stop_threshold=0.5, stop_run=run)
    assert sorted(node_walk(f, g)) == list(range(-left, right + 1))
    v = trapezoid_line(f, g)
    ref = walked_sum(f, g)
    assert (v.mantissa, v.log_scale) == (ref.mantissa, ref.log_scale)


def test_blocks_raise_when_n_ends_inside_a_block():
    h = 0.5
    n = BLOCK + 9
    # the right tail's run would end one node past N
    small = {k for k in range(n - 3, n + 2)} | {-k for k in range(1, 6)}
    g = QuadratureGrid(h=h, N=n, stop_threshold=0.5, stop_run=5)
    f = pattern_integrand(small, h)
    with pytest.raises(NonConvergenceError):
        node_walk(f, g)
    with pytest.raises(NonConvergenceError):
        trapezoid_line(f, g)


def test_blocks_without_truncation_keep_all_nodes():
    h = 0.5
    g = QuadratureGrid(h=h, N=2 * BLOCK + 5, stop_threshold=0.0)
    f = pattern_integrand(set(), h)
    v = trapezoid_line(f, g)
    ref = walked_sum(f, g)
    assert (v.mantissa, v.log_scale) == (ref.mantissa, ref.log_scale)


# ---------------------------------------------------------------------------
# inverse Mellin
# ---------------------------------------------------------------------------

def gamma_transform(s: np.ndarray) -> ScaledArray:
    return ScaledArray.from_log(_log_gamma_array(s))


def bessel_pair_transform(s: np.ndarray) -> ScaledArray:
    return ScaledArray.from_log(_log_gamma_array(s / 2.0) + _log_gamma_array(s / 2.0))


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
    v, err = refine_check(zero_integrand, g)
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
