import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sl3maass.errors import (AccuracyRangeError, CancellationError,
                             DegenerateParametersError, NonConvergenceError)
from sl3maass.langlands import LanglandsParams, permutations
from sl3maass.quadrature import (BLOCK, MellinGrid2D, QuadratureGrid,
                                 inverse_mellin_line, trapezoid_line)
from sl3maass.scaled import ScaledArray, ScaledComplex
from sl3maass.specfun import (GammaRatioSpec, _log_gamma_array,
                              _pole_distance, bessel_k_prime_scaled,
                              bessel_k_scaled, gamma_ratio)
from sl3maass import whittaker
from sl3maass.whittaker import (SeriesBudget, WhittakerArgs,
                                build_fixed_d_cache, build_pq_table,
                                choose_algorithm, default_mellin_grid,
                                mellin_kernel, mellin_outer_noise_log,
                                pq_build, w_eval, w_mellin_fixed_d,
                                w_series_origin, w_series_small, w_stade,
                                _cyclic_triples, _outer_prefactor_log,
                                _pq_values)

LIFT_R = 9.533695
LIFT = LanglandsParams(-2.0 * LIFT_R, 2.0 * LIFT_R)
GENERIC = LanglandsParams(-3.7, 1.2)
SMALL = LanglandsParams(-1.3, 2.1)


def test_args_validation():
    with pytest.raises(ValueError):
        WhittakerArgs(0.0, 1.0)
    with pytest.raises(ValueError):
        WhittakerArgs(1.0, -2.0)
    with pytest.raises(ValueError):
        SeriesBudget(nmax=0)


# ---------------------------------------------------------------------------
# P/Q polynomial recursion
# ---------------------------------------------------------------------------

def test_pq_base_cases():
    p_coeffs, q_coeffs = pq_build([GENERIC.triple], 2)
    assert p_coeffs.shape == q_coeffs.shape == (1, 3, 5)
    assert np.array_equal(p_coeffs[0, 0], np.array([4.0 + 0j, 0, 0, 0, 0]))
    assert np.array_equal(q_coeffs[0, 0], np.zeros(5, dtype=complex))
    # one recursion step: Q_1 = P_0 = 4 (constant), P_1 = a_0 P_0 = 6 d1 + 8
    d1 = GENERIC.alpha
    a0 = 1.5 * d1 + 2.0
    assert _pq_values(p_coeffs, q_coeffs, 0.37)[1][0, 1] == 4.0
    assert abs(_pq_values(p_coeffs, q_coeffs, 0.83)[0][0, 1] - (6.0 * d1 + 8.0)) < 1e-14
    assert abs(_pq_values(p_coeffs, q_coeffs, 0.83)[0][0, 1] - 4.0 * a0) < 1e-14


def _effective_degree(coeffs) -> int:
    nz = np.nonzero(np.abs(coeffs) > 0)[0]
    return int(nz[-1]) if nz.size else -1


def test_pq_degree_bounds():
    p_coeffs, q_coeffs = build_pq_table(GENERIC, 40)
    assert p_coeffs.shape == q_coeffs.shape == (3, 41, 81)
    for j in range(3):
        for n in range(41):
            assert _effective_degree(p_coeffs[j, n]) <= 2 * n
            if n >= 1:
                assert _effective_degree(q_coeffs[j, n]) <= 2 * n - 1
        # the quadratic chain feeds degree 2 every second step
        assert _effective_degree(p_coeffs[j, 40]) == 40
        assert _effective_degree(q_coeffs[j, 40]) == 38


def test_pq_constant_term_recursion():
    # at y = 0 the recursion collapses to P_{n+1}(0) = mu^2 Q_n(0) + a_n P_n(0),
    # Q_{n+1}(0) = P_n(0) + a_n Q_n(0); closed-form check of stored tables
    d = GENERIC.triple
    (p_coeffs,), (q_coeffs,) = pq_build([d], 12)
    mu = (d[1] - d[2]) / 2.0
    mu2 = mu * mu
    p0, q0 = 4.0 + 0j, 0j
    for n in range(12):
        a_n = 1.5 * d[0] + 2.0 * n + 2.0
        p0, q0 = mu2 * q0 + a_n * p0, p0 + a_n * q0
        assert abs(p_coeffs[n + 1][0] - p0) < 1e-12 * max(1.0, abs(p0))
        assert abs(q_coeffs[n + 1][0] - q0) < 1e-12 * max(1.0, abs(q0))


@pytest.mark.parametrize("y", [0.3, 1.7])
def test_pq_recursion_off_zero(y):
    # the y P', y Q' and (2 pi y)^2 Q terms vanish at y = 0, so only y > 0
    # checks them; _pq_values must also give polyval's bits on every row
    poly = np.polynomial.polynomial
    tables = build_pq_table(GENERIC, 40)
    all_p, all_q = _pq_values(*tables, y)
    for delta, p_coeffs, q_coeffs, p_vals, q_vals in zip(
            _cyclic_triples(GENERIC), *tables, all_p, all_q):
        for rows, vals in ((p_coeffs, p_vals), (q_coeffs, q_vals)):
            ref = np.array([poly.polyval(y, row) for row in rows])
            assert ref.tobytes() == vals.tobytes()
        mu = (delta[1] - delta[2]) / 2.0
        mu2 = mu * mu
        for n in range(40):
            a_n = 1.5 * delta[0] + 2.0 * n + 2.0
            dp = poly.polyval(y, poly.polyder(p_coeffs[n]))
            dq = poly.polyval(y, poly.polyder(q_coeffs[n]))
            p_next = y * dp + ((2.0 * math.pi * y) ** 2 + mu2) * q_vals[n] + a_n * p_vals[n]
            q_next = p_vals[n] + y * dq + a_n * q_vals[n]
            assert abs(p_vals[n + 1] - p_next) <= 1e-12 * abs(p_next)
            assert abs(q_vals[n + 1] - q_next) <= 1e-12 * abs(q_next)


# ---------------------------------------------------------------------------
# I_n recursion against direct Barnes quadrature
# ---------------------------------------------------------------------------

def in_integral_oracle(p: LanglandsParams, n: int, y: float) -> complex:
    """I_n(y) by direct vertical-line quadrature of its defining Barnes
    integral (independent of the polynomial recursion path)."""
    a, b, g = p.triple

    def transform(s: np.ndarray) -> ScaledArray:
        # 1/Gamma vanishes at the poles of the denominator (as in gamma_ratio)
        den = (s - 1.5 * a) / 2.0 - n
        pole = _pole_distance(den) < 1e-12
        out = ScaledArray.from_log(
            _log_gamma_array((s - 1.5 * a) / 2.0) + _log_gamma_array((s - b - 0.5 * a) / 2.0)
            + _log_gamma_array((s - g - 0.5 * a) / 2.0)
            - _log_gamma_array(np.where(pole, 1.0, den)))
        return ScaledArray(np.where(pole, 0.0, out.mantissa), out.log_scale)

    grid = QuadratureGrid(h=0.1, sigma=2.0, N=5000, stop_threshold=1e-26, stop_run=6)
    return inverse_mellin_line(transform, math.pi * y, grid).to_complex()


def in_closed_form(p: LanglandsParams, n: int, y: float) -> complex:
    """I_n(y) from the polynomial recursion and one K-Bessel pair."""
    d1, d2, d3 = p.triple
    mu = (d2 - d3) / 2.0
    x = 2.0 * math.pi * y
    kv = bessel_k_scaled(mu, x).to_complex().real
    kp = bessel_k_prime_scaled(mu, x).to_complex().real
    (p_vals,), (q_vals,) = _pq_values(*pq_build([p.triple], n), y)
    return (-2.0) ** (-n) * (p_vals[n] * kv + x * q_vals[n] * kp)


@pytest.mark.parametrize("y", [0.3, 0.7, 1.5])
def test_i1_recursion_vs_barnes(y):
    p = LanglandsParams(-2.0, 2.0)  # (-2i, 2i, 0)
    got = in_closed_form(p, 1, y)
    ref = in_integral_oracle(p, 1, y)
    assert abs(got - ref) <= 1e-9 * abs(ref)


def test_i0_is_bessel():
    p = LanglandsParams(-2.0, 2.0)
    y = 0.6
    mu = (p.beta - p.gamma) / 2.0
    ref = 4.0 * bessel_k_scaled(mu, 2.0 * math.pi * y).to_complex().real
    got = in_closed_form(p, 0, y)
    assert abs(got - ref) < 1e-12 * abs(ref)
    barnes = in_integral_oracle(p, 0, y)
    assert abs(barnes - ref) < 1e-10 * abs(ref)


def test_i2_recursion_vs_barnes():
    p = LanglandsParams(-2.0, 2.0)
    got = in_closed_form(p, 2, 0.7)
    ref = in_integral_oracle(p, 2, 0.7)
    assert abs(got - ref) <= 1e-9 * abs(ref)


# ---------------------------------------------------------------------------
# cross-algorithm agreement
# ---------------------------------------------------------------------------

def test_origin_vs_stade_tiny_arguments():
    a = WhittakerArgs(0.1, 0.1)
    assert w_series_origin(LIFT, a).rel_diff(w_stade(LIFT, a)) < 1e-10


def test_origin_vs_stade_half():
    a = WhittakerArgs(0.5, 0.5)
    assert w_series_origin(LIFT, a).rel_diff(w_stade(LIFT, a)) < 1e-8


def test_smallarg_vs_stade():
    a = WhittakerArgs(0.2, 1.5)
    assert w_series_small(LIFT, a).rel_diff(w_stade(LIFT, a)) < 1e-8


def test_smallarg_vs_origin_generic():
    a = WhittakerArgs(0.4, 0.6)
    v1 = w_series_small(GENERIC, a)
    v2 = w_series_origin(GENERIC, a)
    assert v1.rel_diff(v2) < 1e-10


def test_series_reject_degenerate():
    degenerate = LanglandsParams(1.5, 1.5)
    a = WhittakerArgs(0.5, 0.5)
    with pytest.raises(DegenerateParametersError):
        w_series_origin(degenerate, a)
    with pytest.raises(DegenerateParametersError):
        w_series_small(degenerate, a)


def test_origin_cancellation_guard():
    with pytest.raises(CancellationError):
        w_series_origin(LIFT, WhittakerArgs(6.0, 6.0))


def test_stade_real_at_equal_arguments_for_vanishing_gamma():
    # gamma = 0 and y1 = y2 make W self-conjugate hence real
    v = w_stade(LIFT, WhittakerArgs(0.5, 0.5))
    assert abs(v.mantissa.imag) < 1e-10 * abs(v.mantissa)


def test_stade_dual_symmetry():
    a = WhittakerArgs(0.45, 1.3)
    v = w_stade(GENERIC, a)
    w = w_stade(GENERIC, a.swapped)
    assert w.rel_diff(v.conjugate()) < 1e-9


def test_whittaker_decay():
    v44 = w_stade(LIFT, WhittakerArgs(4.0, 4.0))
    v22 = w_stade(LIFT, WhittakerArgs(2.0, 2.0))
    assert v44.log_abs() - v22.log_abs() < -4.0


def test_stade_bessel_calls_per_block(monkeypatch):
    # the integrand is evaluated on blocks of nodes, with one array K call
    # per Bessel factor; a per-node loop would make two calls per node
    k_calls = []
    blocks = []

    def counting_k(mu, x):
        k_calls.append(np.size(x))
        return bessel_k_scaled(mu, x)

    def counting_rule(f, grid):
        def block(t):
            blocks.append(t.size)
            return f(t)
        return trapezoid_line(block, grid)

    monkeypatch.setattr(whittaker, "bessel_k_scaled", counting_k)
    monkeypatch.setattr(whittaker, "trapezoid_line", counting_rule)
    w_stade(LIFT, WhittakerArgs(0.6, 1.0))
    assert len(blocks) <= math.ceil(sum(blocks) / BLOCK)
    assert len(k_calls) <= 2 * len(blocks)
    assert sum(k_calls) == 2 * sum(blocks)


def test_series_work_per_call(monkeypatch):
    # one P/Q table build and six K calls per series evaluation, and the
    # n-series summed as arrays: the ScaledComplex values made per call do
    # not grow with the number of terms
    tables, k_calls, scaled = [], [], []

    def counting_table(p, nmax):
        tables.append(nmax)
        return build_pq_table(p, nmax)

    def counting(k):
        def f(mu, x):
            k_calls.append(mu)
            return k(mu, x)
        return f

    post_init = ScaledComplex.__post_init__

    def counting_post_init(self):
        scaled.append(1)
        post_init(self)

    # few terms: every slice stops within nmax = 6, so at most 7 terms;
    # many terms: nmax = 21 is not enough, so more than 3 x 7 terms
    few, many = WhittakerArgs(0.01, 0.1), WhittakerArgs(3.0, 0.4)
    w_series_small(LIFT, few, SeriesBudget(nmax=6))
    with pytest.raises(NonConvergenceError):
        w_series_small(LIFT, many, SeriesBudget(nmax=21))
    monkeypatch.setattr(whittaker, "build_pq_table", counting_table)
    monkeypatch.setattr(whittaker, "bessel_k_scaled", counting(bessel_k_scaled))
    monkeypatch.setattr(whittaker, "bessel_k_prime_scaled", counting(bessel_k_prime_scaled))
    monkeypatch.setattr(ScaledComplex, "__post_init__", counting_post_init)
    made = []
    for a in (few, many):
        for counts in (tables, k_calls, scaled):
            counts.clear()
        w_series_small(LIFT, a)
        assert tables == [60]
        assert len(k_calls) == 6
        made.append(len(scaled))
    assert made[0] == made[1]


def test_series_terms_outside_binary64_raise():
    # at y2 = 1e5 the high-degree P_n(y2) overflow before the series
    # converges; they must raise, not enter the sum
    with pytest.raises(CancellationError, match="binary64"):
        w_series_small(GENERIC, WhittakerArgs(0.5, 1e5))


# the 12 x 12 geometric grid over [0.01, 10]^2 of the series checks
SERIES_GRID = np.geomspace(0.01, 10.0, 12)


@pytest.mark.parametrize("p", [LIFT, GENERIC], ids=["LIFT", "GEN"])
def test_series_returns_no_value_at_large_y1(p):
    # at y1 = 5.34 and 10 every grid point loses its digits to
    # cancellation or does not converge, so none may return a value (at
    # y1 = 2.85 the LIFT points with y2 <= 2.85 hold 5e-11 against w_stade)
    for y1 in SERIES_GRID[SERIES_GRID > 3.0]:
        for y2 in SERIES_GRID:
            with pytest.raises((CancellationError, NonConvergenceError)):
                w_series_small(p, WhittakerArgs(y1, y2))


@pytest.mark.parametrize("p, y1, y2", [
    (LIFT, SERIES_GRID[9], SERIES_GRID[10]),
    (LIFT, SERIES_GRID[10], SERIES_GRID[10]),
    (LIFT, SERIES_GRID[10], SERIES_GRID[11]),
    (GENERIC, SERIES_GRID[10], SERIES_GRID[8]),
    (GENERIC, SERIES_GRID[10], SERIES_GRID[9]),
    (GENERIC, SERIES_GRID[10], SERIES_GRID[10]),
    (GENERIC, SERIES_GRID[10], SERIES_GRID[11]),
    (GENERIC, 0.5, 1000.0)])
def test_series_guard_sees_cancelling_products(p, y1, y2):
    # each term is P_n K + 2 pi y2 Q_n K', and the two products cancel
    # inside it; guarding on the term returned these points 6e-3 to 1e41
    # off w_stade.  At (0.5, 1000) K itself was 5e-6 off (see
    # test_bessel_large_argument_step), which hid the cancellation
    with pytest.raises(CancellationError):
        w_series_small(p, WhittakerArgs(y1, y2))


def test_series_stop_rule_is_relative_at_tiny_bessel_scale():
    # K(2 pi y2) ~ e^-817 here; the stop rule compares terms with the
    # partial sums whatever their absolute size (an absolute e^-600 floor
    # stopped this series after three terms, 7.6e-5 off)
    a = WhittakerArgs(0.01, 130.0)
    assert choose_algorithm(GENERIC, a) == ("smallarg", False)
    assert w_series_small(GENERIC, a).rel_diff(w_stade(GENERIC, a)) < 1e-12


def test_stade_oscillation_cancellation_diagnostics(caplog):
    # a large third parameter makes the e^{-3gu/4} phase cancel the
    # integral far below the node size; the integral algorithm must say
    # so, and the series algorithms (which stay accurate there) must
    # agree with each other to full precision
    wide = LanglandsParams(-14.141638, -2.380388)
    a = WhittakerArgs(0.3, 0.5)
    with caplog.at_level("WARNING", logger="sl3maass.whittaker"):
        v_int = w_stade(wide, a)
    assert any("oscillation cancellation" in r.message for r in caplog.records)
    v1 = w_series_origin(wide, a)
    v2 = w_series_small(wide, a)
    assert v1.rel_diff(v2) < 1e-10
    # the integral is still right to the digits the warning promises
    assert v_int.rel_diff(v1) < 1e-1
    caplog.clear()
    with caplog.at_level("WARNING", logger="sl3maass.whittaker"):
        w_stade(LIFT, a)
    assert not any("oscillation cancellation" in r.message for r in caplog.records)


def test_origin_leading_term_structure():
    # at tiny arguments the double series reduces to its (0,0) terms:
    # 4 * (pi y1)^(1+d1) (pi y2)^(1-d2) G((d2-d3)/2) G((d2-d1)/2) G((d3-d1)/2)
    p = GENERIC
    y1 = y2 = 1e-4
    lead = ScaledComplex.zero()
    for (d1, d2, d3) in permutations(p):
        pref = gamma_ratio(GammaRatioSpec([(d2 - d3) / 2, (d2 - d1) / 2, (d3 - d1) / 2]))
        pw = ScaledComplex.from_log((1.0 + d1) * math.log(math.pi * y1)
                                    + (1.0 - d2) * math.log(math.pi * y2))
        lead = lead + pref * pw * 4.0
    lead = lead.scaled_by(p.scale_shift)
    got = w_series_origin(p, WhittakerArgs(y1, y2))
    assert got.rel_diff(lead) < 1e-6


def test_smallarg_leading_term_structure():
    # y1 -> 0: three n=0 terms, each
    # 2 * (pi y1)^(1+d1) G((d2-d1)/2) G((d3-d1)/2) (pi y2)^(1+d1/2)
    #   * 4 K_{(d2-d3)/2}(2 pi y2)
    p = GENERIC
    y1, y2 = 1e-5, 0.8
    x2 = 2.0 * math.pi * y2
    acc = ScaledComplex.zero()
    for (d1, d2, d3) in [(p.alpha, p.beta, p.gamma),
                         (p.beta, p.gamma, p.alpha),
                         (p.gamma, p.alpha, p.beta)]:
        mu = (d2 - d3) / 2.0
        pref = gamma_ratio(GammaRatioSpec([(d2 - d1) / 2, (d3 - d1) / 2]))
        pw = ScaledComplex.from_log((1.0 + d1) * math.log(math.pi * y1)
                                    + (1.0 + d1 / 2.0) * math.log(math.pi * y2))
        term = pref * pw * (4.0 * bessel_k_scaled(mu, x2).to_complex().real) * 2.0
        acc = acc + term
    acc = acc.scaled_by(p.scale_shift)
    got = w_series_small(p, WhittakerArgs(y1, y2))
    assert got.rel_diff(acc) < 1e-8


# ---------------------------------------------------------------------------
# fixed-D cache
# ---------------------------------------------------------------------------

def test_cache_structure_and_determinism():
    grid = MellinGrid2D(h=0.05, sigma1=2.0, sigma2=2.0, N1=300, N2=500)
    c1 = build_fixed_d_cache(SMALL, 0.5, grid=grid, validate=False)
    c2 = build_fixed_d_cache(SMALL, 0.5, grid=grid, validate=False)
    assert c1.inner.shape == (2 * grid.N2 + 1,)
    assert np.array_equal(c1.inner, c2.inner)
    assert c1.log_scale == c2.log_scale
    v1 = w_mellin_fixed_d(c1, 0.8)
    v2 = w_mellin_fixed_d(c1, 0.8)
    assert v1.mantissa == v2.mantissa and v1.log_scale == v2.log_scale


def test_cache_n1_doubling():
    base = default_mellin_grid(GENERIC, eps=1e-10)
    doubled = MellinGrid2D(h=base.h, sigma1=base.sigma1, sigma2=base.sigma2,
                           N1=2 * base.N1, N2=base.N2)
    c1 = build_fixed_d_cache(GENERIC, 0.7, grid=base, validate=False)
    c2 = build_fixed_d_cache(GENERIC, 0.7, grid=doubled, validate=False)
    ref = c2.inner * math.exp(c2.log_scale - c1.log_scale)
    rel = np.abs(c1.inner - ref) / np.abs(ref)
    assert float(np.max(rel)) < 1e-12


def test_cache_slice_consistency_vs_stade():
    D = 1.0
    cache = build_fixed_d_cache(LIFT, D, validate=False)
    for t in (1.0, 2.0):
        y2 = 1.0 / (t * t)
        y1 = math.sqrt(D / y2)
        got = w_mellin_fixed_d(cache, y2)
        ref = w_stade(LIFT, WhittakerArgs(y1, y2))
        assert got.rel_diff(ref) < 1e-6


def test_cache_validation_and_range():
    cache = build_fixed_d_cache(SMALL, 0.4, validate=True, y2_range=(0.2, 1.5))
    assert cache.validation_residual is not None
    assert cache.validation_residual < 1e-6
    with pytest.raises(AccuracyRangeError):
        w_mellin_fixed_d(cache, 5.0)
    with pytest.raises(AccuracyRangeError):
        w_mellin_fixed_d(cache, 0.01)


def test_cache_validation_needs_a_range():
    # validation has no default y2 range: the caller states where the
    # cache will be queried
    with pytest.raises(ValueError, match="y2_range"):
        build_fixed_d_cache(SMALL, 0.4, validate=True)
    with pytest.raises(ValueError, match="y2_range"):
        build_fixed_d_cache(SMALL, 0.4)


def test_coarse_cache_fails_validation(caplog):
    grid = replace(default_mellin_grid(GENERIC), N1=8, N2=8)
    with caplog.at_level("WARNING", logger="sl3maass.whittaker"):
        cache = build_fixed_d_cache(GENERIC, 1.0, grid=grid, eps=1e-8,
                                    y2_range=(0.3, 3.0))
    assert cache.validation_residual > 1e-2
    assert any("validation residual" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# Mellin kernel: blocked inner mat-vecs and batched outer sums
# ---------------------------------------------------------------------------

# roundoff charged per term: u for the recursive-summation bound
# (Higham, ch. 4) and u more for the products
TWO_U = float(np.finfo(float).eps)


def row_wise_inner(p, grid, D):
    """inner_D from the kernel arrays, one exactly rounded sum per row."""
    kernel = mellin_kernel(p, grid)
    n1, n2 = grid.N1, grid.N2
    k1 = np.arange(-n1, n1 + 1)
    a_d = kernel.a * np.exp(-1j * (k1 * grid.h) * (3.0 * math.log(math.pi) + math.log(D)))
    out = np.empty(2 * n2 + 1, dtype=np.complex128)
    for j in range(2 * n2 + 1):
        t = a_d * kernel.b[j:j + 2 * n1 + 1] * kernel.c[j:j + 6 * n1 + 1:3]
        out[j] = complex(math.fsum(t.real), math.fsum(t.imag))
    return out


# the D of one multi-column kernel product
WAVE_DS = (0.5, 3.7, 40.0, 104.0)


@functools.lru_cache(maxsize=2)
def wave_columns(p):
    return mellin_kernel(p, default_mellin_grid(p)).inner(WAVE_DS)


@pytest.mark.parametrize("p", [LIFT, GENERIC], ids=["LIFT", "GEN"])
@pytest.mark.parametrize("D", WAVE_DS)
def test_kernel_inner_matches_row_sums(p, D):
    """A single-D build and the column of a four-D product both keep the
    recursive-summation bound against exactly rounded row sums."""
    grid = default_mellin_grid(p)
    cache = build_fixed_d_cache(p, D, grid=grid, validate=False)
    kernel = mellin_kernel(p, grid)
    ref = row_wise_inner(p, grid, D)
    bound = (2 * grid.N1 + 1) * TWO_U * kernel.abs_rows
    assert np.all(np.abs(cache.inner - ref) <= bound)
    column = wave_columns(p)[:, WAVE_DS.index(D)]
    assert np.all(np.abs(column - ref) <= bound)
    assert cache.inner_abs_peak == float(np.max(kernel.abs_rows))


def test_kernel_inner_splits_at_max_columns(monkeypatch):
    # a product never forms more than max_columns columns; more D take
    # several products, each column still within the row-sum bound
    grid = default_mellin_grid(GENERIC)
    kernel = mellin_kernel(GENERIC, grid)
    widths = []
    product = whittaker._kernel_product

    def counted(b, c, x, n_rows):
        widths.append(x.shape[1])
        return product(b, c, x, n_rows)

    monkeypatch.setattr(whittaker.MellinKernel, "max_columns", 3)
    monkeypatch.setattr(whittaker, "_kernel_product", counted)
    columns = kernel.inner(WAVE_DS)
    assert widths == [3, 1]
    assert columns.shape == (2 * grid.N2 + 1, len(WAVE_DS))
    bound = (2 * grid.N1 + 1) * TWO_U * kernel.abs_rows
    for k, D in enumerate(WAVE_DS):
        assert np.all(np.abs(columns[:, k] - row_wise_inner(GENERIC, grid, D)) <= bound)


@pytest.mark.parametrize("p", [LIFT, GENERIC], ids=["LIFT", "GEN"])
def test_batched_outer_sums_match_scalar_calls(p):
    cache = build_fixed_d_cache(p, 3.7, validate=False)
    # more points than one row block holds, so several blocks are used
    ys = np.geomspace(0.05, 20.0, 120)
    batch = w_mellin_fixed_d(cache, ys, _no_guard=True)
    floors = mellin_outer_noise_log(cache, ys)
    assert len(batch) == ys.size
    for y, w, floor in zip(ys, batch, floors):
        one = w_mellin_fixed_d(cache, float(y), _no_guard=True)
        assert isinstance(one, ScaledComplex)
        assert (w - one).log_abs() < floor
        assert mellin_outer_noise_log(cache, float(y)) == pytest.approx(floor, abs=1e-12)


def test_kernel_log_gamma_only_on_first_build(monkeypatch):
    calls = []
    log_gamma = whittaker._log_gamma_array

    def counted(z):
        calls.append(np.size(z))
        return log_gamma(z)

    monkeypatch.setattr(whittaker, "_log_gamma_array", counted)
    mellin_kernel.cache_clear()
    grid = default_mellin_grid(GENERIC)
    build_fixed_d_cache(GENERIC, 0.8, grid=grid, validate=False)
    first = len(calls)
    build_fixed_d_cache(GENERIC, 5.3, grid=grid, validate=False)
    assert first > 0
    assert len(calls) == first


@pytest.mark.parametrize("D, cancels", [(3.7, False), (40.0, True)])
def test_noise_floor_bounds_batched_error(D, cancels):
    """Batched values against exactly rounded row and outer sums.  At
    D = 40 the inner sums cancel far below their terms, so the blocked
    mat-vec and the row sums differ by much more than the outer sums' own
    roundoff and no value is resolved; the floor still bounds the
    difference.  At D = 3.7 the values stand clear of the floor."""
    grid = default_mellin_grid(GENERIC)
    cache = build_fixed_d_cache(GENERIC, D, grid=grid, validate=False)
    ref_inner = row_wise_inner(GENERIC, grid, D)
    outer_only = (2 * grid.N2 + 1) * TWO_U * cache.inner_peak
    inner_dev = float(np.max(np.abs(cache.inner - ref_inner)))
    ys = np.geomspace(0.05, 30.0, 25)
    got = w_mellin_fixed_d(cache, ys, _no_guard=True)
    floors = mellin_outer_noise_log(cache, ys)
    k2h = cache.k2 * grid.h
    resolved = 0
    for y, w, floor in zip(ys, got, floors):
        t = ref_inner * np.exp(-1j * k2h * math.log(math.pi * y))
        total = complex(math.fsum(t.real), math.fsum(t.imag))
        ref = (ScaledComplex(total, cache.log_scale)
               * ScaledComplex.from_log(complex(_outer_prefactor_log(cache, y))))
        ref = ref.scaled_by(GENERIC.scale_shift)
        assert (w - ref).log_abs() < floor
        resolved += ref.log_abs() > floor + 2.0
    assert (inner_dev > 1e3 * outer_only) == cancels
    assert (resolved == 0) == cancels


def test_guard_rejects_values_at_the_floor():
    """At GEN D = 40 the inner sums cancel to noise (see above), so
    max |inner| is noise too and the ratio test alone passes the roundoff
    through; the floor test rejects it.  A resolved value passes."""
    noisy = build_fixed_d_cache(GENERIC, 40.0, validate=False)
    with pytest.raises(CancellationError):
        w_mellin_fixed_d(noisy, 1.0)
    cache = build_fixed_d_cache(GENERIC, 3.7, validate=False)
    v = w_mellin_fixed_d(cache, 1.0)
    assert v.log_abs() > mellin_outer_noise_log(cache, 1.0) + 2.0


def test_array_query_validation():
    cache = build_fixed_d_cache(SMALL, 0.4, validate=False, y2_range=(0.2, 1.5))
    assert w_mellin_fixed_d(cache, np.array([])) == []
    with pytest.raises(ValueError):
        w_mellin_fixed_d(cache, np.ones((2, 2)))
    with pytest.raises(ValueError):
        w_mellin_fixed_d(cache, np.array([0.5, -1.0]))
    with pytest.raises(AccuracyRangeError):
        w_mellin_fixed_d(cache, np.array([0.5, 5.0]))


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def test_dispatcher_routing():
    assert choose_algorithm(GENERIC, WhittakerArgs(0.05, 3.0)) == ("smallarg", False)
    assert choose_algorithm(GENERIC, WhittakerArgs(3.0, 0.05)) == ("smallarg", True)
    assert choose_algorithm(GENERIC, WhittakerArgs(5.0, 5.0)) == ("stade", False)
    # degenerate parameters never route to series
    deg = LanglandsParams(1.5, 1.5)
    assert choose_algorithm(deg, WhittakerArgs(0.05, 0.5)) == ("stade", False)
    # large product routes to the integral even when one argument is small
    assert choose_algorithm(GENERIC, WhittakerArgs(0.3, 15.0)) == ("stade", False)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([GENERIC, SMALL, LanglandsParams(1.5, 1.5)]),
       st.floats(0.05, 3.0), st.floats(0.05, 3.0))
def test_dispatcher_rule_and_swap(p, y1, y2):
    """The route follows the fixed thresholds (smaller argument <= 1 and
    product <= 1.3 for the series; degenerate triples always integrate),
    and w_eval of the swapped pair is the bit-exact conjugate."""
    assume(y1 != y2)
    a = WhittakerArgs(y1, y2)
    series = min(y1, y2) <= 1.0 and y1 * y2 <= 1.3 and not p.is_degenerate()
    assert choose_algorithm(p, a) == ("smallarg" if series else "stade", y1 > y2)
    v = w_eval(p, a)
    w = w_eval(p, a.swapped)
    assert w.conjugate().mantissa == v.mantissa
    assert w.log_scale == v.log_scale


def test_w_eval_dual_symmetry_is_canonical():
    a = WhittakerArgs(2.4, 0.3)
    v = w_eval(GENERIC, a)
    w = w_eval(GENERIC, a.swapped)
    assert w.conjugate().mantissa == v.mantissa
    assert w.log_scale == v.log_scale


def test_w_eval_matches_components():
    a = WhittakerArgs(0.4, 0.9)
    assert w_eval(GENERIC, a).rel_diff(w_series_small(GENERIC, a)) == 0.0
    b = WhittakerArgs(1.7, 2.1)
    assert w_eval(GENERIC, b).rel_diff(w_stade(GENERIC, b)) == 0.0


def test_scaling_convention_shared():
    # unscaling by exp(-pi|alpha-beta|) never changes relative comparisons
    a = WhittakerArgs(0.5, 0.8)
    v1 = w_series_small(GENERIC, a)
    v2 = w_stade(GENERIC, a)
    shift = GENERIC.scale_shift
    u1 = v1.scaled_by(-shift)
    u2 = v2.scaled_by(-shift)
    assert abs(v1.rel_diff(v2) - u1.rel_diff(u2)) < 1e-14
