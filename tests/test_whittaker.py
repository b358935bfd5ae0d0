import dataclasses
import functools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sl3maass.errors import (AccuracyRangeError, CancellationError,
                             DegenerateParametersError, NonConvergenceError)
from sl3maass.langlands import LanglandsParams, permutations
from sl3maass.quadrature import MellinGrid2D, QuadratureGrid, inverse_mellin_line
from sl3maass.scaled import ScaledArray, ScaledComplex
from sl3maass.specfun import (_log_gamma_array, _pole_distance,
                              bessel_k_prime_scaled, bessel_k_scaled,
                              gamma_ratio)
from sl3maass import specfun, whittaker
from sl3maass.whittaker import (WhittakerArgs,
                                build_fixed_d_cache, build_pq_table,
                                choose_algorithm, default_mellin_grid,
                                mellin_kernel, pq_build, w_eval,
                                w_mellin_fixed_d, w_series_origin,
                                w_series_small, w_stade,
                                _cyclic_triples, _pq_values)

LIFT_R = 9.533695
LIFT = LanglandsParams(-2.0 * LIFT_R, 2.0 * LIFT_R)
GENERIC = LanglandsParams(-3.7, 1.2)
SMALL = LanglandsParams(-1.3, 2.1)


@pytest.fixture
def cold_memos():
    """Clear the series memos (P/Q tables, plan, y2 half), so that a test
    counting the series' work does not depend on what earlier tests
    evaluated."""
    for memo in (build_pq_table, whittaker._series_plan, whittaker._series_y2_half):
        memo.cache_clear()


def test_args_validation():
    with pytest.raises(ValueError):
        WhittakerArgs(0.0, 1.0)
    with pytest.raises(ValueError):
        WhittakerArgs(1.0, -2.0)


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
    p_coeffs, q_coeffs = pq_build(_cyclic_triples(GENERIC), 40)
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
    tables = pq_build(_cyclic_triples(GENERIC), 40)
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


@pytest.mark.parametrize("y", [0.05, 0.8, 3.0])
def test_pq_values_by_row_blocks(y, monkeypatch, cold_memos):
    """The series evaluates P/Q rows in blocks up to its stop: every block
    equals the full-table rows bit for bit, and the series evaluates only
    the blocks it reaches."""
    tables = build_pq_table(LIFT)
    full_p, full_q = _pq_values(*tables, y)
    for lo in range(0, 61, 16):
        hi = min(lo + 16, 61)
        part_p, part_q = _pq_values(*tables, y, lo, hi)
        assert part_p.tobytes() == full_p[:, lo:hi].tobytes()
        assert part_q.tobytes() == full_q[:, lo:hi].tobytes()
    blocks = []

    def counting(*args):
        blocks.append(args[3:])
        return _pq_values(*args)

    monkeypatch.setattr(whittaker, "_pq_values", counting)
    w_series_small(LIFT, WhittakerArgs(0.2, y))
    assert blocks[0] == (0, 16) and len(blocks) < 4


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

    grid = QuadratureGrid(h=0.1, sigma=2.0, N=5000)
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


@pytest.mark.parametrize("y1, y2", [(1.0, 30.0), (30.0, 1.0)])
def test_origin_range_error_raises_without_a_warning(y1, y2):
    # the diagonal's product leaves binary64 range here; it emitted numpy's
    # "invalid value" warning before the CancellationError
    with pytest.raises(CancellationError, match="binary64"):
        w_series_origin(SMALL, WhittakerArgs(y1, y2))


def test_stade_real_at_equal_arguments_for_vanishing_gamma():
    # gamma = 0 and y1 = y2 make W self-conjugate hence real
    v = w_stade(LIFT, WhittakerArgs(0.5, 0.5))
    assert abs(v.mantissa.imag) < 1e-10 * abs(v.mantissa)


def test_stade_dual_symmetry():
    a = WhittakerArgs(0.45, 1.3)
    v = w_stade(GENERIC, a)
    w = w_stade(GENERIC, a.swapped)
    assert w.rel_diff(v.conjugate()) < 1e-9


@pytest.mark.parametrize("p", [LIFT, GENERIC, SMALL], ids=["LIFT", "GEN", "SMALL"])
def test_stade_swap_is_the_bitwise_conjugate(p):
    # the swapped call samples the mirrored nodes, so its value is the
    # exact conjugate on a 13 x 13 geometric grid over [0.01, 100]^2
    ys = np.geomspace(0.01, 100.0, 13).tolist()
    for y1 in ys:
        for y2 in ys:
            a = WhittakerArgs(y1, y2)
            v, w = w_stade(p, a).conjugate(), w_stade(p, a.swapped)
            assert (w.mantissa, w.log_scale) == (v.mantissa, v.log_scale), (y1, y2)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([LIFT, GENERIC, SMALL]),
       st.floats(math.log(0.05), math.log(3.0)), st.floats(math.log(0.05), math.log(3.0)))
@example(LIFT, 0.0, -0.16924846018252904)
def test_stade_dual_symmetry_property(p, log_y1, log_y2):
    """W(y2, y1) = conj W(y1, y2) holds for the integral algorithm, whose
    nodes are recentred at log(y2) - log(y1) and so mirror each other
    between the orders; the example is a near-zero of W at LIFT."""
    a = WhittakerArgs(math.exp(log_y1), math.exp(log_y2))
    assert w_stade(p, a.swapped).rel_diff(w_stade(p, a).conjugate()) < 1e-12


def test_whittaker_decay():
    v44 = w_stade(LIFT, WhittakerArgs(4.0, 4.0))
    v22 = w_stade(LIFT, WhittakerArgs(2.0, 2.0))
    assert v44.log_abs() - v22.log_abs() < -4.0


def stade_k_reads(monkeypatch) -> list:
    """Spy on the order's K table: the arguments of every read, x1 of all
    nodes then x2 of all nodes."""
    reads = []
    read = specfun._KTable.read

    def counting_read(self, x):
        reads.append(x)
        return read(self, x)

    monkeypatch.setattr(specfun._KTable, "read", counting_read)
    return reads


def test_stade_bessel_calls_per_block(monkeypatch):
    # the node range is fixed before sampling, so all 2N + 1 nodes are
    # sampled in one pass, with one read of the order's K table for both
    # Bessel factors
    reads = stade_k_reads(monkeypatch)
    _, _, grid = whittaker.w_stade_report(LIFT, WhittakerArgs(0.6, 1.0))
    assert [x.size for x in reads] == [2 * (2 * grid.N + 1)]


def test_stade_node_range_at_large_arguments(monkeypatch):
    # the tail walk's threshold underflowed to 0 near y = 40, which
    # switched truncation off: all 40001 nodes of the default grid were
    # sampled
    reads = stade_k_reads(monkeypatch)
    w_eval(SMALL, WhittakerArgs(40.0, 40.0))
    assert len(reads) == 1 and reads[0].size <= 2 * 400


@pytest.mark.parametrize("y", [70.0, 100.0])
def test_stade_default_step_resolves_the_peak(y, monkeypatch):
    # the integrand's peak is about 1/sqrt(pi sqrt(y1 y2)) wide in u; at
    # h = 1/16 these points were 7.7e-10 and 5.2e-7 off the quarter step
    a = WhittakerArgs(y, y)
    ref = w_stade(SMALL, a, whittaker.default_stade_grid(SMALL).halved().halved())
    assert w_stade(SMALL, a).rel_diff(ref) < 1e-12
    # an explicit grid keeps its step, so halving it halves the step used:
    # at y1 = y2 the centre node has u = 0 and the next u = h, where x1 grows
    # by sqrt((e^h + 1) / 2)
    reads = stade_k_reads(monkeypatch)
    grid = whittaker.default_stade_grid(SMALL)
    used = [whittaker.w_stade_report(SMALL, a, g)[2] for g in (grid, grid.halved())]
    assert [g.h for g in used] == [1.0 / 16.0, 1.0 / 32.0]
    for x, g in zip(reads, used):
        centre = x[g.N:g.N + 2]
        assert math.log(2.0 * (centre[1] / centre[0]) ** 2 - 1.0) == pytest.approx(g.h, rel=1e-12)


STEP_RULE_YS = np.geomspace(0.01, 100.0, 9)


@pytest.mark.parametrize("p", [LIFT, GENERIC, SMALL], ids=["LIFT", "GEN", "SMALL"])
def test_stade_step_rule_error_bound(p):
    """The default step comes from the strip error of the trapezoid rule;
    on a geometric grid over [0.01, 100]^2 (and at the LIFT near-zero
    (1.0, 0.8443)) the default value agrees with the quarter step within
    its stated absolute error.  At twice the step the discretization error
    is well above roundoff, and the stated error of that grid bounds it
    too, which checks the strip's growth terms."""
    pts = [(y1, y2) for y1 in STEP_RULE_YS for y2 in STEP_RULE_YS]
    if p is LIFT:
        pts.append((1.0, 0.8443))
    for y1, y2 in pts:
        a = WhittakerArgs(y1, y2)
        grid = whittaker.default_stade_grid(p, a)
        ref = w_stade(p, a, replace(grid, h=grid.h / 4.0))
        for step in (grid.h, 2.0 * grid.h):
            v, err_log, used = whittaker.w_stade_report(p, a, replace(grid, h=step))
            assert used.h == step
            assert (v - ref).log_abs() < err_log, (y1, y2, step)


def test_stade_step_rule_halves_the_nodes(monkeypatch):
    # GEN (1.0, 3.853) is a form-orbit validation end; at the fixed step
    # 1/16 and the 44-nat floor it sampled 123 nodes
    reads = stade_k_reads(monkeypatch)
    _, _, grid = whittaker.w_stade_report(GENERIC, WhittakerArgs(1.0, 3.853))
    assert 2 * grid.N + 1 <= 65 and [x.size for x in reads] == [2 * (2 * grid.N + 1)]


# w_stade_report's (value, error log, N) recorded from the implementation
# that summed one point per call through trapezoid_line: the array pass and
# its per-point reductions must keep every bit
STADE_GOLDEN = [
    (LIFT, 0.002, 0.05, "ScaledComplex(mantissa=(-0.7373508212107641+0j), log_scale=54.28780557472555)", 27.11501706991251, 74),
    (LIFT, 0.3, 0.8, "ScaledComplex(mantissa=(0.5013781386512568+0j), log_scale=63.41829710704015)", 33.93844068487762, 34),
    (LIFT, 1.0, 3.853, "ScaledComplex(mantissa=(0.5330934613889012+0j), log_scale=61.551441613703076)", 31.354822060817355, 21),
    (LIFT, 6.0, 0.01, "ScaledComplex(mantissa=(0.510031800035171+0j), log_scale=47.51081005102603)", 19.279616846303924, 41),
    (LIFT, 40.0, 40.0, "ScaledComplex(mantissa=(0.7066333554501406+0j), log_scale=-586.2421369950684)", -615.5529162143301, 13),
    (GENERIC, 0.002, 0.05, "ScaledComplex(mantissa=(-0.773320793497811+0.2204065523103048j), log_scale=3.249929818447148)", -23.31209775581742, 56),
    (GENERIC, 0.3, 0.8, "ScaledComplex(mantissa=(0.5014492214344383-0.076912545081579j), log_scale=7.520762882358736)", -22.038466035734636, 24),
    (GENERIC, 1.0, 3.853, "ScaledComplex(mantissa=(0.7264053599959213-0.01085366551501174j), log_scale=-21.376978778380945)", -51.26470714289785, 18),
    (GENERIC, 6.0, 0.01, "ScaledComplex(mantissa=(-0.6355462415990327+0.05754632528943837j), log_scale=-25.01470108636176)", -53.76480014907787, 33),
    (GENERIC, 40.0, 40.0, "ScaledComplex(mantissa=(0.9522185455231106+0j), log_scale=-689.9591305061816)", -718.95846050152, 13),
    (SMALL, 0.002, 0.05, "ScaledComplex(mantissa=(-0.2974055043757857-0.4347033785014061j), log_scale=4.082736886681699)", -26.0857008501241, 53),
    (SMALL, 0.3, 0.8, "ScaledComplex(mantissa=(0.6239484627236158+0.015741077087466165j), log_scale=4.196795072072562)", -26.081504795735682, 23),
    (SMALL, 1.0, 3.853, "ScaledComplex(mantissa=(0.5533295534101045+0.0016024886157278706j), log_scale=-25.38993001733875)", -55.79567012123444, 17),
    (SMALL, 6.0, 0.01, "ScaledComplex(mantissa=(0.36088187264937205-0.376571941708334j), log_scale=-26.953438165641394)", -57.20908765815629, 31),
    (SMALL, 40.0, 40.0, "ScaledComplex(mantissa=(0.971999999171977+0j), log_scale=-694.6715194865662)", -723.6621067769505, 12),
]


@pytest.mark.parametrize("p, y1, y2, value, err_log, n", STADE_GOLDEN)
def test_stade_golden_bits(p, y1, y2, value, err_log, n):
    v, e, grid = whittaker.w_stade_report(p, WhittakerArgs(y1, y2))
    assert (repr(v), repr(e), grid.N) == (value, repr(err_log), n)


@pytest.mark.parametrize("p", [LIFT, GENERIC, SMALL], ids=["LIFT", "GEN", "SMALL"])
def test_stade_array_equals_point_calls(p):
    # every point of an array call has the bits of its own call: a 9 x 9
    # geometric grid over [0.002, 50]^2 (mirror pairs included) with (40, 40),
    # and a one-point array
    ys = np.geomspace(0.002, 50.0, 9)
    y1s = np.append(np.repeat(ys, ys.size), 40.0)
    y2s = np.append(np.tile(ys, ys.size), 40.0)
    for points in ((y1s, y2s), ([0.6], [1.0])):
        values, err_logs, ns = whittaker.w_stade_report(p, points)
        assert len(values) == err_logs.size == ns.size == len(points[0])
        assert repr(w_stade(p, points)) == repr(values)
        for i, (y1, y2) in enumerate(zip(*points)):
            v, e, grid = whittaker.w_stade_report(p, WhittakerArgs(y1, y2))
            assert (repr(values.item(i)), repr(float(err_logs[i])), ns[i]) == (repr(v), repr(e), grid.N)
    assert len(w_stade(p, ([], []))) == 0


def test_stade_array_names_the_point_past_its_node_cap():
    # the node ranges are fixed for all points before any is sampled; a
    # cap that admits (40, 40) but not (0.002, 0.05) names the latter
    grid = whittaker.default_stade_grid(GENERIC)
    far, near = WhittakerArgs(40.0, 40.0), WhittakerArgs(0.002, 0.05)
    cap = whittaker.w_stade_report(GENERIC, far, grid)[2].N
    assert whittaker.w_stade_report(GENERIC, near, grid)[2].N > cap
    with pytest.raises(NonConvergenceError, match=r"at \(0\.002, 0\.05\)"):
        w_stade(GENERIC, ([40.0, 0.002, 40.0], [40.0, 0.05, 40.0]), replace(grid, N=cap))


@pytest.mark.parametrize("points", [([0.5], [0.0]), ([1.0, 2.0], [1.0]), ([[1.0]], [[1.0]]),
                                    ([math.inf], [1.0])])
def test_stade_array_rejects_bad_points(points):
    with pytest.raises(ValueError):
        w_stade(GENERIC, points)


@pytest.mark.parametrize("y", [3e7, 1e8])
def test_stade_huge_equal_arguments(y):
    # the tail envelope bounded the other Bessel factor by e^{-pi m/2}, far
    # above its e^{-x} here, and the node range ran past N = 20000
    a = WhittakerArgs(y, y)
    v, err_log, grid = whittaker.w_stade_report(GENERIC, a)
    assert (v - w_stade(GENERIC, a, grid.halved())).log_abs() < err_log


def test_series_work_per_call(monkeypatch, cold_memos):
    # one P/Q table build and one K/K' pair call per distinct order |mu| per
    # series evaluation at a new y2 (LIFT's three orders are r, r and 2r),
    # no call of the K table, no log-gamma once the plan is memoized, and the
    # n-series summed as arrays: the ScaledComplex values made per call do
    # not grow with the number of terms
    tables, pair_calls, single_calls, log_gammas, scaled, blocks = [], [], [], [], [], []

    def counting_table(p):
        tables.append(p)
        return build_pq_table(p)

    def counting(calls, f):
        def spy(*args):
            calls.append(args)
            return f(*args)
        return spy

    post_init = ScaledComplex.__post_init__

    def counting_post_init(self):
        scaled.append(1)
        post_init(self)

    # few terms: every slice stops within the first P/Q block of 16 rows;
    # many terms: some slice runs past it, into the third block
    few, many = WhittakerArgs(0.01, 0.1), WhittakerArgs(3.0, 0.4)
    # memoize the y-free plan and the tables, but not the y2 halves
    for p in (LIFT, GENERIC):
        whittaker._series_plan(p)
        build_pq_table(p)
    monkeypatch.setattr(whittaker, "build_pq_table", counting_table)
    monkeypatch.setattr(whittaker, "bessel_k_pair_scaled",
                        counting(pair_calls, whittaker.bessel_k_pair_scaled))
    monkeypatch.setattr(whittaker, "_bessel_k_table", counting(single_calls, whittaker._bessel_k_table))
    monkeypatch.setattr(whittaker, "_log_gamma_array", counting(log_gammas, _log_gamma_array))
    monkeypatch.setattr(ScaledComplex, "__post_init__", counting_post_init)
    monkeypatch.setattr(whittaker, "_pq_values", counting(blocks, _pq_values))
    made, reached = [], []
    for p, a, orders in ((LIFT, few, 2), (LIFT, many, 2), (GENERIC, few, 3)):
        for counts in (tables, pair_calls, single_calls, log_gammas, scaled, blocks):
            counts.clear()
        w_series_small(p, a)
        assert tables == [p]
        assert len(pair_calls) == orders
        assert len({abs(mu.imag) for mu, _ in pair_calls}) == orders
        assert single_calls == [] and log_gammas == []
        made.append(len(scaled))
        reached.append(len(blocks))
    assert reached[:2] == [1, 3]
    assert made[0] == made[1]


def test_series_raises_at_its_term_cap():
    # at (8.0, 4.6) some slice is still above the stop tolerance at n = 60
    with pytest.raises(NonConvergenceError, match="nmax=60"):
        w_series_small(LIFT, WhittakerArgs(8.0, 4.6))


# w_series_small's values recorded from the implementation that summed one
# slice at a time from six scalar K calls and a per-call log-gamma: the
# series plan, the K/K' pair and the (3, rows) sums must keep every bit
SERIES_GOLDEN = [
    (LIFT, 0.01, 0.05, "ScaledComplex(mantissa=(-1.25399563469959+1.4716024995163883e-32j), log_scale=56.17357436019651)"),
    (LIFT, 0.01, 0.6, "ScaledComplex(mantissa=(1.2221243237360717+9.8192683391687e-32j), log_scale=58.65848100998451)"),
    (LIFT, 0.01, 1.3, "ScaledComplex(mantissa=(1.7981713820071366+2.5269165534084134e-30j), log_scale=58.892449495387424)"),
    (LIFT, 0.2, 0.05, "ScaledComplex(mantissa=(-2.020216659388568-3.2997274211075786e-25j), log_scale=58.16930663375051)"),
    (LIFT, 0.2, 0.6, "ScaledComplex(mantissa=(1.3992786207793497+7.301065841448417e-24j), log_scale=61.6542132835385)"),
    (LIFT, 0.2, 1.3, "ScaledComplex(mantissa=(2.265158365535718+4.414070392930166e-22j), log_scale=60.88818176894141)"),
    (LIFT, 0.7, 0.05, "ScaledComplex(mantissa=(-1.7734544528535638-3.1782178936791965e-20j), log_scale=60.07549601196589)"),
    (LIFT, 0.7, 0.6, "ScaledComplex(mantissa=(1.332305210662236+3.6226448216934363e-19j), log_scale=60.56040266175389)"),
    (LIFT, 0.7, 1.3, "ScaledComplex(mantissa=(1.2585944453453557+3.117764775918972e-19j), log_scale=63.14094473743678)"),
    (GENERIC, 0.01, 0.05, "ScaledComplex(mantissa=(0.5039787925991766+0.8832843694975561j), log_scale=4.8744145389621405)"),
    (GENERIC, 0.01, 0.6, "ScaledComplex(mantissa=(0.32168628307385555+1.9737929380671952j), log_scale=5.541603866885183)"),
    (GENERIC, 0.01, 1.3, "ScaledComplex(mantissa=(-1.239941067368626+2.398795732580038j), log_scale=1.916564040092954)"),
    (GENERIC, 0.2, 0.05, "ScaledComplex(mantissa=(-1.2539644533389593+0.13706271761156275j), log_scale=7.369506652289715)"),
    (GENERIC, 0.2, 0.6, "ScaledComplex(mantissa=(2.1123648663038046-0.7845839194894624j), log_scale=7.537336140439173)"),
    (GENERIC, 0.2, 1.3, "ScaledComplex(mantissa=(1.40894426737947-0.4040953731301373j), log_scale=3.9122963136469444)"),
    (GENERIC, 0.7, 0.05, "ScaledComplex(mantissa=(-1.3090850235797316+1.900105981428166j), log_scale=6.622269620785083)"),
    (GENERIC, 0.7, 0.6, "ScaledComplex(mantissa=(1.9808383831798224+0.026890720765063755j), log_scale=4.790099108934541)"),
    (GENERIC, 0.7, 1.3, "ScaledComplex(mantissa=(1.251774504238902-0.03286115791972328j), log_scale=0.02638452483208198)"),
    (SMALL, 0.01, 0.05, "ScaledComplex(mantissa=(-0.3961027703134537+1.2884197176736452j), log_scale=4.3750027615814915)"),
    (SMALL, 0.01, 0.6, "ScaledComplex(mantissa=(-0.42467727278562334+1.4236990679676365j), log_scale=4.876432683596307)"),
    (SMALL, 0.01, 1.3, "ScaledComplex(mantissa=(0.054044343832893554+1.0316210330028601j), log_scale=1.2513928568040793)"),
    (SMALL, 0.2, 0.05, "ScaledComplex(mantissa=(1.3521705536457898-0.914780624852115j), log_scale=7.370735035135483)"),
    (SMALL, 0.2, 0.6, "ScaledComplex(mantissa=(2.714715339271376+0.1390775474692651j), log_scale=4.872164957150298)"),
    (SMALL, 0.2, 1.3, "ScaledComplex(mantissa=(1.515980249197422+0.07022133228127335j), log_scale=0.7748499391824826)"),
    (SMALL, 0.7, 0.05, "ScaledComplex(mantissa=(1.0564346030193987-0.4161863439162558j), log_scale=5.623498003630851)"),
    (SMALL, 0.7, 0.6, "ScaledComplex(mantissa=(1.353534067831261-0.003265822997189888j), log_scale=1.6526527344700792)"),
    (SMALL, 0.7, 1.3, "ScaledComplex(mantissa=(1.4056714826382124+0.00689210000505879j), log_scale=-3.9723870923221494)"),
    (GENERIC, 0.9886363636363638, 1.2568181818181818, "ScaledComplex(mantissa=(1.4385947938622983-0.01085521419433228j), log_scale=-2.252156094062741)"),
    (GENERIC, 2.0, 0.8, "CancellationError"),
    (SMALL, 2.0, 0.5, "CancellationError"),
]

# the same values after ScaledComplex moved to power-of-two normalization,
# which changes every mantissa and scale: by at most 2.3e-14 relative where
# the series does not cancel (y1 <= 0.2, and the lift), by up to 2.4e-10
# where it does, within the old and new values' own error against a
# quarter-step w_stade; the tests hold these bits
RENORMALIZED = {
    "ScaledComplex(mantissa=(-1.25399563469959+1.4716024995163883e-32j), log_scale=56.17357436019651)":
        "ScaledComplex(mantissa=(-0.8189926489126891+9.611130979051617e-33j), log_scale=56.59958949215632)",
    "ScaledComplex(mantissa=(1.2221243237360717+9.8192683391687e-32j), log_scale=58.65848100998451)":
        "ScaledComplex(mantissa=(0.7981772898571572+6.413027577569226e-32j), log_scale=59.08449614194432)",
    "ScaledComplex(mantissa=(1.7981713820071366+2.5269165534084134e-30j), log_scale=58.892449495387424)":
        "ScaledComplex(mantissa=(0.7754229419031257+1.089678707710569e-30j), log_scale=59.733566412027756)",
    "ScaledComplex(mantissa=(-2.020216659388568-3.2997274211075786e-25j), log_scale=58.16930663375051)":
        "ScaledComplex(mantissa=(-0.9707724457031972-1.5856143170839476e-25j), log_scale=58.902174585150355)",
    "ScaledComplex(mantissa=(1.3992786207793497+7.301065841448417e-24j), log_scale=61.6542132835385)":
        "ScaledComplex(mantissa=(0.9138779055427152+4.768373260570467e-24j), log_scale=62.080228415498304)",
    "ScaledComplex(mantissa=(2.265158365535718+4.414070392930166e-22j), log_scale=60.88818176894141)":
        "ScaledComplex(mantissa=(0.7186900773204117+1.4004974840875578e-22j), log_scale=62.03615150502179)",
    "ScaledComplex(mantissa=(-1.7734544528535638-3.1782178936791965e-20j), log_scale=60.07549601196589)":
        "ScaledComplex(mantissa=(-0.8190096525645844-1.467751894438779e-20j), log_scale=60.84808473420567)",
    "ScaledComplex(mantissa=(1.332305210662236+3.6226448216934363e-19j), log_scale=60.56040266175389)":
        "ScaledComplex(mantissa=(0.6661526053311213+1.8113224108466972e-19j), log_scale=61.25354984231384)",
    "ScaledComplex(mantissa=(1.2585944453453557+3.117764775918972e-19j), log_scale=63.14094473743678)":
        "ScaledComplex(mantissa=(0.5427419306291483+1.3444693642084732e-19j), log_scale=63.982061654077114)",
    "ScaledComplex(mantissa=(0.5039787925991766+0.8832843694975561j), log_scale=4.8744145389621405)":
        "ScaledComplex(mantissa=(0.30587433547914855+0.5360821199753502j), log_scale=5.373774378735723)",
    "ScaledComplex(mantissa=(0.32168628307385555+1.9737929380671952j), log_scale=5.541603866885183)":
        "ScaledComplex(mantissa=(0.16084314153692786+0.9868964690335976j), log_scale=6.234751047445126)",
    "ScaledComplex(mantissa=(-1.239941067368626+2.398795732580038j), log_scale=1.916564040092954)":
        "ScaledComplex(mantissa=(-0.3099852668421565+0.5996989331450092j), log_scale=3.302858401212845)",
    "ScaledComplex(mantissa=(-1.2539644533389593+0.13706271761156275j), log_scale=7.369506652289715)":
        "ScaledComplex(mantissa=(-0.9226154846863791+0.10084511192076101j), log_scale=7.67635947172977)",
    "ScaledComplex(mantissa=(2.1123648663038046-0.7845839194894624j), log_scale=7.537336140439173)":
        "ScaledComplex(mantissa=(0.7770956065660323-0.28863229385388306j), log_scale=8.537336140439173)",
    "ScaledComplex(mantissa=(1.40894426737947-0.4040953731301373j), log_scale=3.9122963136469444)":
        "ScaledComplex(mantissa=(0.5183216297252682-0.14865838004708015j), log_scale=4.912296313646944)",
    "ScaledComplex(mantissa=(-1.3090850235797316+1.900105981428166j), log_scale=6.622269620785083)":
        "ScaledComplex(mantissa=(-0.52140404454647+0.7568056512284169j), log_scale=7.542828079105247)",
    "ScaledComplex(mantissa=(1.9808383831798224+0.026890720765063755j), log_scale=4.790099108934541)":
        "ScaledComplex(mantissa=(0.8541941785354874+0.011596048082152421j), log_scale=5.631216025574869)",
    "ScaledComplex(mantissa=(1.251774504238902-0.03286115791972328j), log_scale=0.02638452483208198)":
        "ScaledComplex(mantissa=(0.5398009769175616-0.014170671385425493j), log_scale=0.8675014414724096)",
    "ScaledComplex(mantissa=(-0.3961027703134537+1.2884197176736452j), log_scale=4.3750027615814915)":
        "ScaledComplex(mantissa=(-0.1980513851567268+0.6442098588368227j), log_scale=5.068149942141437)",
    "ScaledComplex(mantissa=(-0.42467727278562334+1.4236990679676365j), log_scale=4.876432683596307)":
        "ScaledComplex(mantissa=(-0.14429906419658808+0.4837519132063131j), log_scale=5.955874225276143)",
    "ScaledComplex(mantissa=(0.054044343832893554+1.0316210330028601j), log_scale=1.2513928568040793)":
        "ScaledComplex(mantissa=(0.03672693944298687+0.7010591769669556j), log_scale=1.6376872179239683)",
    "ScaledComplex(mantissa=(1.3521705536457898-0.914780624852115j), log_scale=7.370735035135483)":
        "ScaledComplex(mantissa=(0.6760852768228949-0.45739031242605777j), log_scale=8.063882215695429)",
    "ScaledComplex(mantissa=(2.714715339271376+0.1390775474692651j), log_scale=4.872164957150298)":
        "ScaledComplex(mantissa=(0.5891716519393437+0.03018384550482347j), log_scale=6.399889765974711)",
    "ScaledComplex(mantissa=(1.515980249197422+0.07022133228127335j), log_scale=0.7748499391824826)":
        "ScaledComplex(mantissa=(0.5117502473219073+0.023704651944668753j), log_scale=1.860830769238179)",
    "ScaledComplex(mantissa=(1.0564346030193987-0.4161863439162558j), log_scale=5.623498003630851)":
        "ScaledComplex(mantissa=(0.8415485089072838-0.3315311673333028j), log_scale=5.850909281391069)",
    "ScaledComplex(mantissa=(1.353534067831261-0.003265822997189888j), log_scale=1.6526527344700792)":
        "ScaledComplex(mantissa=(0.5355940647272632-0.0012922876886136692j), log_scale=2.579750481166103)",
    "ScaledComplex(mantissa=(1.4056714826382124+0.00689210000505879j), log_scale=-3.9723870923221494)":
        "ScaledComplex(mantissa=(0.9657349110527775+0.00473506199023177j), log_scale=-3.597006078481547)",
    "ScaledComplex(mantissa=(1.4385947938622983-0.01085521419433228j), log_scale=-2.252156094062741)":
        "ScaledComplex(mantissa=(0.5676861091012597-0.00428359273814749j), log_scale=-1.3223026569724254)",
}


@pytest.mark.parametrize("p, y1, y2, expected", SERIES_GOLDEN)
def test_series_golden_bits(p, y1, y2, expected, cold_memos):
    # cold, then on a y2 memo hit: the points that raise CancellationError
    # raise it on the hit too
    expected = RENORMALIZED.get(expected, expected)
    for hits in (0, 1):
        try:
            got = repr(w_series_small(p, WhittakerArgs(y1, y2)))
        except CancellationError as exc:
            got = type(exc).__name__
        assert got == expected
        assert whittaker._series_y2_half.cache_info().hits == hits


def test_pq_tables_memoized_per_params_and_nmax(monkeypatch):
    builds = []

    def spy(deltas, nmax):
        builds.append((tuple(deltas), nmax))
        return pq_build(deltas, nmax)

    monkeypatch.setattr(whittaker, "pq_build", spy)
    build_pq_table.cache_clear()
    a = WhittakerArgs(0.3, 0.8)
    for _ in range(5):
        for p in (LIFT, GENERIC):
            w_series_small(p, a)
    assert builds == [(_cyclic_triples(p), 60) for p in (LIFT, GENERIC)]
    for table in build_pq_table(LIFT):
        assert table.shape == (3, 61, 121)
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0.0
    maxsize = build_pq_table.cache_info().maxsize
    assert maxsize is not None and maxsize <= 8


def _series_outcome(p, a):
    try:
        v = w_series_small(p, a)
    except (CancellationError, NonConvergenceError) as exc:
        return type(exc), str(exc)
    return repr(v.mantissa), repr(v.log_scale)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([LIFT, GENERIC, SMALL]), st.floats(0.05, 1.0),
       st.floats(0.0, 1.0))
def test_memoized_series_is_bit_identical(p, y1, t):
    """A series value from cold tables equals the value from the memo, and
    the memoized tables equal fresh ones byte for byte.  Points are drawn
    from the dispatcher's series domain: y1 <= y2 and y1 y2 <= 1.3."""
    a = WhittakerArgs(y1, y1 + t * (1.3 / y1 - y1))
    build_pq_table.cache_clear()
    whittaker._series_y2_half.cache_clear()
    cold = _series_outcome(p, a)
    assert _series_outcome(p, a) == cold
    for memo, ref in zip(build_pq_table(p), pq_build(_cyclic_triples(p), 60)):
        assert memo.tobytes() == ref.tobytes()


def _counting(calls, f, keep=lambda args: args):
    def spy(*args):
        calls.append(keep(args))
        return f(*args)
    return spy


def test_series_warm_call_does_only_y1_work(monkeypatch, cold_memos):
    # at a (params, y2) seen before, a call with another y1 makes no
    # K pair call and evaluates only the P/Q blocks the memo does not hold
    # yet; it still fetches the tables once.  At y2 = 0.6 the LIFT series
    # reads one block at y1 = 0.01, two at 0.9 and three at 3.0
    tables, pair_calls, blocks = [], [], []
    monkeypatch.setattr(whittaker, "build_pq_table", _counting(tables, build_pq_table))
    monkeypatch.setattr(whittaker, "bessel_k_pair_scaled",
                        _counting(pair_calls, whittaker.bessel_k_pair_scaled))
    monkeypatch.setattr(whittaker, "_pq_values",
                        _counting(blocks, _pq_values, keep=lambda args: args[3:]))
    calls = [(0.01, [(0, 16)]), (0.9, [(16, 32)]), (0.3, []), (3.0, [(32, 48)]), (0.9, [])]
    for y1, new_blocks in calls:
        blocks.clear()
        w_series_small(LIFT, WhittakerArgs(y1, 0.6))
        assert blocks == new_blocks, y1
    assert len(tables) == len(calls)
    assert len(pair_calls) == 2


def test_series_y2_memo_is_bounded(cold_memos):
    memo = whittaker._series_y2_half
    cap = memo.cache_info().maxsize
    assert cap is not None
    ys = np.geomspace(0.05, 1.0, cap + 8).tolist()
    for y2 in ys:
        w_series_small(SMALL, WhittakerArgs(0.01, y2))
    assert memo.cache_info().currsize == cap
    kv_f, kp_f, _, pq_rows = memo(SMALL, ys[-1])
    for arr in (kv_f, kp_f, *pq_rows[0]):
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0


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
        pref = gamma_ratio([(d2 - d3) / 2, (d2 - d1) / 2, (d3 - d1) / 2])
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
        pref = gamma_ratio([(d2 - d1) / 2, (d3 - d1) / 2])
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
    c1 = build_fixed_d_cache(SMALL, 0.5, grid=grid)
    c2 = build_fixed_d_cache(SMALL, 0.5, grid=grid)
    assert c1.inner.shape == (2 * grid.N2 + 1,)
    assert np.array_equal(c1.inner, c2.inner)
    assert c1.kernel.log_scale == c2.kernel.log_scale
    v1 = w_mellin_fixed_d(c1, 0.8)
    v2 = w_mellin_fixed_d(c1, 0.8)
    assert v1.mantissa == v2.mantissa and v1.log_scale == v2.log_scale


def test_cache_n1_doubling():
    base = default_mellin_grid(GENERIC, eps=1e-10)
    doubled = MellinGrid2D(h=base.h, sigma1=base.sigma1, sigma2=base.sigma2,
                           N1=2 * base.N1, N2=base.N2)
    c1 = build_fixed_d_cache(GENERIC, 0.7, grid=base)
    c2 = build_fixed_d_cache(GENERIC, 0.7, grid=doubled)
    ref = c2.inner * math.exp(c2.kernel.log_scale - c1.kernel.log_scale)
    rel = np.abs(c1.inner - ref) / np.abs(ref)
    assert float(np.max(rel)) < 1e-12


def test_cache_slice_consistency_vs_stade():
    D = 1.0
    cache = build_fixed_d_cache(LIFT, D)
    for t in (1.0, 2.0):
        y2 = 1.0 / (t * t)
        y1 = math.sqrt(D / y2)
        got = w_mellin_fixed_d(cache, y2)
        ref = w_stade(LIFT, WhittakerArgs(y1, y2))
        assert got.rel_diff(ref) < 1e-6


def test_cache_validation_and_range():
    cache = build_fixed_d_cache(SMALL, 0.4, y2_range=(0.2, 1.5))
    assert cache.validation_residual is not None
    assert cache.validation_residual < 1e-6
    with pytest.raises(AccuracyRangeError):
        w_mellin_fixed_d(cache, 5.0)
    with pytest.raises(AccuracyRangeError):
        w_mellin_fixed_d(cache, 0.01)


def items(values):
    """The elements of a batch's ScaledArray as ScaledComplex values."""
    return [values.item(k) for k in range(len(values))]


def _spy(monkeypatch, name):
    """Count the calls of whittaker.<name> made through the module."""
    calls = []
    fn = getattr(whittaker, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(whittaker, name, counted)
    return calls


def test_cache_is_validated_exactly_when_it_has_a_range(monkeypatch):
    # the all-default build is an unvalidated cache: no range, no
    # residual, no w_eval call
    evals = _spy(monkeypatch, "w_eval")
    queries = _spy(monkeypatch, "w_mellin_fixed_d")
    cache = build_fixed_d_cache(SMALL, 0.4)
    assert cache.y2_range is None and cache.validation_residual is None
    assert evals == [] and queries == []
    # with a range: one batch query at its end points and two w_eval calls
    cache = build_fixed_d_cache(SMALL, 0.4, y2_range=(0.2, 1.5))
    assert cache.y2_range == (0.2, 1.5)
    assert cache.validation_residual is not None
    assert len(queries) == 1 and np.ndim(queries[0][1]) == 1
    assert len(evals) == 2


def test_cache_holds_its_kernel():
    grid = default_mellin_grid(GENERIC)
    cache = build_fixed_d_cache(GENERIC, 0.8, grid=grid)
    assert [f.name for f in dataclasses.fields(cache)] == [
        "kernel", "D", "inner", "inner_peak", "y2_range", "validation_residual"]
    assert cache.kernel is mellin_kernel(GENERIC, grid)
    assert cache.kernel.params == GENERIC and cache.grid == grid


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
def test_cache_rejects_bad_eps(eps):
    grid = replace(default_mellin_grid(GENERIC), N1=8, N2=8)
    with pytest.raises(ValueError, match="eps"):
        build_fixed_d_cache(GENERIC, 1.0, grid=grid, eps=eps, y2_range=(0.3, 3.0))


@pytest.mark.parametrize("y2_range", [(2.0, 0.5), (0.0, 1.0), (-1.0, 1.0),
                                      (0.5, math.inf), (math.nan, 1.0), (0.5, math.nan)])
def test_cache_rejects_bad_y2_range(monkeypatch, y2_range):
    # an empty range would validate both ends and then refuse every
    # query, its own ends included, so a bad range fails before any product
    kernels = _spy(monkeypatch, "mellin_kernel")
    evals = _spy(monkeypatch, "w_eval")
    with pytest.raises(ValueError, match="y2_range"):
        build_fixed_d_cache(GENERIC, 1.0, y2_range=y2_range)
    assert kernels == [] and evals == []


def test_cache_accepts_eps_above_one():
    # eps is an absolute level in the scaled convention, not a relative
    # accuracy; the assembly passes exp(log_eps), which can exceed 1
    grid = replace(default_mellin_grid(GENERIC), N1=8, N2=8)
    cache = build_fixed_d_cache(GENERIC, 1.0, grid=grid, eps=1.0, y2_range=(0.3, 3.0))
    assert math.isfinite(cache.validation_residual)


def test_cache_validates_coinciding_ends_once(monkeypatch):
    # the residual is the one a two-point batch at (y2, y2) gave, up to
    # the batch's last bits
    plain = build_fixed_d_cache(SMALL, 0.4)
    y2 = 0.6
    w = w_mellin_fixed_d(plain, np.array([y2, y2]))[0].item(0)
    ref = w_eval(SMALL, WhittakerArgs(math.sqrt(0.4 / y2), y2))
    expected = math.exp((w - ref).log_abs() - max(ref.log_abs(), math.log(1e-12)))
    evals = _spy(monkeypatch, "w_eval")
    cache = build_fixed_d_cache(SMALL, 0.4, y2_range=(y2, y2))
    assert len(evals) == 1
    assert cache.validation_residual == pytest.approx(expected, rel=1e-3)
    build_fixed_d_cache(SMALL, 0.4, y2_range=(0.5, y2))
    assert len(evals) == 3


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf, 1.0, 10.0, 1e30])
def test_default_mellin_grid_rejects_bad_eps(eps):
    with pytest.raises(ValueError, match="eps"):
        default_mellin_grid(GENERIC, eps)
    # a cache without a grid takes it from its eps, so eps >= 1 fails too
    with pytest.raises(ValueError, match="eps"):
        build_fixed_d_cache(GENERIC, 1.0, eps=eps)


# ---------------------------------------------------------------------------
# Mellin step rule: h = 2 pi a / (log(1/eps) + margin), no |p| term
# ---------------------------------------------------------------------------

# D of the step-rule checks, each at 16 y2 in [D / 13^2, 13], so that
# both arguments stay at most 13
RULE_DS = (1e-3, 0.1, 3.7, 100.0, 2e3)


def rule_points(D):
    return np.geomspace(D / 13.0 ** 2, 13.0, 16)


def prefactor_log(cache, y2):
    """log of the outer sums' y2 prefactor of cache at y2."""
    g = cache.grid
    return (0.5 * (1.0 - g.sigma1) * (3.0 * math.log(math.pi) + math.log(cache.D))
            + 0.5 * (1.0 - 2.0 * g.sigma2 + g.sigma1) * np.log(math.pi * np.asarray(y2))
            + math.log(g.h * g.h / (2.0 * math.pi ** 2)))


def predicted_error_log(p, eps, D):
    """log of the absolute error that the rule's kernel at eps predicts at
    each point of D."""
    cache = build_fixed_d_cache(p, D, grid=default_mellin_grid(p, eps))
    return (cache.kernel.discretization_log
            + prefactor_log(cache, rule_points(D)) + p.scale_shift)


def half_step_excess(p, grid, D, predicted_log):
    """Largest log of |W_h - W_{h/2}| over the tolerance, the predicted
    error plus both batch floors; the half step keeps t1 = N1 h and
    t2 = N2 h."""
    half = replace(grid, h=grid.h / 2.0, N1=2 * grid.N1, N2=2 * grid.N2)
    (got, floors), (ref, ref_floors) = (
        w_mellin_fixed_d(build_fixed_d_cache(p, D, grid=g), rule_points(D))
        for g in (grid, half))
    tol = np.logaddexp(np.logaddexp(floors, ref_floors), predicted_log)
    dev = np.array([(w - r).log_abs() for w, r in zip(items(got), items(ref))])
    return float(np.max(dev - tol))


@pytest.mark.parametrize("p", [LIFT, GENERIC, SMALL], ids=["LIFT", "GEN", "SMALL"])
@pytest.mark.parametrize("eps", [1e-10, 1e-14])
def test_mellin_step_rule_keeps_its_error_statement(p, eps):
    grid = default_mellin_grid(p, eps)
    for D in RULE_DS:
        assert half_step_excess(p, grid, D, predicted_error_log(p, eps, D)) < 0.0


def test_mellin_step_rule_check_fails_at_a_coarser_step():
    # at 2.5 times the rule's step, on the same ranges, GEN aliases above
    # the tolerance that the rule's own kernel gives
    grid = default_mellin_grid(GENERIC, 1e-10)
    coarse = replace(grid, h=2.5 * grid.h, N1=math.ceil(grid.N1 / 2.5),
                     N2=math.ceil(grid.N2 / 2.5))
    assert max(half_step_excess(GENERIC, coarse, D, predicted_error_log(GENERIC, 1e-10, D))
               for D in RULE_DS) > 0.0


@pytest.mark.parametrize("eps", [1e-10, 1e-14])
def test_mellin_step_has_no_parameter_term(eps):
    lift, gen = default_mellin_grid(LIFT, eps), default_mellin_grid(GENERIC, eps)
    assert lift.h == gen.h
    assert lift.N1 > gen.N1 and lift.N2 > gen.N2
    # the kernel's prediction inverts the rule: eps of its term scale
    kernel = mellin_kernel(GENERIC, gen)
    assert kernel.discretization_log == pytest.approx(
        kernel.log_scale + math.log(kernel.abs_peak) + math.log(eps), abs=1e-9)


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
    recursive-summation bound against exactly rounded row sums.  The
    lift's kernel is self-dual: its products form the rows k2 >= 0, and
    its columns are exactly conjugate-symmetric, the row k2 = 0 real."""
    grid = default_mellin_grid(p)
    cache = build_fixed_d_cache(p, D, grid=grid)
    kernel = mellin_kernel(p, grid)
    ref = row_wise_inner(p, grid, D)
    bound = (2 * grid.N1 + 1) * TWO_U * kernel.abs_rows
    assert np.all(np.abs(cache.inner - ref) <= bound)
    column = wave_columns(p)[:, WAVE_DS.index(D)]
    assert np.all(np.abs(column - ref) <= bound)
    assert cache.kernel.abs_peak == float(np.max(kernel.abs_rows))
    assert kernel.self_dual == (p is LIFT)
    for inner in (cache.inner, column):
        assert np.array_equal(inner[::-1], inner.conj()) == kernel.self_dual


@pytest.mark.parametrize("D", WAVE_DS)
def test_self_dual_outer_sums_fold(D):
    """The lift's outer sums fold onto k2 >= 0, so each of 130 values is
    exactly real; it matches the exactly rounded sum over all 2 N2 + 1
    rows of the same column within the value's floor.  The batch over a
    list of caches gives the sums before normalization, with their
    scales."""
    grid = default_mellin_grid(LIFT)
    column = wave_columns(LIFT)[:, WAVE_DS.index(D)]
    cache = build_fixed_d_cache(LIFT, D, grid=grid, inner=column)
    ys = np.geomspace(0.05, 20.0, 130)
    values, floors = w_mellin_fixed_d([cache], [ys])
    assert not values.mantissa.imag.any()
    k2h = np.arange(-grid.N2, grid.N2 + 1) * grid.h
    for y, total, scale, floor in zip(ys, values.mantissa, values.log_scale, floors):
        t = column * np.exp(-1j * k2h * math.log(math.pi * y))
        full = complex(math.fsum(t.real), math.fsum(t.imag))
        assert abs(total - full) < math.exp(floor - scale)


def test_kernel_inner_splits_at_max_columns(monkeypatch):
    # a product never forms more than max_columns columns; more D take
    # several products, each column still within the row-sum bound
    grid = default_mellin_grid(GENERIC)
    kernel = mellin_kernel(GENERIC, grid)
    widths = []
    product = whittaker._kernel_product

    def counted(b, c, x, out):
        widths.append(x.shape[1])
        return product(b, c, x, out)

    monkeypatch.setattr(whittaker.MellinKernel, "max_columns", 3)
    monkeypatch.setattr(whittaker, "_kernel_product", counted)
    columns = kernel.inner(WAVE_DS)
    assert widths == [3, 1]
    assert columns.shape == (2 * grid.N2 + 1, len(WAVE_DS))
    bound = (2 * grid.N1 + 1) * TWO_U * kernel.abs_rows
    for k, D in enumerate(WAVE_DS):
        assert np.all(np.abs(columns[:, k] - row_wise_inner(GENERIC, grid, D)) <= bound)


def patch_block_rows(monkeypatch, grid, rows):
    """Patch _BLOCK_ELEMS to give w_mellin_fixed_d row blocks of `rows`
    rows on grid; returns the row width."""
    width = -(-(2 * grid.N2 + 1) // whittaker._PHASE_STEP) + whittaker._PHASE_STEP
    monkeypatch.setattr(whittaker, "_BLOCK_ELEMS", rows * width)
    return width


@pytest.mark.parametrize("p", [LIFT, GENERIC], ids=["LIFT", "GEN"])
def test_batched_outer_sums_match_scalar_calls(monkeypatch, p):
    cache = build_fixed_d_cache(p, 3.7)
    # 48-row blocks, so the 120 points span three
    width = patch_block_rows(monkeypatch, cache.grid, 48)
    ys = np.geomspace(0.05, 20.0, 120)
    assert len(whittaker._row_blocks(ys.size, width)) == 3
    batch, floors = w_mellin_fixed_d(cache, ys)
    assert len(batch) == ys.size
    for y, w, floor in zip(ys, items(batch), floors):
        one, (one_floor,) = w_mellin_fixed_d(cache, np.array([y]))
        assert isinstance(one, ScaledArray) and len(one) == 1
        assert repr(w) == repr(one.item(0))
        assert one_floor == floor


@pytest.mark.parametrize("p", [LIFT, GENERIC], ids=["LIFT", "GEN"])
@pytest.mark.parametrize("block_rows", [None, 48], ids=["one-block", "48-row-blocks"])
def test_multi_cache_batch_equals_per_cache_batches(monkeypatch, p, block_rows):
    """One call over several caches gives each cache the values and floors
    of its own batch call bit for bit, whatever the other caches, their
    order, and the row blocks the 130 y2 fall into."""
    grid = default_mellin_grid(p)
    if block_rows:
        patch_block_rows(monkeypatch, grid, block_rows)
    caches = [build_fixed_d_cache(p, D, grid=grid) for D in WAVE_DS]
    ys = [np.geomspace(0.05, 20.0, n) for n in (0, 1, 3, 130)]
    singles = [w_mellin_fixed_d(cache, y) for cache, y in zip(caches, ys)]
    for order in (slice(None), slice(None, None, -1)):
        values, floors = w_mellin_fixed_d(caches[order], ys[order])
        assert isinstance(values, ScaledArray) and len(values) == floors.size == 134
        got = [repr(values.item(k)) for k in range(len(values))]
        want = [repr(v) for one, _ in singles[order] for v in items(one)]
        assert got == want
        assert floors.tolist() == [f for _, fl in singles[order] for f in fl.tolist()]


@pytest.mark.parametrize("p", [LIFT, GENERIC], ids=["LIFT", "GEN"])
@pytest.mark.parametrize("block_rows", [None, 48], ids=["default-blocks", "48-row-blocks"])
def test_outer_sum_bits_depend_only_on_cache_and_y2(monkeypatch, p, block_rows):
    """Each of 130 y2 on each WAVE_DS cache (D = 3.7 among them) keeps the
    value and floor of its own 1-row call bit for bit: in its cache's
    130-row batch, and in one call over all four caches in either order,
    whatever row blocks the rows fall into."""
    grid = default_mellin_grid(p)
    caches = [build_fixed_d_cache(p, D, grid=grid) for D in WAVE_DS]
    ys = np.geomspace(0.05, 20.0, 130)
    alone = [[w_mellin_fixed_d(cache, ys[j:j + 1]) for j in range(ys.size)] for cache in caches]
    alone = [[(repr(values.item(0)), floors[0]) for values, floors in calls] for calls in alone]
    if block_rows:
        patch_block_rows(monkeypatch, grid, block_rows)
    for cache, want in zip(caches, alone):
        values, floors = w_mellin_fixed_d(cache, ys)
        assert list(zip(map(repr, items(values)), floors.tolist())) == want
    for order in (slice(None), slice(None, None, -1)):
        values, floors = w_mellin_fixed_d(caches[order], [ys] * len(caches))
        got = [(repr(values.item(k)), floors[k]) for k in range(len(values))]
        assert got == [pair for want in alone[order] for pair in want]


def test_outer_sums_do_not_depend_on_blas_threads(tmp_path):
    """One call over the WAVE_DS caches of LIFT and of GEN, 130 y2 each,
    gives the same bits under 1 and 2 BLAS threads.  The columns are
    formed here and passed in, since a kernel product's bits may depend
    on the thread count."""
    for k, p in enumerate((LIFT, GENERIC)):
        np.save(tmp_path / f"inner{k}.npy", mellin_kernel(p, default_mellin_grid(p)).inner(WAVE_DS))
    params = [(p.r_alpha, p.r_beta) for p in (LIFT, GENERIC)]
    script = ("import sys\n"
              "import numpy as np\n"
              "from sl3maass.langlands import LanglandsParams\n"
              "from sl3maass.whittaker import (build_fixed_d_cache, default_mellin_grid,\n"
              "                                w_mellin_fixed_d)\n"
              "ys = np.geomspace(0.05, 20.0, 130)\n"
              f"for k, (ra, rb) in enumerate({params!r}):\n"
              "    p = LanglandsParams(ra, rb)\n"
              "    inner = np.load(f'{sys.argv[1]}/inner{k}.npy')\n"
              "    caches = [build_fixed_d_cache(p, D, grid=default_mellin_grid(p), inner=inner[:, j])\n"
              f"              for j, D in enumerate({WAVE_DS!r})]\n"
              "    values, floors = w_mellin_fixed_d(caches, [ys] * len(caches))\n"
              "    for j in range(len(values)):\n"
              "        print(repr(values.item(j)), repr(floors[j]))\n")
    src = str(Path(whittaker.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    assert len(outputs[0]) == 2 * len(WAVE_DS) * 130
    assert outputs[0] == outputs[1]


def test_multi_cache_batch_errors():
    grid = default_mellin_grid(GENERIC)
    caches = [build_fixed_d_cache(GENERIC, D, grid=grid, y2_range=(D / 16.0, 4.0))
              for D in (0.5, 3.7)]
    with pytest.raises(AccuracyRangeError, match=r"at D=3\.7$"):
        w_mellin_fixed_d(caches, [np.array([0.1]), np.array([1.0, 5.0])])
    with pytest.raises(AccuracyRangeError, match=r"at D=0\.5$"):
        w_mellin_fixed_d(caches, [np.array([0.01]), np.array([1.0])])
    other = build_fixed_d_cache(GENERIC, 3.7, grid=replace(grid, N2=grid.N2 + 1))
    with pytest.raises(ValueError, match="one kernel"):
        w_mellin_fixed_d([caches[0], other], [np.array([1.0]), np.array([1.0])])
    with pytest.raises(ValueError, match="one per cache"):
        w_mellin_fixed_d(caches, [np.array([1.0])])
    with pytest.raises(ValueError, match="one per cache"):
        w_mellin_fixed_d(caches, [1.0, np.array([1.0])])  # a scalar per cache
    with pytest.raises(ValueError, match="one per cache"):
        w_mellin_fixed_d(caches, [np.array([[1.0]]), np.array([1.0])])  # 2-D per cache


def test_kernel_log_gamma_only_on_first_build(monkeypatch):
    calls = []
    log_gamma = whittaker._log_gamma_array

    def counted(z):
        calls.append(np.size(z))
        return log_gamma(z)

    monkeypatch.setattr(whittaker, "_log_gamma_array", counted)
    mellin_kernel.cache_clear()
    grid = default_mellin_grid(GENERIC)
    build_fixed_d_cache(GENERIC, 0.8, grid=grid)
    first = len(calls)
    build_fixed_d_cache(GENERIC, 5.3, grid=grid)
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
    cache = build_fixed_d_cache(GENERIC, D, grid=grid)
    ref_inner = row_wise_inner(GENERIC, grid, D)
    outer_only = (2 * grid.N2 + 1) * TWO_U * cache.inner_peak
    inner_dev = float(np.max(np.abs(cache.inner - ref_inner)))
    ys = np.geomspace(0.05, 30.0, 25)
    got, floors = w_mellin_fixed_d(cache, ys)
    k2h = np.arange(-grid.N2, grid.N2 + 1) * grid.h
    resolved = 0
    for y, w, floor in zip(ys, items(got), floors):
        t = ref_inner * np.exp(-1j * k2h * math.log(math.pi * y))
        total = complex(math.fsum(t.real), math.fsum(t.imag))
        ref = (ScaledComplex(total, cache.kernel.log_scale)
               * ScaledComplex.from_log(complex(prefactor_log(cache, y))))
        ref = ref.scaled_by(GENERIC.scale_shift)
        assert (w - ref).log_abs() < floor
        resolved += ref.log_abs() > floor + 2.0
    assert (inner_dev > 1e3 * outer_only) == cancels
    assert (resolved == 0) == cancels


def test_guard_rejects_values_at_the_floor():
    """At GEN D = 40 the inner sums cancel to noise (see above), so
    max |inner| is noise too and the ratio test alone passes the roundoff
    through; the floor test rejects it.  A resolved value passes."""
    noisy = build_fixed_d_cache(GENERIC, 40.0)
    with pytest.raises(CancellationError):
        w_mellin_fixed_d(noisy, 1.0)
    cache = build_fixed_d_cache(GENERIC, 3.7)
    v = w_mellin_fixed_d(cache, 1.0)
    _, (floor,) = w_mellin_fixed_d(cache, np.array([1.0]))
    assert v.log_abs() > floor + 2.0


def test_batch_returns_floors_and_point_query_keeps_guard():
    """A batch returns its values with their roundoff floors and leaves
    the floor test to its caller; a point query keeps the guard.  At GEN
    D = 40 every value is noise: the batch returns it below its floor + 2,
    and a point query at the same y2 raises."""
    ys = np.geomspace(0.05, 30.0, 25)
    noisy = build_fixed_d_cache(GENERIC, 40.0)
    values, floors = w_mellin_fixed_d(noisy, ys)
    assert len(values) == floors.shape[0] == ys.size
    for y, w, floor in zip(ys, items(values), floors):
        assert w.log_abs() < floor + 2.0
        with pytest.raises(CancellationError):
            w_mellin_fixed_d(noisy, float(y))
    cache = build_fixed_d_cache(GENERIC, 3.7)
    (one,) = items(w_mellin_fixed_d(cache, np.array([1.0]))[0])
    assert repr(w_mellin_fixed_d(cache, 1.0)) == repr(one)


def test_array_query_validation():
    cache = build_fixed_d_cache(SMALL, 0.4, y2_range=(0.2, 1.5))
    values, floors = w_mellin_fixed_d(cache, np.array([]))
    assert isinstance(values, ScaledArray) and len(values) == floors.size == 0
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


@pytest.mark.parametrize("y1, y2", [(0.3, 0.8), (0.8, 0.3)])
def test_w_eval_falls_back_to_stade_when_the_series_guard_trips(y1, y2, monkeypatch,
                                                                 caplog):
    def tripped(p, a):
        raise CancellationError("forced")

    monkeypatch.setattr(whittaker, "w_series_small", tripped)
    a = WhittakerArgs(y1, y2)
    assert choose_algorithm(SMALL, a) == ("smallarg", y1 > y2)
    with caplog.at_level("WARNING", logger="sl3maass.whittaker"):
        got = w_eval(SMALL, a)
    ref = w_stade(SMALL, WhittakerArgs(min(y1, y2), max(y1, y2)))
    assert repr(got) == repr(ref.conjugate() if y1 > y2 else ref)
    assert any("series guard tripped" in r.getMessage() for r in caplog.records)


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


@pytest.mark.parametrize("p", [LIFT, GENERIC, SMALL], ids=["LIFT", "GEN", "SMALL"])
def test_w_eval_integral_route_is_w_stade(p):
    # w_stade is order-free, so the integral route takes either argument
    # order as it is; a 9 x 9 geometric grid over [0.01, 100]^2 holds both
    ys = np.geomspace(0.01, 100.0, 9).tolist()
    for y1 in ys:
        for y2 in ys:
            a = WhittakerArgs(y1, y2)
            if choose_algorithm(p, a)[0] == "stade":
                assert repr(w_eval(p, a)) == repr(w_stade(p, a)), (y1, y2)


def test_w_eval_dual_symmetry_is_canonical():
    a = WhittakerArgs(2.4, 0.3)
    v = w_eval(GENERIC, a)
    w = w_eval(GENERIC, a.swapped)
    assert w.conjugate().mantissa == v.mantissa
    assert w.log_scale == v.log_scale


def test_w_eval_matches_components():
    a = WhittakerArgs(0.4, 0.9)
    assert w_eval(GENERIC, a).rel_diff(w_series_small(GENERIC, a)) == 0.0
    assert repr(w_eval(GENERIC, (0.4, 0.9))) == repr(w_eval(GENERIC, a))
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
