"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with -s to see them).  Tolerances are fixed here and
match the library's binary64 accuracy targets.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from sl3maass.langlands import LanglandsParams
from sl3maass.maass import (H3Point, MaassForm, automorphy_residual,
                            coefficient_demand, enumerate_cd, eval_maass)
from sl3maass.quadrature import QuadratureGrid, refine_check
from sl3maass.scaled import ScaledArray
from sl3maass.specfun import bessel_k, bessel_k_mellin
from sl3maass.whittaker import (WhittakerArgs, build_fixed_d_cache,
                                w_eval, w_mellin_fixed_d, w_series_origin,
                                w_series_small, w_stade, pq_build,
                                _cyclic_triples)

from test_specfun import k0_series
from test_whittaker import in_closed_form, in_integral_oracle, _effective_degree
from test_maass import brute_force_cd

LIFT_R = 9.533695
LIFT = LanglandsParams(-2.0 * LIFT_R, 2.0 * LIFT_R)
GENERIC = LanglandsParams(-3.7, 1.2)

EXTERNAL_COEFFS = os.environ.get(
    "SL3MAASS_EXTERNAL_COEFFS",
    str(Path(__file__).parent / "data" / "generic_form_coefficients.txt"))


def report(name: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_cross_algorithm_whittaker_agreement():
    """All applicable algorithm pairs agree to 1e-6 on the 3x3 grid."""
    t0 = time.monotonic()
    worst = 0.0
    grid_values = (0.3, 0.6, 1.0)
    caches = {}
    for y1 in grid_values:
        for y2 in grid_values:
            a = WhittakerArgs(y1, y2)
            vals = [w_stade(LIFT, a),
                    w_series_origin(LIFT, a),
                    w_series_small(LIFT, a)]
            d = y1 * y1 * y2
            if d not in caches:
                caches[d] = build_fixed_d_cache(LIFT, d)
            vals.append(w_mellin_fixed_d(caches[d], y2))
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    worst = max(worst, vals[i].rel_diff(vals[j]))
    elapsed = time.monotonic() - t0
    report("cross-algorithm agreement",
           worst < 1e-6 and elapsed < 60.0,
           f"max pairwise rel dev {worst:.3e}, {elapsed:.1f}s")


def test_dual_symmetry_suite():
    """w_eval(y2, y1) = conj(w_eval(y1, y2)) to 1e-9 on 50 random points
    for the lift and a generic triple."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for p in (LIFT, GENERIC):
        for _ in range(50):
            y1 = rng.uniform(0.05, 3.0)
            y2 = rng.uniform(0.05, 3.0)
            v = w_eval(p, WhittakerArgs(y1, y2))
            w = w_eval(p, WhittakerArgs(y2, y1))
            worst = max(worst, w.conjugate().rel_diff(v))
    report("dual symmetry suite", worst <= 1e-9, f"max rel dev {worst:.3e}")


def test_kbessel_dual_backend():
    """Backends agree to 1e-9 on the order/argument grid; K_0(1) matches
    the ascending-series oracle to 1e-12."""
    worst = 0.0
    for m in (0.0, 1.0, 10.0, 40.0):
        for x in (0.5, 2.0, 10.0):
            a = bessel_k(1j * m, x)
            b = bessel_k_mellin(1j * m, x)
            worst = max(worst, abs(a - b) / abs(b))
    k0_err = abs(bessel_k(0.0, 1.0) - k0_series(1.0))
    report("K-Bessel dual backend",
           worst <= 1e-9 and k0_err < 1e-12,
           f"max backend dev {worst:.3e}, K_0(1) err {k0_err:.2e}")


def test_recursion_oracles():
    """I_1 closed form vs direct Barnes quadrature at 1e-9; P/Q degree
    bounds up to n = 40."""
    p = LanglandsParams(-2.0, 2.0)
    worst = 0.0
    for y in (0.3, 0.7, 1.5):
        got = in_closed_form(p, 1, y)
        ref = in_integral_oracle(p, 1, y)
        worst = max(worst, abs(got - ref) / abs(ref))
    degrees_ok = True
    p_coeffs, q_coeffs = pq_build(_cyclic_triples(GENERIC), 40)
    for j in range(3):
        for n in range(41):
            if _effective_degree(p_coeffs[j, n]) > 2 * n:
                degrees_ok = False
            if n >= 1 and _effective_degree(q_coeffs[j, n]) > 2 * n - 1:
                degrees_ok = False
    report("recursion oracles",
           worst <= 1e-9 and degrees_ok,
           f"max I_1 rel dev {worst:.3e}, degree bounds {'ok' if degrees_ok else 'violated'}")


def test_quadrature_convergence():
    """Halving h reduces the refine_check error estimate by at least 1e3
    on the Gaussian and K_0 test integrands."""
    gaussian = lambda x: ScaledArray.from_log(-x * x)
    k0_integrand = lambda x: ScaledArray.from_log(-np.cosh(x))
    ratios = []
    for f, h in ((gaussian, 0.8), (k0_integrand, 1.0)):
        g1 = QuadratureGrid(h=h, N=400)
        g2 = QuadratureGrid(h=h / 2, N=800)
        _, e1 = refine_check(f, g1)
        _, e2 = refine_check(f, g2)
        ratios.append(e1 / max(e2, 1e-300))
    report("quadrature convergence",
           min(ratios) >= 1e3,
           "error reduction factors " + ", ".join(f"{r:.2e}" for r in ratios))


def test_enumerate_cd_brute_force():
    """200 random instances match a brute-force box scan exactly."""
    rng = np.random.default_rng(99)
    checked = 0
    mismatches = 0
    while checked < 200:
        C = rng.uniform(0.5, 9.0)
        m1y1 = rng.uniform(0.1, 2.5)
        m2y2 = rng.uniform(0.02, 5.0)
        z2 = complex(rng.uniform(-0.75, 0.75), rng.uniform(0.25, 2.5))
        if C / m1y1 > 10.0:
            continue  # annulus must fit inside the c<=50, |d|<=50 box
        checked += 1
        got = enumerate_cd(C, m1y1, m2y2, z2)
        ref = sorted(brute_force_cd(C, m1y1, m2y2, z2, c_max=50, d_max=50))
        if got != ref:
            mismatches += 1
    report("coprime pair enumeration",
           mismatches == 0, f"{checked} instances, {mismatches} mismatches")


def _synthetic_form(eps=1e-8) -> MaassForm:
    return MaassForm(params=GENERIC, eps=eps,
                     coeff_fn=lambda m1, m2: 1.0 / (1.0 + m1 * m2))


def test_maass_periodicity():
    """Unit translations of x1, x2, x3 leave the value invariant to 1e-12
    (the x2 translation combined with its x3 += x1 unipotent companion)."""
    form = _synthetic_form()
    z0 = H3Point(0.13, 0.27, -0.41, 1.1, 0.95)
    v0 = eval_maass(form, z0)
    d_x1 = abs(eval_maass(form, H3Point(z0.x1 + 1, z0.x2, z0.x3, z0.y1, z0.y2)) - v0)
    d_x3 = abs(eval_maass(form, H3Point(z0.x1, z0.x2, z0.x3 + 1, z0.y1, z0.y2)) - v0)
    d_x2w = automorphy_residual(form, z0, "T2")
    zq = H3Point(0.0, 0.31, -0.17, 1.05, 0.9)
    vq = eval_maass(form, zq)
    d_x2 = abs(eval_maass(form, H3Point(0.0, zq.x2 + 1, zq.x3, zq.y1, zq.y2)) - vq)
    worst = max(d_x1, d_x2, d_x3, d_x2w)
    report("Maass periodicity", worst < 1e-12,
           f"worst translation residual {worst:.3e}")


def test_backend_independence():
    """Fixed-D cache backend vs the direct integral backend agree to
    relative 1e-6 at three points."""
    form = _synthetic_form()
    points = [H3Point(0.0, 0.0, 0.0, 1.0, 1.0),
              H3Point(0.13, 0.27, -0.41, 1.1, 0.95),
              H3Point(0.4, -0.2, 0.05, 0.8, 1.2)]
    worst = 0.0
    for z in points:
        v_mellin = eval_maass(form, z, backend="mellin")
        v_stade = eval_maass(form, z, backend="stade")
        worst = max(worst, abs(v_mellin - v_stade) / abs(v_stade))
    report("backend independence", worst <= 1e-6, f"max rel dev {worst:.3e}")


@pytest.mark.slow
def test_coefficient_count():
    """Evaluating the lift at the identity with eps = 1e-12 needs Fourier
    coefficients up to m2 in [90, 150]."""
    z0 = H3Point(0.0, 0.0, 0.0, 1.0, 1.0)
    stats = coefficient_demand(LIFT, z0, 1e-12)
    ok = 90 <= stats.max_contributing_m2 <= 150
    report("coefficient count",
           ok,
           f"max contributing m2 = {stats.max_contributing_m2}, "
           f"max m1 = {stats.max_m1}, cutoff C = {stats.cutoff:.2f}")


@pytest.mark.slow
def test_coefficient_demand_walk_is_pinned():
    """The lift's coefficient-demand walk at the identity, eps = 1e-12,
    exactly as recorded when the fixed-D columns were still formed one D
    at a time: any contribution decision that flips moves one of these.
    Of its 145 D, 43 are ruled out by their column's bound, and 102 get a
    cache.  Its waves form at most 170 kernel columns (226 with waves of
    16, 32 and 64 m2 at every m1)."""
    stats = coefficient_demand(LIFT, H3Point(0.0, 0.0, 0.0, 1.0, 1.0), 1e-12)
    got = (stats.cutoff, stats.max_contributing_m2, stats.max_m1, stats.n_caches,
           stats.n_ruled_out, stats.n_terms)
    report("coefficient-demand walk", got == (9.313225746154785, 100, 7, 102, 43, 8638),
           f"cutoff, m2, m1, caches, ruled out, terms = {got}")
    report("coefficient-demand columns", 145 <= stats.n_columns <= 170,
           f"kernel columns formed = {stats.n_columns}")


@pytest.mark.slow
def test_external_form_values():
    """Conditional on external data: the generic form evaluates to the
    published value at ((0,0,0),(0.9,0.9)) and the S1 S2 S1 residual stays
    below 2e-3."""
    if not Path(EXTERNAL_COEFFS).exists():
        pytest.skip(f"external coefficient file not present ({EXTERNAL_COEFFS}); "
                    "place it there or set SL3MAASS_EXTERNAL_COEFFS to run this check")
    from sl3maass.coeffio import load_coefficient_file
    form = load_coefficient_file(EXTERNAL_COEFFS, eps=1e-10)
    z0 = H3Point(0.0, 0.0, 0.0, 0.9, 0.9)
    value = eval_maass(form, z0)
    expected = complex(-79.779900, -0.000044759125)
    resid = automorphy_residual(form, z0, "S1 S2 S1")
    ok = abs(value - expected) < 5e-4 and resid < 2e-3
    report("external-data table check", ok,
           f"f(z0) = {value}, residual {resid:.2e}")
