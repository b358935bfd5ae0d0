import itertools
import math
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sl3maass.errors import (DomainError, MissingCoefficientError)
from sl3maass.langlands import LanglandsParams
from sl3maass import maass, whittaker
from sl3maass.maass import (GENERATORS, H3Point, MaassForm,
                            automorphy_residual, coefficient_demand,
                            decay_cutoff, enumerate_cd,
                            eval_maass, eval_maass_report,
                            expand_coefficients, iwasawa_act, mobius,
                            word_matrix, _inverse_mod)
from sl3maass.scaled import ScaledArray
from sl3maass.whittaker import (WhittakerArgs, default_mellin_grid,
                                mellin_kernel, w_eval)

SMALL = LanglandsParams(-1.3, 2.1)
GENERIC = LanglandsParams(-3.7, 1.2)
LIFT_R = 9.533695
LIFT = LanglandsParams(-2.0 * LIFT_R, 2.0 * LIFT_R)
# the synthetic form's benchmark point
E2_POINT = H3Point(0.13, 0.27, -0.41, 1.1, 0.95)


# ---------------------------------------------------------------------------
# Iwasawa action
# ---------------------------------------------------------------------------

def gram_schmidt_coordinates(m: np.ndarray) -> H3Point:
    """Recover Iwasawa coordinates by orthogonalizing the rows of m from
    the bottom up (independent of the Cholesky route)."""
    e2 = m[2] / np.linalg.norm(m[2])
    r = np.linalg.norm(m[2])
    v1 = m[1] - np.dot(m[1], e2) * e2
    e1 = v1 / np.linalg.norm(v1)
    v0 = m[0] - np.dot(m[0], e2) * e2 - np.dot(m[0], e1) * e1
    # upper-triangular coefficients tau[i][j] = <m_i, e_j> (scaled by r)
    t22 = r
    t11 = np.linalg.norm(v1)
    t12 = np.dot(m[1], e2)
    t00 = np.linalg.norm(v0)
    t01 = np.dot(m[0], e1)
    t02 = np.dot(m[0], e2)
    y1 = t11 / t22
    return H3Point(x1=t12 / t22, x2=t01 / t11, x3=t02 / t22,
                   y1=y1, y2=(t00 / t11))


def test_iwasawa_identity():
    z = H3Point(0.21, -0.4, 0.7, 1.3, 0.8)
    w = iwasawa_act(np.eye(3), z)
    for f in ("x1", "x2", "x3", "y1", "y2"):
        assert abs(getattr(w, f) - getattr(z, f)) < 1e-13


def test_iwasawa_unipotent_shift():
    z = H3Point(0.1, 0.2, 0.3, 0.9, 1.1)
    g = np.eye(3)
    g[0, 2] = 5.0  # integer entry at position (1,3)
    w = iwasawa_act(g, z)
    assert abs(w.x3 - (z.x3 + 5.0)) < 1e-13
    for f in ("x1", "x2", "y1", "y2"):
        assert abs(getattr(w, f) - getattr(z, f)) < 1e-13


def test_iwasawa_vs_gram_schmidt_oracle():
    z = H3Point(0.0, 0.0, 0.0, 0.9, 0.9)
    g = word_matrix("S1 S2 S1")
    got = iwasawa_act(g, z)
    ref = gram_schmidt_coordinates(np.asarray(g, dtype=float) @ z.to_matrix())
    for f in ("x1", "x2", "x3", "y1", "y2"):
        assert abs(getattr(got, f) - getattr(ref, f)) < 1e-12


def test_iwasawa_random_words_vs_oracle():
    rng = np.random.default_rng(3)
    letters = list(GENERATORS)
    z = H3Point(0.13, 0.27, -0.41, 1.1, 0.95)
    for _ in range(20):
        word = " ".join(rng.choice(letters) for _ in range(rng.integers(1, 6)))
        g = word_matrix(word)
        got = iwasawa_act(g, z)
        ref = gram_schmidt_coordinates(np.asarray(g, dtype=float) @ z.to_matrix())
        for f in ("x1", "x2", "x3", "y1", "y2"):
            assert abs(getattr(got, f) - getattr(ref, f)) < 1e-11, word


def test_iwasawa_rejects_wrong_determinant():
    z = H3Point(0, 0, 0, 1, 1)
    with pytest.raises(DomainError):
        iwasawa_act(2.0 * np.eye(3), z)


def test_group_word_parsing():
    assert np.array_equal(word_matrix(""), np.eye(3, dtype=np.int64))
    with pytest.raises(ValueError, match="unknown generator 'S3'"):
        word_matrix("S1 S3")
    m = word_matrix("S1 S2")
    assert np.array_equal(m, GENERATORS["S1"] @ GENERATORS["S2"])
    assert np.array_equal(word_matrix(" S1,S2 "), m)
    for name, g in GENERATORS.items():
        assert round(float(np.linalg.det(g))) == 1, name


# ---------------------------------------------------------------------------
# coefficient algebra
# ---------------------------------------------------------------------------

def test_mobius():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def a1_table(n_max: int) -> dict:
    rng = np.random.default_rng(5)
    a = {1: 1.0 + 0j}
    for n in range(2, n_max + 1):
        a[n] = complex(rng.normal(scale=0.7), rng.normal(scale=0.7))
    return a


def test_expand_examples():
    a = a1_table(8)
    t = expand_coefficients(a, 4)
    for n in range(1, 9):
        assert t[(1, n)] == a[n]
    assert abs(t[(2, 2)] - (abs(a[2]) ** 2 - 1.0)) < 1e-14
    assert abs(t[(2, 3)] - a[2].conjugate() * a[3]) < 1e-14
    # A(m, 1) = conj(A(1, m))
    for m in range(1, 5):
        assert abs(t[(m, 1)] - a[m].conjugate()) < 1e-14


def test_expand_dirichlet_identity_oracle():
    # coefficient of m^{-s1} n^{-s2} in conj(L(conj s1)) L(s2) / zeta(s1+s2),
    # multiplied out directly as truncated Dirichlet series
    a = a1_table(12)
    t = expand_coefficients(a, 6)
    for m, n in [(2, 4), (3, 6), (4, 4), (6, 6), (5, 10)]:
        direct = 0j
        for d in range(1, math.gcd(m, n) + 1):
            if m % d == 0 and n % d == 0:
                direct += mobius(d) * a[m // d].conjugate() * a[n // d]
        assert abs(t[(m, n)] - direct) < 1e-13


def test_expand_requires_normalization():
    with pytest.raises(ValueError):
        expand_coefficients({1: 2.0, 2: 0.1}, 2)


def test_expand_missing_input():
    with pytest.raises(MissingCoefficientError) as exc:
        expand_coefficients({1: 1.0, 2: 0.5, 4: 0.1}, 2)
    assert exc.value.m2 == 3


# ---------------------------------------------------------------------------
# (c, d) enumeration
# ---------------------------------------------------------------------------

def brute_force_cd(C, m1y1, m2y2, z2, c_max=60, d_max=60):
    lo = math.sqrt(m2y2 / C)
    hi = C / m1y1
    out = []
    for c in range(1, c_max + 1):
        for d in range(-d_max, d_max + 1):
            if math.gcd(c, abs(d)) != 1:
                continue
            r = abs(c * z2 + d)
            if lo < r < hi:
                out.append((c, d))
    return out


def test_enumerate_cd_examples():
    assert enumerate_cd(2.0, 1.0, 0.5, 1j) == [(1, -1), (1, 0), (1, 1)]
    # empty annulus
    assert enumerate_cd(1.0, 2.0, 3.0, 0.5 + 1j) == []


def test_enumerate_cd_brute_force_small():
    # instances drawn so the annulus fits inside the brute-force box
    rng = np.random.default_rng(17)
    done = 0
    while done < 40:
        C = rng.uniform(0.5, 8.0)
        m1y1 = rng.uniform(0.1, 2.0)
        m2y2 = rng.uniform(0.05, 4.0)
        z2 = complex(rng.uniform(-0.75, 0.75), rng.uniform(0.25, 2.0))
        if C / m1y1 > 10.0:
            continue
        done += 1
        got = enumerate_cd(C, m1y1, m2y2, z2)
        ref = brute_force_cd(C, m1y1, m2y2, z2)
        assert got == sorted(ref), (C, m1y1, m2y2, z2)


def test_enumerate_cd_lattice_memo():
    """Each m1's lattice is memoized by (C, m1 y1, z2): calls at two
    points with the same (C, m1 y1) and different x2, interleaved, and at
    several m2 of one point, each give the brute-force pairs.  The memo
    holds at most a fixed number of lattices."""
    C, m1y1 = 4.3, 0.9
    z2s = (0.21 + 0.93j, -0.37 + 0.93j)
    for m2y2 in (0.05, 0.4, 0.95, 1.9, 3.1, 6.0):
        for z2 in z2s:
            assert enumerate_cd(C, m1y1, m2y2, z2) == brute_force_cd(C, m1y1, m2y2, z2), (m2y2, z2)
    maxsize = maass._lattice.cache_info().maxsize
    assert maxsize is not None
    for k in range(maxsize + 5):
        enumerate_cd(C, m1y1, 0.4, complex(k / 1000.0, 0.93))
    assert maass._lattice.cache_info().currsize == maxsize


def test_walk_builds_each_lattice_once(monkeypatch):
    """The walk builds one lattice per m1 and reuses it for every pair of
    that m1, and nothing from one evaluation serves the next."""
    m1y1s = []
    def spy(C, m1y1, m2y2, z2):
        m1y1s.append(m1y1)
        return enumerate_cd(C, m1y1, m2y2, z2)
    monkeypatch.setattr(maass, "enumerate_cd", spy)
    maass._lattice.cache_clear()
    for z in (E2_POINT, replace(E2_POINT, x2=-0.2)):
        before = maass._lattice.cache_info()
        coefficient_demand(GENERIC, z, 1e-6)
        after = maass._lattice.cache_info()
        assert after.misses - before.misses == len(set(m1y1s)) >= 2
        assert after.hits - before.hits == len(m1y1s)
        m1y1s.clear()


def test_inverse_mod():
    assert _inverse_mod(1, 1) == 1
    assert _inverse_mod(0, 1) == 1
    assert _inverse_mod(3, 7) == 5
    assert _inverse_mod(-3, 7) == 2  # (-3) * 2 = -6 = 1 mod 7
    for c in range(2, 20):
        for d in range(-15, 16):
            if math.gcd(c, abs(d)) == 1:
                a = _inverse_mod(d, c)
                assert 1 <= a <= c
                assert (a * d) % c == 1 % c


def test_cache_key_rounds_as_numpy_scientific_format():
    """_cache_key gives the keys of float(np.format_float_scientific(D,
    precision=11)): over log-uniform D, and over D whose exact decimal
    value is a 13-digit tie, which both round to even."""
    rng = np.random.default_rng(7)
    sample = np.exp(rng.uniform(math.log(1e-6), math.log(1e9), 10000)).tolist()
    # odd m / 2^12 in [1, 10), odd m / 2^13 in [0.1, 1) and integers
    # ending in 5 have 13 significant digits, the last a 5
    ties = ([m / 4096 for m in range(4097, 40960, 2)] + [m / 8192 for m in range(821, 8192, 2)]
            + (10.0 * rng.integers(10 ** 11, 10 ** 12, 2000) + 5.0).tolist())
    assert all(Decimal(D).as_tuple().digits[-1] == 5 and len(Decimal(D).as_tuple().digits) == 13
               for D in ties)
    assert maass._cache_key(4097 / 4096) == 1.00024414062
    assert maass._cache_key(1234567890135.0) == 1.23456789014e12
    Ds = sample + ties
    assert ([maass._cache_key(D) for D in Ds]
            == [float(np.format_float_scientific(D, precision=11)) for D in Ds])


def test_representative_shift_invariance():
    # shifting a by c changes the cosine argument by 2 pi m2 exactly
    m2, c = 7, 5
    re_part = 0.3819
    a = 3
    v1 = math.cos(2 * math.pi * (m2 / c) * (a - re_part))
    v2 = math.cos(2 * math.pi * (m2 / c) * (a + c - re_part))
    assert abs(v1 - v2) < 1e-12


# ---------------------------------------------------------------------------
# cutoff and evaluation
# ---------------------------------------------------------------------------

def synthetic_form(eps=1e-8, params=SMALL) -> MaassForm:
    return MaassForm(params=params, eps=eps,
                     coeff_fn=lambda m1, m2: 1.0 / (1.0 + m1 + m2))


def test_cutoff_monotone_in_eps():
    c_loose = decay_cutoff(SMALL, 1e-4)
    c_tight = decay_cutoff(SMALL, 1e-8)
    assert c_loose <= c_tight


@pytest.mark.parametrize("p, eps", [(LIFT, 1e-12), (LIFT, 1e-8), (GENERIC, 1e-8), (GENERIC, 1e-12)],
                         ids=["LIFT-1e-12", "LIFT-1e-8", "GEN-1e-8", "GEN-1e-12"])
def test_cutoff_scan_matches_a_scan_of_point_calls(p, eps, caplog):
    # the scan reads _CUTOFF_BLOCK levels per array w_stade call; a scan of
    # one w_eval call per probe, which takes the series route at small
    # arguments, finds the same grid point and peak, and no warning is logged
    ys = [maass._CUTOFF_START * maass._CUTOFF_RATIO ** k for k in range(maass._CUTOFF_STEPS)]
    levels = [max(w_eval(p, WhittakerArgs(q, y)).log_abs() for q in maass._CUTOFF_PROBES)
              for y in ys[:40]]
    peak = -math.inf
    for level in levels:
        peak = max(peak, level)
        if level < peak - 8.0:
            break
    log_thr = math.log(eps) + peak
    i = next(i for i in range(len(levels) - 2) if max(levels[i:i + 3]) < log_thr)
    with caplog.at_level("WARNING"):
        assert repr(maass._cutoff_scan(p, eps)) == repr((ys[i], peak))
    assert caplog.records == []


@pytest.mark.parametrize("eps", [1.0, 10.0, math.inf])
def test_cutoff_requires_eps_below_one(eps):
    with pytest.raises(ValueError, match="eps"):
        decay_cutoff(SMALL, eps)


@pytest.mark.parametrize("eps", [0.0, 1.0, 10.0, math.inf, math.nan])
def test_form_requires_eps_in_unit_interval(eps):
    with pytest.raises(ValueError, match="eps"):
        MaassForm(params=SMALL, eps=eps, coeff_fn=lambda m1, m2: 1.0)


@pytest.mark.parametrize("name", ["cutoff", "peak_log", "cache_map"])
def test_form_memo_fields_are_not_arguments(name):
    # they are set by the first evaluation; a value passed in would be
    # overwritten there
    with pytest.raises(TypeError):
        MaassForm(params=SMALL, coeff_fn=lambda m1, m2: 1.0, **{name: 3.0})


@pytest.mark.parametrize("name", ["x1", "x2", "x3", "y1", "y2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_point_rejects_non_finite_coordinates(name, bad):
    coords = dict(x1=0.1, x2=0.2, x3=0.3, y1=1.0, y2=1.0)
    coords[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        H3Point(**coords)


def test_eval_periodicity():
    form = synthetic_form()
    z0 = H3Point(0.13, 0.27, -0.41, 1.1, 0.95)
    v0 = eval_maass(form, z0)
    assert abs(v0) > 0
    v_x1 = eval_maass(form, H3Point(z0.x1 + 1, z0.x2, z0.x3, z0.y1, z0.y2))
    v_x3 = eval_maass(form, H3Point(z0.x1, z0.x2, z0.x3 + 1, z0.y1, z0.y2))
    assert abs(v_x1 - v0) < 1e-12
    assert abs(v_x3 - v0) < 1e-12
    # the x2 unit translation is the group motion x2+1 combined with
    # x3 -> x3 + x1; it is a pure x2 shift exactly when x1 = 0
    zq = H3Point(0.0, z0.x2, z0.x3, z0.y1, z0.y2)
    vq = eval_maass(form, zq)
    v_x2 = eval_maass(form, H3Point(0.0, zq.x2 + 1, zq.x3, zq.y1, zq.y2))
    assert abs(v_x2 - vq) < 1e-12


def test_translation_words_residual():
    form = synthetic_form()
    z0 = H3Point(0.13, 0.27, -0.41, 1.1, 0.95)
    assert automorphy_residual(form, z0, "") == 0.0
    assert automorphy_residual(form, z0, "T3") < 1e-10
    assert automorphy_residual(form, z0, "T1") < 1e-10
    assert automorphy_residual(form, z0, "T2") < 1e-10


# the GEN synthetic form of the translation property, shared by its
# examples so that they reuse each other's caches
TRANSLATION_FORM = MaassForm(params=GENERIC, eps=1e-6,
                             coeff_fn=lambda m1, m2: 1.0 / (1.0 + m1 * m2))


@settings(max_examples=10, deadline=None)
@given(st.tuples(*[st.floats(-0.5, 0.5)] * 3), st.floats(0.9, 1.2), st.floats(0.9, 1.2))
def test_translations_leave_the_form_unchanged(x, y1, y2):
    # the tolerance of the benchmark's form-orbit translation gate
    z = H3Point(*x, y1, y2)
    value = eval_maass(TRANSLATION_FORM, z)
    for word in ("T1", "T2", "T3"):
        moved = iwasawa_act(word_matrix(word), z)
        assert abs(eval_maass(TRANSLATION_FORM, moved) - value) < 1e-12


def test_single_coefficient_hand_assembled():
    # A(1,1) = 1, everything else 0: f reduces to the (1,1) terms, which
    # are assembled here directly from w_eval
    form = MaassForm(params=SMALL, eps=1e-8,
                     coeff_fn=lambda m1, m2: 1.0 if (m1, m2) == (1, 1) else 0.0)
    z = H3Point(0.11, 0.23, -0.31, 1.05, 0.9)
    got, stats = eval_maass_report(form, z)
    C = form.cutoff_value()
    shift = form.params.scale_shift
    z2 = z.z2
    terms = [4.0 * math.cos(2 * math.pi * z.x2) * math.cos(2 * math.pi * z.x1)
             * w_eval(form.params, WhittakerArgs(z.y1, z.y2)).to_complex(extra_log=-shift)]
    for (c, d) in enumerate_cd(C, z.y1, z.y2, z2):
        t2 = abs(c * z2 + d) ** 2
        a = _inverse_mod(d, c)
        cos1 = math.cos(2 * math.pi * (c * z.x3 + d * z.x1))
        cos2 = math.cos(2 * math.pi * (1.0 / c) * (a - (c * z2.real + d) / t2))
        w = w_eval(form.params, WhittakerArgs(z.y1 * math.sqrt(t2), z.y2 / t2))
        terms.append(4.0 * cos1 * cos2 * w.to_complex(extra_log=-shift))
    ref = sum(terms)
    assert abs(got - ref) <= 1e-6 * abs(ref)


def test_backend_independence():
    form = synthetic_form()
    points = [H3Point(0.0, 0.0, 0.0, 1.0, 1.0),
              H3Point(0.13, 0.27, -0.41, 1.1, 0.95),
              H3Point(0.4, -0.2, 0.05, 0.8, 1.2)]
    for z in points:
        v_mellin = eval_maass(form, z, backend="mellin")
        v_stade = eval_maass(form, z, backend="stade")
        assert abs(v_mellin - v_stade) <= 1e-6 * abs(v_stade), z


def test_eval_determinism():
    form = synthetic_form()
    z = H3Point(0.13, 0.27, -0.41, 1.1, 0.95)
    assert eval_maass(form, z) == eval_maass(form, z)


def test_fresh_forms_are_bit_identical():
    """The determinism contract: identical inputs give bit-identical
    values and statistics, also when every cache and kernel is rebuilt."""
    mellin_kernel.cache_clear()
    v1, s1 = eval_maass_report(synthetic_form(params=GENERIC), E2_POINT)
    mellin_kernel.cache_clear()
    v2, s2 = eval_maass_report(synthetic_form(params=GENERIC), E2_POINT)
    assert v1 == v2
    assert s1 == s2


@pytest.mark.parametrize("params, word", [(GENERIC, ""), (GENERIC, "S1"), (LIFT, "")],
                         ids=["E2", "E2-S1", "LIFT"])
def test_array_terms_match_per_term_values(monkeypatch, params, word):
    """Each chunk's terms are formed as arrays, mantissa e^(log_scale -
    shift); the value stays within 1e-14 relative of the sum whose terms
    go one at a time through ScaledComplex.to_complex from the same batch
    values, with the same statistics.  The reference batch carries each
    converted term as its mantissa at log scale shift, which the walk
    multiplies by e^0 = 1."""
    z = iwasawa_act(word_matrix(word), E2_POINT) if word else E2_POINT
    form = MaassForm(params=params, eps=1e-8, coeff_fn=lambda m1, m2: 1.0 / (1.0 + m1 * m2))
    value, stats = eval_maass_report(form, z)
    shift = params.scale_shift

    def per_term(caches, y2s):
        values, floors = whittaker.w_mellin_fixed_d(caches, y2s)
        return ScaledArray(np.array([values.item(k).to_complex(extra_log=-shift)
                                     for k in range(len(values))], dtype=complex),
                           shift), floors

    monkeypatch.setattr(maass, "w_mellin_fixed_d", per_term)
    ref, ref_stats = eval_maass_report(form, z)
    assert stats.n_caches_built > 0
    assert ref_stats.n_caches_built == ref_stats.n_ruled_out == ref_stats.n_columns == 0
    assert replace(ref_stats, n_caches_built=stats.n_caches_built,
                   n_ruled_out=stats.n_ruled_out, n_columns=stats.n_columns) == stats
    assert abs(value - ref) <= 1e-14 * abs(ref)


def test_coefficient_demand_counts_the_terms_of_the_walk():
    """count_only fetches no coefficient but counts the terms the full
    walk sums."""
    demand = coefficient_demand(GENERIC, E2_POINT, 1e-6)
    form = MaassForm(params=GENERIC, eps=1e-6, coeff_fn=lambda m1, m2: 1.0 / (1.0 + m1 * m2))
    _, stats = eval_maass_report(form, E2_POINT)
    assert demand.n_terms == stats.n_terms == 15
    assert demand == stats


def test_evaluation_does_not_import_numpy_ma():
    """numpy.ma costs ~15 ms to import; np.unique imports it on its first
    call, and the cache validation called it on the ends of each y2
    range.  One E2-point evaluation in a fresh process leaves it out."""
    script = ("import sys\n"
              "from sl3maass.langlands import LanglandsParams\n"
              "from sl3maass.maass import H3Point, MaassForm, eval_maass_report\n"
              "form = MaassForm(params=LanglandsParams(-3.7, 1.2), eps=1e-8,\n"
              "                 coeff_fn=lambda m1, m2: 1.0 / (1.0 + m1 * m2))\n"
              "_, stats = eval_maass_report(form, H3Point(0.13, 0.27, -0.41, 1.1, 0.95))\n"
              "assert stats.n_caches > 0\n"
              "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_caches_built_per_evaluation():
    form = synthetic_form(params=GENERIC)
    _, first = eval_maass_report(form, E2_POINT)
    _, again = eval_maass_report(form, E2_POINT)
    _, image = eval_maass_report(form, iwasawa_act(word_matrix("S1"), E2_POINT))
    assert first.n_caches_built == first.n_caches > 0
    assert again.n_caches_built == 0
    assert again.n_caches == first.n_caches
    # an S1 image lands on new values of D
    assert image.n_caches_built > 0
    assert image.n_caches == first.n_caches + image.n_caches_built


def test_kernel_products_per_evaluation(monkeypatch):
    """Fixed-D columns are formed in waves: one product of the kernel per
    wave, not per D reached (built or ruled out), and none for an
    evaluation whose D are all cached or ruled out.  The walk reaches the
    same D as with per-D products."""
    products = []
    product = whittaker._kernel_product

    def counted(b, c, x, out):
        products.append(x.shape[1:])
        return product(b, c, x, out)

    z = H3Point(0.0, 0.0, 0.0, 1.0, 1.0)
    mellin_kernel(GENERIC, default_mellin_grid(GENERIC, 1e-8))
    monkeypatch.setattr(whittaker, "_kernel_product", counted)
    stats = coefficient_demand(GENERIC, z, 1e-6)
    assert (stats.n_caches_built, stats.n_ruled_out) == (3, 10)
    assert stats.n_caches == 3
    assert 0 < len(products) < (stats.n_caches_built + stats.n_ruled_out) / 2
    form = MaassForm(params=GENERIC, eps=1e-6, coeff_fn=lambda m1, m2: 1.0)
    eval_maass_report(form, z, count_only=True)
    products.clear()
    _, moved = eval_maass_report(form, iwasawa_act(word_matrix("T1 T2"), z),
                                 count_only=True)
    assert moved.n_caches_built == 0
    assert products == []


def test_full_evaluation_validates_count_only_caches(monkeypatch):
    """count_only builds its caches without validating them; a full
    evaluation of the same form validates each one it meets, from the
    cache's own column: the validations of a fresh form (E2_WALKS), no
    kernel product, and the fresh form's value and residuals."""
    def form():
        return MaassForm(params=GENERIC, eps=1e-8, coeff_fn=lambda m1, m2: 1.0 / (1.0 + m1 * m2))

    evals, products = [], []
    validate, product = whittaker.w_eval, whittaker._kernel_product
    monkeypatch.setattr(whittaker, "w_eval", lambda *args: evals.append(args) or validate(*args))
    monkeypatch.setattr(whittaker, "_kernel_product",
                        lambda *args: products.append(args) or product(*args))
    fresh = form()
    ref, _ = eval_maass_report(fresh, E2_POINT)
    assert len(evals) == E2_WALKS[0][4]
    shared = form()
    eval_maass_report(shared, E2_POINT, count_only=True)
    assert len(evals) == E2_WALKS[0][4]
    evals.clear()
    products.clear()
    value, stats = eval_maass_report(shared, E2_POINT)
    assert len(evals) == E2_WALKS[0][4] and products == []
    assert stats.n_caches_built == 0 and stats.n_caches == E2_WALKS[0][2]
    assert repr(value) == repr(ref)

    def checked(f):
        return {k: (c.y2_range, c.validation_residual) for k, c in f.cache_map.items() if c}

    assert checked(shared) == checked(fresh)
    assert None not in {y2_range for y2_range, _ in checked(shared).values()}


def test_waves_follow_the_walks_reach(monkeypatch):
    """Each m1's waves reach as far as the previous m1's largest
    contributing D suggests.  GEN's coefficient demand at E2's point forms
    no more products than waves of 16, 32 and 64 m2 at every m1 did (3),
    and beyond the D it reaches, built or ruled out, at most the slack of
    its first wave, planned while the form knew no reach."""
    widths = []
    product = whittaker._kernel_product

    def counted(b, c, x, out):
        widths.append(x.shape[1])
        return product(b, c, x, out)

    mellin_kernel(GENERIC, default_mellin_grid(GENERIC, 1e-10))
    monkeypatch.setattr(whittaker, "_kernel_product", counted)
    stats = coefficient_demand(GENERIC, E2_POINT, 1e-8)
    reached = stats.n_caches_built + stats.n_ruled_out
    assert stats.n_columns == sum(widths)
    assert 0 < len(widths) <= 3
    assert reached <= stats.n_columns < reached + 16


def test_walk_enumerates_each_pair_once(monkeypatch):
    """The walk enumerates the (c, d) of a pair only when it reaches the
    pair: each (m1, m2) at most once, m2 in order from 1, and none past the
    m2 where the stop rule (four misses in a row, the last past m2 y2 = C)
    ends its m1; and m1 in order from 1, up to the m1 where the m1 stop
    rule ends the walk.  Waves are planned from D alone and enumerate
    nothing."""
    z = H3Point(0.0, 0.0, 0.0, 1.0, 1.0)
    eps = 1e-6
    # the walk's contributing pairs: A(m1, m2) is fetched for exactly these
    hits = set()

    def coefficient(m1, m2):
        hits.add((m1, m2))
        return 1.0

    eval_maass_report(MaassForm(params=GENERIC, eps=eps, coeff_fn=coefficient), z)
    seen = []
    enumerate_pairs = maass.enumerate_cd

    def recorded(C, m1y1, m2y2, z2):
        seen.append((round(m1y1 / z.y1), round(m2y2 / z.y2)))
        return enumerate_pairs(C, m1y1, m2y2, z2)

    monkeypatch.setattr(maass, "enumerate_cd", recorded)
    C = coefficient_demand(GENERIC, z, eps).cutoff
    assert hits and len(seen) == len(set(seen))
    for m1 in sorted({m1 for m1, _ in seen}):
        stop = int(C ** 3 / (z.y2 * (m1 * z.y1) ** 2)) + 1
        misses = 0
        for m2 in range(1, stop + 1):
            misses = 0 if (m1, m2) in hits else misses + 1
            if misses >= 4 and m2 * z.y2 > C:
                stop = m2
                break
        assert [m2 for k, m2 in seen if k == m1] == list(range(1, stop + 1)), m1
    # the m1 stop rule: the walk ends at the first m1 past m1 y1 = C that
    # follows an m1 without a contributing pair and has none itself
    hit_m1 = {m1 for m1, _ in hits}
    last_m1 = next(m1 for m1 in itertools.count(1)
                   if m1 * z.y1 > C and not hit_m1 & {m1 - 1, m1})
    assert sorted({m1 for m1, _ in seen}) == list(range(1, last_m1 + 1))


# the walk at E2 and then at its S1 image, on one form: the A(m1, m2)
# fetches in order, as recorded when every pair made a query of its own,
# and n_caches, n_caches_built, the validation w_eval calls and the y2
# queried, with the D ruled out by their column's bound (10, then 12)
# given no cache and no query
E2_WALKS = [
    ("", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1)], 5, 5, 10, 71),
    ("S1", [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 1)], 11, 6, 12, 96),
]


def test_chunked_walk_does_no_speculative_work(monkeypatch):
    """The walk queries a chunk of pairs per call, and only pairs it is
    certain to visit: the coefficients, caches, validations and y2 of its
    queries are those of one query per pair, and it enumerates no pair
    past the m2 where the stop rule ends its m1, so no such pair's y2 is
    queried either."""
    fetched = []
    form = MaassForm(params=GENERIC, eps=1e-8,
                     coeff_fn=lambda m1, m2: fetched.append((m1, m2)) or 1.0 / (1.0 + m1 * m2))
    C = form.cutoff_value()
    evals, queried, seen = [], [], []
    validate, query, enumerate_pairs = whittaker.w_eval, maass.w_mellin_fixed_d, maass.enumerate_cd

    def counted_eval(*args):
        evals.append(args)
        return validate(*args)

    def counted_query(caches, y2):
        queried.append(sum(len(ys) for ys in y2))
        return query(caches, y2)

    def recorded(C_, m1y1, m2y2, z2):
        seen.append((m1y1, m2y2))
        return enumerate_pairs(C_, m1y1, m2y2, z2)

    monkeypatch.setattr(whittaker, "w_eval", counted_eval)
    monkeypatch.setattr(maass, "w_mellin_fixed_d", counted_query)
    monkeypatch.setattr(maass, "enumerate_cd", recorded)
    for word, fetches, n_caches, n_built, n_evals, n_y2 in E2_WALKS:
        z = iwasawa_act(word_matrix(word), E2_POINT) if word else E2_POINT
        for log in (fetched, evals, queried, seen):
            log.clear()
        _, stats = eval_maass_report(form, z)
        assert fetched == fetches
        assert (stats.n_caches, stats.n_caches_built, len(evals)) == (n_caches, n_built, n_evals)
        assert sum(queried) == n_y2 and len(queried) < len(seen)
        pairs = [(round(m1y1 / z.y1), round(m2y2 / z.y2)) for m1y1, m2y2 in seen]
        for m1 in sorted({m1 for m1, _ in pairs}):
            misses, stop = 0, int(C ** 3 / (z.y2 * (m1 * z.y1) ** 2)) + 1
            for m2 in range(1, stop + 1):
                misses = 0 if (m1, m2) in fetches else misses + 1
                if misses >= 4 and m2 * z.y2 > C:
                    stop = m2
                    break
            assert [m2 for k, m2 in pairs if k == m1] == list(range(1, stop + 1)), (word, m1)


def test_known_reach_plans_every_m1_in_one_product(monkeypatch):
    """Once E2 has set the form's reach, its S1 image forms the planned
    columns of every m1 in its first wave: one kernel product, against
    one per m1 wave before.  Its walk stays that of E2_WALKS: the same
    fetches, caches, validations and queried y2."""
    fetched, widths, evals, queried = [], [], [], []
    form = MaassForm(params=GENERIC, eps=1e-8,
                     coeff_fn=lambda m1, m2: fetched.append((m1, m2)) or 1.0 / (1.0 + m1 * m2))
    mellin_kernel(GENERIC, default_mellin_grid(GENERIC, 1e-10))
    product, validate, query = whittaker._kernel_product, whittaker.w_eval, maass.w_mellin_fixed_d

    def counted(b, c, x, out):
        widths.append(x.shape[1])
        return product(b, c, x, out)

    def counted_query(caches, y2):
        queried.append(sum(len(ys) for ys in y2))
        return query(caches, y2)

    monkeypatch.setattr(whittaker, "_kernel_product", counted)
    monkeypatch.setattr(whittaker, "w_eval", lambda *args: evals.append(args) or validate(*args))
    monkeypatch.setattr(maass, "w_mellin_fixed_d", counted_query)
    for word, fetches, n_caches, n_built, n_evals, n_y2 in E2_WALKS:
        for log in (fetched, widths, evals, queried):
            log.clear()
        _, stats = eval_maass_report(form, iwasawa_act(word_matrix(word), E2_POINT) if word else E2_POINT)
        assert fetched == fetches
        assert (stats.n_caches, stats.n_caches_built, len(evals), sum(queried)) == (
            n_caches, n_built, n_evals, n_y2)
        assert stats.n_columns == sum(widths)
    assert len(widths) == 1


def _walk(params, eps, points, count_only):
    """The walks at points on one fresh form: (value, statistics and
    A(m1, m2) fetches) per point, and the form."""
    fetched = []
    form = MaassForm(params=params, eps=eps,
                     coeff_fn=lambda m1, m2: fetched.append((m1, m2)) or 1.0 / (1.0 + m1 * m2))
    out = []
    for z in points:
        fetched.clear()
        value, stats = eval_maass_report(form, z, count_only=count_only)
        out.append((value, stats, list(fetched)))
    return out, form


BOUND_WALKS = {"E2": (GENERIC, 1e-8, [E2_POINT, iwasawa_act(word_matrix("S1"), E2_POINT)], False),
               "E1": (LIFT, 1e-12, [H3Point(0.0, 0.0, 0.0, 1.0, 1.0)], True)}


@pytest.mark.parametrize("name", list(BOUND_WALKS))
def test_ruled_out_d_never_contribute(monkeypatch, name):
    """The column bound rules out only D whose caches, built anyway, give
    no contributing term, and it leaves the walk as it was: the values,
    fetches and statistics other than the cache counts match those of a
    walk that rules out nothing.  Each ruled-out column, wrapped in an
    unvalidated cache, stays below the goal over its whole y2 range."""
    params, eps, points, count_only = BOUND_WALKS[name]
    bounded, column_bound = [], whittaker.MellinKernel.column_bound

    def recorded(kernel, D, column, y2_range):
        bound = column_bound(kernel, D, column, y2_range)
        bounded.append((D, column.copy(), y2_range, bound))
        return bound

    monkeypatch.setattr(whittaker.MellinKernel, "column_bound", recorded)
    walks, form = _walk(params, eps, points, count_only)
    log_eps = math.log(eps) + form.peak_log
    ruled = [(D, column, y2_range) for D, column, y2_range, bound in bounded
             if bound + 1e-6 < log_eps]
    keys = {maass._cache_key(D) for D, _, _ in ruled}
    assert keys and keys == {k for k, cache in form.cache_map.items() if cache is None}

    hit, query = set(), maass.w_mellin_fixed_d

    def contributing(caches, y2s):
        values, floors = query(caches, y2s)
        good = values.log_abs() >= np.maximum(log_eps, floors + 2.0)
        rows = np.repeat(np.arange(len(caches)), [len(ys) for ys in y2s])
        hit.update(maass._cache_key(caches[r].D) for r in rows[good])
        return values, floors

    monkeypatch.setattr(whittaker.MellinKernel, "column_bound", lambda *args: math.inf)
    monkeypatch.setattr(maass, "w_mellin_fixed_d", contributing)
    ref_walks, ref_form = _walk(params, eps, points, count_only)
    assert None not in ref_form.cache_map.values()
    assert keys <= set(ref_form.cache_map) - hit
    counts = dict(n_caches=0, n_caches_built=0, n_ruled_out=0)
    for (value, stats, fetches), (ref, ref_stats, ref_fetches) in zip(walks, ref_walks):
        assert repr(value) == repr(ref) and fetches == ref_fetches
        assert replace(stats, **counts) == replace(ref_stats, **counts)
        assert stats.n_caches_built + stats.n_ruled_out == ref_stats.n_caches_built

    grid = default_mellin_grid(params, eps * 1e-2)
    for D, column, (lo, hi) in ruled:
        cache = whittaker.build_fixed_d_cache(params, D, grid=grid, inner=column)
        values, _ = whittaker.w_mellin_fixed_d(cache, np.geomspace(lo, hi, 50))
        assert max(values.item(k).log_abs() for k in range(len(values))) < log_eps, D


@pytest.mark.parametrize("params, z, eps", [
    (LIFT, E2_POINT, 1e-8),
    (GENERIC, H3Point(0.3, -0.2, 0.1, 0.97, 1.02), 1e-10)], ids=["LIFT", "GEN"])
def test_cache_validation_measured_against_the_form(caplog, params, z, eps):
    # W carries the form's scale (peak log|W| 65 at the lift), so each
    # build is validated against the contribution floor eps exp(peak_log);
    # against the bare eps, good caches reported residuals up to 2.4e13
    form = MaassForm(params=params, eps=eps,
                     coeff_fn=lambda m1, m2: 1.0 / (1.0 + m1 * m2))
    with caplog.at_level("WARNING", logger="sl3maass.whittaker"):
        _, stats = eval_maass_report(form, z)
    assert stats.n_caches_built > 0
    assert not any("validation residual" in r.message for r in caplog.records)


def test_missing_coefficient_is_hard_error():
    form = MaassForm(params=SMALL, eps=1e-8, coeffs={(1, 1): 1.0})
    z = H3Point(0.0, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(MissingCoefficientError) as exc:
        eval_maass(form, z)
    assert exc.value.m1 >= 1 and exc.value.m2 >= 1


def test_stats_reporting():
    form = synthetic_form()
    z = H3Point(0.0, 0.0, 0.0, 1.0, 1.0)
    _, stats = eval_maass_report(form, z)
    assert stats.cutoff > 1.0
    assert stats.max_contributing_m2 >= 1
    assert stats.n_caches >= 1
    assert stats.n_terms >= stats.max_contributing_m2


@pytest.mark.parametrize("call, error, match", [
    (lambda: H3Point(0.0, 0.0, 0.0, 1.0, 0.0), ValueError, "y2 must be positive"),
    (lambda: iwasawa_act(np.eye(2), H3Point(0.0, 0.0, 0.0, 1.0, 1.0)), DomainError, "3x3"),
    (lambda: enumerate_cd(2.0, 1.0, 1.0, 0.5 - 1j), ValueError, "positive imaginary part"),
    # a form with neither coeffs nor coeff_fn, as coefficient_demand makes
    (lambda: MaassForm(params=GENERIC, eps=1e-6).coefficient(2, 3), MissingCoefficientError,
     r"A\(2,3\)"),
    (lambda: eval_maass_report(MaassForm(params=GENERIC, eps=1e-6), E2_POINT, backend="origin"),
     ValueError, "unknown backend 'origin'"),
], ids=["y2-zero", "not-3x3", "z2-below-axis", "no-coefficients", "unknown-backend"])
def test_argument_guards(call, error, match):
    with pytest.raises(error, match=match):
        call()
