import math

import numpy as np
import pytest

from sl3maass.errors import (DomainError, MissingCoefficientError)
from sl3maass.langlands import LanglandsParams
from sl3maass import maass, whittaker
from sl3maass.maass import (GENERATORS, GroupWord, H3Point, MaassForm,
                            automorphy_residual, coefficient_demand,
                            decay_cutoff, enumerate_cd,
                            eval_maass, eval_maass_report,
                            expand_coefficients, iwasawa_act, mobius,
                            word_matrix, _inverse_mod)
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
    assert GroupWord.parse("").letters == ()
    assert np.array_equal(word_matrix(""), np.eye(3, dtype=np.int64))
    with pytest.raises(ValueError):
        GroupWord.parse("S3")
    m = word_matrix("S1 S2")
    assert np.array_equal(m, GENERATORS["S1"] @ GENERATORS["S2"])
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
    wave, not per cache, and none for an evaluation whose D are all
    cached.  The walk builds the same caches as with per-D products."""
    products = []
    product = whittaker._kernel_product

    def counted(b, c, x, n_rows):
        products.append(x.shape[1:])
        return product(b, c, x, n_rows)

    z = H3Point(0.0, 0.0, 0.0, 1.0, 1.0)
    mellin_kernel(GENERIC, default_mellin_grid(GENERIC, 1e-8))
    monkeypatch.setattr(whittaker, "_kernel_product", counted)
    stats = coefficient_demand(GENERIC, z, 1e-6)
    assert stats.n_caches_built == stats.n_caches == 13
    assert 0 < len(products) < stats.n_caches / 2
    form = MaassForm(params=GENERIC, eps=1e-6, coeff_fn=lambda m1, m2: 1.0)
    eval_maass_report(form, z, count_only=True)
    products.clear()
    _, moved = eval_maass_report(form, iwasawa_act(word_matrix("T1 T2"), z),
                                 count_only=True)
    assert moved.n_caches_built == 0
    assert products == []


def test_walk_enumerates_each_pair_once(monkeypatch):
    """The walk enumerates the (c, d) of a pair only when it reaches the
    pair: each (m1, m2) at most once, m2 in order from 1, and none past the
    m2 where the stop rule (four misses in a row, the last past m2 y2 = C)
    ends its m1.  Waves are planned from D alone and enumerate nothing."""
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
