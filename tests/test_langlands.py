import math

import pytest

from sl3maass.errors import NonTemperedError
from sl3maass.langlands import (LanglandsParams, eigenvalues, from_nu,
                                permutations)


def test_center_point():
    p = from_nu(1.0 / 3.0, 1.0 / 3.0)
    assert p.triple == (0j, 0j, 0j)


def test_sum_is_exactly_zero():
    for ra, rb in [(0.1, 0.2), (-14.141638, -2.380388), (1e-9, 3e7)]:
        p = LanglandsParams(ra, rb)
        assert p.r_alpha + p.r_beta + p.r_gamma == 0.0


def test_from_nu_substitution_oracle():
    # direct substitution, independent of the constructor's algebra
    t = 0.37
    nu1, nu2 = 1.0 / 3.0 + 1j * t, 1.0 / 3.0 - 1j * t
    p = from_nu(nu1, nu2)
    alpha = -nu1 - 2 * nu2 + 1
    beta = 2 * nu1 + nu2 - 1
    gamma = -nu1 + nu2
    assert abs(p.alpha - alpha) < 1e-12
    assert abs(p.beta - beta) < 1e-12
    assert abs(p.gamma - gamma) < 1e-12
    assert abs(p.gamma - (-2j * t)) < 1e-12


@pytest.mark.parametrize("ra, rb, self_dual", [
    (-2.0 * 9.533695, 2.0 * 9.533695, True),   # the lift (-2r, 2r, 0)
    (2.0 * 9.533695, 0.0, True),               # the same multiset, permuted
    (0.0, -5.25, True),
    (-3.7, 1.2, False),                        # GEN (-3.7, 1.2, 2.5)
    (-2.0, 2.0 + 1e-12, False),
])
def test_is_self_dual(ra, rb, self_dual):
    assert LanglandsParams(ra, rb).is_self_dual() is self_dual


def test_from_nu_rejects_nontempered():
    with pytest.raises(NonTemperedError):
        from_nu(0.5, 1.0 / 3.0)


def test_inconsistent_gamma_rejected():
    with pytest.raises(ValueError):
        LanglandsParams(1.0, 2.0, 5.0)


@pytest.mark.parametrize("part", [0, 1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_part_rejected(part, bad):
    parts = [1.0, 2.0, -3.0]
    parts[part] = bad
    name = ("r_alpha", "r_beta", "r_gamma")[part]
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        LanglandsParams(*parts)


def test_eigenvalues_center():
    ev = eigenvalues(LanglandsParams(0.0, 0.0))
    assert ev.lambda1 == -1.0
    assert ev.lambda2 == 0j


def test_eigenvalues_substitution_oracle():
    # lambda1 = -1 - bg - ga - ab, lambda2 = -abg, by direct substitution
    r = 9.533695
    p = LanglandsParams(-2 * r, 2 * r)
    a, b, g = p.triple
    ref1 = -1.0 - b * g - g * a - a * b
    ref2 = -a * b * g
    ev = eigenvalues(p)
    assert abs(ev.lambda1 - ref1) < 1e-12 * abs(ref1)
    assert ev.lambda2 == ref2 == 0j
    # for this triple the substitution gives -1 - 4 r^2 (real)
    assert abs(ev.lambda1 - (-1.0 - 4.0 * r * r)) < 1e-9
    assert abs(ev.lambda1.imag) == 0.0


def test_eigenvalue_reality_pattern():
    # lambda1 real, lambda2 = i * ra rb rg purely imaginary
    p = LanglandsParams(-14.141638, -2.380388)
    ev = eigenvalues(p)
    assert abs(ev.lambda1.imag) < 1e-12 * abs(ev.lambda1)
    assert abs(ev.lambda2.real) < 1e-12 * abs(ev.lambda2)
    assert abs(ev.lambda2 - 1j * p.r_alpha * p.r_beta * p.r_gamma) < 1e-9


def test_permutation_invariance_of_eigenvalues():
    p = LanglandsParams(-3.7, 1.2)
    base = eigenvalues(p)
    for (d1, d2, d3) in permutations(p):
        l1 = -1.0 - d2 * d3 - d3 * d1 - d1 * d2
        l2 = -d1 * d2 * d3
        assert abs(l1 - base.lambda1) < 1e-12
        assert abs(l2 - base.lambda2) < 1e-12


def test_permutations_structure():
    p0 = LanglandsParams(0.0, 0.0)
    assert permutations(p0) == [(0j, 0j, 0j)] * 6
    p = LanglandsParams(-3.7, 1.2)
    perms = permutations(p)
    assert len(perms) == 6
    assert len(set(perms)) == 6
    # zero up to one float reassociation of the stored exact-zero sum
    for t in perms:
        assert abs(sum(t)) < 1e-15


def test_conjugation_is_negation():
    p = LanglandsParams(-3.7, 1.2)
    for d in p.triple:
        assert d.conjugate() == -d


def test_degenerate_detection():
    assert LanglandsParams(1.0, 1.0).is_degenerate()
    assert LanglandsParams(1.0, -0.5).is_degenerate()  # gamma == beta
    assert not LanglandsParams(-3.7, 1.2).is_degenerate()
    assert LanglandsParams(0.0, 0.0).is_degenerate()


def test_scale_shift():
    import math
    p = LanglandsParams(-2.0, 3.0)
    assert math.isclose(p.scale_shift, math.pi * 5.0)
