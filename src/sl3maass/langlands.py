"""Spectral (Langlands) parameter algebra for rank-3 Maass forms.

The triple (alpha, beta, gamma) is purely imaginary and sums to zero; it
is stored through the imaginary parts with r_gamma = -(r_alpha + r_beta)
enforced bit-exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import NonTemperedError

__all__ = [
    "LanglandsParams",
    "EigenvaluePair",
    "from_nu",
    "eigenvalues",
    "permutations",
]

_TEMPERED_TOL = 1e-9
_DEGENERATE_TOL = 1e-9


@dataclass(frozen=True)
class LanglandsParams:
    """Purely imaginary spectral triple; alpha + beta + gamma = 0 exactly
    in the stored representation."""

    r_alpha: float
    r_beta: float
    r_gamma: float = None  # type: ignore[assignment]

    def __post_init__(self):
        for name in ("r_alpha", "r_beta", "r_gamma"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(float(v)):
                raise ValueError(f"{name} must be finite, got {v}")
        ra = float(self.r_alpha)
        rb = float(self.r_beta)
        rg = -(ra + rb)
        if self.r_gamma is not None:
            scale = max(1.0, abs(ra), abs(rb))
            if abs(float(self.r_gamma) - rg) > 1e-5 * scale:
                raise ValueError(
                    f"r_gamma={self.r_gamma} inconsistent with -(r_alpha+r_beta)={rg}")
        object.__setattr__(self, "r_alpha", ra)
        object.__setattr__(self, "r_beta", rb)
        object.__setattr__(self, "r_gamma", rg)

    @property
    def alpha(self) -> complex:
        return complex(0.0, self.r_alpha)

    @property
    def beta(self) -> complex:
        return complex(0.0, self.r_beta)

    @property
    def gamma(self) -> complex:
        return complex(0.0, self.r_gamma)

    @property
    def triple(self) -> tuple[complex, complex, complex]:
        return (self.alpha, self.beta, self.gamma)

    @property
    def sup_norm(self) -> float:
        return max(abs(self.r_alpha), abs(self.r_beta), abs(self.r_gamma))

    @property
    def scale_shift(self) -> float:
        """pi |alpha - beta|: the log of the overall scaling convention
        applied to Whittaker values."""
        return math.pi * abs(self.r_alpha - self.r_beta)

    def is_self_dual(self) -> bool:
        """True if the triple, negated, is the same multiset (exactly)."""
        r = sorted((self.r_alpha, self.r_beta, self.r_gamma))
        return r == [-x for x in reversed(r)]

    def is_degenerate(self) -> bool:
        """True if any two parameters coincide within _DEGENERATE_TOL
        (series algorithms then hit gamma poles)."""
        return (abs(self.r_alpha - self.r_beta) < _DEGENERATE_TOL
                or abs(self.r_beta - self.r_gamma) < _DEGENERATE_TOL
                or abs(self.r_gamma - self.r_alpha) < _DEGENERATE_TOL)


@dataclass(frozen=True)
class EigenvaluePair:
    """Eigenvalues of the two invariant differential operators.

    For purely imaginary parameters lambda1 is real while lambda2 is
    purely imaginary (lambda2 = i r_alpha r_beta r_gamma); it vanishes,
    and is thus real, exactly when some parameter is zero.
    """

    lambda1: complex
    lambda2: complex


def from_nu(nu1: complex, nu2: complex) -> LanglandsParams:
    """Spectral triple from the type (nu1, nu2):

        alpha = -nu1 - 2 nu2 + 1
        beta  = 2 nu1 + nu2 - 1
        gamma = -nu1 + nu2

    Raises NonTemperedError when any resulting real part exceeds 1e-9.
    """
    nu1 = complex(nu1)
    nu2 = complex(nu2)
    alpha = -nu1 - 2.0 * nu2 + 1.0
    beta = 2.0 * nu1 + nu2 - 1.0
    gamma = -nu1 + nu2
    for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if abs(v.real) > _TEMPERED_TOL:
            raise NonTemperedError(f"Re({name}) = {v.real:g} exceeds tolerance; "
                                   "only tempered (purely imaginary) parameters are supported")
    return LanglandsParams(alpha.imag, beta.imag)


def eigenvalues(p: LanglandsParams) -> EigenvaluePair:
    """lambda1 = -1 - beta gamma - gamma alpha - alpha beta,
    lambda2 = -alpha beta gamma."""
    a, b, g = p.triple
    return EigenvaluePair(lambda1=-1.0 - b * g - g * a - a * b,
                          lambda2=-a * b * g)


def permutations(p: LanglandsParams) -> list[tuple[complex, complex, complex]]:
    """All six ordered triples (delta1, delta2, delta3), in the order
    (a,b,g), (a,g,b), (b,a,g), (b,g,a), (g,a,b), (g,b,a)."""
    return list(itertools.permutations(p.triple))
