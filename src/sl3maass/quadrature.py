"""Trapezoid-rule engine for rapidly decaying integrands on the real line
and for vertical-line inverse Mellin transforms.

For integrands that decay at least exponentially the infinite trapezoid
sum ``h * sum f(k h)`` carries a discretization error of size O(e^{-c/h}).
Every sum runs over a node range the caller fixes a priori, from a bound
on the integrand's tails (Trefethen & Weideman, SIAM Review 2014), and
samples it in one call.  Integrands are vector functions: they map a 1-D
array of abscissas to a ScaledArray.  Reductions are exactly rounded
(common-scale fsum), so identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .scaled import ScaledArray, ScaledComplex

__all__ = [
    "QuadratureGrid",
    "MellinGrid2D",
    "strip_error_log",
    "strip_step",
    "trapezoid_line",
    "inverse_mellin_line",
    "refine_check",
]


@dataclass(frozen=True)
class QuadratureGrid:
    """Step h, line abscissa sigma (Mellin use only) and half-width N in
    steps: the rule sums the 2N+1 nodes k = -N..N."""

    h: float
    sigma: float = 0.0
    N: int = 1000

    def __post_init__(self):
        if not (self.h > 0.0) or not math.isfinite(self.h):
            raise ValueError(f"grid step h must be positive and finite, got {self.h}")
        if not math.isfinite(self.sigma):
            raise ValueError(f"grid sigma must be finite, got {self.sigma}")
        if not isinstance(self.N, int) or isinstance(self.N, bool):
            raise ValueError(f"grid half-width N must be an int, got {self.N!r}")
        if self.N < 1:
            raise ValueError("grid half-width N must be at least 1")

    def halved(self) -> "QuadratureGrid":
        return replace(self, h=self.h / 2.0, N=2 * self.N)


@dataclass(frozen=True)
class MellinGrid2D:
    """Discretization parameters for the double inverse Mellin transform:
    one step h on both lines, abscissas sigma1 and sigma2, and half-widths
    N1 and N2 in steps."""

    h: float
    sigma1: float
    sigma2: float
    N1: int
    N2: int

    def __post_init__(self):
        # sigma > 0 keeps both lines right of the gamma poles on Re s = 0
        for name in ("h", "sigma1", "sigma2"):
            v = getattr(self, name)
            if not (v > 0.0) or not math.isfinite(v):
                raise ValueError(f"grid {name} must be positive and finite, got {v}")
        for name in ("N1", "N2"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{name} must be an int, got {v!r}")
            if v < 1:
                raise ValueError(f"{name} must be at least 1")


def strip_error_log(a: float, growth_log: float, h: float) -> float:
    """log of the trapezoid error bound 2M / (e^{2 pi a/h} - 1) at step h,
    relative to int |f|, for f analytic in |Im u| < a with int |f(u + iv)|
    du <= M = e^growth_log int |f| (Trefethen & Weideman, SIAM Review 2014)."""
    x = 2.0 * math.pi * a / h
    return math.log(2.0) + growth_log - x - math.log1p(-math.exp(-x))


def strip_step(a: float, growth_log: float, eps: float) -> tuple[float, float]:
    """The step h whose strip_error_log is log(eps), and that log."""
    h = 2.0 * math.pi * a / (growth_log + math.log(2.0 / eps)
                             + math.log1p(0.5 * eps * math.exp(-growth_log)))
    return h, strip_error_log(a, growth_log, h)


def trapezoid_line(f: Callable[[np.ndarray], ScaledArray],
                   grid: QuadratureGrid) -> ScaledComplex:
    """h * sum_k f(k h) over k = -N..N, in one call of f.

    f maps a 1-D array of abscissas to a ScaledArray of the same length.
    The caller fixes N before sampling, from a bound on the integrand's
    tails.  The nodes are reduced with the exactly rounded common-scale
    sum, so the output is deterministic for identical inputs.
    """
    t = np.arange(-grid.N, grid.N + 1) * grid.h
    values = f(t)
    if not isinstance(values, ScaledArray) or len(values) != len(t):
        raise TypeError("integrand must map an array of abscissas to a "
                        "ScaledArray of the same length")
    return values.sum() * grid.h


def inverse_mellin_line(transform: Callable[[np.ndarray], ScaledArray],
                        y: float,
                        grid: QuadratureGrid) -> ScaledComplex:
    """(h / 2 pi) * sum_k M(sigma + i k h) y^(-sigma - i k h).

    transform maps a 1-D complex array of points s on the line Re s =
    sigma to a ScaledArray of the same length, and is called once on all
    2N+1 points.  With an exponentially decaying original the
    combined discretization and truncation error follows the same
    O(e^{-c/h}) law as trapezoid_line.
    """
    if not (y > 0.0):
        raise ValueError("inverse Mellin argument y must be positive")
    log_y = math.log(y)
    sigma = grid.sigma

    def term(t: np.ndarray) -> ScaledArray:
        s = sigma + 1j * t
        return transform(s) * ScaledArray.from_log(-s * log_y)

    total = trapezoid_line(term, grid)
    return total * (1.0 / (2.0 * math.pi))


def refine_check(integrand,
                 grid: QuadratureGrid,
                 y: float | None = None) -> tuple[ScaledComplex, float]:
    """Evaluate at step h and h/2 and return (h/2 value, |difference|).

    With y given the integrand is treated as a Mellin transform on the
    line Re s = grid.sigma (inverse_mellin_line's contract); otherwise as
    a real-line vector integrand (trapezoid_line's contract).  The
    difference of the two evaluations estimates the discretization error
    of the coarser grid.
    """
    fine = grid.halved()
    if y is None:
        v1 = trapezoid_line(integrand, grid)
        v2 = trapezoid_line(integrand, fine)
    else:
        v1 = inverse_mellin_line(integrand, y, grid)
        v2 = inverse_mellin_line(integrand, y, fine)
    return v2, (v1 - v2).abs()
