"""Trapezoid-rule engine for rapidly decaying integrands on the real line
and for vertical-line inverse Mellin transforms.

For integrands that decay at least exponentially the infinite trapezoid
sum ``h * sum f(k h)`` carries a discretization error of size O(e^{-c/h});
truncation is controlled by requiring a run of consecutive terms below a
threshold on each tail, so oscillatory gamma products cannot stop the sum
early at an accidental zero.  Reductions are exactly rounded (common-scale
fsum) and always performed in ascending k order, so identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from .errors import NonConvergenceError
from .scaled import ScaledComplex, scaled_sum

__all__ = [
    "QuadratureGrid",
    "MellinGrid2D",
    "trapezoid_line",
    "inverse_mellin_line",
    "refine_check",
]


@dataclass(frozen=True)
class QuadratureGrid:
    """Step h, line abscissa sigma (Mellin use only), half-width N in steps,
    and the adaptive truncation rule.

    stop_threshold = 0 disables adaptive truncation (all 2N+1 nodes are
    summed).  With adaptive truncation each tail stops after stop_run
    consecutive samples below stop_threshold in magnitude.
    """

    h: float
    sigma: float = 0.0
    N: int = 1000
    stop_threshold: float = 0.0
    stop_run: int = 5

    def __post_init__(self):
        if not (self.h > 0.0) or not math.isfinite(self.h):
            raise ValueError("grid step h must be positive and finite")
        if self.N < 1:
            raise ValueError("grid half-width N must be at least 1")
        if self.stop_threshold < 0.0:
            raise ValueError("stop_threshold must be non-negative")
        if self.stop_threshold > 0.0 and self.stop_run < 3:
            raise ValueError("adaptive truncation requires stop_run >= 3")

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
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


def _log_threshold(grid: QuadratureGrid) -> float:
    if grid.stop_threshold == 0.0:
        return -math.inf
    return math.log(grid.stop_threshold)


def _collect_tail(f, grid: QuadratureGrid, step: int) -> list:
    """Samples f at k = step, 2*step, ... following the truncation rule.

    Returns the list of sampled values (in sampling order).  Raises
    NonConvergenceError if adaptive truncation never found stop_run
    consecutive small terms within N steps.
    """
    log_thr = _log_threshold(grid)
    adaptive = math.isfinite(log_thr)
    out = []
    run = 0
    for j in range(1, grid.N + 1):
        v = f(j * step * grid.h)
        out.append(v)
        if adaptive:
            if v.log_abs() < log_thr:
                run += 1
                if run >= grid.stop_run:
                    return out
            else:
                run = 0
    if adaptive:
        raise NonConvergenceError(
            f"tail did not fall below {grid.stop_threshold:g} for "
            f"{grid.stop_run} consecutive terms within N={grid.N} steps")
    return out


def trapezoid_line(f: Callable[[float], ScaledComplex],
                   grid: QuadratureGrid) -> ScaledComplex:
    """h * sum_k f(k h) over k = -N..N, truncated per the grid rule.

    The reduction runs over ascending k with exactly rounded common-scale
    summation, so the output is deterministic for identical inputs.
    """
    left = _collect_tail(f, grid, -1)
    center = f(0.0)
    right = _collect_tail(f, grid, +1)
    values = list(reversed(left)) + [center] + right
    return scaled_sum(values) * grid.h


def inverse_mellin_line(transform: Callable[[complex], ScaledComplex],
                        y: float,
                        grid: QuadratureGrid) -> ScaledComplex:
    """(h / 2 pi) * sum_k M(sigma + i k h) y^(-sigma - i k h).

    Discretizes the inverse Mellin integral along Re s = sigma; with an
    exponentially decaying original the combined discretization and
    truncation error follows the same O(e^{-c/h}) law as trapezoid_line.
    """
    if not (y > 0.0):
        raise ValueError("inverse Mellin argument y must be positive")
    log_y = math.log(y)
    sigma = grid.sigma

    def term(t: float) -> ScaledComplex:
        s = complex(sigma, t)
        return transform(s) * ScaledComplex.from_log(-s * log_y)

    total = trapezoid_line(term, grid)
    return total * (1.0 / (2.0 * math.pi))


def refine_check(integrand,
                 grid: QuadratureGrid,
                 y: float | None = None) -> tuple[ScaledComplex, float]:
    """Evaluate at step h and h/2 and return (h/2 value, |difference|).

    With y given the integrand is treated as a Mellin transform on the
    line Re s = grid.sigma; otherwise as a real-line integrand.  The
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
