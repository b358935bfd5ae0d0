"""Trapezoid-rule engine for rapidly decaying integrands on the real line
and for vertical-line inverse Mellin transforms.

For integrands that decay at least exponentially the infinite trapezoid
sum ``h * sum f(k h)`` carries a discretization error of size O(e^{-c/h});
truncation is controlled by requiring a run of consecutive terms below a
threshold on each tail, so oscillatory gamma products cannot stop the sum
early at an accidental zero.  Integrands are vector functions: they map a
1-D array of abscissas to a ScaledArray, and the rule calls them on blocks
of nodes.  Reductions are exactly rounded (common-scale fsum), so identical
inputs give bit-identical outputs whatever the block layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import NonConvergenceError
from .scaled import ScaledArray, ScaledComplex

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
        if not isinstance(self.N, int) or isinstance(self.N, bool):
            raise ValueError(f"grid half-width N must be an int, got {self.N!r}")
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
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{name} must be an int, got {v!r}")
            if v < 1:
                raise ValueError(f"{name} must be at least 1")


# nodes per side in one integrand call
BLOCK = 32


def _log_threshold(grid: QuadratureGrid) -> float:
    if grid.stop_threshold == 0.0:
        return -math.inf
    return math.log(grid.stop_threshold)


def _stop_position(small: list, run: int, stop_run: int) -> tuple[int | None, int]:
    """Walk one tail's block of below-threshold flags outward, with `run`
    small samples carried in from the previous block.  Returns (number of
    the block's nodes kept if the tail stops in this block, else None;
    the run carried on)."""
    for j, below in enumerate(small):
        run = run + 1 if below else 0
        if run >= stop_run:
            return j + 1, run
    return None, run


def trapezoid_line(f: Callable[[np.ndarray], ScaledArray],
                   grid: QuadratureGrid) -> ScaledComplex:
    """h * sum_k f(k h) over k = -N..N, truncated per the grid rule.

    f maps a 1-D array of abscissas to a ScaledArray of the same length.
    Nodes are evaluated outward from 0 in blocks of BLOCK per open tail,
    both tails (and, in the first block, the centre) in one call of f.
    The nodes kept are exactly those of a node-by-node walk: a tail ends
    after stop_run consecutive samples below stop_threshold, and nodes of
    its last block past that point are dropped.  NonConvergenceError is
    raised when a tail reaches N without stopping under adaptive
    truncation.

    The kept nodes are reduced with the exactly rounded common-scale sum,
    so the output is deterministic for identical inputs and independent
    of BLOCK.
    """
    log_thr = _log_threshold(grid)
    adaptive = math.isfinite(log_thr)
    kept: list[ScaledArray] = []
    runs = {-1: 0, +1: 0}
    tails = [-1, +1]
    start = 1
    while tails:
        k = np.arange(start, min(start + BLOCK, grid.N + 1))
        t = [side * k * grid.h for side in tails]
        if start == 1:
            t.insert(0, np.zeros(1))
        t = np.concatenate(t)
        values = f(t)
        if not isinstance(values, ScaledArray) or len(values) != len(t):
            raise TypeError("integrand must map an array of abscissas to a "
                            "ScaledArray of the same length")
        if start == 1:
            kept.append(values[:1])
            values = values[1:]
        small = (values.log_abs() < log_thr).tolist()
        still_open = []
        for i, side in enumerate(tails):
            lo = i * k.size
            stop, runs[side] = _stop_position(small[lo:lo + k.size], runs[side],
                                              grid.stop_run)
            kept.append(values[lo:lo + (k.size if stop is None else stop)])
            if stop is None and k[-1] < grid.N:
                still_open.append(side)
            elif stop is None and adaptive:
                raise NonConvergenceError(
                    f"tail did not fall below {grid.stop_threshold:g} for "
                    f"{grid.stop_run} consecutive terms within N={grid.N} steps")
        tails = still_open
        start += BLOCK
    return ScaledArray.concatenate(kept).sum() * grid.h


def inverse_mellin_line(transform: Callable[[np.ndarray], ScaledArray],
                        y: float,
                        grid: QuadratureGrid) -> ScaledComplex:
    """(h / 2 pi) * sum_k M(sigma + i k h) y^(-sigma - i k h).

    transform maps a 1-D complex array of points s on the line Re s =
    sigma to a ScaledArray of the same length; the line is walked in
    trapezoid_line's blocks.  With an exponentially decaying original the
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
