"""The four evaluation algorithms for the rank-3 Whittaker function
W(y1, y2), a regime dispatcher, and a fixed-D cache for Fourier-expansion
workloads.

Every algorithm returns a ScaledComplex representing

    exp(pi |alpha - beta|) * W(y1, y2),

a convention shared by all routines so that cross-comparisons and the
Maass-form assembly never meet underflowed intermediates.

Algorithms
----------
w_stade           double K-Bessel integral, trapezoid rule after u -> e^u
w_series_origin   double power series around (0,0) from the residue
                  expansion of the double Mellin integral (six
                  permutations of the spectral triple)
w_series_small    single power series in the smaller argument; each term
                  needs one K-Bessel pair through polynomial recursions
w_mellin_fixed_d  discretized double inverse Mellin transform with the
                  inner sums cached as a function of D = y1^2 y2, built
                  from one D-independent kernel per (params, grid)

The residue expansions carry an explicit factor 2 per collapsed contour
(from d(s)/d((s+delta)/2) at each gamma pole), so the origin series has
overall weight 4 and the small-argument assembly weight 2 relative to the
inner Mellin integrals.
"""

from __future__ import annotations

import functools
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import (CancellationError, DegenerateParametersError,
                     NonConvergenceError, AccuracyRangeError, PoleError)
from .langlands import LanglandsParams, permutations
from .quadrature import MellinGrid2D, QuadratureGrid, trapezoid_line
from .scaled import ScaledArray, ScaledComplex, scaled_sum
from .specfun import (GammaRatioSpec, bessel_k_prime_scaled, bessel_k_scaled,
                      gamma_ratio, _log_gamma_array, _pole_distance)

__all__ = [
    "WhittakerArgs",
    "SeriesBudget",
    "pq_build",
    "build_pq_table",
    "w_stade",
    "w_series_origin",
    "w_series_small",
    "MellinKernel",
    "mellin_kernel",
    "FixedDCache",
    "default_mellin_grid",
    "default_stade_grid",
    "build_fixed_d_cache",
    "w_mellin_fixed_d",
    "mellin_outer_noise_log",
    "choose_algorithm",
    "w_eval",
]

log = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi

# max |term| may not exceed this multiple of |sum|; beyond it the result
# has fewer than ~6 reliable digits in binary64 and we fail loudly.
CANCELLATION_GUARD_RATIO = 1e10

# residue weight of one collapsed Mellin contour: Gamma((s+d)/2) has
# residue 2 (-1)^n / n! in s at s = -d - 2n
_CONTOUR_WEIGHT = 2.0


@dataclass(frozen=True)
class WhittakerArgs:
    """Strictly positive argument pair."""

    y1: float
    y2: float

    def __post_init__(self):
        for name in ("y1", "y2"):
            v = float(getattr(self, name))
            if not (v > 0.0) or not math.isfinite(v):
                raise ValueError(f"{name} must be positive and finite, got {v}")
            object.__setattr__(self, name, v)

    @property
    def swapped(self) -> "WhittakerArgs":
        return WhittakerArgs(self.y2, self.y1)


@dataclass(frozen=True)
class SeriesBudget:
    """Term cutoff and accuracy goal for the power-series algorithms."""

    nmax: int = 60
    target_eps: float = 1e-14

    def __post_init__(self):
        if self.nmax < 1:
            raise ValueError("nmax must be at least 1")


def _require_nondegenerate(p: LanglandsParams, tol: float = 1e-9):
    if p.is_degenerate(tol):
        raise DegenerateParametersError(
            f"spectral parameters ({p.r_alpha:g}, {p.r_beta:g}, {p.r_gamma:g}) "
            "contain a coinciding pair; series coefficients hit gamma poles")


# ---------------------------------------------------------------------------
# Algorithm 1: double K-Bessel integral
# ---------------------------------------------------------------------------

def _k_log_magnitude(m: float, x: float) -> float:
    """Cheap log|K_{im}(x)| estimate from the saddle of the cosh integral."""
    if x >= m:
        r = math.sqrt(x * x - m * m)
        return -r - (m * math.asin(m / x) if m > 0 else 0.0)
    return -0.5 * math.pi * m


def default_stade_grid(p: LanglandsParams) -> QuadratureGrid:
    """Step resolving the exp(-3 gamma u / 4) oscillation, wide N cap,
    threshold filled in per evaluation."""
    h = min(1.0 / 16.0, math.pi / (5.0 * (1.0 + 0.75 * abs(p.r_gamma))))
    return QuadratureGrid(h=h, N=20000, stop_threshold=0.0, stop_run=5)


def w_stade(p: LanglandsParams, a: WhittakerArgs,
            grid: QuadratureGrid | None = None) -> ScaledComplex:
    """W(y1,y2) from the double K-Bessel integral

        4 (2 pi y1)^(1-g/2) (2 pi y2)^(1+g/2)
          * int_R K_mu(2 pi y1 sqrt(1+e^u)) K_mu(2 pi y2 sqrt(1+e^-u))
                  e^(-3 g u / 4) du,

    mu = (alpha-beta)/2, evaluated by trapezoid_line.  The grid is
    recentred at u0 = log(y2/y1), where the doubly exponentially decaying
    integrand peaks.  Applicable for all argument sizes; each block of
    trapezoid nodes costs two array K-Bessel calls.
    """
    if grid is None:
        grid = default_stade_grid(p)
    alpha, beta, g = p.triple
    mu = (alpha - beta) / 2.0
    m = abs(mu.imag)
    y1, y2 = a.y1, a.y2
    u0 = math.log(y2 / y1)

    peak_log = -math.inf

    def integrand(v: np.ndarray) -> ScaledArray:
        nonlocal peak_log
        u = v + u0
        # x1 = 2 pi y1 sqrt(1+e^u), x2 = 2 pi y2 sqrt(1+e^-u), with the
        # growing factor e^{|u|/2} split off so nothing overflows
        root = np.sqrt(1.0 + np.exp(-np.abs(u)))
        grow = np.exp(0.5 * np.abs(u))
        x1 = TWO_PI * y1 * np.where(u >= 0.0, grow, 1.0) * root
        x2 = TWO_PI * y2 * np.where(u >= 0.0, 1.0, grow) * root
        out = (bessel_k_scaled(mu, x1) * bessel_k_scaled(mu, x2)
               * ScaledArray.from_log(-0.75j * p.r_gamma * u))
        peak_log = max(peak_log, float(out.log_abs().max()))
        return out

    # threshold relative to the integrand scale near the peak; |K| can
    # vanish at an oscillation zero, so probe a few nodes
    probe = max(_k_log_magnitude(m, TWO_PI * y1 * math.sqrt(1.0 + math.exp(u0 + s)))
                + _k_log_magnitude(m, TWO_PI * y2 * math.sqrt(1.0 + math.exp(-u0 - s)))
                for s in (-2.0, -1.0, 0.0, 1.0, 2.0))
    grid = QuadratureGrid(h=grid.h, N=grid.N,
                          stop_threshold=math.exp(probe - 44.0),
                          stop_run=max(grid.stop_run, 5))
    total = trapezoid_line(integrand, grid)
    # the e^{-3 g u/4} phase can cancel the node values far below their
    # size; each node carries ~1e-14 relative Bessel noise, so the result
    # keeps only ~14 - log10(ratio) digits
    if not total.is_zero:
        cancel_log = peak_log + math.log(grid.h) - total.log_abs()
        if cancel_log > math.log(1e8):
            log.warning(
                "oscillation cancellation ~e^%.1f in the double-Bessel "
                "integral at (%g, %g); expect only ~%d reliable digits, "
                "prefer the series algorithms here",
                cancel_log, y1, y2, max(0, int(14 - cancel_log / math.log(10.0))))
    pref = ScaledComplex.from_log(math.log(4.0)
                                  + (1.0 - g / 2.0) * math.log(TWO_PI * y1)
                                  + (1.0 + g / 2.0) * math.log(TWO_PI * y2))
    return (total * pref).scaled_by(p.scale_shift)


# ---------------------------------------------------------------------------
# Algorithm 2: double power series around the origin
# ---------------------------------------------------------------------------

def w_series_origin(p: LanglandsParams, a: WhittakerArgs,
                    budget: SeriesBudget | None = None) -> ScaledComplex:
    """W(y1,y2) as the residue expansion of the double Mellin integral:
    six permutations (d1,d2,d3) of the spectral triple, each contributing

        4 (pi y1)^(1+d1) (pi y2)^(1-d2)
          Gamma((d2-d3)/2) Gamma((d2-d1)/2) Gamma((d3-d1)/2)
          * sum_{m,n} (q)_{m+n} Y1^n Y2^m
              / [ (q)_m (1+(d3-d2)/2)_m (q)_n (1+(d1-d3)/2)_n m! n! ]

    with q = 1 + (d1-d2)/2, Y1 = (pi y1)^2, Y2 = (pi y2)^2.  All series
    coefficients follow from six gamma values by term recursions.

    Converges for every argument but loses digits once either argument is
    large; the cancellation guard fails loudly at ratio 1e10.
    """
    if budget is None:
        budget = SeriesBudget()
    _require_nondegenerate(p)
    y1, y2 = a.y1, a.y2
    big_y1 = (math.pi * y1) ** 2
    big_y2 = (math.pi * y2) ** 2
    s_cap = max(24, 3 * budget.nmax)

    totals: list[ScaledComplex] = []
    max_term_log = -math.inf
    for (d1, d2, d3) in permutations(p):
        q = 1.0 + (d1 - d2) / 2.0
        pm = 1.0 + (d3 - d2) / 2.0   # second m-Pochhammer base
        pn = 1.0 + (d1 - d3) / 2.0   # second n-Pochhammer base
        pref = gamma_ratio(GammaRatioSpec([(d2 - d3) / 2.0,
                                           (d2 - d1) / 2.0,
                                           (d3 - d1) / 2.0]))
        pref = pref * ScaledComplex.from_log((1.0 + d1) * math.log(math.pi * y1)
                                             + (1.0 - d2) * math.log(math.pi * y2))
        pref = pref * _CONTOUR_WEIGHT * _CONTOUR_WEIGHT

        # u[m] = Y2^m / ((q)_m (pm)_m m!),  v[n] = Y1^n / ((q)_n (pn)_n n!),
        # w[s] = (q)_s; grown one diagonal at a time so (q)_s never
        # overflows before convergence
        u = np.ones(1, dtype=np.complex128)
        v = np.ones(1, dtype=np.complex128)
        w_s = 1.0 + 0j

        acc = 0j
        acc_mag = 0.0
        small_run = 0
        converged = False
        for s in range(s_cap + 1):
            if s > 0:
                k = s - 1
                u = np.append(u, u[k] * big_y2 / ((q + k) * (pm + k) * (k + 1)))
                v = np.append(v, v[k] * big_y1 / ((q + k) * (pn + k) * (k + 1)))
                w_s = w_s * (q + k)
            diag = w_s * np.dot(u, v[::-1])
            if not np.isfinite(diag):
                raise CancellationError("origin series coefficients left binary64 range")
            acc += diag
            acc_mag = max(acc_mag, abs(acc))
            mag = abs(diag)
            max_term_log = max(max_term_log, pref.log_abs() + (math.log(mag) if mag > 0 else -math.inf))
            if mag < budget.target_eps * max(acc_mag, 1e-300):
                small_run += 1
                if small_run >= 3 and s >= 4:
                    converged = True
                    break
            else:
                small_run = 0
        if not converged:
            raise NonConvergenceError(
                f"origin series did not converge within {s_cap} diagonals")
        totals.append(pref * acc)

    total = scaled_sum(totals)
    if total.is_zero or max_term_log - total.log_abs() > math.log(CANCELLATION_GUARD_RATIO):
        raise CancellationError(
            "origin series cancellation exceeds guard ratio; "
            "arguments too large for binary64 at these parameters")
    return total.scaled_by(p.scale_shift)


# ---------------------------------------------------------------------------
# Algorithm 3: small-argument series via polynomial recursions
# ---------------------------------------------------------------------------

def _cmul(c, z: np.ndarray) -> np.ndarray:
    """c z from real products: numpy's complex array multiply may round
    differently from the scalar complex product."""
    out = np.empty_like(z)
    out.real = c.real * z.real - c.imag * z.imag
    out.imag = c.real * z.imag + c.imag * z.real
    return out


def pq_build(deltas: Sequence[tuple[complex, complex, complex]],
             nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """P/Q coefficient tables for a stack of ordered triples
    (d1, d2, d3), as two complex arrays of shape
    (len(deltas), nmax + 1, 2 nmax + 1).

    Entry [j, n] of the first (second) array holds P_n (Q_n) of triple j
    in ascending powers of y, zero-padded.  The polynomials satisfy

        P_{n+1} = y P_n' + ((2 pi y)^2 + mu^2) Q_n + a_n P_n,   P_0 = 4
        Q_{n+1} = P_n + y Q_n' + a_n Q_n,                       Q_0 = 0

    with a_n = 3 d1/2 + 2n + 2 and mu = (d2 - d3)/2; hence
    deg P_n <= 2n and deg Q_n <= 2n-1.  One step updates the rows of all
    triples at once.  Each coefficient sums (k + a_n) P_n[k], then
    (2 pi)^2 Q_n[k-2], then mu^2 Q_n[k], in that order and with complex
    products formed from real ones, so the tables are bit-identical to a
    coefficient-by-coefficient recursion."""
    if nmax < 0:
        raise ValueError("nmax must be non-negative")
    # mu^2 per triple in scalar complex arithmetic, as the
    # coefficient-by-coefficient recursion forms it
    d1 = np.array([[d[0]] for d in deltas], dtype=np.complex128)
    mu2 = np.array([[((d[1] - d[2]) / 2.0) * ((d[1] - d[2]) / 2.0)] for d in deltas],
                   dtype=np.complex128)
    four_pi2 = (2.0 * math.pi) ** 2
    p_coeffs = np.zeros((len(deltas), nmax + 1, 2 * nmax + 1), dtype=np.complex128)
    q_coeffs = np.zeros_like(p_coeffs)
    p_coeffs[:, 0, 0] = 4.0
    k = np.arange(2 * nmax + 1)
    for n in range(nmax):
        ka = k + (1.5 * d1 + 2.0 * n + 2.0)                     # k + a_n
        new_p = _cmul(ka, p_coeffs[:, n])                       # y P' + a_n P
        new_p[:, 2:] += four_pi2 * q_coeffs[:, n, :-2]          # (2 pi y)^2 Q
        p_coeffs[:, n + 1] = new_p + _cmul(mu2, q_coeffs[:, n])            # mu^2 Q
        q_coeffs[:, n + 1] = p_coeffs[:, n] + _cmul(ka, q_coeffs[:, n])    # P + y Q' + a_n Q
    return p_coeffs, q_coeffs


def _cyclic_triples(p: LanglandsParams):
    a, b, g = p.triple
    return (a, b, g), (b, g, a), (g, a, b)


def build_pq_table(p: LanglandsParams, nmax: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """The P and Q tables of the small-argument series (see pq_build), one
    slice per leading parameter in the cyclic order alpha, beta, gamma."""
    return pq_build(_cyclic_triples(p), nmax)


def _pq_values(p_coeffs: np.ndarray, q_coeffs: np.ndarray,
               y: float) -> tuple[np.ndarray, np.ndarray]:
    """P_n(y) and Q_n(y) for every row of the two tables, from one Horner
    pass over the columns; each row gets the bits
    `np.polynomial.polynomial.polyval` gives it."""
    rows = np.stack((p_coeffs, q_coeffs))
    acc = np.zeros(rows.shape[:-1], dtype=np.complex128)
    # high rows overflow at large y; w_series_small never sums them
    with np.errstate(over="ignore", invalid="ignore"):
        for column in np.moveaxis(rows, -1, 0)[::-1]:
            acc = acc * y + column
    return acc[0], acc[1]


def w_series_small(p: LanglandsParams, a: WhittakerArgs,
                   budget: SeriesBudget | None = None) -> ScaledComplex:
    """W(y1,y2) as three single-variable power series in (pi y1)^2, one per
    leading parameter d1:

        2 (pi y1)^(1+d1) Gamma((d2-d1)/2) Gamma((d3-d1)/2) (pi y2)^(1+d1/2)
          * sum_n [ P_n(y2) K_mu(2 pi y2) + 2 pi y2 Q_n(y2) K_mu'(2 pi y2) ]
                  (pi y1)^(2n) / [ (1+(d1-d2)/2)_n (1+(d1-d3)/2)_n 2^n n! ]

    with mu = (d2-d3)/2.  Costs six K-Bessel evaluations total plus
    polynomial arithmetic; intended for small y1 (the dispatcher swaps
    arguments first when y1 > y2).

    Each n-series is summed in complex128 at the larger log scale of its
    K and K'.  It stops once three consecutive terms (n >= 2) lie below
    target_eps times the largest partial sum so far; a term or partial sum
    that leaves binary64 range before that raises CancellationError.
    """
    if budget is None:
        budget = SeriesBudget()
    _require_nondegenerate(p)
    y1, y2 = a.y1, a.y2
    x2 = TWO_PI * y2
    nmax = budget.nmax
    triples = _cyclic_triples(p)
    p_vals, q_vals = _pq_values(*build_pq_table(p, nmax), y2)
    log_gammas = _log_gamma_array(np.array([((d2 - d1) / 2.0, (d3 - d1) / 2.0)
                                            for d1, d2, d3 in triples]))
    k = np.arange(nmax)

    totals: list[ScaledComplex] = []
    max_term_log = -math.inf
    for j, (d1, d2, d3) in enumerate(triples):
        mu = (d2 - d3) / 2.0
        kv = bessel_k_scaled(mu, x2)
        kp = bessel_k_prime_scaled(mu, x2)
        scale = max(kv.log_scale, kp.log_scale)
        pref = ScaledComplex.from_log(complex(log_gammas[j, 0] + log_gammas[j, 1]))
        pref = pref * ScaledComplex.from_log((1.0 + d1) * math.log(math.pi * y1)
                                             + (1.0 + d1 / 2.0) * math.log(math.pi * y2))
        pref = pref * _CONTOUR_WEIGHT
        q12 = 1.0 + (d1 - d2) / 2.0
        q13 = 1.0 + (d1 - d3) / 2.0
        with np.errstate(over="ignore", invalid="ignore"):
            # (pi y1)^(2n) / ((q12)_n (q13)_n 2^n n!)
            coef = np.ones(nmax + 1, dtype=np.complex128)
            coef[1:] = np.cumprod((math.pi * y1) ** 2
                                  / (2.0 * (k + 1.0) * (q12 + k) * (q13 + k)))
            kv_part = kv.mantissa * math.exp(kv.log_scale - scale) * p_vals[j]
            kp_part = kp.mantissa * math.exp(kp.log_scale - scale) * (x2 * q_vals[j])
            terms = coef * (kv_part + kp_part)
            partial = np.cumsum(terms)
            mags = np.abs(terms)
            small = mags < budget.target_eps * np.maximum.accumulate(np.abs(partial))
            # the two products of a term can cancel inside it, so the
            # guard sees the larger product, not the term
            products = np.abs(coef) * np.maximum(np.abs(kv_part), np.abs(kp_part))
        # the first n >= 2 ending a run of three small terms, before any
        # non-finite partial sum
        reached = np.logical_and.accumulate(np.isfinite(partial))
        stops = np.flatnonzero(small[2:] & small[1:-1] & small[:-2] & reached[2:])
        if stops.size == 0:
            if not reached[-1]:
                raise CancellationError(
                    "small-argument series terms left binary64 range")
            raise NonConvergenceError(
                f"small-argument series did not converge within nmax={nmax}")
        stop = int(stops[0]) + 2
        max_term_log = max(max_term_log,
                           pref.log_abs() + scale + math.log(float(products[:stop + 1].max())))
        totals.append(pref * ScaledComplex(complex(partial[stop]), scale))

    total = scaled_sum(totals)
    if total.is_zero or max_term_log - total.log_abs() > math.log(CANCELLATION_GUARD_RATIO):
        raise CancellationError(
            "small-argument series cancellation exceeds guard ratio; "
            "use the integral algorithm for these arguments")
    return total.scaled_by(p.scale_shift)


# ---------------------------------------------------------------------------
# Algorithm 4: cached double inverse Mellin transform at fixed D
# ---------------------------------------------------------------------------

# complex elements per row block of the kernel products and of the outer
# sums; one block of B * C (4 MiB) is the largest single temporary
_BLOCK_ELEMS = 1 << 18

# one kernel product forms at most as many columns as keep its
# temporaries (a block, the phased a columns and the output columns)
# within this many bytes
_PRODUCT_BYTES = 16 << 20

# the outer phases e^{-i theta k2 h} are anchored every _PHASE_STEP
# entries of k2 and stepped between anchors
_PHASE_STEP = 32

# roundoff charged per accumulated term by the noise floor (about 2u)
_ROUNDOFF = 2.3e-16


def default_mellin_grid(p: LanglandsParams, eps: float = 1e-12) -> MellinGrid2D:
    """Heuristic discretization: h = 2 pi / (60 + 10 |p|_inf) tempers the
    exp(2 pi k sigma / h) aliasing term well below eps against the
    exp(pi |alpha - beta|) scale; the truncation ranges follow the decay
    rates of the gamma-product tails (3 pi/2 and pi/2 per unit offset on
    the two lines) plus the plateau width set by the parameters."""
    h = TWO_PI / (60.0 + 10.0 * p.sup_norm)
    tau = -math.log(eps) + 14.0
    t1 = tau / math.pi + 0.5 * p.sup_norm + 6.0
    t2 = 2.0 * tau / math.pi + p.sup_norm + 10.0
    return MellinGrid2D(h=h, sigma1=2.0, sigma2=2.0,
                        N1=int(math.ceil(t1 / h)), N2=int(math.ceil(t2 / h)))


def _gamma_product_log(args: np.ndarray) -> np.ndarray:
    if np.any(_pole_distance(args) < 1e-9):
        raise PoleError("grid abscissa within 1e-9 of a gamma pole; "
                        "choose positive sigma1, sigma2")
    return _log_gamma_array(args)


def _row_blocks(n_rows: int, width: int) -> list[tuple[int, int]]:
    """(start, stop) row ranges of at most _BLOCK_ELEMS elements each."""
    step = max(1, _BLOCK_ELEMS // width)
    return [(j0, min(j0 + step, n_rows)) for j0 in range(0, n_rows, step)]


def _kernel_product(b: np.ndarray, c: np.ndarray, x: np.ndarray,
                    n_rows: int) -> np.ndarray:
    """(B * C) @ x with B[j, i] = b[i + j] and C[j, i] = c[3 i + j], for x
    a vector or a matrix of columns.

    B and C are zero-copy stride views; their elementwise product is
    formed one row block at a time, once for all columns of x, so the
    dense matrix never exists.
    """
    width = x.shape[0]
    bm = sliding_window_view(b, width)[:n_rows]
    step = c.strides[0]
    cm = as_strided(c, shape=(n_rows, width), strides=(step, 3 * step),
                    writeable=False)
    out = np.empty((n_rows,) + x.shape[1:], dtype=np.result_type(b, c, x))
    for j0, j1 in _row_blocks(n_rows, width):
        out[j0:j1] = (bm[j0:j1] * cm[j0:j1]) @ x
    return out


@dataclass(frozen=True, eq=False)
class MellinKernel:
    """The D-independent part of every fixed-D cache on one (params, grid).

    With i = k1 + N1 and j = k2 + N2, the inner sum at D is

        inner_D[j] = sum_i a[i] e^{-i k1 h log(pi^3 D)} b[i + j] c[3 i + j]

    where a runs over k1, b over m = k1 + k2 and c over v = 3 k1 + k2; each
    array holds its gamma factors divided by their largest magnitude, and
    log_scale is the sum of the three divisors' logs.  D enters only
    through the phase, so the inner sums of several D are one product
    (B * C) @ A, A holding one phased copy of a per D: each row block of
    B * C is formed once for all of them.  abs_rows[j] =
    sum_i |a_i| |b_{i+j}| |c_{3i+j}| bounds the terms of inner_D[j] for
    every D and so sets the scale of its roundoff.
    """

    grid: MellinGrid2D
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    log_scale: float
    abs_rows: np.ndarray

    @property
    def max_columns(self) -> int:
        """The most D one product forms: its temporaries, one row block
        plus the phased a columns and the output columns, stay within
        _PRODUCT_BYTES."""
        per_column = 16 * (self.a.size + self.abs_rows.size)
        return max(1, (_PRODUCT_BYTES - 16 * _BLOCK_ELEMS) // per_column)

    def inner(self, Ds: Sequence[float]) -> np.ndarray:
        """inner_D for every D of Ds, as the columns of a
        (2 N2 + 1, len(Ds)) array, all entries at the common scale
        exp(log_scale).  The columns are formed max_columns at a time, one
        kernel product each; a column's last bits may depend on the other
        D formed with it."""
        k1h = np.arange(-self.grid.N1, self.grid.N1 + 1) * self.grid.h
        log_pi3d = [3.0 * math.log(math.pi) + math.log(D) for D in Ds]
        step = self.max_columns
        parts = []
        for k0 in range(0, max(len(log_pi3d), 1), step):
            a_d = self.a[:, None] * np.exp(-1j * np.outer(k1h, log_pi3d[k0:k0 + step]))
            parts.append(_kernel_product(self.b, self.c, a_d, self.abs_rows.size))
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


@functools.lru_cache(maxsize=8)
def mellin_kernel(p: LanglandsParams, grid: MellinGrid2D) -> MellinKernel:
    """The kernel of (p, grid), built on first use and memoized (its
    arrays are read-only): O(N1 + N2) log-gamma evaluations and one real
    mat-vec for abs_rows."""
    h = grid.h
    n1, n2 = grid.N1, grid.N2
    s1, s2 = grid.sigma1, grid.sigma2
    k1 = np.arange(-n1, n1 + 1)
    la = np.zeros(k1.size, dtype=np.complex128)
    for d in p.triple:
        la += _gamma_product_log((s1 + d) / 2.0 + 1j * (k1 * h))
    m = np.arange(-(n1 + n2), n1 + n2 + 1)
    lb = np.zeros(m.size, dtype=np.complex128)
    for d in p.triple:
        lb += _gamma_product_log((s2 + 1j * (m * h) - d) / 2.0)
    v = np.arange(-(3 * n1 + n2), 3 * n1 + n2 + 1)
    lc = -_gamma_product_log((s1 + s2) / 2.0 + 1j * (v * h) / 2.0)
    peaks = [float(np.max(x.real)) for x in (la, lb, lc)]
    a, b, c = (np.exp(x - s) for x, s in zip((la, lb, lc), peaks))
    abs_rows = _kernel_product(np.abs(b), np.abs(c), np.abs(a), 2 * n2 + 1)
    for arr in (a, b, c, abs_rows):
        arr.setflags(write=False)
    return MellinKernel(grid=grid, a=a, b=b, c=c,
                        log_scale=sum(peaks), abs_rows=abs_rows)


@dataclass(frozen=True, eq=False)
class FixedDCache:
    """Precomputed inner gamma-factor sums for all Whittaker arguments
    sharing D = y1^2 y2.

    inner[j] holds the k1-sum for k2 = j - N2, all at the common scale
    exp(log_scale); inner_peak is max |inner| and inner_abs_peak the
    largest absolute k1-sum sum_i |a_i b_{i+j} c_{3i+j}| over j (the
    kernel's max abs_rows), both at that scale.  Immutable after
    construction; w_mellin_fixed_d only evaluates the outer k2-sums,
    O(N2) work per y2.
    """

    params: LanglandsParams
    D: float
    grid: MellinGrid2D
    inner: np.ndarray
    log_scale: float
    inner_peak: float
    inner_abs_peak: float
    y2_range: tuple[float, float] | None = None
    validation_residual: float | None = None

    def __post_init__(self):
        self.inner.setflags(write=False)

    @property
    def k2(self) -> np.ndarray:
        return np.arange(-self.grid.N2, self.grid.N2 + 1)

    @property
    def noise_log(self) -> float:
        """log of the roundoff floor of one outer sum before its y2
        prefactor, the sum of two terms:

        * every inner sum is off by at most (2 N1 + 1) u inner_abs_peak,
          the recursive-summation bound (Higham, Accuracy and Stability
          of Numerical Algorithms, ch. 4); at large D the inner sums
          cancel far below inner_abs_peak and this term dominates;
        * the outer sum adds ~u relative noise per entry, (2 N2 + 1) u
          inner_peak in all.

        u is _ROUNDOFF, which also covers the rounding of the products."""
        n1, n2 = self.grid.N1, self.grid.N2
        return self.log_scale + math.log(_ROUNDOFF * (
            (2 * n1 + 1) * self.inner_abs_peak + (2 * n2 + 1) * self.inner_peak))


def build_fixed_d_cache(p: LanglandsParams, D: float,
                        grid: MellinGrid2D | None = None,
                        eps: float = 1e-12,
                        validate: bool = True,
                        y2_range: tuple[float, float] | None = None,
                        inner: np.ndarray | None = None) -> FixedDCache:
    """Precompute the inner k1-sums of the discretized double Mellin
    transform for fixed D = y1^2 y2.

    The gamma factors live on three one-dimensional arrays
    indexed by k1, k1 + k2 and 3 k1 + k2 that do not depend on D; they
    are computed once per (p, grid) by mellin_kernel, so a build costs
    one blocked O(N1 N2) kernel product and no log-gamma evaluations.
    `inner`, when given, is the column mellin_kernel(p, grid).inner formed
    for this D together with others (the Maass assembly forms its columns
    in waves); the cache wraps it as data and forms no product.  When
    `validate` is set, the cache is compared against w_eval at the end
    points of y2_range, which must then be given, and the worst deviation
    relative to max(|W|, eps), eps being an absolute level in the scaled
    convention, is stored.
    """
    if not (D > 0.0) or not math.isfinite(D):
        raise ValueError(f"D must be positive and finite, got {D}")
    if validate and y2_range is None:
        raise ValueError("validate=True needs the y2_range to validate")
    if grid is None:
        grid = default_mellin_grid(p, eps)
    kernel = mellin_kernel(p, grid)
    if inner is None:
        inner = kernel.inner([D])[:, 0]
    elif inner.shape != kernel.abs_rows.shape:
        raise ValueError(f"inner must have shape {kernel.abs_rows.shape}, got {inner.shape}")
    cache = FixedDCache(params=p, D=float(D), grid=grid, inner=inner,
                        log_scale=kernel.log_scale,
                        inner_peak=float(np.max(np.abs(inner))),
                        inner_abs_peak=float(np.max(kernel.abs_rows)),
                        y2_range=y2_range)
    if validate:
        lo, hi = y2_range
        # deviation relative to max(|W|, eps): near the decay boundary the
        # outer sum is only absolutely accurate, which is what the Fourier
        # assembly needs there
        floor_log = math.log(eps)
        resid = 0.0
        got = w_mellin_fixed_d(cache, np.array([lo, hi]), _no_guard=True)
        for y2, w in zip((lo, hi), got):
            ref = w_eval(p, WhittakerArgs(math.sqrt(D / y2), y2))
            diff = (w - ref).log_abs()
            resid = max(resid, math.exp(diff - max(ref.log_abs(), floor_log)))
        cache = replace(cache, y2_range=(lo, hi), validation_residual=resid)
        if resid > 1e-2:
            log.warning("fixed-D cache validation residual %.2e at D=%g", resid, D)
    return cache


def _outer_prefactor_log(cache: FixedDCache, y2):
    grid = cache.grid
    log_pi3d = 3.0 * math.log(math.pi) + math.log(cache.D)
    return (0.5 * (1.0 - grid.sigma1) * log_pi3d
            + 0.5 * (1.0 - 2.0 * grid.sigma2 + grid.sigma1) * np.log(math.pi * y2)
            + math.log(grid.h * grid.h / (2.0 * math.pi ** 2)))


def mellin_outer_noise_log(cache: FixedDCache, y2):
    """log of the roundoff floor of w_mellin_fixed_d at y2 (a scalar or a
    1-D array), in the shared scaling convention: values below this level
    are indistinguishable from zero at binary64."""
    return (cache.noise_log + _outer_prefactor_log(cache, np.asarray(y2, dtype=float))
            + cache.params.scale_shift)


def w_mellin_fixed_d(cache: FixedDCache, y2, _no_guard: bool = False):
    """W(y1, y2) with y1 = sqrt(D / y2), from the cached inner sums.

    y2 is a scalar, giving one ScaledComplex, or a 1-D array, giving a
    list of them.  Only the outer sums against (pi y2)^(-i k2 h) are
    evaluated.  Their phases are factored at anchors every _PHASE_STEP = 32
    entries of k2, so a batch costs one (y2 x 32) @ (32 x anchors) product
    plus a row-wise dot with the anchor phases, and only (2 N2 + 1) / 32
    phases per y2 are formed.  Each factored phase carries a few u more
    rounding than a direct one; at the lift's grid the sums move by at
    most 4e-13 of max |inner|, below the floor's (2 N2 + 1) u max |inner|
    term (1.1e-12 of it).  Raises AccuracyRangeError for any y2 outside
    the cache's y2_range (always checked when the cache has one), and
    CancellationError when an outer sum loses the guard ratio against the
    inner sums or lies within e^2 of its roundoff floor
    (mellin_outer_noise_log).  _no_guard suppresses the CancellationError
    for callers that only need absolute accuracy near the decay boundary.
    """
    y2s = np.atleast_1d(np.asarray(y2, dtype=float))
    if y2s.ndim != 1:
        raise ValueError("y2 must be a scalar or a 1-D array")
    bad = ~((y2s > 0.0) & np.isfinite(y2s))
    if bad.any():
        raise ValueError(f"y2 must be positive and finite, got {y2s[bad][0]}")
    if cache.y2_range is not None:
        lo, hi = cache.y2_range
        outside = (y2s < lo * (1 - 1e-12)) | (y2s > hi * (1 + 1e-12))
        if outside.any():
            raise AccuracyRangeError(
                f"y2={y2s[outside][0]:g} outside the validated range [{lo:g}, "
                f"{hi:g}] of this cache")
    # e^{-i theta k2 h} = e^{-i theta k_a h} e^{-i theta r h} with anchors
    # k_a = -N2 + q _PHASE_STEP and steps 0 <= r < _PHASE_STEP, against the
    # inner sums laid out as steps[r, q] = inner[q _PHASE_STEP + r]
    log_py2 = np.log(math.pi * y2s)
    h = cache.grid.h
    n_anchors = -(-cache.inner.size // _PHASE_STEP)
    steps = np.zeros(n_anchors * _PHASE_STEP, dtype=np.complex128)
    steps[:cache.inner.size] = cache.inner
    steps = steps.reshape(n_anchors, _PHASE_STEP).T
    anchor_h = (np.arange(n_anchors) * _PHASE_STEP - cache.grid.N2) * h
    step_h = np.arange(_PHASE_STEP) * h
    totals = np.empty(y2s.size, dtype=np.complex128)
    for r0, r1 in _row_blocks(y2s.size, n_anchors + _PHASE_STEP):
        theta = log_py2[r0:r1, None]
        partial = np.exp(-1j * (theta * step_h)) @ steps
        totals[r0:r1] = np.einsum("yq,yq->y", partial, np.exp(-1j * (theta * anchor_h)))
    if not _no_guard:
        # the floor test also catches inner sums that cancelled to noise,
        # where max |inner| is noise itself and the ratio test passes
        mags = np.abs(totals)
        floor = math.exp(cache.noise_log - cache.log_scale + 2.0)
        lost = (mags < floor) | (cache.inner_peak > CANCELLATION_GUARD_RATIO * mags)
        if lost.any():
            raise CancellationError(
                f"outer sum at y2={y2s[lost][0]:g} exceeds the cancellation guard "
                "or lies within e^2 of its roundoff floor; "
                "increase working precision or use another algorithm")
    scale = cache.log_scale + cache.params.scale_shift
    values = [ScaledComplex(total, scale + pref) for total, pref
              in zip(totals.tolist(), _outer_prefactor_log(cache, y2s).tolist())]
    return values if np.ndim(y2) else values[0]


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

# the smaller argument routes to the small-argument series up to _SMALL_CUT
# and to the double-Bessel integral above it
_SMALL_CUT = 1.0

# the series route also needs y1*y2 <= _PRODUCT_CUT: the closed-form
# polynomial/Bessel combination loses roughly (pi y1 * 2 pi y2)^(2n/3)
# digits to internal cancellation, which at binary64 exceeds the guard
# ratio once the product grows past ~1.3
_PRODUCT_CUT = 1.3


def choose_algorithm(p: LanglandsParams, a: WhittakerArgs) -> tuple[str, bool]:
    """(algorithm, swapped): which route w_eval takes for these arguments.

    swapped means the conjugate-swap W(y1,y2) = conj(W(y2,y1)) is applied
    first so that the evaluated pair has y1 <= y2.
    """
    swapped = a.y1 > a.y2
    y_min = min(a.y1, a.y2)
    if p.is_degenerate():
        return "stade", swapped
    if y_min <= _SMALL_CUT and a.y1 * a.y2 <= _PRODUCT_CUT:
        return "smallarg", swapped
    return "stade", swapped


def w_eval(p: LanglandsParams, a: WhittakerArgs) -> ScaledComplex:
    """Dispatching evaluator: canonicalizes to y1 <= y2 via the conjugate
    swap, then uses the small-argument series when the smaller argument is
    at most _SMALL_CUT and y1*y2 at most _PRODUCT_CUT, and the integral
    algorithm otherwise (degenerate parameter triples always take the
    integral route).
    """
    if not isinstance(a, WhittakerArgs):
        a = WhittakerArgs(*a)
    algo, swapped = choose_algorithm(p, a)
    work = a.swapped if swapped else a
    if algo == "smallarg":
        try:
            val = w_series_small(p, work)
        except CancellationError:
            log.warning("series guard tripped at (%g, %g); falling back to "
                        "the integral algorithm", work.y1, work.y2)
            val = w_stade(p, work)
    else:
        val = w_stade(p, work)
    return val.conjugate() if swapped else val
