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

import bisect
import functools
import itertools
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import (CancellationError, DegenerateParametersError,
                     NonConvergenceError, AccuracyRangeError, PoleError)
from .langlands import LanglandsParams, permutations
from .quadrature import MellinGrid2D, QuadratureGrid, strip_error_log, strip_step
from .scaled import ScaledArray, ScaledComplex, scaled_sum
from .specfun import (bessel_k_pair_scaled, gamma_ratio, _bessel_k_table,
                      _log_gamma_array, _pole_distance)

__all__ = [
    "WhittakerArgs",
    "pq_build",
    "build_pq_table",
    "w_stade",
    "w_stade_report",
    "w_series_origin",
    "w_series_small",
    "MellinKernel",
    "mellin_kernel",
    "FixedDCache",
    "default_mellin_grid",
    "default_stade_grid",
    "build_fixed_d_cache",
    "w_mellin_fixed_d",
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

# the power series' term cap (the origin series' diagonal cap is three times
# it) and stop tolerance, relative to the largest partial sum
_SERIES_NMAX = 60
_SERIES_EPS = 1e-14

# P/Q rows w_series_small evaluates at a time: its series stop near n = 11-18
_PQ_ROWS = 16


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


def _require_nondegenerate(p: LanglandsParams):
    if p.is_degenerate():
        raise DegenerateParametersError(
            f"spectral parameters ({p.r_alpha:g}, {p.r_beta:g}, {p.r_gamma:g}) "
            "contain a coinciding pair; series coefficients hit gamma poles")


# ---------------------------------------------------------------------------
# Algorithm 1: double K-Bessel integral
# ---------------------------------------------------------------------------

def _k_log_magnitude(m: float, x: float) -> float:
    """Cheap log|K_{im}(x)| estimate from the saddle of the cosh integral."""
    if x >= m:
        return -math.sqrt(x * x - m * m) - m * math.asin(m / x)
    return -0.5 * math.pi * m


# w_stade's discretization error and dropped tails, relative to int |f| and to the peak;
# _STADE_NOISE, two K factors' error (one's: < _STADE_NOISE / 2, test_k_table_against_mpmath)
_STADE_EPS = 1e-16
_STADE_NOISE = 1e-13


def _stade_strip(p: LanglandsParams, y1: float, y2: float) -> tuple[float, float]:
    """(half-width a <= pi/2, log growth of int |f| at |Im u| < a) for
    w_stade's integrand: 3 |gamma| a/4 from the phase, m a/2 from K_{im},
    (3 sqrt(2) pi/8) sqrt(y1 y2) a^2 from the peak (README)."""
    m = abs(((p.triple[0] - p.triple[1]) / 2.0).imag)
    c1 = 0.75 * abs(p.r_gamma) + 0.5 * m
    c2 = 3.0 * math.sqrt(2.0) * math.pi / 8.0 * math.sqrt(y1 * y2)
    half = min(0.5 * math.pi, math.sqrt(math.log(2.0 / _STADE_EPS) / c2))
    return half, c1 * half + c2 * half * half


def default_stade_grid(p: LanglandsParams, a: WhittakerArgs | None = None) -> QuadratureGrid:
    """w_stade's grid; N caps the node range w_stade fixes per evaluation.
    With the arguments, the step is strip_step's for _stade_strip at
    _STADE_EPS: a discretization error of at most 1e-16 of int |f| du,
    0.19-0.25 for small arguments and 0.4 (y1 y2)^(-1/4) for large ones.
    Without them it is min(1/16, pi/(5 (1 + 3 |gamma|/4)))."""
    if a is None:
        return QuadratureGrid(h=min(1.0 / 16.0, math.pi / (5.0 * (1.0 + 0.75 * abs(p.r_gamma)))),
                              N=20000)
    return QuadratureGrid(h=strip_step(*_stade_strip(p, a.y1, a.y2), _STADE_EPS)[0], N=20000)


def _stade_half_width(m: float, y1: float, y2: float, h: float, cap: int) -> int:
    """w_stade's half-width in steps h at (y1, y2); NonConvergenceError past cap."""
    u0 = math.log(y2) - math.log(y1)

    def log_node(v: float) -> float:
        """Estimated log|integrand| at u0 + v; past |u| = 700 it is below any floor."""
        u = u0 + v
        return (_k_log_magnitude(m, TWO_PI * y1 * math.sqrt(1.0 + math.exp(min(u, 700.0))))
                + _k_log_magnitude(m, TWO_PI * y2 * math.sqrt(1.0 + math.exp(min(-u, 700.0)))))

    # |K| can vanish at an oscillation zero, so the peak is probed at a few
    # points; the floor is below log_node(0), so on each side the nodes
    # below it form one tail.  Since log|K| <= -x, log_node(v) <= -x1 for
    # v > 0 and -x2 for v < 0, and both pass the floor by |v| = 2 log(-floor
    # / (2 pi sqrt(y1 y2))): the tails start within that reach
    floor = max(log_node(s) for s in (-2.0, -1.0, 0.0, 1.0, 2.0)) + math.log(_STADE_EPS)
    reach = 2.0 * (math.log(-floor / TWO_PI) - 0.5 * (math.log(y1) + math.log(y2)))
    last = math.ceil(min(reach / h + 1.0, cap))
    n = 1 + max(bisect.bisect_left(range(1, last + 1), True,
                                   key=lambda k: log_node(side * k * h) < floor)
                for side in (-1.0, 1.0))
    if n > cap:
        raise NonConvergenceError(
            f"double-Bessel integrand at ({y1:g}, {y2:g}) does not fall below "
            f"its floor within N={cap} steps of h={h:g}")
    return n


def w_stade(p: LanglandsParams, a, grid: QuadratureGrid | None = None):
    """W(y1,y2) from the double K-Bessel integral

        4 (2 pi y1)^(1-g/2) (2 pi y2)^(1+g/2)
          * int_R K_mu(2 pi y1 sqrt(1+e^u)) K_mu(2 pi y2 sqrt(1+e^-u))
                  e^(-3 g u / 4) du,

    mu = (alpha-beta)/2, by the trapezoid rule on grid (default:
    default_stade_grid(p, a)) recentred at u0 = log(y2) - log(y1).  A WhittakerArgs
    a gives a ScaledComplex; 1-D (y1, y2) arrays give a ScaledArray with each
    point's bits: all nodes take one array pass and one read of the order's K
    table, and the reductions run per point.  The swap negates u0 and the imaginary
    part of the prefactor's log exactly, so w_stade(p, a.swapped) is the
    bitwise conjugate of w_stade(p, a).  The estimated log|f| is concave in u, so
    each side stops _STADE_EPS below the peak, fixed before sampling;
    NonConvergenceError names the first point past grid.N.  The stated error
    (w_stade_report) is int |f| du times the prefactor times
    (e^strip_error_log at the grid's step + _STADE_EPS + _STADE_NOISE +
    _ROUNDOFF times the |f|-weighted mean of x1 + x2, since K's condition
    number ~x amplifies the rounding of x).
    """
    return w_stade_report(p, a, grid)[0]


def w_stade_report(p: LanglandsParams, a, grid: QuadratureGrid | None = None):
    """(w_stade's value, log of its stated absolute error in the same scaled units,
    the grid summed with N the half-width used); for point arrays, (ScaledArray,
    error logs, half-widths) at grid.h or each point's default step.  A stated error
    above 1e-6 of |W| is logged as a warning; the usual cause is the e^(-3 g u/4)
    phase cancelling the integral far below int |f| du."""
    one = isinstance(a, WhittakerArgs)
    if one:
        y1s, y2s = [a.y1], [a.y2]
    else:
        ys = np.asarray(a, dtype=float)
        if ys.ndim != 2 or len(ys) != 2 or not ((ys > 0.0) & (ys < math.inf)).all():
            raise ValueError("points must be two 1-D arrays (y1, y2), positive and finite")
        if not ys.size:
            return ScaledArray(np.zeros(0, complex), np.zeros(0)), np.zeros(0), np.zeros(0, int)
        y1s, y2s = ys.tolist()
    alpha, beta, g = p.triple
    m = abs(((alpha - beta) / 2.0).imag)
    strips = [_stade_strip(p, y1, y2) for y1, y2 in zip(y1s, y2s)]
    hs = [strip_step(*s, _STADE_EPS)[0] if grid is None else grid.h for s in strips]
    cap = (grid or default_stade_grid(p)).N
    ns = [_stade_half_width(m, y1, y2, h, cap) for y1, y2, h in zip(y1s, y2s, hs)]

    # the nodes k h, k = -n..n, of every point in one array, at u = u0 + k h
    sizes = [2 * n + 1 for n in ns]
    bounds = list(itertools.accumulate(sizes, initial=0))
    centre, h_, u0, y1_, y2_ = np.array([
        (b + n, h, math.log(y2) - math.log(y1), TWO_PI * y1, TWO_PI * y2)
        for b, n, h, y1, y2 in zip(bounds, ns, hs, y1s, y2s)]).repeat(sizes, axis=0).T
    u = (np.arange(bounds[-1]) - centre) * h_ + u0
    # x1 = 2 pi y1 sqrt(1+e^u), x2 = 2 pi y2 sqrt(1+e^-u), with the
    # growing factor e^{|u|/2} split off so nothing overflows
    ahead = u >= 0.0
    root = np.sqrt(1.0 + np.exp(-np.abs(u)))
    grow = np.exp(0.5 * np.abs(u))
    x1 = y1_ * np.where(ahead, grow, 1.0) * root
    x2 = y2_ * np.where(ahead, 1.0, grow) * root
    # both factors from one read of the order's K table (values by x alone)
    kx, sx = _bessel_k_table(m).read(np.concatenate([x1, x2]))
    phase = -0.75j * p.r_gamma * u
    f = kx[:u.size] * kx[u.size:] * np.exp(1j * phase.imag)
    f_scale = sx[:u.size] + sx[u.size:] + phase.real
    nonzero = f != 0
    with np.errstate(divide="ignore"):  # a zero node has log -inf
        la = np.log(np.abs(f)) + f_scale
    # per point: the peak of log|f|, and the scale of its largest nonzero
    # node, at which its nodes are summed exactly rounded (ScaledArray.sum)
    peaks, tops = np.maximum.reduceat([la, np.where(nonzero, f_scale, -np.inf)], bounds[:-1], 1)
    peak_at, top_at = np.array([peaks, tops]).repeat(sizes, axis=1)
    w = np.exp(la - peak_at)
    xs = x1 + x2
    d = f_scale - top_at
    keep = nonzero & (d >= -800.0)
    node = f[keep] * np.exp(d[keep])
    re, im = node.real.tolist(), node.imag.tolist()
    cuts = [0, *itertools.accumulate(np.add.reduceat(keep, bounds[:-1], dtype=int).tolist())]

    values, err_logs = [], []
    for i, (y1, y2, h, peak, top) in enumerate(zip(y1s, y2s, hs, peaks.tolist(), tops.tolist())):
        lo, hi, c0, c1 = bounds[i], bounds[i + 1], cuts[i], cuts[i + 1]
        total = w[lo:hi].sum()
        x_mean = float(w[lo:hi] @ xs[lo:hi] / total)
        node_sum = (ScaledComplex(complex(math.fsum(re[c0:c1]), math.fsum(im[c0:c1])), top)
                    if c1 > c0 else ScaledComplex.zero())
        ly1, ly2 = math.log(TWO_PI * y1), math.log(TWO_PI * y2)
        pref = ScaledComplex.from_log(math.log(4.0) + (ly1 + ly2) - (g / 2.0) * (ly1 - ly2))
        rel_err = (math.exp(strip_error_log(*strips[i], h)) + _STADE_EPS
                   + _STADE_NOISE + _ROUNDOFF * x_mean)
        err_logs.append(math.log(rel_err) + (peak + math.log(h * total)) + pref.log_abs()
                        + p.scale_shift)
        values.append((node_sum * h * pref).scaled_by(p.scale_shift))
        rel_log = err_logs[-1] - values[-1].log_abs()
        if rel_log > math.log(1e-6):
            log.warning(
                "oscillation cancellation in the double-Bessel integral at "
                "(%g, %g): stated error %.1e of |W|; prefer the series "
                "algorithms here", y1, y2, math.exp(rel_log))
    if one:
        grid = QuadratureGrid(h=hs[0], N=ns[0]) if grid is None else replace(grid, N=ns[0])
        return values[0], err_logs[0], grid
    return (ScaledArray(np.array([v.mantissa for v in values], dtype=complex),
                        np.array([v.log_scale for v in values])), np.array(err_logs), np.array(ns))


# ---------------------------------------------------------------------------
# Algorithm 2: double power series around the origin
# ---------------------------------------------------------------------------

def w_series_origin(p: LanglandsParams, a: WhittakerArgs) -> ScaledComplex:
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
    _require_nondegenerate(p)
    y1, y2 = a.y1, a.y2
    big_y1 = (math.pi * y1) ** 2
    big_y2 = (math.pi * y2) ** 2
    s_cap = 3 * _SERIES_NMAX

    totals: list[ScaledComplex] = []
    max_term_log = -math.inf
    for (d1, d2, d3) in permutations(p):
        q = 1.0 + (d1 - d2) / 2.0
        pm = 1.0 + (d3 - d2) / 2.0   # second m-Pochhammer base
        pn = 1.0 + (d1 - d3) / 2.0   # second n-Pochhammer base
        pref = gamma_ratio([(d2 - d3) / 2.0, (d2 - d1) / 2.0, (d3 - d1) / 2.0])
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
            # past binary64 range the product is inf or nan, and raises below
            with np.errstate(over="ignore", invalid="ignore"):
                diag = w_s * np.dot(u, v[::-1])
            if not np.isfinite(diag):
                raise CancellationError("origin series coefficients left binary64 range")
            acc += diag
            acc_mag = max(acc_mag, abs(acc))
            mag = abs(diag)
            max_term_log = max(max_term_log, pref.log_abs() + (math.log(mag) if mag > 0 else -math.inf))
            if mag < _SERIES_EPS * max(acc_mag, 1e-300):
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


@functools.lru_cache(maxsize=8)
def build_pq_table(p: LanglandsParams) -> tuple[np.ndarray, np.ndarray]:
    """The P and Q tables of the small-argument series (see pq_build), one
    slice per leading parameter in the cyclic order alpha, beta, gamma,
    with _SERIES_NMAX + 1 rows.

    Memoized per p, at most 8 entries (about 0.7 MB each); the arrays are
    read-only, since every caller shares them."""
    tables = pq_build(_cyclic_triples(p), _SERIES_NMAX)
    for arr in tables:
        arr.setflags(write=False)
    return tables


def _pq_values(p_coeffs: np.ndarray, q_coeffs: np.ndarray, y: float,
               lo: int = 0, hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """P_n(y) and Q_n(y) for the rows lo <= n < hi (default: all) of the
    two tables, from one Horner pass over the columns k <= 2 (hi - 1):
    deg P_n <= 2n, so the later columns of these rows are zero, and
    skipping them leaves every row the bits
    `np.polynomial.polynomial.polyval` gives it."""
    hi = p_coeffs.shape[1] if hi is None else min(hi, p_coeffs.shape[1])
    cols = 2 * hi - 1
    rows = np.stack((p_coeffs[:, lo:hi, :cols], q_coeffs[:, lo:hi, :cols]))
    acc = np.zeros(rows.shape[:-1], dtype=np.complex128)
    # high rows overflow at large y; w_series_small never sums them
    with np.errstate(over="ignore", invalid="ignore"):
        for column in np.moveaxis(rows, -1, 0)[::-1]:
            acc = acc * y + column
    return acc[0], acc[1]


@functools.lru_cache(maxsize=8)
def _series_plan(p: LanglandsParams) -> tuple[tuple, np.ndarray]:
    """The y-free parts of w_series_small, memoized per p: per cyclic
    triple (d1, d2, d3), d1, the K order (d2 - d3)/2 and the prefactor
    Gamma((d2-d1)/2) Gamma((d3-d1)/2), and the read-only rows of
    coefficient denominators 2 (k+1) (q12+k) (q13+k), k < _SERIES_NMAX."""
    triples = _cyclic_triples(p)
    log_gammas = _log_gamma_array(np.array([((d2 - d1) / 2.0, (d3 - d1) / 2.0)
                                            for d1, d2, d3 in triples]))
    k = np.arange(_SERIES_NMAX)
    denoms = np.array([2.0 * (k + 1.0) * (1.0 + (d1 - d2) / 2.0 + k) * (1.0 + (d1 - d3) / 2.0 + k)
                       for d1, d2, d3 in triples])
    denoms.setflags(write=False)
    return tuple((d1, (d2 - d3) / 2.0, ScaledComplex.from_log(complex(lg[0] + lg[1])))
                 for (d1, d2, d3), lg in zip(triples, log_gammas)), denoms


@functools.lru_cache(maxsize=256)
def _series_y2_half(p: LanglandsParams, y2: float) -> tuple:
    """The y2 half of w_series_small, memoized per (p, y2): the K/K'
    columns at per-slice log scales, from one pair per distinct |mu|, and
    the P/Q values at y2 by row count, which _memo_rows fills.  At most 256
    entries of 2-15 KB (all 61 rows read); the arrays are read-only."""
    slices, _ = _series_plan(p)
    # one K/K' pair per order |mu| (K is even in mu): LIFT's r, r, 2r take two
    orders = {abs(mu): mu for _, mu, _ in slices}
    pairs = {m: bessel_k_pair_scaled(mu, TWO_PI * y2) for m, mu in orders.items()}
    ks = [pairs[abs(mu)] for _, mu, _ in slices]
    scales = tuple(max(kv.log_scale, kp.log_scale) for kv, kp in ks)
    kv_f, kp_f = (np.array([[v.mantissa * math.exp(v.log_scale - s)] for v, s in zip(vs, scales)])
                  for vs in zip(*ks))
    kv_f.setflags(write=False)
    kp_f.setflags(write=False)
    return kv_f, kp_f, scales, {}


def _memo_rows(pq_rows: dict, tables, y2: float, rows: int) -> tuple:
    """P_n(y2), Q_n(y2) for n < rows + _PQ_ROWS: the memoized first rows
    and one more Horner block, stored read-only under rows."""
    vals = pq_rows.get(rows)
    if vals is None:
        vals = _pq_values(*tables, y2, rows, rows + _PQ_ROWS)
        if rows:
            vals = tuple(np.concatenate(v, axis=1) for v in zip(pq_rows[rows - _PQ_ROWS], vals))
        for arr in vals:
            arr.setflags(write=False)
        vals = pq_rows.setdefault(rows, vals)
    return vals


def w_series_small(p: LanglandsParams, a: WhittakerArgs) -> ScaledComplex:
    """W(y1,y2) as three single-variable power series in (pi y1)^2, one per
    leading parameter d1:

        2 (pi y1)^(1+d1) Gamma((d2-d1)/2) Gamma((d3-d1)/2) (pi y2)^(1+d1/2)
          * sum_n [ P_n(y2) K_mu(2 pi y2) + 2 pi y2 Q_n(y2) K_mu'(2 pi y2) ]
                  (pi y1)^(2n) / [ (1+(d1-d2)/2)_n (1+(d1-d3)/2)_n 2^n n! ]

    with mu = (d2-d3)/2.  Costs one K/K' pair (bessel_k_pair_scaled) per
    distinct (|mu|, y2), Horner passes over the P/Q rows the series reach,
    _PQ_ROWS rows at a time, and the n-series arithmetic, with the three
    series summed as one (3, rows) array.  The tables come from
    build_pq_table and the y-free factors from _series_plan; both are
    built on the first call per params and memoized after that.
    The K pairs and P/Q values at y2 come from _series_y2_half, memoized
    per (params, exact y2), at most 256 entries, so a repeated y2
    costs only the y1 work.  Intended for small y1 (the dispatcher swaps
    arguments first when y1 > y2).

    Each n-series is summed in complex128 at the larger log scale of its
    K and K'.  It stops once three consecutive terms (n >= 2) lie below
    _SERIES_EPS times the largest partial sum so far, by n = _SERIES_NMAX
    at most; a term or partial sum that leaves binary64 range before that
    raises CancellationError.
    """
    _require_nondegenerate(p)
    y1, y2 = a.y1, a.y2
    x2 = TWO_PI * y2
    slices, denoms = _series_plan(p)
    tables = build_pq_table(p)
    kv_f, kp_f, scales, pq_rows = _series_y2_half(p, y2)
    with np.errstate(over="ignore", invalid="ignore"):
        # (pi y1)^(2n) / ((q12)_n (q13)_n 2^n n!)
        coef = np.ones((len(slices), _SERIES_NMAX + 1), dtype=np.complex128)
        coef[:, 1:] = np.cumprod((math.pi * y1) ** 2 / denoms, axis=1)
        # the three series over the rows evaluated so far; _PQ_ROWS more
        # rows until every series stops or the tables run out
        rows = 0
        while True:
            p_vals, q_vals = _memo_rows(pq_rows, tables, y2, rows)
            rows = p_vals.shape[1]
            kv_part = kv_f * p_vals
            kp_part = kp_f * (x2 * q_vals)
            terms = coef[:, :rows] * (kv_part + kp_part)
            partial = np.cumsum(terms, axis=1)
            small = np.abs(terms) < _SERIES_EPS * np.maximum.accumulate(np.abs(partial), axis=1)
            # the first n >= 2 ending a run of three small terms, before
            # any non-finite partial sum
            reached = np.logical_and.accumulate(np.isfinite(partial), axis=1)
            ends = small[:, 2:] & small[:, 1:-1] & small[:, :-2] & reached[:, 2:]
            if ends.any(axis=1).all() or rows > _SERIES_NMAX:
                break
        # the two products of a term can cancel inside it, so the guard
        # sees the larger product, not the term
        products = np.abs(coef[:, :rows]) * np.maximum(np.abs(kv_part), np.abs(kp_part))

    totals: list[ScaledComplex] = []
    max_term_log = -math.inf
    for j, (d1, _, pref) in enumerate(slices):
        stops = np.flatnonzero(ends[j])
        if stops.size == 0:
            if not reached[j, -1]:
                raise CancellationError(
                    "small-argument series terms left binary64 range")
            raise NonConvergenceError(
                f"small-argument series did not converge within nmax={_SERIES_NMAX}")
        stop = int(stops[0]) + 2
        pref = pref * ScaledComplex.from_log((1.0 + d1) * math.log(math.pi * y1)
                                             + (1.0 + d1 / 2.0) * math.log(math.pi * y2))
        pref = pref * _CONTOUR_WEIGHT
        max_term_log = max(max_term_log,
                           pref.log_abs() + scales[j] + math.log(float(products[j, :stop + 1].max())))
        totals.append(pref * ScaledComplex(complex(partial[j, stop]), scales[j]))

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
# sums (no bits depend on it there); one block of B * C (4 MiB) is the
# largest single temporary
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

# margin of the Mellin step rule: a log(pi^3 D) = 11 at D = 2e3, plus 14
_ALIAS_MARGIN = 25.0


def default_mellin_grid(p: LanglandsParams, eps: float = 1e-12) -> MellinGrid2D:
    """The grid whose aliasing error is eps (0 < eps < 1) of the kernel's term
    scale (MellinKernel.discretization_log).  The trapezoid rule aliases at
    e^{-2 pi a / h} on an integrand analytic in |Im t| < a (Trefethen &
    Weideman, SIAM Review 2014), a = min(sigma1 / 2, sigma2) from the gamma
    poles, times e^{a |log(pi^3 D)|} from the k1-phases: so h = 2 pi a /
    (log(1/eps) + _ALIAS_MARGIN), with no |p| term.  The half-widths t follow
    the gamma tails (3 pi/2, pi/2 per unit) plus the plateau; N = ceil(t / h)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie strictly between 0 and 1, got {eps}")
    sigma1 = sigma2 = 2.0
    h = TWO_PI * min(sigma1 / 2.0, sigma2) / (_ALIAS_MARGIN - math.log(eps))
    tau = -math.log(eps) + 14.0
    t1 = tau / math.pi + 0.5 * p.sup_norm + 6.0
    t2 = 2.0 * tau / math.pi + p.sup_norm + 10.0
    return MellinGrid2D(h=h, sigma1=sigma1, sigma2=sigma2,
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
                    out: np.ndarray) -> np.ndarray:
    """(B * C) @ x into out, with B[j, i] = b[i + j] and C[j, i] = c[3 i + j]
    for the rows 0 <= j < len(out), x a vector or a matrix of columns.

    B and C are zero-copy stride views; their elementwise product is
    formed one row block at a time, once for all columns of x, so the
    dense matrix never exists.
    """
    width, n_rows = x.shape[0], out.shape[0]
    bm = sliding_window_view(b, width)[:n_rows]
    step = c.strides[0]
    cm = as_strided(c, shape=(n_rows, width), strides=(step, 3 * step),
                    writeable=False)
    for j0, j1 in _row_blocks(n_rows, width):
        out[j0:j1] = (bm[j0:j1] * cm[j0:j1]) @ x
    return out


@dataclass(frozen=True, eq=False)
class MellinKernel:
    """The D-independent part of every fixed-D cache on one (params, grid),
    which each FixedDCache holds as its kernel.

    With i = k1 + N1 and j = k2 + N2, the inner sum at D is

        inner_D[j] = sum_i a[i] e^{-i k1 h log(pi^3 D)} b[i + j] c[3 i + j]

    where a runs over k1, b over m = k1 + k2 and c over v = 3 k1 + k2; each
    array holds its gamma factors divided by their largest magnitude, and
    log_scale is the sum of the three divisors' logs.  D enters only
    through the phase, so the inner sums of several D are one product
    (B * C) @ A, A holding one phased copy of a per D: each row block of
    B * C is formed once for all of them.  abs_rows[j] =
    sum_i |a_i| |b_{i+j}| |c_{3i+j}| bounds the terms of inner_D[j] for
    every D and so sets the scale of its roundoff; abs_peak = max abs_rows.
    A self-dual triple has conjugate-symmetric a, b and c, and so
    inner_D[-k2] = conj(inner_D[k2]) for every D.
    """

    params: LanglandsParams
    grid: MellinGrid2D
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    log_scale: float
    abs_rows: np.ndarray
    abs_peak: float
    self_dual: bool

    @property
    def max_columns(self) -> int:
        """The most D one product forms: its temporaries, one row block
        plus the phased a columns and the output columns, stay within
        _PRODUCT_BYTES."""
        per_column = 16 * (self.a.size + self.abs_rows.size)
        return max(1, (_PRODUCT_BYTES - 16 * _BLOCK_ELEMS) // per_column)

    @property
    def discretization_log(self) -> float:
        """log of the predicted aliasing error of one outer sum before its y2
        prefactor, as noise_log: default_mellin_grid's step rule inverted."""
        a = min(self.grid.sigma1 / 2.0, self.grid.sigma2)
        return self.log_scale + math.log(self.abs_peak) + _ALIAS_MARGIN - TWO_PI * a / self.grid.h

    @functools.cached_property
    def outer_phase_h(self) -> tuple[np.ndarray, np.ndarray]:
        """(r h, k_a h) of the outer phases: the steps 0 <= r < _PHASE_STEP
        and the anchors k_a = k0 + q _PHASE_STEP, one per _PHASE_STEP k2 from
        k0 = -N2, or from k0 = 0 for a self-dual kernel's folded sums."""
        k0 = 0 if self.self_dual else -self.grid.N2
        n_anchors = -(-(self.grid.N2 + 1 - k0) // _PHASE_STEP)
        return (np.arange(_PHASE_STEP) * self.grid.h,
                (np.arange(n_anchors) * _PHASE_STEP + k0) * self.grid.h)

    def prefactor_log(self, log_pi3d, log_py2):
        """log of the outer sums' y2 prefactor at log(pi^3 D) and
        log(pi y2), scalars or arrays; linear in both."""
        g = self.grid
        return (0.5 * (1.0 - g.sigma1) * log_pi3d + 0.5 * (1 - 2 * g.sigma2 + g.sigma1) * log_py2
                + math.log(g.h * g.h / (2.0 * math.pi ** 2)))

    @functools.cached_property
    def _value_scale(self) -> float:  # W = outer sum * prefactor * e^_value_scale
        return self.log_scale + self.params.scale_shift

    def column_bound(self, D: float, column: np.ndarray, y2_range: tuple[float, float]) -> float:
        """A bound on log|W| over y2_range from D's column of inner sums:
        as every outer-sum phase has modulus 1, log sum |column| plus the
        prefactor, largest at an end of the range, plus _value_scale."""
        log_pi3d = 3.0 * math.log(math.pi) + math.log(D)
        return float(self._value_scale + np.log(np.abs(column).sum())
                     + max(self.prefactor_log(log_pi3d, math.log(math.pi * y)) for y in y2_range))

    def inner(self, Ds: Sequence[float]) -> np.ndarray:
        """inner_D for every D of Ds, as the columns of a
        (2 N2 + 1, len(Ds)) array, all entries at the common scale
        exp(log_scale).  The columns are formed max_columns at a time, one
        kernel product each; a column's last bits may depend on the other
        D formed with it and on the BLAS thread count.  A self-dual
        kernel's products form the rows k2 >= 0 only: the row k2 = 0 is
        made real and the rows k2 < 0 are the conjugates of the rows -k2."""
        n2 = self.grid.N2
        first = n2 if self.self_dual else 0  # the first row a product forms
        k1h = np.arange(-self.grid.N1, self.grid.N1 + 1) * self.grid.h
        log_pi3d = [3.0 * math.log(math.pi) + math.log(D) for D in Ds]
        step = self.max_columns
        out = np.empty((2 * n2 + 1, len(log_pi3d)), dtype=np.complex128)
        for k0 in range(0, len(log_pi3d), step):
            a_d = self.a[:, None] * np.exp(-1j * np.outer(k1h, log_pi3d[k0:k0 + step]))
            _kernel_product(self.b[first:], self.c[first:], a_d, out[first:, k0:k0 + step])
        if first:
            out[n2] = out[n2].real
            np.conjugate(out[:n2:-1], out=out[:n2])
        return out


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
    abs_rows = _kernel_product(np.abs(b), np.abs(c), np.abs(a), np.empty(2 * n2 + 1))
    for arr in (a, b, c, abs_rows):
        arr.setflags(write=False)
    return MellinKernel(params=p, grid=grid, a=a, b=b, c=c, log_scale=sum(peaks), abs_rows=abs_rows,
                        abs_peak=float(np.max(abs_rows)), self_dual=p.is_self_dual())


@dataclass(frozen=True, eq=False)
class FixedDCache:
    """The inner k1-sums of one D = y1^2 y2, on the kernel that owns every
    D-independent fact (params, grid, log_scale, abs_peak).

    inner[j] is the sum for k2 = j - N2 at the scale exp(kernel.log_scale),
    and inner_peak is max |inner| at that scale.  y2_range is set exactly
    when the cache was validated, and validation_residual with it.
    Immutable; w_mellin_fixed_d evaluates only the outer k2-sums, O(N2)
    work per y2; inner is a read-only view of its padded layout, inner.base,
    padded in front for a self-dual kernel so that k2 = 0 starts a block.
    """

    kernel: MellinKernel
    D: float
    inner: np.ndarray
    inner_peak: float
    y2_range: tuple[float, float] | None = None
    validation_residual: float | None = None

    def __post_init__(self):
        front = -self.kernel.grid.N2 % _PHASE_STEP if self.kernel.self_dual else 0
        n = front + self.inner.size
        layout = np.zeros(-(-n // _PHASE_STEP) * _PHASE_STEP, dtype=np.complex128)
        layout[front:n] = self.inner
        layout.setflags(write=False)
        object.__setattr__(self, "inner", layout[front:n])

    @property
    def grid(self) -> MellinGrid2D:
        return self.kernel.grid

    @property
    def noise_log(self) -> float:
        """log of the roundoff floor of one outer sum before its y2
        prefactor, the sum of two terms:

        * every inner sum is off by at most (2 N1 + 1) u kernel.abs_peak,
          the recursive-summation bound (Higham, Accuracy and Stability
          of Numerical Algorithms, ch. 4); at large D the inner sums
          cancel far below kernel.abs_peak and this term dominates; it
          counts twice in a self-dual kernel's folded sum (rows k2, -k2);
        * the outer sum adds ~u relative noise per entry, (2 N2 + 1) u
          inner_peak in all.

        u is _ROUNDOFF, which also covers the rounding of the products."""
        k = self.kernel
        return k.log_scale + math.log(_ROUNDOFF * ((1 + k.self_dual) * (2 * k.grid.N1 + 1) * k.abs_peak
                                                   + (2 * k.grid.N2 + 1) * self.inner_peak))


def build_fixed_d_cache(p: LanglandsParams, D: float,
                        grid: MellinGrid2D | None = None,
                        eps: float = 1e-12,
                        y2_range: tuple[float, float] | None = None,
                        inner: np.ndarray | None = None) -> FixedDCache:
    """The fixed-D cache of D = y1^2 y2 on mellin_kernel(p, grid).

    A build costs one blocked O(N1 N2) kernel product and no log-gamma
    evaluations.  `inner`, when given, is this D's column of a multi-D
    kernel product (the Maass assembly forms its columns in waves); the
    cache wraps it and forms no product.  The cache is validated exactly
    when y2_range (0 < lo <= hi < inf) is given: one batch query at its
    distinct ends against w_eval, whose worst deviation relative to
    max(|W|, eps) is stored; eps is an absolute level in the scaled
    convention and may exceed 1.
    """
    if not (D > 0.0) or not math.isfinite(D):
        raise ValueError(f"D must be positive and finite, got {D}")
    if not (eps > 0.0) or not math.isfinite(eps):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if y2_range is not None and not (0.0 < y2_range[0] <= y2_range[1] < math.inf):
        raise ValueError(f"y2_range must satisfy 0 < lo <= hi < inf, got {y2_range}")
    if grid is None:
        grid = default_mellin_grid(p, eps)
    kernel = mellin_kernel(p, grid)
    if inner is None:
        inner = kernel.inner([D])[:, 0]
    elif inner.shape != kernel.abs_rows.shape:
        raise ValueError(f"inner must have shape {kernel.abs_rows.shape}, got {inner.shape}")
    cache = FixedDCache(kernel=kernel, D=float(D), inner=inner,
                        inner_peak=float(np.max(np.abs(inner))), y2_range=y2_range)
    if y2_range is None:
        return cache
    lo, hi = y2_range
    # deviation relative to max(|W|, eps): near the decay boundary the
    # outer sum is only absolutely accurate, which is what the Fourier
    # assembly needs there
    floor_log = math.log(eps)
    resid = 0.0
    # the distinct ends without np.unique, which imports numpy.ma (~15 ms)
    ends = np.array([lo] if lo == hi else [lo, hi])
    values = w_mellin_fixed_d(cache, ends)[0]
    for i, y2 in enumerate(ends.tolist()):
        ref = w_eval(p, WhittakerArgs(math.sqrt(D / y2), y2))
        diff = (values.item(i) - ref).log_abs()
        resid = max(resid, math.exp(diff - max(ref.log_abs(), floor_log)))
    if resid > 1e-2:
        log.warning("fixed-D cache validation residual %.2e at D=%g", resid, D)
    return replace(cache, y2_range=(lo, hi), validation_residual=resid)


def w_mellin_fixed_d(cache, y2):
    """W(y1, y2) with y1 = sqrt(D / y2), from the cached inner sums.

    An array call, a 1-D y2 on one cache or one 1-D y2 per cache of a
    sequence on one kernel, gives (values, floor_logs): one ScaledArray in
    the caches' order and the log roundoff floors in the shared scaling
    convention; it never raises CancellationError, and the caller drops
    what it cannot resolve.  A scalar y2 on one cache is the one-row array
    call: it gives that row's ScaledComplex and raises CancellationError
    when the outer sum loses the guard ratio against the inner sums or
    lies below its floor + 2, the rule by which the Maass walk drops a
    term.  All raise ValueError for a y2 that is not positive and finite,
    and AccuracyRangeError naming the D for a y2 outside its y2_range.
    The outer sums' phases are factored at anchors every _PHASE_STEP = 32
    entries of k2: 32 + (2 N2 + 1) / 32 phases per y2, then one (anchors
    x 32) mat-vec against its cache's padded inner sums and a dot with the
    anchor phases.  All of it is per row, so a value's bits depend only on
    its cache and y2, not on the rest of the call, the row blocks or the
    BLAS threads.  Factored phases move the sums by at most 9.3e-14 of
    max |inner| at the lift's grid, below the floor's (2 N2 + 1) u max
    |inner| term (2.5e-13 of it).  A self-dual kernel's sums fold to the
    exactly real 2 Re sum_{k2 >= 0} w_k2 inner[k2] e^{-i theta k2 h}, w_0 = 1/2.
    """
    one = isinstance(cache, FixedDCache)
    caches = [cache] if one else list(cache)
    point = one and np.ndim(y2) == 0
    arrays = ([np.atleast_1d(np.asarray(y2, dtype=float))] if one
              else [np.asarray(ys, dtype=float) for ys in y2])
    if (not caches or len(arrays) != len(caches) or any(ys.ndim != 1 for ys in arrays)
            or any(c.kernel is not caches[0].kernel for c in caches)):
        raise ValueError("y2 must be a scalar or a 1-D array, one per cache of one kernel")
    kernel = caches[0].kernel
    sizes = [ys.size for ys in arrays]
    y2s = np.concatenate(arrays)
    if y2s.size and not (y2s.min() > 0.0 and y2s.max() < math.inf):
        raise ValueError("y2 must be positive and finite, got "
                         f"{y2s[~((y2s > 0.0) & np.isfinite(y2s))][0]}")
    per_cache = [(*(c.y2_range or (0.0, math.inf)), 3.0 * math.log(math.pi) + math.log(c.D),
                  c.noise_log) for c in caches]
    lo, hi, log_pi3d, noise = np.repeat(np.array(per_cache), sizes, 0).T
    outside = (y2s < lo * (1 - 1e-12)) | (y2s > hi * (1 + 1e-12))
    if outside.any():
        c = caches[int(np.searchsorted(np.cumsum(sizes), np.argmax(outside), side="right"))]
        raise AccuracyRangeError(f"y2={y2s[outside][0]:g} outside the validated range "
                                 f"[{c.y2_range[0]:g}, {c.y2_range[1]:g}] of the cache at D={c.D:g}")
    # e^{-i theta k2 h} = e^{-i theta k_a h} e^{-i theta r h} with anchors
    # k_a = k0 + q _PHASE_STEP and steps 0 <= r < _PHASE_STEP, against the
    # padded inner sums laid out as rows[q, r] = inner[k0 + N2 + q _PHASE_STEP + r]
    log_py2 = np.log(math.pi * y2s)
    step_h, anchor_h = kernel.outer_phase_h
    tail = -anchor_h.size * _PHASE_STEP  # the layout from the first anchor on
    bounds = list(itertools.accumulate([0] + sizes))
    totals = np.empty(y2s.size, dtype=np.complex128)
    for r0, r1 in _row_blocks(y2s.size, anchor_h.size + _PHASE_STEP):
        theta = log_py2[r0:r1, None]
        steps = np.exp(-1j * (theta * step_h))[:, :, None]
        partial = np.empty((r1 - r0, anchor_h.size, 1), dtype=np.complex128)
        cuts = [min(max(b, r0), r1) - r0 for b in bounds]
        for c, a, b in zip(caches, cuts, cuts[1:]):
            # one mat-vec per row: a row's bits never depend on the rows beside it
            partial[a:b] = c.inner.base[tail:].reshape(-1, _PHASE_STEP) @ steps[a:b]
        totals[r0:r1] = np.einsum("yq,yq->y", partial[:, :, 0], np.exp(-1j * (theta * anchor_h)))
    if kernel.self_dual:  # w_0 = 1/2: twice the real part less the real k2 = 0 term
        middle = np.repeat([c.inner[kernel.grid.N2].real for c in caches], sizes)
        totals = 2.0 * totals.real - middle + 0j
    prefactor = kernel.prefactor_log(log_pi3d, log_py2)
    values = ScaledArray(totals, kernel._value_scale + prefactor)
    floors = noise + prefactor + kernel.params.scale_shift
    if not point:
        return values, floors
    # the floor test also catches inner sums that cancelled to noise,
    # where max |inner| is noise itself and the ratio test passes
    if (values.log_abs()[0] < floors[0] + 2.0
            or cache.inner_peak > CANCELLATION_GUARD_RATIO * abs(totals[0])):
        raise CancellationError(
            f"outer sum at y2={y2s[0]:g} exceeds the cancellation guard "
            "or lies within e^2 of its roundoff floor; "
            "increase working precision or use another algorithm")
    return values.item(0)


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

    swapped means the series route evaluates the conjugate-swapped pair,
    W(y1,y2) = conj(W(y2,y1)), so that y1 <= y2; the flag matters only
    for the series route, since w_stade is order-free.
    """
    swapped = a.y1 > a.y2
    y_min = min(a.y1, a.y2)
    if p.is_degenerate():
        return "stade", swapped
    if y_min <= _SMALL_CUT and a.y1 * a.y2 <= _PRODUCT_CUT:
        return "smallarg", swapped
    return "stade", swapped


def w_eval(p: LanglandsParams, a: WhittakerArgs) -> ScaledComplex:
    """Dispatching evaluator: the small-argument series, in the smaller
    argument via the conjugate swap, when the smaller argument is at most
    _SMALL_CUT and y1*y2 at most _PRODUCT_CUT; the integral algorithm
    otherwise, and where the series guard trips (degenerate parameter
    triples always take the integral route).
    """
    if not isinstance(a, WhittakerArgs):
        a = WhittakerArgs(*a)
    algo, swapped = choose_algorithm(p, a)
    if algo == "smallarg":
        work = a.swapped if swapped else a
        try:
            val = w_series_small(p, work)
            return val.conjugate() if swapped else val
        except CancellationError:
            log.warning("series guard tripped at (%g, %g); falling back to "
                        "the integral algorithm", work.y1, work.y2)
    return w_stade(p, a)
