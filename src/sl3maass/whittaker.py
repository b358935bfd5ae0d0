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
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import (CancellationError, DegenerateParametersError,
                     NonConvergenceError, AccuracyRangeError, PoleError)
from .langlands import LanglandsParams, permutations
from .quadrature import MellinGrid2D, QuadratureGrid, trapezoid_line
from .scaled import ScaledComplex, scaled_sum
from .specfun import (GammaRatioSpec, bessel_k_prime_scaled, bessel_k_scaled,
                      gamma_ratio, _log_gamma_array, _pole_distance)

__all__ = [
    "WhittakerArgs",
    "SeriesBudget",
    "EvalPolicy",
    "PQSlice",
    "PQTable",
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


@dataclass(frozen=True)
class EvalPolicy:
    """Dispatcher policy: below small_cut the smaller argument routes to
    the small-argument series, above it to the double-Bessel integral.

    product_cut additionally bounds y1*y2 for the series route: the
    closed-form polynomial/Bessel combination loses roughly
    (pi y1 * 2 pi y2)^(2n/3) digits to internal cancellation, which at
    binary64 exceeds the guard ratio once the product grows past ~1.3.
    """

    small_cut: float = 1.0
    product_cut: float = 1.3
    budget: SeriesBudget = field(default_factory=SeriesBudget)
    stade_grid: QuadratureGrid | None = None
    degenerate_tol: float = 1e-9


_DEFAULT_POLICY = EvalPolicy()


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
    integrand peaks.  Applicable for all argument sizes; costs two
    K-Bessel evaluations per node.
    """
    if grid is None:
        grid = default_stade_grid(p)
    alpha, beta, g = p.triple
    mu = (alpha - beta) / 2.0
    m = abs(mu.imag)
    y1, y2 = a.y1, a.y2
    u0 = math.log(y2 / y1)

    peak_log = [-math.inf]

    def integrand(v: float) -> ScaledComplex:
        u = v + u0
        if u >= 0.0:
            x1 = TWO_PI * y1 * math.exp(0.5 * u) * math.sqrt(1.0 + math.exp(-u))
            x2 = TWO_PI * y2 * math.sqrt(1.0 + math.exp(-u))
        else:
            x1 = TWO_PI * y1 * math.sqrt(1.0 + math.exp(u))
            x2 = TWO_PI * y2 * math.exp(-0.5 * u) * math.sqrt(1.0 + math.exp(u))
        k1 = bessel_k_scaled(mu, x1)
        k2 = bessel_k_scaled(mu, x2)
        osc = ScaledComplex.from_log(complex(0.0, -0.75 * p.r_gamma * u))
        out = k1 * k2 * osc
        peak_log[0] = max(peak_log[0], out.log_abs())
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
        cancel_log = peak_log[0] + math.log(grid.h) - total.log_abs()
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

@dataclass(frozen=True)
class PQSlice:
    """Polynomial tables P_0..P_nmax, Q_0..Q_nmax for one permutation.

    Coefficient vectors are in ascending powers of y and satisfy

        P_{n+1} = y P_n' + ((2 pi y)^2 + mu^2) Q_n + a_n P_n,   P_0 = 4
        Q_{n+1} = P_n + y Q_n' + a_n Q_n,                       Q_0 = 0

    with a_n = 3 d1/2 + 2n + 2 and mu = (d2 - d3)/2; hence
    deg P_n <= 2n and deg Q_n <= 2n-1.
    """

    delta: tuple[complex, complex, complex]
    mu: complex
    p_coeffs: tuple
    q_coeffs: tuple

    @property
    def nmax(self) -> int:
        return len(self.p_coeffs) - 1

    def p_at(self, n: int, y: float) -> complex:
        return complex(np.polynomial.polynomial.polyval(y, self.p_coeffs[n]))

    def q_at(self, n: int, y: float) -> complex:
        return complex(np.polynomial.polynomial.polyval(y, self.q_coeffs[n]))


def pq_build(p: LanglandsParams, delta: tuple[complex, complex, complex],
             nmax: int) -> PQSlice:
    """Build the P/Q coefficient tables for one ordered triple delta.

    The recursion is exact in coefficient arithmetic; only the final
    polynomial evaluations round.
    """
    if nmax < 0:
        raise ValueError("nmax must be non-negative")
    d1, d2, d3 = delta
    mu = (d2 - d3) / 2.0
    mu2 = mu * mu
    four_pi2 = (2.0 * math.pi) ** 2
    p_list = [np.array([4.0 + 0j])]
    q_list = [np.array([0j])]
    for n in range(nmax):
        a_n = 1.5 * d1 + 2.0 * n + 2.0
        pn = p_list[n]
        qn = q_list[n]
        deg_p = 2 * (n + 1)
        deg_q = 2 * (n + 1) - 1
        new_p = np.zeros(deg_p + 1, dtype=np.complex128)
        new_q = np.zeros(deg_q + 1, dtype=np.complex128)
        for k in range(len(pn)):
            new_p[k] += (k + a_n) * pn[k]      # y P' + a_n P
            new_q[k] += pn[k]                  # P
        for k in range(len(qn)):
            new_p[k] += mu2 * qn[k]            # mu^2 Q
            new_p[k + 2] += four_pi2 * qn[k]   # (2 pi y)^2 Q
            new_q[k] += (k + a_n) * qn[k]      # y Q' + a_n Q
        p_list.append(new_p)
        q_list.append(new_q)
    return PQSlice(delta=tuple(delta), mu=mu,
                   p_coeffs=tuple(p_list), q_coeffs=tuple(q_list))


@dataclass(frozen=True)
class PQTable:
    """The three PQSlice tables used by the small-argument series, one per
    leading parameter (cyclic order alpha, beta, gamma)."""

    slices: tuple[PQSlice, PQSlice, PQSlice]

    @property
    def nmax(self) -> int:
        return self.slices[0].nmax


def build_pq_table(p: LanglandsParams, nmax: int = 60) -> PQTable:
    a, b, g = p.triple
    return PQTable(slices=(pq_build(p, (a, b, g), nmax),
                           pq_build(p, (b, g, a), nmax),
                           pq_build(p, (g, a, b), nmax)))


def w_series_small(p: LanglandsParams, a: WhittakerArgs,
                   budget: SeriesBudget | None = None,
                   pq: PQTable | None = None) -> ScaledComplex:
    """W(y1,y2) as three single-variable power series in (pi y1)^2, one per
    leading parameter d1:

        2 (pi y1)^(1+d1) Gamma((d2-d1)/2) Gamma((d3-d1)/2) (pi y2)^(1+d1/2)
          * sum_n [ P_n(y2) K_mu(2 pi y2) + 2 pi y2 Q_n(y2) K_mu'(2 pi y2) ]
                  (pi y1)^(2n) / [ (1+(d1-d2)/2)_n (1+(d1-d3)/2)_n 2^n n! ]

    with mu = (d2-d3)/2.  Costs six K-Bessel evaluations total plus
    polynomial arithmetic; intended for small y1 (the dispatcher swaps
    arguments first when y1 > y2).
    """
    if budget is None:
        budget = SeriesBudget()
    _require_nondegenerate(p)
    if pq is None:
        pq = build_pq_table(p, budget.nmax)
    if pq.nmax < budget.nmax:
        raise ValueError("PQ table shorter than the requested budget")
    y1, y2 = a.y1, a.y2
    x2 = TWO_PI * y2
    log_py1_sq = 2.0 * math.log(math.pi * y1)

    totals: list[ScaledComplex] = []
    max_term_log = -math.inf
    for sl in pq.slices:
        d1, d2, d3 = sl.delta
        kv = bessel_k_scaled(sl.mu, x2)
        kp = bessel_k_prime_scaled(sl.mu, x2)
        pref = gamma_ratio(GammaRatioSpec([(d2 - d1) / 2.0, (d3 - d1) / 2.0]))
        pref = pref * ScaledComplex.from_log((1.0 + d1) * math.log(math.pi * y1)
                                             + (1.0 + d1 / 2.0) * math.log(math.pi * y2))
        pref = pref * _CONTOUR_WEIGHT
        q12 = 1.0 + (d1 - d2) / 2.0
        q13 = 1.0 + (d1 - d3) / 2.0

        coef = ScaledComplex.one()
        acc = ScaledComplex.zero()
        acc_top = -math.inf
        small_run = 0
        converged = False
        for n in range(budget.nmax + 1):
            combo = kv * sl.p_at(n, y2) + kp * (x2 * sl.q_at(n, y2))
            term = coef * combo
            acc = acc + term
            acc_top = max(acc_top, acc.log_abs())
            max_term_log = max(max_term_log, (pref * term).log_abs())
            if term.log_abs() < math.log(budget.target_eps) + max(acc_top, -600.0):
                small_run += 1
                if small_run >= 3 and n >= 2:
                    converged = True
                    break
            else:
                small_run = 0
            coef = coef * ScaledComplex.from_log(log_py1_sq - math.log(2.0 * (n + 1.0))) \
                / ScaledComplex.from_complex((q12 + n) * (q13 + n))
        if not converged:
            raise NonConvergenceError(
                f"small-argument series did not converge within nmax={budget.nmax}")
        totals.append(pref * acc)

    total = scaled_sum(totals)
    if total.is_zero or max_term_log - total.log_abs() > math.log(CANCELLATION_GUARD_RATIO):
        raise CancellationError(
            "small-argument series cancellation exceeds guard ratio; "
            "use the integral algorithm for these arguments")
    return total.scaled_by(p.scale_shift)


# ---------------------------------------------------------------------------
# Algorithm 4: cached double inverse Mellin transform at fixed D
# ---------------------------------------------------------------------------

# complex elements per row block of the kernel mat-vecs and of the outer
# phase-matrix products; one block (1 MiB) is the largest temporary
_BLOCK_ELEMS = 1 << 16

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
    return MellinGrid2D(h1=h, h2=h, sigma1=2.0, sigma2=2.0,
                        N1=int(math.ceil(t1 / h)), N2=int(math.ceil(t2 / h)))


def _gamma_product_log(args: np.ndarray) -> np.ndarray:
    if np.any(_pole_distance(args) < 1e-9):
        raise PoleError("grid abscissa within 1e-9 of a gamma pole; "
                        "choose positive sigma1, sigma2")
    return _log_gamma_array(args)


def _a_log(p: LanglandsParams, grid: MellinGrid2D) -> np.ndarray:
    """log prod_d Gamma((sigma1 + d)/2 + i k1 h1) over k1 = -N1..N1."""
    k1 = np.arange(-grid.N1, grid.N1 + 1)
    la = np.zeros(k1.size, dtype=np.complex128)
    for d in p.triple:
        la += _gamma_product_log((grid.sigma1 + d) / 2.0 + 1j * (k1 * grid.h1))
    return la


def _row_blocks(n_rows: int, width: int) -> list[tuple[int, int]]:
    """(start, stop) row ranges of at most _BLOCK_ELEMS elements each."""
    step = max(1, _BLOCK_ELEMS // width)
    return [(j0, min(j0 + step, n_rows)) for j0 in range(0, n_rows, step)]


def _blocked_matvec(b: np.ndarray, c: np.ndarray, x: np.ndarray,
                    n_rows: int) -> np.ndarray:
    """(B * C) @ x with B[j, i] = b[i + j] and C[j, i] = c[3 i + j].

    B and C are zero-copy stride views; their elementwise product is
    formed one row block at a time, so the dense matrix never exists.
    """
    width = x.size
    bm = sliding_window_view(b, width)[:n_rows]
    step = c.strides[0]
    cm = as_strided(c, shape=(n_rows, width), strides=(step, 3 * step),
                    writeable=False)
    out = np.empty(n_rows, dtype=np.result_type(b, c, x))
    for j0, j1 in _row_blocks(n_rows, width):
        out[j0:j1] = (bm[j0:j1] * cm[j0:j1]) @ x
    return out


@dataclass(frozen=True, eq=False)
class MellinKernel:
    """The D-independent part of every fixed-D cache on one (params, grid)
    with a shared step h = h1 = h2.

    With i = k1 + N1 and j = k2 + N2, the inner sum at D is

        inner_D[j] = sum_i a[i] e^{-i k1 h log(pi^3 D)} b[i + j] c[3 i + j]

    where a runs over k1, b over m = k1 + k2 and c over v = 3 k1 + k2; each
    array holds its gamma factors divided by their largest magnitude, and
    log_scale is the sum of the three divisors' logs.  D enters only
    through the phase, so a cache build is one blocked mat-vec.
    abs_rows[j] = sum_i |a_i| |b_{i+j}| |c_{3i+j}| bounds the terms of
    inner_D[j] for every D and so sets the scale of its roundoff.
    """

    grid: MellinGrid2D
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    log_scale: float
    abs_rows: np.ndarray

    def inner(self, D: float) -> np.ndarray:
        """inner_D, all entries at the common scale exp(log_scale)."""
        k1 = np.arange(-self.grid.N1, self.grid.N1 + 1)
        log_pi3d = 3.0 * math.log(math.pi) + math.log(D)
        a_d = self.a * np.exp(-1j * (k1 * self.grid.h1) * log_pi3d)
        return _blocked_matvec(self.b, self.c, a_d, 2 * self.grid.N2 + 1)


@functools.lru_cache(maxsize=8)
def mellin_kernel(p: LanglandsParams, grid: MellinGrid2D) -> MellinKernel:
    """The kernel of (p, grid), built on first use and memoized (its
    arrays are read-only): O(N1 + N2) log-gamma evaluations and one real
    mat-vec for abs_rows."""
    if abs(grid.h1 - grid.h2) >= 1e-15 * max(grid.h1, grid.h2):
        raise ValueError("the Mellin kernel needs a shared step h1 = h2")
    h = grid.h1
    n1, n2 = grid.N1, grid.N2
    s1, s2 = grid.sigma1, grid.sigma2
    la = _a_log(p, grid)
    m = np.arange(-(n1 + n2), n1 + n2 + 1)
    lb = np.zeros(m.size, dtype=np.complex128)
    for d in p.triple:
        lb += _gamma_product_log((s2 + 1j * (m * h) - d) / 2.0)
    v = np.arange(-(3 * n1 + n2), 3 * n1 + n2 + 1)
    lc = -_gamma_product_log((s1 + s2) / 2.0 + 1j * (v * h) / 2.0)
    peaks = [float(np.max(x.real)) for x in (la, lb, lc)]
    a, b, c = (np.exp(x - s) for x, s in zip((la, lb, lc), peaks))
    abs_rows = _blocked_matvec(np.abs(b), np.abs(c), np.abs(a), 2 * n2 + 1)
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
                        y2_range: tuple[float, float] | None = None) -> FixedDCache:
    """Precompute the inner k1-sums of the discretized double Mellin
    transform for fixed D = y1^2 y2.

    With h1 = h2 the gamma factors live on three one-dimensional arrays
    indexed by k1, k1 + k2 and 3 k1 + k2 that do not depend on D; they
    are computed once per (p, grid) by mellin_kernel, so a build costs
    one blocked O(N1 N2) mat-vec and no log-gamma evaluations.  When
    `validate` is set, the cache is compared against w_eval at the end
    points of y2_range and the worst relative deviation is stored.
    """
    if not (D > 0.0) or not math.isfinite(D):
        raise ValueError(f"D must be positive and finite, got {D}")
    if grid is None:
        grid = default_mellin_grid(p, eps)
    h1, h2 = grid.h1, grid.h2
    n1, n2 = grid.N1, grid.N2

    if abs(h1 - h2) < 1e-15 * max(h1, h2):
        kernel = mellin_kernel(p, grid)
        inner = kernel.inner(D)
        scale = kernel.log_scale
        inner_abs_peak = float(np.max(kernel.abs_rows))
    else:
        alpha, beta, g = p.triple
        s1, s2 = grid.sigma1, grid.sigma2
        log_pi3d = 3.0 * math.log(math.pi) + math.log(D)
        k1 = np.arange(-n1, n1 + 1)
        la = _a_log(p, grid)
        sa = float(np.max(la.real))
        a_arr = np.exp(la - sa) * np.exp(-1j * (k1 * h1) * log_pi3d)
        inner = np.empty(2 * n2 + 1, dtype=np.complex128)
        rows = []
        row_max = -math.inf
        for j in range(2 * n2 + 1):
            k2h = (j - n2) * h2
            u = k1 * h1 + k2h
            lb = np.zeros(u.size, dtype=np.complex128)
            for d in (alpha, beta, g):
                lb += _gamma_product_log((s2 + 1j * u - d) / 2.0)
            lb -= _gamma_product_log((s1 + s2) / 2.0 + 1j * (3.0 * k1 * h1 + k2h) / 2.0)
            rows.append(lb)
            row_max = max(row_max, float(np.max(lb.real)))
        inner_abs_peak = 0.0
        for j in range(2 * n2 + 1):
            terms = a_arr * np.exp(rows[j] - row_max)
            inner[j] = np.sum(terms)
            inner_abs_peak = max(inner_abs_peak, float(np.sum(np.abs(terms))))
        scale = sa + row_max

    cache = FixedDCache(params=p, D=float(D), grid=grid, inner=inner,
                        log_scale=scale, inner_peak=float(np.max(np.abs(inner))),
                        inner_abs_peak=inner_abs_peak, y2_range=y2_range)
    if validate:
        lo, hi = y2_range if y2_range is not None else (D ** (1.0 / 3.0) / 8.0,
                                                        D ** (1.0 / 3.0) * 8.0)
        # deviation relative to max(|W|, eps): near the decay boundary the
        # outer sum is only absolutely accurate, which is what the Fourier
        # assembly needs there
        floor_log = math.log(eps)
        resid = 0.0
        got = w_mellin_fixed_d(cache, np.array([lo, hi]), _skip_range_check=True,
                               _no_guard=True)
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
            + math.log(grid.h1 * grid.h2 / (2.0 * math.pi ** 2)))


def mellin_outer_noise_log(cache: FixedDCache, y2):
    """log of the roundoff floor of w_mellin_fixed_d at y2 (a scalar or a
    1-D array), in the shared scaling convention: values below this level
    are indistinguishable from zero at binary64."""
    return (cache.noise_log + _outer_prefactor_log(cache, np.asarray(y2, dtype=float))
            + cache.params.scale_shift)


def w_mellin_fixed_d(cache: FixedDCache, y2,
                     _skip_range_check: bool = False,
                     _no_guard: bool = False):
    """W(y1, y2) with y1 = sqrt(D / y2), from the cached inner sums.

    y2 is a scalar, giving one ScaledComplex, or a 1-D array, giving a
    list of them.  Only the outer sums against (pi y2)^(-i k2 h2) are
    evaluated, all as one phase-matrix product taken in row blocks, so the
    cost is O(N2) per y2.  Raises AccuracyRangeError outside the validated
    y2 range and CancellationError when an outer sum loses the guard ratio
    (suppressed by _no_guard for callers that only need absolute accuracy
    near the decay boundary).
    """
    y2s = np.atleast_1d(np.asarray(y2, dtype=float))
    if y2s.ndim != 1:
        raise ValueError("y2 must be a scalar or a 1-D array")
    bad = ~((y2s > 0.0) & np.isfinite(y2s))
    if bad.any():
        raise ValueError(f"y2 must be positive and finite, got {y2s[bad][0]}")
    if not _skip_range_check and cache.y2_range is not None:
        lo, hi = cache.y2_range
        outside = (y2s < lo * (1 - 1e-12)) | (y2s > hi * (1 + 1e-12))
        if outside.any():
            raise AccuracyRangeError(
                f"y2={y2s[outside][0]:g} outside the validated range [{lo:g}, "
                f"{hi:g}] of this cache")
    log_py2 = np.log(math.pi * y2s)
    k2h = cache.k2 * cache.grid.h2
    # e^{-i theta} (re + i im) = (re cos + im sin) + i (im cos - re sin):
    # the phase matrix as two real products, cheaper than a complex exp
    re_im = np.stack([cache.inner.real, cache.inner.imag], axis=1)
    totals = np.empty(y2s.size, dtype=np.complex128)
    for r0, r1 in _row_blocks(y2s.size, k2h.size):
        theta = np.outer(log_py2[r0:r1], k2h)
        cos = np.cos(theta) @ re_im
        sin = np.sin(theta) @ re_im
        totals.real[r0:r1] = cos[:, 0] + sin[:, 1]
        totals.imag[r0:r1] = cos[:, 1] - sin[:, 0]
    if not _no_guard:
        lost = (totals == 0) | (cache.inner_peak > CANCELLATION_GUARD_RATIO * np.abs(totals))
        if lost.any():
            raise CancellationError(
                f"outer sum cancellation exceeds guard ratio at y2={y2s[lost][0]:g}; "
                "increase working precision or use another algorithm")
    shift = cache.params.scale_shift
    values = []
    for total, pref in zip(totals.tolist(), _outer_prefactor_log(cache, y2s).tolist()):
        if total == 0:
            values.append(ScaledComplex.zero())
            continue
        out = ScaledComplex(total, cache.log_scale) * ScaledComplex.from_log(complex(pref))
        values.append(out.scaled_by(shift))
    return values if np.ndim(y2) else values[0]


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def choose_algorithm(p: LanglandsParams, a: WhittakerArgs,
                     policy: EvalPolicy | None = None) -> tuple[str, bool]:
    """(algorithm, swapped): which route w_eval takes for these arguments.

    swapped means the conjugate-swap W(y1,y2) = conj(W(y2,y1)) is applied
    first so that the evaluated pair has y1 <= y2.
    """
    if policy is None:
        policy = _DEFAULT_POLICY
    swapped = a.y1 > a.y2
    y_min = min(a.y1, a.y2)
    if p.is_degenerate(policy.degenerate_tol):
        return "stade", swapped
    if y_min <= policy.small_cut and a.y1 * a.y2 <= policy.product_cut:
        return "smallarg", swapped
    return "stade", swapped


def w_eval(p: LanglandsParams, a: WhittakerArgs,
           policy: EvalPolicy | None = None) -> ScaledComplex:
    """Dispatching evaluator: canonicalizes to y1 <= y2 via the conjugate
    swap, then uses the small-argument series when the smaller argument is
    at most policy.small_cut and the integral algorithm otherwise
    (degenerate parameter triples always take the integral route).
    """
    if policy is None:
        policy = _DEFAULT_POLICY
    if not isinstance(a, WhittakerArgs):
        a = WhittakerArgs(*a)
    algo, swapped = choose_algorithm(p, a, policy)
    work = a.swapped if swapped else a
    if algo == "smallarg":
        try:
            val = w_series_small(p, work, policy.budget)
        except CancellationError:
            log.warning("series guard tripped at (%g, %g); falling back to "
                        "the integral algorithm", work.y1, work.y2)
            val = w_stade(p, work, policy.stade_grid)
    else:
        val = w_stade(p, work, policy.stade_grid)
    return val.conjugate() if swapped else val
