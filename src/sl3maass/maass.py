"""Maass-form evaluation from the even cosine Fourier expansion.

A form is specified by its spectral parameters, a Fourier coefficient
table A(m1, m2), and an accuracy goal eps.  Evaluation truncates the
expansion with the decay cutoff C (|scaled W| < eps once either argument
exceeds C), enumerates the coprime (c, d) pairs allowed by the annulus

    sqrt(m2 y2 / C) < |c z2 + d| < C / (m1 y1),

and obtains all Whittaker values for one (m1, m2) pair from a single
fixed-D cache in one batched call, since D = (m1 y1)^2 m2 y2 is
invariant along the (c, d) sum.  The caches' inner sums are formed in
waves: when the walk reaches a D without a cache or column, one kernel
product forms the columns of every uncached D of the next 16, 32 or 64
pairs of the same m1.  Those D are (m1 y1)^2 m2 y2, so a wave needs no
(c, d) enumeration; the walk enumerates a pair only when it reaches it,
and wraps a column in a cache then.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import (DegenerateLatticeError, DomainError,
                     MissingCoefficientError, NonConvergenceError)
from .langlands import LanglandsParams
from .whittaker import (WhittakerArgs, build_fixed_d_cache,
                        default_mellin_grid, mellin_kernel,
                        mellin_outer_noise_log, w_eval, w_mellin_fixed_d,
                        w_stade)

__all__ = [
    "H3Point",
    "MaassForm",
    "GroupWord",
    "GENERATORS",
    "word_matrix",
    "iwasawa_act",
    "mobius",
    "expand_coefficients",
    "decay_cutoff",
    "enumerate_cd",
    "eval_maass",
    "eval_maass_report",
    "MaassEvalStats",
    "coefficient_demand",
    "automorphy_residual",
]

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# points and group action
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class H3Point:
    """Iwasawa coordinates (x1, x2, x3, y1, y2) with y1, y2 > 0 of a point
    z = X Y of the generalized upper half-plane."""

    x1: float
    x2: float
    x3: float
    y1: float
    y2: float

    def __post_init__(self):
        for name in ("x1", "x2", "x3", "y1", "y2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("y1", "y2"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive")

    def to_matrix(self) -> np.ndarray:
        return np.array([[self.y1 * self.y2, self.x2 * self.y1, self.x3],
                         [0.0, self.y1, self.x1],
                         [0.0, 0.0, 1.0]])

    @property
    def z2(self) -> complex:
        return complex(self.x2, self.y2)


# generators: two rotations and the three unipotent unit translations
GENERATORS: dict[str, np.ndarray] = {
    "S1": np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=np.int64),
    "S2": np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.int64),
    "T1": np.array([[1, 0, 0], [0, 1, 1], [0, 0, 1]], dtype=np.int64),
    "T2": np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=np.int64),
    "T3": np.array([[1, 0, 1], [0, 1, 0], [0, 0, 1]], dtype=np.int64),
}


@dataclass(frozen=True)
class GroupWord:
    """A word over the generators, applied left-to-right as a matrix
    product: "S1 S2 S1" means S1 @ S2 @ S1."""

    letters: tuple[str, ...]

    @staticmethod
    def parse(text) -> "GroupWord":
        if isinstance(text, GroupWord):
            return text
        letters = tuple(tok for tok in str(text).replace(",", " ").split() if tok)
        for tok in letters:
            if tok not in GENERATORS:
                raise ValueError(f"unknown generator {tok!r}; allowed: {sorted(GENERATORS)}")
        return GroupWord(letters)

    def matrix(self) -> np.ndarray:
        m = np.eye(3, dtype=np.int64)
        for tok in self.letters:
            m = m @ GENERATORS[tok]
        return m


def word_matrix(word) -> np.ndarray:
    return GroupWord.parse(word).matrix()


def _reverse_cholesky(gram: np.ndarray) -> np.ndarray:
    """Upper-triangular tau with positive diagonal and gram = tau tau^T.

    Flipping rows and columns turns this into an ordinary Cholesky
    factorization; pivots are checked explicitly.
    """
    g = gram[::-1, ::-1].copy()
    l = np.zeros((3, 3))
    for i in range(3):
        s = g[i, i] - np.dot(l[i, :i], l[i, :i])
        if not (s > 1e-300):
            raise DegenerateLatticeError(f"vanishing pivot in Iwasawa factorization: {s:g}")
        l[i, i] = math.sqrt(s)
        for j in range(i + 1, 3):
            l[j, i] = (g[j, i] - np.dot(l[j, :i], l[i, :i])) / l[i, i]
    return l[::-1, ::-1]


def iwasawa_act(g: np.ndarray, z: H3Point) -> H3Point:
    """Iwasawa coordinates of g . z for g with det 1.

    The product matrix M = g X Y determines the coordinates through the
    factorization M M^T = tau tau^T with tau upper triangular (positive
    diagonal); the bottom-right entry of tau is divided out last.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (3, 3):
        raise DomainError("group element must be a 3x3 matrix")
    if abs(np.linalg.det(g) - 1.0) > 1e-9:
        raise DomainError(f"group element must have determinant 1, got {np.linalg.det(g):g}")
    m = g @ z.to_matrix()
    tau = _reverse_cholesky(m @ m.T)
    tau = tau / tau[2, 2]
    y1 = tau[1, 1]
    return H3Point(x1=tau[1, 2], x2=tau[0, 1] / y1, x3=tau[0, 2],
                   y1=y1, y2=tau[0, 0] / y1)


# ---------------------------------------------------------------------------
# coefficient algebra
# ---------------------------------------------------------------------------

def mobius(n: int) -> int:
    """Moebius function by trial-division factorization."""
    if n < 1:
        raise ValueError("mobius argument must be positive")
    out = 1
    k = 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1 if k == 2 else 2
    if n > 1:
        out = -out
    return out


def expand_coefficients(a: Mapping[int, complex], M: int) -> dict[tuple[int, int], complex]:
    """Full table A(m, n) from the Dirichlet-series coefficients A(1, n):

        A(m, n) = sum_{d | gcd(m,n)} mu(d) conj(A(1, m/d)) A(1, n/d)

    for 1 <= m <= M and every n the input covers.  Requires A(1, 1) = 1
    (Hecke normalization); a needed A(1, k) that is absent raises
    MissingCoefficientError.
    """
    if 1 not in a:
        raise MissingCoefficientError(1, 1)
    if abs(complex(a[1]) - 1.0) > 1e-12:
        raise ValueError(f"A(1,1) must be 1 (Hecke normalization), got {a[1]}")
    n_max = max(a)
    if M > n_max:
        raise MissingCoefficientError(1, M)

    def a1(k: int) -> complex:
        try:
            return complex(a[k])
        except KeyError:
            raise MissingCoefficientError(1, k) from None

    table: dict[tuple[int, int], complex] = {}
    for m in range(1, M + 1):
        for n in range(1, n_max + 1):
            g = math.gcd(m, n)
            val = 0j
            for d in range(1, g + 1):
                if g % d == 0:
                    mu = mobius(d)
                    if mu != 0:
                        val += mu * a1(m // d).conjugate() * a1(n // d)
            table[(m, n)] = val
    return table


# ---------------------------------------------------------------------------
# truncation machinery
# ---------------------------------------------------------------------------

_CUTOFF_PROBES = (0.3, 0.6, 1.0, 1.6, 2.5)
_CUTOFF_RATIO = 1.25
_CUTOFF_START = 0.64
_CUTOFF_STEPS = 70

# m2 per wave of kernel columns: the first wave of each m1 covers 16
# consecutive m2, the next 32, then 64 each
_WAVE_SIZES = (16, 32, 64)


def _cutoff_scan(p: LanglandsParams, eps: float) -> tuple[float, float]:
    """(C, peak_log): the decay cutoff and the peak log|W| seen on the
    scan.

    eps is relative to the function's own peak over the scanned region;
    an absolute threshold would be meaningless across the exp(pi|a-b|)
    scaling and parameter-dependent bulk size of W.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie strictly between 0 and 1, got {eps}")

    def max_log(y: float) -> float:
        return max(w_eval(p, WhittakerArgs(q, y)).log_abs() for q in _CUTOFF_PROBES)

    ys = [_CUTOFF_START * _CUTOFF_RATIO ** k for k in range(_CUTOFF_STEPS)]
    logs: dict[int, float] = {}

    def level(i: int) -> float:
        if i not in logs:
            logs[i] = max_log(ys[i])
        return logs[i]

    # the peak sits at small-to-moderate y; scan until clearly past it
    peak = -math.inf
    for i in range(_CUTOFF_STEPS):
        peak = max(peak, level(i))
        if level(i) < peak - 8.0:
            break
    log_thr = math.log(eps) + peak
    for i in range(_CUTOFF_STEPS - 2):
        if level(i) < log_thr and level(i + 1) < log_thr and level(i + 2) < log_thr:
            return ys[i], peak
    raise NonConvergenceError(
        f"no decay cutoff found below {ys[-1]:g} for eps={eps:g}")


def decay_cutoff(p: LanglandsParams, eps: float) -> float:
    """Smallest value C on the geometric grid 0.64 * 1.25^k such that the
    scaled |W(y1, y2)| stays below eps (relative to the peak of |W| over
    the scanned region) whenever either argument exceeds C.

    Scans |W(probe, y)| for increasing y over a fixed probe set for the
    other argument; by the conjugate symmetry |W(a, b)| = |W(b, a)|, one
    orientation covers both axes.  Confirmed on two further grid points
    before returning.
    """
    return _cutoff_scan(p, eps)[0]


def enumerate_cd(C: float, m1y1: float, m2y2: float, z2: complex) -> list[tuple[int, int]]:
    """Coprime pairs (c, d), c >= 1, with
    sqrt(m2 y2 / C) < |c z2 + d| < C / (m1 y1); empty when the annulus is.

    Output is ordered by (c, d)."""
    if not (z2.imag > 0.0):
        raise ValueError("z2 must have positive imaginary part")
    lower2 = m2y2 / C
    upper = C / m1y1
    upper2 = upper * upper
    if lower2 >= upper2:
        return []
    x2, y2 = z2.real, z2.imag
    out: list[tuple[int, int]] = []
    c = 1
    while c * y2 < upper:
        height2 = (c * y2) ** 2
        span2 = upper2 - height2
        if span2 <= 0.0:
            break
        span = math.sqrt(span2)
        d_lo = math.ceil(-c * x2 - span)
        d_hi = math.floor(-c * x2 + span)
        for d in range(d_lo, d_hi + 1):
            r2 = (c * x2 + d) ** 2 + height2
            if lower2 < r2 < upper2 and math.gcd(c, abs(d)) == 1:
                out.append((c, d))
        c += 1
    return out


def _min_lattice_radius(C: float, y1: float, z2: complex) -> float:
    """min |c z2 + d| over c >= 1 and d integer, restricted to c z2 below
    the outermost annulus; infinity when no (c, d) pair can contribute."""
    upper = C / y1
    best = math.inf
    c = 1
    while c * z2.imag < min(upper, best):
        d = -round(c * z2.real)
        best = min(best, math.hypot(c * z2.real + d, c * z2.imag))
        c += 1
    return best


def _inverse_mod(d: int, c: int) -> int:
    """Smallest positive a with a d = 1 (mod c)."""
    if c == 1:
        return 1
    a = pow(d % c, -1, c)
    return a if a > 0 else a + c


# ---------------------------------------------------------------------------
# the form and its evaluation
# ---------------------------------------------------------------------------

@dataclass
class MaassForm:
    """Spectral parameters, coefficient table, and accuracy goal.

    `coeffs` maps (m1, m2) to A(m1, m2); alternatively `coeff_fn` supplies
    coefficients programmatically (used for synthetic forms).  The decay
    cutoff is computed lazily and cached.
    """

    params: LanglandsParams
    coeffs: Mapping[tuple[int, int], complex] | None = None
    eps: float = 1e-10
    coeff_fn: Callable[[int, int], complex] | None = None
    cutoff: float | None = field(default=None, init=False)
    peak_log: float | None = field(default=None, init=False)
    # fixed-D caches keyed by D rounded to 12 significant digits, shared
    # across evaluations of this form
    cache_map: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must lie strictly between 0 and 1, got {self.eps}")

    def coefficient(self, m1: int, m2: int) -> complex:
        if self.coeffs is not None:
            try:
                return complex(self.coeffs[(m1, m2)])
            except KeyError:
                raise MissingCoefficientError(m1, m2) from None
        if self.coeff_fn is not None:
            return complex(self.coeff_fn(m1, m2))
        raise MissingCoefficientError(m1, m2)

    def cutoff_value(self) -> float:
        if self.cutoff is None or self.peak_log is None:
            self.cutoff, self.peak_log = _cutoff_scan(self.params, self.eps)
        return self.cutoff


@dataclass(frozen=True)
class MaassEvalStats:
    """Byproducts of one evaluation: the cutoff used, the largest m2 whose
    Whittaker terms reached the accuracy goal, and term/cache counts.

    n_caches is the number of fixed-D caches the form holds after this
    evaluation, accumulated over all its evaluations so far;
    n_caches_built counts the caches this evaluation built.
    """

    cutoff: float
    max_contributing_m2: int
    max_m1: int
    n_terms: int
    n_caches: int
    n_caches_built: int


def eval_maass_report(f: MaassForm, z: H3Point,
                      backend: str = "mellin",
                      count_only: bool = False) -> tuple[complex, MaassEvalStats]:
    """Truncated even cosine expansion at z, with evaluation statistics.

    backend selects the Whittaker engine: "mellin" (fixed-D caches, the
    default; their columns are formed in waves, see the module docstring)
    or "stade" (direct double-Bessel integral).  A term contributes when
    its |W| clears both the accuracy goal and the backend's roundoff
    floor.  A(m1, m2) is fetched at its pair's first contributing term,
    and from then on every term of that pair is summed, contributing or
    not; earlier terms of the pair that do not contribute are dropped.
    Summing only the contributing terms would move values by about 1e-6
    relative at eps 1e-8, away from the benchmark's stored form-orbit
    references, so the rule stays until those references change.  With
    count_only the coefficient table is never touched, caches are not
    validated and the returned value is meaningless; only the statistics
    are valid.
    """
    if backend not in ("mellin", "stade"):
        raise ValueError(f"unknown backend {backend!r}")
    p = f.params
    eps = f.eps
    C = f.cutoff_value()
    shift = p.scale_shift
    # contribution threshold: eps relative to the peak of |W| over the
    # truncation scan (the form's natural term scale); W carries that
    # scale, so caches are validated against this level, not against eps
    log_eps = math.log(eps) + f.peak_log
    y1, y2 = z.y1, z.y2
    z2 = z.z2

    caches = f.cache_map if backend == "mellin" else {}
    grid = default_mellin_grid(p, eps * 1e-2)
    n_built = 0
    t_min = _min_lattice_radius(C, y1, z2)
    m1_cap = int(C / (y1 * min(t_min, 1.0))) + 1

    def cache_key(D: float) -> float:
        return float(np.format_float_scientific(D, precision=11))

    def jobs_of(m1: int, m2: int) -> list[tuple[float, float, float]]:
        """(cos1, cos2, y2_arg) of every term of the (m1, m2) pair."""
        m1y1 = m1 * y1
        m2y2 = m2 * y2
        jobs = []
        if m1y1 <= C and m2y2 <= C:
            jobs.append((math.cos(2.0 * math.pi * m1 * z.x1),
                         math.cos(2.0 * math.pi * m2 * z.x2),
                         m2y2))
        for (c, d) in enumerate_cd(C, m1y1, m2y2, z2):
            t2 = (c * z2.real + d) ** 2 + (c * z2.imag) ** 2
            a_inv = _inverse_mod(d, c)
            cos1 = math.cos(2.0 * math.pi * m1 * (c * z.x3 + d * z.x1))
            cos2 = math.cos(2.0 * math.pi * (m2 / c)
                            * (a_inv - (c * z2.real + d) / t2))
            jobs.append((cos1, cos2, m2y2 / t2))
        return jobs

    terms: list[complex] = []
    max_m2 = 0
    max_m1 = 0
    m1_misses = 0
    for m1 in range(1, m1_cap + 1):
        m1y1 = m1 * y1
        if m1y1 > C and m1y1 * t_min > C:
            break
        m2_cap = int(C ** 3 / (y2 * m1y1 * m1y1)) + 1
        # kernel columns by m2, formed by this m1's waves and not yet
        # wrapped in a cache
        columns: dict[int, np.ndarray] = {}
        waves = 0
        m2_misses = 0
        m1_hit = False
        for m2 in range(1, m2_cap + 1):
            m2y2 = m2 * y2
            D = m1y1 * m1y1 * m2y2
            jobs = jobs_of(m1, m2)
            y2_args = [y2_arg for _, _, y2_arg in jobs]
            if backend == "stade":
                ws = [w_stade(p, WhittakerArgs(math.sqrt(D / y), y)) for y in y2_args]
                floors = [-math.inf] * len(ws)
            elif jobs:
                key = cache_key(D)
                if key not in caches:
                    if m2 not in columns:
                        # a wave: one kernel product forms the columns of
                        # every uncached D of the next pairs of this m1
                        size = _WAVE_SIZES[min(waves, len(_WAVE_SIZES) - 1)]
                        Ds = {m: m1y1 * m1y1 * (m * y2)
                              for m in range(m2, min(m2 + size, m2_cap + 1))}
                        Ds = {m: D_m for m, D_m in Ds.items() if cache_key(D_m) not in caches}
                        inner = mellin_kernel(p, grid).inner(list(Ds.values()))
                        columns.update(zip(Ds, (column.copy() for column in inner.T)))
                        waves += 1
                    caches[key] = build_fixed_d_cache(p, D, grid=grid, eps=math.exp(log_eps),
                                                      validate=not count_only,
                                                      y2_range=(D / C ** 2 * 0.99, C * 1.01),
                                                      inner=columns.pop(m2))
                    n_built += 1
                # sub-eps terms only need absolute accuracy, so the relative
                # cancellation guard is suppressed; the contribution filter
                # drops anything below the outer sums' roundoff floor
                y2s = np.array(y2_args)
                ws = w_mellin_fixed_d(caches[key], y2s, _no_guard=True)
                floors = mellin_outer_noise_log(caches[key], y2s).tolist()
            else:
                ws = floors = []
            coef = None
            hit = False
            for (cos1, cos2, _), w, floor_log in zip(jobs, ws, floors):
                # contributes only when above the accuracy goal AND clear
                # of the backend's roundoff floor
                if w.log_abs() >= max(log_eps, floor_log + 2.0):
                    hit = True
                    if coef is None and not count_only:
                        coef = f.coefficient(m1, m2)
                if coef is not None:
                    weight = 4.0 * coef / (m1 * m2) * cos1 * cos2
                    terms.append(weight * w.to_complex(extra_log=-shift))
            if hit:
                max_m2 = max(max_m2, m2)
                max_m1 = max(max_m1, m1)
                m2_misses = 0
                m1_hit = True
            else:
                m2_misses += 1
                if m2_misses >= 4 and m2y2 > C:
                    break
        if m1_hit:
            m1_misses = 0
        else:
            m1_misses += 1
            if m1_misses >= 2 and m1y1 > C:
                break

    value = complex(math.fsum(t.real for t in terms),
                    math.fsum(t.imag for t in terms))
    stats = MaassEvalStats(cutoff=C, max_contributing_m2=max_m2, max_m1=max_m1,
                           n_terms=len(terms), n_caches=len(caches),
                           n_caches_built=n_built)
    return value, stats


def eval_maass(f: MaassForm, z: H3Point, backend: str = "mellin") -> complex:
    """f(z) by the truncated even cosine expansion (see
    eval_maass_report)."""
    value, _ = eval_maass_report(f, z, backend=backend)
    return value


def coefficient_demand(p: LanglandsParams, z: H3Point, eps: float) -> MaassEvalStats:
    """How many coefficients an evaluation at z would need: runs the
    truncation walk without touching any coefficient table and reports the
    largest contributing m2 (and m1)."""
    form = MaassForm(params=p, coeff_fn=lambda m1, m2: 1.0, eps=eps)
    _, stats = eval_maass_report(form, z, backend="mellin", count_only=True)
    return stats


def automorphy_residual(f: MaassForm, z: H3Point, word) -> float:
    """|f(z) - f(w . z)| for a word w over the generators; near zero for a
    genuine automorphic form."""
    g = word_matrix(word)
    if np.array_equal(g, np.eye(3, dtype=np.int64)):
        return 0.0
    z_moved = iwasawa_act(g, z)
    v1 = eval_maass(f, z)
    v2 = eval_maass(f, z_moved)
    return abs(v1 - v2)
