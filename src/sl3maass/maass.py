"""Maass-form evaluation from the even cosine Fourier expansion.

A form is specified by its spectral parameters, a Fourier coefficient
table A(m1, m2), and an accuracy goal eps.  Evaluation truncates the
expansion with the decay cutoff C (|scaled W| < eps once either argument
exceeds C), enumerates the coprime (c, d) pairs allowed by the annulus

    sqrt(m2 y2 / C) < |c z2 + d| < C / (m1 y1),

and serves all Whittaker values of one (m1, m2) pair from one fixed-D
cache, since D = (m1 y1)^2 m2 y2 is invariant along the (c, d) sum; one
batched call reads the values of a chunk of pairs the walk is certain to
visit.  The caches' inner sums are formed in waves: when the walk reaches
a D without a cache or column, one kernel product forms the columns of
the D of the same m1 up to the reach that the previous m1's largest
contributing D predicts.  When the form knows its reach from earlier
evaluations, the evaluation's first wave also forms the planned columns
of every later m1 with m1 y1 <= C, so a cold evaluation mostly makes one
product.  The columns wait in one store keyed like the caches, and a
wave forms no D already cached or stored.  Those D are (m1 y1)^2 m2 y2,
so a wave needs no (c, d) enumeration; the walk enumerates a pair only
on reaching it, and then wraps the column in a cache, or rules the D out
when its column bounds every term below the goal.
A pair's (c, d) are a radius slice of one memoized lattice per m1, whose
m2-free parts are formed once per m1; each chunk's terms are one array.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import (DegenerateLatticeError, DomainError,
                     MissingCoefficientError, NonConvergenceError)
from .langlands import LanglandsParams
from .whittaker import (build_fixed_d_cache, default_mellin_grid, mellin_kernel,
                        w_mellin_fixed_d, w_stade)

__all__ = [
    "H3Point",
    "MaassForm",
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


def word_matrix(word) -> np.ndarray:
    """The matrix of a word over the generators, letters separated by
    spaces or commas and applied left to right as a matrix product:
    "S1 S2 S1" means S1 @ S2 @ S1.  An unknown letter raises ValueError."""
    m = np.eye(3, dtype=np.int64)
    for tok in str(word).replace(",", " ").split():
        if tok not in GENERATORS:
            raise ValueError(f"unknown generator {tok!r}; allowed: {sorted(GENERATORS)}")
        m = m @ GENERATORS[tok]
    return m


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
_CUTOFF_BLOCK = 4  # levels per array w_stade call of the scan, sized by measurement (README)


def _cutoff_scan(p: LanglandsParams, eps: float) -> tuple[float, float]:
    """(C, peak_log): the decay cutoff and the peak log|W| seen on the
    scan.

    eps is relative to the function's own peak over the scanned region;
    an absolute threshold would be meaningless across the exp(pi|a-b|)
    scaling and parameter-dependent bulk size of W.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie strictly between 0 and 1, got {eps}")

    ys = [_CUTOFF_START * _CUTOFF_RATIO ** k for k in range(_CUTOFF_STEPS)]
    levels: list[float] = []

    def level(i: int) -> float:
        while len(levels) <= i:  # the next block of levels, in one w_stade call
            block = ys[len(levels):len(levels) + _CUTOFF_BLOCK]
            w = w_stade(p, (_CUTOFF_PROBES * len(block), np.repeat(block, len(_CUTOFF_PROBES))))
            logs = np.reshape([w.item(j).log_abs() for j in range(len(w))], (len(block), -1))
            levels.extend(logs.max(axis=1).tolist())
        return levels[i]

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


@functools.lru_cache(maxsize=1)
def _lattice(C: float, m1y1: float, x2: float, y2: float) -> tuple[tuple[int, int, float, float], ...]:
    """(c, d, t2, u) of the coprime (c, d), c >= 1, with
    |c z2 + d| < C / (m1 y1), in (c, d) order: t2 = |c z2 + d|^2 and
    u = a - (c x2 + d) / t2, a the inverse of d mod c.  One m1's pairs
    are radius slices of it.  The walk asks for one m1's lattice in
    consecutive calls, so the memo holds that one lattice."""
    upper = C / m1y1
    upper2 = upper * upper
    out = []
    c = 1
    while c * y2 < upper:
        height2 = (c * y2) ** 2
        span2 = upper2 - height2
        if span2 <= 0.0:
            break
        span = math.sqrt(span2)
        for d in range(math.ceil(-c * x2 - span), math.floor(-c * x2 + span) + 1):
            t2 = (c * x2 + d) ** 2 + height2
            if t2 < upper2 and math.gcd(c, abs(d)) == 1:
                out.append((c, d, t2, _inverse_mod(d, c) - (c * x2 + d) / t2))
        c += 1
    return tuple(out)


def enumerate_cd(C: float, m1y1: float, m2y2: float, z2: complex) -> list[tuple[int, int]]:
    """Coprime pairs (c, d), c >= 1, with
    sqrt(m2 y2 / C) < |c z2 + d| < C / (m1 y1); empty when the annulus is.

    Output is ordered by (c, d)."""
    if not (z2.imag > 0.0):
        raise ValueError("z2 must have positive imaginary part")
    lower2 = m2y2 / C
    return [(c, d) for c, d, t2, _ in _lattice(C, m1y1, z2.real, z2.imag) if t2 > lower2]


def _inverse_mod(d: int, c: int) -> int:
    """Smallest positive a with a d = 1 (mod c)."""
    if c == 1:
        return 1
    return pow(d % c, -1, c)


# ---------------------------------------------------------------------------
# the form and its evaluation
# ---------------------------------------------------------------------------

def _cache_key(D: float) -> float:
    """D rounded to 12 significant digits, ties to even."""
    return float(f"{D:.11e}")


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
    # fixed-D caches keyed by _cache_key(D), shared across its
    # evaluations; None marks a D ruled out (see eval_maass_report)
    cache_map: dict = field(default_factory=dict, init=False, repr=False)
    # its largest contributing D so far, which plans each evaluation's first waves
    reach_d: float | None = field(default=None, init=False, repr=False)
    # the None entries of cache_map, so that n_caches needs no recount
    _n_ruled_out: int = field(default=0, init=False, repr=False)

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
    n_caches_built counts the caches this evaluation built.  Both count
    built caches only; n_ruled_out counts the D it ruled out instead, and
    n_columns the kernel columns it formed.
    """

    cutoff: float
    max_contributing_m2: int
    max_m1: int
    n_terms: int
    n_caches: int
    n_caches_built: int
    n_ruled_out: int
    n_columns: int


def eval_maass_report(f: MaassForm, z: H3Point,
                      backend: str = "mellin",
                      count_only: bool = False) -> tuple[complex, MaassEvalStats]:
    """Truncated even cosine expansion at z, with evaluation statistics.

    backend selects the Whittaker engine: "mellin" (fixed-D caches, the
    default; waves of columns, one call per chunk of pairs, see the module
    docstring) or "stade" (direct double-Bessel integral).  A term
    contributes when its |W| clears both the accuracy goal and the
    backend's roundoff floor.  An m1 ends at four m2 in a row without a
    contributing term, the last with m2 y2 > C; the walk ends at two m1 in
    a row without one, the second with m1 y1 > C.  A(m1, m2) is fetched at
    its pair's first contributing term, and from then on every term of
    that pair is summed, contributing or not; the pair's earlier
    non-contributing terms are dropped.  Summing only the contributing
    terms would move values by about 1e-6 relative at eps 1e-8, away from
    the benchmark's stored form-orbit references, so the rule stays until
    those references change.

    A D without a cache is first bounded from its column
    (MellinKernel.column_bound) on the validation range [0.99 D/C^2,
    1.01 C], which holds the walk's y2.  A D whose bound lies below the
    goal can never contribute: the form marks it ruled out, and no
    evaluation builds, validates, queries or forms a column for it again.
    With count_only the coefficient table is never touched, caches get no
    y2_range and so are not validated, and the returned value is
    meaningless; only the statistics are valid, n_terms among them.  A
    full evaluation validates such a cache when it first meets it, from
    the cache's own inner sums, with no kernel product.
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
    x1, x2, x3, y1, y2 = z.x1, z.x2, z.x3, z.y1, z.y2
    z2 = z.z2

    caches = f.cache_map if backend == "mellin" else {}
    grid = default_mellin_grid(p, eps * 1e-2)
    n_before, ruled_before, n_columns = len(caches), f._n_ruled_out, 0

    two_pi = 2.0 * math.pi
    terms: list[np.ndarray] = []
    n_terms = 0
    max_m2 = 0
    max_m1 = 0
    reach_d = f.reach_d  # the previous m1's largest contributing D
    # kernel columns by _cache_key(D), formed by the evaluation's waves and
    # not yet wrapped in a cache; a known reach plans the first wave for every m1
    columns: dict[float, np.ndarray] = {}
    plan_ahead = reach_d is not None
    # ends by the m1 stop rule, as m1 past the lattice's reach have no terms
    for m1 in itertools.count(1):
        m1y1 = m1 * y1
        m2_cap = int(C ** 3 / (y2 * m1y1 * m1y1)) + 1
        # the m2-free parts of this m1's lattice points: t2, cos1 and u
        two_pi_m1 = two_pi * m1
        parts = {(c, d): (t2, math.cos(two_pi_m1 * (c * x3 + d * x1)), u)
                 for c, d, t2, u in _lattice(C, m1y1, x2, y2)}
        cos_x1 = math.cos(two_pi_m1 * x1)

        def jobs_of(m2: int) -> list[tuple[float, float, float]]:
            """(cos1, cos2, y2_arg) of every term of the (m1, m2) pair."""
            m2y2 = m2 * y2
            jobs = ([(cos_x1, math.cos(two_pi * m2 * x2), m2y2)]
                    if m1y1 <= C and m2y2 <= C else [])
            for c, d in enumerate_cd(C, m1y1, m2y2, z2):
                t2, cos1, u = parts[c, d]
                jobs.append((cos1, math.cos(two_pi * (m2 / c) * u), m2y2 / t2))
            return jobs

        # m2 per wave past the planned reach, or with none: 16, 32, then 64 each
        wave_sizes = itertools.chain((16, 32), itertools.repeat(64))
        # the m2 of reach_d and the stop rule's four after it, one more at
        # m1 = 1, whose reach_d was met at other points
        planned = 0 if reach_d is None else int(reach_d / (m1y1 * m1y1 * y2)) + 4 + (m1 == 1)
        hit_m2 = 0  # the last contributing m2 of this m1
        last = 0
        while last < m2_cap:
            # a chunk: the pairs the walk is certain to visit, every m2 with
            # m2 y2 <= C, then at least one more and on to hit_m2 + 4, the
            # first m2 where the stop rule can end this m1
            first = last + 1
            while last < m2_cap and (last + 1) * y2 <= C:
                last += 1
            last = min(m2_cap, max(last + 1, hit_m2 + 4))
            chunk = [(m2, jobs_of(m2)) for m2 in range(first, last + 1)]
            # contributes: above the accuracy goal and e^2 above any roundoff floor
            contributes, values = [], None
            if backend == "stade":
                y2s = [y for _, jobs in chunk for *_, y in jobs]
                y1s = [math.sqrt(m1y1 * m1y1 * (m2 * y2) / y) for m2, jobs in chunk for *_, y in jobs]
                values = w_stade(p, (y1s, y2s))
                contributes = (values.log_abs() >= log_eps).tolist()
            else:
                pair_caches, pair_y2s = [], []
                for i, (m2, jobs) in enumerate(chunk):
                    if not jobs:
                        continue
                    D = m1y1 * m1y1 * (m2 * y2)
                    key = _cache_key(D)
                    if key not in caches:
                        kernel = mellin_kernel(p, grid)
                        if key not in columns:
                            # a wave: one kernel product forms the columns of the D from
                            # m2 to the planned reach (or a wave size past it) and the
                            # chunk's end, less chunk pairs without terms; a first wave
                            # with a known reach adds every later m1 with m1 y1 <= C, up
                            # to where its stop rule can first end it.  A key in neither
                            # caches nor columns is formed once, at its first D
                            end = planned if m2 <= planned else m2 + next(wave_sizes) - 1
                            Ds = [m1y1 * m1y1 * (m * y2)
                                  for m in range(m2, min(max(end, last), m2_cap) + 1)
                                  if m > last or chunk[m - first][1]]
                            if plan_ahead:
                                for v in itertools.takewhile(lambda v: v <= C,
                                                             (k * y1 for k in itertools.count(m1 + 1))):
                                    stop = max(int(f.reach_d / (v * v * y2)) + 4, int(C / y2) + 1)
                                    Ds += [v * v * (m * y2)
                                           for m in range(1, min(stop, int(C ** 3 / (y2 * v * v)) + 1) + 1)]
                                plan_ahead = False
                            wave: dict[float, float] = {}
                            for D_m in Ds:
                                key_m = _cache_key(D_m)
                                if key_m not in caches and key_m not in columns:
                                    wave.setdefault(key_m, D_m)
                            columns.update(zip(wave, kernel.inner(list(wave.values())).T))
                            n_columns += len(wave)
                        y2_range = (D / C ** 2 * 0.99, C * 1.01)
                        column = columns.pop(key)
                        # a margin of 1e-6, far above the bound's rounding
                        if kernel.column_bound(D, column, y2_range) + 1e-6 < log_eps:
                            caches[key] = None
                            f._n_ruled_out += 1
                        else:
                            caches[key] = build_fixed_d_cache(
                                p, D, grid=grid, eps=math.exp(log_eps), inner=column,
                                y2_range=None if count_only else y2_range)
                    cache = caches[key]
                    if cache is None:  # ruled out: no term contributes, none is queried
                        chunk[i] = (m2, [])
                        continue
                    if cache.y2_range is None and not count_only:
                        # built by a count_only evaluation: validated now, from its own column
                        cache = caches[key] = build_fixed_d_cache(
                            p, cache.D, grid=grid, eps=math.exp(log_eps), inner=cache.inner,
                            y2_range=(cache.D / C ** 2 * 0.99, C * 1.01))
                    pair_caches.append(cache)
                    pair_y2s.append([y2_arg for _, _, y2_arg in jobs])
                if pair_caches:
                    # one batch: sub-eps terms need only absolute accuracy
                    values, floors = w_mellin_fixed_d(pair_caches, pair_y2s)
                    contributes = (values.log_abs() >= np.maximum(log_eps, floors + 2.0)).tolist()
            k = 0  # the chunk's running term index
            picked, weights = [], []
            for m2, jobs in chunk:
                coef = None  # 4 A(m1, m2) / (m1 m2), from the pair's first contributing term
                for cos1, cos2, _ in jobs:
                    if contributes[k]:
                        hit_m2 = m2
                        if coef is None:
                            coef = 0.0 if count_only else 4.0 * f.coefficient(m1, m2) / (m1 * m2)
                    if coef is not None:
                        n_terms += 1
                        if not count_only:
                            picked.append(k)
                            weights.append(coef * cos1 * cos2)
                    k += 1
                if hit_m2 == m2:
                    max_m2 = max(max_m2, m2)
                    max_m1 = m1
                elif m2 - hit_m2 >= 4 and m2 * y2 > C:
                    last = m2_cap  # the stop: no further pair of this m1
                    break
            if picked:  # the summed terms, mantissa e^(log_scale - shift)
                s = values.log_scale[picked] - shift
                if s.max() > 700.0:
                    raise OverflowError(f"scaled term overflows binary64 (log scale {s.max():.3g})")
                terms.append(np.array(weights) * (values.mantissa[picked] * np.exp(s)))
        reach_d = m1y1 * m1y1 * (hit_m2 * y2)
        f.reach_d = max(f.reach_d or 0.0, reach_d)
        if m1 - max_m1 >= 2 and m1y1 > C:
            break

    summed = np.concatenate(terms) if terms else np.zeros(0, dtype=complex)
    value = complex(math.fsum(summed.real.tolist()), math.fsum(summed.imag.tolist()))
    n_ruled_out = f._n_ruled_out - ruled_before
    stats = MaassEvalStats(cutoff=C, max_contributing_m2=max_m2, max_m1=max_m1,
                           n_terms=n_terms, n_ruled_out=n_ruled_out, n_columns=n_columns,
                           n_caches=len(caches) - (f._n_ruled_out if caches is f.cache_map else 0),
                           n_caches_built=len(caches) - n_before - n_ruled_out)
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
    form = MaassForm(params=p, eps=eps)
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
