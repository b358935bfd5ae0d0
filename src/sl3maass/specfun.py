"""Complex log-gamma, gamma-ratio products, and the K-Bessel function of
purely imaginary order.

The K-Bessel function has two independent backends:

* backend A integrates ``K_mu(x) = (1/2) int_R exp(-x cosh t + i|mu| t) dt``
  (real for imaginary order) with the trapezoid rule on the real axis,
  or, where its samples would cancel by more than e^8 against K's
  envelope, with Gauss-Legendre sums along the steepest-descent contours
  through the saddles of the integrand: their samples do not oscillate,
  and the exp(-pi|mu|/2) amplitude comes out as an explicit scale instead
  of being lost to cancellation between O(1) samples.
  ``bessel_k_scaled`` and ``bessel_k_prime_scaled`` (or both at once,
  ``bessel_k_pair_scaled``) take one order and a scalar or a 1-D array of
  arguments: every argument gets its own truncation and rule key (the
  contour, or the axis and its step), the samples of one key form
  (arguments x nodes) arrays of at most _LINE_ARGS arguments, and each
  argument's samples are reduced on their own, within an ulp of their
  exact sum (see _bessel_line, _bessel_contour, _row_sums and the README).

* backend B inverts the Mellin transform
  ``4 K_mu(2 pi y) = (1/2 pi i) int Gamma((s+mu)/2) Gamma((s-mu)/2) (pi y)^-s ds``
  on a vertical line, through the quadrature module.

Both backends are kept live and are cross-checked in the test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, PoleError, UnderflowError
from .scaled import ScaledArray, ScaledComplex

__all__ = [
    "BesselOrder",
    "log_gamma",
    "gamma_ratio",
    "bessel_k",
    "bessel_k_prime",
    "bessel_k_scaled",
    "bessel_k_prime_scaled",
    "bessel_k_pair_scaled",
    "bessel_k_mellin",
]

_LOG_2PI = math.log(2.0 * math.pi)
_POLE_TOL = 1e-12

# B_{2k} / (2k (2k-1)): coefficients of the Stirling series for log Gamma.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
    -174611.0 / 125400.0,
)

# Upward recursion shifts arguments at least this far right before the
# asymptotic series is applied; at |z| >= 12 the truncation error of the
# ten-term series is below 1e-20.
_STIRLING_EDGE = 12.0


def _pole_distance(z: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest non-positive integer."""
    n = np.minimum(np.round(z.real), 0.0)
    return np.abs(z - n)


def _log_gamma_array(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128)
    if np.any(_pole_distance(z) < _POLE_TOL):
        raise PoleError("log_gamma evaluated at a non-positive integer")
    w = z.copy()
    acc = np.zeros(z.shape, dtype=np.complex128)
    # shift every argument to Re >= _STIRLING_EDGE
    while True:
        mask = w.real < _STIRLING_EDGE
        if not mask.any():
            break
        acc[mask] += np.log(w[mask])
        w[mask] += 1.0
    r = 1.0 / w
    r2 = r * r
    s = np.zeros(z.shape, dtype=np.complex128)
    for c in reversed(_STIRLING):
        s = (s + c) * r2
    s /= r  # sum c_k / w^(2k-1)
    return (w - 0.5) * np.log(w) - w + 0.5 * _LOG_2PI + s - acc


def log_gamma(s):
    """log Gamma(s) for complex s (scalar or ndarray), exp-accurate to
    ~1e-14 relative for |s| <= 50.

    Computed with the Stirling asymptotic series after upward recursion
    into Re(s) >= 12.  The result is the branch obtained by subtracting
    the logs of the recursion factors; its exponential always equals
    Gamma(s).

    Raises PoleError within 1e-12 of a non-positive integer.
    """
    if isinstance(s, np.ndarray):
        return _log_gamma_array(s)
    return complex(_log_gamma_array(np.asarray([s]))[0])


def gamma_ratio(numerators: Sequence[complex],
                denominators: Sequence[complex] = ()) -> ScaledComplex:
    """Evaluate Gamma(a_1)...Gamma(a_n) / (Gamma(b_1)...Gamma(b_k)) in
    scaled form; the empty ratio is 1.

    A pole in a numerator raises PoleError; a pole in a denominator makes
    the ratio exactly zero.
    """
    numerators = [complex(a) for a in numerators]
    denominators = [complex(b) for b in denominators]
    for b in denominators:
        n = min(round(b.real), 0)
        if abs(b - n) < _POLE_TOL:
            return ScaledComplex.zero()
    total = 0j
    for a in numerators:
        total += log_gamma(a)
    for b in denominators:
        total -= log_gamma(b)
    return ScaledComplex.from_log(total)


# ---------------------------------------------------------------------------
# K-Bessel function of imaginary order
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BesselOrder:
    """Order mu of K_mu; must be purely imaginary (|Re mu| <= 1e-12)."""

    mu: complex

    def __post_init__(self):
        mu = complex(self.mu)
        if abs(mu.real) > 1e-12:
            raise DomainError(f"K-Bessel order must be purely imaginary, got {mu}")
        object.__setattr__(self, "mu", mu)

    @property
    def t(self) -> float:
        """|Im mu|; K is even in the order."""
        return abs(self.mu.imag)


def _as_order(mu) -> BesselOrder:
    if isinstance(mu, BesselOrder):
        return mu
    return BesselOrder(complex(mu))


# log of the real axis's cancellation, -(env + x): its samples reach e^-x and K's
# envelope is e^env (_k_envelope).  Above it the steepest-descent contour takes over.
_SHIFT_THRESHOLD = 8.0
_LINE_ARGS = 100  # most arguments of one _bessel_line call: bounds its arrays
# log(1/eps) style truncation depth for the integrand tails.
_TAIL_LOG = 46.0
# (power, nodes) of the Gauss-Legendre rule on a steepest-descent branch
# for K and for K' (see _bessel_contour).
_BRANCH_RULES = ((2, 40), (4, 56))


def _row_sums(g: np.ndarray, n: np.ndarray) -> np.ndarray:
    """g[i, 0] + ... + g[i, n[i] - 1] for every row i.  g has more than
    n.max() columns; later columns are ignored, and g is overwritten.

    Each row is reduced over its own samples only (np.add.reduceat on its
    segment), so its sum does not depend on the other rows.  The reduction
    is error-free up to the last rounding (the extraction step of AccSum,
    Rump, Ogita & Oishi 2008): with sigma a power of two of at least
    2 (n + 1) max|g|, q = (sigma + g) - sigma is g on a grid where sum(q)
    is exact in any order, r = g - q is exact (|r| <= u sigma <=
    4 (n + 1) u max|g|), and numpy's pairwise sum of r adds at most about
    4 (n + 1)^2 ceil(log2 n) u^2 max|g|.  One temporary array holds |g| and
    then q; r is written into g.
    """
    rows, width = g.shape
    seg = np.empty(2 * rows, dtype=np.int64)
    seg[0::2] = np.arange(rows) * width
    seg[1::2] = seg[0::2] + n
    buf = np.abs(g)
    amax = np.maximum.reduceat(buf.ravel(), seg)[0::2]
    sigma = np.ldexp(2.0, np.frexp(amax * (n + 1.0))[1])[:, None]
    np.add(sigma, g, out=buf)
    buf -= sigma
    g -= buf
    return np.add.reduceat(buf.ravel(), seg)[0::2] + np.add.reduceat(g.ravel(), seg)[0::2]


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes in (0, 1) and weights (summing to 1) of the n-point
    Gauss-Legendre rule, within about 1e-16, by Newton's method on the
    three-term recurrence.  numpy's leggauss weights, up to ~1e-12 off,
    left _bessel_contour's segment ~3e-14 off at phases of ~50 radians."""
    x = np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(6):  # quadratic convergence from an O(1/n^2) start
        p0, p1 = np.ones(n), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return _read_only(0.5 - 0.5 * x, 1.0 / ((1.0 - x * x) * dp * dp))


def _k_envelope(m: float, x: np.ndarray) -> np.ndarray:
    """log of K_{im}(x)'s envelope: -pi m/2 for x <= m, -sqrt(x^2 - m^2) - m asin(m/x) beyond."""
    return -m * np.arcsin(np.minimum(m / x, 1.0)) - np.sqrt(np.maximum((x - m) * (x + m), 0.0))


def _bessel_contour(m: float, x: np.ndarray,
                    derivatives: tuple[bool, ...]) -> tuple[list[np.ndarray], np.ndarray]:
    """K_{im}(x) and/or K' (a mantissa array per entry of derivatives,
    sharing all but the branch rule) and the log scale, from Gauss-Legendre sums
    along steepest-descent contours (Gil, Segura & Temme, ACM TOMS 30
    (2004), Algorithm 831).  K = Re int exp(f) dt from the imaginary axis
    to +inf, f = -x cosh t + i m t.  With A = sqrt(max(m^2 - x^2, 0)),
    c = max(m, x), mu = asinh(A/x) and psi = m mu - A, the branch
    t = mu + s + i v, s >= 0, sin v = (A + m s) / (A cosh s + c sinh s),
    keeps Im f = psi, and Re f = -(c cosh s + A sinh s) cos v - m v falls
    from its value at the saddle (i asin(m/x) for x >= m, mu + i pi/2 for
    x < m), the log scale env (_k_envelope).  It is used where env + x <
    -8: below pi m/2 - 8, and past x = m below x* (24.21 at m = 19.07, 101.4
    at m = 40).  For x < m the segment from i pi/2 to the saddle adds
    int_0^mu cos(m s - x sinh s) ds (K; sinh s sin(...) for K') at the
    scale exp(-pi m/2); its phase rises from 0 to psi.  The
    branch's dt/ds = 1 + i v' and K''s factor -cosh t are algebraic in
    cos v, sin v, cosh s and sinh s: no branch sample takes a cosine.

    * The branch ends at L = log(2 _TAIL_LOG/m + pi), the largest over the
      contour's arguments (at x = m) of the s where (c + A) e^s / 2 reaches
      _TAIL_LOG - log scale: the samples there are below e^-43 of the
      saddle's (checked for 4 <= m <= 400), and all arguments share the
      nodes (_branch_grid).  It takes n nodes in xi, s = L xi^p, with
      (p, n) from _BRANCH_RULES: as the saddles merge at x = m, the
      samples change on the scale sqrt(6 |1 - m/x|) near s = 0.  K's stay
      smooth there to second order; cosh t gives K''s a rounded corner of
      area ~|1 - m/x|, and p = 4 puts a dozen nodes inside it for every
      |1 - m/x| >= 1e-12.
    * The segment takes n = 8 ceil((psi/2 + 14)/8) nodes: the rule is exact
      to degree 2n - 1, cos of a phase rising by psi needs degree ~psi,
      and the margin left its error below 3e-15 for m <= 200, x >= 3e-4 m.
      Multiples of 8 bound the node sets of one call.  Rounding its phase,
      u psi per node, sets the floor of the accuracy (see the README).
    """
    a = np.sqrt(np.maximum((m - x) * (m + x), 0.0))[:, None]
    c = np.maximum(m, x)[:, None]
    mu = np.arcsinh(a / x[:, None])
    psi = m * mu - a
    log_scale = _k_envelope(m, x)
    k = np.where(x < m, np.ceil((0.5 * psi[:, 0] + 14.0) / 8.0), 0.0).astype(np.int64)
    # row j: the 8j-node segment rule, padded with zero weights
    rules = np.zeros((2, k.max() + 1, 8 * k.max()))
    for j in set(k.tolist()) - {0}:
        rules[:, j, :8 * j] = _gauss_legendre(8 * j)
    t, wt = rules[:, k]
    t *= mu
    sinh_t = np.sinh(t)
    phase = m * t - x[:, None] * sinh_t
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)
    sums = []
    for derivative in derivatives:
        ms, ws, sh, ch, hh, mshs, mscs = _branch_grid(m, derivative)
        d = a * ch + c * sh
        ams = a + ms
        # r = D cos v: 1 - sin v = (A (cosh s - 1) + (c - m) sinh s
        # + m (sinh s - s)) / D holds no cancellation
        r = np.sqrt((a * hh + (c - m) * sh + mshs) * (d + ams))
        q = (c * ch + a * sh) * r / d
        g = np.exp(-q - m * np.arctan2(ams, r) - log_scale[:, None])
        dv = (c * mscs - a * sh * ams) / (d * r)
        if derivative:
            g *= (sin_psi * (ams + dv * q) - cos_psi * (q - dv * ams)) / x[:, None]
        else:
            g *= cos_psi - dv * sin_psi
        nb = len(ms)
        out = np.zeros((len(x), nb + t.shape[1] + 1))
        np.multiply(g, ws, out=out[:, :nb])
        f = sinh_t * np.sin(phase) if derivative else np.cos(phase)
        np.multiply(f, mu * wt, out=out[:, nb:-1])
        sums.append(_row_sums(out, nb + 8 * k))
    return sums, log_scale


@functools.lru_cache(maxsize=64)
def _branch_grid(m: float, derivative: bool) -> tuple[np.ndarray, ...]:
    """The branch rule of _bessel_contour at order m: m s at the nodes
    s = L xi^p, their weights, sinh s, cosh s, cosh s - 1, m (sinh s - s)
    and m (sinh s - s cosh s)."""
    p, n = _BRANCH_RULES[derivative]
    xi, w = _gauss_legendre(n)
    span = math.log(2.0 * _TAIL_LOG / m + math.pi)
    s = span * xi ** p
    sh = np.sinh(s)
    # sinh s - s from its series where the subtraction cancels, cosh s - 1
    # as 2 sinh(s/2)^2
    series = sum(s ** (2 * k + 3) / math.factorial(2 * k + 3) for k in range(7))
    shs, hh = np.where(s < 0.5, series, sh - s), 2.0 * np.sinh(0.5 * s) ** 2
    return _read_only(m * s, p * span * xi ** (p - 1) * w, sh, np.cosh(s), hh, m * shs,
                      m * (shs - s * hh))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: a memoized result is shared by every caller."""
    for v in arrays:
        v.flags.writeable = False
    return arrays


def _bessel_line(m: float, x: np.ndarray, derivatives: tuple[bool, ...], key: int,
                 h: float) -> tuple[list[np.ndarray], np.ndarray]:
    """K_{im}(x) and/or K' (a mantissa array per entry of derivatives) and
    the log scale, by the rule of one key: key < 0 is the steepest-descent
    contour (_bessel_contour); key k >= 0 is the trapezoid rule for
    K_{im}(x) = int_0^inf exp(-x cosh s) cos(m s) ds on the real axis,
    with the step h halved k times and the log scale -x.

    The axis step 1/max(64, 4m) resolves cos(m t); it is halved once for
    each factor 4 by which x exceeds the point where the trapezoid error of
    the envelope exp(-x t^2 / 2) near t = 0, about
    2 exp(-2 pi^2 / (x h^2)), reaches e^-_TAIL_LOG (see _bessel_backend_a).
    """
    if key < 0:
        return _bessel_contour(m, x, derivatives)
    h = h * 0.5 ** key
    n = np.ceil(np.arccosh(1.0 + (_TAIL_LOG + 4.0) / x) / h).astype(np.int64) + 2
    s = np.arange(n.max() + 2) * h
    # cosh s - 1 as 2 sinh(s/2)^2: the subtraction would leave an absolute
    # error of u in the exponent's factor, x u in the exponent
    g = np.exp(-x[:, None] * (2.0 * np.sinh(0.5 * s) ** 2))
    # in place: a fresh (arguments x nodes) array costs more than its products
    g *= np.cos(m * s)
    # K''s samples are K's times -cosh s, in place unless K's are summed too
    if True in derivatives:
        kp = np.multiply(g, -np.cosh(s), out=None if False in derivatives else g)
    samples = [kp if derivative else g for derivative in derivatives]
    for v in samples:
        v[:, 0] *= 0.5
    return [h * _row_sums(v, n + 1) for v in samples], -x


def _bessel_backend_a(mu, x, derivatives: tuple[bool, ...]):
    order = _as_order(mu)
    xs = np.asarray(x, dtype=np.float64)
    if xs.ndim > 1:
        raise ValueError(f"K-Bessel argument must be a scalar or 1-D array, got shape {xs.shape}")
    flat = xs.reshape(-1)
    if not flat.size:
        return tuple(ScaledArray(np.zeros(0), np.zeros(0)) for _ in derivatives)
    # NaN fails the first test, inf the second
    if not (flat.min() > 0.0 and flat.max() < math.inf):
        bad = flat[~((flat > 0.0) & np.isfinite(flat))]
        raise DomainError(f"K-Bessel argument must be positive, got {bad[0]}")
    m = order.t
    # rule key per argument (see _bessel_line): -1, or axis step halvings
    h = 1.0 / max(64.0, 4.0 * m)
    x_resolved = 2.0 * math.pi ** 2 / (_TAIL_LOG * h * h)
    keys = np.maximum(0.0, np.ceil(0.5 * np.log2(flat / x_resolved)))
    keys[_k_envelope(m, flat) + flat < -_SHIFT_THRESHOLD] = -1.0
    if keys.min() == keys.max() and len(flat) <= _LINE_ARGS:
        # one call for every argument, as in every scalar call: no scatter
        mantissas, log_scale = _bessel_line(m, flat, derivatives, int(keys[0]), h)
    else:
        mantissas = np.empty((len(derivatives),) + flat.shape)
        log_scale = np.empty(flat.shape)
        for key in sorted(set(keys.tolist())):
            rows = np.flatnonzero(keys == key)
            for part in (rows[i:i + _LINE_ARGS] for i in range(0, len(rows), _LINE_ARGS)):
                mantissas[:, part], log_scale[part] = _bessel_line(m, flat[part], derivatives,
                                                                   int(key), h)
    if not xs.ndim:
        return tuple(ScaledComplex(complex(v[0]), float(log_scale[0])) for v in mantissas)
    return tuple(ScaledArray(v, log_scale) for v in mantissas)


def bessel_k_scaled(mu, x):
    """K_mu(x) for purely imaginary mu, in scaled form (backend A).

    x is a positive float or a 1-D array of them; a float gives a
    ScaledComplex, an array a ScaledArray of the same length.  Real-valued;
    exact magnitude is mantissa * exp(log_scale), which stays
    representable even deep in the exponential tail.  Every element is
    computed from its own samples, so an array call equals the elementwise
    scalar calls bit for bit.  Raises DomainError if any element is not
    positive and finite.
    """
    return _bessel_backend_a(mu, x, (False,))[0]


def bessel_k_prime_scaled(mu, x):
    """d/dx K_mu(x) in scaled form, from the differentiated integrand;
    takes x like bessel_k_scaled."""
    return _bessel_backend_a(mu, x, (True,))[0]


def bessel_k_pair_scaled(mu, x):
    """(K_mu(x), d/dx K_mu(x)) in scaled form from one call, taking x like
    bessel_k_scaled; both equal bessel_k_scaled and bessel_k_prime_scaled
    bit for bit.  The two sums share the rule keys, the truncation and, on
    the real axis, the samples (K''s are K's times -cosh s); on the contour
    they share the saddle geometry and the segment's phases."""
    return _bessel_backend_a(mu, x, (False, True))


# _KTable's first-kind Chebyshev nodes, barycentric weights (Berrut & Trefethen 2004)
_PANEL_THETA = math.pi * (np.arange(25) + 0.5) / 25.0
_PANEL_NODES, _PANEL_WEIGHTS = np.cos(_PANEL_THETA), np.sin(_PANEL_THETA) * (-1.0) ** np.arange(25)
_READ_ARGS = 2048  # most arguments one _KTable read interpolates at once: bounds its (x 25) arrays


class _KTable:
    """K_{im}(x) for w_stade: degree-24 interpolants in t = log x on panels
    [j w, (j+1) w], w = min(1/4, 5/m), through bessel_k_scaled at their
    Chebyshev points, which keep their samples' error: K(e^t) e^(e^t) is
    analytic for |Im t| < pi/2 and turns <= m radians per unit t (Trefethen,
    ATAP, ch. 8).  Panel j holds K e^x / exp(g_j - c_j): g_j the linear fit
    of env + x in [-pi m/2, 0] (env: _k_envelope), c_j its mean rounded up
    to a multiple of 256 (0 below m = 162).  A value's log scale is c_j - x,
    its rounding carried into the mantissa (TwoSum), and exp(g_j - c_j) >
    e^-256, so a product of two K stays normal.  Panels are built as reached,
    in one contiguous range, by one bessel_k_scaled call; a value depends on (m, x) alone."""

    def __init__(self, m: float):
        self.m, self.width, self.first = m, 5.0 / max(m, 20.0), 0
        # per panel: samples times exp(g_j's mean - c_j), g_j's half-rise, centre, c_j
        self.rows = np.empty((0, 28))

    def _build(self, panels: np.ndarray) -> np.ndarray:
        m, s = self.m, _PANEL_NODES
        ends = np.exp(np.concatenate([panels, panels + 1.0]) * self.width)
        g = (ends + _k_envelope(m, ends)).reshape(2, -1, 1)
        mean, rise = 0.5 * (g[0] + g[1]), 0.5 * (g[1] - g[0])
        centre = np.exp((panels[:, None] + 0.5) * self.width)
        x = centre * np.exp(0.5 * self.width * s)
        k = bessel_k_scaled(1j * m, x.ravel())
        f = k.mantissa.reshape(x.shape) * np.exp((k.log_scale.reshape(x.shape) + x - mean) - rise * s)
        shift = 256.0 * np.ceil(mean / 256.0)
        return np.concatenate([f * np.exp(mean - shift), rise, centre, shift], axis=1)

    def __call__(self, x: np.ndarray) -> ScaledArray:
        """K_{im}(x) for a 1-D array of positive arguments."""
        return ScaledArray(*self.read(x))

    def read(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """K_{im}(x) as (mantissa, log scale) arrays."""
        j = np.floor(np.log(x) / self.width)
        lo, hi = int(j.min()), int(j.max()) + 1
        first = self.first if len(self.rows) else lo
        last = first + len(self.rows)
        if lo < first or hi > last:
            new = self._build(np.concatenate([np.arange(lo, first), np.arange(last, hi)],
                                             dtype=float))
            cut = max(first - lo, 0)
            self.rows, self.first = np.concatenate([new[:cut], self.rows, new[cut:]]), min(lo, first)
        if x.size > _READ_ARGS:  # each argument reads its own panel, so parts keep its bits
            parts = [self.read(x[i:i + _READ_ARGS]) for i in range(0, x.size, _READ_ARGS)]
            return tuple(np.concatenate(part) for part in zip(*parts))
        rows = self.rows[j.astype(np.int64) - self.first]
        # from x / centre: an error u |log x| in t would be m u |log x| in K
        s = np.log(x / rows[:, 26]) * (2.0 / self.width)
        d = s[:, None] - _PANEL_NODES
        if not d.all():
            d[d == 0.0] = 1e-300  # an argument on a node reads its sample
        q = _PANEL_WEIGHTS / d
        p = np.einsum("ij,ij->i", q, rows[:, :25]) / q.sum(axis=1)
        scale = rows[:, 27] - x
        back = scale - rows[:, 27]
        lost = (rows[:, 27] - (scale - back)) - (x + back)  # TwoSum: c_j - x == scale + lost
        return p * np.exp(rows[:, 25] * s + lost), scale


# the _KTable of order m, shared by every w_stade call at that order
_bessel_k_table = functools.lru_cache(maxsize=8)(_KTable)


def _scaled_to_float(sc: ScaledComplex, mu, x: float) -> float:
    la = sc.log_abs()
    if la < -744.0:
        m = _as_order(mu).t
        raise UnderflowError(
            f"exp(pi|mu|/2) K scale exp({la + 0.5 * math.pi * m:.1f}) below binary64 "
            f"range at x={x:g}; use bessel_k_scaled")
    return sc.to_complex().real


def bessel_k(mu, x: float) -> float:
    """K_mu(x) for purely imaginary mu and x > 0, as a plain float.

    Raises UnderflowError once the value leaves binary64 range; the
    scaled variant has no such restriction.
    """
    return _scaled_to_float(bessel_k_scaled(mu, x), mu, x)


def bessel_k_prime(mu, x: float) -> float:
    """d/dx K_mu(x) as a plain float."""
    return _scaled_to_float(bessel_k_prime_scaled(mu, x), mu, x)


def bessel_k_mellin(mu, x: float) -> float:
    """K_mu(x) through the vertical-line inverse Mellin transform
    (backend B; independent of the cosh-integral backend).

    The line Re s = max(2, x - |mu|), with step 1/8, keeps the largest term
    of the sum near the size of the result: for |mu| >= x the line wants to
    hug the pole lines, while for x >> |mu| it moves right toward the
    saddle of Gamma(s/2)^2 (x/2)^(-s).  The sum runs over a node range
    fixed a priori by the decay of the gamma pair.
    """
    from .quadrature import QuadratureGrid, inverse_mellin_line

    order = _as_order(mu)
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"K-Bessel argument must be positive, got {x}")
    h, sigma = 0.125, max(2.0, float(x) - order.t)
    mu_c = order.mu

    def transform(s: np.ndarray) -> ScaledArray:
        return ScaledArray.from_log(_log_gamma_array((s + mu_c) / 2.0)
                                    + _log_gamma_array((s - mu_c) / 2.0))

    # plateau of the gamma product extends to |t| ~ 2|mu|; beyond it the
    # terms decay like exp(-pi(|t|-2m)/4) per gamma pair
    m = order.t
    n_max = int((2.0 * m + 4.0 * (_TAIL_LOG + 8.0) / math.pi + 20.0) / h) + 8
    grid = QuadratureGrid(h=h, sigma=sigma, N=n_max)
    # 4 K_mu(2 pi y) = (1/2 pi i) int GG (pi y)^(-s) ds, so the plain
    # y^(-s) line sum is called at pi y = x/2
    val = inverse_mellin_line(transform, x / 2.0, grid)
    return 0.25 * val.to_complex().real
