"""Complex log-gamma, gamma-ratio products, Pochhammer symbols, and the
K-Bessel function of purely imaginary order.

The K-Bessel function has two independent backends:

* backend A integrates ``K_mu(x) = int_0^inf exp(-x cosh t) cos(|mu| t) dt``
  (real for imaginary order) with the trapezoid rule.  When the order is
  large compared to the argument, the same integral is evaluated on the
  Cauchy-equivalent horizontal contour ``t = s + i*theta``; this pulls the
  exp(-pi|mu|/2) amplitude out as an explicit prefactor instead of losing
  it to cancellation between O(1) samples.  ``bessel_k_scaled`` and
  ``bessel_k_prime_scaled`` take one order and a scalar or a 1-D array of
  arguments: every argument gets its own truncation and its own choice of
  rule, the samples of one rule form one (arguments x nodes) array, and
  each argument's samples are reduced on their own, within an ulp of
  their exact sum (see _half_line_sums and the README).

* backend B inverts the Mellin transform
  ``4 K_mu(2 pi y) = (1/2 pi i) int Gamma((s+mu)/2) Gamma((s-mu)/2) (pi y)^-s ds``
  on a vertical line, through the quadrature module.

Both backends are kept live and are cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError, PoleError, UnderflowError
from .scaled import ScaledArray, ScaledComplex

__all__ = [
    "GammaRatioSpec",
    "BesselOrder",
    "log_gamma",
    "gamma_ratio",
    "pochhammer",
    "bessel_k",
    "bessel_k_prime",
    "bessel_k_scaled",
    "bessel_k_prime_scaled",
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


@dataclass(frozen=True)
class GammaRatioSpec:
    """Product of gamma values over a product of gamma values.

    Empty lists are allowed; the empty ratio is 1.
    """

    numerators: tuple = field(default_factory=tuple)
    denominators: tuple = field(default_factory=tuple)

    def __init__(self, numerators: Sequence[complex] = (), denominators: Sequence[complex] = ()):
        object.__setattr__(self, "numerators", tuple(complex(v) for v in numerators))
        object.__setattr__(self, "denominators", tuple(complex(v) for v in denominators))


def gamma_ratio(spec: GammaRatioSpec) -> ScaledComplex:
    """Evaluate Gamma(a_1)...Gamma(a_n) / (Gamma(b_1)...Gamma(b_k)) in
    scaled form.

    A pole in a numerator raises PoleError; a pole in a denominator makes
    the ratio exactly zero.
    """
    for b in spec.denominators:
        n = min(round(b.real), 0)
        if abs(b - n) < _POLE_TOL:
            return ScaledComplex.zero()
    total = 0j
    for a in spec.numerators:
        total += log_gamma(a)
    for b in spec.denominators:
        total -= log_gamma(b)
    return ScaledComplex.from_log(total)


def pochhammer(x: complex, n: int) -> complex:
    """Rising factorial x (x+1) ... (x+n-1); equals 1 for n = 0."""
    if n < 0:
        raise ValueError("pochhammer order must be a natural number")
    out = 1 + 0j
    x = complex(x)
    for k in range(n):
        out *= x + k
    return out


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


# Ratio log(max integrand / result) above which the plain real-axis rule
# loses too many digits and the shifted contour takes over.
_SHIFT_THRESHOLD = 8.0
# Contour sits at theta = pi/2 - _SHIFT_MARGIN/m, keeping the residual
# cancellation on the shifted line near exp(_SHIFT_MARGIN).
_SHIFT_MARGIN = 2.0
# log(1/eps) style truncation depth for the integrand tails.
_TAIL_LOG = 46.0


def _half_line_sums(g: np.ndarray, n: np.ndarray, h: float) -> np.ndarray:
    """h * (g[i, 0] / 2 + g[i, 1] + ... + g[i, n[i]]) for every row i: the
    trapezoid sum of an even integrand from its samples at s >= 0.  g has
    more than n.max() + 1 columns; later columns are ignored.

    Each row is reduced over its own samples only (np.add.reduceat on its
    segment), so its sum does not depend on the other rows.  The reduction
    is error-free up to the last rounding (the extraction step of AccSum,
    Rump, Ogita & Oishi 2008): with sigma a power of two of at least
    2 (n + 2) max|g|, q = (sigma + g) - sigma is g on a grid where sum(q)
    is exact in any order, r = g - q is exact (|r| <= u sigma <=
    4 (n + 2) u max|g|), and numpy's pairwise sum of r adds at most about
    4 (n + 2)^2 ceil(log2 n) u^2 max|g|.
    """
    rows, width = g.shape
    g[:, 0] *= 0.5
    seg = np.empty(2 * rows, dtype=np.int64)
    seg[0::2] = np.arange(rows) * width
    seg[1::2] = seg[0::2] + n + 1
    amax = np.maximum.reduceat(np.abs(g).ravel(), seg)[0::2]
    sigma = np.ldexp(2.0, np.frexp(amax * (n + 2.0))[1])[:, None]
    q = (sigma + g) - sigma
    r = g - q
    return h * (np.add.reduceat(q.ravel(), seg)[0::2] + np.add.reduceat(r.ravel(), seg)[0::2])


def _bessel_plain(m: float, x: np.ndarray, derivative: bool) -> tuple[np.ndarray, np.ndarray]:
    """Real-axis trapezoid sums for K_{im}(x), as (mantissa, log scale)
    with the scale exp(-x) pulled out.

    Integrand exp(-x(cosh t - 1)) cos(m t) decays doubly exponentially;
    uniform step h = min(1/64, 1/(4m)) resolves the cosine.  Near t = 0
    the envelope is exp(-x t^2 / 2), whose trapezoid sums are off by about
    2 exp(-2 pi^2 / (x h^2)); the step is halved for each factor 4 by
    which x exceeds the point where that error reaches e^-_TAIL_LOG, so
    every argument has its own step and the rows of one step are summed
    together.
    """
    h = 1.0 / 64.0
    if m > 0:
        h = min(h, 1.0 / (4.0 * m))
    x_resolved = 2.0 * math.pi ** 2 / (_TAIL_LOG * h * h)
    if x.max() <= x_resolved:
        return _bessel_plain_sums(m, x, derivative, h), -x
    halvings = np.maximum(0.0, np.ceil(0.5 * np.log2(x / x_resolved)))
    mantissa = np.empty(x.shape)
    for k in np.unique(halvings):
        rows = halvings == k
        mantissa[rows] = _bessel_plain_sums(m, x[rows], derivative, h * 0.5 ** k)
    return mantissa, -x


def _bessel_plain_sums(m: float, x: np.ndarray, derivative: bool, h: float) -> np.ndarray:
    """The mantissas of _bessel_plain for arguments that share the step h."""
    t_max = np.arccosh(1.0 + (_TAIL_LOG + 4.0) / x)
    n = np.ceil(t_max / h).astype(np.int64) + 2
    t = np.arange(n.max() + 2) * h
    # cosh t - 1 as 2 sinh(t/2)^2: the subtraction would leave an absolute
    # error of u in the exponent's factor, x u in the exponent
    g = np.exp(-x[:, None] * (2.0 * np.sinh(0.5 * t) ** 2)) * np.cos(m * t)
    if derivative:
        g = -np.cosh(t) * g
    return _half_line_sums(g, n, h)


def _bessel_shifted(m: float, x: np.ndarray, derivative: bool) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid sums for K_{im}(x) on the line Im t = theta < pi/2, as
    (mantissa, log scale).

    K_{im}(x) = (1/2) int_R exp(-x cosh t + i m t) dt; pushing the whole
    line up to t = s + i theta multiplies the integrand by exp(-m theta)
    and leaves the envelope exp(-x cos(theta) cosh s), which removes the
    exp(-pi m / 2) cancellation of the real-axis form.  The imaginary part
    of the line integral vanishes and the real part of the integrand is
    even in s, so only Re of the s >= 0 half is summed.
    """
    eps = _SHIFT_MARGIN / m
    cos_t = math.sin(eps)   # cos(theta) for theta = pi/2 - eps
    sin_t = math.cos(eps)
    xc = x * cos_t
    s_max = np.arccosh(1.0 + (_TAIL_LOG + 6.0) / xc)
    # aliasing bound: shifting the line by iv maps theta -> theta + v, so
    # |f| <= exp(-m v) for 0 < v < eps and <= exp(m|v|) below; the step
    # must beat both exp(-(2 pi/h) 0.9 eps) and exp(-(2 pi/h - m) * 1)
    h = min(1.0 / 64.0, eps / 10.0, 2.0 * math.pi / (m + _TAIL_LOG + 10.0))
    n = np.ceil(s_max / h).astype(np.int64) + 2
    s = np.arange(n.max() + 2) * h
    sinh_s = np.sinh(s)
    phase = m * s - (x * sin_t)[:, None] * sinh_s
    g = np.exp(-xc[:, None] * (2.0 * np.sinh(0.5 * s) ** 2))
    if derivative:
        # Re of -(cosh s cos theta + i sinh s sin theta) e^{i phase}
        g = -g * (np.cosh(s) * cos_t * np.cos(phase) - sinh_s * sin_t * np.sin(phase))
    else:
        g = g * np.cos(phase)
    return _half_line_sums(g, n, h), -m * (0.5 * math.pi - eps) - xc


def _bessel_backend_a(mu, x, derivative: bool):
    order = _as_order(mu)
    xs = np.asarray(x, dtype=np.float64)
    if xs.ndim > 1:
        raise ValueError(f"K-Bessel argument must be a scalar or 1-D array, got shape {xs.shape}")
    flat = xs.reshape(-1)
    # NaN fails the first test, inf the second
    if not (flat.min() > 0.0 and flat.max() < math.inf):
        bad = flat[~((flat > 0.0) & np.isfinite(flat))]
        raise DomainError(f"K-Bessel argument must be positive, got {bad[0]}")
    m = order.t
    shifted = (m > 4.0) & (0.5 * math.pi * m - flat > _SHIFT_THRESHOLD)
    n_shifted = np.count_nonzero(shifted)
    if n_shifted in (0, flat.size):
        rule = _bessel_shifted if n_shifted else _bessel_plain
        out = ScaledArray(*rule(m, flat, derivative))
    else:
        mantissa = np.empty(flat.shape)
        log_scale = np.empty(flat.shape)
        for rule, rows in ((_bessel_shifted, shifted), (_bessel_plain, ~shifted)):
            mantissa[rows], log_scale[rows] = rule(m, flat[rows], derivative)
        out = ScaledArray(mantissa, log_scale)
    return out if xs.ndim else out.item(0)


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
    return _bessel_backend_a(mu, x, derivative=False)


def bessel_k_prime_scaled(mu, x):
    """d/dx K_mu(x) in scaled form, from the differentiated integrand;
    takes x like bessel_k_scaled."""
    return _bessel_backend_a(mu, x, derivative=True)


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


def bessel_k_mellin(mu, x: float, h: float = 0.125, sigma: float | None = None) -> float:
    """K_mu(x) through the vertical-line inverse Mellin transform
    (backend B; independent of the cosh-integral backend).

    The line Re s = sigma defaults to max(2, x - |mu|), which keeps the
    largest term of the sum near the size of the result: for |mu| >= x the
    line wants to hug the pole lines, while for x >> |mu| it moves right
    toward the saddle of Gamma(s/2)^2 (x/2)^(-s).
    """
    from .quadrature import QuadratureGrid, inverse_mellin_line

    order = _as_order(mu)
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"K-Bessel argument must be positive, got {x}")
    if sigma is None:
        sigma = max(2.0, float(x) - order.t)
    mu_c = order.mu

    def transform(s: np.ndarray) -> ScaledArray:
        return ScaledArray.from_log(_log_gamma_array((s + mu_c) / 2.0)
                                    + _log_gamma_array((s - mu_c) / 2.0))

    # plateau of the gamma product extends to |t| ~ 2|mu|; beyond it the
    # terms decay like exp(-pi(|t|-2m)/4) per gamma pair
    m = order.t
    peak = float(transform(np.array([complex(sigma)])).log_abs()[0])
    n_max = int((2.0 * m + 4.0 * (_TAIL_LOG + 8.0) / math.pi + 20.0) / h) + 8
    grid = QuadratureGrid(h=h, sigma=sigma, N=n_max,
                          stop_threshold=math.exp(peak - _TAIL_LOG - 6.0),
                          stop_run=8)
    # 4 K_mu(2 pi y) = (1/2 pi i) int GG (pi y)^(-s) ds, so the plain
    # y^(-s) line sum is called at pi y = x/2
    val = inverse_mellin_line(transform, x / 2.0, grid)
    return 0.25 * val.to_complex().real
