"""Complex numbers carried with an explicit log-scale factor.

A ScaledComplex stores a value as ``mantissa * exp(log_scale)`` with the
mantissa normalized into [1/2, 1).  Products of many gamma values and
exponentially small Bessel factors stay representable this way even when
the represented quantity is far outside binary64 range.

Normalization scales the mantissa by an exact 2^-k and adds k ln 2 to the
natural-log scale.  A scale equal to the rounded k * ln 2 (as from_complex
gives) stands for exactly 2^k: products of such values stay on that lattice,
and sums and to_complex read it as powers of two, so from_complex(a)
.to_complex() == a for parts of size 0 or 2^-500 .. 2^500.  Other scales
go through exp.

A ScaledArray holds a 1-D array of such values (one log scale per
element) for the vectorized quadrature integrands.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["ScaledComplex", "ScaledArray", "scaled_sum"]

_LN2 = math.log(2.0)


def _pow2(s: float) -> int | None:
    """k when the scale s is the rounded product k * ln 2, else None."""
    k = round(s / _LN2)
    return k if k * _LN2 == s else None


@dataclass(frozen=True)
class ScaledComplex:
    """A complex value ``mantissa * exp(log_scale)``.

    After construction ``|mantissa|`` lies in [1/2, 1), or is exactly 0
    (in which case log_scale is 0).  log_scale is always finite.
    """

    mantissa: complex
    log_scale: float = 0.0

    def __post_init__(self):
        m = self.mantissa
        if m == 0:
            object.__setattr__(self, "mantissa", 0j)
            object.__setattr__(self, "log_scale", 0.0)
            return
        a = abs(m)
        if not math.isfinite(a) or not math.isfinite(self.log_scale):
            raise ValueError(f"non-finite scaled value: {m!r} * exp({self.log_scale!r})")
        k = math.frexp(a)[1]
        if k != 0:
            s, j = self.log_scale, _pow2(self.log_scale)
            object.__setattr__(self, "mantissa", complex(math.ldexp(m.real, -k), math.ldexp(m.imag, -k)))
            object.__setattr__(self, "log_scale", s + k * _LN2 if j is None else (j + k) * _LN2)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ScaledComplex":
        return ScaledComplex(0j, 0.0)

    @staticmethod
    def from_complex(value: complex) -> "ScaledComplex":
        return ScaledComplex(complex(value), 0.0)

    @staticmethod
    def from_log(w: complex) -> "ScaledComplex":
        """The value exp(w), with Re(w) absorbed into the scale."""
        w = complex(w)
        return ScaledComplex(cmath.exp(1j * w.imag), w.real)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0

    def log_abs(self) -> float:
        """log|value|, -inf for zero."""
        if self.is_zero:
            return -math.inf
        return math.log(abs(self.mantissa)) + self.log_scale

    def abs(self) -> float:
        """|value| as a plain float; may over/underflow to inf/0."""
        if self.is_zero:
            return 0.0
        la = self.log_abs()
        if la > 709.0:
            return math.inf
        if la < -745.0:
            return 0.0
        return math.exp(la)

    def to_complex(self, extra_log: float = 0.0) -> complex:
        """The value times exp(extra_log), as a plain complex."""
        if self.is_zero:
            return 0j
        s = self.log_scale + extra_log
        if s > 700.0:
            raise OverflowError(f"scaled value overflows binary64 (log scale {s:.3g})")
        k, m = _pow2(s), self.mantissa
        return m * math.exp(s) if k is None else complex(math.ldexp(m.real, k), math.ldexp(m.imag, k))

    # -- arithmetic --------------------------------------------------------

    def conjugate(self) -> "ScaledComplex":
        return ScaledComplex(self.mantissa.conjugate(), self.log_scale)

    def scaled_by(self, dlog: float) -> "ScaledComplex":
        """Multiply by exp(dlog)."""
        if self.is_zero:
            return self
        return ScaledComplex(self.mantissa, self.log_scale + dlog)

    def __neg__(self) -> "ScaledComplex":
        return ScaledComplex(-self.mantissa, self.log_scale)

    def __mul__(self, other) -> "ScaledComplex":
        if isinstance(other, ScaledComplex):
            if self.is_zero or other.is_zero:
                return ScaledComplex.zero()
            s, t = self.log_scale, other.log_scale
            j, k = _pow2(s), _pow2(t)
            return ScaledComplex(self.mantissa * other.mantissa,
                                 s + t if j is None or k is None else (j + k) * _LN2)
        return ScaledComplex(self.mantissa * complex(other), self.log_scale)

    __rmul__ = __mul__

    def __add__(self, other: "ScaledComplex") -> "ScaledComplex":
        if not isinstance(other, ScaledComplex):
            other = ScaledComplex.from_complex(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        # rescale the smaller term onto the larger one's scale
        if self.log_scale >= other.log_scale:
            big, small = self, other
        else:
            big, small = other, self
        d = small.log_scale - big.log_scale
        if d < -800.0:
            return big
        kb, ks = _pow2(big.log_scale), _pow2(small.log_scale)
        f = math.exp(d) if kb is None or ks is None else math.ldexp(1.0, ks - kb)
        return ScaledComplex(big.mantissa + small.mantissa * f, big.log_scale)

    def __sub__(self, other: "ScaledComplex") -> "ScaledComplex":
        return self.__add__(-other if isinstance(other, ScaledComplex)
                            else ScaledComplex.from_complex(-other))

    # -- comparisons for tests ---------------------------------------------

    def rel_diff(self, other: "ScaledComplex") -> float:
        """|self - other| / |other|, computed without leaving scaled space."""
        if other.is_zero:
            return math.inf if not self.is_zero else 0.0
        diff = self - other
        if diff.is_zero:
            return 0.0
        return math.exp(diff.log_abs() - other.log_abs())

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return f"({self.mantissa.real:+.15e}{self.mantissa.imag:+.15e}j)*exp({self.log_scale:.6f})"


@dataclass(frozen=True)
class ScaledArray:
    """Elementwise values ``mantissa * exp(log_scale)`` of two 1-D arrays
    of equal length.

    Mantissas are not normalized: callers keep them inside binary64 range
    and put the exponential size into log_scale.  A zero mantissa is a
    zero value whatever its scale.
    """

    mantissa: np.ndarray
    log_scale: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mantissa)
        if m.ndim != 1:
            raise ValueError(f"ScaledArray needs a 1-D mantissa, got shape {m.shape}")
        s = np.asarray(self.log_scale, dtype=np.float64)
        if s.shape != m.shape:
            s = np.broadcast_to(s, m.shape)
        object.__setattr__(self, "mantissa", m)
        object.__setattr__(self, "log_scale", s)

    @staticmethod
    def from_log(w) -> "ScaledArray":
        """The values exp(w), with Re(w) absorbed into the scale."""
        w = np.asarray(w, dtype=np.complex128)
        return ScaledArray(np.exp(1j * w.imag), w.real)

    def __len__(self) -> int:
        return self.mantissa.shape[0]

    def item(self, i: int) -> ScaledComplex:
        """Element i as a (normalized) ScaledComplex."""
        return ScaledComplex(complex(self.mantissa[i]), float(self.log_scale[i]))

    def log_abs(self) -> np.ndarray:
        """log|value| per element, -inf for zeros."""
        a = np.abs(self.mantissa)
        with np.errstate(divide="ignore"):
            return np.where(a > 0.0, np.log(a) + self.log_scale, -np.inf)

    def __mul__(self, other: "ScaledArray") -> "ScaledArray":
        return ScaledArray(self.mantissa * other.mantissa,
                           self.log_scale + other.log_scale)

    def sum(self) -> ScaledComplex:
        """Exactly rounded sum of the elements at a common scale (see
        scaled_sum)."""
        return _common_scale_fsum(self.mantissa, self.log_scale)


def _common_scale_fsum(mantissa: np.ndarray, log_scale: np.ndarray) -> ScaledComplex:
    nonzero = mantissa != 0
    if not nonzero.any():
        return ScaledComplex.zero()
    m = mantissa[nonzero]
    s = log_scale[nonzero]
    top = float(s.max())
    d = s - top
    keep = d >= -800.0
    f = np.exp(d[keep])
    m = m[keep]
    re = (m.real * f).tolist()
    im = (m.imag * f).tolist() if np.iscomplexobj(m) else []
    return ScaledComplex(complex(math.fsum(re), math.fsum(im)), top)


def scaled_sum(values: Iterable[ScaledComplex]) -> ScaledComplex:
    """Exactly rounded sum of ScaledComplex values at a common scale.

    All mantissas are brought to the scale of the largest term and the
    real/imaginary parts are added with math.fsum, so the reduction is an
    error-free transformation of the rescaled terms.  Iteration order does
    not change the result, but callers are expected to pass terms in a
    deterministic order anyway.
    """
    vals = list(values)
    return _common_scale_fsum(np.array([v.mantissa for v in vals], dtype=np.complex128),
                              np.array([v.log_scale for v in vals], dtype=np.float64))
