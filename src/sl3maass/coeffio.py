"""Line-oriented coefficient file format.

    # comment
    alpha_im <value>
    beta_im <value>
    gamma_im <value>
    c1 <n> <re> <im>            # A(1, n) rows (Dirichlet coefficients), or
    c2 <m1> <m2> <re> <im>      # full-table rows

The three header lines must precede the body; c1 and c2 rows may not be
mixed.  A c1-only file is expanded into a full table at load through the
Moebius identity (see expand_coefficients).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from pathlib import Path

from .langlands import LanglandsParams
from .maass import MaassForm, expand_coefficients

__all__ = ["CoefficientFileError", "load_coefficient_file", "write_coefficient_file"]

# m1 range the load-time expansion of c1 files covers; evaluation never
# needs m1 beyond C / y1, which stays far below this in practice
DEFAULT_EXPANSION_M = 64


class CoefficientFileError(ValueError):
    pass


@dataclass(frozen=True)
class _Parsed:
    params: LanglandsParams
    table: dict[tuple[int, int], complex]


def _coefficient(path: Path, lineno: int, re: str, im: str) -> complex:
    v = complex(float(re), float(im))
    if not cmath.isfinite(v):
        raise CoefficientFileError(f"{path}:{lineno}: coefficient must be finite, got {re} {im}")
    return v


def _parse(path: Path) -> _Parsed:
    header: dict[str, float] = {}
    c1: dict[int, complex] = {}
    c2: dict[tuple[int, int], complex] = {}
    body_started = False
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        try:
            if key in ("alpha_im", "beta_im", "gamma_im"):
                if body_started:
                    raise CoefficientFileError(
                        f"{path}:{lineno}: header line after body rows")
                header[key] = float(parts[1])
            elif key == "c1":
                body_started = True
                n = int(parts[1])
                if n < 1:
                    raise CoefficientFileError(f"{path}:{lineno}: index must be >= 1")
                if n in c1:
                    raise CoefficientFileError(f"{path}:{lineno}: duplicate c1 row n={n}")
                c1[n] = _coefficient(path, lineno, parts[2], parts[3])
            elif key == "c2":
                body_started = True
                m1, m2 = int(parts[1]), int(parts[2])
                if m1 < 1 or m2 < 1:
                    raise CoefficientFileError(f"{path}:{lineno}: indices must be >= 1")
                if (m1, m2) in c2:
                    raise CoefficientFileError(
                        f"{path}:{lineno}: duplicate c2 row ({m1},{m2})")
                c2[(m1, m2)] = _coefficient(path, lineno, parts[3], parts[4])
            else:
                raise CoefficientFileError(f"{path}:{lineno}: unknown key {key!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, CoefficientFileError):
                raise
            raise CoefficientFileError(f"{path}:{lineno}: malformed line: {raw!r}") from exc
    missing = {"alpha_im", "beta_im", "gamma_im"} - set(header)
    if missing:
        raise CoefficientFileError(f"{path}: missing header line(s): {sorted(missing)}")
    if c1 and c2:
        raise CoefficientFileError(f"{path}: c1 and c2 rows may not be mixed")
    if not c1 and not c2:
        raise CoefficientFileError(f"{path}: no coefficient rows")
    params = LanglandsParams(header["alpha_im"], header["beta_im"], header["gamma_im"])
    if c1:
        m_cap = min(max(c1), DEFAULT_EXPANSION_M)
        return _Parsed(params, expand_coefficients(c1, m_cap))
    return _Parsed(params, c2)


def load_coefficient_file(path, eps: float = 1e-10) -> MaassForm:
    """Parse a coefficient file into a MaassForm."""
    parsed = _parse(Path(path))
    return MaassForm(params=parsed.params, coeffs=parsed.table, eps=eps)


def write_coefficient_file(path, form: MaassForm) -> None:
    """Write the in-memory table as header plus c2 rows (sorted), with
    full float precision so a re-parse reproduces the table exactly."""
    if form.coeffs is None:
        raise CoefficientFileError("form has no explicit coefficient table to export")
    p = form.params
    lines = [f"alpha_im {p.r_alpha!r}",
             f"beta_im {p.r_beta!r}",
             f"gamma_im {p.r_gamma!r}"]
    for (m1, m2) in sorted(form.coeffs):
        v = complex(form.coeffs[(m1, m2)])
        lines.append(f"c2 {m1} {m2} {v.real!r} {v.imag!r}")
    Path(path).write_text("\n".join(lines) + "\n")
