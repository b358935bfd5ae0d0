"""Line-oriented coefficient file format.

    # comment
    alpha_im <value>
    beta_im <value>
    gamma_im <value>
    c1 <n> <re> <im>            # A(1, n) rows (Dirichlet coefficients), or
    c2 <m1> <m2> <re> <im>      # full-table rows

Each line holds exactly the fields shown, every number finite.  The
three header lines must precede the body, once each; c1 and c2 rows may
not be mixed.  A c1-only file is expanded into a full table at load
through the Moebius identity (see expand_coefficients).
"""

from __future__ import annotations

import math
from pathlib import Path

from .langlands import LanglandsParams
from .maass import MaassForm, expand_coefficients

__all__ = ["CoefficientFileError", "load_coefficient_file", "write_coefficient_file"]

# m1 range the load-time expansion of c1 files covers; evaluation never
# needs m1 beyond C / y1, which stays far below this in practice
DEFAULT_EXPANSION_M = 64


class CoefficientFileError(ValueError):
    pass


_HEADER = ("alpha_im", "beta_im", "gamma_im")
# the number of fields after the key on each kind of line
_FIELDS = {"alpha_im": 1, "beta_im": 1, "gamma_im": 1, "c1": 3, "c2": 4}


def _parse(path: Path) -> tuple[LanglandsParams, dict[tuple[int, int], complex]]:
    """(params, coefficient table) of the file at path."""
    header: dict[str, float] = {}
    c1: dict[tuple[int], complex] = {}
    c2: dict[tuple[int, int], complex] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        key, *fields = line.split()
        if key not in _FIELDS:
            raise CoefficientFileError(f"{where}: unknown key {key!r}")
        if len(fields) != _FIELDS[key]:
            raise CoefficientFileError(
                f"{where}: {key} takes {_FIELDS[key]} field(s), got {len(fields)}")
        # the indices, then one header value or a coefficient's Re and Im
        try:
            index = tuple(int(v) for v in fields[:-2])
            values = [float(v) for v in fields[-2:]]
        except ValueError as exc:
            raise CoefficientFileError(f"{where}: malformed line: {raw!r}") from exc
        if not all(map(math.isfinite, values)):
            raise CoefficientFileError(
                f"{where}: {key} values must be finite, got {' '.join(fields[-2:])}")
        if key in _HEADER:
            if c1 or c2:
                raise CoefficientFileError(f"{where}: header line after body rows")
            if key in header:
                raise CoefficientFileError(f"{where}: duplicate {key} line")
            header[key] = values[0]
            continue
        if min(index) < 1:
            raise CoefficientFileError(f"{where}: indices must be >= 1")
        rows = c1 if key == "c1" else c2
        if index in rows:
            raise CoefficientFileError(f"{where}: duplicate {key} row {' '.join(fields[:-2])}")
        rows[index] = complex(*values)
    missing = set(_HEADER) - set(header)
    if missing:
        raise CoefficientFileError(f"{path}: missing header line(s): {sorted(missing)}")
    if c1 and c2:
        raise CoefficientFileError(f"{path}: c1 and c2 rows may not be mixed")
    if not c1 and not c2:
        raise CoefficientFileError(f"{path}: no coefficient rows")
    params = LanglandsParams(header["alpha_im"], header["beta_im"], header["gamma_im"])
    if c1:
        a = {n: v for (n,), v in c1.items()}
        return params, expand_coefficients(a, min(max(a), DEFAULT_EXPANSION_M))
    return params, c2


def load_coefficient_file(path, eps: float = 1e-10) -> MaassForm:
    """Parse a coefficient file into a MaassForm."""
    params, table = _parse(Path(path))
    return MaassForm(params=params, coeffs=table, eps=eps)


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
