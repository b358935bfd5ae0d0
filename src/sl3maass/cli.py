"""Command-line surface.

Subcommands: whittaker, xcheck, maass-eval, automorphy, export-coeffs.
Exit codes: 0 success, 1 usage error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import dataclass, field, replace

from .errors import NumericsError
from .langlands import LanglandsParams
from .maass import H3Point, eval_maass_report, word_matrix, iwasawa_act
from .coeffio import load_coefficient_file, write_coefficient_file
from .scaled import ScaledComplex
from .whittaker import (WhittakerArgs, build_fixed_d_cache,
                        choose_algorithm, default_mellin_grid,
                        default_stade_grid, w_mellin_fixed_d,
                        w_series_origin, w_series_small, w_stade_report)

__all__ = ["main", "RunReport"]


@dataclass
class RunReport:
    """One command's tabular result: every value row carries its error
    estimate and algorithm tag.  Wall time is reported separately and is
    not part of the deterministic output."""

    operation: str
    settings: dict
    rows: list = field(default_factory=list)
    wall_time: float = 0.0

    def add(self, label: str, value: complex, error: float, algorithm: str):
        self.rows.append({"label": label, "value": complex(value),
                          "error": float(error), "algorithm": algorithm})

    def render(self, digits: int = 12) -> str:
        out = [f"operation: {self.operation}"]
        for k in sorted(self.settings):
            out.append(f"  {k}: {self.settings[k]}")
        width = max([28] + [len(r["label"]) for r in self.rows])
        for r in self.rows:
            v = r["value"]
            out.append(f"{r['label']:<{width}} {v.real:+.{digits}g} {v.imag:+.{digits}g}j"
                       f"   err~{_ceil_3(r['error'])}   [{r['algorithm']}]")
        return "\n".join(out)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["label", "value_re", "value_im", "error", "algorithm"])
            for r in self.rows:
                w.writerow([r["label"], repr(r["value"].real), repr(r["value"].imag),
                            repr(r["error"]), r["algorithm"]])


def _ceil_3(err: float) -> str:
    """err to three digits, rounded up: never printed below its statement."""
    v = float(f"{err:.2e}")
    return f"{v if v >= err else v + 10.0 ** (math.floor(math.log10(v)) - 2):.2e}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_param_flags(p):
    p.add_argument("--alpha-im", type=float, required=True,
                   help="imaginary part of the first spectral parameter")
    p.add_argument("--beta-im", type=float, required=True,
                   help="imaginary part of the second spectral parameter")
    p.add_argument("--gamma-im", type=float, default=None,
                   help="imaginary part of the third parameter "
                        "(default: -(alpha+beta); checked if given)")


def _positive_finite(text: str) -> float:
    v = float(text)
    if not (v > 0.0) or not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return v


def _y_grid(text: str) -> list[float]:
    return [_positive_finite(t) for t in text.split(",")]


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < lo:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {text}")
        return int(text)
    return parse


def _add_grid_flags(p):
    p.add_argument("--grid-h", type=_positive_finite, default=None,
                   help="override step size (positive and finite)")
    p.add_argument("--grid-n", type=_int_at_least(1), default=None,
                   help="override half-width in steps")
    p.add_argument("--sigma1", type=_positive_finite, default=None)
    p.add_argument("--sigma2", type=_positive_finite, default=None)


def _params(ns) -> LanglandsParams:
    return LanglandsParams(ns.alpha_im, ns.beta_im, ns.gamma_im)


def _point(text: str) -> H3Point:
    vals = [float(v) for v in text.split(",")]
    if len(vals) != 5:
        raise argparse.ArgumentTypeError("point must be x1,x2,x3,y1,y2")
    try:
        return H3Point(*vals)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _fmt_scaled(v: ScaledComplex, digits: int) -> str:
    m = v.mantissa
    return (f"({m.real:+.{digits}g}{m.imag:+.{digits}g}j)"
            f"*exp({v.log_scale:.{digits}g})")


def _given(**fields) -> dict:
    return {k: v for k, v in fields.items() if v is not None}


def _stade(p, a, ns):
    """The value, its stated error relative to |W| (w_stade_report), and
    the step and node count it was summed with."""
    grid = replace(default_stade_grid(p, a), **_given(h=ns.grid_h, N=ns.grid_n))
    v, err_log, used = w_stade_report(p, a, grid)
    return v, math.exp(err_log - v.log_abs()), {"h": used.h, "nodes": 2 * used.N + 1}


def _series(fn):
    """A series row, its error |v - S| + S's stated error
    relative to |v|, S = w_stade_report on its default grid whatever the
    flags: a true statement by the triangle inequality."""
    def evaluate(p, a, ns):
        v = fn(p, a)
        s, err_log, _ = w_stade_report(p, a)
        return v, math.exp((v - s).log_abs() - v.log_abs()) + math.exp(err_log - v.log_abs()), {}
    return evaluate


def _smallarg(p, a, ns):
    """The series at the argument order w_eval routes (choose_algorithm);
    a swap is undone by W(y1, y2) = conj W(y2, y1)."""
    swapped = choose_algorithm(p, a)[1]
    v, err, _ = _series(w_series_small)(p, a.swapped if swapped else a, ns)
    return v.conjugate() if swapped else v, err, {}


def _mellin(p, a, ns):
    """Value from a fixed-D cache validated against w_eval at this point."""
    grid = default_mellin_grid(p)
    if ns.grid_h is not None:
        n_scale = grid.h / ns.grid_h
        grid = replace(grid, h=ns.grid_h,
                       N1=int(grid.N1 * n_scale) + 1, N2=int(grid.N2 * n_scale) + 1)
    grid = replace(grid, **_given(N1=ns.grid_n, N2=ns.grid_n,
                                  sigma1=ns.sigma1, sigma2=ns.sigma2))
    cache = build_fixed_d_cache(p, a.y1 * a.y1 * a.y2, grid=grid,
                                y2_range=(a.y2, a.y2))
    return w_mellin_fixed_d(cache, a.y2), cache.validation_residual, {}


# the only place the CLI names an algorithm: name -> (p, a, ns) ->
# (value, rel_error, settings the run reports)
_ALGORITHMS = {"stade": _stade,
               "origin": _series(w_series_origin),
               "smallarg": _smallarg,
               "mellin": _mellin}


def _eval_one(p, a, algo, ns):
    """(scaled value, relative error estimate, tag, reported settings) for
    one algorithm; auto is the algorithm w_eval routes to."""
    if algo == "auto":
        algo = choose_algorithm(p, a)[0]
    v, err, details = _ALGORITHMS[algo](p, a, ns)
    return v, max(err, 2e-16), algo, details


def _emit(report: RunReport, ns, *extra_lines: str) -> None:
    """Print the report, the command's own lines and the wall time, and
    write the CSV file if one was asked for."""
    print(report.render(ns.digits))
    for line in extra_lines:
        print(line)
    print(f"time: {report.wall_time:.3f}s")
    if ns.csv:
        report.write_csv(ns.csv)


def cmd_whittaker(ns) -> int:
    p = _params(ns)
    a = WhittakerArgs(ns.y1, ns.y2)
    t0 = time.perf_counter()
    v, err, algo, details = _eval_one(p, a, ns.algo, ns)
    report = RunReport(operation="whittaker",
                       settings={"params": (p.r_alpha, p.r_beta, p.r_gamma),
                                 "y1": a.y1, "y2": a.y2, "algo": ns.algo, **details})
    report.add("scaled mantissa", v.mantissa, err, algo)
    report.add("log scale", complex(v.log_scale), 0.0, algo)
    shift = p.scale_shift
    unscaled_log = v.log_scale - shift
    if abs(unscaled_log) < 700.0 and not v.is_zero:
        report.add("unscaled value", v.to_complex(extra_log=-shift), err, algo)
    else:
        report.add("unscaled log10|W|",
                   complex((v.log_abs() - shift) / math.log(10.0)), err, algo)
    report.wall_time = time.perf_counter() - t0
    _emit(report, ns, f"scaled value = {_fmt_scaled(v, ns.digits)}")
    return 0


def cmd_xcheck(ns) -> int:
    p = _params(ns)
    ys = ns.y_grid
    report = RunReport(operation="xcheck",
                       settings={"params": (p.r_alpha, p.r_beta, p.r_gamma),
                                 "y_grid": ys, "tol": ns.tol})
    t0 = time.perf_counter()
    worst = 0.0
    worst_label = ""
    failures = []
    for y1 in ys:
        for y2 in ys:
            a = WhittakerArgs(y1, y2)
            vals = {}
            for algo, evaluate in _ALGORITHMS.items():
                try:
                    vals[algo] = evaluate(p, a, ns)[0]
                except NumericsError:
                    continue
            pair_worst = 0.0
            names = sorted(vals)
            for i, n1 in enumerate(names):
                for n2 in names[i + 1:]:
                    pair_worst = max(pair_worst, vals[n1].rel_diff(vals[n2]))
            label = f"y=({y1:g},{y2:g})"
            report.add(label, complex(pair_worst), pair_worst,
                       "+".join(names))
            if len(names) < 2:
                failures.append(f"fewer than two algorithms returned a value at {label}")
            if pair_worst > worst:
                worst, worst_label = pair_worst, label
    report.wall_time = time.perf_counter() - t0
    _emit(report, ns, f"max pairwise deviation: {worst:.3e} at {worst_label}")
    if worst > ns.tol:
        failures.append(f"deviation exceeds tolerance {ns.tol:g}")
    for reason in failures:
        print(f"FAIL: {reason}", file=sys.stderr)
    return 2 if failures else 0


def cmd_maass_eval(ns) -> int:
    form = load_coefficient_file(ns.coeffs, eps=ns.eps)
    z = ns.point
    t0 = time.perf_counter()
    value, stats = eval_maass_report(form, z)
    dt = time.perf_counter() - t0
    report = RunReport(operation="maass-eval",
                       settings={"coeffs": ns.coeffs, "eps": ns.eps,
                                 "point": (z.x1, z.x2, z.x3, z.y1, z.y2)})
    report.add("f(z)", value, form.eps, "mellin-fixed-D")
    report.add("cutoff C", complex(stats.cutoff), 0.0, "scan")
    report.add("max contributing m2", complex(stats.max_contributing_m2), 0.0, "count")
    report.add("max contributing m1", complex(stats.max_m1), 0.0, "count")
    report.add("distinct D caches (form)", complex(stats.n_caches), 0.0, "count")
    report.add("D caches built (this eval)", complex(stats.n_caches_built), 0.0, "count")
    report.add("D ruled out (this eval)", complex(stats.n_ruled_out), 0.0, "count")
    report.add("kernel columns formed (this eval)", complex(stats.n_columns), 0.0, "count")
    report.wall_time = dt
    _emit(report, ns)
    return 0


def cmd_automorphy(ns) -> int:
    form = load_coefficient_file(ns.coeffs, eps=ns.eps)
    z = ns.point
    g = word_matrix(ns.word)
    zg = iwasawa_act(g, z)
    t0 = time.perf_counter()
    v1, _ = eval_maass_report(form, z)
    v2, _ = eval_maass_report(form, zg)
    dt = time.perf_counter() - t0
    resid = abs(v1 - v2)
    report = RunReport(operation="automorphy",
                       settings={"coeffs": ns.coeffs, "eps": ns.eps,
                                 "word": ns.word or "(identity)",
                                 "point": (z.x1, z.x2, z.x3, z.y1, z.y2),
                                 "moved": (zg.x1, zg.x2, zg.x3, zg.y1, zg.y2)})
    report.add("f(z)", v1, form.eps, "mellin-fixed-D")
    report.add("f(w.z)", v2, form.eps, "mellin-fixed-D")
    report.add("residual |f(z)-f(w.z)|", complex(resid), form.eps, "difference")
    report.wall_time = dt
    _emit(report, ns)
    return 0


def cmd_export_coeffs(ns) -> int:
    form = load_coefficient_file(ns.coeffs)
    write_coefficient_file(ns.out, form)
    print(f"wrote {len(form.coeffs)} coefficient rows to {ns.out}")
    return 0


def _build_parser() -> _Parser:
    ap = _Parser(prog="sl3maass",
                 description="Rank-3 Whittaker functions and Maass forms")
    sub = ap.add_subparsers(dest="command", required=True)

    pw = sub.add_parser("whittaker", help="evaluate W(y1, y2)")
    _add_param_flags(pw)
    pw.add_argument("--y1", type=float, required=True)
    pw.add_argument("--y2", type=float, required=True)
    pw.add_argument("--algo", choices=[*_ALGORITHMS, "auto"], default="auto")
    _add_grid_flags(pw)
    pw.set_defaults(func=cmd_whittaker)

    px = sub.add_parser("xcheck", help="cross-validate all algorithms on a grid")
    _add_param_flags(px)
    px.add_argument("--y-grid", type=_y_grid, default="0.3,0.6,1.0",
                    help="comma-separated positive values used for both arguments")
    px.add_argument("--tol", type=_positive_finite, default=1e-6,
                    help="max allowed pairwise relative deviation (positive and finite)")
    _add_grid_flags(px)
    px.set_defaults(func=cmd_xcheck)

    pm = sub.add_parser("maass-eval", help="evaluate a Maass form from a coefficient file")
    pm.add_argument("--coeffs", required=True)
    pm.add_argument("--point", type=_point, required=True, metavar="x1,x2,x3,y1,y2")
    pm.add_argument("--eps", type=float, default=1e-10)
    pm.set_defaults(func=cmd_maass_eval)

    pa = sub.add_parser("automorphy", help="compare f(z) with f(w.z)")
    pa.add_argument("--coeffs", required=True)
    pa.add_argument("--point", type=_point, required=True, metavar="x1,x2,x3,y1,y2")
    pa.add_argument("--word", default="", help='e.g. "S1 S2 S1"; empty = identity')
    pa.add_argument("--eps", type=float, default=1e-10)
    pa.set_defaults(func=cmd_automorphy)

    pe = sub.add_parser("export-coeffs", help="normalize a coefficient file to c2 rows")
    pe.add_argument("--coeffs", required=True)
    pe.add_argument("--out", required=True)
    pe.set_defaults(func=cmd_export_coeffs)

    for p in (pw, px, pm, pa, pe):
        p.add_argument("--digits", type=_int_at_least(0), default=12)
        p.add_argument("--csv", default=None, help="also write rows to this CSV file")
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    ns = ap.parse_args(argv)
    try:
        return ns.func(ns)
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
