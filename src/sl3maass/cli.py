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
from .whittaker import (SeriesBudget, WhittakerArgs, build_fixed_d_cache,
                        choose_algorithm, default_mellin_grid,
                        default_stade_grid, w_mellin_fixed_d,
                        w_series_origin, w_series_small, w_stade)

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
        for r in self.rows:
            v = r["value"]
            out.append(f"{r['label']:<28} {v.real:+.{digits}g} {v.imag:+.{digits}g}j"
                       f"   err~{r['error']:.2e}   [{r['algorithm']}]")
        return "\n".join(out)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["label", "value_re", "value_im", "error", "algorithm"])
            for r in self.rows:
                w.writerow([r["label"], repr(r["value"].real), repr(r["value"].imag),
                            repr(r["error"]), r["algorithm"]])


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


def _add_grid_flags(p):
    p.add_argument("--grid-h", type=float, default=None, help="override step size")
    p.add_argument("--grid-n", type=int, default=None, help="override half-width in steps")
    p.add_argument("--sigma1", type=float, default=2.0)
    p.add_argument("--sigma2", type=float, default=2.0)


def _params(ns) -> LanglandsParams:
    return LanglandsParams(ns.alpha_im, ns.beta_im, ns.gamma_im)


def _point(text: str) -> H3Point:
    vals = [float(v) for v in text.split(",")]
    if len(vals) != 5:
        raise argparse.ArgumentTypeError("point must be x1,x2,x3,y1,y2")
    return H3Point(*vals)


def _fmt_scaled(v: ScaledComplex, digits: int) -> str:
    m = v.mantissa
    return (f"({m.real:+.{digits}g}{m.imag:+.{digits}g}j)"
            f"*exp({v.log_scale:.{digits}g})")


def _stade_with_error(p, a, grid=None):
    grid = grid if grid is not None else default_stade_grid(p)
    v1 = w_stade(p, a, grid)
    v2 = w_stade(p, a, replace(grid, h=grid.h / 2.0, N=2 * grid.N))
    return v2, v2.rel_diff(v1) if not v2.is_zero else 0.0


def _series_with_error(fn, p, a):
    v1 = fn(p, a, SeriesBudget(nmax=60, target_eps=1e-12))
    v2 = fn(p, a, SeriesBudget(nmax=80, target_eps=1e-15))
    return v2, v2.rel_diff(v1) if not v2.is_zero else 0.0


def _mellin_grid_from(ns, p):
    grid = default_mellin_grid(p)
    if ns.grid_h is not None:
        n_scale = grid.h1 / ns.grid_h
        grid = replace(grid, h1=ns.grid_h, h2=ns.grid_h,
                       N1=int(grid.N1 * n_scale) + 1, N2=int(grid.N2 * n_scale) + 1)
    if ns.grid_n is not None:
        grid = replace(grid, N1=ns.grid_n, N2=ns.grid_n)
    if ns.sigma1 != 2.0 or ns.sigma2 != 2.0:
        grid = replace(grid, sigma1=ns.sigma1, sigma2=ns.sigma2)
    return grid


def _mellin_with_error(p, a, grid):
    cache = build_fixed_d_cache(p, a.y1 * a.y1 * a.y2, grid=grid, validate=True,
                                y2_range=(a.y2 / 2.0, a.y2 * 2.0))
    v = w_mellin_fixed_d(cache, a.y2, _skip_range_check=True)
    return v, cache.validation_residual or 0.0


def _eval_one(p, a, algo, ns):
    """(scaled value, relative error estimate, tag) for one algorithm."""
    conj = False
    if algo == "auto":
        algo, conj = choose_algorithm(p, a)
        if conj:
            a = a.swapped
    if algo == "stade":
        grid = None
        if ns.grid_h is not None or ns.grid_n is not None:
            base = default_stade_grid(p)
            grid = replace(base,
                           h=ns.grid_h if ns.grid_h is not None else base.h,
                           N=ns.grid_n if ns.grid_n is not None else base.N)
        v, err = _stade_with_error(p, a, grid)
    elif algo == "origin":
        v, err = _series_with_error(w_series_origin, p, a)
    elif algo == "smallarg":
        v, err = _series_with_error(w_series_small, p, a)
    elif algo == "mellin":
        v, err = _mellin_with_error(p, a, _mellin_grid_from(ns, p))
    else:
        raise SystemExit(1)
    if conj:
        v = v.conjugate()
    return v, max(err, 2e-16), algo


def cmd_whittaker(ns) -> int:
    p = _params(ns)
    a = WhittakerArgs(ns.y1, ns.y2)
    t0 = time.perf_counter()
    v, err, algo = _eval_one(p, a, ns.algo, ns)
    report = RunReport(operation="whittaker",
                       settings={"params": (p.r_alpha, p.r_beta, p.r_gamma),
                                 "y1": a.y1, "y2": a.y2, "algo": ns.algo})
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
    print(report.render(ns.digits))
    print(f"scaled value = {_fmt_scaled(v, ns.digits)}")
    print(f"time: {report.wall_time:.3f}s")
    if ns.csv:
        report.write_csv(ns.csv)
    return 0


def cmd_xcheck(ns) -> int:
    p = _params(ns)
    ys = [float(t) for t in ns.y_grid.split(",")]
    algos = ["stade"]
    if not p.is_degenerate():
        algos += ["origin", "smallarg"]
    algos.append("mellin")
    report = RunReport(operation="xcheck",
                       settings={"params": (p.r_alpha, p.r_beta, p.r_gamma),
                                 "y_grid": ys, "tol": ns.tol})
    t0 = time.perf_counter()
    worst = 0.0
    worst_label = ""
    for y1 in ys:
        for y2 in ys:
            a = WhittakerArgs(y1, y2)
            vals = {}
            for algo in algos:
                try:
                    v, _, _ = _eval_one(p, a, algo, ns)
                    vals[algo] = v
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
            if pair_worst > worst:
                worst, worst_label = pair_worst, label
    report.wall_time = time.perf_counter() - t0
    print(report.render(ns.digits))
    print(f"max pairwise deviation: {worst:.3e} at {worst_label}")
    print(f"time: {report.wall_time:.3f}s")
    if ns.csv:
        report.write_csv(ns.csv)
    if worst > ns.tol:
        print(f"FAIL: deviation exceeds tolerance {ns.tol:g}", file=sys.stderr)
        return 2
    return 0


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
    report.wall_time = dt
    print(report.render(ns.digits))
    print(f"time: {report.wall_time:.3f}s")
    if ns.csv:
        report.write_csv(ns.csv)
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
    print(report.render(ns.digits))
    print(f"time: {report.wall_time:.3f}s")
    if ns.csv:
        report.write_csv(ns.csv)
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
    pw.add_argument("--algo", choices=["stade", "origin", "smallarg", "mellin", "auto"],
                    default="auto")
    _add_grid_flags(pw)
    pw.set_defaults(func=cmd_whittaker)

    px = sub.add_parser("xcheck", help="cross-validate all algorithms on a grid")
    _add_param_flags(px)
    px.add_argument("--y-grid", default="0.3,0.6,1.0",
                    help="comma-separated values used for both arguments")
    px.add_argument("--tol", type=float, default=1e-6,
                    help="max allowed pairwise relative deviation")
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
        p.add_argument("--digits", type=int, default=12)
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
