"""Four Whittaker algorithms, cross-validated
=============================================

W(y1, y2) for the spectral triple (-2ir, 2ir, 0) with r = 9.533695 (the
first even spectral parameter of the rank-2 theory, lifted) is computed
four independent ways:

  stade     double K-Bessel integral (widest range, most expensive)
  origin    double power series around (0, 0)
  smallarg  single series in the smaller argument plus one K-Bessel pair
  mellin    discretized double inverse Mellin transform at fixed
            D = y1^2 y2

All values are carried as mantissa * exp(log_scale) in the shared
exp(pi|alpha - beta|) W convention.  Per-algorithm wall times are printed
but no ordering is asserted; relative speed depends on the platform and
on how often a fixed-D cache can be reused.
"""

import time

from sl3maass import (LanglandsParams, WhittakerArgs, build_fixed_d_cache,
                      w_mellin_fixed_d, w_series_origin, w_series_small,
                      w_stade)

r = 9.533695
params = LanglandsParams(-2 * r, 2 * r)

print(f"spectral triple: ({params.r_alpha}, {params.r_beta}, {params.r_gamma}) * i")
print(f"{'y1':>5} {'y2':>5} {'algorithm':>9} {'mantissa':>44} {'log scale':>12} {'ms':>8}")

for (y1, y2) in [(0.3, 0.3), (0.3, 1.0), (1.0, 1.0)]:
    a = WhittakerArgs(y1, y2)
    results = {}
    for name, fn in (("stade", w_stade),
                     ("origin", w_series_origin),
                     ("smallarg", w_series_small)):
        t0 = time.perf_counter()
        results[name] = fn(params, a)
        dt = (time.perf_counter() - t0) * 1e3
        v = results[name]
        print(f"{y1:>5} {y2:>5} {name:>9} {v.mantissa:>44.15g} {v.log_scale:>12.6f} {dt:>8.2f}")
    t0 = time.perf_counter()
    cache = build_fixed_d_cache(params, y1 * y1 * y2)
    built = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    results["mellin"] = w_mellin_fixed_d(cache, y2)
    dt = (time.perf_counter() - t0) * 1e3
    v = results["mellin"]
    print(f"{y1:>5} {y2:>5} {'mellin':>9} {v.mantissa:>44.15g} {v.log_scale:>12.6f} {dt:>8.2f}"
          f"  (+{built:.1f} ms cache build)")

    ref = results["stade"]
    devs = {k: v.rel_diff(ref) for k, v in results.items() if k != "stade"}
    print(f"{'':>11} deviations vs stade: "
          + ", ".join(f"{k} {d:.2e}" for k, d in devs.items()))
    print()

print("same check from the command line:")
print("  sl3maass xcheck --alpha-im -19.06739 --beta-im 19.06739 "
      "--y-grid 0.3,0.6,1.0 --tol 1e-6")
