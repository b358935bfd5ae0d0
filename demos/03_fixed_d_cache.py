"""The fixed-D cache and its invariant slice
============================================

Inside the Fourier expansion of a rank-3 Maass form, the Whittaker
function is evaluated along coprime-pair orbits

    (y1, y2)  ->  (y1 |c z2 + d|,  y2 / |c z2 + d|^2),

all of which share D = y1^2 y2.  Precomputing the inner gamma-factor sums
for one D makes every further evaluation on that slice an O(N2) dot
product against new phases of (pi y2)^{-i k2 h}.

This script builds one cache, walks the slice (y1 t, y2 / t^2), and
compares each cached value against the independent double-Bessel
integral.
"""

import math
import time

from sl3maass import (LanglandsParams, WhittakerArgs, build_fixed_d_cache,
                      w_mellin_fixed_d, w_stade)

params = LanglandsParams(-3.7, 1.2)
y1, y2 = 0.8, 1.1
D = y1 * y1 * y2

t0 = time.perf_counter()
cache = build_fixed_d_cache(params, D, y2_range=(y2 / 16.0, y2 * 1.2))
build_ms = (time.perf_counter() - t0) * 1e3
print(f"cache for D = {D:.4f}: {cache.inner.size} inner sums, "
      f"built in {build_ms:.0f} ms, validation residual {cache.validation_residual:.2e}")

print(f"\n{'t':>5} {'y1 t':>8} {'y2/t^2':>8} {'cached (ms)':>12} {'integral (ms)':>14} {'rel diff':>10}")
for t in (1.0, 1.5, 2.0, 3.0):
    yy1, yy2 = y1 * t, y2 / (t * t)
    t0 = time.perf_counter()
    fast = w_mellin_fixed_d(cache, yy2)
    dt_fast = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    slow = w_stade(params, WhittakerArgs(yy1, yy2))
    dt_slow = (time.perf_counter() - t0) * 1e3
    print(f"{t:>5} {yy1:>8.3f} {yy2:>8.3f} {dt_fast:>12.2f} {dt_slow:>14.2f} "
          f"{fast.rel_diff(slow):>10.2e}")

print("\nconsistency check: D is invariant along the slice, so the same")
print("cache served every row; only the outer sum was re-evaluated.")

# repeated identical calls are bit-identical
v1 = w_mellin_fixed_d(cache, y2)
v2 = w_mellin_fixed_d(cache, y2)
print(f"determinism: identical calls bit-equal -> {v1.mantissa == v2.mantissa}")
