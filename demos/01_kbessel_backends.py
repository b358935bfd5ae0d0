"""K-Bessel functions of imaginary order, two ways
==================================================

K_mu(x) with purely imaginary order mu is real-valued and is the basic
building block of everything else in this package.  Two independent
backends are available:

* the cosh-integral: the trapezoid rule on the real axis, or, once the
  exp(-pi|mu|/2) cancellation there would eat the answer, Gauss-Legendre
  sums along the steepest-descent contours through the saddles of the
  integrand,
* the inverse Mellin transform of the gamma-pair Gamma((s+mu)/2)
  Gamma((s-mu)/2) along a vertical line.

This script prints both on a small grid, at large arguments, where the
Mellin line sum's terms carry the factor (x/2)^-sigma, and at the order of
the lift form on both sides of the turning point x = |mu|, where the two
saddles of the contour merge.  It exits non-zero if the backends differ by
more than 1e-9 anywhere, and checks the Bessel differential equation with
finite differences.
"""

import math
import sys
import time

from sl3maass import bessel_k, bessel_k_mellin, bessel_k_prime, bessel_k_scaled

TOL = 1e-9
worst = 0.0
print(f"{'order':>10} {'x':>6} {'cosh-integral':>24} {'inverse Mellin':>24} {'rel diff':>10}")
grid = [(m, x) for m in (0.0, 1.0, 10.0, 40.0) for x in (0.5, 2.0, 10.0)]
grid += [(m, x) for m in (0.0, 10.0) for x in (22.0, 30.0)]
# the lift form's order 2 r, r = 9.533695: the turning point is at x = 19.07
grid += [(19.06739, x) for x in (0.5, 10.0, 19.0, 19.2)]
for m, x in grid:
    t0 = time.perf_counter()
    a = bessel_k(1j * m, x)
    dt_a = time.perf_counter() - t0
    b = bessel_k_mellin(1j * m, x)
    rel = abs(a - b) / abs(b)
    worst = max(worst, rel)
    print(f"{m:>9}i {x:>6} {a:>24.16e} {b:>24.16e} {rel:>10.2e}"
          f"   ({dt_a * 1e3:.2f} ms)")
print(f"largest backend difference {worst:.2e} (tolerance {TOL:g})")

# the differential equation x^2 K'' + x K' - (x^2 + mu^2) K = 0, checked
# with a centered second difference
print("\nBessel equation residual (second difference vs closed form):")
h = 1e-4
for m, x in ((0.0, 1.0), (5.0, 2.0), (10.0, 2.0)):
    mu = 1j * m
    k = bessel_k(mu, x)
    second = (bessel_k(mu, x + h) - 2 * k + bessel_k(mu, x - h)) / (h * h)
    rhs = ((x * x - m * m) * k - x * bessel_k_prime(mu, x)) / (x * x)
    print(f"  mu={m}i, x={x}: |diff| = {abs(second - rhs):.3e}")

# deep in the exponential tail the scaled form keeps working
v = bessel_k_scaled(0.0, 800.0)
print(f"\nK_0(800) = {v.mantissa.real:.12f} * exp({v.log_scale:.4f})")
print(f"plain-float asymptotic sqrt(pi/(2x)) e^-x gives log = "
      f"{-800 + 0.5 * math.log(math.pi / 1600):.4f}")

if not worst <= TOL:
    sys.exit(f"backends differ by {worst:.2e}, more than {TOL:g}")
