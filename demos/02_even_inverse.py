"""Computing and certifying the even-inverse filter.

The quadratic spline has the one-sided geometric inverse (4/3) (-1/3)^k and
the cubic spline the symmetric inverse sqrt(2) (-(3-2 sqrt 2))^|k|.  The
spectral route (sampling 1/ev at roots of unity and transforming back) must
reproduce both to machine precision, and the decay certificate pins the
cubic coefficients exactly.
"""

import math

import numpy as np

from evenrev import (
    bspline_mask,
    decay_certificate,
    even_inverse_closed_cubic,
    even_inverse_closed_quadratic,
    even_inverse_spectral,
    norm_l1,
    norm_linf,
    pseudo_spline_mask,
)
from evenrev.inverse import inverse_residual_l1

quad = bspline_mask(3)
cubic = bspline_mask(4)

print("Quadratic spline: spectral inversion vs closed form")
spectral = even_inverse_spectral(quad, tol=1e-12)
closed = even_inverse_closed_quadratic(30)
print(f"{'k':>3} {'spectral':>22} {'closed':>22}")
for k in range(6):
    print(f"{k:>3} {spectral.coeff(k):22.16f} {closed.coeff(k):22.16f}")
print(f"one norm {norm_l1(spectral):.12f} (limit 2), sup norm {norm_linf(spectral):.12f} (4/3)")
print(f"residual ||g * ev - delta||_1: spectral {inverse_residual_l1(quad, spectral):.2e}, "
      f"closed {inverse_residual_l1(quad, closed):.2e}")

print("\nCubic spline: symmetric kernel with ratio -(3 - 2 sqrt 2) per step")
spec_c = even_inverse_spectral(cubic, tol=1e-12)
closed_c = even_inverse_closed_cubic(30)
for k in range(4):
    print(f"{k:>3} {spec_c.coeff(k):22.16f} {closed_c.coeff(k):22.16f}")
print(f"measured ratio {abs(spec_c.coeff(1)) / spec_c.coeff(0):.16f}")
print(f"3 - 2 sqrt 2 = {3 - 2 * math.sqrt(2):.16f}")
print(f"residual ||g * ev - delta||_1: spectral {inverse_residual_l1(cubic, spec_c):.2e}, "
      f"closed {inverse_residual_l1(cubic, closed_c):.2e}")

print("\nDecay certificate for the cubic (real positive even symbol):")
cert = decay_certificate(cubic)
print(f"kappa={cert.kappa:.3f} s={cert.s} lambda={cert.lam:.6f} K={cert.K:.6f}")
worst = max(abs(spec_c.coeff(k)) / cert.bound(k) for k in spec_c.support)
print(f"largest |g_k| / bound over retained coefficients: {worst:.4f} (must be <= 1)")

print("\nThe quadratic even symbol is complex on the circle, so the same")
print("certificate is only nominal there (hypothesis_met=False):")
cert_q = decay_certificate(quad)
print(f"kappa={cert_q.kappa:.3f} lambda={cert_q.lam:.6f} hypothesis_met={cert_q.hypothesis_met}")
print(f"actual quadratic decay ratio: {abs(closed.coeff(2) / closed.coeff(1)):.6f} (= 1/3 > lambda)")

print("\nInterpolatory masks invert to the pure impulse:")
dd = even_inverse_spectral(pseudo_spline_mask(4, 1))
residual = inverse_residual_l1(pseudo_spline_mask(4, 1), dd)
print(f"kernel coefficients: {np.asarray(dd.coeffs)}, residual ||g * ev - delta||_1 {residual:.2e}")
