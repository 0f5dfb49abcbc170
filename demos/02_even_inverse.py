"""Computing and certifying the even-inverse filter.

The even part ev of a mask is a Laurent polynomial; factored at its roots it
is C z**m times one factor (1 - rho/z) per root inside the circle and one
(1 - z/R) per root outside, so 1/ev is a causal geometric series times an
anticausal one.  The quadratic spline has the one root -3, which gives the
one-sided inverse (4/3) (-1/3)^k; the cubic spline has the roots
-3 -+ 2 sqrt 2, which give the symmetric inverse sqrt(2) (-(3-2 sqrt 2))^|k|.
The decay certificate pins the cubic coefficients exactly.
"""

import math

import numpy as np

from evenrev import (
    bspline_mask,
    decay_certificate,
    even_inverse_spectral,
    even_part,
    norm_l1,
    norm_linf,
    pseudo_spline_mask,
)
from evenrev.inverse import inverse_residual_l1

quad = bspline_mask(3)
cubic = bspline_mask(4)


def roots(mask):
    """Roots of the even symbol, as a polynomial in z."""
    return np.roots(even_part(mask).floats[::-1])


print(f"Quadratic spline: ev(z) = (3 + z)/4, root {roots(quad)[0]:.16f}")
kern = even_inverse_spectral(quad, tol=1e-12)
print(f"{'k':>3} {'kernel':>22} {'(4/3)(-1/3)^k':>22}")
for k in range(6):
    print(f"{k:>3} {kern.coeff(k):22.16f} {(4.0 / 3.0) * (-1.0 / 3.0) ** k:22.16f}")
index = np.arange(len(kern.coeffs))
worst = np.max(np.abs(kern.floats - (4.0 / 3.0) * (-1.0 / 3.0) ** index))
print(f"{len(kern.coeffs)} coefficients, all at k >= 0, largest gap to the closed form {worst:.1e}")
print(f"one norm {norm_l1(kern):.12f} (limit 2), sup norm {norm_linf(kern):.12f} (4/3)")
print(f"residual ||g * ev - delta||_1 = {inverse_residual_l1(quad, kern):.2e} (tol 1e-12)")

print("\nCubic spline: ev(z) = (1/z + 6 + z)/8, roots",
      ", ".join(f"{r:.16f}" for r in roots(cubic)))
print(f"-3 - 2 sqrt 2 = {-3 - 2 * math.sqrt(2):.16f}, -3 + 2 sqrt 2 = {-3 + 2 * math.sqrt(2):.16f}")
spec_c = even_inverse_spectral(cubic, tol=1e-12)
for k in range(4):
    print(f"{k:>3} {spec_c.coeff(k):22.16f} {math.sqrt(2) * (-(3 - 2 * math.sqrt(2))) ** k:22.16f}")
index = spec_c.offset + np.arange(len(spec_c.coeffs))
worst = np.max(np.abs(spec_c.floats - math.sqrt(2) * (-(3 - 2 * math.sqrt(2))) ** np.abs(index)))
print(f"{len(spec_c.coeffs)} coefficients, |k| <= {-spec_c.offset}, "
      f"largest gap to the closed form {worst:.1e}")
print(f"measured ratio {abs(spec_c.coeff(1)) / spec_c.coeff(0):.16f}")
print(f"3 - 2 sqrt 2 = {3 - 2 * math.sqrt(2):.16f}")
print(f"residual ||g * ev - delta||_1 = {inverse_residual_l1(cubic, spec_c):.2e} (tol 1e-12)")

print("\nDecay certificate for the cubic (real positive even symbol):")
cert = decay_certificate(cubic)
print(f"kappa={cert.kappa:.3f} s={cert.s} lambda={cert.lam:.6f} K={cert.K:.6f}")
worst = max(abs(spec_c.coeff(k)) / cert.bound(k) for k in spec_c.support)
print(f"largest |g_k| / bound over retained coefficients: {worst:.4f} (must be <= 1)")

print("\nThe quadratic even symbol is complex on the circle, so the same")
print("certificate is only nominal there (hypothesis_met=False):")
cert_q = decay_certificate(quad)
print(f"kappa={cert_q.kappa:.3f} lambda={cert_q.lam:.6f} hypothesis_met={cert_q.hypothesis_met}")
print(f"actual quadratic decay ratio: {abs(kern.coeff(2) / kern.coeff(1)):.6f} (= 1/3 > lambda)")

print("\nInterpolatory masks have a constant even part, no roots, and invert to the pure impulse:")
dd = even_inverse_spectral(pseudo_spline_mask(4, 1))
residual = inverse_residual_l1(pseudo_spline_mask(4, 1), dd)
print(f"kernel coefficients: {np.asarray(dd.coeffs)}, residual ||g * ev - delta||_1 {residual:.2e}")
