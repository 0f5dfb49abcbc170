"""Tour of the mask catalog: B-splines and pseudo-splines.

Every mask here is generated in exact rational arithmetic.  The pseudo-spline
family interpolates between the B-spline masks (type 0) and the interpolatory
masks (order 2k, type k-1), and every member keeps its even symbol away from
zero on the unit circle, which is what makes the transform reversible on the
even samples.
"""

from fractions import Fraction

from evenrev import (
    bspline_mask,
    catalog,
    even_part,
    is_interpolatory,
    min_modulus_on_circle,
    odd_part,
    pseudo_spline_mask,
    sup_norm_on_circle,
)


def show(name, mask):
    coeffs = ", ".join(str(Fraction(c)) for c in mask.coeffs)
    print(f"{name:>12}: offset {mask.offset:+d}, coeffs [{coeffs}]")


print("Low-order B-spline masks (coefficient sum is always 2):")
for order in (1, 2, 3, 4):
    show(f"bspline{order}", bspline_mask(order))

print("\nThe 4-point interpolatory mask is the pseudo-spline (4, 1):")
show("pseudo4_1", pseudo_spline_mask(4, 1))
print("its even part is the unit impulse:", even_part(pseudo_spline_mask(4, 1)).coeffs)

print("\nA dual (odd-order) pseudo-spline, built with half-integer binomials:")
show("pseudo5_1", pseudo_spline_mask(5, 1))

print("\nEvery catalog mask keeps the sum rules (even and odd coefficients")
print("each sum to exactly 1) and is even-reversible:")
print(f"{'name':>12} {'sum ev':>6} {'sum od':>6} {'interp':>7} {'max|ev|':>9} {'min|ev|':>9}")
for name, mask in catalog().items():
    ev = even_part(mask)
    print(
        f"{name:>12} {str(ev.sum()):>6} {str(odd_part(mask).sum()):>6} "
        f"{str(is_interpolatory(mask)):>7} "
        f"{sup_norm_on_circle(ev):9.6f} {min_modulus_on_circle(ev):9.6f}"
    )
print("\nThe max of the even symbol is always 1; the min stays positive,")
print("so the even part has a summable inverse filter in every case.")
