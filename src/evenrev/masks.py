"""Catalog of subdivision masks: B-splines and primal/dual pseudo-splines.

All generators work in exact rational arithmetic (including the half-integer
binomial coefficients needed for odd orders), so the closed-form identities
asserted elsewhere in the package hold without rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ParameterError
from .laurent import Mask, convolve, delta, make_mask

__all__ = [
    "generalized_binomial",
    "bspline_mask",
    "pseudo_spline_mask",
    "dd_mask",
    "is_interpolatory",
    "catalog",
]


def generalized_binomial(top, j: int) -> Fraction:
    """Binomial coefficient ``C(top, j)`` with rational (possibly half-integer) top."""
    if j < 0:
        raise ParameterError("lower index must be nonnegative")
    top = Fraction(top)
    num = Fraction(1)
    for i in range(j):
        num *= top - i
    return num / math.factorial(j)


def _check_pseudo_spline(n: int, nu: int) -> None:
    """Refuse a pair (order ``n``, type ``nu``) that names no pseudo-spline mask.

    Primal masks have even ``n``, dual masks odd ``n``; ``nu = 0`` recovers the
    B-spline of order ``n`` and ``(n, nu) = (2k, k-1)`` the 2k-point
    interpolatory mask.
    """
    if n < 2:
        raise ParameterError(f"pseudo-spline order must be >= 2, got {n}")
    if not 0 <= nu <= n // 2 - 1:
        raise ParameterError(f"type parameter nu={nu} outside [0, {n // 2 - 1}] for order {n}")


def bspline_mask(order: int) -> Mask:
    """Mask of the centered B-spline subdivision of the given order.

    Symbol ``z**(-floor(order/2)) * (1+z)**order / 2**(order-1)``; the
    coefficients are exact rationals summing to 2.
    """
    if order < 1:
        raise ParameterError(f"B-spline order must be >= 1, got {order}")
    denom = 2 ** (order - 1)
    coeffs = [Fraction(math.comb(order, j), denom) for j in range(order + 1)]
    return make_mask(-(order // 2), coeffs)


def pseudo_spline_mask(n: int, nu: int) -> Mask:
    """Pseudo-spline mask of order ``n`` and type ``nu`` (exact rationals).

    The B-spline factor is multiplied by the degree-``nu`` truncation of the
    reciprocal series in ``q(z) = 1/2 - (z + 1/z)/4``, with coefficients
    ``C(n/2 + j - 1, j)`` evaluated as exact rational products.
    """
    _check_pseudo_spline(n, nu)
    spline = bspline_mask(n)
    q = make_mask(-1, (Fraction(-1, 4), Fraction(1, 2), Fraction(-1, 4)))
    correction = Mask(0, ())
    power = delta(Fraction(1))
    for j in range(nu + 1):
        coeff = generalized_binomial(Fraction(n, 2) + j - 1, j)
        correction = correction + power.scale(coeff)
        power = convolve(power, q)
    return convolve(spline, correction)


def dd_mask(points: int) -> Mask:
    """Interpolatory mask reproducing polynomials from ``2*points`` nodes.

    Equals the pseudo-spline mask with ``(n, nu) = (2*points, points-1)``.
    """
    if points < 1:
        raise ParameterError("point count must be >= 1")
    return pseudo_spline_mask(2 * points, points - 1)


def is_interpolatory(m: Mask, tol: float = 1e-12) -> bool:
    """True iff the even part is the unit impulse (exactly for rational masks)."""
    ev = m.polyphase[0]
    if ev.offset == 0 and ev.coeffs == (1,):  # exactly 1 (or 1.0) at index 0: cheap, so first
        return True
    if not tol or ev.is_zero or m.is_rational:
        return False
    diff = ev - delta(1.0)
    return all(abs(float(c)) <= tol for c in diff.coeffs)


def catalog() -> dict[str, Mask]:
    """Representative named masks used by the demo scripts and the test suite."""
    entries: dict[str, Mask] = {}
    for order in range(1, 6):
        entries[f"bspline{order}"] = bspline_mask(order)
    for n, nu in [(4, 1), (5, 1), (6, 1), (6, 2), (7, 2), (8, 3)]:
        entries[f"pseudo{n}_{nu}"] = pseudo_spline_mask(n, nu)
    return entries
