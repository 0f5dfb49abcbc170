"""Inverting the even part of a subdivision mask.

A mask whose even symbol never vanishes on the unit circle admits an inverse
filter ``g`` with ``ev(z) * g(z) = 1`` there; convolving with ``g`` after
downsampling undoes the even half of the upscaling step.  This module
computes such kernels three ways -- closed forms for the quadratic and cubic
spline masks, and spectral sampling of ``1/ev`` for everything else -- and
certifies the exponential decay of their coefficients where a certificate is
available.  A :class:`Kernel` is a :class:`~evenrev.laurent.Mask`, so the
mask operators and norms of :mod:`evenrev.laurent` apply to it unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    CertificateUnavailableError,
    EvenReversibilityError,
    ParameterError,
    SlowDecayError,
)
from .laurent import CIRCLE_SAMPLES, GUARD, INVERSE_TOL, Mask, norm_l1, symbol_on_circle
from .masks import _check_pseudo_spline, bspline_mask, generalized_binomial

__all__ = [
    "SQRT2_RATIO",
    "DecayCertificate",
    "Kernel",
    "EvenReversibility",
    "check_even_reversible",
    "even_inverse_closed_quadratic",
    "even_inverse_closed_cubic",
    "cubic_series_constants",
    "even_inverse_spectral",
    "even_inverse",
    "decay_certificate",
    "min_even_symbol",
    "one_norm_bound_C",
    "inverse_residual_l1",
]

#: Decay ratio 3 - 2*sqrt(2) of the cubic spline even-inverse.
SQRT2_RATIO = 3.0 - 2.0 * math.sqrt(2.0)

#: Largest grid the spectral inverter doubles to before it gives up.
_MAX_GRID = 1 << 20


@dataclass(frozen=True)
class DecayCertificate:
    """Constants certifying ``|g_l| <= K * lam**|l|`` for an inverse kernel.

    ``kappa`` is the modulus condition number of the even symbol, ``s`` its
    bandwidth, ``q = (sqrt(kappa)-1)/(sqrt(kappa)+1)`` and ``lam = q**(1/s)``.
    The bound is proven only when the even symbol is real and strictly
    positive on the circle (symmetric coefficients); ``hypothesis_met``
    records whether that premise holds, otherwise the numbers are nominal.
    """

    kappa: float
    s: int
    q: float
    lam: float
    K: float
    hypothesis_met: bool

    def bound(self, index: int) -> float:
        """Certified magnitude bound at coefficient ``index`` (``0.0 ** 0`` is 1)."""
        return self.K * self.lam ** abs(index)


@dataclass(frozen=True)
class Kernel(Mask):
    """Truncated inverse filter: a float :class:`Mask` with a certified budget.

    ``coeffs[i]`` is the coefficient at index ``offset + i``.  The omitted
    tail has absolute mass at most ``tol`` and the residual
    ``||g * ev - delta||_1`` of the generating mask stays below ``tol``
    (up to float rounding when ``tol`` is below machine precision).
    """

    tol: float
    source: str
    certificate: DecayCertificate | None = None


class EvenReversibility(NamedTuple):
    """Outcome of the nonvanishing test for an even symbol."""

    ok: bool
    min_modulus: float
    witness: complex


def _even_symbol(alpha: Mask, samples: int, guard: float):
    """``(ev, values, reversibility)`` from one sampling of the even symbol.

    ``values`` holds ``ev(z_j)``, ``j = 0 .. n/2``, of an ``n``-point grid; the rest
    are conjugates, so its moduli, real parts and ``|imag|`` are the whole grid's.
    """
    ev = alpha.polyphase[0]
    if ev.is_zero:
        raise EvenReversibilityError("mask has identically zero even part")
    n = max(samples, 4 * len(ev.coeffs))
    vals = symbol_on_circle(ev, n, half=True)
    mods = np.abs(vals)
    i = int(np.argmin(mods))
    witness = complex(np.exp(-2j * np.pi * i / n))
    return ev, vals, EvenReversibility(bool(mods[i] > guard), float(mods[i]), witness)


def check_even_reversible(alpha: Mask) -> EvenReversibility:
    """Test ``|ev(z)| > GUARD`` on the ``CIRCLE_SAMPLES``-point unit-circle grid.

    Returns the minimum modulus and the grid point attaining it; raises
    :class:`EvenReversibilityError` when the even part is identically zero.
    """
    return _even_symbol(alpha, CIRCLE_SAMPLES, GUARD)[2]


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _quadratic_tail(count: int) -> float:
    """Mass ``2 * 3**-count`` of the quadratic inverse beyond its first ``count`` coefficients."""
    return 2.0 * 3.0 ** (-count)


def _cubic_tail(halfwidth: int) -> float:
    """Mass of the cubic inverse beyond ``|k| <= halfwidth``: two geometric tails."""
    return 2.0 * math.sqrt(2.0) * SQRT2_RATIO ** (halfwidth + 1) / (1.0 - SQRT2_RATIO)


def _shortest(tail, length: int, tol: float) -> int:
    """Smallest length from ``length`` on whose dropped ``tail(length)`` is within ``tol``."""
    while tail(length) > tol:
        length += 1
    return length


def even_inverse_closed_quadratic(count: int) -> Kernel:
    """One-sided inverse of the quadratic spline even part ``(3 + z)/4``.

    Coefficients ``(4/3) * (-1/3)**k`` for ``k = 0 .. count-1``.
    """
    if count < 1:
        raise ParameterError("count must be >= 1")
    k = np.arange(count)
    coeffs = (4.0 / 3.0) * (-1.0 / 3.0) ** k
    return Kernel(0, coeffs, _quadratic_tail(count), "closed_quadratic")


def even_inverse_closed_cubic(halfwidth: int) -> Kernel:
    """Symmetric inverse of the cubic spline even part ``(1/z + 6 + z)/8``.

    Coefficients ``sqrt(2) * (-(3 - 2*sqrt(2)))**|k|`` for ``|k| <= halfwidth``.
    """
    if halfwidth < 0:
        raise ParameterError("halfwidth must be >= 0")
    k = np.arange(-halfwidth, halfwidth + 1)
    coeffs = math.sqrt(2.0) * (-SQRT2_RATIO) ** np.abs(k)
    return Kernel(-halfwidth, coeffs, _cubic_tail(halfwidth), "closed_cubic")


def cubic_series_constants(kmax: int):
    """Series sums behind the cubic closed form, by direct summation.

    Returns arrays ``a`` and ``b`` of length ``kmax + 1`` with

    * ``a[k] = sum_n C(2(n+k), n) * 6**(-2(n+k))``
    * ``b[k] = sum_n C(2(n+k)+1, n) * 6**(-2(n+k)-1)``

    The summand ratio stays below 4/9, so 96 terms leave a tail under
    1e-14; these sums are the independent oracle for the geometric closed
    form of the cubic inverse.
    """
    if kmax < 0:
        raise ParameterError("kmax must be >= 0")
    a = np.zeros(kmax + 1)
    b = np.zeros(kmax + 1)
    for k in range(kmax + 1):
        sa = 0.0
        sb = 0.0
        for n in range(96):
            sa += math.comb(2 * (n + k), n) * 6.0 ** (-2 * (n + k))
            sb += math.comb(2 * (n + k) + 1, n) * 6.0 ** (-2 * (n + k) - 1)
        a[k] = sa
        b[k] = sb
    return a, b


# ---------------------------------------------------------------------------
# spectral inversion
# ---------------------------------------------------------------------------


def _periodized_inverse(ev: Mask, size: int) -> np.ndarray:
    """Inverse DFT of ``1/ev`` on ``size`` roots of unity, centred on index 0."""
    g = np.fft.irfft(1.0 / symbol_on_circle(ev, size, half=True), size)
    return np.fft.fftshift(g)  # ascending signed indices -size/2 .. size/2 - 1


def even_inverse_spectral(
    alpha: Mask,
    tol: float = INVERSE_TOL,
    guard: float = GUARD,
    samples: int = CIRCLE_SAMPLES,
) -> Kernel:
    """Invert the even part of ``alpha`` by sampling ``1/ev`` at roots of unity.

    The residual ``||g * ev - delta||_1`` multiplies a coefficient error by up
    to ``||ev||_1``, so the budget is ``b = tol / max(1, ||ev||_1)``.  The grid
    is doubled until successive periodizations agree to ``b/4`` and the edge
    coefficients fall below ``b/4``; the result is trimmed so the dropped mass
    stays below ``b/4`` and the residual is verified to be below ``tol``.

    Raises :class:`EvenReversibilityError` when the even symbol (nearly)
    vanishes, and :class:`SlowDecayError` when a grid of 2**20 points is
    reached before stabilisation or when the stabilised residual exceeds
    ``tol`` (``tol`` near the rounding floor).
    """
    if not 0 < tol < math.inf:
        raise ParameterError(f"tol must be positive and finite, got {tol!r}")
    ev, vals, rev = _even_symbol(alpha, samples, guard)  # the certificate reuses vals
    if not rev.ok:
        raise EvenReversibilityError(
            f"even symbol modulus {rev.min_modulus:.3e} at z={rev.witness:.6f} "
            f"is below the guard {guard:.1e}"
        )
    # The periodized inverse is centred on index 0, so invert ev moved to the
    # centre of its support there and move the kernel back by the same amount.
    centre = (2 * ev.offset + len(ev.coeffs) - 1) // 2
    centred = ev.shift(-centre)
    size = 64
    while 4 * len(ev.coeffs) > size:
        size *= 2
    prev = _periodized_inverse(centred, size)
    budget = tol / max(1.0, norm_l1(ev))
    while size < _MAX_GRID:
        size *= 2
        curr = _periodized_inverse(centred, size)
        half = prev.size // 2
        lo = size // 2 - half  # position of prev's index -half inside curr
        drift = float(np.max(np.abs(curr[lo : lo + prev.size] - prev)))
        edge = float(
            max(np.max(np.abs(curr[: size // 4])), np.max(np.abs(curr[3 * size // 4 :])))
        )
        if drift < budget / 4.0 and edge < budget / 4.0:
            trimmed = _trim_kernel(curr, -(size // 2) - centre, budget)
            residual = inverse_residual_l1(alpha, trimmed)
            if residual > tol:
                raise SlowDecayError(
                    f"inverse stabilised at {size} samples with residual "
                    f"||g*ev - delta||_1 = {residual:.3e} above tol {tol:.1e}"
                )
            cert = _certificate(ev, vals, rev.min_modulus, guard)
            return Kernel(trimmed.offset, trimmed.coeffs, tol, "spectral",
                          cert if cert.hypothesis_met else None)
        prev = curr
    raise SlowDecayError(
        f"inverse coefficients did not stabilise below {tol:.1e} within {_MAX_GRID} samples"
    )


def _trim_kernel(values: np.ndarray, offset: int, tol: float) -> Mask:
    """Drop edge coefficients while the discarded mass stays within budget.

    Each edge drops the longest run whose running sum of magnitudes stays
    within ``tol/8``, keeping at least one coefficient; ``np.cumsum`` adds in
    order, so the sums are those of a loop from that edge.
    """
    budget = tol / 8.0
    mags = np.abs(values)
    lo = min(int(np.searchsorted(np.cumsum(mags), budget, "right")), values.size - 1)
    dropped = int(np.searchsorted(np.cumsum(mags[:lo:-1]), budget, "right"))
    return Mask(offset + lo, values[lo : values.size - dropped])


def even_inverse(
    alpha: Mask,
    tol: float = INVERSE_TOL,
    method: str = "auto",
    guard: float = GUARD,
    samples: int = CIRCLE_SAMPLES,
) -> Kernel:
    """Dispatch between the closed forms and the spectral inverter.

    ``method="closed"`` serves only the quadratic and cubic spline masks;
    ``"auto"`` picks the closed form when the mask matches one of them and
    the spectral route otherwise.  A closed form is as long as the shortest
    one whose dropped tail is within ``tol``.
    """
    if method not in ("auto", "closed", "spectral"):
        raise ParameterError(f"unknown method {method!r}")
    if not 0 < tol < math.inf:
        raise ParameterError(f"tol must be positive and finite, got {tol!r}")
    if method == "spectral":
        return even_inverse_spectral(alpha, tol=tol, guard=guard, samples=samples)
    f = alpha.astype_float()
    if f == bspline_mask(3).astype_float():
        return even_inverse_closed_quadratic(_shortest(_quadratic_tail, 1, tol))
    if f == bspline_mask(4).astype_float():
        return even_inverse_closed_cubic(_shortest(_cubic_tail, 0, tol))
    if method == "closed":
        raise ParameterError("closed-form inverses exist only for the quadratic and cubic spline masks")
    return even_inverse_spectral(alpha, tol=tol, guard=guard, samples=samples)


# ---------------------------------------------------------------------------
# certificates and closed-form norms
# ---------------------------------------------------------------------------


def decay_certificate(alpha: Mask) -> DecayCertificate:
    """Exponential-decay constants for the inverse of the even part.

    ``kappa = max|ev| / min|ev|`` and ``K = max(1, (1+sqrt(kappa))^2/(2*kappa))
    / min|ev|`` with ``lam = q**(1/s)``; for ``kappa = 1`` the inverse is a
    pure impulse and the exact values ``lam = 0`` and ``K = 1/min|ev|`` are
    returned.  The bound is guaranteed only when the even symbol is real and
    strictly positive on the circle; otherwise the returned constants are
    nominal and ``hypothesis_met`` is ``False``.  The symbol is sampled on the
    ``CIRCLE_SAMPLES``-point grid, and ``GUARD`` is the vanishing threshold.
    """
    ev, vals, rev = _even_symbol(alpha, CIRCLE_SAMPLES, GUARD)
    return _certificate(ev, vals, rev.min_modulus, GUARD)


def _decay_constants(kappa: float, s: int):
    """``(q, lam, amplitude)`` of the decay bound at ``kappa``, ``s``; ``K = amplitude/min|ev|``."""
    q = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    return q, q ** (1.0 / s), max(1.0, (1.0 + math.sqrt(kappa)) ** 2 / (2.0 * kappa))


def _certificate(ev, vals, mn, guard) -> DecayCertificate:
    mx = float(np.max(np.abs(vals)))
    if mn <= guard:
        raise CertificateUnavailableError(
            f"even symbol modulus reaches {mn:.3e}; no summable inverse"
        )
    # Only a support centred on 0 can be real on the circle, and its imaginary
    # part then has degree below n/8: zero on the n-point grid is zero everywhere.
    positive = bool(
        2 * ev.offset + len(ev.coeffs) - 1 == 0
        and np.max(np.abs(vals.imag)) <= 1e-12 * max(1.0, mx)
        and np.min(vals.real) > guard
    )
    kappa = mx / mn
    if kappa <= 1.0 + 1e-12:
        return DecayCertificate(1.0, ev.bandwidth, 0.0, 0.0, 1.0 / mn, positive)
    q, lam, amplitude = _decay_constants(kappa, ev.bandwidth)
    return DecayCertificate(kappa, ev.bandwidth, q, lam, amplitude / mn, positive)


def min_even_symbol(n: int, nu: int) -> Fraction:
    """Exact min |ev| of the order-``n`` type-``nu`` pseudo-spline, attained at ``z = -1``:
    ``sum_{j<=nu} C(n/2 + nu, j) / 2**(floor((n-1)/2) + nu)`` (generalized binomials),
    whose reciprocal is the spectral norm of the even-inverse (primal: n = 2k, dual: 2k + 1)."""
    _check_pseudo_spline(n, nu)
    total = sum(generalized_binomial(Fraction(n, 2) + nu, j) for j in range(nu + 1))
    return total / 2 ** ((n - 1) // 2 + nu)


def one_norm_bound_C(k: int, nu: int) -> float:
    """Upper bound on the one-norm of the order-2k primal even-inverse.

    ``C = kappa * amplitude * (1+lam)/(1-lam)`` with the constants of
    :func:`decay_certificate` for ``kappa = 1 / min |ev|`` and
    ``s = floor((k+nu)/2)``.  The interpolatory case ``nu = k-1`` has
    ``kappa = 1`` and the exact value 1 is returned.
    """
    if k < 2:
        raise ParameterError(f"need k >= 2 and 0 <= nu <= k-1, got ({k}, {nu})")
    kappa = 1 / min_even_symbol(2 * k, nu)
    if kappa == 1:
        return 1.0
    _, lam, amplitude = _decay_constants(float(kappa), (k + nu) // 2)
    return float(kappa) * amplitude * (1.0 + lam) / (1.0 - lam)


def inverse_residual_l1(alpha: Mask, kernel: Mask) -> float:
    """One-norm ``||g * ev - delta||_1`` of the finite convolution."""
    ev = alpha.polyphase[0]
    if ev.is_zero:
        raise EvenReversibilityError("mask has identically zero even part")
    conv = np.convolve(kernel.floats, ev.floats)
    pos = -(kernel.offset + ev.offset)  # index of the z**0 coefficient
    if 0 <= pos < conv.size:
        conv[pos] -= 1.0
        return float(np.sum(np.abs(conv)))
    return float(np.sum(np.abs(conv)) + 1.0)
