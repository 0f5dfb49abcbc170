"""Inverting the even part of a subdivision mask.

A mask whose even symbol never vanishes on the unit circle admits an inverse
filter ``g`` with ``ev(z) * g(z) = 1`` there; convolving with ``g`` after
downsampling undoes the even half of the upscaling step.  This module computes
such kernels one way, factoring ``ev`` at its roots into a causal geometric
series times an anticausal one (the paper's quadratic and cubic closed forms have
the roots -3 and -3 -+ 2 sqrt 2), and certifies the exponential decay of their
coefficients where a certificate is available.  A :class:`Kernel` is a
:class:`~evenrev.laurent.Mask`, so :mod:`evenrev.laurent` applies to it unchanged.
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
from .laurent import GUARD, INVERSE_TOL, Mask, _circle_grid, norm_l1, symbol_on_circle
from .masks import _check_pseudo_spline, generalized_binomial

__all__ = [
    "SQRT2_RATIO",
    "DecayCertificate",
    "Kernel",
    "EvenReversibility",
    "check_even_reversible",
    "cubic_series_constants",
    "even_inverse_spectral",
    "decay_certificate",
    "min_even_symbol",
    "one_norm_bound_C",
    "inverse_residual_l1",
]

#: Decay ratio 3 - 2*sqrt(2) of the cubic spline even-inverse.
SQRT2_RATIO = 3.0 - 2.0 * math.sqrt(2.0)

#: Most coefficients either side of an inverse kernel may take.
_MAX_TAPS = 1 << 20


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
    """Truncated inverse filter: a float :class:`Mask` with a verified budget.

    ``coeffs[i]`` is the coefficient at index ``offset + i``.  The omitted tail has
    mass at most ``tol / max(1, ||ev||_1)``, and the residual ``||g * ev - delta||_1``
    of the generating mask was measured to be at most ``tol``.
    """

    tol: float
    source: str
    certificate: DecayCertificate | None = None


class EvenReversibility(NamedTuple):
    """Outcome of the nonvanishing test for an even symbol."""

    ok: bool
    min_modulus: float
    witness: complex


def _reversibility(ev: Mask, n: int):
    """``(values, reversibility)`` of ``ev`` at the ``n`` roots of unity: the one place that
    decides whether ``|ev|`` is too small, ``<= GUARD``.

    ``values`` holds ``ev(z_j)``, ``j = 0 .. n/2``; the rest are conjugates, so its moduli, real
    parts and ``|imag|`` are the whole grid's.  The witness is the ``z_j`` of least modulus.
    """
    vals = symbol_on_circle(ev, n, half=True)
    mods = np.abs(vals)
    i = int(np.argmin(mods))
    witness = complex(np.exp(-2j * np.pi * i / n))
    return vals, EvenReversibility(bool(mods[i] > GUARD), float(mods[i]), witness)


def _even_symbol(alpha: Mask):
    """``(ev, values, reversibility)`` from one sampling of the even symbol on the circle grid."""
    ev = alpha.polyphase[0]
    if ev.is_zero:
        raise EvenReversibilityError("mask has identically zero even part")
    return (ev, *_reversibility(ev, _circle_grid(ev)))


def check_even_reversible(alpha: Mask) -> EvenReversibility:
    """Test ``|ev(z)| > GUARD`` on the circle grid of :mod:`evenrev.laurent`.

    Returns the minimum modulus and the grid point attaining it; raises
    :class:`EvenReversibilityError` when the even part is identically zero.
    """
    return _even_symbol(alpha)[2]


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
# inversion by spectral factorization
# ---------------------------------------------------------------------------


def _geometric(x: np.ndarray, ratios) -> np.ndarray:
    """``x`` times ``prod 1/(1 - r z)``, in place, to ``x.size`` coefficients: ``1/(1 - r z) =
    (1 + r z)(1 + r**2 z**2)(1 + r**4 z**4) ...``, so a repeated root is just applied twice."""
    for r in ratios:
        step = 1
        while step < x.size and abs(r) > 2.0**-60:  # past that, r**step adds below rounding
            x[step:] += r * x[:-step]
            r, step = r * r, 2 * step
    return x


def _side_length(near: np.ndarray, far: np.ndarray, log_target: float) -> int:
    """Coefficients one side keeps, or :class:`SlowDecayError` past ``_MAX_TAPS``.  ``near``
    and ``far`` are the ratio moduli of this side's series and the other's; with ``h`` the
    coefficients of ``prod 1/(1 - t z)`` over ``near`` (a Polya frequency sequence, so
    ``r_N = h_{N+1}/h_N`` never grows), the side drops past ``N`` at most ``h_N / (1 - r_N)
    * prod 1/(1 - f r_N) / |C|``.  ``log_target`` is log(share * |C|)."""
    if near.size == 0:
        return 1
    base = float(near.max())
    if base < 1.0:  # h_N >= base**N, r_N >= base and the product >= 1 give a first size
        size = 2 * max(8, math.ceil((log_target + math.log1p(-base)) / math.log(base)))
        while size <= 2 * _MAX_TAPS:
            h = _geometric(np.eye(1, size + 1)[0], near / base)  # h_N / base**N
            ratio = base * h[1:] / h[:-1]
            with np.errstate(divide="ignore", invalid="ignore"):  # r_N >= 1 early on
                log_bound = np.log(h[:-1] / (1.0 - ratio)) + np.arange(size) * math.log(base)
                for f in far:
                    log_bound -= np.log1p(-f * ratio)
            hits = np.flatnonzero(log_bound[1:] <= log_target)
            if hits.size and hits[0] < _MAX_TAPS:
                return int(hits[0]) + 1
            size *= 2
    raise SlowDecayError(
        f"decay base {base:.10g} needs more than {_MAX_TAPS} coefficients on one side")


def even_inverse_spectral(alpha: Mask, tol: float = INVERSE_TOL) -> Kernel:
    """Invert the even part of ``alpha`` by factoring it at its roots.

    With ``a`` roots ``rho`` inside the circle and the roots ``R`` outside, ``1/ev`` is
    ``z**-(o+a)/C`` times the anticausal ``prod 1/(1 - rho/z)`` and the causal
    ``prod 1/(1 - z/R)``.  A tail bound on the roots against ``tol / max(1, ||ev||_1)``
    (the residual multiplies the dropped mass by up to ``||ev||_1``) fixes each side's
    length; the causal series runs to twice its cut, so kept coefficients are exact to
    rounding, and one Newton step ``g + g * (delta - ev * g)`` mends the roots' rounding.
    Raises :class:`EvenReversibilityError` when ``|ev|`` reaches ``GUARD`` on the circle grid, and
    :class:`SlowDecayError` past 2**20 coefficients a side or a residual above ``tol``.
    """
    if not 0 < tol < math.inf:
        raise ParameterError(f"tol must be positive and finite, got {tol!r}")
    ev, vals, rev = _even_symbol(alpha)  # the certificate reuses vals
    if not rev.ok:
        raise EvenReversibilityError(
            f"even symbol modulus {rev.min_modulus:.3e} at z={rev.witness:.6f} "
            f"is below the guard {GUARD:.1e}"
        )
    e, l1 = ev.floats, norm_l1(ev)
    big = np.flatnonzero(np.abs(e) > 2.0**-52 * l1)  # a leading 1e-222 makes np.roots lose
    core = e[big[0] : big[-1] + 1]  # the other roots; Newton and the residual use all of ev
    roots = np.roots(core[::-1])
    inner = np.abs(roots) < 1.0
    rho, ratios = roots[inner], 1.0 / roots[~inner]
    shift = int(big[0]) + rho.size  # ev ~ C z**(o + shift) prod(1 - rho/z) prod(1 - z/R)
    scale = float(np.real(core[-1] * np.prod(-roots[~inner])))  # C
    sides = max(1, (rho.size > 0) + (ratios.size > 0))  # each nonempty side drops its share
    log_target = math.log(tol) + math.log(abs(scale) / max(1.0, l1) / sides)
    n_in = _side_length(np.abs(rho), np.abs(ratios), log_target)
    n_out = _side_length(np.abs(ratios), np.abs(rho), log_target)
    x = np.zeros(n_in + 2 * n_out - 1, roots.dtype)
    x[n_in - 1] = 1.0 / scale
    _geometric(x[n_in - 1 :], ratios)
    _geometric(x[::-1], rho)
    g = np.real(x[: n_in + n_out - 1])
    p = shift + n_in - 1  # one Newton step on g's support; z**0 of ev * g sits at p
    r = -np.convolve(g, e)
    r[p] += 1.0
    n = 1 << (g.size + r.size - 2).bit_length()  # a power of two past both supports
    g = g + np.fft.irfft(np.fft.rfft(g, n) * np.fft.rfft(r, n), n)[p : p + g.size]
    cert = _certificate(ev, vals, rev)
    kernel = Kernel(-(ev.offset + shift) - (n_in - 1), g, tol, "spectral",
                    cert if cert.hypothesis_met else None)
    residual = inverse_residual_l1(alpha, kernel)
    if residual > tol:
        raise SlowDecayError(f"inverse of {len(kernel.coeffs)} coefficients has residual "
                             f"||g*ev - delta||_1 = {residual:.3e} above tol {tol:.1e}")
    return kernel


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
    circle grid, and ``GUARD`` is the vanishing threshold.
    """
    return _certificate(*_even_symbol(alpha))


def _decay_constants(kappa: float, s: int):
    """``(q, lam, amplitude)`` of the decay bound at ``kappa``, ``s``; ``K = amplitude/min|ev|``."""
    q = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    return q, q ** (1.0 / s), max(1.0, (1.0 + math.sqrt(kappa)) ** 2 / (2.0 * kappa))


def _certificate(ev, vals, rev: EvenReversibility) -> DecayCertificate:
    mn, mx = rev.min_modulus, float(np.max(np.abs(vals)))
    if not rev.ok:
        raise CertificateUnavailableError(
            f"even symbol modulus reaches {mn:.3e}; no summable inverse"
        )
    # Only a support centred on 0 can be real on the circle, and its imaginary
    # part then has degree below n/8: zero on the n-point grid is zero everywhere.
    positive = bool(
        2 * ev.offset + len(ev.coeffs) - 1 == 0
        and np.max(np.abs(vals.imag)) <= 1e-12 * max(1.0, mx)
        and np.min(vals.real) > GUARD
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
