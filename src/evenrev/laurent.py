"""Mask (Laurent coefficient sequence) algebra and periodic-signal operators.

The package has one coefficient carrier and one signal type:

* :class:`Mask` -- a finitely supported coefficient sequence ``m`` with an
  integer offset.  Its symbol is the Laurent polynomial
  ``m(z) = sum_k m_k z**k`` evaluated on the complex unit circle.  Catalog
  masks keep exact :class:`fractions.Fraction` coefficients so closed-form
  identities can be checked without rounding; everything else is float.
  Inverse filters are masks too: :class:`~evenrev.inverse.Kernel` is a
  float ``Mask`` that also carries its truncation ``tol``, its ``source`` and
  an optional decay certificate, so every operator here accepts it.

* periodic signals -- one period of a bi-infinite periodic sequence, stored
  as a ``float64`` numpy array along its last axis.  The operators take
  ``(..., N)`` arrays and treat every leading index as its own signal, so a
  batch of signals costs one call; a 1-D array is the case without leading
  axes, and each row of a batch gets bit for bit the result it gets alone.
  All indexing is modulo the period, which makes every convolution operator
  in this module circulant and every symbol identity exact at the roots of
  unity.  Offsets are reduced modulo the period with Python integers first,
  so any integer offset is valid.

Conventions (used consistently everywhere):

* convolution   ``(m * c)_k = sum_l m_l c_{k-l}``
* upscaling     ``(S_m c)_k = sum_l m_{k-2l} c_l``, equivalently
  ``m * (c upsampled by 2)``
* even part     ``(ev m)_k = m_{2k}``, odd part ``(od m)_k = m_{2k+1}``, so
  ``m(z) = ev(z^2) + z * od(z^2)``
* difference    ``(diff c)_k = c_{k+1} - c_k``

Upscaling runs in polyphase form, ``(S_m c)_{2k} = (ev * c)_k`` and
``(S_m c)_{2k+1} = (od * c)_k``: one private primitive wraps each row once (one
``np.concatenate``) for both parts and correlates each against the wrapped rows
laid end to end; :func:`circular_convolve` is its one-part case.

Symbols are sampled on the circle only by :func:`symbol_on_circle`, at the
points ``z_j = exp(-2*pi*i*j/n)`` of :func:`unit_circle`: ``z_j**k`` depends on
``k`` modulo ``n``, so the coefficients are folded modulo ``n`` (supports longer
than ``n`` included) and one FFT gives all ``n`` values, or one ``rfft`` gives
``j = 0 .. n/2`` when the conjugate half is not needed.  Every norm over the
circle uses one grid rule, ``n = max(CIRCLE_SAMPLES, 4 * len(m.coeffs))``, so a
mask of up to 4096 coefficients is sampled at 16384 points and a longer one at
four points a coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational

import numpy as np

from .errors import LengthError, ParameterError

__all__ = [
    "Mask",
    "make_mask",
    "delta",
    "convolve",
    "even_part",
    "odd_part",
    "upsample_mask",
    "as_signal",
    "upsample",
    "downsample",
    "circular_convolve",
    "subdivide",
    "difference",
    "unit_circle",
    "symbol_on_circle",
    "sup_norm_on_circle",
    "min_modulus_on_circle",
    "norm_l1",
    "norm_linf",
    "abs_moment",
]

# Fixed policy: |ev| at or below GUARD counts as zero; the circle grid's least size.
# INVERSE_TOL is the default bound on an inverse's ||g*ev - delta||_1.
GUARD = 1e-9
CIRCLE_SAMPLES = 16384
INVERSE_TOL = 1e-12


def _is_exact(x) -> bool:
    return isinstance(x, Rational)


@dataclass(frozen=True)
class Mask:
    """Finitely supported Laurent coefficient sequence.

    ``coeffs[i]`` is the coefficient of ``z**(offset + i)``.  Construction
    canonically trims leading/trailing zeros; the all-zero mask is the unique
    instance with empty ``coeffs``.
    """

    offset: int
    coeffs: tuple

    def __post_init__(self):
        c = self.coeffs
        coeffs = tuple(c.tolist() if isinstance(c, np.ndarray) else c)
        lo, hi = 0, len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            object.__setattr__(self, "offset", 0)
            object.__setattr__(self, "coeffs", ())
        else:
            object.__setattr__(self, "offset", int(self.offset) + lo)
            object.__setattr__(self, "coeffs", coeffs[lo:hi])

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def support(self) -> range:
        """Indices from the first to the last nonzero coefficient."""
        return range(self.offset, self.offset + len(self.coeffs))

    @property
    def is_rational(self) -> bool:
        return all(_is_exact(c) for c in self.coeffs)

    @property
    def bandwidth(self) -> int:
        """Smallest s with ``m_k = 0`` for ``|k| > s`` (0 for the zero mask)."""
        if self.is_zero:
            return 0
        return max(abs(self.offset), abs(self.offset + len(self.coeffs) - 1))

    def coeff(self, k: int):
        """Coefficient of ``z**k`` (zero outside the support)."""
        i = k - self.offset
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def sum(self):
        """Coefficient sum, i.e. the symbol value at z = 1."""
        return sum(self.coeffs, start=Fraction(0)) if self.is_rational else sum(self.coeffs)

    def astype_float(self) -> "Mask":
        return Mask(self.offset, tuple(self.floats.tolist()))

    @cached_property
    def floats(self) -> np.ndarray:
        """Read-only float64 copy of ``coeffs``, converted once per instance."""
        out = np.array([float(c) for c in self.coeffs])
        out.setflags(write=False)
        return out

    @cached_property
    def polyphase(self) -> tuple:
        """``(even_part(self), odd_part(self))``, split once per instance."""
        return even_part(self), odd_part(self)

    # the wrap geometry of circular_convolve and of subdivide, computed once per instance
    _convolution = cached_property(lambda self: _geometry(self))
    _upscaling = cached_property(lambda self: _geometry(*self.polyphase))

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Mask") -> "Mask":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs))
        out = [self.coeff(k) + other.coeff(k) for k in range(lo, hi)]
        return Mask(lo, tuple(out))

    def __neg__(self) -> "Mask":
        return Mask(self.offset, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Mask") -> "Mask":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Mask):
            return convolve(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, factor) -> "Mask":
        if factor == 0:
            return Mask(0, ())
        return Mask(self.offset, tuple(c * factor for c in self.coeffs))

    def shift(self, amount: int) -> "Mask":
        """Multiply the symbol by ``z**amount``."""
        if self.is_zero:
            return self
        return Mask(self.offset + amount, self.coeffs)

    # -- symbol evaluation ---------------------------------------------------

    def symbol(self, z):
        """Evaluate ``sum_k m_k z**k`` at a complex point or array of points."""
        z = np.asarray(z, dtype=complex)
        if self.is_zero:
            out = np.zeros_like(z)
            return out if out.ndim else complex(out)
        out = np.polyval(self.floats[::-1], z)
        if self.offset:
            out = out * z ** self.offset
        return out if out.ndim else complex(out)


def make_mask(offset: int, coeffs) -> Mask:
    """Build a canonical mask from an offset and a coefficient sequence.

    Coefficients may be ints, :class:`~fractions.Fraction` or floats; exact
    inputs stay exact.  Leading/trailing zeros are trimmed (adjusting the
    offset); an all-zero input yields the zero mask.
    """
    coeffs = tuple(coeffs)
    if not coeffs:
        raise ParameterError("mask needs at least one coefficient")
    return Mask(int(offset), coeffs)


def delta(value=1) -> Mask:
    """Unit-impulse mask (symbol identically ``value``)."""
    return Mask(0, (value,))


def convolve(a: Mask, b: Mask) -> Mask:
    """Coefficient convolution; symbols multiply pointwise.

    Exact when both operands are exact; float masks take a numpy fast path.
    """
    if a.is_zero or b.is_zero:
        return Mask(0, ())
    if not (a.is_rational and b.is_rational):
        return Mask(a.offset + b.offset, tuple(np.convolve(a.floats, b.floats).tolist()))
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    b_nonzero = [(j, cb) for j, cb in enumerate(b.coeffs) if cb != 0]
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j, cb in b_nonzero:
            out[i + j] += ca * cb
    return Mask(a.offset + b.offset, tuple(out))


def _phase(m: Mask, parity: int) -> Mask:
    first = (parity - m.offset) % 2  # position of the first index with this parity
    return Mask((m.offset + first - parity) // 2, m.coeffs[first::2])


def even_part(m: Mask) -> Mask:
    """Subsequence of even-index coefficients: ``(ev m)_k = m_{2k}``."""
    return _phase(m, 0)


def odd_part(m: Mask) -> Mask:
    """Subsequence of odd-index coefficients: ``(od m)_k = m_{2k+1}``."""
    return _phase(m, 1)


def upsample_mask(m: Mask, factor: int = 2) -> Mask:
    """Substitute ``z -> z**factor`` in the symbol."""
    if factor < 1:
        raise ParameterError("upsampling factor must be >= 1")
    if m.is_zero or factor == 1:
        return m
    out = [0] * (factor * (len(m.coeffs) - 1) + 1)
    for i, c in enumerate(m.coeffs):
        out[factor * i] = c
    return Mask(factor * m.offset, tuple(out))


# ---------------------------------------------------------------------------
# periodic signals
# ---------------------------------------------------------------------------


def _signal(values) -> np.ndarray:
    """Validate periodic signals (one period each, last axis) as float64, without copying."""
    c = np.asarray(values, dtype=float)
    if c.ndim < 1 or c.size < 1:
        raise LengthError(
            "a periodic signal is a nonempty array with its period along the last axis"
        )
    return c


def as_signal(values) -> np.ndarray:
    """Validate and copy periodic signals (one period each, last axis) as float64."""
    return _signal(values).copy()


def upsample(c) -> np.ndarray:
    """Interleave zeros: ``[a, b] -> [a, 0, b, 0]`` (period doubles)."""
    c = _signal(c)
    out = np.zeros(c.shape[:-1] + (2 * c.shape[-1],))
    out[..., ::2] = c
    return out


def downsample(c) -> np.ndarray:
    """Keep even-index entries: ``[a, b, c, d] -> [a, c]`` (period halves)."""
    c = _signal(c)
    if c.shape[-1] % 2:
        raise LengthError(f"downsampling needs an even period, got {c.shape[-1]}")
    return c[..., ::2].copy()


def _geometry(*parts: Mask) -> tuple:
    """``(first, extra, parts)`` of the parts ``out_k = sum_i w_i c_{k-o-i}``: all read inside
    ``c_{k+first} .. c_{k+first+extra}``, part ``p`` from ``skip`` on, with ``parts[p] =
    (skip, w reversed and contiguous)``, or None for an empty ``w``."""
    lows = [-p.offset - len(p.coeffs) + 1 for p in parts]
    first = min((low for low, p in zip(lows, parts) if p.coeffs), default=0)
    extra = max((-p.offset for p in parts if p.coeffs), default=0) - first
    return first, extra, tuple((low - first, np.ascontiguousarray(p.floats[::-1])) if p.coeffs
                               else None for low, p in zip(lows, parts))


def _polyphase(geometry: tuple, c: np.ndarray) -> list:
    """Each part of :func:`_geometry` along the last axis of validated ``c``, in order."""
    first, extra, parts = geometry
    n = c.shape[-1]
    # Wrap each row once into the N + extra samples the parts read: the tail from the
    # folded start, whole periods (for a support longer than the period), then a head.
    # Folding the start with Python ints first admits any integer offset.
    start = first % n
    whole, rest = divmod(start + extra, n)
    wrapped = np.concatenate([c[..., start:], *[c] * whole, c[..., :rest]], axis=-1)
    # One correlation per part over the rows laid end to end (np.convolve(a, w) is
    # this correlation, less the argument checks).  Row r's outputs start where its
    # window does, and its first N read only that row, each the same dot product as
    # for the row alone.  An empty part reads nothing and gives zeros.
    flat, out = wrapped.ravel(), []
    for part in parts:
        if part is None:
            out.append(np.zeros(c.shape))
        else:
            skip, taps = part
            full = np.correlate(flat[skip:flat.size - extra + skip + taps.size - 1], taps, "valid")
            out.append(np.ndarray(c.shape, full.dtype, full, 0, wrapped.strides))
    return out


def circular_convolve(m: Mask, c) -> np.ndarray:
    """Periodic convolution ``(m * c)_k = sum_l m_l c_{k-l mod N}``."""
    return _polyphase(m._convolution, _signal(c))[0]


def subdivide(m: Mask, c) -> np.ndarray:
    """Upscaling step ``(S_m c)_k = sum_l m_{k-2l} c_l`` (period doubles).

    Polyphase form: the even part of ``m`` fills the even output slots and
    the odd part the odd ones, each a periodic convolution at period ``N``.
    """
    c = _signal(c)
    out = np.empty(c.shape[:-1] + (2 * c.shape[-1],))
    out[..., 0::2], out[..., 1::2] = _polyphase(m._upscaling, c)
    return out


def difference(c) -> np.ndarray:
    """Periodic forward difference ``(diff c)_k = c_{k+1} - c_k``."""
    c = _signal(c)
    return np.roll(c, -1, axis=-1) - c


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def unit_circle(n: int) -> np.ndarray:
    """``n`` evenly spaced points ``exp(-2*pi*i*j/n)`` on the circle."""
    return np.exp(-2j * np.pi * np.arange(n) / n)


def symbol_on_circle(m: Mask, n: int, half: bool = False) -> np.ndarray:
    """``m(z_j)`` at ``z_j = exp(-2*pi*i*j/n)``, ``j < n`` (``j <= n//2`` if ``half``).

    With real coefficients ``m(z_{n-j})`` is the conjugate of ``m(z_j)``.
    """
    folded = np.bincount((m.offset % n + np.arange(m.floats.size)) % n, m.floats, minlength=n)
    return np.fft.rfft(folded) if half else np.fft.fft(folded)


def _circle_grid(m: Mask) -> int:
    """Points of the circle grid for ``m``: ``CIRCLE_SAMPLES``, or four a coefficient past that."""
    return max(CIRCLE_SAMPLES, 4 * len(m.coeffs))


def sup_norm_on_circle(m: Mask) -> float:
    """Max of ``|m(z)|`` over the circle grid."""
    return float(np.max(np.abs(symbol_on_circle(m, _circle_grid(m), half=True))))


def min_modulus_on_circle(m: Mask) -> float:
    """Min of ``|m(z)|`` over the circle grid."""
    return float(np.min(np.abs(symbol_on_circle(m, _circle_grid(m), half=True))))


def norm_l1(m: Mask) -> float:
    """Sum of absolute coefficient values."""
    return float(np.sum(np.abs(m.floats)))


def norm_linf(m: Mask) -> float:
    """Largest absolute coefficient value (0 for the zero mask)."""
    return float(np.max(np.abs(m.floats), initial=0.0))


@np.errstate(over="ignore")  # an overflow gives inf, as Python's float arithmetic does
def abs_moment(m: Mask) -> float:
    """First absolute moment ``sum_k |m_k| |k|`` of the coefficients, summed from the left."""
    n = m.floats.size
    k = np.array([float(m.offset + i) for i in range(n)])  # each position rounded once
    return float(np.add.accumulate(np.abs(m.floats * k))[-1]) if n else 0.0
