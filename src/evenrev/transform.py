"""Multilevel pyramid transform on periodic signals.

One analysis step decimates the data with the even-inverse of the mask and
stores the prediction residual against the upscaled coarse data::

    coarse = g * (c downsampled by 2)        detail = c - S_alpha(coarse)

With the true even-inverse the detail vanishes at every even index, so the
details carry only half the information; reconstruction
``c = S_alpha(coarse) + detail`` is exact for *any* decimation filter, right
or wrong, which the tests exploit.

Two decimation modes are provided:

* ``"exact"`` -- divide by the even symbol at the roots of unity (discrete
  Fourier division, sampled once per :func:`decompose` at its finest coarse
  period).  On the periodic model this is the exact inverse, so
  even-detail annihilation holds to machine precision.
* ``"kernel"`` -- circular convolution with a truncated inverse
  :class:`~evenrev.inverse.Kernel`, matching the bi-infinite formulation and
  exercising the truncation budget.  A kernel is a mask, so this is the same
  :func:`~evenrev.laurent.circular_convolve` that any mask goes through.

Like the :mod:`~evenrev.laurent` operators, decimation, :func:`decompose`
and :func:`reconstruct` work along the last axis of ``(..., N)`` arrays, so a
:class:`Pyramid` may hold a batch of signals' pyramids (every detail has the
coarse data's leading shape).  Pyramid files stay 1-D:
:func:`~evenrev.serialize.pyramid_to_obj` refuses a batched pyramid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DecimationSingularError,
    LengthError,
    LevelError,
    ParameterError,
    ShapeError,
)
from .inverse import Kernel, even_inverse_spectral
from .laurent import (
    Mask, _signal, as_signal, circular_convolve, downsample, subdivide, symbol_on_circle,
)

__all__ = ["Pyramid", "decimate", "decompose_level", "decompose", "reconstruct", "threshold_details"]

MODES = ("exact", "kernel")


@dataclass(frozen=True)
class Pyramid:
    """Coarse approximation plus detail signals for each finer level.

    ``details[l-1]`` holds level ``l`` (period ``coarse.shape[-1] * 2**l``,
    leading axes as ``coarse``); the finest level comes last.
    """

    coarse: np.ndarray
    details: tuple
    mask_id: str = "custom"

    def __post_init__(self):
        coarse = as_signal(self.coarse)
        coarse.setflags(write=False)
        fixed = []
        size = coarse.shape[-1]
        for i, d in enumerate(self.details):
            d = as_signal(d)
            size *= 2
            expected = coarse.shape[:-1] + (size,)
            if d.shape != expected:
                raise ShapeError(f"detail level {i + 1} has shape {d.shape}, expected {expected}")
            d.setflags(write=False)
            fixed.append(d)
        object.__setattr__(self, "coarse", coarse)
        object.__setattr__(self, "details", tuple(fixed))

    @property
    def levels(self) -> int:
        return len(self.details)

    @property
    def fine_length(self) -> int:
        return self.coarse.shape[-1] * 2 ** self.levels

    def max_even_detail(self) -> float:
        """Largest detail magnitude at an even index, over all levels."""
        if not self.details:
            return 0.0
        return max(float(np.max(np.abs(d[..., ::2]))) for d in self.details)


def _even_values(ev: Mask, m: int, guard: float) -> np.ndarray:
    """``ev(z_j)``, ``j = 0 .. m/2``, at period ``m``; raises where one is within ``guard`` of 0."""
    vals = symbol_on_circle(ev, m, half=True)
    bad = np.abs(vals) <= guard
    if np.any(bad):
        where = complex(np.exp(-2j * np.pi * int(np.argmax(bad)) / m))
        raise DecimationSingularError(
            f"even symbol vanishes at the root of unity {where:.6f} (period {m})"
        )
    return vals


def _divide(ce: np.ndarray, vals: np.ndarray) -> np.ndarray:
    return np.fft.irfft(np.fft.rfft(ce, axis=-1) / vals, ce.shape[-1], axis=-1)


def _exact_decimate(ce: np.ndarray, ev: Mask, guard: float) -> np.ndarray:
    return _divide(ce, _even_values(ev, ce.shape[-1], guard))


def _interpolatory(ev: Mask) -> bool:
    return ev.offset == 0 and ev.floats.tolist() == [1.0]


def decimate(
    c,
    alpha: Mask,
    mode: str = "exact",
    kernel: Kernel | None = None,
    guard: float = 1e-9,
) -> np.ndarray:
    """Halve the period: convolve the downsampled data with the even-inverse.

    In ``"exact"`` mode the periodized inverse is applied by discrete Fourier
    division (interpolatory masks reduce to plain downsampling); in
    ``"kernel"`` mode a truncated kernel is convolved instead (computed
    spectrally from ``alpha`` when not supplied).
    """
    c = _signal(c)
    if c.shape[-1] % 2:
        raise LengthError(f"decimation needs an even period, got {c.shape[-1]}")
    if mode not in MODES:
        raise ParameterError(f"unknown decimation mode {mode!r}; use one of {MODES}")
    ce = downsample(c)
    if mode == "kernel":
        if kernel is None:
            kernel = even_inverse_spectral(alpha)
        return circular_convolve(kernel, ce)
    ev = alpha.polyphase[0]
    if _interpolatory(ev):
        return ce
    return _exact_decimate(ce, ev, guard)


def _analysis_step(c: np.ndarray, alpha: Mask, coarse: np.ndarray):
    """``(coarse, c - S_alpha(coarse))`` from already decimated ``coarse``."""
    detail = subdivide(alpha, coarse)
    return coarse, np.subtract(c, detail, out=detail)  # in place: one array less per level


def decompose_level(
    c,
    alpha: Mask,
    mode: str = "exact",
    kernel: Kernel | None = None,
):
    """One analysis step: returns ``(coarse, detail)`` with ``detail`` full length."""
    return _analysis_step(c, alpha, decimate(c, alpha, mode=mode, kernel=kernel))


def decompose(
    c,
    alpha: Mask,
    levels: int,
    mode: str = "exact",
    kernel: Kernel | None = None,
    mask_id: str = "custom",
) -> Pyramid:
    """Run ``levels`` analysis steps, finest data in, coarse-plus-details out."""
    c = _signal(c)
    if levels < 1:
        raise LevelError(f"need at least one level, got {levels}")
    n = c.shape[-1]
    if n % (1 << levels) or n // (1 << levels) < 2:
        raise LevelError(
            f"period {n} does not support {levels} halvings with >= 2 coarse samples"
        )
    if mode == "kernel" and kernel is None:
        kernel = even_inverse_spectral(alpha)
    ev = alpha.polyphase[0]
    vals = _even_values(ev, n // 2, 1e-9) if mode == "exact" and not _interpolatory(ev) else None
    details = []
    for level in range(levels):
        if vals is None:
            coarse = decimate(c, alpha, mode=mode, kernel=kernel)
        else:  # period m/2's points are period m's even-indexed ones: every 2**l-th
            coarse = _divide(downsample(c), vals[:: 1 << level])
        c, d = _analysis_step(c, alpha, coarse)
        details.append(d)
    details.reverse()  # store coarsest-level detail first
    return Pyramid(c, tuple(details), mask_id)


def reconstruct(p: Pyramid, alpha: Mask) -> np.ndarray:
    """Exact synthesis ``c = S_alpha(coarse) + detail``, level by level.

    Inverts :func:`decompose` for any decimation mode or kernel, because the
    analysis stored exactly the residual that this sum restores.
    """
    c = np.asarray(p.coarse, dtype=float)
    for d in p.details:
        c = subdivide(alpha, c)
        c += d  # in place: one array less per level
    return c


def threshold_details(p: Pyramid, eps: float):
    """Zero all detail entries with ``|d| < eps``; coarse data is untouched.

    Returns ``(pyramid, kept, total)`` where ``kept`` counts the detail
    entries still nonzero afterwards.
    """
    if not eps >= 0:  # also refuses NaN, which no |d| < eps would ever catch
        raise ParameterError(f"threshold must be nonnegative, got {eps!r}")
    kept = 0
    total = 0
    new_details = []
    for d in p.details:
        out = np.where(np.abs(d) < eps, 0.0, d)
        kept += int(np.count_nonzero(out))
        total += out.size
        new_details.append(out)
    return Pyramid(p.coarse, tuple(new_details), p.mask_id), kept, total
