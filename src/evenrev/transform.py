"""Multilevel pyramid transform on periodic signals.

One analysis step decimates the data with the even-inverse of the mask and
stores the prediction residual against the upscaled coarse data::

    coarse = g * (c downsampled by 2)        detail = c - S_alpha(coarse)

With the true even-inverse the detail vanishes at every even index, so the
details carry only half the information; reconstruction
``c = S_alpha(coarse) + detail`` is exact for *any* decimation filter, right
or wrong, which the tests exploit.

Two decimation modes, one dispatch for :func:`decimate` and :func:`decompose`:

* ``"exact"`` -- divide by the even symbol at the roots of unity (discrete
  Fourier division, sampled once per :func:`decompose` at its finest coarse
  period).  On the periodic model this is the exact inverse, so the step is
  a lifting pair (Sweldens 1998): a scaling of the even channel,
  ``coarse = ev^-1 * c_even``, then a prediction of the odd channel,
  ``d_odd = c_odd - od * coarse``.  :func:`decompose` computes only that
  prediction and stores no even detail, so the pyramid holds N coefficients
  for N samples: the even residual ``c_even - ev * coarse`` is rounding by
  construction (criterion 7 measures it through :func:`decimate` and
  :func:`~evenrev.laurent.subdivide`).
* ``"kernel"`` -- circular convolution with a truncated inverse
  :class:`~evenrev.inverse.Kernel`, matching the bi-infinite formulation and
  exercising the truncation budget.  A kernel is a mask, so this is the same
  :func:`~evenrev.laurent.circular_convolve` that any mask goes through.
  Its level stores the whole residual ``c - S_alpha(coarse)``, whose even
  entries are the truncation leak that the budget bounds.

A :class:`Pyramid` stores each level as one array, as it was made.  One private
generator runs the analysis and yields each level's data with its detail;
:func:`decompose` and the decay report read it, so nothing re-synthesizes.  All of
these, and :func:`reconstruct`, work along the last axis of ``(..., N)`` arrays, as
the :mod:`~evenrev.laurent` operators do, so a :class:`Pyramid` may hold a batch of
signals' pyramids (every detail has the coarse data's leading shape).  Pyramid files
stay 1-D: :func:`~evenrev.serialize.pyramid_to_obj` refuses a batched pyramid.
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
from .inverse import Kernel, _reversibility, even_inverse_spectral
from .laurent import Mask, _polyphase, _signal, as_signal, circular_convolve, downsample
from .masks import is_interpolatory

__all__ = ["Pyramid", "decimate", "decompose", "reconstruct", "threshold_details"]

MODES = ("exact", "kernel")


@dataclass(frozen=True, init=False)
class Pyramid:
    """Coarse approximation plus detail signals for each finer level.

    ``stored[l-1]`` holds level ``l`` (period ``coarse.shape[-1] * 2**l``,
    leading axes as ``coarse``) as it was made, the finest level last: the odd
    half of the residual from exact :func:`decompose` and packed files, the
    full residual otherwise.  ``details`` gives every level at full length.  An
    exact pyramid holds N coefficients for N samples.
    """

    coarse: np.ndarray
    stored: tuple
    mask_id: str

    def __init__(self, coarse, details, mask_id: str = "custom"):
        coarse, details = _signal(coarse), [_signal(d) for d in details]
        for i, d in enumerate(details, start=1):
            expected = coarse.shape[:-1] + (coarse.shape[-1] << i,)
            if d.shape != expected:
                raise ShapeError(f"detail level {i} has shape {d.shape}, expected {expected}")
        self._hold(coarse, [as_signal(d) for d in details], mask_id)

    @classmethod
    def _of(cls, coarse, stored, mask_id: str) -> "Pyramid":
        """The pyramid of levels ``stored`` that the caller has just computed: it takes
        them over uncopied, and makes them read-only."""
        p = cls.__new__(cls)
        p._hold(coarse, stored, mask_id)
        return p

    def _hold(self, coarse, stored, mask_id: str) -> None:
        coarse = as_signal(coarse)  # it may be a view of the caller's signal
        for x in (coarse, *stored):
            x.setflags(write=False)
        object.__setattr__(self, "coarse", coarse)
        object.__setattr__(self, "stored", tuple(stored))
        object.__setattr__(self, "mask_id", mask_id)

    def _full(self):
        """``(level array, whether it is full-length)`` for each level, finest last."""
        n = self.coarse.shape[-1]
        return [(d, d.shape[-1] == n << level) for level, d in enumerate(self.stored, start=1)]

    @property
    def details(self) -> tuple:
        """The full-length read-only details: an odd half gets its zeros interleaved."""
        out = []
        for d, full in self._full():
            if not full:
                odd, d = d, np.zeros(d.shape[:-1] + (2 * d.shape[-1],))
                d[..., 1::2] = odd
                d.setflags(write=False)
            out.append(d)
        return tuple(out)

    @property
    def levels(self) -> int:
        return len(self.stored)

    def max_even_detail(self) -> float:
        """Largest even-index |d| of the full-length levels: the entries ``--packed`` would drop."""
        return max((float(np.max(np.abs(d[..., 0::2]))) for d, full in self._full() if full),
                   default=0.0)


def _halving(alpha: Mask, n: int, mode: str, kernel: Kernel | None):
    """Decimation ``f(ce, l)`` of the downsampled data ``ce`` at halving ``l`` from period ``n``.

    Exact mode samples the even symbol once, at period ``m = n/2``; halving ``l`` divides by
    every ``2**l``-th value, as period ``m/2``'s points are period ``m``'s even-indexed ones.
    """
    if mode not in MODES:
        raise ParameterError(f"unknown decimation mode {mode!r}; use one of {MODES}")
    if mode == "kernel":
        if kernel is None:
            kernel = even_inverse_spectral(alpha)
        return lambda ce, level: circular_convolve(kernel, ce)
    if is_interpolatory(alpha):
        return lambda ce, level: ce
    vals, rev = _reversibility(alpha.polyphase[0], n // 2)
    if not rev.ok:
        raise DecimationSingularError(
            f"even symbol vanishes at the root of unity {rev.witness:.6f} (period {n // 2})"
        )
    return lambda ce, level: np.fft.irfft(
        np.fft.rfft(ce, axis=-1) / vals[:: 1 << level], ce.shape[-1], axis=-1
    )


def decimate(c, alpha: Mask, mode: str = "exact", kernel: Kernel | None = None) -> np.ndarray:
    """Halve the period: convolve the downsampled data with the even-inverse.

    In ``"exact"`` mode the periodized inverse is applied by discrete Fourier
    division (interpolatory masks reduce to plain downsampling); in
    ``"kernel"`` mode a truncated kernel is convolved instead (computed
    spectrally from ``alpha`` when not supplied).
    """
    c = _signal(c)
    if c.shape[-1] % 2:
        raise LengthError(f"decimation needs an even period, got {c.shape[-1]}")
    return _halving(alpha, c.shape[-1], mode, kernel)(downsample(c), 0)


def _analysis(c, alpha: Mask, levels: int, mode: str, kernel: Kernel | None):
    """Yield :func:`decompose`'s ``(c_J, d_J), ..., (c_1, d_1)``, then ``(c_0, None)``: each
    level's data and detail, the odd half in exact mode and the full residual in kernel mode."""
    c = _signal(c)
    n = c.shape[-1]
    if levels < 0 or n % (1 << levels) or n >> levels < 2:
        raise LevelError(
            f"period {n} does not support {levels} halvings with >= 2 coarse samples"
        )
    halve = _halving(alpha, n, mode, kernel)
    for level in range(levels):
        coarse = halve(c[..., ::2], level)  # a view, not a copy: nothing here writes into c
        if mode == "kernel":  # the paper's detail c - S(coarse), written slot by slot
            d = np.empty(c.shape)
            for slot, part in enumerate(_polyphase(alpha._upscaling, coarse)):
                np.subtract(c[..., slot::2], part, out=d[..., slot::2])
        else:
            d = c[..., 1::2] - circular_convolve(alpha.polyphase[1], coarse)
        yield c, d
        c = coarse
    yield c, None


def decompose(
    c,
    alpha: Mask,
    levels: int,
    mode: str = "exact",
    kernel: Kernel | None = None,
    mask_id: str = "custom",
) -> Pyramid:
    """Run ``levels`` analysis steps, finest data in, coarse-plus-details out.

    Exact mode predicts only the odd samples and stores each level's odd half;
    kernel mode stores the whole residual.
    """
    stored = []
    for coarse, d in _analysis(c, alpha, levels, mode, kernel):
        stored.append(d)  # the details only: one level's data alive at a time
    if len(stored) < 2:  # c_0 alone, without a detail
        raise LevelError("need at least one level, got 0")
    return Pyramid._of(coarse, stored[-2::-1], mask_id)


def reconstruct(p: Pyramid, alpha: Mask) -> np.ndarray:
    """Synthesis ``c_l = S_alpha(c_{l-1}) + d_l`` into a new array, inverting :func:`decompose`:
    ``d_l`` is added as the polyphase slots are written, to the odd ones of an odd half."""
    c = p.coarse  # read only: each level writes a new array
    for d, full in p._full():
        ev, od = _polyphase(alpha._upscaling, c)
        c = np.empty(c.shape[:-1] + (2 * c.shape[-1],))
        if full:
            np.add(ev, d[..., 0::2], out=c[..., 0::2])
            np.add(od, d[..., 1::2], out=c[..., 1::2])
        else:
            c[..., 0::2] = ev
            np.add(od, d, out=c[..., 1::2])
    return c if p.levels else np.array(c)


def threshold_details(p: Pyramid, eps: float):
    """Zero all detail entries with ``|d| < eps``; coarse data is untouched.

    Returns ``(pyramid, kept, total)`` where ``kept`` counts the detail
    entries still nonzero afterwards, and ``total`` all of them.
    """
    if not eps >= 0:  # also refuses NaN, which no |d| < eps would ever catch
        raise ParameterError(f"threshold must be nonnegative, got {eps!r}")
    cut = [np.where(np.abs(d) < eps, 0.0, d) for d in p.stored]
    kept = sum(int(np.count_nonzero(d)) for d in cut)
    total = p.coarse.size * ((2 << p.levels) - 2)
    return Pyramid._of(p.coarse, cut, p.mask_id), kept, total
