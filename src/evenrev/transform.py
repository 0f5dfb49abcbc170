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
  Its level also predicts the even samples and stores that residual too: the
  truncation leak that the budget bounds.

One private generator runs the analysis and yields each level's data with
its odd and even details; :func:`decompose`, the decay report and ``--packed``
read it, so nothing re-synthesizes.  All of these, and :func:`reconstruct`, work along
the last axis of ``(..., N)`` arrays, as the :mod:`~evenrev.laurent`
operators do, so a :class:`Pyramid` may hold a batch of signals' pyramids
(every detail has the coarse data's leading shape).  Pyramid files stay 1-D:
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
    GUARD,
    Mask,
    _periodic_convolve,
    _signal,
    as_signal,
    circular_convolve,
    downsample,
    subdivide,
    symbol_on_circle,
)
from .masks import is_interpolatory

__all__ = ["Pyramid", "decimate", "decompose", "reconstruct", "threshold_details"]

MODES = ("exact", "kernel")


@dataclass(frozen=True, init=False)
class Pyramid:
    """Coarse approximation plus detail signals for each finer level.

    ``details[l-1]`` holds level ``l`` (period ``coarse.shape[-1] * 2**l``,
    leading axes as ``coarse``); the finest level comes last.  It is the
    full-length view, built on each access, of the halves stored: ``odd[l-1]``
    at the odd indices, and ``even[l-1]`` at the even ones, ``None`` when every
    entry there is ``+0.0``.  An exact pyramid holds N coefficients for N samples.
    """

    coarse: np.ndarray
    odd: tuple
    even: tuple
    mask_id: str

    def __init__(self, coarse, details, mask_id: str = "custom"):
        coarse, details = _signal(coarse), [_signal(d) for d in details]
        for i, d in enumerate(details, start=1):
            expected = coarse.shape[:-1] + (coarse.shape[-1] << i,)
            if d.shape != expected:
                raise ShapeError(f"detail level {i} has shape {d.shape}, expected {expected}")
        odd = [as_signal(d[..., 1::2]) for d in details]
        self._hold(coarse, odd, [as_signal(d[..., 0::2]) for d in details], mask_id)

    @classmethod
    def _of_halves(cls, coarse, odd, even, mask_id: str) -> "Pyramid":
        """The pyramid of detail halves ``odd`` and ``even`` (``None`` for no even half) that
        the caller has just computed: it takes them over uncopied, and makes them read-only."""
        p = cls.__new__(cls)
        p._hold(coarse, odd, even, mask_id)
        return p

    def _hold(self, coarse, odd, even, mask_id: str) -> None:
        # An even half of +0.0 bits only is dropped: reconstruction adds nothing
        # there, and ``details`` gives back the very bytes, -0.0 included.
        even = [None if e is None or not np.count_nonzero(e.view(np.int64)) else e for e in even]
        coarse = as_signal(coarse)  # it may be a view of the caller's signal
        for x in (coarse, *odd, *even):
            if x is not None:
                x.setflags(write=False)
        object.__setattr__(self, "coarse", coarse)
        object.__setattr__(self, "odd", tuple(odd))
        object.__setattr__(self, "even", tuple(even))
        object.__setattr__(self, "mask_id", mask_id)

    @property
    def details(self) -> tuple:
        """The full-length read-only details, built on each access: nothing caches them."""
        out = []
        for odd, even in zip(self.odd, self.even):
            d = np.empty(odd.shape[:-1] + (2 * odd.shape[-1],))
            d[..., 0::2] = 0.0 if even is None else even
            d[..., 1::2] = odd
            d.setflags(write=False)
            out.append(d)
        return tuple(out)

    @property
    def levels(self) -> int:
        return len(self.odd)

    @property
    def fine_length(self) -> int:
        return self.coarse.shape[-1] * 2 ** self.levels

    def max_even_detail(self) -> float:
        """Largest detail magnitude at an even index, over all levels: stored halves only."""
        return max((float(np.max(np.abs(e))) for e in self.even if e is not None), default=0.0)


def _halving(alpha: Mask, n: int, mode: str, kernel: Kernel | None, guard: float):
    """Decimation ``f(ce, l)`` of the downsampled data ``ce`` at halving ``l`` from period ``n``.

    Exact mode samples the even symbol once, at period ``m = n/2``; halving ``l`` divides by
    every ``2**l``-th value, as period ``m/2``'s points are period ``m``'s even-indexed ones.
    """
    if mode not in MODES:
        raise ParameterError(f"unknown decimation mode {mode!r}; use one of {MODES}")
    if mode == "kernel":
        if kernel is None:
            kernel = even_inverse_spectral(alpha, guard=guard)
        return lambda ce, level: circular_convolve(kernel, ce)
    if is_interpolatory(alpha, tol=0.0):
        return lambda ce, level: ce
    m = n // 2
    vals = symbol_on_circle(alpha.polyphase[0], m, half=True)
    bad = np.abs(vals) <= guard
    if np.any(bad):
        where = complex(np.exp(-2j * np.pi * int(np.argmax(bad)) / m))
        raise DecimationSingularError(
            f"even symbol vanishes at the root of unity {where:.6f} (period {m})"
        )
    return lambda ce, level: np.fft.irfft(
        np.fft.rfft(ce, axis=-1) / vals[:: 1 << level], ce.shape[-1], axis=-1
    )


def decimate(
    c,
    alpha: Mask,
    mode: str = "exact",
    kernel: Kernel | None = None,
    guard: float = GUARD,
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
    return _halving(alpha, c.shape[-1], mode, kernel, guard)(downsample(c), 0)


def _analysis(c, alpha: Mask, levels: int, mode: str, kernel: Kernel | None, guard: float):
    """Yield :func:`decompose`'s ``(c_J, odd_J, even_J), ..., (c_1, odd_1, even_1)``, then
    ``(c_0, None, None)``: each level's data and detail halves, no even half in exact mode."""
    c = _signal(c)
    n = c.shape[-1]
    if levels < 0 or n % (1 << levels) or n >> levels < 2:
        raise LevelError(
            f"period {n} does not support {levels} halvings with >= 2 coarse samples"
        )
    halve = _halving(alpha, n, mode, kernel, guard)
    ev, od = alpha.polyphase
    for level in range(levels):
        coarse = halve(c[..., ::2], level)  # a view, not a copy: nothing here writes into c
        odd = c[..., 1::2] - _periodic_convolve(od.offset, od.floats, coarse)
        even = (c[..., 0::2] - _periodic_convolve(ev.offset, ev.floats, coarse)
                if mode == "kernel" else None)
        yield c, odd, even
        c = coarse
    yield c, None, None


def _pyramid(steps, mask_id: str) -> Pyramid:
    """The :class:`Pyramid` of :func:`_analysis`'s steps."""
    halves = []
    for coarse, *pair in steps:  # one level's data alive at a time
        halves.append(pair)
    if len(halves) < 2:  # c_0 alone, without a detail
        raise LevelError("need at least one level, got 0")
    odd, even = zip(*halves[-2::-1])
    return Pyramid._of_halves(coarse, odd, even, mask_id)


def decompose(
    c,
    alpha: Mask,
    levels: int,
    mode: str = "exact",
    kernel: Kernel | None = None,
    mask_id: str = "custom",
    guard: float = GUARD,
) -> Pyramid:
    """Run ``levels`` analysis steps, finest data in, coarse-plus-details out.

    Exact mode predicts only the odd samples and stores no even detail; kernel
    mode stores the whole residual.  ``guard`` is :func:`decimate`'s bound on
    the even symbol's modulus.
    """
    return _pyramid(_analysis(c, alpha, levels, mode, kernel, guard), mask_id)


def reconstruct(p: Pyramid, alpha: Mask) -> np.ndarray:
    """Synthesis ``c_l = S_alpha(c_{l-1}) + d_l`` into a new array, inverting :func:`decompose`."""
    c = p.coarse  # read only: each level's subdivide makes a new array
    for odd, even in zip(p.odd, p.even):
        c = subdivide(alpha, c)
        slots = c[..., 1::2]
        slots += odd  # in place through a view: no array, and no copy back
        if even is not None:
            slots = c[..., 0::2]
            slots += even
    return c if p.levels else np.array(c)


def threshold_details(p: Pyramid, eps: float):
    """Zero all detail entries with ``|d| < eps``; coarse data is untouched.

    Returns ``(pyramid, kept, total)`` where ``kept`` counts the detail
    entries still nonzero afterwards, and ``total`` all of them.
    """
    if not eps >= 0:  # also refuses NaN, which no |d| < eps would ever catch
        raise ParameterError(f"threshold must be nonnegative, got {eps!r}")
    cut = [None if d is None else np.where(np.abs(d) < eps, 0.0, d) for d in p.odd + p.even]
    kept = sum(int(np.count_nonzero(d)) for d in cut if d is not None)
    total = 2 * sum(d.size for d in p.odd)
    return Pyramid._of_halves(p.coarse, cut[:p.levels], cut[p.levels:], p.mask_id), kept, total
