"""Quantitative studies of the pyramid transform: detail decay, stability
under perturbation of inputs or pyramid data, and threshold compression.

Every experiment is deterministic given its seed, and reports both measured
norms and the corresponding proven bounds so the inequalities can be checked
row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ParameterError
from .inverse import Kernel, even_inverse_spectral
from .laurent import (
    CIRCLE_SAMPLES,
    GUARD,
    Mask,
    _validated_samples,
    abs_moment,
    difference,
    even_part,
    min_modulus_on_circle,
    norm_l1,
    odd_part,
    symbol_on_circle,
)
from .transform import Pyramid, _analysis, decompose, reconstruct, threshold_details

__all__ = [
    "sample_function",
    "derivative_bound",
    "MomentConstants",
    "filter_moment_constants",
    "DecayRow",
    "DecayReport",
    "decay_report",
    "estimate_subdivision_sup_norm",
    "subdivision_norm_inf",
    "subdivision_norm_2",
    "StabilityTrial",
    "StabilityReport",
    "reconstruction_stability_experiment",
    "decomposition_stability_experiment",
    "CompressionRow",
    "CompressionReport",
    "compression_experiment",
]


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


def _poly_terms(params: dict | None):
    params = params or {}
    cos_c = tuple(float(x) for x in params.get("cos", (1.0,)))
    sin_c = tuple(float(x) for x in params.get("sin", ()))
    return cos_c, sin_c


def _build(kind: str, params: dict | None) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    if kind == "sine":
        freq = float((params or {}).get("frequency", 1.0))
        return (lambda t: np.sin(2.0 * np.pi * freq * t)), 2.0 * np.pi * freq
    if kind == "gaussian_bump":
        sharp = float((params or {}).get("sharpness", 8.0))
        # f' = -sharp*pi*sin(2*pi*t)*f, so |f'| <= sharp*pi
        return (lambda t: np.exp(-sharp * np.sin(np.pi * t) ** 2)), sharp * np.pi
    if kind == "poly":
        cos_c, sin_c = _poly_terms(params)

        def f(t):
            out = np.zeros_like(t)
            for m, c in enumerate(cos_c, start=1):
                out += c * np.cos(2.0 * np.pi * m * t)
            for m, s in enumerate(sin_c, start=1):
                out += s * np.sin(2.0 * np.pi * m * t)
            return out

        bound = sum(
            2.0 * np.pi * m * abs(c) for m, c in enumerate(cos_c, start=1)
        ) + sum(2.0 * np.pi * m * abs(s) for m, s in enumerate(sin_c, start=1))
        return f, float(bound)
    raise ParameterError(f"unknown (or non-periodic) test function {kind!r}")


def sample_function(kind: str, j: int, base: int = 2, params: dict | None = None) -> np.ndarray:
    """Sample a smooth 1-periodic test function on the dyadic grid ``k / 2**j``.

    Returns ``base * 2**j`` samples, i.e. ``base`` periods; the mean-value
    theorem then guarantees that neighbouring samples differ by at most
    ``derivative_bound(kind) * 2**-j``.
    """
    if base < 2:
        raise ParameterError("base must be >= 2")
    if j < 0:
        raise ParameterError("resolution exponent must be >= 0")
    size = base * 2 ** j
    if size > np.iinfo(np.intp).max // 8:  # numpy refuses 8-byte arrays this long
        raise ParameterError(
            f"levels {j} with base {base} ask for {size} samples, more than an array can hold"
        )
    f, _ = _build(kind, params)
    try:
        return f(np.arange(size) / 2.0 ** j)
    except MemoryError:  # numpy accepts the size, but no memory holds it
        raise ParameterError(
            f"levels {j} with base {base} ask for {size} samples, more than memory can hold"
        ) from None


def derivative_bound(kind: str, params: dict | None = None) -> float:
    """Upper bound on ``max |f'|`` for the named test function."""
    return _build(kind, params)[1]


# ---------------------------------------------------------------------------
# decay of differences and details
# ---------------------------------------------------------------------------


class MomentConstants(NamedTuple):
    """Triple ``(k_alpha, k_gamma, k_combined)`` of moment constants."""

    k_alpha: float
    k_gamma: float
    k_combined: float


def filter_moment_constants(alpha: Mask, kernel: Kernel) -> MomentConstants:
    """First absolute moments controlling the detail decay.

    ``k_alpha = sum |alpha_k| |k|``, ``k_gamma = 2 sum |g_k| |k|`` and the
    combined constant ``k_gamma * ||alpha||_1 + k_alpha * ||g||_1`` that
    bounds details by same-level differences.
    """
    k_alpha = abs_moment(alpha)
    k_gamma = 2.0 * abs_moment(kernel)
    combined = k_gamma * norm_l1(alpha) + k_alpha * norm_l1(kernel)
    return MomentConstants(k_alpha, k_gamma, combined)


@dataclass(frozen=True)
class DecayRow:
    """Measured and bounded norms at one pyramid level."""

    level: int
    delta_norm: float
    detail_norm: float | None
    bound_delta: float
    bound_detail: float | None


@dataclass(frozen=True)
class DecayReport:
    """Per-level decay measurements plus the constants the bounds use."""

    kind: str
    levels: int
    base: int
    mode: str
    rows: tuple
    constants: dict


def decay_report(
    kind: str,
    levels: int,
    base: int,
    alpha: Mask,
    mode: str = "exact",
    kernel: Kernel | None = None,
    params: dict | None = None,
    guard: float = GUARD,
) -> DecayReport:
    """Decompose a sampled test function and tabulate norms against bounds.

    Row ``l`` holds the sup norms of the level-``l`` difference and detail,
    the a-priori difference bound ``K * ||g||_1**(j-l) * 2**-l`` and the
    detail bound obtained by multiplying it with the combined moment
    constant.  Level 0 has no detail.  ``guard`` is :func:`decompose`'s.
    """
    if kernel is None:
        kernel = even_inverse_spectral(alpha, guard=guard)
    signal = sample_function(kind, levels, base, params)
    fprime = derivative_bound(kind, params)
    moments = filter_moment_constants(alpha, kernel)
    g1 = norm_l1(kernel)

    rows = []
    steps = _analysis(signal, alpha, levels, mode, kernel, guard)  # finest level first
    for level, (c, d) in zip(range(levels, -1, -1), steps):
        bound_delta = fprime * g1 ** (levels - level) * 2.0 ** (-level)
        detail_norm = float(np.max(np.abs(d))) if level else None
        bound_detail = moments.k_combined * bound_delta if level else None
        rows.append(DecayRow(
            level, float(np.max(np.abs(difference(c)))), detail_norm, bound_delta, bound_detail
        ))
    constants = {
        "fprime_bound": fprime,
        "k_alpha": moments.k_alpha,
        "k_gamma": moments.k_gamma,
        "k_combined": moments.k_combined,
        "gamma_norm1": g1,
    }
    return DecayReport(kind, levels, base, mode, tuple(rows[::-1]), constants)


# ---------------------------------------------------------------------------
# operator norms of one transform step
# ---------------------------------------------------------------------------


def estimate_subdivision_sup_norm(alpha: Mask, max_power: int = 12) -> float:
    """Empirical bound on ``sup_j ||S_alpha^j||_inf`` from iterated masks.

    The j-fold upscaling operator has mask ``alpha(z) alpha(z^2) ...
    alpha(z^(2^(j-1)))``; its sup operator norm is the largest absolute
    row sum, i.e. the max over residues mod ``2**j`` of the coefficient
    magnitudes in that class.  Powers up to ``max_power`` are scanned; each
    iterate is built from the last as one shifted copy per tap of alpha.
    """
    if max_power < 1:
        raise ParameterError("max_power must be >= 1")
    taps = alpha.floats
    iterated, offset = taps, alpha.offset
    best = 1.0
    for j in range(1, max_power + 1):
        period = 1 << j
        residues = (offset % period + np.arange(iterated.size)) % period
        sums = np.bincount(residues, np.abs(iterated), minlength=period)
        best = max(best, float(np.max(sums)))
        if j < max_power and taps.size:
            nxt = np.zeros(iterated.size + period * (taps.size - 1))
            for i, w in enumerate(taps):
                nxt[i * period : i * period + iterated.size] += w * iterated
            iterated, offset = nxt, offset + period * alpha.offset
    return best


def subdivision_norm_inf(alpha: Mask) -> float:
    """Exact sup operator norm of one upscaling step."""
    return max(norm_l1(even_part(alpha)), norm_l1(odd_part(alpha)))


def subdivision_norm_2(alpha: Mask, samples: int = CIRCLE_SAMPLES) -> float:
    """Exact l2 operator norm of one upscaling step.

    Equals the sup over the circle of ``sqrt((|alpha(z)|^2 + |alpha(-z)|^2)/2)``
    because upsampling spreads the spectrum over both half-circles.
    """
    _validated_samples(alpha, samples)
    vals = np.abs(symbol_on_circle(alpha, samples)) ** 2
    shifted = np.roll(vals, samples // 2)  # |alpha(-z_j)|^2 = |alpha(z_{j+n/2})|^2
    return float(np.sqrt(np.max((vals + shifted) / 2.0)))


def _norm_order(p) -> float:
    """``p`` in ``{2, inf}`` from any of its spellings, as :func:`numpy.linalg.norm`'s ``ord``."""
    if p in (2, "2"):
        return 2
    if p in (math.inf, "inf"):
        return math.inf
    raise ParameterError(f"only p in {{2, inf}} is supported, got {p!r}")


# ---------------------------------------------------------------------------
# stability experiments
# ---------------------------------------------------------------------------


def _check_trials(trials: int, perturbation: float) -> None:
    if not 0 <= perturbation < math.inf:  # also refuses NaN
        raise ParameterError(f"perturbation must be finite and >= 0, got {perturbation!r}")
    if 2 * perturbation == math.inf:  # the noise range [-p, p] would overflow
        raise ParameterError(
            f"perturbation must be at most half the largest float, got {perturbation!r}"
        )
    if trials < 1:  # an empty report would pass vacuously
        raise ParameterError(f"trials must be >= 1, got {trials}")


def _holds(measured: float, bound: float) -> bool:
    """A trial's verdict: ``measured <= bound``, both finite (an overflow proves nothing)."""
    return math.isfinite(measured) and math.isfinite(bound) and measured <= bound + 1e-12


@dataclass(frozen=True)
class StabilityTrial:
    """One perturbation trial: measured deviation vs. proven budget."""

    trial: int
    measured: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class StabilityReport:
    kind: str
    trials: tuple
    constants: dict

    @property
    def all_ok(self) -> bool:
        return all(t.ok for t in self.trials)


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails its trial, silently
def reconstruction_stability_experiment(
    alpha: Mask,
    pyramid: Pyramid,
    perturbation: float,
    trials: int,
    seed: int = 0,
) -> StabilityReport:
    """Perturb pyramid data and check the synthesis stability bound.

    Each trial adds independent uniform noise of amplitude ``perturbation``
    to the coarse data and every detail level, reconstructs, and verifies
    ``||c - c~||_inf <= K_sub * (||dc0||_inf + sum_l ||dd_l||_inf)`` with the
    empirically estimated upscaling constant ``K_sub``.
    """
    _check_trials(trials, perturbation)
    # powers up to the depth bound every synthesis run here
    k_sub = estimate_subdivision_sup_norm(alpha, max_power=max(12, pyramid.levels))
    rng = np.random.default_rng(seed)
    base = reconstruct(pyramid, alpha)
    # row t holds trial t's draws in the order a trial at a time would make
    # them: the coarse data first, then each detail level
    sizes = [pyramid.coarse.size] + [d.size for d in pyramid.details]
    noise = rng.uniform(-perturbation, perturbation, (trials, sum(sizes)))
    dc, *dds = np.split(noise, np.cumsum(sizes)[:-1], axis=1)
    perturbed = Pyramid(
        pyramid.coarse + dc,
        tuple(d + dd for d, dd in zip(pyramid.details, dds)),
        pyramid.mask_id,
    )
    deviation = reconstruct(perturbed, alpha) - base
    # one sup norm per trial from each array; the budget adds them as a loop would
    measured, coarse, *levels = (np.max(np.abs(x), axis=1).tolist() for x in [deviation, dc, *dds])
    per_level = zip(*levels) if levels else [()] * trials  # a pyramid may have no details
    rows = []
    for t, (m, a, b) in enumerate(zip(measured, coarse, per_level)):
        budget = k_sub * (a + sum(b))
        rows.append(StabilityTrial(t, m, budget, _holds(m, budget)))
    return StabilityReport(
        "reconstruction", tuple(rows), {"sup_norm": k_sub, "perturbation": perturbation}
    )


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails its trial, silently
def decomposition_stability_experiment(
    alpha: Mask,
    p="inf",
    trials: int = 100,
    seed: int = 0,
    length: int = 256,
    levels: int = 6,
    perturbation: float = 1e-3,
    mode: str = "exact",
    kernel: Kernel | None = None,
    guard: float = GUARD,
    samples: int = CIRCLE_SAMPLES,
) -> StabilityReport:
    """Perturb input data and check the analysis stability bounds in ``l_p``.

    The decimation operator norm is bounded by ``||g||_1`` for ``p = inf``
    and by ``max |g(z)| = 1 / min |ev(z)|`` for ``p = 2``; details use the
    additional factor ``1 + ||S|| * ||D||``.  Each trial verifies both the
    coarse-data inequality and the per-level detail inequalities, and
    records the worst measured-to-bound margin.  ``guard`` is :func:`decompose`'s;
    ``samples`` is the circle grid of the ``p = 2`` norms and of a default kernel.
    """
    _check_trials(trials, perturbation)
    p = _norm_order(p)
    if p == 2:  # the bound needs no kernel; kernel mode without one builds its own
        d_norm = 1.0 / min_modulus_on_circle(even_part(alpha), samples)
        s_norm = subdivision_norm_2(alpha, samples)
    else:
        if kernel is None:
            kernel = even_inverse_spectral(alpha, guard=guard, samples=samples)
        d_norm = norm_l1(kernel) + kernel.tol
        s_norm = subdivision_norm_inf(alpha)
    residual_norm = 1.0 + s_norm * d_norm
    rng = np.random.default_rng(seed)
    # trial t draws its signal and then its noise, as one trial at a time would
    draws = rng.uniform(-1.0, 1.0, (trials, 2, length))
    c = draws[:, 0]
    noise = draws[:, 1] * perturbation
    both = decompose(np.concatenate([c, c + noise]), alpha, levels, mode, kernel, guard=guard)
    diffs = [both.coarse[trials:] - both.coarse[:trials]]
    diffs += [d[trials:] - d[:trials] for d in both.details]
    # one p-norm per trial from each array, bit for bit np.linalg.norm's of each row
    if p == 2:
        norms = [np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0]) for x in [noise, *diffs]]
    else:
        norms = [np.max(np.abs(x), axis=1) for x in [noise, *diffs]]
    norm_in, *norm_out = (n.tolist() for n in norms)
    # bounds per unit of input noise: ||D||^J (coarse), (1 + ||S|| ||D||) ||D||^(J-l) (level l)
    factors = [d_norm ** levels] + [residual_norm * d_norm ** k for k in range(levels - 1, -1, -1)]
    rows = []
    for t, (din, outs) in enumerate(zip(norm_in, zip(*norm_out))):
        checks = [(m, f * din) for m, f in zip(outs, factors)]
        measured, bound = max(checks, key=lambda mb: mb[0] - mb[1])
        rows.append(StabilityTrial(t, measured, bound, all(_holds(m, b) for m, b in checks)))
    constants = {
        "p": str(p),
        "decimation_norm": d_norm,
        "subdivision_norm": s_norm,
        "residual_norm": residual_norm,
        "levels": levels,
        "perturbation": perturbation,
    }
    return StabilityReport("decomposition", tuple(rows), constants)


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompressionRow:
    eps: float
    kept_fraction: float
    reconstruction_error: float
    stability_bound: float


@dataclass(frozen=True)
class CompressionReport:
    levels: int
    rows: tuple
    constants: dict


def compression_experiment(
    signal,
    alpha: Mask,
    levels: int,
    eps_grid,
    mode: str = "exact",
    kernel: Kernel | None = None,
    guard: float = GUARD,
) -> CompressionReport:
    """Hard-threshold the details over a grid of cutoffs and tabulate errors.

    For each cutoff the report lists the surviving detail fraction, the sup
    reconstruction error against the original signal, and the stability
    budget ``K_sub * sum_l ||d_l - d_l(eps)||_inf`` that provably dominates
    the error.  ``guard`` is :func:`decompose`'s.
    """
    # powers up to the depth bound every synthesis run here
    k_sub = estimate_subdivision_sup_norm(alpha, max_power=max(12, levels))
    pyramid = decompose(signal, alpha, levels, mode, kernel, guard=guard)
    baseline = reconstruct(pyramid, alpha)
    rows = []
    for eps in eps_grid:
        squeezed, kept, total = threshold_details(pyramid, float(eps))
        rec = reconstruct(squeezed, alpha)
        err = float(np.max(np.abs(rec - baseline)))
        dropped = sum(
            float(np.max(np.abs(d - dt)))
            for d, dt in zip(pyramid.stored, squeezed.stored)
        )
        rows.append(CompressionRow(float(eps), kept / total if total else 1.0, err, k_sub * dropped))
    return CompressionReport(levels, tuple(rows), {"sup_norm": k_sub})
