"""Output checks made apart from evenrev: numpy and the standard library only.

Nothing here imports evenrev.  Masks are rebuilt from their closed forms,
subdivision is ``np.convolve`` of the zero-upsampled coarse data wrapped
modulo the period, symbols are sampled with ``np.fft``, and files are read
with ``json`` and ``float``.  Every ``check_*`` function returns a list of
failure messages, empty when the output is correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

#: Relative tolerance for a synthesis that should reproduce its input.
ROUNDTRIP_RTOL = 1e-10
SQRT2_RATIO = 3.0 - 2.0 * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------


class RefMask:
    """Laurent coefficients ``coeffs[i]`` at index ``offset + i``, floats and exact."""

    def __init__(self, offset: int, exact):
        while exact and exact[0] == 0:
            exact, offset = exact[1:], offset + 1
        while exact and exact[-1] == 0:
            exact = exact[:-1]
        self.offset = offset
        self.exact = list(exact)
        self.coeffs = np.array([float(c) for c in exact])

    def part(self, parity: int) -> tuple[int, np.ndarray]:
        """Even (0) or odd (1) subsequence as ``(offset, coeffs)``."""
        first = (parity - self.offset) % 2
        sub = self.coeffs[first::2]
        nonzero = np.flatnonzero(sub)
        lo, hi = nonzero[0], nonzero[-1] + 1
        return (self.offset + first - parity) // 2 + int(lo), sub[lo:hi]

    def step_sup_norm(self) -> float:
        """Sup operator norm of one upscaling step: the larger parity class l1 sum."""
        return max(float(np.sum(np.abs(self.part(p)[1]))) for p in (0, 1))


def _binomial(top: Fraction, j: int) -> Fraction:
    out = Fraction(1)
    for i in range(j):
        out = out * (top - i) / (i + 1)
    return out


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ref_mask(n: int, nu: int = 0) -> RefMask:
    """Pseudo-spline mask of order ``n`` and type ``nu`` (``nu = 0``: B-spline).

    Symbol ``z**-(n//2) (1+z)**n / 2**(n-1) * sum_{j<=nu} C(n/2+j-1, j) q**j``
    with ``q(z) = (-1/z + 2 - z) / 4``.
    """
    spline = [Fraction(math.comb(n, j), 2 ** (n - 1)) for j in range(n + 1)]
    q = [Fraction(-1, 4), Fraction(1, 2), Fraction(-1, 4)]  # offset -1
    series = [Fraction(0)] * (2 * nu + 1)  # offset -nu
    power = [Fraction(1)]  # q**j, offset -j
    for j in range(nu + 1):
        coeff = _binomial(Fraction(n, 2) + j - 1, j)
        for i, c in enumerate(power):
            series[nu - j + i] += coeff * c
        power = _poly_mul(power, q)
    return RefMask(-(n // 2) - nu, _poly_mul(spline, series))


def sample_symbol(offset: int, coeffs: np.ndarray, points: int) -> np.ndarray:
    """``sum_k m_k z**k`` at ``z = exp(-2 pi i m / points)``, m = 0 .. points-1."""
    grid = np.zeros(points)
    np.add.at(grid, (offset + np.arange(coeffs.size)) % points, coeffs)
    return np.fft.fft(grid)


# ---------------------------------------------------------------------------
# periodic synthesis
# ---------------------------------------------------------------------------


def subdivide(mask: RefMask, c: np.ndarray) -> np.ndarray:
    """``(S c)_k = sum_l a_{k-2l} c_l`` with indices modulo ``2 * len(c)``."""
    period = 2 * c.size
    up = np.zeros(period)
    up[::2] = c
    full = np.convolve(up, mask.coeffs)
    index = (mask.offset + np.arange(full.size)) % period
    return np.bincount(index, weights=full, minlength=period)


def synthesize(mask: RefMask, coarse, details) -> list[np.ndarray]:
    """Approximations at every level, coarsest first; the last is the signal."""
    levels = [np.asarray(coarse, dtype=float)]
    for d in details:
        levels.append(subdivide(mask, levels[-1]) + d)
    return levels


def propagated_error_bound(mask: RefMask, sizes) -> float:
    """``sum_l ||S||^(L-l) * size_l`` for detail changes of sup norm ``size_l``, coarsest first."""
    norm = mask.step_sup_norm()
    return sum(norm ** (len(sizes) - 1 - i) * size for i, size in enumerate(sizes))


def _scale(c) -> float:
    return max(1.0, float(np.max(np.abs(c))))


def check_match(label: str, got, want, tol: float) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= tol:  # also catches NaN
        return [f"{label}: max error {err:.3e} exceeds {tol:.3e}"]
    return []


def check_pyramid(mask: RefMask, signal, coarse, details, tol: float | None = None) -> list[str]:
    """Shape, and re-synthesis of the pyramid against the analysed signal."""
    signal = np.asarray(signal, dtype=float)
    size = len(coarse)
    for i, d in enumerate(details):
        size *= 2
        if len(d) != size:
            return [f"detail level {i + 1} has length {len(d)}, expected {size}"]
    if size != signal.size:
        return [f"pyramid synthesises {size} samples, signal has {signal.size}"]
    if tol is None:
        tol = ROUNDTRIP_RTOL * _scale(signal)
    return check_match("re-synthesis", synthesize(mask, coarse, details)[-1], signal, tol)


def check_even_details(details, limit: float) -> list[str]:
    worst = max(float(np.max(np.abs(np.asarray(d)[::2]))) for d in details)
    if not worst <= limit:
        return [f"even-index detail {worst:.3e} exceeds {limit:.3e}"]
    return []


def kernel_leak_bounds(mask: RefMask, coarse, details, tol: float) -> list[float]:
    """Per-level bound ``tol * max|c_l|`` on the even details a kernel of residual ``tol`` leaves.

    ``c_l`` is the data decimated at level ``l``, rebuilt by re-synthesis.
    """
    levels = synthesize(mask, coarse, details)
    return [tol * float(np.max(np.abs(c))) for c in levels[1:]]


def packed_roundtrip_tol(mask: RefMask, coarse, details, tol: float, signal) -> float:
    """Error bound for dropping even details that a kernel of residual ``tol`` leaks."""
    leaks = kernel_leak_bounds(mask, coarse, details, tol)
    return 1.01 * propagated_error_bound(mask, leaks) + ROUNDTRIP_RTOL * _scale(signal)


# ---------------------------------------------------------------------------
# thresholding
# ---------------------------------------------------------------------------


def count_kept(details, eps: float) -> tuple[int, int]:
    """Detail entries with ``|d| >= eps`` and nonzero, and the total."""
    kept = sum(int(np.count_nonzero((np.abs(d) >= eps) & (np.asarray(d) != 0))) for d in details)
    return kept, sum(len(d) for d in details)


def check_thresholded(original, squeezed, eps: float, kept: int, total: int) -> list[str]:
    """Stored details are 0 or at least ``eps``, equal the originals, and are counted right."""
    out = []
    for i, (d, s) in enumerate(zip(original, squeezed)):
        d = np.asarray(d)
        s = np.asarray(s)
        small = (s != 0) & (np.abs(s) < eps)
        if np.any(small):
            out.append(f"level {i + 1} keeps {int(np.count_nonzero(small))} details below eps")
        changed = (s != 0) & (s != d)
        if np.any(changed):
            out.append(f"level {i + 1} alters {int(np.count_nonzero(changed))} kept details")
    want_kept, want_total = count_kept(original, eps)
    got_kept = sum(int(np.count_nonzero(s)) for s in squeezed)
    if (got_kept, kept) != (want_kept, want_kept):
        out.append(f"kept {got_kept} stored / {kept} reported, expected {want_kept}")
    if total != want_total:
        out.append(f"total {total} reported, expected {want_total}")
    return out


def check_threshold_stability(mask: RefMask, full, thresholded, original, squeezed) -> list[str]:
    """``max|c - c~| <= sum_l ||S||^(L-l) max|d_l - d~_l|`` (paper's stability bound)."""
    sizes = [float(np.max(np.abs(np.asarray(d) - s))) for d, s in zip(original, squeezed)]
    bound = propagated_error_bound(mask, sizes) + ROUNDTRIP_RTOL * _scale(full)
    return check_match("thresholded reconstruction vs stability bound", thresholded, full, bound)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def kernel_residual_l1(mask: RefMask, offset: int, coeffs) -> float:
    """``||g * ev - delta||_1`` by ``np.convolve``."""
    ev_offset, ev = mask.part(0)
    conv = np.convolve(np.asarray(coeffs, dtype=float), ev)
    pos = -(offset + ev_offset)
    if 0 <= pos < conv.size:
        conv[pos] -= 1.0
        return float(np.sum(np.abs(conv)))
    return float(np.sum(np.abs(conv))) + 1.0


def closed_form_kernel(order: int, index: np.ndarray) -> np.ndarray | None:
    """The paper's inverses: quadratic ``(4/3)(-1/3)**k`` (k >= 0), cubic ``sqrt2 (-(3-2 sqrt2))**|k|``."""
    if order == 3:
        return np.where(index >= 0, (4.0 / 3.0) * (-1.0 / 3.0) ** np.abs(index), 0.0)
    if order == 4:
        return math.sqrt(2.0) * (-SQRT2_RATIO) ** np.abs(index)
    return None


def check_kernel(mask: RefMask, order: int, nu: int, offset: int, coeffs, tol: float,
                 closed_tol: float) -> list[str]:
    """Residual within ``tol``; the spline closed forms within ``closed_tol``."""
    out = []
    residual = kernel_residual_l1(mask, offset, coeffs)
    if not residual <= tol:
        out.append(f"kernel residual {residual:.3e} exceeds tol {tol:.1e}")
    if nu == 0:
        index = offset + np.arange(len(coeffs))
        closed = closed_form_kernel(order, index)
        if closed is not None:
            out += check_match(f"order-{order} closed form", coeffs, closed, closed_tol)
    return out


def certificate_constants(mask: RefMask, samples: int = 16384) -> dict:
    """``kappa``, ``s``, ``lam`` and ``K`` of the banded-inverse decay bound, from the mask."""
    ev_offset, ev = mask.part(0)
    mods = np.abs(sample_symbol(ev_offset, ev, samples))
    mn, mx = float(np.min(mods)), float(np.max(mods))
    s = max(abs(ev_offset), abs(ev_offset + ev.size - 1))
    kappa = mx / mn
    if kappa <= 1.0 + 1e-12:
        return {"kappa": 1.0, "s": s, "lam": 0.0, "K": 1.0 / mn}
    q = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    return {
        "kappa": kappa,
        "s": s,
        "lam": q ** (1.0 / s),
        "K": max(1.0, (1.0 + math.sqrt(kappa)) ** 2 / (2.0 * kappa)) / mn,
    }


def check_certificate(mask: RefMask, cert: dict, offset: int, coeffs) -> list[str]:
    """Certificate constants as recomputed, and ``|g_k| <= K lam**|k|`` when the premise holds."""
    out = []
    want = certificate_constants(mask)
    for key in ("kappa", "lam", "K"):
        if not abs(cert[key] - want[key]) <= 1e-9 * max(1.0, abs(want[key])):
            out.append(f"certificate {key} {cert[key]!r}, recomputed {want[key]!r}")
    if cert["s"] != want["s"]:
        out.append(f"certificate bandwidth {cert['s']}, recomputed {want['s']}")
    if cert["hypothesis_met"]:
        index = np.abs(offset + np.arange(len(coeffs)))
        bound = cert["K"] * cert["lam"] ** index if cert["lam"] else np.where(index == 0, cert["K"], 0.0)
        over = np.abs(np.asarray(coeffs)) > bound * (1.0 + 1e-9)
        if np.any(over):
            out.append(f"{int(np.count_nonzero(over))} coefficients exceed K*lam**|k|")
    return out


# ---------------------------------------------------------------------------
# analysis bounds
# ---------------------------------------------------------------------------


def abs_moment(offset: int, coeffs) -> float:
    return float(np.sum(np.abs(coeffs) * np.abs(offset + np.arange(len(coeffs)))))


def derivative_bound(kind: str, params: dict) -> float:
    """``max |f'|`` of the test function, from its parameters."""
    if kind == "sine":
        return 2.0 * math.pi * params["frequency"]
    if kind == "gaussian_bump":
        return params["sharpness"] * math.pi
    terms = list(enumerate(params["cos"], 1)) + list(enumerate(params["sin"], 1))
    return sum(2.0 * math.pi * m * abs(c) for m, c in terms)


def check_decay_rows(mask: RefMask, k_offset: int, k_coeffs, kind: str, params: dict,
                     levels: int, rows) -> list[str]:
    """Each level's difference and detail within bounds rebuilt from mask and kernel.

    ``rows`` are ``(level, delta_norm, detail_norm)``; the difference bound is
    ``f' ||g||_1**(L-l) 2**-l`` and details obey ``|d_l| <= K |delta c_l|`` with
    ``K = 2 M1(g) ||a||_1 + M1(a) ||g||_1`` (first absolute moments ``M1``).
    """
    g1 = float(np.sum(np.abs(k_coeffs)))
    combined = (2.0 * abs_moment(k_offset, k_coeffs) * float(np.sum(np.abs(mask.coeffs)))
                + abs_moment(mask.offset, mask.coeffs) * g1)
    fprime = derivative_bound(kind, params)
    out = []
    for level, delta_norm, detail_norm in rows:
        bound = fprime * g1 ** (levels - level) * 2.0 ** (-level)
        if not delta_norm <= bound * (1.0 + 1e-12) + 1e-12:
            out.append(f"level {level} difference {delta_norm:.6e} exceeds {bound:.6e}")
        if level and not detail_norm <= combined * delta_norm * (1.0 + 1e-12) + 1e-12:
            out.append(f"level {level} detail {detail_norm:.6e} exceeds {combined:.6g} x difference")
    return out


def subdivision_sup_norm_estimate(mask: RefMask, max_power: int = 12) -> float:
    """``max_j ||S^j||_inf`` for j <= max_power, from the iterated masks' residue classes."""
    best = 1.0
    offset, coeffs = mask.offset, mask.coeffs
    for j in range(1, max_power + 1):
        sums = np.bincount((offset + np.arange(coeffs.size)) % (1 << j),
                           weights=np.abs(coeffs), minlength=1 << j)
        best = max(best, float(np.max(sums)))
        if j < max_power:  # times a(z**(2**j)): one shifted copy per mask tap
            grown = np.zeros(coeffs.size + ((mask.coeffs.size - 1) << j))
            for i, a in enumerate(mask.coeffs):
                grown[i << j : (i << j) + coeffs.size] += a * coeffs
            coeffs = grown
            offset += mask.offset << j
    return best


def subdivision_norm_2(mask: RefMask, samples: int = 16384) -> float:
    vals = np.abs(sample_symbol(mask.offset, mask.coeffs, samples)) ** 2
    return float(np.sqrt(np.max((vals + np.roll(vals, samples // 2)) / 2.0)))


def check_close(label: str, got: float, want: float, rtol: float) -> list[str]:
    if not abs(got - want) <= rtol * max(1.0, abs(want)):
        return [f"{label}: {got!r}, recomputed {want!r}"]
    return []


def check_trials(label: str, trials) -> list[str]:
    """Every ``(measured, bound, ok)`` trial within its bound."""
    bad = [t for t in trials if not (t[2] and t[0] <= t[1] + 1e-12)]
    return [f"{label}: {len(bad)} of {len(trials)} trials exceed the bound"] if bad else []


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path: str) -> np.ndarray:
    with open(path) as fh:
        return np.array([float(line) for line in fh if line.strip()])


def write_csv(path: str, values) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(format(float(v), ".17g") for v in values))
        fh.write("\n")


def pyramid_arrays(obj: dict) -> tuple[np.ndarray, list[np.ndarray]]:
    """Coarse data and full-length details of a pyramid file (packed re-inflated)."""
    coarse = np.array(obj["coarse"], dtype=float)
    details = []
    size = coarse.size
    for stored in obj["details"]:
        size *= 2
        arr = np.array(stored, dtype=float)
        if obj["packed"]:
            full = np.zeros(size)
            full[1::2] = arr
            arr = full
        details.append(arr)
    if obj["levels"] != len(details):
        raise ValueError(f"levels {obj['levels']} but {len(details)} detail arrays")
    return coarse, details


def mask_from_file(obj: dict) -> list[Fraction]:
    return [Fraction(n, d) for n, d in zip(obj["num"], obj["den"])]
