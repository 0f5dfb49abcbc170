"""Self-contained acceptance checks for the whole package.

Each criterion is a callable that checks its claims at fixed tolerances and
returns a one-line summary.  A failed check raises :class:`AssertionError`
explicitly rather than through ``assert``, which ``python -O`` strips.
``run_all`` prints one pass/fail line per criterion; the test suite wraps the
same callables, so the repository verifies itself without external data.

Criterion 11 is split: the cubic certificate bound is proven and must hold,
while the quadratic bound with decay base ``3 - 2*sqrt(2)`` is recorded as a
known analytic violation (the one-sided quadratic inverse decays like
``(1/3)**k``, which is slower, because the positive-definiteness premise of
the banded-inverse decay theorem fails for an asymmetric even part).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .analysis import (
    decay_report,
    decomposition_stability_experiment,
    filter_moment_constants,
    reconstruction_stability_experiment,
)
from .inverse import (
    Kernel,
    SQRT2_RATIO,
    cubic_series_constants,
    decay_certificate,
    even_inverse_spectral,
    min_even_symbol,
    one_norm_bound_C,
)
from .laurent import (
    Mask,
    even_part,
    min_modulus_on_circle,
    norm_l1,
    norm_linf,
    subdivide,
    sup_norm_on_circle,
)
from .masks import bspline_mask, catalog, dd_mask, pseudo_spline_mask
from .transform import decimate, decompose, reconstruct

__all__ = ["Criterion", "criteria", "run_all"]

_TOL = 1e-12
_SQRT2 = math.sqrt(2.0)


@lru_cache(maxsize=None)
def _kern(mask: Mask) -> Kernel:
    return even_inverse_spectral(mask)


def _check(ok: bool, message: str) -> None:
    """Fail a criterion; an explicit raise, so ``python -O`` cannot strip it."""
    if not ok:
        raise AssertionError(message)


def _close(value: float, target: float, tol: float, what: str) -> None:
    _check(abs(value - target) <= tol, f"{what}: {value!r} vs {target!r} (tol {tol:g})")


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def _c01_quadratic_inverse() -> str:
    kern = _kern(bspline_mask(3))
    for k in range(31):
        _close(kern.coeff(k), (4.0 / 3.0) * (-1.0 / 3.0) ** k, _TOL, f"coefficient {k}")
        if k:
            _close(kern.coeff(-k), 0.0, _TOL, f"coefficient {-k}")
    _close(norm_l1(kern), 2.0, 1e-9, "one norm")
    _close(norm_linf(kern), 4.0 / 3.0, _TOL, "sup norm")
    return f"{len(kern.coeffs)} coefficients, one norm {norm_l1(kern):.12f}"


def _c02_cubic_inverse() -> str:
    kern = _kern(bspline_mask(4))
    for k in range(-30, 31):
        _close(kern.coeff(k), _SQRT2 * (-SQRT2_RATIO) ** abs(k), _TOL, f"coefficient {k}")
    _close(norm_l1(kern), 2.0, 1e-9, "one norm")
    _close(norm_linf(kern), _SQRT2, _TOL, "sup norm")
    _close(sup_norm_on_circle(kern), 2.0, 1e-9, "operator two-norm")
    return f"symmetric, ratio {abs(kern.coeff(1)) / kern.coeff(0):.12f}"


def _c03_series_constants() -> str:
    a, b = cubic_series_constants(11)
    scale = 3.0 * _SQRT2 / 4.0
    _close(a[0], scale, _TOL, "a0")
    _close(b[0], scale * SQRT2_RATIO, _TOL, "b0")
    for k in range(11):
        _close(a[k + 1], 6.0 * b[k] - a[k], _TOL, f"first recurrence at {k}")
    for k in range(1, 11):
        _close(b[k], 6.0 * a[k] - b[k - 1], _TOL, f"second recurrence at {k}")
    for k in range(11):
        _close(a[k], scale * SQRT2_RATIO ** (2 * k), _TOL, f"a closed form at {k}")
        _close(b[k], scale * SQRT2_RATIO ** (2 * k + 1), _TOL, f"b closed form at {k}")
    return f"a0 = {a[0]:.12f}, b0 = {b[0]:.12f}"


_NORM_PAIRS = [(3, 0), (4, 0), (4, 1), (5, 1), (6, 1), (6, 2), (7, 2), (8, 3)]
_INTERPOLATORY = [(4, 1), (6, 2), (8, 3)]


def _c04_even_symbol_norms() -> str:
    for n, nu in _NORM_PAIRS:
        ev = even_part(pseudo_spline_mask(n, nu))
        _close(sup_norm_on_circle(ev), 1.0, 1e-9, f"max even symbol of ({n},{nu})")
        closed = float(1 / min_even_symbol(n, nu))
        sampled = 1.0 / min_modulus_on_circle(ev)
        _check(
            abs(closed - sampled) <= 1e-9 * closed,
            f"inverse two-norm of ({n},{nu}): closed {closed!r} vs sampled {sampled!r}",
        )
    for n, nu in _INTERPOLATORY:
        kern = _kern(pseudo_spline_mask(n, nu))
        _close(kern.coeff(0), 1.0, _TOL, f"impulse coefficient of ({n},{nu})")
        for k in kern.support:
            if k:
                _close(kern.coeff(k), 0.0, _TOL, f"side coefficient {k} of ({n},{nu})")
        _check(min_even_symbol(n, nu) == 1, f"norm of ({n},{nu}) not exactly 1")
    return f"{len(_NORM_PAIRS)} parameter pairs, {len(_INTERPOLATORY)} interpolatory"


def _c05_even_symbol_minima() -> str:
    count = 0
    for k in range(2, 6):
        for nu in range(k):
            sampled = min_modulus_on_circle(even_part(pseudo_spline_mask(2 * k, nu)))
            _close(sampled, float(min_even_symbol(2 * k, nu)), 1e-9, f"primal minimum ({k},{nu})")
            count += 1
    for k, nu in [(1, 0), (2, 0), (2, 1), (3, 1)]:
        sampled = min_modulus_on_circle(even_part(pseudo_spline_mask(2 * k + 1, nu)))
        _close(sampled, float(min_even_symbol(2 * k + 1, nu)), 1e-9, f"dual minimum ({k},{nu})")
        count += 1
    return f"{count} closed-form minima"


def _c06_perfect_reconstruction() -> str:
    rng = np.random.default_rng(20240601)
    worst = 0.0
    checked = 0
    for name, mask in catalog().items():
        kern = _kern(mask)
        for length in (64, 256, 1024):
            c = rng.uniform(-1.0, 1.0, length)
            for levels in range(1, length.bit_length() - 1):
                for mode in ("exact", "kernel"):
                    pyr = decompose(c, mask, levels, mode=mode, kernel=kern, mask_id=name)
                    err = float(np.max(np.abs(reconstruct(pyr, mask) - c)))
                    _check(err < 1e-10, f"{name} N={length} j={levels} {mode}: error {err:.3e}")
                    worst = max(worst, err)
                    checked += 1
        # a deliberately wrong kernel must still reconstruct but leak even details
        wrong = Kernel(-2, rng.uniform(-1.0, 1.0, 5), 0.0, "custom")
        c = rng.uniform(-1.0, 1.0, 256)
        pyr = decompose(c, mask, 3, mode="kernel", kernel=wrong, mask_id=name)
        err = float(np.max(np.abs(reconstruct(pyr, mask) - c)))
        _check(err < 1e-10, f"{name} wrong-kernel reconstruction error {err:.3e}")
        leak = pyr.max_even_detail()
        _check(leak > 1e-4, f"{name} wrong kernel leaked only {leak:.3e} at even indices")
    return f"{checked} round trips, max error {worst:.3e}"


def _c07_even_detail_annihilation() -> str:
    rng = np.random.default_rng(7)
    residual = leak = 0.0
    for name, mask in catalog().items():
        kern = _kern(mask)
        for length, levels in ((64, 5), (256, 6)):
            c = rng.uniform(-1.0, 1.0, length)
            # exact mode stores no even detail, so the identity is measured apart
            # from the pyramid: the lifting residual c_l[even] - (ev * c_{l-1}) of a
            # decimate chain, which is the even detail a full residual would hold
            pyr = decompose(c, mask, levels, mask_id=name)
            stored = pyr.coarse.size + sum(d.size for d in pyr.stored)
            _check(stored == length, f"{name} N={length} exact: {stored} coefficients stored")
            fine = c
            for level in range(levels, 0, -1):
                coarse = decimate(fine, mask)
                r = float(np.max(np.abs(fine[::2] - subdivide(mask, coarse)[::2])))
                _check(r < 1e-11, f"{name} N={length} level {level}: lifting residual {r:.3e}")
                residual = max(residual, r)
                fine = coarse
            pyr = decompose(c, mask, levels, mode="kernel", kernel=kern, mask_id=name)
            worst = pyr.max_even_detail()
            _check(worst < 1e-11, f"{name} N={length} kernel: even detail {worst:.3e}")
            leak = max(leak, worst)
    _check(residual > 0.0, "every lifting residual read exactly 0: nothing was measured")
    return f"max lifting residual {residual:.3e}, max kernel even detail {leak:.3e}"


_DECAY_MASKS = [
    ("quadratic", bspline_mask(3)),
    ("cubic", bspline_mask(4)),
    ("dd4", dd_mask(2)),
    ("pseudo6_1", pseudo_spline_mask(6, 1)),
]


def _c08_decay_inequalities() -> str:
    levels = 10
    for name, mask in _DECAY_MASKS:
        kern = _kern(mask)
        report = decay_report("sine", levels, 2, mask, mode="exact", kernel=kern)
        combined = report.constants["k_combined"]
        for row in report.rows:
            _check(
                row.delta_norm <= row.bound_delta + _TOL,
                f"{name} level {row.level}: difference {row.delta_norm!r} "
                f"exceeds bound {row.bound_delta!r}",
            )
            if row.level:
                _check(
                    row.detail_norm <= combined * row.delta_norm + _TOL,
                    f"{name} level {row.level}: detail {row.detail_norm!r} exceeds "
                    f"{combined!r} * {row.delta_norm!r}",
                )
    name, mask = _DECAY_MASKS[2]
    kern = _kern(mask)
    fprime = 2.0 * math.pi
    combined = filter_moment_constants(mask, kern).k_combined
    long_report = decay_report("sine", levels, 2, mask, kernel=kern)
    short_report = decay_report("sine", 8, 2, mask, kernel=kern)
    for row in long_report.rows[1:]:
        scaled = row.detail_norm * 2.0 ** row.level
        _check(
            scaled <= fprime * combined + 1e-9,
            f"interpolatory detail at level {row.level} not uniformly bounded: {scaled!r}",
        )
    for level in range(1, 9):
        _close(
            long_report.rows[level].bound_detail,
            short_report.rows[level].bound_detail,
            _TOL,
            f"depth-independence of the interpolatory bound at level {level}",
        )
    return f"{len(_DECAY_MASKS)} masks at depth {levels}"


def _c09_one_norm_bounds() -> str:
    for k in range(2, 6):
        for nu in range(k):
            bound = one_norm_bound_C(k, nu)
            measured = norm_l1(_kern(pseudo_spline_mask(2 * k, nu)))
            _check(
                measured <= bound + _TOL,
                f"one norm {measured!r} exceeds C({k},{nu}) = {bound!r}",
            )
    _check(one_norm_bound_C(2, 1) == 1.0, "C(2,1) must be exactly 1")
    _close(one_norm_bound_C(2, 0), (3.0 * _SQRT2 + 4.0) / 2.0, 1e-9, "C(2,0)")
    measured = norm_l1(_kern(pseudo_spline_mask(4, 0)))
    _check(measured < one_norm_bound_C(2, 0) - 1.0, "cubic one norm not strictly below C(2,0)")
    return f"14 bounds, C(2,0) = {one_norm_bound_C(2, 0):.9f}"


def _c10_stability() -> str:
    rng = np.random.default_rng(1234)
    for name, mask in _DECAY_MASKS:
        kern = _kern(mask)
        for p in (2, "inf"):
            report = decomposition_stability_experiment(
                mask, p=p, trials=100, seed=99, length=256, levels=6,
                perturbation=1e-3, kernel=kern,
            )
            bad = [t for t in report.trials if not t.ok]
            _check(not bad, f"{name} p={p}: {len(bad)} decomposition-stability violations")
        c = rng.uniform(-1.0, 1.0, 256)
        pyr = decompose(c, mask, 6, kernel=kern, mask_id=name)
        report = reconstruction_stability_experiment(mask, pyr, 1e-3, 100, seed=7)
        bad = [t for t in report.trials if not t.ok]
        _check(not bad, f"{name}: {len(bad)} reconstruction-stability violations")
        zero = reconstruction_stability_experiment(mask, pyr, 0.0, 3, seed=7)
        _check(all(t.measured == 0.0 for t in zero.trials), f"{name}: zero perturbation not exact")
    return f"{len(_DECAY_MASKS)} masks x (2 norms x 100 + 100 + 3) trials"


def _quadratic_certificate():
    cert = decay_certificate(bspline_mask(3))
    _close(cert.kappa, 2.0, _TOL, "quadratic kappa")
    _check(cert.s == 1, f"quadratic bandwidth {cert.s}")
    _close(cert.lam, SQRT2_RATIO, _TOL, "quadratic decay base")
    _close(cert.K, (3.0 + 2.0 * _SQRT2) / 2.0, _TOL, "quadratic amplitude")
    return cert


def _c11_cubic_certificate() -> str:
    cert = decay_certificate(bspline_mask(4))
    _check(cert.hypothesis_met, "cubic even symbol should be real and positive")
    _close(cert.kappa, 2.0, _TOL, "cubic kappa")
    _check(cert.s == 1, f"cubic bandwidth {cert.s}")
    _close(cert.lam, SQRT2_RATIO, _TOL, "cubic decay base")
    _close(cert.K, (3.0 + 2.0 * _SQRT2) / 2.0, _TOL, "cubic amplitude")
    kern = _kern(bspline_mask(4))
    for k in kern.support:
        _check(
            abs(kern.coeff(k)) <= cert.bound(k) * (1.0 + 1e-9),
            f"cubic coefficient {k} breaks the certified bound",
        )
    for k in range(5):
        ratio = abs(kern.coeff(k + 1)) / abs(kern.coeff(k))
        _close(ratio, cert.lam, _TOL, f"cubic decay ratio at {k}")
    _quadratic_certificate()  # the constants themselves are as advertised
    return f"bound K = {cert.K:.9f}, base {cert.lam:.12f}"


def _c11_quadratic_certificate_bound() -> str:
    cert = _quadratic_certificate()
    kern = _kern(bspline_mask(3))
    for k in kern.support:
        _check(
            abs(kern.coeff(k)) <= cert.bound(k) * (1.0 + 1e-9),
            f"quadratic coefficient {k}: |{kern.coeff(k):.6e}| exceeds "
            f"certified {cert.bound(k):.6e}",
        )
    return "bound held (unexpected)"


@dataclass(frozen=True)
class Criterion:
    cid: str
    title: str
    run: Callable[[], str]
    known_failure: str | None = None


def criteria() -> tuple[Criterion, ...]:
    """All acceptance criteria in order."""
    return (
        Criterion("1", "quadratic even-inverse closed form and norms", _c01_quadratic_inverse),
        Criterion("2", "cubic even-inverse closed form and norms", _c02_cubic_inverse),
        Criterion("3", "cubic series constants and recurrence", _c03_series_constants),
        Criterion("4", "even-symbol norms and interpolatory inverses", _c04_even_symbol_norms),
        Criterion("5", "closed-form even-symbol minima", _c05_even_symbol_minima),
        Criterion("6", "perfect reconstruction (right and wrong kernels)", _c06_perfect_reconstruction),
        Criterion("7", "even-index detail annihilation", _c07_even_detail_annihilation),
        Criterion("8", "difference and detail decay inequalities", _c08_decay_inequalities),
        Criterion("9", "one-norm bounds on primal inverses", _c09_one_norm_bounds),
        Criterion("10", "stability under perturbation", _c10_stability),
        Criterion("11a", "cubic decay certificate soundness", _c11_cubic_certificate),
        Criterion(
            "11b",
            "quadratic decay certificate bound",
            _c11_quadratic_certificate_bound,
            known_failure=(
                "the one-sided quadratic inverse decays like (1/3)**k, slower than the "
                "nominal base 3-2*sqrt(2); the positive-definiteness premise of the "
                "banded decay bound fails for an asymmetric even symbol"
            ),
        ),
    )


def run_all(write=print) -> bool:
    """Run every criterion, print one line each, return overall success.

    A criterion carrying ``known_failure`` counts as success exactly when it
    fails (its violation is the documented analysis); everything else must
    pass.
    """
    ok = True
    for crit in criteria():
        label = f"[{crit.cid:>3}] {crit.title}"
        try:
            detail = crit.run()
        except AssertionError as exc:
            if crit.known_failure:
                write(f"{label:<58} FAIL (expected): {exc}")
            else:
                write(f"{label:<58} FAIL: {exc}")
                ok = False
        else:
            if crit.known_failure:
                write(f"{label:<58} PASS (unexpected; analysis stale)")
                ok = False
            else:
                write(f"{label:<58} PASS  {detail}")
    return ok
