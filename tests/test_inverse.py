"""Even-inverse kernels, spectral inversion, certificates, closed-form norms."""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import evenrev.inverse

from evenrev import (
    CertificateUnavailableError,
    DecimationSingularError,
    EvenReversibilityError,
    Kernel,
    ParameterError,
    SlowDecayError,
    bspline_mask,
    catalog,
    check_even_reversible,
    cubic_series_constants,
    dd_mask,
    decay_certificate,
    decompose,
    even_inverse_spectral,
    generalized_binomial,
    make_mask,
    min_even_symbol,
    norm_l1,
    norm_linf,
    one_norm_bound_C,
    pseudo_spline_mask,
    reconstruct,
    upsample_mask,
)
from evenrev.analysis import (
    decomposition_stability_experiment,
    reconstruction_stability_experiment,
)
from evenrev.inverse import SQRT2_RATIO, inverse_residual_l1
from evenrev.laurent import Mask, even_part, min_modulus_on_circle, symbol_on_circle

SQRT2 = math.sqrt(2.0)


# The paper's closed forms, as oracles: the quadratic spline's even part (3 + z)/4
# has the one root -3, the cubic's (1/z + 6 + z)/8 the roots -3 -+ 2 sqrt 2.


def closed_quadratic(count):
    """``(4/3) (-1/3)**k`` for ``k < count``; the dropped tail has mass ``2 * 3**-count``."""
    return Mask(0, (4.0 / 3.0) * (-1.0 / 3.0) ** np.arange(count))


def closed_cubic(halfwidth):
    """``sqrt(2) (-(3 - 2 sqrt 2))**|k|`` for ``|k| <= halfwidth``."""
    k = np.arange(-halfwidth, halfwidth + 1)
    return Mask(-halfwidth, SQRT2 * (-SQRT2_RATIO) ** np.abs(k))


def quadratic_tail(count):
    return 2.0 * 3.0 ** (-count)


def cubic_tail(halfwidth):
    return 2.0 * SQRT2 * SQRT2_RATIO ** (halfwidth + 1) / (1.0 - SQRT2_RATIO)


def periodized_inverse(ev, size=1 << 16):
    """``irfft(1/ev)`` on ``size`` roots of unity: ``g_k`` at index ``k mod size``.

    Its aliasing error is of the order of the decay base to the power ``size/2``.
    """
    folded = np.zeros(size)
    np.add.at(folded, (ev.offset + np.arange(len(ev.coeffs))) % size, ev.floats)
    return np.fft.irfft(1.0 / np.fft.rfft(folded), size)


# ---------------------------------------------------------------------------
# reversibility check
# ---------------------------------------------------------------------------


def test_check_even_reversible_cubic():
    ok, mn, witness = check_even_reversible(bspline_mask(4))
    assert ok
    assert abs(mn - 0.5) < 1e-12
    assert abs(witness - (-1.0)) < 1e-9  # minimum attained at z = -1


def test_check_even_reversible_failure():
    # upsampled haar mask {1, 0, 1}: even part 1 + z vanishes at z = -1
    m = upsample_mask(make_mask(0, [1, 1]))
    ok, mn, witness = check_even_reversible(m)
    assert not ok
    assert mn < 1e-9
    assert abs(witness - (-1.0)) < 1e-9


def test_check_even_reversible_interpolatory():
    ok, mn, _ = check_even_reversible(dd_mask(2))
    assert ok and abs(mn - 1.0) < 1e-15


def test_check_even_reversible_zero_even_part():
    with pytest.raises(EvenReversibilityError):
        check_even_reversible(make_mask(1, [1.0]))  # only an odd coefficient


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_closed_quadratic_values():
    k = closed_quadratic(10)
    assert abs(k.coeff(0) - 4.0 / 3.0) < 1e-15
    assert abs(k.coeff(1) + 4.0 / 9.0) < 1e-15
    assert abs(k.coeff(2) - 4.0 / 27.0) < 1e-15
    # the tail formula is the mass the first 10 coefficients leave out
    assert abs(quadratic_tail(10) - (norm_l1(closed_quadratic(60)) - norm_l1(k))) < 1e-15


def test_closed_quadratic_one_norm_limit():
    assert abs(norm_l1(closed_quadratic(40)) - 2.0) < 1e-15


def test_kernels_are_masks():
    kernels = [
        even_inverse_spectral(bspline_mask(3)),
        even_inverse_spectral(bspline_mask(4)),
        even_inverse_spectral(pseudo_spline_mask(6, 1)),
    ]
    for k in kernels:
        assert isinstance(k, Mask), k.source
        assert not k.is_rational and k.coeffs == tuple(k.floats.tolist())


def test_kernel_one_norm_is_the_numpy_sum():
    # bit for bit the one-norm the kernel carried as a method of its own
    for n in range(3, 13):
        for nu in range(n // 2):
            k = even_inverse_spectral(pseudo_spline_mask(n, nu), tol=1e-12)
            assert norm_l1(k) == float(np.sum(np.abs(k.floats))), (n, nu)


def test_closed_quadratic_residual_within_tail():
    for count in (5, 12, 30):
        k = closed_quadratic(count)
        assert inverse_residual_l1(bspline_mask(3), k) <= quadratic_tail(count) + 1e-14


def test_closed_cubic_values():
    k = closed_cubic(8)
    assert abs(k.coeff(0) - SQRT2) < 1e-15
    assert abs(k.coeff(1) + SQRT2 * SQRT2_RATIO) < 1e-15
    assert abs(k.coeff(-1) - k.coeff(1)) == 0.0
    assert abs(k.coeff(1) + 0.24264068711928521) < 1e-15


def test_closed_cubic_norms():
    k = closed_cubic(40)
    assert abs(norm_l1(k) - 2.0) < 1e-12
    assert abs(norm_linf(k) - SQRT2) < 1e-15


def test_closed_cubic_residual_within_tail():
    # the analytic tail bound plus float rounding of the measurement itself
    for halfwidth in (4, 10, 25):
        k = closed_cubic(halfwidth)
        assert inverse_residual_l1(bspline_mask(4), k) <= cubic_tail(halfwidth) + 1e-14


def test_kernel_sum_near_one():
    # g(1) = 1 / ev(1) = 1 for normalized masks
    for order in (3, 4):
        k = even_inverse_spectral(bspline_mask(order), tol=1e-10)
        assert abs(k.sum() - 1.0) < k.tol + 1e-14


# ---------------------------------------------------------------------------
# series constants
# ---------------------------------------------------------------------------


def test_series_constants_base_values():
    a, b = cubic_series_constants(0)
    assert abs(a[0] - 3.0 * SQRT2 / 4.0) < 1e-13
    assert abs(b[0] - 3.0 * SQRT2 / 4.0 * SQRT2_RATIO) < 1e-13


def test_series_constants_recurrence():
    a, b = cubic_series_constants(11)
    for k in range(11):
        assert abs(a[k + 1] + a[k] - 6.0 * b[k]) < 1e-12


def test_series_constants_match_kernel():
    # 4/3 * a_k is the even-index kernel coefficient, 4/3 * b_k the odd one
    a, b = cubic_series_constants(5)
    kern = even_inverse_spectral(bspline_mask(4))
    for k in range(5):
        assert abs(4.0 / 3.0 * a[k] - kern.coeff(2 * k)) < 1e-13
        assert abs(4.0 / 3.0 * b[k] + kern.coeff(2 * k + 1)) < 1e-13


# ---------------------------------------------------------------------------
# spectral inversion
# ---------------------------------------------------------------------------


def test_spectral_matches_closed_quadratic():
    spectral = even_inverse_spectral(bspline_mask(3), tol=1e-12)
    closed = closed_quadratic(40)
    for k in range(-10, 35):
        assert abs(spectral.coeff(k) - closed.coeff(k)) < 1e-12


def test_spectral_matches_closed_cubic():
    spectral = even_inverse_spectral(bspline_mask(4), tol=1e-12)
    closed = closed_cubic(40)
    for k in range(-35, 36):
        assert abs(spectral.coeff(k) - closed.coeff(k)) < 1e-12


def test_spectral_interpolatory_gives_exact_delta():
    kern = even_inverse_spectral(dd_mask(2))
    assert kern.offset == 0
    assert np.array_equal(kern.coeffs, [1.0])


def test_spectral_residual_within_tol_for_catalog():
    for name, mask in catalog().items():
        kern = even_inverse_spectral(mask, tol=1e-12)
        assert inverse_residual_l1(mask, kern) <= 1e-12, name
        assert abs(kern.sum() - 1.0) < 1e-11, name


# min |ev| = 1 but ||ev||_1 = 32.75: the residual multiplies the dropped mass by up
# to ||ev||_1, so a budget of tol alone left it 1.2 x tol
ONE_NORM_MASK = Mask(-2, [-7.938034399268925, -0.06833396875827939, 16.876068798537847,
                          1.0683339687582794, -7.938034399268925])


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
def test_spectral_budget_scales_with_the_even_part_one_norm(tol):
    kern = even_inverse_spectral(ONE_NORM_MASK, tol=tol)
    assert kern.tol == tol
    assert inverse_residual_l1(ONE_NORM_MASK, kern) <= tol


def test_spectral_rejects_nonreversible():
    # ev = 1 + z vanishes at z = -1, and 1 + (1 - 1e-10) z is 1e-10 from zero there
    message = r"at z=-1\.000000-0\.000000j is below the guard 1\.0e-09"
    for m in (upsample_mask(make_mask(0, [1, 1])), make_mask(0, [1.0, 0.5, 1.0 - 1e-10])):
        with pytest.raises(EvenReversibilityError, match=message):
            even_inverse_spectral(m)


def test_spectral_slow_decay_budget():
    # min modulus 1e-6 at z = -1: the root -1/(1 - 1e-6) leaves a summable inverse,
    # but one that needs far more than 2**20 coefficients; the roots say so at once
    eps = 1e-6
    mask = make_mask(0, [1.0, 0.0, 1.0 - eps])  # even part 1 + (1-eps) z
    message = "decay base 0.999999 needs more than 1048576 coefficients on one side"
    times = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(SlowDecayError, match=message):
            even_inverse_spectral(mask, tol=1e-12)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.01


def test_spectral_tol_below_rounding_floor_names_residual():
    # The kernel keeps rounding noise, so ||g*ev - delta||_1 cannot reach 1e-17:
    # stop at once and say why.
    message = r"residual \|\|g\*ev - delta\|\|_1 = \d\.\d+e-1\d above tol 1\.0e-17"
    with pytest.raises(SlowDecayError, match=message):
        even_inverse_spectral(pseudo_spline_mask(11, 0), tol=1e-17)


def test_root_near_the_circle_inverts_within_tol_and_shorter():
    # a root at about 1.011: the grid-doubling inverter kept 15797 coefficients
    ev = [-0.1321, 0.1049, 0.3616, 0.9471, -1.2654]
    mask = Mask(0, [ev[0], 0, ev[1], 0, ev[2], 0, ev[3], 0, ev[4]])
    assert abs(abs(np.roots(ev[::-1])).max() - 1.0112) < 1e-4
    kern = even_inverse_spectral(mask)
    assert inverse_residual_l1(mask, kern) <= 1e-12
    assert len(kern.coeffs) < 15797


def test_negligible_end_coefficients_stay_out_of_the_roots():
    # ev = -1.25 + z**2 + 2.1e-222 z**3, as the analysis tests drew it: np.roots of the whole
    # even part gives -4.7e221 and two zeros in place of -+1.118; and tiny ends on both sides
    for alpha in (Mask(0, (-1.25, 0.0, 0.0, 0.0, 1.0, 0.0, 2.1270962362399012e-222)),
                  Mask(-2, (1e-300, 0.3, 1.25, 0.1, 0.2, 0.0, 1e-250))):
        kern = even_inverse_spectral(alpha)
        assert inverse_residual_l1(alpha, kern) <= 1e-12
        ref = periodized_inverse(even_part(alpha), 1 << 12)
        index = (kern.offset + np.arange(len(kern.coeffs))) % ref.size
        assert np.max(np.abs(kern.floats - ref[index])) <= 1e-13 * np.max(np.abs(ref))


def test_newton_step_mends_the_roots_rounding():
    # seven roots from 0.60 to 1.23, ||ev||_1 = 10: the kernel built from np.roots
    # alone misses tol 1e-12 and is 1.8e-13 * max|g| off; one Newton step on its
    # support brings it to 0.1 x tol and 1e-14 * max|g|
    ev = [0.39034630302628687, -1.0760045339130802, -0.5643952383662819, 3.140247190601184,
          -0.16863170762223437, -3.1699867106816986, 0.3618760639764359, 1.1285122518127988]
    mask = Mask(0, [c for e in ev for c in (e, 0.0)][:-1])
    kern = even_inverse_spectral(mask, tol=1e-12)
    assert inverse_residual_l1(mask, kern) <= 1e-12
    ref = periodized_inverse(even_part(mask))
    kern = even_inverse_spectral(mask, tol=1e-10)
    index = (kern.offset + np.arange(len(kern.coeffs))) % ref.size
    assert np.max(np.abs(kern.floats - ref[index])) <= 4e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
def test_spectral_kernels_match_the_periodized_reference(tol):
    for n in range(3, 13):
        for nu in range(n // 2):
            mask = pseudo_spline_mask(n, nu)
            ev = even_part(mask)
            ref = periodized_inverse(ev, 512)  # decay base <= 0.76: aliasing below 1e-30
            got = even_inverse_spectral(mask, tol=tol)
            index = (got.offset + np.arange(len(got.coeffs))) % ref.size
            assert np.max(np.abs(got.floats - ref[index])) <= 1e-13 * np.max(np.abs(ref)), (n, nu)
            # the dropped mass, plus one rounding of each reference coefficient
            outside = np.sum(np.abs(np.delete(ref, index)))
            noise = ref.size * 2.0 ** -53 * np.sum(np.abs(ref))
            assert outside <= tol / max(1.0, norm_l1(ev)) + noise, (n, nu)
            assert inverse_residual_l1(mask, got) <= tol, (n, nu)


@pytest.mark.parametrize("shift", [2, 64, 1000, 10**30])
def test_spectral_kernel_of_a_shifted_mask_moves_back(shift):
    # alpha(z) z**(2 s) has even part ev(z) z**s, whose inverse is g(z) z**-s
    for alpha in (bspline_mask(4), pseudo_spline_mask(7, 2)):
        near = even_inverse_spectral(alpha)
        far = even_inverse_spectral(alpha.shift(2 * shift))
        assert far.offset == near.offset - shift
        assert far.floats.tobytes() == near.floats.tobytes()
        assert inverse_residual_l1(alpha.shift(2 * shift), far) <= far.tol


def test_spectral_samples_its_even_symbol_once(monkeypatch):
    alpha = pseudo_spline_mask(8, 1)  # symmetric even part: the certificate is kept
    grid = max(16384, 4 * len(even_part(alpha).coeffs))
    sizes = []

    def counting(m, n, half=False):
        sizes.append(n)
        return symbol_on_circle(m, n, half)

    monkeypatch.setattr(evenrev.inverse, "symbol_on_circle", counting)
    kernel = even_inverse_spectral(alpha, tol=1e-12)
    assert sizes == [grid]  # one sampling serves the check and the certificate
    monkeypatch.undo()
    expected = decay_certificate(alpha)
    assert kernel.certificate is not None
    for field in dataclasses.fields(expected):
        assert getattr(kernel.certificate, field.name) == getattr(expected, field.name), field.name


def test_inverse_rejects_tol_not_positive_and_finite():
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            even_inverse_spectral(bspline_mask(4), tol=tol)
        with pytest.raises(ParameterError):
            even_inverse_spectral(bspline_mask(3), tol=tol)


def test_even_inverse_closed_meets_tolerance():
    for order in (3, 4):
        for tol in (1e-8, 1e-12):
            kern = even_inverse_spectral(bspline_mask(order), tol=tol)
            assert kern.tol <= tol
            assert inverse_residual_l1(bspline_mask(order), kern) <= tol


# ---------------------------------------------------------------------------
# the paper's hypothesis class: every mask whose even symbol stays off zero
# ---------------------------------------------------------------------------


def _moduli(draw, count):
    """Root moduli on both sides of the circle, some a factor 1.01 off it."""
    near = st.sampled_from([1.01, 1.0 / 1.01])
    far = st.one_of(st.floats(0.1, 0.95), st.floats(1.05, 10.0))
    return [draw(st.one_of(near, far)) for _ in range(count)]


@st.composite
def class_masks(draw):
    """``(alpha, kind)``: a mask whose even part has no root within 1% of the circle.

    ``kind`` is ``"roots"`` (real roots and conjugate pairs: asymmetric, any
    offset), ``"repeated"`` (``(a + b z)**2``), ``"positive"`` (``q(z) q(1/z)``,
    centred, real and positive, or moved off centre) or ``"slow"`` (one root
    within 1e-5 of the circle, past the length limit).
    """
    kind = draw(st.sampled_from(["roots", "roots", "repeated", "positive", "slow"]))
    if kind == "roots":
        sign = st.sampled_from([-1.0, 1.0])
        real = [m * draw(sign) for m in _moduli(draw, draw(st.integers(0, 3)))]
        pairs = [m * np.exp(1j * draw(st.floats(0.1, 3.0)))
                 for m in _moduli(draw, draw(st.integers(0, 2)))]
        ev = np.real(np.atleast_1d(np.poly(real + pairs + [np.conj(r) for r in pairs])))[::-1]
    elif kind == "repeated":
        root = draw(st.sampled_from([-1.0, 1.0])) * _moduli(draw, 1)[0]
        ev = np.convolve([-root, 1.0], [-root, 1.0])
    elif kind == "positive":
        sign = st.sampled_from([-1.0, 1.0])
        roots = [m * draw(sign) for m in _moduli(draw, draw(st.integers(1, 3)))]
        q = np.real(np.poly(roots))
        ev = np.convolve(q, q[::-1])
        ev = draw(st.sampled_from([1.0, -1.0])) * (ev + ev[::-1]) / 2.0  # exactly palindromic
    else:
        gap = draw(st.sampled_from([1e-5, 1e-6]))
        ev = np.array([1.0, draw(st.sampled_from([-1.0, 1.0])) / (1.0 + gap)])
    ev = ev * draw(st.sampled_from([0.5, 1.0, 8.0, 40.0])) / np.sum(np.abs(ev))
    if kind == "positive":
        offset = -(ev.size // 2) + draw(st.sampled_from([0, 0, 0, 1, -2]))
    else:
        offset = draw(st.integers(-3, 3))
    odd = draw(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=0, max_size=4))
    coeffs = {2 * (offset + i): c for i, c in enumerate(ev)}
    coeffs.update({2 * (offset + i) + 1: c for i, c in enumerate(odd)})
    low = min(coeffs)
    return Mask(low, [coeffs.get(k, 0.0) for k in range(low, max(coeffs) + 1)]), kind


@settings(max_examples=60, deadline=None)
@given(class_masks(), st.sampled_from([1e-8, 1e-10, 1e-12]), st.integers(0, 2**32 - 1))
@example((ONE_NORM_MASK, "positive"), 1e-12, 0)
@example((Mask(0, [1.0, 0.5, 2.0 / 1.01, 0.0, 1.0 / 1.01**2]), "repeated"), 1e-10, 0)
def test_the_hypothesis_class_inverts_within_tol(drawn, tol, seed):
    alpha, kind = drawn
    ev = even_part(alpha)
    e = ev.floats
    ref = periodized_inverse(ev)
    ref_min = float(np.min(np.abs(np.fft.rfft(np.r_[e, np.zeros(ref.size - e.size)]))))
    moduli = np.abs(np.roots(e[::-1]))
    base = float(np.max(np.minimum(moduli, 1.0 / moduli), initial=0.0))
    # Below this tol the residual ||g*ev - delta||_1 is rounding noise of its own terms.
    # A rounding of ev moves g by up to floor * ||g||_1: the problem's conditioning.
    floor = 2.0 ** -53 * np.sum(np.abs(ref)) * np.sum(np.abs(e))
    try:
        kern = even_inverse_spectral(alpha, tol=tol)
    except EvenReversibilityError:
        assert ref_min <= 1e-9, kind
        return
    except SlowDecayError as exc:
        if "needs more than 1048576 coefficients" in str(exc):
            assert base > 0.999, (kind, base)
        else:
            assert "residual" in str(exc) and tol < 8.0 * floor, (kind, floor)
        return
    assert kind != "slow" and base < 0.991
    assert inverse_residual_l1(alpha, kern) <= tol
    index = (kern.offset + np.arange(len(kern.coeffs))) % ref.size
    agree = (1e-12 + 64.0 * floor) * np.sum(np.abs(ref))
    assert np.max(np.abs(kern.floats - ref[index])) <= agree, kind
    centred = 2 * ev.offset + e.size - 1 == 0
    real = np.max(np.abs(e - e[::-1])) <= 1e-13 * np.sum(np.abs(e))
    positive = bool(np.min(np.real(np.fft.rfft(np.roll(np.r_[e, np.zeros(ref.size - e.size)],
                                                       ev.offset)))) > 1e-9)
    assert (kern.certificate is not None) == (centred and real and positive), kind
    if kern.certificate is not None:
        cert, k = kern.certificate, kern.offset + np.arange(len(kern.coeffs))
        assert np.all(np.abs(kern.floats) <= cert.K * cert.lam ** np.abs(k) * (1.0 + 1e-9)), kind
    # the coarse data grow like ||g||_1 per level (4e8 for a double root at 1.01),
    # and the reconstruction rounds at their scale
    c = np.random.default_rng(seed).uniform(-1.0, 1.0, 64)
    for mode in ("exact", "kernel"):
        pyr = decompose(c, alpha, 2, mode=mode, kernel=kern)
        scale = max(1.0, float(np.max(np.abs(pyr.coarse))))
        assert np.max(np.abs(reconstruct(pyr, alpha) - c)) <= 1e-10 * scale, (kind, mode)


@settings(max_examples=60, deadline=None)
@given(class_masks(), st.integers(0, 2**32 - 1))
def test_the_stability_experiments_hold_on_the_hypothesis_class(drawn, seed):
    # both experiments, at their bounds as they are, on every draw they can run on
    alpha, kind = drawn
    try:
        kern = even_inverse_spectral(alpha)
    except EvenReversibilityError:
        # ev vanishes on the circle up to the guard, so decimation refuses as well
        with pytest.raises(DecimationSingularError):
            decompose(np.ones(256), alpha, 6)
        return
    except SlowDecayError:
        kern = None  # no kernel reaches tol within the length limit
    report = decomposition_stability_experiment(alpha, p="2", trials=10, seed=seed)
    assert report.all_ok, (kind, report.constants)
    pyr = decompose(np.random.default_rng(seed).uniform(-1.0, 1.0, 256), alpha, 6)
    report = reconstruction_stability_experiment(alpha, pyr, 1e-3, 10, seed=seed)
    assert report.all_ok, (kind, report.constants)
    if kern is None:
        return  # the l_inf bound needs a kernel
    report = decomposition_stability_experiment(alpha, p="inf", trials=10, seed=seed, kernel=kern)
    assert report.all_ok, (kind, report.constants)


def test_rounding_decides_the_reconstruction_verdict_near_the_circle():
    # a draw of the "slow" kind: ev has a root 1e-5 off the circle, and 6 levels of
    # analysis lift the coarse data to 3e32
    alpha = Mask(0, [0.25000124999375, 1.0, -0.24999875000624994])
    pyr = decompose(np.random.default_rng(0).uniform(-1.0, 1.0, 256), alpha, 6)
    # the difference of two reconstructions read 2**-6 in every trial, against a budget
    # of about 0.0068; the noise alone, reconstructed, reads about 0.003
    report = reconstruction_stability_experiment(alpha, pyr, 1e-3, 10, seed=0)
    assert report.all_ok, [t.measured for t in report.trials]
    assert max(t.measured for t in report.trials) < 0.004


# ---------------------------------------------------------------------------
# decay certificates
# ---------------------------------------------------------------------------


def test_certificate_quadratic_nominal():
    cert = decay_certificate(bspline_mask(3))
    assert not cert.hypothesis_met  # asymmetric even part is complex on the circle
    assert abs(cert.kappa - 2.0) < 1e-12
    assert cert.s == 1
    assert abs(cert.lam - SQRT2_RATIO) < 1e-12
    assert abs(cert.K - 2.0 * max(1.0, (1.0 + SQRT2) ** 2 / 4.0)) < 1e-12
    assert cert.hypothesis_met is False


def test_certificate_cubic_sound():
    cert = decay_certificate(bspline_mask(4))
    assert cert.hypothesis_met
    assert abs(cert.kappa - 2.0) < 1e-12
    assert abs(cert.lam - SQRT2_RATIO) < 1e-12
    kern = closed_cubic(60)
    for k in kern.support:
        assert abs(kern.coeff(k)) <= cert.bound(k) + 1e-15
    # the actual decay ratio of the cubic inverse *equals* the certified base
    assert abs(abs(kern.coeff(1)) / kern.coeff(0) - cert.lam) < 1e-12


def test_certificate_interpolatory():
    cert = decay_certificate(dd_mask(2))
    assert cert.kappa == 1.0 and cert.lam == 0.0 and cert.K == 1.0
    assert cert.hypothesis_met
    assert cert.bound(0) == 1.0 and cert.bound(3) == 0.0


def test_certificate_attached_to_sound_kernels_only():
    assert even_inverse_spectral(bspline_mask(4)).certificate is not None
    assert even_inverse_spectral(bspline_mask(3)).certificate is None  # dual: flagged unavailable
    for k, nu in [(2, 0), (3, 1)]:
        kern = even_inverse_spectral(pseudo_spline_mask(2 * k, nu))
        cert = kern.certificate
        assert cert is not None and cert.hypothesis_met
        for idx in kern.support:
            assert abs(kern.coeff(idx)) <= cert.bound(idx) * (1 + 1e-9)


@pytest.mark.parametrize("shift", [32768, 10**30])
def test_no_certificate_for_an_even_part_off_centre(shift):
    # ev(z) z**16384 equals ev(z) on the 16384-point grid but is not real off it
    alpha = bspline_mask(4).shift(shift)
    assert even_inverse_spectral(alpha).certificate is None
    assert decay_certificate(alpha).hypothesis_met is False


def test_certificate_unavailable_on_vanishing_symbol():
    m = upsample_mask(make_mask(0, [1, 1]))
    with pytest.raises((CertificateUnavailableError, EvenReversibilityError)):
        decay_certificate(m)


# ---------------------------------------------------------------------------
# closed-form norms
# ---------------------------------------------------------------------------


def gamma_norm2(n, nu):
    """Spectral norm of the pseudo-spline even-inverse, ``1 / min |ev|``, as a float."""
    return float(1 / min_even_symbol(n, nu))


def test_gamma_norm2_values():
    assert gamma_norm2(4, 0) == 2.0
    assert gamma_norm2(6, 1) == 8.0 / 5.0
    for k in range(1, 6):
        assert gamma_norm2(2 * k, k - 1) == 1.0


def test_gamma_norm2_matches_sampled_min():
    for n, nu in [(3, 0), (5, 1), (6, 1), (7, 2)]:
        closed = gamma_norm2(n, nu)
        sampled = 1.0 / min_modulus_on_circle(even_part(pseudo_spline_mask(n, nu)))
        assert abs(closed - sampled) < 1e-9 * closed


def test_min_evensymbol_primal_values():
    # the order-2k primal mask: n = 2k
    assert float(min_even_symbol(4, 0)) == 0.5
    assert float(min_even_symbol(4, 1)) == 1.0
    assert float(min_even_symbol(6, 1)) == 5.0 / 8.0
    assert min_even_symbol(6, 1) == Fraction(5, 8)  # the exact rational, not its float


def test_min_evensymbol_dual_values():
    # the order-(2k+1) dual mask: n = 2k + 1
    assert float(min_even_symbol(3, 0)) == 0.5
    assert float(min_even_symbol(5, 1)) == 0.5625
    with pytest.raises(ParameterError):
        min_even_symbol(5, 2)


def test_one_norm_bound_values():
    assert one_norm_bound_C(2, 1) == 1.0
    assert abs(one_norm_bound_C(2, 0) - (3.0 * SQRT2 + 4.0) / 2.0) < 1e-12
    assert abs(one_norm_bound_C(3, 0) - 9.0) < 1e-12
    with pytest.raises(ParameterError):
        one_norm_bound_C(1, 0)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


# The separate formulas that one exact helper replaced, kept here as oracles.


def _gamma_norm2_formula(n, nu):
    den = sum(generalized_binomial(Fraction(n, 2) + nu, j) for j in range(nu + 1))
    return float(Fraction(2 ** ((n - 1) // 2 + nu)) / den)


def _min_primal_formula(k, nu):
    total = sum(math.comb(k + nu, j) for j in range(nu + 1))
    return float(Fraction(total, 2 ** (k + nu - 1)))


def _min_dual_formula(k, nu):
    total = sum(generalized_binomial(Fraction(2 * k + 1, 2) + nu, j) for j in range(nu + 1))
    return float(total / Fraction(2 ** (k + nu)))


def _one_norm_bound_formula(k, nu):
    kappa_exact = Fraction(2 ** (k + nu - 1), sum(math.comb(k + nu, j) for j in range(nu + 1)))
    if kappa_exact == 1:
        return 1.0
    kappa = float(kappa_exact)
    q = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    lam = q ** (1.0 / ((k + nu) // 2))
    return kappa * max(1.0, (1.0 + math.sqrt(kappa)) ** 2 / (2.0 * kappa)) * (1.0 + lam) / (1.0 - lam)


def test_closed_form_norms_match_their_separate_formulas():
    for n in range(2, 17):
        for nu in range(n // 2):
            assert gamma_norm2(n, nu) == _gamma_norm2_formula(n, nu), (n, nu)
            k = n // 2
            if n % 2:
                assert float(min_even_symbol(2 * k + 1, nu)) == _min_dual_formula(k, nu), (n, nu)
                continue
            assert float(min_even_symbol(2 * k, nu)) == _min_primal_formula(k, nu), (n, nu)
            if k >= 2:
                assert one_norm_bound_C(k, nu) == _one_norm_bound_formula(k, nu), (n, nu)


def _quadratic_count_by_log(tol):
    return max(1, math.ceil(math.log(2.0 / tol) / math.log(3.0)))


def _cubic_halfwidth_by_log(tol):
    need = math.log(tol * (1.0 - SQRT2_RATIO) / (2.0 * math.sqrt(2.0)))
    halfwidth = max(0, math.ceil(need / math.log(SQRT2_RATIO)) - 1)
    while 2 * math.sqrt(2) * SQRT2_RATIO ** (halfwidth + 1) / (1 - SQRT2_RATIO) > tol:
        halfwidth += 1
    return halfwidth


def test_closed_form_lengths_match_the_log_formulas():
    # the roots fix the lengths: the shortest closed forms whose dropped tail is within tol
    quadratic, cubic = bspline_mask(3), bspline_mask(4)
    for tol in np.logspace(-16, -2, 1401).tolist() + [0.3, 0.7, 1.0, 3.0]:
        count, halfwidth = _quadratic_count_by_log(tol), _cubic_halfwidth_by_log(tol)
        # below 1e-8 the dropped tail's square is under rounding; above, the Newton step moves it
        close = 1e-15 if tol <= 1e-8 else tol
        kern = even_inverse_spectral(quadratic, tol=tol)
        assert (kern.offset, len(kern.coeffs)) == (0, count), tol
        assert np.max(np.abs(kern.floats - closed_quadratic(count).floats)) <= close, tol
        assert kern.tol == tol
        kern = even_inverse_spectral(cubic, tol=tol)
        assert (kern.offset, len(kern.coeffs)) == (-halfwidth, 2 * halfwidth + 1), tol
        assert np.max(np.abs(kern.floats - closed_cubic(halfwidth).floats)) <= close, tol
        assert kern.tol == tol


def test_closed_form_lengths_reach_the_smallest_tolerance():
    # the tail bounds take logs of an underflowing tol; the residual then names the floor.
    # The cubic needs (3 - 2 sqrt 2)**424 <= 5e-324 (1 - ratio) / (2 sqrt 2): halfwidth 423
    with pytest.raises(SlowDecayError, match="inverse of 679 coefficients has residual"):
        even_inverse_spectral(bspline_mask(3), tol=5e-324)
    with pytest.raises(SlowDecayError, match="inverse of 847 coefficients has residual"):
        even_inverse_spectral(bspline_mask(4), tol=5e-324)


# The one-norm residual ||g * ev - delta||_1 bounds sup |ev(z) g(z) - 1| on the
# circle, so these checks of the symbol product go through inverse_residual_l1.


def test_verify_inverse_closed_cubic():
    kern = closed_cubic(40)
    assert inverse_residual_l1(bspline_mask(4), kern) < 1e-12


def test_verify_inverse_delta_on_interpolatory():
    kern = Kernel(0, np.array([1.0]), 0.0, "spectral")
    assert inverse_residual_l1(dd_mask(2), kern) == 0.0


def test_verify_inverse_detects_perturbation():
    kern = closed_cubic(40)
    coeffs = np.asarray(kern.coeffs).copy()
    coeffs[-kern.offset] += 0.01  # bump the centre coefficient
    bad = Kernel(kern.offset, coeffs, cubic_tail(40), "custom")
    # the bump convolves with ev = (1/z + 6 + z)/8 into 0.01 * (1 + 6 + 1)/8 of one-norm
    assert inverse_residual_l1(bspline_mask(4), bad) >= 0.01 - 1e-12
