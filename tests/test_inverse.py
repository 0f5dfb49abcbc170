"""Even-inverse kernels, spectral inversion, certificates, closed-form norms."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import evenrev.inverse

from evenrev import (
    CertificateUnavailableError,
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
    delta,
    even_inverse,
    even_inverse_closed_cubic,
    even_inverse_closed_quadratic,
    even_inverse_spectral,
    generalized_binomial,
    make_mask,
    min_even_symbol,
    norm_l1,
    norm_linf,
    one_norm_bound_C,
    pseudo_spline_mask,
    upsample_mask,
)
from evenrev.inverse import SQRT2_RATIO, _periodized_inverse, _trim_kernel, inverse_residual_l1
from evenrev.laurent import Mask, even_part, min_modulus_on_circle, symbol_on_circle

SQRT2 = math.sqrt(2.0)


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
    k = even_inverse_closed_quadratic(10)
    assert abs(k.coeff(0) - 4.0 / 3.0) < 1e-15
    assert abs(k.coeff(1) + 4.0 / 9.0) < 1e-15
    assert abs(k.coeff(2) - 4.0 / 27.0) < 1e-15
    assert k.tol == 2.0 * 3.0 ** -10


def test_closed_quadratic_one_norm_limit():
    assert abs(norm_l1(even_inverse_closed_quadratic(40)) - 2.0) < 1e-15


def test_kernels_are_masks():
    kernels = [
        even_inverse_closed_quadratic(12),
        even_inverse_closed_cubic(8),
        even_inverse_spectral(pseudo_spline_mask(6, 1)),
        even_inverse(bspline_mask(4)),
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
        k = even_inverse_closed_quadratic(count)
        assert inverse_residual_l1(bspline_mask(3), k) <= k.tol + 1e-14


def test_closed_cubic_values():
    k = even_inverse_closed_cubic(8)
    assert abs(k.coeff(0) - SQRT2) < 1e-15
    assert abs(k.coeff(1) + SQRT2 * SQRT2_RATIO) < 1e-15
    assert abs(k.coeff(-1) - k.coeff(1)) == 0.0
    assert abs(k.coeff(1) + 0.24264068711928521) < 1e-15


def test_closed_cubic_norms():
    k = even_inverse_closed_cubic(40)
    assert abs(norm_l1(k) - 2.0) < 1e-12
    assert abs(norm_linf(k) - SQRT2) < 1e-15


def test_closed_cubic_residual_within_tail():
    # the analytic tail bound plus float rounding of the measurement itself
    for halfwidth in (4, 10, 25):
        k = even_inverse_closed_cubic(halfwidth)
        assert inverse_residual_l1(bspline_mask(4), k) <= k.tol + 1e-14


def test_kernel_sum_near_one():
    # g(1) = 1 / ev(1) = 1 for normalized masks
    for k in (even_inverse_closed_quadratic(30), even_inverse_closed_cubic(30)):
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
    kern = even_inverse_closed_cubic(12)
    for k in range(5):
        assert abs(4.0 / 3.0 * a[k] - kern.coeff(2 * k)) < 1e-13
        assert abs(4.0 / 3.0 * b[k] + kern.coeff(2 * k + 1)) < 1e-13


# ---------------------------------------------------------------------------
# spectral inversion
# ---------------------------------------------------------------------------


def test_spectral_matches_closed_quadratic():
    spectral = even_inverse_spectral(bspline_mask(3), tol=1e-12)
    closed = even_inverse_closed_quadratic(40)
    for k in range(-10, 35):
        assert abs(spectral.coeff(k) - closed.coeff(k)) < 1e-12


def test_spectral_matches_closed_cubic():
    spectral = even_inverse_spectral(bspline_mask(4), tol=1e-12)
    closed = even_inverse_closed_cubic(40)
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


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
def test_spectral_budget_scales_with_the_even_part_one_norm(tol):
    # min |ev| = 1 but ||ev||_1 = 32.75: the residual multiplies the dropped mass
    # by up to ||ev||_1, so a budget of tol alone left it 1.2 x tol
    mask = Mask(-2, [-7.938034399268925, -0.06833396875827939, 16.876068798537847,
                     1.0683339687582794, -7.938034399268925])
    kern = even_inverse_spectral(mask, tol=tol)
    assert kern.tol == tol
    assert inverse_residual_l1(mask, kern) <= tol


def test_spectral_rejects_nonreversible():
    m = upsample_mask(make_mask(0, [1, 1]))
    with pytest.raises(EvenReversibilityError):
        even_inverse_spectral(m)


def test_spectral_slow_decay_budget():
    # min modulus 1e-6 at z = -1: summable inverse exists but needs far more
    # than the 2**20-point grid, so the stabilisation loop must give up.
    eps = 1e-6
    mask = make_mask(0, [1.0, 0.0, 1.0 - eps])  # even part 1 + (1-eps) z
    with pytest.raises(SlowDecayError, match="did not stabilise below 1.0e-12 within 1048576"):
        even_inverse_spectral(mask, tol=1e-12, guard=1e-9)


def test_spectral_tol_below_rounding_floor_names_residual():
    # The stabilised kernel keeps rounding noise, so ||g*ev - delta||_1 sits
    # near 1e-14 and grows with the grid: stop at once and say why.
    message = r"residual \|\|g\*ev - delta\|\|_1 = \d\.\d+e-1\d above tol 1\.0e-14"
    with pytest.raises(SlowDecayError, match=message):
        even_inverse_spectral(pseudo_spline_mask(11, 0), tol=1e-14)


def trim_kernel_loop(values, offset, tol):
    """Edge trimming one coefficient at a time, summing the dropped mass in order."""
    lo, hi = 0, values.size
    budget = tol / 8.0
    dropped = 0.0
    while lo < hi - 1 and dropped + abs(values[lo]) <= budget:
        dropped += abs(values[lo])
        lo += 1
    dropped = 0.0
    while hi - 1 > lo and dropped + abs(values[hi - 1]) <= budget:
        dropped += abs(values[hi - 1])
        hi -= 1
    return Mask(offset + lo, values[lo:hi])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-1e-3, 1e-3, allow_subnormal=False), min_size=1, max_size=40),
    st.sampled_from([1e-30, 1e-12, 1e-6, 1e-3, 1.0, 1e3]),
    st.integers(-50, 50),
)
@example([0.0], 1e-12, 0)  # one coefficient, which could be dropped: it stays
@example([0.0, 0.0, 0.0], 1.0, -1)  # everything within budget: one stays
@example([1e-13, 5e-14, 1.0, 5e-14, 1e-13], 1e-12, -2)
def test_trim_kernel_matches_the_loop(values, tol, offset):
    values = np.array(values)
    got = _trim_kernel(values, offset, tol)
    want = trim_kernel_loop(values, offset, tol)
    assert got.offset == want.offset
    assert got.floats.tobytes() == want.floats.tobytes()


def _doubling_reference(alpha, tol, max_size=1 << 20):
    """The stabilisation loop that doubles past every rejected residual, on the
    budget ``tol / max(1, ||ev||_1)`` that the residual's growth calls for."""
    ev = even_part(alpha)
    budget = tol / max(1.0, float(np.sum(np.abs(ev.floats))))
    size = 64
    while 4 * len(ev.coeffs) > size:
        size *= 2
    prev = _periodized_inverse(ev, size)
    while size < max_size:
        size *= 2
        curr = _periodized_inverse(ev, size)
        lo = size // 2 - prev.size // 2
        drift = np.max(np.abs(curr[lo : lo + prev.size] - prev))
        edge = max(np.max(np.abs(curr[: size // 4])), np.max(np.abs(curr[3 * size // 4 :])))
        if drift < budget / 4.0 and edge < budget / 4.0:
            kernel = trim_kernel_loop(curr, -(size // 2), budget)
            if inverse_residual_l1(alpha, kernel) <= tol:
                return kernel
        prev = curr
    return None


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
def test_spectral_kernels_unchanged_above_rounding_floor(tol):
    for n in range(3, 13):
        for nu in range(n // 2):
            mask = pseudo_spline_mask(n, nu)
            ref = _doubling_reference(mask, tol)
            got = even_inverse_spectral(mask, tol=tol)
            assert got.offset == ref.offset, (n, nu)
            assert got.floats.tobytes() == ref.floats.tobytes(), (n, nu)


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
    # the doubling loop stops far below the grid, so its calls are told apart by size
    assert max(n for n in sizes if n != grid) < grid
    assert sizes.count(grid) == 1  # one sampling serves the check and the certificate
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
            even_inverse(bspline_mask(3), tol=tol)


def test_even_inverse_dispatch():
    assert even_inverse(bspline_mask(3), method="auto").source == "closed_quadratic"
    assert even_inverse(bspline_mask(4), method="auto").source == "closed_cubic"
    assert even_inverse(pseudo_spline_mask(6, 1), method="auto").source == "spectral"
    assert even_inverse(bspline_mask(4), method="spectral").source == "spectral"
    with pytest.raises(ParameterError):
        even_inverse(pseudo_spline_mask(6, 1), method="closed")
    with pytest.raises(ParameterError):
        even_inverse(bspline_mask(4), method="bogus")


def test_even_inverse_closed_meets_tolerance():
    for order in (3, 4):
        for tol in (1e-8, 1e-12):
            kern = even_inverse(bspline_mask(order), tol=tol, method="closed")
            assert kern.tol <= tol
            assert inverse_residual_l1(bspline_mask(order), kern) <= tol


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
    kern = even_inverse_closed_cubic(60)
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
    quadratic, cubic = bspline_mask(3), bspline_mask(4)
    for tol in np.logspace(-16, -2, 1401).tolist() + [0.3, 0.7, 1.0, 3.0]:
        count, halfwidth = _quadratic_count_by_log(tol), _cubic_halfwidth_by_log(tol)
        kern = even_inverse(quadratic, tol=tol)
        assert (kern.offset, len(kern.coeffs)) == (0, count), tol
        assert kern.floats.tobytes() == ((4.0 / 3.0) * (-1.0 / 3.0) ** np.arange(count)).tobytes()
        assert kern.tol == 2.0 * 3.0 ** (-count)
        kern = even_inverse(cubic, tol=tol)
        assert (kern.offset, len(kern.coeffs)) == (-halfwidth, 2 * halfwidth + 1), tol
        k = np.arange(-halfwidth, halfwidth + 1)
        assert kern.floats.tobytes() == (SQRT2 * (-SQRT2_RATIO) ** np.abs(k)).tobytes()
        assert kern.tol == 2.0 * SQRT2 * SQRT2_RATIO ** (halfwidth + 1) / (1.0 - SQRT2_RATIO)


def test_closed_form_lengths_reach_the_smallest_tolerance():
    # the log formulas divided by or took the log of an underflowing tol
    assert len(even_inverse(bspline_mask(3), tol=5e-324).coeffs) == 679
    assert even_inverse(bspline_mask(4), tol=5e-324).offset == -422


# The one-norm residual ||g * ev - delta||_1 bounds sup |ev(z) g(z) - 1| on the
# circle, so these checks of the symbol product go through inverse_residual_l1.


def test_verify_inverse_closed_cubic():
    kern = even_inverse_closed_cubic(40)
    assert inverse_residual_l1(bspline_mask(4), kern) < 1e-12


def test_verify_inverse_delta_on_interpolatory():
    kern = Kernel(0, np.array([1.0]), 0.0, "spectral")
    assert inverse_residual_l1(dd_mask(2), kern) == 0.0


def test_verify_inverse_detects_perturbation():
    kern = even_inverse_closed_cubic(40)
    coeffs = np.asarray(kern.coeffs).copy()
    coeffs[-kern.offset] += 0.01  # bump the centre coefficient
    bad = Kernel(kern.offset, coeffs, kern.tol, "custom")
    # the bump convolves with ev = (1/z + 6 + z)/8 into 0.01 * (1 + 6 + 1)/8 of one-norm
    assert inverse_residual_l1(bspline_mask(4), bad) >= 0.01 - 1e-12
