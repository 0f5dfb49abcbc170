"""Decay reports, stability experiments, compression sweeps."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evenrev import (
    DecimationSingularError,
    Kernel,
    Mask,
    ParameterError,
    SlowDecayError,
    bspline_mask,
    catalog,
    compression_experiment,
    dd_mask,
    decay_report,
    decimate,
    decompose,
    decomposition_stability_experiment,
    derivative_bound,
    estimate_subdivision_sup_norm,
    even_inverse_spectral,
    filter_moment_constants,
    pseudo_spline_mask,
    reconstruct,
    reconstruction_stability_experiment,
    sample_function,
    subdivide,
)
from evenrev import analysis as analysis_module
from evenrev.analysis import (
    StabilityReport, StabilityTrial, subdivision_norm_2, subdivision_norm_inf,
)
from evenrev.inverse import SQRT2_RATIO
from evenrev.laurent import (
    convolve, difference, even_part, min_modulus_on_circle, norm_l1, upsample_mask,
)
from evenrev.transform import Pyramid


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


def test_sample_function_sine():
    got = sample_function("sine", 3, 2)
    assert got.size == 16
    expected = np.sin(2 * np.pi * np.arange(16) / 8.0)
    assert np.max(np.abs(got - expected)) < 1e-15
    assert derivative_bound("sine") == 2 * np.pi


def test_sample_function_difference_bound():
    for kind in ("sine", "gaussian_bump", "poly"):
        for j in (4, 7):
            c = sample_function(kind, j, 2)
            bound = derivative_bound(kind) * 2.0 ** -j
            assert np.max(np.abs(difference(c))) <= bound + 1e-15


def test_sample_function_constant_poly_has_zero_differences():
    c = sample_function("poly", 5, 2, params={"cos": (), "sin": ()})
    assert np.max(np.abs(difference(c))) == 0.0
    assert derivative_bound("poly", {"cos": (), "sin": ()}) == 0.0


def test_sample_function_rejects_unknown_kind():
    with pytest.raises(ParameterError):
        sample_function("sawtooth", 3, 2)
    with pytest.raises(ParameterError):
        sample_function("sine", 3, 1)  # base must be >= 2


@pytest.mark.parametrize("levels, base", [(59, 2), (70, 2), (0, 10**20)])
def test_sample_function_rejects_sizes_numpy_cannot_hold(levels, base):
    # every size here is one numpy refuses before it allocates anything
    with pytest.raises(ParameterError, match=f"levels {levels} with base {base} ask for"):
        sample_function("sine", levels, base)


# ---------------------------------------------------------------------------
# moment constants
# ---------------------------------------------------------------------------


def test_moment_constants_quadratic():
    kern = even_inverse_spectral(bspline_mask(3))
    moments = filter_moment_constants(bspline_mask(3), kern)
    assert abs(moments.k_alpha - 1.5) < 1e-15


def test_moment_constants_interpolatory():
    mask = dd_mask(2)
    kern = even_inverse_spectral(mask)
    moments = filter_moment_constants(mask, kern)
    assert moments.k_gamma == 0.0
    assert abs(moments.k_combined - moments.k_alpha * 1.0) < 1e-15


def test_moment_constants_cubic_closed_form():
    # 2 * 2*sqrt(2) * sum k r^k = 4*sqrt(2)*r/(1-r)^2 collapses to sqrt(2)
    kern = even_inverse_spectral(bspline_mask(4))
    moments = filter_moment_constants(bspline_mask(4), kern)
    closed = 4.0 * math.sqrt(2.0) * SQRT2_RATIO / (1.0 - SQRT2_RATIO) ** 2
    assert abs(closed - math.sqrt(2.0)) < 1e-14
    assert abs(moments.k_gamma - closed) < 1e-9


# ---------------------------------------------------------------------------
# decay report
# ---------------------------------------------------------------------------


def test_decay_report_inequalities_cubic():
    report = decay_report("sine", 8, 2, bspline_mask(4))
    combined = report.constants["k_combined"]
    for row in report.rows:
        assert row.delta_norm <= row.bound_delta + 1e-12, row
        if row.level:
            assert row.detail_norm <= combined * row.delta_norm + 1e-12, row
            assert row.detail_norm <= row.bound_detail + 1e-12, row


def test_decay_report_interpolatory_depth_independent():
    mask = dd_mask(2)
    kern = even_inverse_spectral(mask)
    long = decay_report("sine", 10, 2, mask, kernel=kern)
    short = decay_report("sine", 7, 2, mask, kernel=kern)
    assert abs(long.constants["gamma_norm1"] - 1.0) < 1e-12
    for level in range(1, 8):
        assert abs(long.rows[level].bound_detail - short.rows[level].bound_detail) < 1e-12


def test_decay_report_constant_signal_zero_norms():
    report = decay_report("poly", 6, 2, bspline_mask(4), params={"cos": (), "sin": ()})
    for row in report.rows:
        assert row.delta_norm == 0.0
        assert row.bound_delta >= 0.0
        if row.level:
            assert row.detail_norm < 1e-15


def test_decay_report_level_zero_has_no_detail():
    report = decay_report("sine", 5, 2, bspline_mask(3))
    assert report.rows[0].detail_norm is None
    assert report.rows[0].bound_detail is None
    assert len(report.rows) == 6


def test_decay_report_without_levels_has_the_signal_row_alone():
    report = decay_report("sine", 0, 4, bspline_mask(3))
    (row,) = report.rows
    assert row.detail_norm is None
    assert row.delta_norm == np.max(np.abs(difference(sample_function("sine", 0, 4))))


def test_decay_report_exact_rows_match_the_per_level_decimate_chain():
    # the report samples the even symbol once and reads each level's data from
    # its analysis; the chain decimates at each period and keeps each level's data
    levels = 8
    for kind in ("sine", "gaussian_bump", "poly"):
        signal = sample_function(kind, levels, 2)
        scale = np.max(np.abs(signal))
        for name, mask in catalog().items():
            report = decay_report(kind, levels, 2, mask)
            c, deltas, details = signal, [np.max(np.abs(difference(signal)))], []
            for _ in range(levels):
                coarse = decimate(c, mask)
                details.append(np.max(np.abs(c - subdivide(mask, coarse))))
                c = coarse
                deltas.append(np.max(np.abs(difference(c))))
            deltas.reverse()
            details = [None] + details[::-1]
            for row, delta_norm, detail_norm in zip(report.rows, deltas, details):
                assert abs(row.delta_norm - delta_norm) <= 1e-12 * scale, (kind, name, row)
                if detail_norm is None:
                    assert row.detail_norm is None
                else:
                    assert abs(row.detail_norm - detail_norm) <= 1e-12 * scale, (kind, name, row)


def test_decay_report_kernel_mode():
    mask = bspline_mask(4)
    kern = even_inverse_spectral(mask, tol=1e-12)
    report = decay_report("sine", 6, 2, mask, mode="kernel", kernel=kern)
    combined = report.constants["k_combined"]
    for row in report.rows:
        assert row.delta_norm <= row.bound_delta + 1e-12
        if row.level:
            assert row.detail_norm <= combined * row.delta_norm + 1e-12


# ---------------------------------------------------------------------------
# subdivision operator norms
# ---------------------------------------------------------------------------


def test_sup_norm_estimate_is_one_for_bsplines():
    # nonnegative normalized rows: every power has unit row sums
    for order in (2, 3, 4, 5):
        assert abs(estimate_subdivision_sup_norm(bspline_mask(order), 8) - 1.0) < 1e-12


def dense_subdivision_sup_norm(alpha, max_power=12):
    """Reference: iterate the mask by dense convolution with zero-upsampled copies."""
    af = alpha.astype_float()
    iterated = af
    best = 1.0
    for j in range(1, max_power + 1):
        exps = iterated.offset + np.arange(len(iterated.coeffs))
        mags = np.abs(np.array([float(c) for c in iterated.coeffs]))
        sums = np.zeros(1 << j)
        np.add.at(sums, exps % (1 << j), mags)
        best = max(best, float(np.max(sums)))
        if j < max_power:
            iterated = convolve(iterated, upsample_mask(af, 1 << j))
    return best


def test_sup_norm_estimate_matches_dense_iteration():
    # all 35 pseudo-splines of orders 3-12; power 10 keeps the dense oracle fast
    for n in range(3, 13):
        for nu in range(n // 2):
            mask = pseudo_spline_mask(n, nu)
            want = dense_subdivision_sup_norm(mask, 10)
            assert abs(estimate_subdivision_sup_norm(mask, 10) - want) <= 1e-12 * want, (n, nu)
    for mask in (bspline_mask(3), bspline_mask(4), dd_mask(2)):
        want = dense_subdivision_sup_norm(mask)
        assert abs(estimate_subdivision_sup_norm(mask) - want) <= 1e-12 * want


def test_sup_norm_estimate_ignores_far_offsets():
    # a shift only permutes the residue classes; numpy never sees the offset
    for mask in (bspline_mask(4), dd_mask(2)):
        far = mask.shift(10**30 + 1)
        assert estimate_subdivision_sup_norm(far) == estimate_subdivision_sup_norm(mask)


def test_sup_norm_estimate_exceeds_one_for_dd():
    val = estimate_subdivision_sup_norm(dd_mask(2), 8)
    assert val >= subdivision_norm_inf(dd_mask(2)) - 1e-12
    assert val > 1.0


def test_experiments_bound_synthesis_deeper_than_twelve_levels():
    # the constant must cover every power of S_alpha a synthesis applies
    mask = pseudo_spline_mask(6, 2)
    deep = estimate_subdivision_sup_norm(mask, 16)
    assert abs(deep - 1.3906393907) < 1e-10
    assert abs(estimate_subdivision_sup_norm(mask) - 1.3906393886) < 1e-10
    pyr = Pyramid(np.zeros(2), tuple(np.zeros(2 << level) for level in range(1, 17)))
    report = reconstruction_stability_experiment(mask, pyr, 1e-3, 1)
    assert report.constants["sup_norm"] == deep
    signal = np.cos(2 * np.pi * np.arange(1 << 17) / (1 << 17))
    report = compression_experiment(signal, mask, 16, [1e-3])
    assert report.constants["sup_norm"] == deep
    # at 12 levels or fewer the constant is the 12-power one, as before
    report = compression_experiment(signal[:4096], mask, 11, [1e-3])
    assert report.constants["sup_norm"] == estimate_subdivision_sup_norm(mask)


@pytest.mark.parametrize("samples", [3, 15, 24])
def test_subdivision_norm_2_refuses_a_grid_that_is_not_a_power_of_two(samples):
    with pytest.raises(ParameterError, match="power of two"):
        subdivision_norm_2(bspline_mask(3), samples)


def test_subdivision_norm_2_refuses_an_undersampling_grid():
    mask = pseudo_spline_mask(12, 1)  # 15 taps need 60 points
    with pytest.raises(ParameterError, match="undersamples"):
        subdivision_norm_2(mask, 32)
    assert subdivision_norm_2(mask, 64) >= 1.0


def test_one_step_norms_dominate_random_applications():
    rng = np.random.default_rng(12)
    for mask in (bspline_mask(3), dd_mask(2), pseudo_spline_mask(6, 1)):
        ninf = subdivision_norm_inf(mask)
        n2 = subdivision_norm_2(mask)
        for _ in range(25):
            c = rng.uniform(-1, 1, 32)
            out = subdivide(mask, c)
            assert np.max(np.abs(out)) <= ninf * np.max(np.abs(c)) + 1e-12
            assert np.linalg.norm(out) <= n2 * np.linalg.norm(c) + 1e-12


# ---------------------------------------------------------------------------
# reconstruction stability
# ---------------------------------------------------------------------------


def _pyramid(mask, length=128, levels=4, seed=13):
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1, 1, length)
    return c, decompose(c, mask, levels)


def test_reconstruction_stability_zero_perturbation():
    mask = bspline_mask(4)
    _, pyr = _pyramid(mask)
    report = reconstruction_stability_experiment(mask, pyr, 0.0, 5, seed=1)
    assert all(t.measured == 0.0 for t in report.trials)
    assert report.all_ok


def test_reconstruction_stability_single_top_detail_entry():
    mask = bspline_mask(4)
    _, pyr = _pyramid(mask)
    delta = 1e-3
    bumped = [d.copy() for d in pyr.details]
    bumped[-1][5] += delta
    other = Pyramid(pyr.coarse, tuple(bumped))
    diff = np.abs(reconstruct(other, mask) - reconstruct(pyr, mask))
    assert abs(np.max(diff) - delta) <= 1e-12 * (1 + delta)
    assert np.argmax(diff) == 5


def test_reconstruction_stability_trials_hold():
    for mask in (bspline_mask(3), dd_mask(2)):
        _, pyr = _pyramid(mask)
        report = reconstruction_stability_experiment(mask, pyr, 1e-3, 50, seed=3)
        assert report.all_ok
        assert report.constants["sup_norm"] >= 1.0


# ---------------------------------------------------------------------------
# decomposition stability
# ---------------------------------------------------------------------------


def test_decomposition_stability_identical_inputs():
    mask = bspline_mask(4)
    report = decomposition_stability_experiment(
        mask, p="inf", trials=3, seed=5, perturbation=0.0
    )
    assert all(t.measured == 0.0 for t in report.trials)


def test_decomposition_stability_interpolatory_ratios():
    mask = dd_mask(2)
    report = decomposition_stability_experiment(mask, p="inf", trials=30, seed=6)
    assert report.all_ok
    assert abs(report.constants["decimation_norm"] - 1.0) < 1e-11


def test_decomposition_stability_cubic_l2_constant():
    mask = bspline_mask(4)
    report = decomposition_stability_experiment(mask, p=2, trials=30, seed=7)
    assert report.all_ok
    assert abs(report.constants["decimation_norm"] - 2.0) < 1e-9


def test_decomposition_stability_rejects_other_p():
    with pytest.raises(ParameterError):
        decomposition_stability_experiment(bspline_mask(3), p=3, trials=1)


def _refuse(*args, **kwargs):
    raise AssertionError("ran")


def test_decomposition_stability_refuses_p_before_any_work(monkeypatch):
    monkeypatch.setattr(analysis_module, "even_inverse_spectral", _refuse)
    monkeypatch.setattr(analysis_module, "decompose", _refuse)
    for p in (3, 1, "1", 2.5, "two", None, -math.inf):
        with pytest.raises(ParameterError, match="only p in"):
            decomposition_stability_experiment(bspline_mask(3), p=p, trials=1)


@pytest.mark.parametrize("p, spelled", [(2, "2"), (2.0, "2"), ("2", "2"), (math.inf, "inf"),
                                        (np.inf, "inf"), ("inf", "inf")])
def test_decomposition_stability_spells_p_one_way(p, spelled):
    report = decomposition_stability_experiment(bspline_mask(4), p=p, trials=2)
    assert report.constants["p"] == spelled


def test_l2_decomposition_stability_inverts_nothing(monkeypatch):
    # the p = 2 bound needs 1 / min|ev| alone, and exact mode decimates spectrally
    near = Mask(0, (1.0, 0.5, 1.0 - 1e-10))  # |ev(-1)| = 1e-10, above a guard of 1e-12
    monkeypatch.setattr(analysis_module, "even_inverse_spectral", _refuse)
    report = decomposition_stability_experiment(near, p=2, trials=5, guard=1e-12)
    assert report.all_ok and len(report.trials) == 5


def test_default_kernels_are_built_at_the_guard_passed():
    # past a guard of 1e-12, the root 1e-10 from the circle decays too slowly;
    # the default guard of 1e-9 must not be what refuses the mask
    near = Mask(0, (1.0, 0.5, 1.0 - 1e-10))
    for run in (lambda: decay_report("sine", 4, 2, near, guard=1e-12),
                lambda: decay_report("sine", 4, 2, near, mode="kernel", guard=1e-12),
                lambda: decomposition_stability_experiment(near, trials=2, guard=1e-12),
                lambda: decomposition_stability_experiment(near, p=2, trials=2, mode="kernel",
                                                           guard=1e-12)):
        with pytest.raises(SlowDecayError) as info:
            run()
        assert "guard" not in str(info.value)


def _pnorm_oracle(x, p):
    return float(np.linalg.norm(x)) if p == 2 else float(np.max(np.abs(x)))


def _verdict(measured, bound):
    return math.isfinite(measured) and math.isfinite(bound) and measured <= bound + 1e-12


def decomposition_trials_by_loop(
    alpha, p, trials, seed, mode, kernel, constants, levels=6, perturbation=1e-3
):
    """Each trial decomposes its signal and the perturbed signal on their own."""
    length = 256
    d_norm, residual_norm = constants["decimation_norm"], constants["residual_norm"]
    rng = np.random.default_rng(seed)
    rows = []
    for t in range(trials):
        c = rng.uniform(-1.0, 1.0, length)
        noise = rng.uniform(-1.0, 1.0, length) * perturbation
        first = decompose(c, alpha, levels, mode=mode, kernel=kernel)
        second = decompose(c + noise, alpha, levels, mode=mode, kernel=kernel)
        din = _pnorm_oracle(noise, p)
        checks = [(_pnorm_oracle(second.coarse - first.coarse, p), d_norm ** levels * din)]
        for level in range(1, levels + 1):
            checks.append(
                (
                    _pnorm_oracle(second.details[level - 1] - first.details[level - 1], p),
                    residual_norm * d_norm ** (levels - level) * din,
                )
            )
        measured, bound = max(checks, key=lambda mb: mb[0] - mb[1])
        ok = all(_verdict(m, b) for m, b in checks)
        rows.append(StabilityTrial(t, measured, bound, ok))
    return tuple(rows)


def reconstruction_trials_by_loop(alpha, pyramid, perturbation, trials, seed, k_sub):
    """Each trial perturbs and reconstructs one pyramid on its own."""
    rng = np.random.default_rng(seed)
    base = reconstruct(pyramid, alpha)
    rows = []
    for t in range(trials):
        dc = rng.uniform(-perturbation, perturbation, pyramid.coarse.size)
        dds = [rng.uniform(-perturbation, perturbation, d.size) for d in pyramid.details]
        perturbed = Pyramid(
            pyramid.coarse + dc,
            tuple(d + dd for d, dd in zip(pyramid.details, dds)),
            pyramid.mask_id,
        )
        measured = float(np.max(np.abs(reconstruct(perturbed, alpha) - base)))
        budget = k_sub * (
            float(np.max(np.abs(dc))) + sum(float(np.max(np.abs(dd))) for dd in dds)
        )
        rows.append(StabilityTrial(t, measured, budget, _verdict(measured, budget)))
    return tuple(rows)


@pytest.mark.parametrize("p", [2, "inf"])
def test_decomposition_stability_matches_the_per_trial_loop(p):
    for name, mask in catalog().items():
        kernel = even_inverse_spectral(mask)
        for mode in ("exact", "kernel"):
            report = decomposition_stability_experiment(
                mask, p=p, trials=20, seed=11, mode=mode, kernel=kernel
            )
            expected = decomposition_trials_by_loop(
                mask, p, 20, 11, mode, kernel, report.constants
            )
            assert report.trials == expected, (name, mode)


@pytest.mark.parametrize("perturbation", [0.0, 1e-3])
def test_reconstruction_stability_matches_the_per_trial_loop(perturbation):
    for name, mask in catalog().items():
        _, pyr = _pyramid(mask)
        report = reconstruction_stability_experiment(mask, pyr, perturbation, 20, seed=4)
        k_sub = report.constants["sup_norm"]
        expected = reconstruction_trials_by_loop(mask, pyr, perturbation, 20, 4, k_sub)
        assert report.trials == expected, name


@pytest.mark.parametrize("perturbation", [1e-3, 8e307])
def test_reconstruction_stability_of_an_exact_pyramid_keeps_its_even_noise(perturbation):
    # an exact pyramid stores no even details, but every trial perturbs all the
    # detail slots: full-length noise rows, whose even entries must reach the
    # synthesis.  The loop here synthesizes whole arrays, as S(c) + d + dd.
    for name, mask in catalog().items():
        c, pyr = _pyramid(mask)
        assert pyr.coarse.size + sum(d.size for d in pyr.stored) == c.size
        report = reconstruction_stability_experiment(mask, pyr, perturbation, 6, seed=8)
        k_sub = report.constants["sup_norm"]
        rng = np.random.default_rng(8)
        details = pyr.details
        base = np.array(pyr.coarse)
        for d in details:
            base = subdivide(mask, base) + d
        rows = []
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(6):
                dc = rng.uniform(-perturbation, perturbation, pyr.coarse.size)
                dds = [rng.uniform(-perturbation, perturbation, d.size) for d in details]
                c = pyr.coarse + dc
                for d, dd in zip(details, dds):
                    c = subdivide(mask, c) + (d + dd)
                measured = float(np.max(np.abs(c - base)))
                budget = k_sub * (float(np.max(np.abs(dc)))
                                  + sum(float(np.max(np.abs(dd))) for dd in dds))
                rows.append(StabilityTrial(t, measured, budget, _verdict(measured, budget)))
        assert repr(report.trials) == repr(tuple(rows)), name


def test_reconstruction_stability_without_details_has_a_row_per_trial():
    # a pyramid of coarse data alone: each budget is K_sub times the coarse noise
    mask = bspline_mask(4)
    pyr = Pyramid(np.random.default_rng(5).uniform(-1.0, 1.0, 16), ())
    report = reconstruction_stability_experiment(mask, pyr, 1e-3, 7, seed=2)
    k_sub = report.constants["sup_norm"]
    assert report.trials == reconstruction_trials_by_loop(mask, pyr, 1e-3, 7, 2, k_sub)
    assert len(report.trials) == 7


@st.composite
def reversible_masks(draw):
    """Masks whose even part one tap dominates, so that ``|ev| >= 1/4`` on the circle."""
    taps = st.floats(-1, 1, allow_subnormal=False)
    even = draw(st.lists(taps, min_size=1, max_size=4))
    odd = draw(st.lists(taps, min_size=len(even), max_size=len(even)))
    lead = draw(st.integers(0, len(even) - 1))
    rest = sum(abs(e) for i, e in enumerate(even) if i != lead)
    even[lead] = draw(st.sampled_from([-1.0, 1.0])) * (0.25 + rest)
    coeffs = [draw(taps)]  # the odd power just below the first even one
    for e, o in zip(even, odd):
        coeffs += [e, o]
    return Mask(2 * draw(st.integers(-2, 2)) - 1, tuple(coeffs))


@settings(max_examples=30, deadline=None)
@given(
    reversible_masks(),
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, "inf"]),
    st.sampled_from(["exact", "kernel"]),
    st.integers(1, 30),
    st.integers(1, 6),
    st.one_of(st.floats(0, 1), st.floats(0, 8e307)),
)
@example(bspline_mask(4), 0, 2, "exact", 2, 6, 8e307)  # overflows to inf and NaN
@example(bspline_mask(4), 0, "inf", "kernel", 3, 6, 8e307)
@example(dd_mask(2), 3, "inf", "exact", 30, 1, 0.0)
def test_stability_reports_equal_the_per_trial_loops(
    alpha, seed, p, mode, trials, levels, perturbation
):
    # the experiments take each norm over the trial axis; the loops take one
    # np.linalg.norm or max per trial and level, and compute every constant anew
    kernel = even_inverse_spectral(alpha) if mode == "kernel" or p == "inf" else None
    if p == 2:
        d_norm = 1.0 / min_modulus_on_circle(even_part(alpha))
        s_norm = subdivision_norm_2(alpha)
    else:
        d_norm = norm_l1(kernel) + kernel.tol
        s_norm = subdivision_norm_inf(alpha)
    constants = {
        "p": str(p), "decimation_norm": d_norm, "subdivision_norm": s_norm,
        "residual_norm": 1.0 + s_norm * d_norm, "levels": levels, "perturbation": perturbation,
    }
    signal = np.random.default_rng(seed).uniform(-1.0, 1.0, 256)
    pyramid = decompose(signal, alpha, levels)
    k_sub = estimate_subdivision_sup_norm(alpha)
    with np.errstate(over="ignore", invalid="ignore"):  # the loops overflow as the experiments do
        dec_rows = decomposition_trials_by_loop(
            alpha, p, trials, seed, mode, kernel, constants, levels, perturbation
        )
        rec_rows = reconstruction_trials_by_loop(alpha, pyramid, perturbation, trials, seed, k_sub)
    report = decomposition_stability_experiment(
        alpha, p=p, trials=trials, seed=seed, levels=levels, perturbation=perturbation,
        mode=mode, kernel=kernel,
    )
    assert repr(report) == repr(StabilityReport("decomposition", dec_rows, constants))
    report = reconstruction_stability_experiment(alpha, pyramid, perturbation, trials, seed=seed)
    expected = StabilityReport(
        "reconstruction", rec_rows, {"sup_norm": k_sub, "perturbation": perturbation}
    )
    assert repr(report) == repr(expected)


def test_samples_reach_the_l2_decomposition_bounds():
    # the smallest |ev| of this mask lies between the nodes of the default grid
    alpha = Mask(0, (1.0, 0.25, 0.3, 0.6, 0.5))
    default = decomposition_stability_experiment(alpha, p=2, trials=2)
    assert repr(decomposition_stability_experiment(alpha, p=2, trials=2, samples=16384)) == repr(
        default
    )
    for samples in (1024, 65536):
        report = decomposition_stability_experiment(alpha, p=2, trials=2, samples=samples)
        d_norm = 1.0 / min_modulus_on_circle(even_part(alpha), samples)
        assert report.constants["decimation_norm"] == d_norm
        assert report.constants["subdivision_norm"] == subdivision_norm_2(alpha, samples)
    assert report.constants["decimation_norm"] > default.constants["decimation_norm"]


@pytest.mark.parametrize("trials", [0, -3])
def test_stability_experiments_need_a_trial(trials):
    # an empty report would be vacuously all_ok
    mask = bspline_mask(4)
    _, pyr = _pyramid(mask)
    with pytest.raises(ParameterError, match=f"trials must be >= 1, got {trials}"):
        decomposition_stability_experiment(mask, trials=trials)
    with pytest.raises(ParameterError, match=f"trials must be >= 1, got {trials}"):
        reconstruction_stability_experiment(mask, pyr, 1e-3, trials)


@pytest.mark.parametrize("perturbation", [-1e-3, math.inf, math.nan])
def test_stability_experiments_refuse_a_perturbation_outside_zero_to_inf(perturbation):
    # NaN noise would compare false against every bound; inf overflows the draws
    mask = bspline_mask(4)
    _, pyr = _pyramid(mask)
    message = f"perturbation must be finite and >= 0, got {perturbation!r}"
    with pytest.raises(ParameterError, match=message):
        decomposition_stability_experiment(mask, trials=2, perturbation=perturbation)
    with pytest.raises(ParameterError, match=message):
        reconstruction_stability_experiment(mask, pyr, perturbation, 2)


@pytest.mark.parametrize("perturbation", [1e308, 8.99e307])
def test_stability_experiments_refuse_a_perturbation_whose_range_overflows(perturbation):
    # uniform draws on [-p, p] need 2 * p finite
    mask = bspline_mask(4)
    _, pyr = _pyramid(mask)
    message = re.escape(f"perturbation must be at most half the largest float, got {perturbation!r}")
    with pytest.raises(ParameterError, match=message):
        decomposition_stability_experiment(mask, trials=2, perturbation=perturbation)
    with pytest.raises(ParameterError, match=message):
        reconstruction_stability_experiment(mask, pyr, perturbation, 2)


def test_stability_trials_that_overflow_fail_without_warnings():
    # 8e307 passes the range check, but the transforms of such noise overflow:
    # an infinite (or NaN) measurement proves nothing, so its trial fails
    mask = bspline_mask(4)
    _, pyr = _pyramid(mask)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = [
            reconstruction_stability_experiment(mask, pyr, 8e307, 2),
            decomposition_stability_experiment(mask, p="inf", trials=2, perturbation=8e307),
            decomposition_stability_experiment(mask, p="2", trials=2, perturbation=8e307),
        ]
    for report in reports:
        assert not report.all_ok, report.kind
        for t in report.trials:
            assert not t.ok and not (math.isfinite(t.measured) and math.isfinite(t.bound))


def test_stability_verdict_needs_a_finite_measurement_and_bound():
    from evenrev.analysis import _holds

    assert _holds(1.0, 1.0) and _holds(1.0 + 1e-13, 1.0) and not _holds(1.1, 1.0)
    for measured, bound in [(math.inf, math.inf), (1.0, math.inf), (math.nan, 1.0), (math.inf, 1.0)]:
        assert not _holds(measured, bound), (measured, bound)


def test_analysis_experiments_take_the_guard():
    # |ev(-1)| = 1e-10: below the default guard, above 1e-12
    near = Mask(0, (1.0, 0.5, 1.0 - 1e-10))
    signal = sample_function("sine", 5)
    kernel = Kernel(0, np.array([1.0]), 1.0, "custom")  # any kernel: exact mode ignores it
    with pytest.raises(DecimationSingularError):
        compression_experiment(signal, near, 3, [0.0])
    with pytest.raises(DecimationSingularError):
        decomposition_stability_experiment(near, trials=2, kernel=kernel)
    with pytest.raises(DecimationSingularError):
        decay_report("sine", 5, 2, near, kernel=kernel)
    assert compression_experiment(signal, near, 3, [0.0], guard=1e-12).levels == 3
    assert len(decomposition_stability_experiment(near, trials=2, kernel=kernel, guard=1e-12).trials) == 2
    assert len(decay_report("sine", 5, 2, near, kernel=kernel, guard=1e-12).rows) == 6


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------


def test_compression_experiment_grid():
    signal = sample_function("sine", 7, 2)
    report = compression_experiment(signal, bspline_mask(4), 5, [0.0, 1e-6, 1e-3, math.inf])
    rows = report.rows
    assert rows[0].reconstruction_error == 0.0
    assert rows[-1].kept_fraction == 0.0
    for row in rows:
        assert row.reconstruction_error <= row.stability_bound + 1e-12
    # monotone: larger cutoff keeps fewer entries
    kept = [row.kept_fraction for row in rows]
    assert all(a >= b for a, b in zip(kept, kept[1:]))


def test_compression_budget_scales_with_levels():
    signal = sample_function("sine", 7, 2)
    levels = 5
    eps = 1e-6
    report = compression_experiment(signal, bspline_mask(4), levels, [eps])
    row = report.rows[0]
    assert row.reconstruction_error <= report.constants["sup_norm"] * levels * eps + 1e-12


def test_compression_infinite_cutoff_is_pure_subdivision():
    signal = sample_function("sine", 6, 2)
    mask = bspline_mask(4)
    pyr = decompose(signal, mask, 4)
    report = compression_experiment(signal, mask, 4, [math.inf])
    c = pyr.coarse
    for _ in range(4):
        c = subdivide(mask, c)
    baseline = reconstruct(pyr, mask)
    assert abs(report.rows[0].reconstruction_error - np.max(np.abs(c - baseline))) < 1e-12
