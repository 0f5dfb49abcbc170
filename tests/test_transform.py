"""Pyramid transform tests: decimation, round trips, detail structure."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from evenrev import (
    DecimationSingularError,
    EvenReversibilityError,
    EvenRevError,
    Kernel,
    LengthError,
    LevelError,
    ParameterError,
    Pyramid,
    ShapeError,
    bspline_mask,
    catalog,
    dd_mask,
    decimate,
    decompose,
    delta,
    downsample,
    even_inverse_closed_cubic,
    even_inverse_spectral,
    make_mask,
    odd_part,
    pseudo_spline_mask,
    reconstruct,
    subdivide,
    threshold_details,
    upsample,
    upsample_mask,
)
from evenrev.laurent import GUARD, _periodic_convolve, circular_convolve, symbol_on_circle
from evenrev.transform import MODES, _analysis, _halving


def exact_decimate(ce, ev, guard):
    """``decimate`` of data whose downsampling is ``ce``, by a mask whose even part is ``ev``."""
    return decimate(upsample(ce), upsample_mask(ev), guard=guard)


def naive_kernel_decimate(kernel, c):
    """Windowed bi-infinite decimation of the periodic extension, by loops."""
    ce = c[::2]
    m = ce.size
    out = np.zeros(m)
    for k in range(m):
        acc = 0.0
        for i, w in enumerate(np.asarray(kernel.coeffs)):
            acc += w * ce[(k - (kernel.offset + i)) % m]
        out[k] = acc
    return out


def naive_exact_decimate(ce, ev, guard):
    """Fourier division with the symbol evaluated by ``exp`` and ``polyval``."""
    m = ce.size
    z = np.exp(-2j * np.pi * np.arange(m // 2 + 1) / m)
    vals = ev.symbol(z)
    bad = np.abs(vals) <= guard
    if np.any(bad):
        where = complex(z[int(np.argmax(bad))])
        raise DecimationSingularError(
            f"even symbol vanishes at the root of unity {where:.6f} (period {m})"
        )
    return np.fft.irfft(np.fft.rfft(ce) / vals, m)


# ---------------------------------------------------------------------------
# decimate
# ---------------------------------------------------------------------------


def test_decimate_constant():
    out = decimate(np.ones(8), bspline_mask(4))
    assert out.size == 4
    assert np.allclose(out, 1.0, atol=1e-14)


def test_decimate_constant_all_catalog_masks():
    # g(1) = 1 / ev(1) = 1: constants pass through every catalog decimation
    for name, mask in catalog().items():
        out = decimate(np.ones(16), mask)
        assert out.size == 8
        assert np.max(np.abs(out - 1.0)) < 1e-13, name


def test_decimate_interpolatory_is_downsampling():
    rng = np.random.default_rng(0)
    c = rng.uniform(-1, 1, 16)
    out = decimate(c, dd_mask(2))
    assert np.array_equal(out, downsample(c))


def test_decimate_cubic_impulse_folds_kernel():
    c = np.zeros(16)
    c[0] = 1.0
    out = decimate(c, bspline_mask(4))
    closed = even_inverse_closed_cubic(200)
    expected = np.zeros(8)
    for k in closed.support:
        expected[k % 8] += closed.coeff(k)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_decimate_kernel_mode_matches_naive_oracle():
    rng = np.random.default_rng(42)
    c = rng.uniform(-1, 1, 64)
    mask = bspline_mask(4)
    kern = even_inverse_spectral(mask, tol=1e-12)
    ours = decimate(c, mask, mode="kernel", kernel=kern)
    assert np.max(np.abs(ours - naive_kernel_decimate(kern, c))) < 1e-13


def test_decimate_kernel_is_a_mask_convolution():
    # a Kernel is a Mask: kernel-mode decimation treats both alike, bit for bit
    c = np.random.default_rng(43).uniform(-1, 1, 64)
    mask = bspline_mask(4)
    kern = even_inverse_spectral(mask, tol=1e-12)
    plain = make_mask(kern.offset, kern.coeffs)
    assert type(plain) is not type(kern)
    ours = decimate(c, mask, mode="kernel", kernel=kern)
    assert ours.tobytes() == decimate(c, mask, mode="kernel", kernel=plain).tobytes()


def test_decimate_modes_agree_when_period_is_wide():
    rng = np.random.default_rng(9)
    c = rng.uniform(-1, 1, 512)
    for mask in (bspline_mask(3), bspline_mask(4), pseudo_spline_mask(6, 1)):
        kern = even_inverse_spectral(mask, tol=1e-12)
        a = decimate(c, mask, mode="exact")
        b = decimate(c, mask, mode="kernel", kernel=kern)
        assert np.max(np.abs(a - b)) < 1e-9


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 64, 1000])
def test_exact_decimate_matches_naive_reference(m):
    # even parts of up to 7 taps are longer than the smallest periods
    rng = np.random.default_rng(m)
    masks = list(catalog().values()) + [pseudo_spline_mask(12, 0), make_mask(-3, [0.1, 2.0, 0.4])]
    for mask in masks:
        ev = mask.polyphase[0]
        ce = rng.uniform(-1, 1, m)
        err = np.max(np.abs(exact_decimate(ce, ev, 1e-9) - naive_exact_decimate(ce, ev, 1e-9)))
        assert err <= 1e-13 * np.max(np.abs(ce))


def test_exact_decimate_singular_message_matches_naive_reference():
    ev = make_mask(0, [1.0, 1.0])  # 1 + z vanishes at z = -1
    messages = []
    for fn in (exact_decimate, naive_exact_decimate):
        with pytest.raises(DecimationSingularError) as info:
            fn(np.ones(8), ev, 1e-9)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_decimate_odd_length_rejected():
    with pytest.raises(LengthError):
        decimate(np.ones(7), bspline_mask(3))


def test_decimate_singular_symbol_rejected():
    mask = upsample_mask(make_mask(0, [1, 1]))  # even part 1 + z, zero at -1
    with pytest.raises(DecimationSingularError):
        decimate(np.ones(8), mask)


def test_decimate_unknown_mode():
    with pytest.raises(ParameterError):
        decimate(np.ones(8), bspline_mask(3), mode="sideways")
    assert MODES == ("exact", "kernel")


# ---------------------------------------------------------------------------
# single level
# ---------------------------------------------------------------------------


def test_decompose_level_interpolatory_details():
    rng = np.random.default_rng(1)
    mask = dd_mask(2)
    c = rng.uniform(-1, 1, 32)
    pyr = decompose(c, mask, 1)
    coarse, detail = pyr.coarse, pyr.details[0]
    assert np.array_equal(coarse, c[::2])
    assert np.max(np.abs(detail[::2])) == 0.0
    predicted = circular_convolve(odd_part(mask), c[::2])
    assert np.max(np.abs(detail[1::2] - (c[1::2] - predicted))) < 1e-14


def test_decompose_level_refinement_data_has_zero_detail():
    rng = np.random.default_rng(2)
    for mask in (bspline_mask(3), bspline_mask(4)):
        b = rng.uniform(-1, 1, 16)
        c = subdivide(mask, b)
        detail = decompose(c, mask, 1).details[0]
        assert np.max(np.abs(detail)) < 1e-12


def test_decompose_level_even_details_vanish():
    rng = np.random.default_rng(3)
    c = rng.uniform(-1, 1, 64)
    detail = decompose(c, bspline_mask(4), 1).details[0]
    assert np.max(np.abs(detail[::2])) < 1e-12


# ---------------------------------------------------------------------------
# full pyramid
# ---------------------------------------------------------------------------


def test_decompose_one_level_equals_level_step():
    rng = np.random.default_rng(4)
    c = rng.uniform(-1, 1, 32)
    # one level is one decimation and the odd residual against its upscaling;
    # the even residual is rounding, measured here and stored as 0.0
    pyr = decompose(c, bspline_mask(3), 1)
    coarse = decimate(c, bspline_mask(3))
    assert np.array_equal(pyr.coarse, coarse)
    full = c - subdivide(bspline_mask(3), coarse)
    assert pyr.details[0][1::2].tobytes() == full[1::2].tobytes()
    assert np.all(pyr.details[0][::2] == 0.0)
    assert np.max(np.abs(full[::2])) < 1e-12 * np.max(np.abs(c))


def test_decompose_constant_signal():
    pyr = decompose(np.ones(64), bspline_mask(4), 4)
    assert np.allclose(pyr.coarse, 1.0, atol=1e-13)
    for d in pyr.details:
        assert np.max(np.abs(d)) < 1e-13


def decimate_chain(c, mask, levels, mode="exact", kernel=None):
    """The pyramid from one ``decimate`` per level, each sampling at its own period."""
    details = []
    for _ in range(levels):
        coarse = decimate(c, mask, mode=mode, kernel=kernel)
        details.append(c - subdivide(mask, coarse))
        c = coarse
    return c, details[::-1]


@pytest.mark.parametrize("lead", [(), (3,)])
def test_decompose_matches_the_per_level_decimate_chain(lead):
    # exact mode samples the even symbol once, at the finest coarse period;
    # the per-level samples differ from its every 2**l-th value only by rounding
    rng = np.random.default_rng(8)
    for levels, n in [(1, 64), (5, 256), (3, 24)]:
        c = rng.uniform(-1, 1, lead + (n,))
        scale = np.max(np.abs(c))
        for name, mask in catalog().items():
            pyr = decompose(c, mask, levels)
            coarse, details = decimate_chain(c, mask, levels)
            assert np.max(np.abs(pyr.coarse - coarse)) <= 1e-12 * scale, name
            for got, want in zip(pyr.details, details):
                assert np.max(np.abs(got - want)) <= 1e-12 * scale, name
            if levels == 1 or mask.polyphase[0] == delta():  # one sampling, or none
                assert pyr.coarse.tobytes() == coarse.tobytes(), name


def test_decompose_kernel_mode_equals_the_decimate_chain_bit_for_bit():
    c = np.random.default_rng(12).uniform(-1, 1, 128)
    for mask in (bspline_mask(3), pseudo_spline_mask(6, 1)):
        kern = even_inverse_spectral(mask)
        pyr = decompose(c, mask, 4, mode="kernel", kernel=kern)
        coarse, details = decimate_chain(c, mask, 4, mode="kernel", kernel=kern)
        assert pyr.coarse.tobytes() == coarse.tobytes()
        for got, want in zip(pyr.details, details):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("tap", [1.0, 1.0 - 1e-10])
def test_decompose_singular_even_symbol_raises_the_level_one_message(tap):
    mask = make_mask(0, [1.0, 0.5, tap])  # even part 1 + tap z, within the guard at -1
    c = np.ones(32)
    with pytest.raises(DecimationSingularError) as info:
        naive_exact_decimate(c[::2], mask.polyphase[0], 1e-9)
    for levels in (1, 3):
        with pytest.raises(DecimationSingularError) as got:
            decompose(c, mask, levels)
        assert str(got.value) == str(info.value)
    assert "(period 16)" in str(info.value)


def test_decompose_guard_reaches_exact_mode():
    mask = make_mask(0, [1.0, 0.5, 1.0 - 1e-10])  # |ev(-1)| = 1e-10, under the default guard
    c = np.random.default_rng(21).uniform(-1, 1, 32)
    with pytest.raises(DecimationSingularError):
        decompose(c, mask, 2)
    pyr = decompose(c, mask, 2, guard=1e-12)
    scale = np.max(np.abs(pyr.coarse))  # |1/ev| reaches 1e10
    assert np.max(np.abs(reconstruct(pyr, mask) - c)) < 1e-12 * scale
    one = decompose(c, mask, 1, guard=1e-12)
    assert one.coarse.tobytes() == decimate(c, mask, guard=1e-12).tobytes()


def full_residual_decompose(c, alpha, levels):
    """The whole-residual analysis loop: ``c - S_alpha(coarse)`` at every index.

    Each level divides by every ``2**l``-th even-symbol value sampled once at
    the finest coarse period.
    """
    ev = alpha.polyphase[0]
    vals = symbol_on_circle(ev, c.shape[-1] // 2, half=True)
    details = []
    for level in range(levels):
        ce = downsample(c)
        if ev == delta():
            coarse = ce
        else:
            coarse = np.fft.irfft(np.fft.rfft(ce, axis=-1) / vals[:: 1 << level], ce.shape[-1],
                                  axis=-1)
        details.append(c - subdivide(alpha, coarse))
        c = coarse
    return c, details[::-1]


HYPOTHESIS_MASKS = list(catalog().values()) + [
    pseudo_spline_mask(n, nu) for n in range(3, 11) for nu in range(n // 2)
]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(HYPOTHESIS_MASKS),
    st.sampled_from([(), (3,)]),
    st.integers(1, 5),
    st.sampled_from([2, 3, 4, 6, 8]),
    st.integers(0, 2**32 - 1),
)
def test_exact_decompose_is_the_full_residual_loop_at_odd_indices(mask, lead, levels, m, seed):
    c = np.random.default_rng(seed).uniform(-1, 1, lead + (m << levels,))
    pyr = decompose(c, mask, levels)
    coarse, details = full_residual_decompose(c, mask, levels)
    assert pyr.coarse.tobytes() == coarse.tobytes()
    for got, want in zip(pyr.details, details):
        assert got[..., 1::2].tobytes() == want[..., 1::2].tobytes()
        assert not np.any(got[..., ::2])


def test_decompose_validates_levels():
    with pytest.raises(LevelError):
        decompose(np.ones(64), bspline_mask(3), 0)
    with pytest.raises(LevelError):
        decompose(np.ones(20), bspline_mask(3), 3)  # 8 does not divide 20
    with pytest.raises(LevelError):
        decompose(np.ones(64), bspline_mask(3), 6)  # coarse would have 1 sample


def test_roundtrip_quadratic():
    rng = np.random.default_rng(5)
    c = rng.uniform(-1, 1, 256)
    pyr = decompose(c, bspline_mask(3), 5)
    assert np.max(np.abs(reconstruct(pyr, bspline_mask(3)) - c)) < 1e-10


def test_roundtrip_all_catalog_masks_both_modes():
    rng = np.random.default_rng(6)
    for name, mask in catalog().items():
        kern = even_inverse_spectral(mask, tol=1e-12)
        c = rng.uniform(-1, 1, 128)
        for mode in MODES:
            pyr = decompose(c, mask, 4, mode=mode, kernel=kern)
            err = np.max(np.abs(reconstruct(pyr, mask) - c))
            assert err < 1e-10, (name, mode, err)


def synthesis_loop(p, alpha):
    """Each level's data ``c_0 = coarse, ..., c_J``, by ``c_l = S_alpha(c_{l-1}) + d_l``."""
    levels = [np.array(p.coarse)]
    for d in p.details:
        levels.append(subdivide(alpha, levels[-1]) + d)
    return levels


@pytest.mark.parametrize("lead", [(), (3,)])
def test_synthesize_ends_in_reconstruct_bit_for_bit(lead):
    c = np.random.default_rng(13).uniform(-1, 1, lead + (96,))
    for mask in (bspline_mask(3), dd_mask(2), pseudo_spline_mask(6, 1)):
        for mode in MODES:
            pyr = decompose(c, mask, 4, mode=mode)
            assert synthesis_loop(pyr, mask)[-1].tobytes() == reconstruct(pyr, mask).tobytes()


@pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
def test_synthesize_levels_double_the_period_and_keep_the_leading_shape(lead):
    # the analysis yields c_3, ..., c_0; synthesis from its pyramid rebuilds them
    c = np.random.default_rng(14).uniform(-1, 1, lead + (80,))
    before = c.copy()
    mask = bspline_mask(4)
    steps = list(_analysis(c, mask, 3, "exact", None, GUARD))
    levels = [x for x, _ in steps[::-1]]
    assert [x.shape for x in levels] == [lead + (10 << l,) for l in range(4)]
    assert [d is None for _, d in steps] == [False, False, False, True]
    # exact mode predicts no even sample: each detail is the odd half
    assert [d.shape for _, d in steps[:-1]] == [lead + (40 >> l,) for l in range(3)]
    assert levels[-1] is c and c.tobytes() == before.tobytes()  # read, never written
    assert not any(np.shares_memory(a, b) for a in levels for b in levels if a is not b)
    pyr = decompose(c, mask, 3)
    assert levels[0].tobytes() == pyr.coarse.tobytes()
    for got, want in zip(synthesis_loop(pyr, mask), levels):
        assert np.max(np.abs(got - want)) < 1e-13
    assert reconstruct(pyr, mask).shape == c.shape


def test_synthesize_without_details_yields_a_copy_of_the_coarse_data():
    pyr = Pyramid(np.arange(4.0), ())
    out = reconstruct(pyr, bspline_mask(3))
    assert np.array_equal(out, pyr.coarse) and not np.shares_memory(out, pyr.coarse)
    out[0] = 9.0  # writable, although the pyramid's coarse data is not
    assert pyr.coarse[0] == 0.0


def level_loop_before_the_generator(c, alpha, levels, mode, kernel):
    """The analysis loop as it was: exact mode predicts the odd samples alone,
    kernel mode subtracts the whole ``subdivide`` of the coarse data."""
    halve = _halving(alpha, c.shape[-1], mode, kernel, GUARD)
    od = alpha.polyphase[1]
    details = []
    for level in range(levels):
        coarse = halve(c[..., ::2], level)
        if mode == "exact":
            detail = np.zeros(c.shape)
            odd = _periodic_convolve(od.offset, od.floats, coarse)
            np.subtract(c[..., 1::2], odd, out=detail[..., 1::2])
        else:
            detail = subdivide(alpha, coarse)
            np.subtract(c, detail, out=detail)
        details.append(detail)
        c = coarse
    return c, details[::-1]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-12, 12),
    st.lists(st.floats(-2, 2, allow_nan=False, allow_infinity=False), min_size=1, max_size=14),
    st.sampled_from([(), (3,), (2, 3)]),
    st.integers(1, 4),
    st.integers(2, 5),
    st.integers(0, 2**32 - 1),
)
def test_decompose_is_the_earlier_level_loop_bit_for_bit(offset, taps, lead, levels, m, seed):
    if not any(taps):
        return
    mask = make_mask(offset, taps)
    kernel = Kernel(3 - offset, mask.floats[::-1], 1e-9, "test")  # any float mask can serve
    c = np.random.default_rng(seed).uniform(-1, 1, lead + (m << levels,))
    for mode in MODES:
        try:
            coarse, details = level_loop_before_the_generator(c, mask, levels, mode, kernel)
        except DecimationSingularError:
            with pytest.raises(DecimationSingularError):
                decompose(c, mask, levels, mode=mode, kernel=kernel)
            continue
        pyr = decompose(c, mask, levels, mode=mode, kernel=kernel)
        assert pyr.coarse.tobytes() == coarse.tobytes(), mode
        assert [d.tobytes() for d in pyr.details] == [d.tobytes() for d in details], mode


STORAGE_MASKS = list(catalog().values()) + [dd_mask(2), dd_mask(3)]


@functools.cache
def storage_kernel(index):
    """The spectral inverse of ``STORAGE_MASKS[index]``, computed once per mask."""
    return even_inverse_spectral(STORAGE_MASKS[index])


def synthesis_of(coarse, details, alpha):
    """``c_l = S_alpha(c_{l-1}) + d_l`` over full-length details."""
    c = np.array(coarse)
    for d in details:
        c = subdivide(alpha, c) + d
    return c


signed_zero_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309]),
    st.floats(-2, 2, allow_nan=False),  # subnormals and both zeros included
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, len(STORAGE_MASKS) - 1),
    st.sampled_from(MODES),
    st.sampled_from([(), (2,), (2, 3)]),
    st.integers(1, 4),
    st.sampled_from([2, 3, 4]),
    st.data(),
)
def test_halves_are_the_full_residual_bit_for_bit(index, mode, lead, levels, m, data):
    # the oracle stores the full residual, 0.0 at exact mode's even slots, and
    # synthesizes and thresholds it as whole arrays: every byte must agree,
    # signed zeros and subnormals included
    mask = STORAGE_MASKS[index]
    kernel = storage_kernel(index) if mode == "kernel" else None
    shape = lead + (m << levels,)
    c = data.draw(hnp.arrays(float, shape, elements=signed_zero_floats, fill=st.nothing()))
    coarse, details = level_loop_before_the_generator(c, mask, levels, mode, kernel)
    pyr = decompose(c, mask, levels, mode=mode, kernel=kernel)
    assert pyr.coarse.tobytes() == coarse.tobytes()
    full = pyr.details
    assert [d.shape for d in full] == [d.shape for d in details]
    assert [d.tobytes() for d in full] == [d.tobytes() for d in details]
    assert not any(d.flags.writeable for d in full)
    halved = 2 if mode == "exact" else 1  # exact mode stores the odd halves
    assert [s.shape[-1] for s in pyr.stored] == [d.shape[-1] // halved for d in details]
    if mode == "exact":
        assert pyr.max_even_detail() == 0.0
    assert reconstruct(pyr, mask).tobytes() == synthesis_of(coarse, details, mask).tobytes()
    # the public constructor stores full-length levels, even slots' +0.0 included:
    # everything made from it must match the pyramid decompose made, byte for byte
    rebuilt = Pyramid(coarse, tuple(details))
    assert [d.tobytes() for d in rebuilt.details] == [d.tobytes() for d in details]
    assert reconstruct(rebuilt, mask).tobytes() == reconstruct(pyr, mask).tobytes()
    for eps in (0.0, 1e-300, 0.5):
        cut = [np.where(np.abs(d) < eps, 0.0, d) for d in details]
        small, kept, total = threshold_details(pyr, eps)
        assert kept == sum(int(np.count_nonzero(d)) for d in cut)
        assert total == sum(d.size for d in cut)
        assert [d.tobytes() for d in small.details] == [d.tobytes() for d in cut]
        assert reconstruct(small, mask).tobytes() == synthesis_of(coarse, cut, mask).tobytes()
        small_r, kept_r, total_r = threshold_details(rebuilt, eps)
        assert (kept_r, total_r) == (kept, total)
        assert [d.tobytes() for d in small_r.details] == [d.tobytes() for d in cut]
        assert reconstruct(small_r, mask).tobytes() == reconstruct(small, mask).tobytes()


def test_pyramid_stores_each_level_as_it_was_made():
    # the public constructor keeps a level's bytes: -0.0 comes back as -0.0
    for even in ([0.0, 0.0], [-0.0, 0.0], [0.0, 5e-324]):
        d = np.empty(4)
        d[0::2], d[1::2] = even, [1.0, -2.0]
        pyr = Pyramid(np.zeros(2), (d,))
        assert pyr.stored[0].tobytes() == pyr.details[0].tobytes() == d.tobytes()
        assert pyr.stored[0].flags.c_contiguous
    c = np.random.default_rng(12).uniform(-1, 1, 64)
    exact = decompose(c, bspline_mask(4), 4)  # the odd halves: N coefficients for N samples
    assert exact.coarse.size + sum(d.size for d in exact.stored) == c.size
    assert all(d.flags.c_contiguous for d in exact.stored)
    kernel = decompose(c, bspline_mask(4), 4, mode="kernel")  # the full residuals
    assert [d.shape for d in kernel.stored] == [(4 << l,) for l in range(1, 5)]
    assert all(a is b for a, b in zip(kernel.details, kernel.stored))  # given back uncopied


def test_pyramid_copies_what_it_is_given():
    d = np.arange(8.0)
    coarse = np.ones(4)
    pyr = Pyramid(coarse, (d,))
    d[:] = -1.0
    coarse[:] = 0.0
    assert pyr.details[0].tolist() == list(np.arange(8.0)) and pyr.coarse.tolist() == [1.0] * 4
    assert not any(x.flags.writeable for x in (pyr.coarse, *pyr.stored))


@pytest.mark.parametrize("tol", [1e-8, 1e-9, 1e-10, 1e-11, 1e-12])
def test_kernel_even_details_stay_under_the_packed_limit(tol):
    # the premise of `decompose --packed` in kernel mode: a kernel of residual tol
    # leaves even details of at most 1.01 * tol * max|c_l| plus a rounding floor
    x = np.linspace(0, 1, 4096, endpoint=False)
    rng = np.random.default_rng(3)
    signal = np.sin(6 * np.pi * x) + (x > 0.4) + 0.01 * rng.standard_normal(x.size)
    floor = 1e-10 * max(1.0, float(np.max(np.abs(signal))))
    for name, mask in catalog().items():
        kernel = even_inverse_spectral(mask, tol=tol)
        for c, d in list(_analysis(signal, mask, 5, "kernel", kernel, GUARD))[:-1]:
            leak = np.max(np.abs(d[0::2]))
            assert leak <= 1.01 * tol * np.max(np.abs(c)) + floor, (name, tol, leak)


def test_kernel_mode_builds_its_kernel_at_the_guard_passed():
    near = make_mask(0, [1.0, 0.5, 1.0 - 1e-10])  # |ev(-1)| = 1e-10
    with pytest.raises(EvenReversibilityError, match="below the guard 1.0e-09"):
        decompose(np.ones(64), near, 2, mode="kernel")
    # past the guard of 1e-12, the root 1e-10 from the circle decays too slowly
    with pytest.raises(EvenRevError) as info:
        decompose(np.ones(64), near, 2, mode="kernel", guard=1e-12)
    assert "1.0e-09" not in str(info.value) and "guard" not in str(info.value)


def test_reconstruct_zero_details_is_iterated_subdivision():
    rng = np.random.default_rng(7)
    coarse = rng.uniform(-1, 1, 8)
    mask = bspline_mask(4)
    zeros = [np.zeros(16), np.zeros(32)]
    pyr = Pyramid(coarse, tuple(zeros))
    expected = subdivide(mask, subdivide(mask, coarse))
    assert np.array_equal(reconstruct(pyr, mask), expected)


def test_wrong_kernel_reconstructs_but_leaks_even_details():
    rng = np.random.default_rng(8)
    mask = bspline_mask(4)
    wrong = Kernel(-1, rng.uniform(-1, 1, 4), 0.0, "custom")
    c = rng.uniform(-1, 1, 128)
    pyr = decompose(c, mask, 3, mode="kernel", kernel=wrong)
    assert np.max(np.abs(reconstruct(pyr, mask) - c)) < 1e-10
    assert pyr.max_even_detail() > 1e-4


def test_perturbed_kernel_leaks_even_details():
    # both directions of the annihilation equivalence: the exact inverse
    # kills even details, any 1e-3 perturbation of it visibly does not
    rng = np.random.default_rng(9)
    mask = bspline_mask(4)
    kern = even_inverse_spectral(mask, tol=1e-12)
    c = rng.uniform(-1, 1, 128)
    good = decompose(c, mask, 2, mode="kernel", kernel=kern)
    assert good.max_even_detail() < 1e-11
    coeffs = np.asarray(kern.coeffs).copy()
    coeffs[-kern.offset] += 1e-3
    bad = Kernel(kern.offset, coeffs, kern.tol, "custom")
    leaky = decompose(c, mask, 2, mode="kernel", kernel=bad)
    assert leaky.max_even_detail() > 1e-5


def test_decompose_linearity():
    rng = np.random.default_rng(10)
    mask = bspline_mask(3)
    c1 = rng.uniform(-1, 1, 64)
    c2 = rng.uniform(-1, 1, 64)
    a, b = 0.7, -1.3
    lhs = decompose(a * c1 + b * c2, mask, 3)
    p1 = decompose(c1, mask, 3)
    p2 = decompose(c2, mask, 3)
    assert np.max(np.abs(lhs.coarse - (a * p1.coarse + b * p2.coarse))) < 1e-12
    for dl, d1, d2 in zip(lhs.details, p1.details, p2.details):
        assert np.max(np.abs(dl - (a * d1 + b * d2))) < 1e-12


# ---------------------------------------------------------------------------
# thresholding
# ---------------------------------------------------------------------------


def _sample_pyramid():
    rng = np.random.default_rng(11)
    c = rng.uniform(-1, 1, 64)
    return c, decompose(c, bspline_mask(4), 3)


def test_threshold_zero_is_identity():
    _, pyr = _sample_pyramid()
    out, kept, total = threshold_details(pyr, 0.0)
    for a, b in zip(out.details, pyr.details):
        assert np.array_equal(a, b)
    assert total == 32 + 64 + 16
    assert kept == sum(int(np.count_nonzero(d)) for d in pyr.details)


def test_threshold_everything():
    _, pyr = _sample_pyramid()
    out, kept, _ = threshold_details(pyr, math.inf)
    assert kept == 0
    assert all(np.count_nonzero(d) == 0 for d in out.details)
    assert np.array_equal(out.coarse, pyr.coarse)


def test_threshold_negative_rejected():
    _, pyr = _sample_pyramid()
    with pytest.raises(ParameterError):
        threshold_details(pyr, -1.0)


def test_threshold_nan_rejected():
    # no |d| < nan holds, so a NaN threshold would silently keep every detail
    _, pyr = _sample_pyramid()
    with pytest.raises(ParameterError, match="threshold must be nonnegative, got nan"):
        threshold_details(pyr, math.nan)


# ---------------------------------------------------------------------------
# pyramid container
# ---------------------------------------------------------------------------


def test_pyramid_shape_validation():
    with pytest.raises(ShapeError):
        Pyramid(np.zeros(4), (np.zeros(9),))
    pyr = Pyramid(np.zeros(4), (np.zeros(8), np.zeros(16)))
    assert pyr.levels == 2
    assert pyr.details[-1].size == 16
    # a batch needs the coarse data's leading shape in every detail
    with pytest.raises(ShapeError, match=r"has shape \(3, 8\), expected \(2, 8\)"):
        Pyramid(np.zeros((2, 4)), (np.zeros((3, 8)),))
    assert Pyramid(np.zeros((2, 4)), (np.zeros((2, 8)),)).details[-1].shape[-1] == 8


def test_pyramid_is_immutable():
    pyr = Pyramid(np.zeros(4), (np.zeros(8),))
    with pytest.raises(ValueError):
        pyr.coarse[0] = 1.0


def test_max_even_detail_empty():
    assert Pyramid(np.zeros(4), ()).max_even_detail() == 0.0


# ---------------------------------------------------------------------------
# batches along the last axis
# ---------------------------------------------------------------------------

float_taps = st.lists(
    st.floats(-2, 2, allow_nan=False, allow_infinity=False), min_size=1, max_size=14
)
fraction_taps = st.lists(st.fractions(-4, 4, max_denominator=8), min_size=1, max_size=14)


def _same_as_rows(f, x):
    """``f(x)`` is bit for bit ``f`` of each period of ``x``, stacked."""
    rows = x.reshape(-1, x.shape[-1])
    try:
        want = [f(r) for r in rows]
    except DecimationSingularError:
        with pytest.raises(DecimationSingularError):
            f(x)
        return
    got = f(x)
    if isinstance(got, Pyramid):
        pairs = [(got.coarse, [p.coarse for p in want])]
        pairs += [(d, [p.details[i] for p in want]) for i, d in enumerate(got.details)]
    else:
        pairs = [(got, want)]
    for arr, parts in pairs:
        stacked = np.stack(parts).reshape(x.shape[:-1] + parts[0].shape)
        assert arr.shape == stacked.shape and arr.tobytes() == stacked.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-12, 12),
    st.one_of(float_taps, fraction_taps),
    st.sampled_from([(1,), (3,), (2, 3)]),
    st.integers(1, 3),
    st.integers(2, 5),
    st.integers(0, 2**32 - 1),
)
def test_batched_operators_equal_stacked_rows(offset, coeffs, lead, levels, coarse, seed):
    # up to 14 taps against coarse periods down to 2 wrap several times
    if not any(coeffs):
        return
    m = make_mask(offset, coeffs)
    kernel = Kernel(offset - 3, m.floats[::-1], 1e-9, "test")  # any float mask can serve
    x = np.random.default_rng(seed).uniform(-1, 1, lead + (coarse << levels,))
    _same_as_rows(lambda c: circular_convolve(m, c), x)
    _same_as_rows(lambda c: subdivide(m, c), x)
    for mode, kern in (("exact", None), ("kernel", kernel)):
        _same_as_rows(lambda c: decimate(c, m, mode=mode, kernel=kern), x)
        _same_as_rows(lambda c: decompose(c, m, levels, mode=mode, kernel=kern), x)
        _same_as_rows(lambda c: reconstruct(decompose(c, m, levels, mode=mode, kernel=kern), m), x)
