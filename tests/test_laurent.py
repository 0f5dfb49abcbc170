"""Mask algebra and periodic-signal operator tests."""

import cmath
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from evenrev import (
    LengthError,
    ParameterError,
    Pyramid,
    circular_convolve,
    convolve,
    delta,
    difference,
    downsample,
    even_part,
    make_mask,
    min_modulus_on_circle,
    norm_l1,
    norm_linf,
    odd_part,
    reconstruct,
    subdivide,
    sup_norm_on_circle,
    upsample,
    upsample_mask,
)
from evenrev.laurent import (
    Mask,
    _geometry,
    _polyphase,
    abs_moment,
    symbol_on_circle,
    unit_circle,
)
from evenrev.masks import bspline_mask


def brute_subdivide(mask, c):
    """Direct evaluation of (S c)_k = sum_l m_{k-2l} c_l on the 2N ring."""
    n = len(c)
    out = np.zeros(2 * n)
    for k in range(2 * n):
        acc = 0.0
        for i, w in enumerate(mask.coeffs):
            exp = mask.offset + i  # w multiplies c_l with k - 2l = exp
            if (k - exp) % 2 == 0:
                acc += float(w) * c[((k - exp) // 2) % n]
        out[k] = acc
    return out


def naive_subdivide(mask, c):
    """Reference upscaling: scatter each tap onto its stride-2 grid mod 2N."""
    c = np.asarray(c, dtype=float)
    n = c.size
    out = np.zeros(2 * n)
    base = 2 * np.arange(n)
    for i, w in enumerate(mask.coeffs):
        w = float(w)
        if w:
            out[(base + mask.offset + i) % (2 * n)] += w * c
    return out


def direct_circle_sum(mask, n):
    """``sum_k m_k exp(-2*pi*i*j*k/n)`` for ``j < n``, one term at a time."""
    out = np.zeros(n, dtype=complex)
    for j in range(n):
        for i, w in enumerate(mask.coeffs):
            phase = (j * (mask.offset + i)) % n  # exact integer reduction of the angle
            out[j] += float(w) * cmath.exp(-2j * cmath.pi * phase / n)
    return out


def take_periodic_convolve(offset, w, c):
    """The periodic convolution with rows wrapped by ``take(..., mode="wrap")``, each
    row by itself."""
    if not w.size:
        return np.zeros(c.shape)
    n = c.shape[-1]
    start = (-offset - w.size + 1) % n
    wrapped = c.take(np.arange(start, start + n + w.size - 1), axis=-1, mode="wrap")
    full = np.correlate(wrapped.ravel(), w[::-1], "valid")
    return np.ndarray(c.shape, full.dtype, full, 0, wrapped.strides)


def direct_convolve(mask, c):
    """``out_k = sum_i m_i c_{k-o-i mod N}`` along the last axis, one term at a time from
    0.0, every index reduced by Python's ``%``: the definition, with no wrapped copy."""
    n = c.shape[-1]
    out = np.zeros(c.shape)
    for row in np.ndindex(c.shape[:-1]):
        for k in range(n):
            acc = 0.0
            for i, w in enumerate(mask.coeffs):
                acc += float(w) * c[row + ((k - mask.offset - i) % n,)]
            out[row + (k,)] = acc
    return out


def naive_circular_convolve(mask, c):
    """Reference periodic convolution: one ``np.roll`` per tap."""
    c = np.asarray(c, dtype=float)
    out = np.zeros(c.size)
    for i, w in enumerate(mask.coeffs):
        w = float(w)
        if w:
            out += w * np.roll(c, mask.offset + i)
    return out


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_make_mask_quadratic_spline():
    m = make_mask(-1, [F(1, 4), F(3, 4), F(3, 4), F(1, 4)])
    assert m.offset == -1
    assert m.coeffs == (F(1, 4), F(3, 4), F(3, 4), F(1, 4))
    # symbol z^{-1} (1+z)^3 / 4
    z = 0.3 + 0.7j
    assert abs(m.symbol(z) - (1 + z) ** 3 / (4 * z)) < 1e-14


def test_make_mask_identity():
    assert make_mask(0, [1]) == delta(1)
    assert delta(1).symbol(0.5 + 0.1j) == 1.0


def test_make_mask_trims():
    m = make_mask(-2, [0, 1, 0])
    assert m.offset == -1
    assert m.coeffs == (1,)


def test_make_mask_zero_input():
    m = make_mask(3, [0, 0])
    assert m.is_zero
    assert m.coeffs == ()
    with pytest.raises(ParameterError):
        make_mask(0, [])


def test_mask_coeff_lookup_and_support():
    m = make_mask(2, [5, 0, 7])
    assert m.support == range(2, 5)
    assert m.coeff(2) == 5 and m.coeff(3) == 0 and m.coeff(4) == 7
    assert m.coeff(1) == 0 and m.coeff(5) == 0
    assert m.bandwidth == 4


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def test_convolve_binomial_square():
    one_z = make_mask(0, [1, 1])
    assert convolve(one_z, one_z) == make_mask(0, [1, 2, 1])


def test_convolve_quadratic_even_square():
    ev = make_mask(0, [F(3, 4), F(1, 4)])
    sq = convolve(ev, ev)
    assert sq == make_mask(0, [F(9, 16), F(6, 16), F(1, 16)])


def test_convolve_identity():
    m = make_mask(-2, [F(1, 3), 2, F(5, 7)])
    assert convolve(delta(1), m) == m
    assert convolve(m, delta(1)) == m


def test_convolve_exactness_preserved():
    a = make_mask(0, [F(1, 3), F(2, 3)])
    b = make_mask(-1, [F(3, 5), F(1, 5)])
    assert convolve(a, b).is_rational


# ---------------------------------------------------------------------------
# even / odd split
# ---------------------------------------------------------------------------


def test_even_part_quadratic():
    assert even_part(bspline_mask(3)) == make_mask(0, [F(3, 4), F(1, 4)])


def test_even_part_cubic():
    assert even_part(bspline_mask(4)) == make_mask(-1, [F(1, 8), F(6, 8), F(1, 8)])


def test_even_odd_delta():
    assert even_part(delta(1)) == delta(1)
    assert odd_part(delta(1)).is_zero


def test_recombination_identity():
    # m(z) = ev(z^2) + z * od(z^2), coefficientwise
    for m in (bspline_mask(3), bspline_mask(4), make_mask(-3, [1, -2, 0, 5, 7, 1])):
        rebuilt = upsample_mask(even_part(m)) + upsample_mask(odd_part(m)).shift(1)
        assert rebuilt == m


# ---------------------------------------------------------------------------
# sampling operators
# ---------------------------------------------------------------------------


def test_upsample():
    assert np.array_equal(upsample([1.0, 2.0]), [1.0, 0.0, 2.0, 0.0])


def test_downsample():
    assert np.array_equal(downsample([1.0, 2.0, 3.0, 4.0]), [1.0, 3.0])
    with pytest.raises(LengthError):
        downsample([1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [np.float64(1.0), [], np.zeros((3, 0)), np.zeros((0, 4))])
def test_signal_needs_a_nonempty_last_axis(bad):
    for op in (upsample, difference, lambda c: subdivide(bspline_mask(3), c)):
        with pytest.raises(LengthError, match="nonempty array with its period along the last axis"):
            op(bad)


def test_sampling_operators_work_along_the_last_axis():
    c = np.arange(12.0).reshape(2, 3, 2)
    assert np.array_equal(downsample(upsample(c)), c)
    assert np.array_equal(downsample(c), c[..., ::2])
    rows = np.stack([difference(r) for r in c.reshape(-1, 2)])
    assert np.array_equal(difference(c), rows.reshape(c.shape))


def test_down_up_roundtrip():
    c = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(downsample(upsample(c)), c)


# ---------------------------------------------------------------------------
# circular convolution and subdivision
# ---------------------------------------------------------------------------


def test_circular_convolve_delta():
    c = np.array([4.0, -1.0, 2.5, 0.0])
    assert np.array_equal(circular_convolve(delta(1), c), c)


def test_circular_convolve_constant():
    m = bspline_mask(3)  # coefficient sum 2
    out = circular_convolve(m, np.ones(6))
    assert np.allclose(out, 2.0, atol=1e-15)


def test_circular_convolve_impulse():
    # (m * c)_k = sum_l m_l c_{k-l}: an impulse reproduces the coefficients
    # at their own indices (mod N).
    m = make_mask(0, [F(3, 4), F(1, 4)])
    out = circular_convolve(m, [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(out, [0.75, 0.25, 0.0, 0.0], atol=1e-15)


def test_circular_convolve_negative_offset_wraps():
    m = make_mask(-1, [1.0])  # symbol 1/z
    out = circular_convolve(m, [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(out, [0.0, 0.0, 0.0, 1.0], atol=0)


def test_subdivide_constant_preserved():
    out = subdivide(bspline_mask(3), np.ones(4))
    assert np.allclose(out, 1.0, atol=1e-15)
    assert out.size == 8


def test_subdivide_normalized_masks_preserve_constants():
    from evenrev.masks import catalog

    for name, mask in catalog().items():
        out = subdivide(mask, np.ones(8))
        assert np.max(np.abs(out - 1.0)) < 1e-14, name


def test_subdivide_impulse_quadratic():
    c = np.array([1.0, 0.0, 0.0, 0.0])
    expected = brute_subdivide(bspline_mask(3), c)
    got = subdivide(bspline_mask(3), c)
    assert np.allclose(got, expected, atol=0)
    # mask coefficients land at their own indices on the double-length ring
    assert np.allclose(got, [0.75, 0.75, 0.25, 0.0, 0.0, 0.0, 0.0, 0.25], atol=1e-15)


def test_subdivide_interpolatory_keeps_evens():
    from evenrev.masks import dd_mask

    rng = np.random.default_rng(3)
    c = rng.uniform(-1, 1, 8)
    out = subdivide(dd_mask(2), c)
    assert np.allclose(out[::2], c, atol=1e-15)


def test_subdivide_matches_convolve_upsample():
    rng = np.random.default_rng(11)
    for mask in (bspline_mask(3), bspline_mask(4), make_mask(-3, [0.3, -1.2, 2.0, 0.7])):
        c = rng.uniform(-5, 5, 16)
        a = subdivide(mask, c)
        b = naive_circular_convolve(mask, upsample(c))
        assert np.max(np.abs(a - b)) < 1e-13


# ---------------------------------------------------------------------------
# difference operator
# ---------------------------------------------------------------------------


def test_difference_constant():
    assert np.allclose(difference(np.full(5, 3.7)), 0.0, atol=0)


def test_difference_wraparound():
    assert np.array_equal(difference([0.0, 1.0, 2.0, 3.0]), [1.0, 1.0, 1.0, -3.0])


@settings(max_examples=150, deadline=None)
@given(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9)),
    st.booleans(),
)
@example(np.array([2.5]), False)  # a one-sample period differences to zero
@example(np.array([[np.inf], [-1.0], [np.nan]]), False)
@example(np.array([[1e308, -1e308, 3.0, np.inf]]), True)
def test_difference_is_the_rolled_subtraction_bit_for_bit(c, strided):
    # every element of every (..., N) row, overflow, inf and NaN included
    if strided:
        c = np.repeat(c, 2, axis=-1)[..., ::2]
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.roll(c, -1, axis=-1) - c
        got = difference(c)
    assert got.shape == c.shape
    assert got.tobytes() == expected.tobytes()


def test_difference_commutes_with_convolution():
    rng = np.random.default_rng(5)
    for _ in range(20):
        mask = make_mask(int(rng.integers(-3, 3)), rng.uniform(-2, 2, 5).tolist())
        c = rng.uniform(-3, 3, 12)
        lhs = difference(circular_convolve(mask, c))
        rhs = circular_convolve(mask, difference(c))
        assert np.max(np.abs(lhs - rhs)) < 1e-13


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_circle_norms_quadratic_even():
    ev = even_part(bspline_mask(3))
    assert abs(sup_norm_on_circle(ev) - 1.0) < 1e-12
    assert abs(min_modulus_on_circle(ev) - 0.5) < 1e-12


def test_circle_norms_cubic_even():
    ev = even_part(bspline_mask(4))
    assert abs(sup_norm_on_circle(ev) - 1.0) < 1e-12
    assert abs(min_modulus_on_circle(ev) - 0.5) < 1e-12


def test_circle_norms_delta():
    assert sup_norm_on_circle(delta(1)) == 1.0
    assert min_modulus_on_circle(delta(1)) == 1.0


def test_circle_norms_validation():
    # no grid is asked for, so none is refused: a mask of more than 4096 coefficients
    # is sampled at four points a coefficient, not aliased onto 16384 points
    m = make_mask(-2050, np.random.default_rng(9).uniform(-1, 1, 4100).tolist())
    mods = {n: np.abs(m.symbol(unit_circle(n))) for n in (16384, 16400)}
    assert sup_norm_on_circle(m) == pytest.approx(np.max(mods[16400]), rel=1e-9)
    assert min_modulus_on_circle(m) == pytest.approx(np.min(mods[16400]), abs=1e-10)
    assert sup_norm_on_circle(m) != pytest.approx(np.max(mods[16384]), rel=1e-9)


def test_circle_norm_monotone_in_samples():
    # each grid holds the coarser ones, so its max can only grow and its min only fall
    m = make_mask(-2, [0.3, -1.0, 2.0, 0.5, -0.2])
    mods = [np.abs(symbol_on_circle(m, s)) for s in (32, 64, 128, 256, 16384)]
    sups, mins = [float(np.max(x)) for x in mods], [float(np.min(x)) for x in mods]
    assert all(a <= b + 1e-15 for a, b in zip(sups, sups[1:]))
    assert all(a >= b - 1e-15 for a, b in zip(mins, mins[1:]))
    assert (sups[-1], mins[-1]) == (sup_norm_on_circle(m), min_modulus_on_circle(m))


def test_sequence_norms():
    assert norm_l1(delta(1)) == 1.0
    assert norm_linf(delta(1)) == 1.0
    m = make_mask(-1, [3.0, -4.0, 0.5])
    assert norm_l1(m) == 7.5
    assert norm_linf(m) == 4.0
    assert abs_moment(m) == 3.0 * 1 + 0.0 + 0.5 * 1


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

small_coeffs = st.lists(st.integers(-4, 4), min_size=1, max_size=6)
offsets = st.integers(-5, 5)


@settings(max_examples=60, deadline=None)
@given(offsets, small_coeffs, offsets, small_coeffs)
def test_symbol_homomorphism(o1, c1, o2, c2):
    if not any(c1) or not any(c2):
        return
    a = make_mask(o1, c1)
    b = make_mask(o2, c2)
    prod = convolve(a, b)
    z = unit_circle(64) * np.exp(0.13j)  # 64 points off the sampling lattice
    lhs = prod.symbol(z)
    rhs = a.symbol(z) * b.symbol(z)
    scale = 1.0 + np.abs(rhs)
    assert np.max(np.abs(lhs - rhs) / scale) < 1e-12


@settings(max_examples=60, deadline=None)
@given(offsets, small_coeffs)
def test_recombination_property(offset, coeffs):
    if not any(coeffs):
        return
    m = make_mask(offset, coeffs)
    rebuilt = upsample_mask(even_part(m)) + upsample_mask(odd_part(m)).shift(1)
    assert rebuilt == m


@settings(max_examples=60, deadline=None)
@given(
    offsets,
    st.lists(st.floats(-2, 2, allow_nan=False, allow_infinity=False), min_size=1, max_size=5),
    st.lists(st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=2, max_size=24),
)
def test_convolution_norm_bound(offset, coeffs, signal):
    if not any(coeffs):
        return
    m = make_mask(offset, coeffs)
    c = np.asarray(signal)
    out = circular_convolve(m, c)
    assert np.max(np.abs(out)) <= norm_l1(m) * np.max(np.abs(c)) + 1e-12


float_taps = st.lists(
    st.floats(-2, 2, allow_nan=False, allow_infinity=False), min_size=1, max_size=14
)
fraction_taps = st.lists(st.fractions(-4, 4, max_denominator=8), min_size=1, max_size=14)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-12, 12),
    st.one_of(float_taps, fraction_taps),
    st.lists(st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=1, max_size=20),
)
@example(0, [F(1), *[F(0)] * 9, F(5, 2), F(1)], [5e-324])  # 5/2 * 5e-324 underflows
def test_periodic_operators_match_references(offset, coeffs, signal):
    # supports of up to 14 taps against periods down to 1 wrap several times
    if not any(coeffs):
        return
    m = make_mask(offset, coeffs)
    c = np.asarray(signal)
    # Each output sums at most one product per tap, and a product can underflow
    # by half the smallest subnormal (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., sections 2.1 and 3.1), on this side and on the
    # reference's: an absolute term keeps the bound above 0 on subnormal signals.
    tol = 1e-13 * np.max(np.abs(c)) + len(coeffs) * np.finfo(float).smallest_subnormal
    sub = subdivide(m, c)
    assert np.max(np.abs(sub - naive_subdivide(m, c))) <= tol
    assert np.max(np.abs(sub - brute_subdivide(m, c))) <= tol
    assert np.max(np.abs(circular_convolve(m, c) - naive_circular_convolve(m, c))) <= tol


# subnormal taps lose relative precision in any product, so the relative
# bound below would measure float underflow rather than the primitive
normal_float_taps = st.lists(
    st.floats(-2, 2, allow_nan=False, allow_infinity=False, allow_subnormal=False),
    min_size=1,
    max_size=14,
)


@settings(max_examples=200, deadline=None)
@given(st.integers(-12, 12), st.one_of(normal_float_taps, fraction_taps), st.integers(1, 64))
def test_symbol_on_circle_matches_direct_sum(offset, coeffs, n):
    # supports of up to 14 taps at offsets up to 12 exceed the small grids
    if not any(coeffs):
        return
    m = make_mask(offset, coeffs)
    expected = direct_circle_sum(m, n)
    tol = 1e-13 * norm_l1(m)
    full = symbol_on_circle(m, n)
    half = symbol_on_circle(m, n, half=True)
    assert full.shape == (n,) and half.shape == (n // 2 + 1,)
    assert np.max(np.abs(full - expected)) <= tol
    assert np.max(np.abs(half - expected[: n // 2 + 1])) <= tol


def test_symbol_on_circle_zero_mask_and_unit_circle_points():
    assert np.array_equal(symbol_on_circle(Mask(0, ()), 8), np.zeros(8))
    z = unit_circle(16)
    assert np.max(np.abs(symbol_on_circle(make_mask(1, [1.0]), 16) - z)) < 1e-15


def sequential_abs_moment(m):
    """``sum_k |m_k| |k|``, one term at a time from the lowest power, as plain floats."""
    total = 0.0
    for i, c in enumerate(m.coeffs):
        total += abs(float(c)) * abs(m.offset + i)
    return total


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.integers(-40, 40), st.integers(-(2**70), 2**70)),
    st.one_of(float_taps, fraction_taps, st.lists(st.floats(-1e300, 1e300), max_size=40)),
)
@example(0, [])  # the zero mask
@example(-7, [F(1, 3), F(-2, 7), 0, F(5, 11)])  # rationals, an interior zero, a negative offset
@example(-(2**53) + 2, [0.1] * 5)  # positions on both sides of the exact-float limit
@example(2**53 - 3, [0.1] * 5)
@example(10**30, [1.0, 0.5, 0.25])
def test_abs_moment_adds_from_the_left(offset, coeffs):
    # a loop, not sum(): from Python 3.12 on sum() compensates its rounding
    m = Mask(offset, tuple(coeffs))
    got = abs_moment(m)
    assert type(got) is float
    assert repr(got) == repr(sequential_abs_moment(m))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False, allow_infinity=False), min_size=2, max_size=16))
def test_down_up_roundtrip_property(values):
    c = np.asarray(values)
    assert np.array_equal(downsample(upsample(c)), c)


def test_mask_is_hashable_and_immutable():
    m = make_mask(0, [F(1, 2), F(1, 2)])
    assert hash(m) == hash(make_mask(0, [F(1, 2), F(1, 2)]))
    with pytest.raises(AttributeError):
        m.offset = 3


@pytest.mark.parametrize("periods", [3, -(10**30), 10**30 + 1])
def test_offsets_fold_modulo_the_period(periods):
    # A shift by a multiple of the period is invisible on periodic signals,
    # and numpy never sees the unreduced offset, however large it is.
    rng = np.random.default_rng(17)
    c = rng.uniform(-1, 1, 6)
    n = c.size
    for taps in (5, 15):  # supports shorter and longer than the period
        m = make_mask(-2, rng.uniform(-1, 1, taps).tolist())
        far = m.shift(n * periods)
        assert circular_convolve(far, c).tobytes() == circular_convolve(m, c).tobytes()
        for half in (False, True):
            assert symbol_on_circle(far, n, half).tobytes() == symbol_on_circle(m, n, half).tobytes()
        # an even shift of 2*n*k moves both polyphase parts by n*k
        far = m.shift(2 * n * periods)
        assert subdivide(far, c).tobytes() == subdivide(m, c).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.integers(-40, 40), st.sampled_from([10**30, -(10**30), 10**30 + 1, -(10**30) - 7])),
    st.lists(st.floats(-2, 2, allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
    st.sampled_from([(), (1,), (3,), (2, 2)]),
    st.integers(1, 12),
    st.booleans(),
)
@example(0, [0.5], (), 1, False)  # period 1
@example(-3, [0.5] * 7, (4,), 1, False)  # six whole periods of a 1-sample row
@example(10**30, [0.25] * 11, (3,), 3, True)  # whole periods at a far offset, strided rows
@example(-(10**30), [0.5] * 13, (2, 2), 4, False)
@example(0, [5e-324, 0.0, 2.0], (2,), 3, False)  # subnormal taps, an empty odd part
def test_slice_wrap_equals_the_take_oracle(offset, taps, lead, n, strided):
    # supports up to 40 taps against periods down to 1 wrap many whole periods, for
    # the mask alone and for its two polyphase parts read from one wrapped row
    rng = np.random.default_rng(len(taps) * 100 + n)
    c = rng.uniform(-1, 1, lead + (2 * n,))[..., ::2] if strided else rng.uniform(-1, 1, lead + (n,))
    m = Mask(offset, tuple(taps))
    for parts in ([m], m.polyphase):
        got = _polyphase(_geometry(*parts), c)
        assert len(got) == len(parts)
        for part, out in zip(parts, got):
            assert out.shape == c.shape
            assert out.tobytes() == take_periodic_convolve(part.offset, part.floats, c).tobytes()


# ---------------------------------------------------------------------------
# the polyphase primitive against the definitions
# ---------------------------------------------------------------------------


def _parity_masks(offset, taps):
    """The mask of ``taps`` at ``offset``, and its restrictions to even and to odd indices."""
    keep = lambda parity: [w if (offset + i) % 2 == parity else 0.0 for i, w in enumerate(taps)]
    return [Mask(offset, tuple(t)) for t in (taps, keep(0), keep(1))]


# far offsets reach the period only through Python's modulo; 13 taps exceed every period
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_polyphase_matches_the_direct_sum(n):
    rng = np.random.default_rng(n)
    c = rng.uniform(-1, 1, (2, 3, n))
    c[rng.uniform(size=c.shape) < 0.3] = -0.0
    for offset in (0, -1, 4, 37, -41, 10**30 + 1, -(10**30) - 3):
        for size in (1, 2, 5, 13):
            taps = rng.uniform(-2, 2, size).tolist()
            for m in _parity_masks(offset, taps):  # whole, empty odd part, empty even part
                tol = 1e-13 * max(norm_l1(m), 1.0)
                sub, conv = subdivide(m, c), circular_convolve(m, c)
                for row in np.ndindex(c.shape[:-1]):  # a batch's rows are their 1-D calls
                    assert sub[row].tobytes() == subdivide(m, c[row]).tobytes()
                    assert conv[row].tobytes() == circular_convolve(m, c[row]).tobytes()
                    assert np.max(np.abs(sub[row] - brute_subdivide(m, c[row]))) <= tol
                assert np.max(np.abs(conv - direct_convolve(m, c))) <= tol


@pytest.mark.parametrize("n", [1, 2, 7])
def test_negative_zeros_give_the_direct_sums_positive_zeros(n):
    # every product of -0.0 is a zero, and a sum from 0.0 of zeros is +0.0
    c = np.full((2, 3, n), -0.0)
    for m in (delta(1.0), Mask(-2, (0.5, -0.25, 1.0)), Mask(3, (1.0,) * 13), Mask(1, (2.0,))):
        assert subdivide(m, c).tobytes() == np.zeros((2, 3, 2 * n)).tobytes()
        assert circular_convolve(m, c).tobytes() == direct_convolve(m, c).tobytes()


def subdivide_then_add(p, alpha):
    """Synthesis as ``subdivide`` followed by ``+=`` into the slots each level covers."""
    c = p.coarse
    for d in p.stored:
        c = subdivide(alpha, c)
        slots = c if d.shape[-1] == c.shape[-1] else c[..., 1::2]
        slots += d
    return c


def direct_synthesis(p, alpha):
    """Synthesis by the direct sums of ``brute_subdivide``, row by row, sharing no code with
    ``reconstruct``: each level's details are added to the slots they cover."""
    c = p.coarse
    for d in p.stored:
        rows = [brute_subdivide(alpha, row) for row in c.reshape(-1, c.shape[-1])]
        c = np.reshape(rows, c.shape[:-1] + (2 * c.shape[-1],))
        slots = c if d.shape[-1] == c.shape[-1] else c[..., 1::2]
        slots += d
    return c


@pytest.mark.parametrize("lead", [(), (2, 3)])
def test_reconstruct_adds_the_details_as_subdivide_then_add_would(lead):
    rng = np.random.default_rng(len(lead))
    coarse = rng.uniform(-1, 1, lead + (4,))
    coarse[..., 0] = -0.0
    stored = []
    for level, full in enumerate([False, True, False, True], start=1):  # odd halves and full levels
        d = rng.uniform(-1, 1, lead + (4 << level if full else 2 << level,))
        d[rng.uniform(size=d.shape) < 0.3] = -0.0
        stored.append(d)
    p = Pyramid._of(coarse, stored, "test")
    masks = (bspline_mask(4), bspline_mask(3), delta(1.0), Mask(1, (0.5,)), Mask(-3, (0.25,) * 13))
    for alpha in masks:  # whole, an empty odd part, an empty even part, longer than a period
        got, direct = reconstruct(p, alpha), direct_synthesis(p, alpha)
        assert got.tobytes() == subdivide_then_add(p, alpha).tobytes()
        assert np.max(np.abs(got - direct)) <= 1e-13 * max(1.0, np.max(np.abs(direct)))
