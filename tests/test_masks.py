"""Mask catalog tests: B-splines, pseudo-splines, exact binomials."""

from fractions import Fraction as F

import pytest

from evenrev import (
    ParameterError,
    bspline_mask,
    catalog,
    dd_mask,
    delta,
    even_part,
    generalized_binomial,
    is_interpolatory,
    make_mask,
    odd_part,
    pseudo_spline_mask,
)
from evenrev.inverse import min_even_symbol


def test_bspline_order3():
    assert bspline_mask(3) == make_mask(-1, [F(1, 4), F(3, 4), F(3, 4), F(1, 4)])


def test_bspline_order4():
    assert bspline_mask(4) == make_mask(-2, [F(1, 8), F(4, 8), F(6, 8), F(4, 8), F(1, 8)])


def test_bspline_order1_is_interpolatory():
    m = bspline_mask(1)
    assert m == make_mask(0, [F(1), F(1)])
    assert is_interpolatory(m)


def test_bspline_rejects_order_zero():
    with pytest.raises(ParameterError):
        bspline_mask(0)


def test_bspline_symmetry_and_sum():
    for order in range(1, 9):
        m = bspline_mask(order)
        assert m.sum() == 2
        assert tuple(reversed(m.coeffs)) == m.coeffs


def test_pseudo_spline_dd4():
    m = pseudo_spline_mask(4, 1)
    assert m == make_mask(
        -3, [F(-1, 16), 0, F(9, 16), F(16, 16), F(9, 16), 0, F(-1, 16)]
    )
    assert dd_mask(2) == m


def test_pseudo_spline_nu0_is_bspline():
    for n in range(2, 9):
        assert pseudo_spline_mask(n, 0) == bspline_mask(n)


def test_pseudo_spline_dual_binomial():
    # the first correction coefficient for order 5 is C(5/2, 1) = 5/2
    assert generalized_binomial(F(5, 2), 1) == F(5, 2)
    m = pseudo_spline_mask(5, 1)
    assert m.is_rational
    assert m.support == range(-3, 5)  # support [-floor(n/2)-nu, ceil(n/2)+nu]


def test_pseudo_spline_support():
    for n, nu in [(4, 1), (6, 1), (6, 2), (7, 2), (8, 3)]:
        m = pseudo_spline_mask(n, nu)
        assert m.support == range(-(n // 2) - nu, (n + 1) // 2 + nu + 1)


def test_pseudo_spline_interpolatory_family():
    for k in range(1, 7):
        m = pseudo_spline_mask(2 * k, k - 1)
        assert even_part(m) == delta(F(1))
        assert is_interpolatory(m)


def test_pseudo_spline_symbol_at_plus_minus_one():
    for name, m in catalog().items():
        assert m.sum() == 2, name
        assert m.symbol(-1.0) == 0.0 or abs(m.symbol(-1.0)) < 1e-15, name


def test_pseudo_spline_param_validation():
    with pytest.raises(ParameterError):
        pseudo_spline_mask(1, 0)  # admissible range empty for order 1
    with pytest.raises(ParameterError):
        pseudo_spline_mask(4, 2)
    with pytest.raises(ParameterError):
        pseudo_spline_mask(6, -1)
    with pytest.raises(ParameterError):
        min_even_symbol(6, -1)  # the closed form checks the pair as the mask does
    pseudo_spline_mask(6, 2)  # boundary value is fine
    min_even_symbol(6, 2)


def test_is_interpolatory_examples():
    assert is_interpolatory(pseudo_spline_mask(4, 1))
    assert not is_interpolatory(bspline_mask(3))
    assert is_interpolatory(delta(1))
    # float masks use the tolerance path
    floaty = pseudo_spline_mask(6, 2).astype_float()
    assert is_interpolatory(floaty)


def test_is_interpolatory_with_zero_tol_asks_for_the_exact_unit_impulse():
    near = make_mask(-2, [1e-13, 0.5, 1.0 + 1e-13, 0.5])  # even part 1e-13/z + 1 + 1e-13
    assert is_interpolatory(near) and not is_interpolatory(near, tol=0.0)
    exact = pseudo_spline_mask(6, 2)
    for m in (make_mask(0, [1.0, 0.5]), exact, exact.astype_float()):
        assert is_interpolatory(m, tol=0.0)
    for m in (bspline_mask(3), make_mask(2, [1.0]), make_mask(1, [0.5]), make_mask(0, [-1.0])):
        assert not is_interpolatory(m, tol=0.0) and not is_interpolatory(m, tol=0.5)


def test_normalization_check():
    # the sum rules: even and odd coefficients each sum to exactly 1
    for name, m in catalog().items():
        assert (even_part(m).sum(), odd_part(m).sum()) == (1, 1), name
    assert even_part(make_mask(0, [2])).sum() == 2


def test_generalized_binomial_pascal_identity():
    # C(t+1, j) = C(t, j) + C(t, j-1) also for half-integer t
    for twice_t in range(1, 12):
        t = F(twice_t, 2)
        for j in range(1, 6):
            lhs = generalized_binomial(t + 1, j)
            rhs = generalized_binomial(t, j) + generalized_binomial(t, j - 1)
            assert lhs == rhs


def test_primal_minimum_formulas_agree():
    # 2^(1-k) sum_j C(k-1+j, j) 2^-j  ==  2^(1-k-nu) sum_j C(k+nu, j)
    for k in range(2, 7):
        for nu in range(k):
            direct = F(2) ** (1 - k) * sum(
                generalized_binomial(k - 1 + j, j) * F(1, 2 ** j) for j in range(nu + 1)
            )
            assert float(direct) == float(min_even_symbol(2 * k, nu))


def test_catalog_contents():
    names = catalog()
    assert "bspline3" in names and "pseudo4_1" in names
    assert all(m.is_rational for m in names.values())
