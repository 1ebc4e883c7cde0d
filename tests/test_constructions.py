"""Family polynomials, expansion machinery, and determinant constants."""

import sys
from fractions import Fraction

import pytest

import catb2.constructions as cons
from catb2 import (
    BiPoly,
    UniPoly,
    UniRatFunc,
    XMY_FORM,
    XPY_FORM,
    X_FORM,
    Y_FORM,
    basis_derivation,
    beta_half,
    clear_caches,
    defining_poly,
    deformed_poly,
    deformed_tail,
    deformed_term,
    falling_factorial,
    ff_poly,
    ff_unipoly,
    ff_unirat,
    halfint_closed,
    halfint_tail,
    halfint_term,
    integral_poly,
    integral_poly_coeff,
    poly_from_coeffs,
    saito_constant,
    saito_constant_integral,
    saito_determinant,
    tail_closed,
    tail_combo,
    telescope_cleared_sides,
)
from catb2.poly import first_remainder

X = BiPoly.var("x")


def _half(n: int) -> Fraction:
    return Fraction(2 * n + 1, 2)


def test_coeff_m_zero_family():
    for i in range(5):
        assert integral_poly_coeff(i, 0, 0) == Fraction(1, 2 * i + 1)


def test_coeff_frozen_values():
    assert integral_poly_coeff(0, 1, 0) == Fraction(-2, 15)
    assert integral_poly_coeff(0, 1, 1) == Fraction(2, 3)
    assert integral_poly_coeff(1, 1, 0) == Fraction(-2, 35)
    assert integral_poly_coeff(1, 1, 1) == Fraction(2, 15)


def test_coeff_rejects_k_outside_range():
    with pytest.raises(ValueError):
        integral_poly_coeff(0, 1, 2)
    with pytest.raises(ValueError):
        integral_poly_coeff(0, 1, -1)


def test_integral_poly_base_cases():
    assert integral_poly(0, 0) == X
    assert integral_poly(1, 0) == X**3 * Fraction(1, 3)
    expected = X**5 * Fraction(-2, 15) + X**3 * BiPoly.var("y") ** 2 * Fraction(2, 3)
    assert integral_poly(0, 1) == expected


def test_coefficient_form_matches_integration():
    for i in range(5):
        for m in range(5):
            assert poly_from_coeffs(i, m) == integral_poly(i, m), (i, m)


def test_deformed_base_cases():
    assert deformed_poly(0, 0) == X
    assert deformed_poly(1, 0) == (X**3 - X) * Fraction(1, 3)


def test_deformed_0_1_assembles_from_builders():
    # p = 2: c[0,1,0] (x+2)_5 + c[0,1,1] (x+1)_3 (y+1)_1 (y-1)_1
    expected = ff_poly("x", 2, 5) * Fraction(-2, 15)
    expected = expected + (
        ff_poly("x", 1, 3) * ff_poly("y", 1, 1) * ff_poly("y", -1, 1) * Fraction(2, 3)
    )
    assert deformed_poly(0, 1) == expected


def test_deformed_top_degree_form_is_the_integral_poly():
    for i in range(5):
        for m in range(5):
            f = deformed_poly(i, m)
            d = 4 * m + 2 * i + 1
            assert f.degree() == d
            assert f.homogeneous_part(d) == poly_from_coeffs(i, m), (i, m)


def test_deformed_term_base():
    assert deformed_term(0, 0, 0) == X * 2


def test_deformed_term_m_zero_collapses():
    # single summand 2/(2i+1) * (x+i)_(2i+1)
    for i in range(5):
        expected = ff_poly("x", i, 2 * i + 1) * Fraction(2, 2 * i + 1)
        assert deformed_term(i, 0, 0) == expected


def test_deformed_term_rejects_u_outside_range():
    with pytest.raises(ValueError):
        deformed_term(0, 1, 2)


def test_deformed_term_sum_is_twice_the_deformation():
    for i in range(5):
        for m in range(5):
            total = BiPoly.zero()
            for u in range(m + 1):
                total = total + deformed_term(i, m, u)
            assert total == deformed_poly(i, m) * 2, (i, m)


def test_deformed_tail_boundaries():
    assert not deformed_tail(3, 2, 3)  # l = m+1 is the empty tail
    assert deformed_tail(0, 0, 0) == X * 2
    assert deformed_tail(0, 1, 1) == deformed_term(0, 1, 1)
    with pytest.raises(ValueError):
        deformed_tail(0, 1, 3)


def test_tail_combo_vanishes_at_top_index():
    assert not tail_combo(1, 0, 1)


def test_tail_combo_requires_positive_i():
    with pytest.raises(ValueError):
        tail_combo(0, 1, 0)


def test_tail_closed_matches_combo_samples():
    assert tail_combo(1, 0, 0) == tail_closed(1, 0, 0)
    assert tail_combo(2, 1, 1) == tail_closed(2, 1, 1)


def test_tail_closed_zero_at_top_index():
    for i in range(4):
        for m in range(4):
            assert not tail_closed(i, m, m + 1)


def test_tail_closed_bottom_index_specialization():
    """At l = 0 the closed form collapses to

    m!/(m+i+1/2)_(m+1) (x+m+i)_(2m+2i+1) (y+m+i)_(m+1) (y-i)_(m+1)
    and, for i >= 1, equals (2i-1)/(2m+2) times expansion summand 0 of
    family (i-1, m+1).
    """
    for i in range(4):
        for m in range(4):
            expected = ff_poly("x", m + i, 2 * m + 2 * i + 1)
            expected = expected * ff_poly("y", m + i, m + 1) * ff_poly("y", -i, m + 1)
            expected = expected * beta_half(0, i, m)
            assert tail_closed(i, m, 0) == expected, (i, m)
            if i >= 1:
                lifted = deformed_term(i - 1, m + 1, 0) * Fraction(2 * i - 1, 2 * m + 2)
                assert tail_closed(i, m, 0) == lifted, (i, m)


def test_telescope_small_cases():
    lhs, rhs = telescope_cleared_sides(0, 0)
    assert lhs == UniPoly.const(1) and rhs == UniPoly.const(1)
    lhs, rhs = telescope_cleared_sides(0, 1)
    assert lhs == rhs == ff_unipoly(0, 2)  # z(z-1)
    lhs, rhs = telescope_cleared_sides(1, 0)
    assert not lhs and not rhs


def test_telescope_cleared_sides_match_rational_oracle():
    """Rebuild both sides as rational functions in z and cross-compare.

    The independent route sums (b+t)_(2t)/(z+t)_(2t+2) term by term with
    generic denominators and uses the unreduced quotient for the right side;
    the cleared polynomials must agree with it after multiplying back by
    (z+b)_(2b+2).
    """
    for a in range(7):
        for b in range(7):
            lhs = UniRatFunc.zero()
            for t in range(a, b + 1):
                term = UniRatFunc(
                    UniPoly.const(falling_factorial(b + t, 2 * t)),
                    ff_unipoly(t, 2 * t + 2),
                )
                lhs = lhs + term
            if a > b:
                rhs = UniRatFunc.zero()
            else:
                denom = ff_unipoly(b, 1) * ff_unipoly(a - 1, 2 * a)
                denom = denom * ff_unipoly(-b - 1, 1)
                rhs = UniRatFunc(UniPoly.const(falling_factorial(b + a, 2 * a)), denom)
            assert lhs == rhs, (a, b)

            cleared_lhs, cleared_rhs = telescope_cleared_sides(a, b)
            big = ff_unipoly(b, 2 * b + 2)
            assert UniRatFunc(cleared_lhs) == lhs * big, (a, b)
            assert UniRatFunc(cleared_rhs) == rhs * big, (a, b)


def test_halfint_term_base():
    assert halfint_term(0, 0, 0, 0) == UniRatFunc(UniPoly.const(-1))


def test_halfint_term_polynomial_case():
    expected = ff_unipoly(_half(0), 2) * falling_factorial(_half(0), 3) * -1
    assert halfint_term(1, 1, 0, 0) == UniRatFunc(expected)


def test_halfint_term_denominator_case():
    # k > m sends (y-3/2)_(-2) to the denominator
    got = halfint_term(0, 0, 1, 0)
    expected = UniRatFunc(
        ff_unipoly(_half(1), 1) * ff_unipoly(-_half(1), 1) * Fraction(-3),
        ff_unipoly(_half(0), 2),
    )
    assert got == expected
    assert got.denom.degree() > 0


def test_halfint_term_rejects_t_above_k():
    with pytest.raises(ValueError):
        halfint_term(0, 0, 1, 2)


def test_halfint_tail_boundaries():
    assert not halfint_tail(2, 1, 3, 4).numer  # l = k+1
    assert halfint_tail(0, 0, 0, 0) == UniRatFunc(UniPoly.const(-1))
    with pytest.raises(ValueError):
        halfint_tail(0, 0, 1, 3)


def test_halfint_tail_m_zero_constant_value():
    # U[i,0,k,0] = -(i+k+1/2)_(2i+1) / (i+1/2), constant in y
    for i in range(4):
        for k in range(4):
            expected = UniPoly.const(
                -falling_factorial(_half(i + k), 2 * i + 1) / _half(i)
            )
            assert halfint_tail(i, 0, k, 0) == UniRatFunc(expected), (i, k)


def _parts(r: UniRatFunc) -> tuple[UniPoly, UniPoly]:
    """The representation, which witnesses print; `==` only compares values."""
    return r.numer, r.denom


def _y_factor(m: int, k: int, t: int) -> UniRatFunc:
    out = ff_unirat(_half(m - k - 1), 2 * m - 2 * k) * ff_unipoly(_half(m + k), k - t)
    return out * ff_unipoly(-_half(m + t + 1), k - t)


def test_halfint_tail_is_the_left_to_right_sum_of_terms():
    for i in range(3):
        for m in range(3):
            for k in range(m + 4):
                clear_caches()
                halfint_tail(i, m, k, (k + 1) // 2)  # fills the shorter tails first
                for l in range(k + 2):
                    acc = UniRatFunc.zero()
                    for t in range(l, k + 1):
                        acc = acc + halfint_term(i, m, k, t)
                    assert _parts(halfint_tail(i, m, k, l)) == _parts(acc), (i, m, k, l)


def test_halfint_term_and_closed_form_scale_the_same_y_factor():
    ff = falling_factorial
    for i in range(3):
        for m in range(3):
            for k in range(m + 4):
                for t in range(k + 1):
                    scalar = -ff(_half(i - 1), 2 * i + m - k) * ff(m + t, m) * ff(k + t, 2 * t)
                    scalar *= ff(_half(i + 2 * m + t), t) * ff(_half(i + m + k), k - t)
                    expected = _y_factor(m, k, t) * scalar
                    assert _parts(halfint_term(i, m, k, t)) == _parts(expected), (i, m, k, t)
                assert not halfint_closed(i, m, k, 0).numer
                assert not halfint_closed(i, m, k, k + 1).numer  # before the y factor
                for l in range(1, k + 1):
                    scalar = ff(m + l, m + 1) / (m + 1) * ff(k + l, 2 * l)
                    scalar *= ff(_half(i - 1), 2 * i + m - k) * ff(_half(i + m + k), k - l)
                    scalar *= ff(_half(i + 2 * m + l), l - 1)
                    slope = _half(i + 3 * m + l + 2)
                    offset = _half(i + m + l) * _half(i + m - k) * _half(i + m + k + 1)
                    brace = UniPoly({2: slope, 0: -i * i * slope + offset})
                    expected = _y_factor(m, k, l) * brace * scalar
                    assert _parts(halfint_closed(i, m, k, l)) == _parts(expected), (i, m, k, l)


def test_clear_caches_drops_the_halfint_y_factor():
    halfint_term(1, 1, 2, 0)
    assert cons._halfint_y_factor.cache_info().currsize > 0
    clear_caches()
    assert cons._halfint_y_factor.cache_info().currsize == 0


def test_halfint_tail_depth_does_not_grow_with_k():
    # A suffix sum that recursed once per summand would need k frames.
    headroom, k = 40, 60
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    clear_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        tail = halfint_tail(0, 0, k, 0)
    finally:
        sys.setrecursionlimit(limit)
    assert tail == halfint_tail(0, 0, k, 1) + halfint_term(0, 0, k, 0)


def test_defining_poly_base():
    assert defining_poly(0) == BiPoly({(3, 1): 1, (1, 3): -1})


def test_defining_poly_degree():
    assert defining_poly(1).degree() == 12
    for m in range(4):
        assert defining_poly(m).degree() == 8 * m + 4


def test_defining_poly_central_factors():
    for m in range(4):
        phi = defining_poly(m)
        for form in (X_FORM, Y_FORM, XPY_FORM, XMY_FORM):
            assert first_remainder(phi, form, 0, 1) is None, (m, form)


def test_saito_constants():
    assert saito_constant(0) == Fraction(-1, 3)
    assert saito_constant(1) == Fraction(4, 105)
    for m in range(5):
        c = saito_constant(m)
        assert c == saito_constant_integral(m)
        assert c != 0


def test_saito_determinant_base_case():
    assert saito_determinant(0) == defining_poly(0) * Fraction(-1, 3)


def test_saito_determinant_degree():
    for m in range(4):
        assert saito_determinant(m).degree() == 8 * m + 4


def test_basis_derivation_components():
    for i in (0, 1):
        for m in range(3):
            f, g = basis_derivation(i, m)
            assert f == deformed_poly(i, m)
            assert g == f.swap()


def test_basis_derivation_euler_case():
    assert basis_derivation(0, 0) == (X, BiPoly.var("y"))
