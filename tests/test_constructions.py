"""Family polynomials, expansion machinery, and determinant constants."""

import io
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import catb2.constructions as cons
from catb2 import checks, cli, poly, rational
from catb2.checks import CHECK_NAMES
from catb2.constructions import (
    basis_derivation,
    defining_poly,
    deformed_poly,
    deformed_tail,
    deformed_term,
    even_moment,
    halfint_closed,
    halfint_combo,
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
from catb2.poly import (
    X_FORM,
    XMY_FORM,
    XPY_FORM,
    BiPoly,
    UniPoly,
    UniRatFunc,
    ff_poly,
    ff_unipoly,
    ff_unirat,
    first_remainder,
    recurrence_sum,
)
from catb2.rational import beta_half, clear_caches, falling_factorial, falling_factorial_pair
from oracles import homogeneous_part

X = BiPoly.monomial(1, 1, 0)
Y = BiPoly.monomial(1, 0, 1)


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
    assert integral_poly(1, 0) == BiPoly.monomial(Fraction(1, 3), 3, 0)
    expected = BiPoly.monomial(Fraction(-2, 15), 5, 0) + BiPoly.monomial(Fraction(2, 3), 3, 2)
    assert integral_poly(0, 1) == expected


def test_coefficient_form_matches_integration():
    for i in range(5):
        for m in range(5):
            assert poly_from_coeffs(i, m) == integral_poly(i, m), (i, m)


def test_deformed_base_cases():
    assert deformed_poly(0, 0) == X
    assert deformed_poly(1, 0) == (X * X * X - X) * Fraction(1, 3)


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
            assert homogeneous_part(f, d) == poly_from_coeffs(i, m), (i, m)


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
            total = BiPoly()
            for u in range(m + 1):
                total = total + deformed_term(i, m, u)
            assert total == deformed_poly(i, m) * 2, (i, m)


def test_deformed_tail_boundaries():
    tails = deformed_tail(3, 2)
    assert len(tails) == 4 and not tails[3]  # l = 0..m+1; l = m+1 is the empty tail
    assert deformed_tail(0, 0) == (X * 2, BiPoly())
    assert deformed_tail(0, 1)[1] == deformed_term(0, 1, 1)
    # a bare tuple index would read l = -1 as the empty tail
    for l in (-1, 3):
        with pytest.raises(ValueError, match="l must satisfy"):
            tail_combo(1, 1, l)


def test_tail_combo_vanishes_at_top_index():
    assert not tail_combo(1, 0, 1)


def test_tail_combo_requires_positive_i():
    with pytest.raises(ValueError):
        tail_combo(0, 1, 0)


# Small operands over assorted denominators; an empty dict is the zero polynomial.
_coefs = st.fractions(min_value=-60, max_value=60, max_denominator=12)
_unipolys = st.dictionaries(st.integers(0, 4), _coefs, max_size=4).map(UniPoly)
_bipolys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), _coefs, max_size=4).map(
    BiPoly
)
_nonzero_unipolys = _unipolys.filter(bool)


@given(
    st.sampled_from([_unipolys, _bipolys]).flatmap(lambda polys: st.tuples(*[polys] * 4)),
    st.fractions(min_value=-9, max_value=9, max_denominator=10),
    st.booleans(),
)
def test_recurrence_sum_is_the_operator_chain_on_polynomials(polys, s, cancel):
    a, b, quad, c = polys
    if cancel:  # b*quad = 2a - s*c, so every term cancels
        b, quad = a * 2 - c * s, type(a).const(1)
    expected = a * -2 + b * quad + c * s
    got = recurrence_sum(a, b * quad, c, s)
    assert type(got) is type(a)
    assert got == expected  # polynomial equality compares (num, den)
    assert not cancel or not got


def _combo_of(values: tuple, i: int, m: int, quad: UniPoly) -> UniRatFunc:
    """`recurrence_combo` over X[i+1,m], X[i,m], X[i-1,m+1] = values."""
    table = dict(zip([(i + 1, m), (i, m), (i - 1, m + 1)], values))
    return cons.recurrence_combo(lambda a, b: table[a, b], i, m, quad)


def _chain(values: tuple, i: int, m: int, quad: UniPoly) -> UniRatFunc:
    a, b, c = values
    return a * -2 + b * quad + c * Fraction(1 - 2 * i, 2 * m + 2)


def _same_rat(got: UniRatFunc, expected: UniRatFunc) -> bool:
    """The same representation, not just the same value (`==` on UniRatFunc)."""
    return (got.numer, got.denom) == (expected.numer, expected.denom)


@given(
    st.tuples(_nonzero_unipolys, _nonzero_unipolys, _nonzero_unipolys),
    _nonzero_unipolys,
    _nonzero_unipolys,
    st.integers(1, 4),
    st.integers(0, 4),
)
def test_recurrence_combo_adds_numerators_over_one_shared_denominator(numers, denom, quad, i, m):
    values = tuple(UniRatFunc(n, denom) for n in numers)
    expected = _chain(values, i, m, quad)
    with pytest.MonkeyPatch.context() as mp:  # one pass, no UniRatFunc sum
        mp.setattr(UniRatFunc, "__add__", None)
        got = _combo_of(values, i, m, quad)
    assert _same_rat(got, expected)


@given(
    st.tuples(_unipolys, _unipolys, _unipolys),
    st.tuples(_nonzero_unipolys, _nonzero_unipolys, _nonzero_unipolys),
    _unipolys,
    st.integers(1, 4),
    st.integers(0, 4),
)
def test_recurrence_combo_keeps_the_chain_off_a_shared_denominator(numers, denoms, quad, i, m):
    # zero numerators sit over 1, so they leave the shared denominator too
    values = tuple(UniRatFunc(n, d) for n, d in zip(numers, denoms))
    assert _same_rat(_combo_of(values, i, m, quad), _chain(values, i, m, quad))


def test_tail_closed_matches_combo_samples():
    assert tail_combo(1, 0, 0) == tail_closed(1, 0, 0)
    assert tail_combo(2, 1, 1) == tail_closed(2, 1, 1)


def test_tail_closed_zero_at_top_index():
    for i in range(4):
        for m in range(4):
            assert not tail_closed(i, m, m + 1)


def test_tail_closed_is_zero_outside_its_range():
    # no range check: binom(m, l) = 0 for every l outside 0..m
    for i in range(3):
        for m in range(3):
            assert tail_closed(i, m, -1) == BiPoly() == tail_closed(i, m, m + 2), (i, m)


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
            lhs = UniRatFunc(UniPoly())
            for t in range(a, b + 1):
                term = UniRatFunc(
                    UniPoly.const(falling_factorial(b + t, 2 * t)),
                    ff_unipoly(t, 2 * t + 2),
                )
                lhs = lhs + term
            if a > b:
                rhs = UniRatFunc(UniPoly())
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
    assert max(got.denom.num) > 0


def test_halfint_term_rejects_t_above_k():
    with pytest.raises(ValueError):
        halfint_term(0, 0, 1, 2)


def test_halfint_tail_boundaries():
    tails = halfint_tail(2, 1, 3)
    assert len(tails) == 5 and not tails[4].numer  # l = 0..k+1; l = k+1 is empty
    assert halfint_tail(0, 0, 0) == (UniRatFunc(UniPoly.const(-1)), UniRatFunc(UniPoly()))
    for l in (-1, 3):
        with pytest.raises(ValueError, match="l must satisfy"):
            halfint_combo(1, 0, 1, l)


def test_halfint_tail_m_zero_constant_value():
    # U[i,0,k,0] = -(i+k+1/2)_(2i+1) / (i+1/2), constant in y
    for i in range(4):
        for k in range(4):
            expected = UniPoly.const(
                -falling_factorial(_half(i + k), 2 * i + 1) / _half(i)
            )
            assert halfint_tail(i, 0, k)[0] == UniRatFunc(expected), (i, k)


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
                for l in range(k + 2):
                    acc = UniRatFunc(UniPoly())
                    for t in range(l, k + 1):
                        acc = acc + halfint_term(i, m, k, t)
                    assert _parts(halfint_tail(i, m, k)[l]) == _parts(acc), (i, m, k, l)


def test_halfint_term_and_closed_form_scale_the_same_y_factor():
    """Over the halfint-k benchmark grid, against scalars multiplied out in
    Fraction one falling factorial at a time."""
    ff = falling_factorial
    for i in range(5):
        for m in range(5):
            for k in range(m + 7):
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


def test_halfint_closed_rejects_l_below_zero():
    # the range check stays: without it, l = -1 hits a pole of a falling
    # factorial of negative length at (0, 0, 0) and (1, 0, 0), and gives a
    # nonzero value at (0, 0, 2)
    for i, m, k in ((0, 0, 0), (1, 0, 0), (0, 0, 2), (2, 1, 3)):
        with pytest.raises(ValueError, match="l must satisfy"):
            halfint_closed(i, m, k, -1)


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
        tails = halfint_tail(0, 0, k)
    finally:
        sys.setrecursionlimit(limit)
    assert tails[0] == tails[1] + halfint_term(0, 0, k, 0)


def test_defining_poly_base():
    assert defining_poly(0) == BiPoly({(3, 1): 1, (1, 3): -1})


def test_defining_poly_degree():
    assert defining_poly(1).degree() == 12
    for m in range(4):
        assert defining_poly(m).degree() == 8 * m + 4


def test_defining_poly_central_factors():
    for m in range(4):
        phi = defining_poly(m)
        for form in (X_FORM, XPY_FORM, XMY_FORM):
            assert first_remainder(phi, form, 0) is None, (m, form)
        assert not phi.swap().subst_value([0])[0], m


def test_even_moment_is_half_the_beta_integral():
    # integral_0^1 t^(2a) (1-t^2)^n dt = B(a+1/2, n+1) / 2, through the falling factorial
    assert even_moment(0, 0) == 1 and even_moment(1, 0) == Fraction(1, 3)
    for a in range(5):
        for n in range(9):
            assert 2 * even_moment(a, n) == beta_half(0, a, n), (a, n)


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
    assert basis_derivation(0, 0) == (X, Y)


# ------------------- point evaluation of the definitions -------------------
#
# Each definition below uses only `falling_factorial`, `math.comb` and
# Fraction; no polynomial kernel.  A BiPoly is evaluated by a naive sum
# over its integer numerators.  Two polynomials of x degree <= dx and
# y degree <= dy that agree on a grid of dx+1 by dy+1 points are equal,
# so each comparison below is a proof of equality, not a sample.

FF = falling_factorial


def _value(p: BiPoly, x: Fraction, y: Fraction) -> Fraction:
    """p(x, y) summed term by term from p.num and p.den."""
    return sum((n * x**xe * y**ye for (xe, ye), n in p.num.items()), Fraction()) / p.den


def _grid(count: int) -> list[Fraction]:
    """count distinct rationals, most of them off the integers."""
    return [Fraction(5 * j + 1, 3) - 7 for j in range(count)]


def _assert_equal_on_grid(p: BiPoly, definition, dx: int, dy: int) -> None:
    assert max((xe for xe, _ in p.num), default=0) <= dx
    assert max((ye for _, ye in p.num), default=0) <= dy
    for x in _grid(dx + 1):
        for y in _grid(dy + 1):
            assert _value(p, x, y) == definition(x, y), (x, y)


def _beta(a: Fraction, m: int) -> Fraction:
    """B(a, m+1) = integral_0^1 s^(a-1) (1-s)^m ds, expanded binomially."""
    return sum((Fraction((-1) ** j * math.comb(m, j)) / (a + j) for j in range(m + 1)), Fraction())


def _coeff(i: int, m: int, k: int) -> Fraction:
    """c[i,m,k] read off integral_0^x t^(2i) (t^2-x^2)^m (t^2-y^2)^m dt, whose
    y^(2k) terms come from (-y^2)^k t^(2m-2k) and every power of x^2."""
    out = Fraction()
    for a in range(m + 1):
        sign = (-1) ** (m - a + k)
        out += Fraction(sign * math.comb(m, a) * math.comb(m, k), 2 * (i + a + m - k) + 1)
    return out


def _deformed(i: int, m: int, x: Fraction, y: Fraction) -> Fraction:
    p = 2 * m + i
    out = Fraction()
    for k in range(m + 1):
        y_part = FF(y + p - m, k) * FF(y + m - p + k - 1, k)
        out += _coeff(i, m, k) * FF(x + p - k, 2 * p - 2 * k + 1) * y_part
    return out


def _summand(i: int, m: int, u: int, x: Fraction, y: Fraction) -> Fraction:
    scalar = (-1) ** u * math.comb(m, u) * _beta(Fraction(2 * (u + i) + 1, 2), m)
    y_part = FF(y + m + i, m - u) * FF(y - i - u - 1, m - u)
    return scalar * FF(x + m + i + u, 2 * m + 2 * i + 2 * u + 1) * y_part


def _closed(i: int, m: int, l: int, x: Fraction, y: Fraction) -> Fraction:
    if l > m:
        return Fraction(0)
    scalar = (-1) ** l * math.comb(m, l) * _beta(Fraction(2 * (l + i) + 1, 2), m)
    brace = y * y + l * (2 * m + 2 * i + l + 2) - i * i
    y_part = FF(y + m + i, m - l) * FF(y - i - l - 1, m - l)
    return scalar * brace * FF(x + m + i + l, 2 * m + 2 * i + 2 * l + 1) * y_part


def test_deformed_poly_and_terms_match_their_definitions_pointwise():
    for i in range(3):
        for m in range(3):
            p = 2 * m + i
            _assert_equal_on_grid(
                deformed_poly(i, m), lambda x, y: _deformed(i, m, x, y), 2 * p + 1, 2 * m
            )
            for u in range(m + 1):
                _assert_equal_on_grid(
                    deformed_term(i, m, u),
                    lambda x, y: _summand(i, m, u, x, y),
                    2 * m + 2 * i + 2 * u + 1,
                    2 * (m - u),
                )


def test_tails_and_closed_forms_match_their_definitions_pointwise():
    for i in range(3):
        for m in range(3):
            clear_caches()
            for l in range(m + 2):
                _assert_equal_on_grid(
                    deformed_tail(i, m)[l],
                    lambda x, y: sum(_summand(i, m, u, x, y) for u in range(l, m + 1)),
                    4 * m + 2 * i + 1,
                    2 * max(m - l, 0),
                )
                _assert_equal_on_grid(
                    tail_closed(i, m, l),
                    lambda x, y: _closed(i, m, l, x, y),
                    2 * m + 2 * i + 2 * l + 1,
                    2 * (m - l) + 2,
                )


def test_defining_poly_and_saito_determinant_match_their_definitions_pointwise():
    for m in range(3):
        n = 2 * m + 1
        _assert_equal_on_grid(
            defining_poly(m),
            lambda x, y: FF(x + m, n) * FF(y + m, n) * FF(x + y + m, n) * FF(x - y + m, n),
            3 * n,
            3 * n,
        )
        _assert_equal_on_grid(
            saito_determinant(m),
            lambda x, y: _deformed(0, m, x, y) * _deformed(1, m, y, x)
            - _deformed(0, m, y, x) * _deformed(1, m, x, y),
            6 * m + 3,
            6 * m + 3,
        )


# ------------------------------ sympy oracles ------------------------------


def _to_sympy(p: BiPoly, x, y):
    import sympy

    return sum((sympy.Rational(n, p.den) * x**xe * y**ye for (xe, ye), n in p.num.items()), 0)


def test_saito_determinant_factors_into_the_hyperplanes():
    """Saito's criterion: the determinant is a constant times the product of
    the 4(2m+1) hyperplanes, and that constant is `saito_constant`."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    for m in range(4):
        constant, factors = sympy.factor_list(_to_sympy(saito_determinant(m), x, y), x, y)
        assert all(sympy.Poly(f, x, y).total_degree() == 1 for f, _ in factors), m
        assert sum(e for _, e in factors) == 4 * (2 * m + 1), m
        c = saito_constant(m)
        assert constant == sympy.Rational(c.numerator, c.denominator), m


def test_integral_poly_matches_sympy_integrate():
    sympy = pytest.importorskip("sympy")
    t, x, y = sympy.symbols("t x y")
    for i in range(3):
        for m in range(4):
            integrand = t ** (2 * i) * (t**2 - x**2) ** m * (t**2 - y**2) ** m
            expected = sympy.integrate(integrand, (t, 0, x))
            assert sympy.expand(expected - _to_sympy(integral_poly(i, m), x, y)) == 0, (i, m)


# --------------------------- the deformed_tail memo ---------------------------


def test_clear_caches_drops_the_deformed_tail():
    deformed_tail(1, 2)
    assert cons.deformed_tail.cache_info().currsize > 0
    clear_caches()
    assert cons.deformed_tail.cache_info().currsize == 0


def test_deformed_tail_depth_does_not_grow_with_m(monkeypatch):
    # A suffix sum that recursed once per summand would need m frames,
    # five times the default recursion limit here.
    assert sys.getrecursionlimit() < 5000
    one = BiPoly.const(1)
    monkeypatch.setattr(cons, "deformed_term", lambda i, m, u: one)
    clear_caches()
    try:
        assert deformed_tail(0, 5000)[0] == BiPoly.const(5001)
    finally:
        clear_caches()


def test_a_perturbed_summand_moves_exactly_the_tails_that_contain_it(monkeypatch):
    i, m = 1, 3
    clear_caches()
    plain = deformed_tail(i, m)
    original = cons.deformed_term
    bump = BiPoly.monomial(Fraction(1, 7), 0, 1)
    try:
        for u in range(m + 1):

            def perturbed(i, m, v, u=u):
                return original(i, m, v) + bump if v == u else original(i, m, v)

            monkeypatch.setattr(cons, "deformed_term", perturbed)
            clear_caches()
            tails = deformed_tail(i, m)
            assert [t != p for t, p in zip(tails, plain)] == [l <= u for l in range(m + 2)], u
    finally:
        clear_caches()


# ----------------------- the falling-factorial memos -----------------------

FF_MEMOS = (falling_factorial_pair, ff_unipoly, ff_poly)


def test_falling_factorial_memos_sit_in_the_one_registry():
    assert cons._CACHES is rational._CACHES
    assert all(memo in rational._CACHES for memo in FF_MEMOS)
    clear_caches()
    falling_factorial(_half(3), 4)
    ff_poly("x", _half(1), 3)
    assert all(memo.cache_info().currsize > 0 for memo in FF_MEMOS)
    clear_caches()
    assert all(memo.cache_info().currsize == 0 for memo in FF_MEMOS)


@pytest.mark.parametrize("shift", [0, 3, -4, _half(2), _half(-4), Fraction(1, 3)])
def test_ff_builder_memos_match_their_builders(shift):
    clear_caches()
    for k in range(6):
        for _ in range(2):  # a miss, then a hit
            assert ff_unipoly(shift, k) == ff_unipoly.__wrapped__(shift, k)
            for var in ("x", "y"):
                assert ff_poly(var, shift, k) == ff_poly.__wrapped__(var, shift, k)
    for _ in range(2):
        with pytest.raises(ValueError):
            ff_unipoly(shift, -1)
        with pytest.raises(ValueError):
            ff_poly("y", shift, -1)


def test_falling_factorial_pair_memo_matches_its_loop_and_keeps_raising_at_poles():
    clear_caches()
    poles = 0
    for d in (1, 2, 3):
        for a in range(-7, 8):
            for k in range(-5, 6):
                for _ in range(2):
                    try:
                        expected = falling_factorial_pair.__wrapped__(a, d, k)
                    except ZeroDivisionError:
                        with pytest.raises(ZeroDivisionError):
                            falling_factorial_pair(a, d, k)
                        poles += 1
                    else:
                        assert falling_factorial_pair(a, d, k) == expected
    assert poles > 0
    with pytest.raises(ZeroDivisionError):
        falling_factorial(-2, -3)  # 1/((-2+3)(-2+2)(-2+1)) has the pole -2+2


def test_equal_int_and_fraction_shifts_share_one_entry():
    clear_caches()
    assert ff_unipoly(3, 4) == ff_unipoly(Fraction(3), 4) == ff_unipoly(Fraction(6, 2), 4)
    assert ff_unipoly.cache_info().currsize == 1
    assert ff_poly("y", -2, 3) == ff_poly("y", Fraction(-2), 3) == ff_poly.__wrapped__("y", -2, 3)
    assert ff_poly.cache_info().currsize == 1
    assert falling_factorial(Fraction(5), 3) == falling_factorial(5, 3) == 60
    assert falling_factorial_pair.cache_info().currsize == 1


def test_every_memoized_value_survives_a_sweep_unchanged(monkeypatch):
    # Every memo hands out one shared value per key, so a caller that changed
    # a returned polynomial's `num` in place would corrupt later lookups.
    # Record every value a default-grid sweep receives, then compare each
    # with a recomputation on empty caches.
    received = []
    for memo in rational._CACHES:

        def recorder(*args, memo=memo):
            value = memo(*args)
            received.append((memo, args, value))
            return value

        for module in (rational, poly, cons, checks, cli):
            for name, value in list(vars(module).items()):
                if value is memo:
                    monkeypatch.setattr(module, name, recorder)
    clear_caches()
    cfg = cli.SweepConfig(
        i_range=(0, 4), m_range=(0, 4), k_extra=2, checks=CHECK_NAMES, format="text", jobs=1
    )
    assert cli.run_verify(cfg, io.StringIO()) == 0
    monkeypatch.undo()
    assert {memo for memo, _, _ in received} == set(rational._CACHES)
    clear_caches()
    try:
        fresh = {}
        for memo, args, value in received:
            if (memo, args) not in fresh:
                fresh[memo, args] = memo(*args)
            assert value == fresh[memo, args], (memo.__wrapped__.__name__, args)
    finally:
        clear_caches()
