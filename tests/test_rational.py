"""Scalar layer: exact rationals, falling factorials, binomials, Beta values."""

import functools
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from catb2.constructions import deformed_poly, integral_poly, integral_poly_coeff, poly_from_coeffs
from catb2.rational import beta_half, binomial, falling_factorial, falling_factorial_pair

rats = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def test_rat_text_form():
    # the serializer and the CLI print coefficients with str()
    assert str(Fraction(-4, 30)) == "-2/15"
    assert str(Fraction(6)) == "6"


def test_falling_factorial_integers():
    assert falling_factorial(3, 2) == 6


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(5), Fraction(-7, 2)])
def test_falling_factorial_empty_product(alpha):
    assert falling_factorial(alpha, 0) == 1


def test_falling_factorial_half_integer():
    assert falling_factorial(Fraction(1, 2), 3) == Fraction(3, 8)


def test_falling_factorial_negative_length():
    # (-1/2)_(-2) = 1/((3/2)(1/2))
    assert falling_factorial(Fraction(-1, 2), -2) == Fraction(4, 3)


def test_falling_factorial_pole():
    # (-1)_(-2) needs (1)(0) in the denominator
    with pytest.raises(ZeroDivisionError, match="falling factorial pole"):
        falling_factorial(-1, -2)


def test_falling_factorial_shift_law():
    """(a)_(j+k) = (a)_j * (a-j)_k wherever both sides are defined."""
    alphas = [Fraction(n, d) for d in (1, 2) for n in range(-8, 9)]
    for alpha in alphas:
        for j in range(9):
            for k in range(-8, 9):
                try:
                    lhs = falling_factorial(alpha, j + k)
                    rhs = falling_factorial(alpha, j) * falling_factorial(alpha - j, k)
                except ZeroDivisionError:
                    continue
                assert lhs == rhs, (alpha, j, k)


def _naive_falling_factorial(alpha: Fraction, k: int) -> Fraction:
    """(alpha)_k by a Fraction loop; for k < 0, 1/(alpha+|k|)_|k| or a pole."""
    if k < 0:
        rec = _naive_falling_factorial(alpha - k, -k)
        if rec == 0:
            raise ZeroDivisionError
        return 1 / rec
    out = Fraction(1)
    for j in range(k):
        out *= alpha - j
    return out


@given(
    st.one_of(st.integers(-8, 8), st.fractions(-8, 8, max_denominator=6)),
    st.integers(-10, 10),
)
@example(-1, -2)  # pole: (1)(0) in the denominator
@example(Fraction(-7, 2), 0)
@example(Fraction(5, 3), 4)
def test_falling_factorial_matches_naive_loop(alpha, k):
    try:
        expected = _naive_falling_factorial(Fraction(alpha), k)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError, match="falling factorial pole"):
            falling_factorial(alpha, k)
        return
    got = falling_factorial(alpha, k)
    assert type(got) is Fraction
    assert got == expected


half_integers = st.integers(-9, 8).map(lambda n: Fraction(2 * n + 1, 2))


@given(
    st.one_of(st.integers(-8, 8), half_integers, st.fractions(-8, 8, max_denominator=6)),
    st.integers(-8, 8),
)
@example(-1, -2)  # pole: (1)(0) in the denominator
@example(Fraction(-3, 2), -1)  # half-integers have no pole: (-1/2) in the denominator
@example(Fraction(5, 2), 3)
def test_falling_factorial_pair_is_falling_factorial(alpha, k):
    """The integer pair that `falling_factorial` and the half-integer scalars
    share: the same value and the same poles, against the naive loop too."""
    alpha = Fraction(alpha)
    try:
        expected = _naive_falling_factorial(alpha, k)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError, match="falling factorial pole"):
            falling_factorial_pair(alpha.numerator, alpha.denominator, k)
        return
    num, den = falling_factorial_pair(alpha.numerator, alpha.denominator, k)
    assert Fraction(num, den) == expected == falling_factorial(alpha, k)


def test_binomial_outside_range_is_zero():
    assert binomial(1, 2) == 0
    assert binomial(4, -1) == 0


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(5, 0) == 1


def test_binomial_negative_n():
    with pytest.raises(ValueError, match="unsupported binomial"):
        binomial(-1, 0)


def test_beta_half_values():
    assert beta_half(0, 0, 0) == 2
    assert beta_half(0, 0, 1) == Fraction(4, 3)
    assert beta_half(1, 0, 1) == Fraction(4, 15)


def test_beta_half_matches_termwise_integral():
    """Independent route: expand (1-s)^m binomially, integrate each power.

    integral_0^1 s^(u+i-1/2) (1-s)^m ds
        = sum_j binom(m,j) (-1)^j / (u+i+j+1/2).
    """
    for u in range(5):
        for i in range(5):
            for m in range(5):
                expected = sum(
                    (
                        Fraction(binomial(m, j) * (-1) ** j * 2, 2 * (u + i + j) + 1)
                        for j in range(m + 1)
                    ),
                    Fraction(0),
                )
                assert beta_half(u, i, m) == expected, (u, i, m)


def test_beta_half_rejects_negative():
    with pytest.raises(ValueError):
        beta_half(-1, 0, 0)


@given(rats, rats, rats)
def test_rat_arithmetic_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(rats, rats)
def test_rat_division_exact(a, b):
    if b != 0:
        assert (a / b) * b == a


def test_negative_family_indices_are_rejected():
    # Without the check, deformed_poly(0, -1) and poly_from_coeffs(0, -1)
    # would sum over an empty k range and return 0.
    coeff_at_k0 = functools.partial(integral_poly_coeff, k=0)
    for build in (deformed_poly, integral_poly, poly_from_coeffs, coeff_at_k0):
        for i, m in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="family indices must be nonnegative"):
                build(i, m)
