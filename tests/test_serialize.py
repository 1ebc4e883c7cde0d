"""Canonical text grammar and parser errors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catb2 import BiPoly, PolyParseError, ff_poly

coefs = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
monomials = st.tuples(st.integers(0, 9), st.integers(0, 9))
bipolys = st.dictionaries(monomials, coefs, max_size=8).map(BiPoly)


def test_zero_renders_and_parses():
    assert BiPoly.zero().to_text() == "0"
    assert BiPoly.from_text("0") == BiPoly.zero()


def test_golden_cubic():
    assert (ff_poly("x", 1, 3)).to_text() == "1 * x^3 + -1 * x^1"


def test_golden_mixed_term_order():
    p = BiPoly({(3, 1): 1, (1, 3): -1})
    assert p.to_text() == "1 * x^3 * y^1 + -1 * x^1 * y^3"
    assert BiPoly.from_text(p.to_text()) == p


def test_constant_term_renders_bare():
    p = BiPoly({(2, 0): Fraction(1, 3), (0, 0): Fraction(-5, 7)})
    assert p.to_text() == "1/3 * x^2 + -5/7"


def test_parse_accepts_any_factor_order():
    assert BiPoly.from_text("2 * y^3 * x^1") == BiPoly({(1, 3): 2})


def test_parse_merges_duplicate_monomials():
    assert BiPoly.from_text("1 * x^1 + 1 * x^1") == BiPoly({(1, 0): 2})


@given(bipolys)
@settings(max_examples=100, deadline=None)
def test_text_round_trip(p):
    assert BiPoly.from_text(p.to_text()) == p


@pytest.mark.parametrize(
    "text,col",
    [
        ("", 1),
        ("1 *", 4),
        ("1 * x", 6),
        ("1 * x^", 7),
        ("1 * z^2", 5),
        ("1/0", 3),
        ("1 + ", 5),
        ("1 1", 3),
        ("1 * x^2 * x^3", 11),
    ],
)
def test_parse_errors_carry_position(text, col):
    with pytest.raises(PolyParseError) as exc:
        BiPoly.from_text(text)
    assert exc.value.line == 1
    assert exc.value.col == col


def test_parse_error_line_tracking():
    with pytest.raises(PolyParseError) as exc:
        BiPoly.from_text("1 * x^2 +\n2 * w^1")
    assert exc.value.line == 2
    assert exc.value.col == 5
