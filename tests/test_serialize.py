"""Canonical text grammar, read back by the strict reader of `textform`."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textform import parse

from catb2.poly import BiPoly, ff_poly

coefs = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
monomials = st.tuples(st.integers(0, 9), st.integers(0, 9))
bipolys = st.dictionaries(monomials, coefs, max_size=8).map(BiPoly)


def test_zero_renders_and_parses():
    assert BiPoly.zero().to_text() == "0"
    assert parse("0") == BiPoly.zero()


def test_golden_cubic():
    assert (ff_poly("x", 1, 3)).to_text() == "1 * x^3 + -1 * x^1"


def test_golden_mixed_term_order():
    p = BiPoly({(3, 1): 1, (1, 3): -1})
    assert p.to_text() == "1 * x^3 * y^1 + -1 * x^1 * y^3"
    assert parse(p.to_text()) == p


def test_constant_term_renders_bare():
    p = BiPoly({(2, 0): Fraction(1, 3), (0, 0): Fraction(-5, 7)})
    assert p.to_text() == "1/3 * x^2 + -5/7"


@given(bipolys)
@settings(max_examples=100, deadline=None)
def test_text_round_trip(p):
    assert parse(p.to_text()) == p


def test_reader_rejects_non_canonical_text():
    for text in ["", "1 * x^1 + 1 * x^1", "2 * y^3 * x^1", "1 + 1 * x^1", "1 *  x^1",
                 "2/4", "1 * x^0", "0 * x^1", "1 * z^2", "1 * x^2 * x^3"]:
        with pytest.raises((AssertionError, ValueError)):
            parse(text)
