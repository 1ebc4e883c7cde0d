"""Polynomial kernel: arithmetic, builders, substitution, division."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catb2 import poly
from catb2.constructions import defining_poly, deformed_poly
from catb2.poly import (
    X_FORM,
    XMY_FORM,
    XPY_FORM,
    BiPoly,
    LinearForm,
    UniPoly,
    UniRatFunc,
    _signed_digits,
    _subst_roots,
    ff_linear_poly,
    ff_poly,
    ff_unipoly,
    ff_unirat,
    first_remainder,
)
from catb2.rational import clear_caches
from oracles import divrem_linear, form_poly, subst_affine, termwise_product

X = BiPoly.monomial(1, 1, 0)
Y = BiPoly.monomial(1, 0, 1)

coefs = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
monomials = st.tuples(st.integers(0, 5), st.integers(0, 5))
bipolys = st.dictionaries(monomials, coefs, max_size=6).map(BiPoly)
# every term of odd total degree
odd_bipolys = st.dictionaries(monomials.filter(lambda k: sum(k) & 1), coefs, max_size=6).map(BiPoly)
unipolys = st.dictionaries(st.integers(0, 6), coefs, max_size=5).map(UniPoly)
forms = st.sampled_from([X_FORM, XPY_FORM, XMY_FORM])
shifts = st.integers(-3, 3).map(Fraction)
y_coefs = st.sampled_from([-1, 0, 1])
form_shifts = st.one_of(shifts, st.fractions(-4, 4, max_denominator=7))


def test_add():
    assert (X + Y).terms == {(1, 0): 1, (0, 1): 1}


def test_mul_difference_of_squares():
    one = BiPoly.const(1)
    assert (X + one) * (X - one) == X * X - one


def test_scale_by_zero_empties():
    assert not ((X * X) * 0).terms


def test_ff_poly_single():
    assert ff_poly("x", 0, 1) == X


def test_ff_poly_cubic():
    assert ff_poly("x", 1, 3) == X * X * X - X


def test_ff_poly_half_shift():
    expected = Y * Y - Y * 2 + BiPoly.const(Fraction(3, 4))
    assert ff_poly("y", Fraction(-1, 2), 2) == expected


def test_ff_linear_poly():
    s = form_poly(XPY_FORM, 0)
    assert ff_linear_poly(XPY_FORM, 0, 1) == s
    assert ff_linear_poly(XPY_FORM, 1, 3) == (s + BiPoly.const(1)) * s * (s - BiPoly.const(1))
    assert ff_linear_poly(XMY_FORM, 0, 1) == X - Y
    # the product of the linear forms themselves, one factor at a time
    for form in (XMY_FORM, X_FORM, XPY_FORM):
        for shift in (0, 3, -2, Fraction(5, 2), Fraction(-1, 2)):
            expected = BiPoly.const(1)
            for k in range(10):
                assert ff_linear_poly(form, shift, k) == expected, (form, shift, k)
                expected = expected * form_poly(form, shift - k)


def test_ff_linear_poly_rejects_a_negative_length():
    with pytest.raises(ValueError, match="negative length"):
        ff_linear_poly(XPY_FORM, 0, -1)


def test_every_factor_of_the_defining_polynomial_comes_from_ff_unipoly(monkeypatch):
    # (x+m)_(2m+1), (y+m)_(2m+1), (x+y+m)_(2m+1) and (x-y+m)_(2m+1) all
    # multiply out through ff_unipoly, so doubling it doubles each factor
    expected = [defining_poly(m) * 16 for m in range(1, 5)]
    original = poly.ff_unipoly

    def doubled(shift, k):
        return original(shift, k) * (2 if k >= 3 else 1)

    monkeypatch.setattr(poly, "ff_unipoly", doubled)
    clear_caches()
    try:
        assert [defining_poly(m) for m in range(1, 5)] == expected
    finally:
        monkeypatch.undo()
        clear_caches()


def test_swap():
    assert BiPoly.monomial(1, 2, 1).swap() == BiPoly.monomial(1, 1, 2)
    assert (X + Y).swap() == X + Y
    assert (X * X * X - Y).swap() == Y * Y * Y - X


def test_subst_affine_collapse():
    assert not subst_affine(X + Y, "y", -1, "x")


def test_subst_affine_shifted():
    got = subst_affine(X * X - Y * Y, "y", -1, "x", -1)
    assert got == X * (-2) - BiPoly.const(1)


def test_subst_same_variable_negation():
    f = X * X * X - X
    assert f.subst_affine("x") == -f


@given(bipolys, st.sampled_from(["x", "y"]))
@settings(max_examples=60, deadline=None)
def test_sign_flip_matches_the_power_rebuilding_substitution(p, var):
    assert p.subst_affine(var) == subst_affine(p, var, -1, var)


def test_sign_flip_rejects_an_unknown_variable():
    with pytest.raises(ValueError):
        (X + Y).subst_affine("z")


def test_subst_value():
    got = (X * X * Y).subst_value(Fraction(-1, 2))
    assert got == UniPoly({1: Fraction(1, 4)})


def test_divrem_difference_of_squares():
    q, r = divrem_linear(X * X - Y * Y, XPY_FORM, 0)
    assert q == X - Y
    assert not r


def test_divrem_single_variable():
    q, r = divrem_linear(X, XPY_FORM, 0)
    assert q == BiPoly.const(1)
    assert r == UniPoly({1: -1})  # -y


@given(bipolys, forms, shifts)
@settings(max_examples=60, deadline=None)
def test_divrem_reconstruction(p, form, shift):
    q, r = divrem_linear(p, form, shift)
    assert q * form_poly(form, shift) + r.as_bipoly("y") == p


def test_divisible_by_falling_product_examples():
    assert first_remainder(X * X - Y * Y, XPY_FORM, 0) is None
    assert first_remainder(X + Y + BiPoly.const(1), XPY_FORM, 0) == UniPoly.const(1)
    p = ff_linear_poly(XPY_FORM, 1, 3)
    assert first_remainder(p, XPY_FORM, 1) is None


@given(bipolys, forms, st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_divisibility_of_constructed_multiples(p, form, m):
    product = p * ff_linear_poly(form, m, 2 * m + 1)
    assert first_remainder(product, form, m) is None


@given(bipolys, bipolys)
@settings(max_examples=60, deadline=None)
def test_substitution_is_a_homomorphism(p, q):
    def image(f):
        return subst_affine(f, "y", -1, "x", Fraction(-2))

    assert image(p * q) == image(p) * image(q)
    assert image(p + q) == image(p) + image(q)


def test_unipoly_degree_and_eval():
    p = ff_unipoly(1, 3)  # (v+1)v(v-1)
    assert max(p.num) == 3
    assert p.as_bipoly("x").subst_value(2) == UniPoly.const(6)
    assert not UniPoly().num


def test_ff_unirat_negative_length():
    r = ff_unirat(Fraction(-3, 2), -2)  # 1/((v+1/2)(v-1/2))
    assert r.denom == ff_unipoly(Fraction(1, 2), 2)
    assert r.numer == UniPoly.const(1)


def test_unirat_equality_cross_multiplies():
    one = UniPoly.const(1)
    v = UniPoly({1: 1})
    assert UniRatFunc(v * 2, one * 2) == UniRatFunc(v)
    assert UniRatFunc(one, v) != UniRatFunc(one, v + one)


def test_unirat_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        UniRatFunc(UniPoly.const(1), UniPoly())


@given(unipolys, unipolys, unipolys)
@settings(max_examples=60, deadline=None)
def test_unirat_equality_invariance(n, d, g):
    if not d or not g:
        return
    a = UniRatFunc(n, d)
    b = UniRatFunc(n * g, d * g)
    assert a == a
    assert a == b
    assert b == a


def _parts(r: UniRatFunc) -> tuple[UniPoly, UniPoly]:
    return r.numer, r.denom


def test_unirat_arithmetic_matches_plain_products():
    """Sums, products and cross differences leave the (numer, denom) of the
    plain products; over an equal denominator a sum adds the numerators and a
    cross difference is the difference of the numerators."""
    v = UniPoly({1: 1})
    one = UniPoly.const(1)
    numers = [UniPoly(), one, v + one, v * Fraction(2, 3), v * v - one * 4]
    denoms = [one, v - one * Fraction(1, 2), v * v * 3 + one]
    values = [UniRatFunc(n, d) for n in numers for d in denoms]
    for a, b in itertools.product(values, repeat=2):
        if a.denom == b.denom:
            plain_sum = UniRatFunc(a.numer + b.numer, a.denom)
        else:
            plain_sum = UniRatFunc(a.numer * b.denom + b.numer * a.denom, a.denom * b.denom)
        assert _parts(a + b) == _parts(plain_sum), (a, b)
        if a.denom == b.denom:
            assert a.cross_diff(b) == a.numer - b.numer, (a, b)
        else:
            assert a.cross_diff(b) == a.numer * b.denom - b.numer * a.denom, (a, b)
        assert (a == b) == (not a.numer * b.denom - b.numer * a.denom), (a, b)
    for a, p in itertools.product(values, numers):
        assert _parts(a * p) == _parts(UniRatFunc(a.numer * p, a.denom)), (a, p)


def test_linear_form_validation():
    with pytest.raises(ValueError):
        LinearForm(2)
    with pytest.raises(ValueError):
        LinearForm(-2)
    with pytest.raises(ValueError):
        LinearForm(Fraction(1, 2))


def test_linear_form_reduce_mod():
    # x + y - 1 = 0: substitute x = 1 - y into x^2
    rem = XPY_FORM.reduce_mod(X * X, -1)
    assert rem == UniPoly({2: 1, 1: -2, 0: 1})


def _is_clean(p) -> bool:
    """The .terms invariant: only nonzero Fraction values."""
    return all(type(c) is Fraction and c for c in p.terms.values())


@given(bipolys, y_coefs, form_shifts)
@settings(max_examples=150, deadline=None)
def test_reduce_mod_matches_independent_routes(p, b, c):
    form = LinearForm(b)
    rem = form.reduce_mod(p, c)
    assert _is_clean(rem)
    assert rem == divrem_linear(p, form, c)[1]  # long division
    if b:  # x = -b*y - c through the power-rebuilding substitution
        assert rem.as_bipoly("y") == subst_affine(p, "x", -b, "y", -c)


def _first_long_division(p, form, m: int) -> UniPoly | None:
    """The first nonzero remainder of p modulo x + form.b*y + c, c = m..-m,
    by the long-division oracle."""
    rems = (divrem_linear(p, form, Fraction(c))[1] for c in range(m, -m - 1, -1))
    return next(filter(None, rems), None)


@given(bipolys, forms, st.integers(0, 4), st.integers(0, 5))
@example(X + Y, XPY_FORM, 1, 1)  # (x+y)(x+y+1): first nonzero at c = -1
@example(X * Y + BiPoly.const(1), XMY_FORM, 2, 3)
@settings(max_examples=150, deadline=None)
def test_first_remainder_is_the_first_nonzero_long_division(p, form, m, vanish):
    # The factor makes the remainders at c = m..m-vanish+1 zero, so the first
    # nonzero one comes at a later shift.
    p = p * ff_linear_poly(form, m, vanish)
    got = first_remainder(p, form, m)
    assert got == _first_long_division(p, form, m)
    if got is not None:
        assert _is_canonical(got) and _is_clean(got)


def _spy_roots(monkeypatch) -> list:
    """The root batches passed to poly._subst_roots from now on."""
    batches, original = [], poly._subst_roots

    def spy(p, slope, values):
        batches.append(list(values))
        return original(p, slope, values)

    monkeypatch.setattr(poly, "_subst_roots", spy)
    return batches


@given(odd_bipolys, forms, st.integers(0, 4), st.integers(0, 5))
@example(X * X * X + Y, XPY_FORM, 2, 2)  # zero at c = +-2, +-1: first nonzero at c = 0
@example(X * Y * Y, X_FORM, 3, 1)  # x y^2 (9-x^2): first nonzero at c = 2
@example(X - Y, XMY_FORM, 1, 3)  # -(x-y)^3 ((x-y)^2-1)^2: every remainder zero
@settings(max_examples=100, deadline=None)
def test_an_odd_scan_stops_at_c_zero(p, form, m, vanish):
    # Every term of odd total degree: remainders at c and -c vanish together,
    # so only c = m..0 are read.  The factor F(v) F(-v), F = (v+m)_vanish and
    # v = x + form.b*y, is even, so p stays odd while its remainders at
    # c = +-m..+-(m-vanish+1) become zero.
    factor = ff_linear_poly(form, m, vanish)
    p = p * factor * factor.subst_affine("x").subst_affine("y")
    with pytest.MonkeyPatch.context() as mp:
        batches = _spy_roots(mp)
        got = first_remainder(p, form, m)
    assert batches == [list(range(-m, 1))]
    assert got == _first_long_division(p, form, m)


@pytest.mark.parametrize("form", [X_FORM, XPY_FORM, XMY_FORM])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_one_even_term_makes_the_scan_read_every_shift(monkeypatch, form, m):
    # (v+m)_(2m) vanishes at c = m..-m+1 and not at c = -m, and it has terms
    # of even total degree; at m = 1 with the x form it is x + x^2, one odd
    # term and one even.  The scan must reach c = -m for the witness.
    p = ff_linear_poly(form, m, 2 * m)
    batches = _spy_roots(monkeypatch)
    got = first_remainder(p, form, m)
    assert batches == [list(range(-m, m + 1))]
    assert got and got == divrem_linear(p, form, Fraction(-m))[1]
    # The same polynomial without its even-degree terms is odd, and the scan
    # stops at c = 0.
    odd = BiPoly({k: c for k, c in p.terms.items() if sum(k) & 1})
    batches.clear()
    assert first_remainder(odd, form, m) == _first_long_division(odd, form, m)
    assert batches == [list(range(-m, 1))]


def _naive_at_x(p, value: Fraction) -> UniPoly:
    out: dict = {}
    for (xe, ye), c in p.terms.items():
        out[ye] = out.get(ye, Fraction(0)) + c * value**xe
    return UniPoly(out)


@given(
    bipolys,
    st.fractions(-4, 4, max_denominator=7).filter(lambda s: s.denominator > 1),
    st.integers(2, 5),
    st.integers(0, 5),
)
@example(X * X * Y - X * Fraction(1, 3) + BiPoly.const(2), Fraction(-5, 2), 3, 1)
# The x^0 row dominates: its bound term is S_0 * vd^top, so the width of the
# packing needs the vd^(top-e) factor.
@example(BiPoly.monomial(1, 5, 0) + BiPoly.const(1000), Fraction(-1, 7), 2, 0)
@settings(max_examples=150, deadline=None)
def test_slope_zero_batches_match_fraction_evaluation(p, shift, count, vanish):
    # Modulo x + shift - j the remainder is p at x = j - shift: a batch of
    # non-integer roots through the packed loop with slope 0.  The factor
    # zeroes the first `vanish` roots, so later ones are reached.
    p = p * ff_poly("x", shift, vanish)
    roots = [j - shift for j in range(count)]
    expected = next(filter(None, (_naive_at_x(p, r) for r in roots)), None)
    assert next(filter(None, _subst_roots(p, 0, roots)), None) == expected
    # The same batch with the root 0 added and mixed denominators, every root read.
    roots += [Fraction(0), Fraction(count)]
    assert list(_subst_roots(p, 0, roots)) == [_naive_at_x(p, r) for r in roots]


@given(bipolys, st.integers(0, 4), st.integers(0, 4))
@example(X - Y, 2, 0)  # h = 2(x-y) leaves -2c: the first nonzero remainder at c = 2
@example(X * X * Y - Y * Y * X, 3, 3)  # (x-y)^2 - c^2 zeroes c = +-1..+-3
@settings(max_examples=100, deadline=None)
def test_antisymmetric_xmy_scan_matches_the_long_division_scan(p, s, vanish):
    # h(y,x) = -h(x,y) gives R_0 = 0 and R_{-c}(y-c) = -R_c(y) for R_c the
    # remainder modulo x-y+c, as membership's x-y clause scans it.  The
    # symmetric factors (x-y)^2 - c^2 keep h antisymmetric and zero the
    # remainders at c = +-s..+-(s-vanish+1).
    h = p - p.swap()
    for c in range(max(s - vanish, 0) + 1, s + 1):
        h = h * ((X - Y) * (X - Y) - BiPoly.const(c * c))
    assert first_remainder(h, XMY_FORM, s) == _first_long_division(h, XMY_FORM, s)


@pytest.mark.parametrize("n", [1, -1, 3, -3, 7, -7, 2**70 - 1, -(2**70 - 1)])
def test_remainder_at_the_packing_bound(n):
    # For n*x^xe*y^ye modulo x+-y+c, with c = 0 (or any c when xe = 0), the
    # remainder has the single coefficient +-n, and |n| is exactly the bound
    # sum_e S_e*(vd+|vn|)^e*vd^(top-e) that sets the width of the packing.
    exponents = [(0, 0), (0, 3), (1, 0), (2, 1), (5, 2)]
    for form, (xe, ye) in itertools.product((XPY_FORM, XMY_FORM), exponents):
        p = BiPoly.monomial(n, xe, ye)
        for c in [Fraction(0)] if xe else [Fraction(0), Fraction(-5, 2), Fraction(7)]:
            expected = divrem_linear(p, form, c)[1]
            assert expected.num == {xe + ye: n * (-form.b) ** xe}
            assert form.reduce_mod(p, c) == expected, (form, xe, ye, c)
            first = next(filter(None, _subst_roots(p, -form.b, [-c])), None)
            assert first == expected, (form, xe, ye, c)


@given(bipolys, bipolys)
@example(X + Y, X - Y)
@example(
    BiPoly({(1, 0): Fraction(1, 2), (0, 1): Fraction(-2, 3), (0, 0): 5}),
    BiPoly({(1, 0): Fraction(1, 2), (0, 1): Fraction(2, 3)}),
)
@example(X * Fraction(1, 3), BiPoly())
@settings(max_examples=100, deadline=None)
def test_bipoly_mul_matches_fraction_double_loop(p, q):
    got = p * q
    assert got.terms == termwise_product(p, q)
    assert _is_clean(got)


@given(unipolys, unipolys)
@example(
    UniPoly({1: Fraction(1, 2), 0: Fraction(1, 3)}),
    UniPoly({1: Fraction(1, 2), 0: Fraction(-1, 3)}),
)
@settings(max_examples=100, deadline=None)
def test_unipoly_mul_matches_fraction_double_loop(p, q):
    got = p * q
    assert got.terms == termwise_product(p, q)
    assert _is_clean(got)


# ------------------------- integer representation -------------------------

scalars = st.one_of(st.just(0), st.integers(-6, 6), coefs)
half_shifts = st.integers(-8, 8).map(lambda n: Fraction(n, 2))  # integers too


def _is_canonical(p) -> bool:
    """num holds nonzero ints, den > 0, and no common factor is left."""
    nums = list(p.num.values())
    return (
        type(p.den) is int
        and p.den > 0
        and math.gcd(p.den, *nums) == 1
        and all(type(n) is int and n for n in nums)
    )


def _naive_sum(p, q, sign: int = 1) -> dict:
    acc = dict(p.terms)
    for k, c in q.terms.items():
        acc[k] = acc.get(k, Fraction(0)) + sign * c
    return {k: c for k, c in acc.items() if c}


def _naive_scale(p, c) -> dict:
    return {k: v * c for k, v in p.terms.items() if v * c}


def _checked(p, expected: dict) -> None:
    assert _is_canonical(p), (p.num, p.den)
    assert p.terms == expected
    assert _is_clean(p)


@given(bipolys, bipolys, scalars)
@example(BiPoly({(1, 0): Fraction(1, 2), (0, 0): Fraction(1, 2)}), BiPoly(), 2)
@example(X * Fraction(2, 3), X * Fraction(-2, 3), Fraction(-3, 4))
@settings(max_examples=100, deadline=None)
def test_bipoly_operations_stay_canonical(p, q, c):
    assert _is_canonical(p)
    _checked(p + q, _naive_sum(p, q))
    _checked(p - q, _naive_sum(p, q, -1))
    _checked(-p, _naive_scale(p, -1))
    _checked(p * c, _naive_scale(p, c))
    _checked(c * p, _naive_scale(p, c))
    _checked(p * q, termwise_product(p, q))
    _checked(p.swap(), {(ye, xe): v for (xe, ye), v in p.terms.items()})
    assert p == BiPoly(p.terms)
    assert (p == q) == (p.terms == q.terms)


@given(unipolys, unipolys, scalars)
@example(UniPoly({1: Fraction(1, 2), 0: Fraction(1, 2)}), UniPoly(), 2)
@settings(max_examples=100, deadline=None)
def test_unipoly_operations_stay_canonical(p, q, c):
    assert _is_canonical(p)
    _checked(p + q, _naive_sum(p, q))
    _checked(p - q, _naive_sum(p, q, -1))
    _checked(-p, _naive_scale(p, -1))
    _checked(p * c, _naive_scale(p, c))
    _checked(p * q, termwise_product(p, q))


@given(bipolys, y_coefs, form_shifts, st.sampled_from(["x", "y"]), form_shifts)
@settings(max_examples=100, deadline=None)
def test_substitutions_stay_canonical(p, b, c, var, value):
    form = LinearForm(b)
    _checked(form.reduce_mod(p, c), divrem_linear(p, form, c)[1].terms)
    naive: dict = {}
    for (xe, ye), v in p.terms.items():
        e, keep = (xe, ye) if var == "x" else (ye, xe)
        naive[keep] = naive.get(keep, Fraction(0)) + v * value**e
    at_x = p if var == "x" else p.swap()  # subst_value eliminates x
    _checked(at_x.subst_value(value), {k: v for k, v in naive.items() if v})
    _checked(p.subst_affine(var), subst_affine(p, var, -1, var).terms)


CONSTANT_SUBST_POLYS = {
    "zero": BiPoly(),
    "constant": BiPoly.const(Fraction(-7, 3)),
    "mixed": X * X * Y - X * Fraction(1, 2) + Y * Fraction(3, 4) + BiPoly.const(4),
    "high-degree": ff_poly("x", 20, 41) * (Y * Fraction(2, 3) - BiPoly.const(1))
    + ff_poly("y", Fraction(9, 2), 30),
}


@pytest.mark.parametrize("name", CONSTANT_SUBST_POLYS)
@pytest.mark.parametrize("value", [Fraction(0), Fraction(-3), Fraction(5, 2), Fraction(-7, 2)])
def test_constant_substitution_edges(name, value):
    # value 0 makes vn = 0 in the Horner step; the x^0 terms must survive it.
    p = CONSTANT_SUBST_POLYS[name]
    got = p.subst_value(value)
    assert _is_canonical(got), (got.num, got.den)
    assert got == divrem_linear(p, X_FORM, -value)[1]
    got = p.swap().subst_value(value)
    assert _is_canonical(got), (got.num, got.den)
    naive: dict = {}
    for (xe, ye), c in p.terms.items():
        naive[xe] = naive.get(xe, Fraction(0)) + c * value**ye
    assert got.terms == {e: c for e, c in naive.items() if c}


def _naive_falling(shift: Fraction, k: int) -> dict:
    """prod_{j<k} (v + shift - j) by Fraction coefficient lists."""
    coeffs = [Fraction(1)]
    for j in range(k):
        root = shift - j
        coeffs = [root * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return {e: c for e, c in enumerate(coeffs) if c}


@given(half_shifts, st.integers(0, 9))
@example(Fraction(0), 0)
@example(Fraction(-3, 2), 4)
@settings(max_examples=80, deadline=None)
def test_falling_factorial_builders_match_linear_factors(shift, k):
    expected = _naive_falling(shift, k)
    _checked(ff_unipoly(shift, k), expected)
    _checked(ff_poly("x", shift, k), {(e, 0): c for e, c in expected.items()})
    _checked(ff_poly("y", shift, k), {(0, e): c for e, c in expected.items()})


def test_terms_view_is_built_once_and_only_on_demand():
    p = ff_poly("x", Fraction(1, 2), 3) * Y
    assert p._terms is None
    assert p.terms is p.terms
    assert p.num == {(3, 1): 8, (2, 1): -12, (1, 1): -2, (0, 1): 3} and p.den == 8


# ------------------------ small-operand arithmetic -------------------------

# 0 and +-1, ints of any size, and Fractions of any size (integral ones too).
any_scalars = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(0), Fraction(1), Fraction(-1), Fraction(6)]),
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=10**12),
)
same_kind_pairs = st.one_of(st.tuples(bipolys, bipolys), st.tuples(unipolys, unipolys))


@given(st.one_of(bipolys, unipolys), any_scalars)
# 3/4 x + 3/2 times 2/3: a shares 2 with den 4 and b shares 3 with content 3
@example(BiPoly({(1, 0): Fraction(3, 4), (0, 0): Fraction(3, 2)}), Fraction(2, 3))
@example(UniPoly({2: Fraction(5, 6)}), -12)
@example(BiPoly(), Fraction(-7, 3))
@settings(max_examples=150, deadline=None)
def test_scaling_matches_the_termwise_product(p, c):
    got = p * c
    assert got == type(p)({k: v * c for k, v in p.terms.items()})
    assert _is_canonical(got), (got.num, got.den)


@pytest.mark.parametrize("terms", [{(-1, 0): 1}, {(1, 1): 2, (0, -2): 3}, {-1: 4}, {2: 1, -3: 1}])
def test_constructors_reject_negative_exponents(terms):
    with pytest.raises(ValueError, match="negative exponent"):
        (BiPoly if isinstance(next(iter(terms)), tuple) else UniPoly)(terms)


@given(same_kind_pairs)
@example((X * Fraction(1, 2), X * Fraction(1, 2)))  # equal denominators that cancel
@example((X * 3 + Y, Y * 5))
@settings(max_examples=100, deadline=None)
def test_sums_with_cancelling_keys_stay_canonical(pair):
    p, r = pair
    q = r - p  # p + q cancels every key of p that r lacks
    _checked(p + q, r.terms)
    _checked(q - r, (-p).terms)
    _checked(p - p, {})
    assert (p - p).den == 1


def test_zero_has_degree_minus_one():
    assert BiPoly().degree() == -1
    assert BiPoly.const(3).degree() == 0


def test_signed_digits_stop_at_the_count():
    acc = 3 - (5 << 8) + (2 << 16)  # the base-2^8 digits 3, -5, 2
    assert _signed_digits(acc, 8, 3) == {0: 3, 1: -5, 2: 2}
    assert _signed_digits(-acc, 8, 5) == {0: -3, 1: 5, 2: -2}
    assert _signed_digits(0, 8, 0) == {}
    for wide in (acc, -acc, 1 << 40, -(1 << 40)):
        with pytest.raises(ArithmeticError):
            _signed_digits(wide, 8, 2)


# --------------------------- row-packed products ---------------------------

wide_coefs = st.one_of(
    coefs,
    st.integers(-(2**460), 2**460),
    st.builds(Fraction, st.integers(-(2**420), 2**420), st.integers(1, 2**64)),
).filter(bool)


@st.composite
def dense_bipolys(draw, parity):
    """At least 16 terms and at least four per x row, so that a product of
    two takes the row-packed path.  parity 0 or 1 puts every y exponent on
    it (ft[i,m] is even in y, its swap odd); None mixes both."""
    xs = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True))
    width = -(-16 // len(xs))  # terms in each row
    terms = {}
    for xe in xs:
        ys = draw(st.lists(st.integers(0, 23), min_size=width, max_size=width + 4, unique=True))
        for ye in ys:
            terms[xe, ye if parity is None else 2 * ye + parity] = draw(wide_coefs)
    if parity is None:  # both parities, whatever the ys drawn
        terms[xs[0], 60] = terms[xs[-1], 61] = draw(wide_coefs)
    return BiPoly(terms)


dense_pairs = st.sampled_from([(0, 0), (0, 1), (1, 1), (None, 0), (1, None), (None, None)]).flatmap(
    lambda parities: st.tuples(*map(dense_bipolys, parities))
)


def _row(xe: int, ys, coef=lambda ye: ye + 1) -> BiPoly:
    return BiPoly({(xe, ye): coef(ye) for ye in ys})


_EVEN = _row(1, range(0, 32, 2)) + _row(3, range(0, 12, 2), lambda ye: -ye - 2)
_ODD = _row(2, range(1, 33, 2), lambda ye: Fraction(ye, 3)) + _row(0, range(1, 9, 2))
_TIGHT = _row(0, range(0, 32, 2), lambda ye: 1) + BiPoly.monomial(2**70 - 1, 5, 4)


def _spread(terms: int, rows: int) -> BiPoly:
    """terms terms dealt over rows x rows in turn, each coefficient nonzero."""
    return BiPoly({(k % rows, k // rows): k + 1 for k in range(terms)})


@given(dense_pairs)
@example((_EVEN + _ODD, _EVEN - _ODD))  # the cross terms cancel
@example((_EVEN * X, _ODD))  # even times odd, as in saito's product
@example((_row(4, range(20), lambda ye: (-1) ** ye * 2**400 + ye), _ODD))  # one row, 400 bits
@example((_row(0, [0]) + _row(1, range(0, 62, 2), lambda ye: Fraction(-7, ye + 2)), _EVEN))
@example((_EVEN, _EVEN * Fraction(1, 2**65) - BiPoly.monomial(3, 5, 1)))  # a mixed operand
@example((_spread(32, 16), _EVEN))  # mixed, with y in 0..1 only: not a parity of y >> 1
@example((_ODD, _spread(32, 16)))
# the packing bound is tight: output row 10 is the single product of the
# two x^5 terms, and its bound S_p(5)*S_q(5) is that product's magnitude
@example((_TIGHT, _TIGHT * -1))
@settings(max_examples=60, deadline=None)
def test_dense_row_products_are_packed_and_match_the_termwise_product(pair):
    p, q = pair
    with mock.patch.object(poly, "_packed_product", wraps=poly._packed_product) as packed:
        got = p * q
    assert packed.call_count == 1
    assert got.terms == termwise_product(p, q)
    assert _is_canonical(got)


@pytest.mark.parametrize("m", range(11))
def test_saito_and_defining_poly_operands_match_the_termwise_product(m):
    # the products saito_determinant and defining_poly take, in their order
    plus, minus = ff_linear_poly(XPY_FORM, m, 2 * m + 1), ff_linear_poly(XMY_FORM, m, 2 * m + 1)
    pairs = [
        (deformed_poly(0, m), deformed_poly(1, m).swap()),
        (plus, minus),
        (plus * minus, ff_poly("x", m, 2 * m + 1) * ff_poly("y", m, 2 * m + 1)),
    ]
    with mock.patch.object(poly, "_packed_product", wraps=poly._packed_product) as packed:
        products = [p * q for p, q in pairs]
    for got, (p, q) in zip(products, pairs):
        assert got.terms == termwise_product(p, q)
    assert packed.call_count == (3 if m >= 3 else 0)


@pytest.mark.parametrize(
    "p, q, packed",
    [
        (_spread(8, 4), _spread(32, 16), 1),  # at every bound
        (_spread(8, 5), _spread(32, 16), 0),  # fewer than two terms a row
        (_spread(32, 16), _spread(8, 5), 0),
        (_spread(7, 2), _spread(40, 4), 0),  # fewer than 8 terms
        (_spread(8, 4), _spread(31, 8), 0),  # fewer than 256 term pairs
        (_spread(16, 16), _spread(16, 1), 0),  # an x-only times a y-only factor
    ],
    ids=["at-the-bounds", "sparse-rows", "sparse-rows-right", "7-terms", "248-pairs", "outer"],
)
def test_the_packed_path_is_chosen_from_the_operand_shape(p, q, packed):
    # at least 8 terms each, at least 256 term pairs and on average at least
    # two terms per x row, in either order
    for a, b in ((p, q), (q, p)):
        with mock.patch.object(poly, "_packed_product", wraps=poly._packed_product) as spy:
            got = a * b
        assert spy.call_count == packed
        assert got.terms == termwise_product(a, b)
