"""Polynomial kernel: arithmetic, builders, substitution, division."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catb2.poly import (
    _UNIT,
    X_FORM,
    XMY_FORM,
    XPY_FORM,
    BiPoly,
    LinearForm,
    UniPoly,
    UniRatFunc,
    _subst_roots,
    ff_linear_poly,
    ff_poly,
    ff_unipoly,
    ff_unirat,
    first_remainder,
    split_cofactor,
)
from oracles import divrem_linear, subst_affine

X = BiPoly.monomial(1, 1, 0)
Y = BiPoly.monomial(1, 0, 1)

coefs = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
monomials = st.tuples(st.integers(0, 5), st.integers(0, 5))
bipolys = st.dictionaries(monomials, coefs, max_size=6).map(BiPoly)
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


def test_pow():
    assert (X + Y) ** 2 == X * X + X * Y * 2 + Y * Y


def test_ff_poly_single():
    assert ff_poly("x", 0, 1) == X


def test_ff_poly_cubic():
    assert ff_poly("x", 1, 3) == X**3 - X


def test_ff_poly_half_shift():
    expected = Y * Y - Y * 2 + BiPoly.const(Fraction(3, 4))
    assert ff_poly("y", Fraction(-1, 2), 2) == expected


def test_ff_linear_poly():
    s = XPY_FORM.as_poly()
    assert ff_linear_poly(XPY_FORM, 0, 1) == s
    assert ff_linear_poly(XPY_FORM, 1, 3) == (s + BiPoly.const(1)) * s * (s - BiPoly.const(1))
    assert ff_linear_poly(XMY_FORM, 0, 1) == X - Y


def test_swap():
    assert BiPoly.monomial(1, 2, 1).swap() == BiPoly.monomial(1, 1, 2)
    assert (X + Y).swap() == X + Y
    assert (X**3 - Y).swap() == Y**3 - X


def test_subst_affine_collapse():
    assert not subst_affine(X + Y, "y", -1, "x")


def test_subst_affine_shifted():
    got = subst_affine(X * X - Y * Y, "y", -1, "x", -1)
    assert got == X * (-2) - BiPoly.const(1)


def test_subst_same_variable_negation():
    f = X**3 - X
    assert f.subst_affine("x") == -f


@given(bipolys, st.sampled_from(["x", "y"]))
@settings(max_examples=60, deadline=None)
def test_sign_flip_matches_the_power_rebuilding_substitution(p, var):
    assert p.subst_affine(var) == subst_affine(p, var, -1, var)


def test_sign_flip_rejects_an_unknown_variable():
    with pytest.raises(ValueError):
        (X + Y).subst_affine("z")


def test_subst_value():
    got = (X * X * Y).subst_value("x", Fraction(-1, 2))
    assert got == UniPoly({1: Fraction(1, 4)})


def test_divrem_difference_of_squares():
    q, r = divrem_linear(X * X - Y * Y, XPY_FORM)
    assert q == X - Y
    assert not r


def test_divrem_single_variable():
    q, r = divrem_linear(X, XPY_FORM)
    assert q == BiPoly.const(1)
    assert r == UniPoly({1: -1})  # -y


@given(bipolys, forms, shifts)
@settings(max_examples=60, deadline=None)
def test_divrem_reconstruction(p, form, shift):
    f = form.shifted(shift)
    q, r = divrem_linear(p, f)
    assert q * f.as_poly() + r.as_bipoly("y") == p


def test_divisible_by_falling_product_examples():
    assert first_remainder(X * X - Y * Y, XPY_FORM, 0, 1) is None
    assert first_remainder(X + Y + BiPoly.const(1), XPY_FORM, 0, 1) == UniPoly.const(1)
    p = ff_linear_poly(XPY_FORM, 1, 3)
    assert first_remainder(p, XPY_FORM, 1, 3) is None


@given(bipolys, forms, shifts, st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_divisibility_of_constructed_multiples(p, form, shift, k):
    product = p * ff_linear_poly(form, shift, k)
    assert first_remainder(product, form, shift, k) is None


@given(bipolys, bipolys)
@settings(max_examples=60, deadline=None)
def test_substitution_is_a_homomorphism(p, q):
    def image(f):
        return subst_affine(f, "y", -1, "x", Fraction(-2))

    assert image(p * q) == image(p) * image(q)
    assert image(p + q) == image(p) + image(q)


def test_constant_cofactor():
    x = UniPoly({1: 1})
    d = x * (x - UniPoly.const(1))
    assert split_cofactor(d * 2, d) == (2, UniPoly())
    assert split_cofactor(UniPoly(), x) == (0, UniPoly())


def test_constant_cofactor_rejects_nonmultiple():
    x = UniPoly({1: 1})
    lam, residual = split_cofactor(x * x + UniPoly.const(1), x)
    assert residual  # no constant multiple of x equals x^2 + 1
    assert (lam, residual) == (1, x * x - x + UniPoly.const(1))


def test_unipoly_degree_and_eval():
    p = ff_unipoly(1, 3)  # (v+1)v(v-1)
    assert p.degree() == 3
    assert p.as_bipoly("x").subst_value("x", 2) == UniPoly.const(6)
    assert UniPoly().degree() == -1


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


def test_unirat_unit_skips_match_plain_products():
    """Sums, products and cross differences that skip the shared `_UNIT`
    leave the same (numer, denom) as the plain products would."""
    v = UniPoly({1: 1})
    one = UniPoly.const(1)
    assert one == _UNIT and one is not _UNIT  # a unit that is not the shared one
    numers = [UniPoly(), _UNIT, one, v + one, v * Fraction(2, 3), v * v - one * 4]
    denoms = [_UNIT, one, v - one * Fraction(1, 2), v * v * 3 + one]
    values = [UniRatFunc(n, d) for n in numers for d in denoms]
    for a, b in itertools.product(values, repeat=2):
        if a.denom == b.denom:
            plain_sum = UniRatFunc(a.numer + b.numer, a.denom)
        else:
            plain_sum = UniRatFunc(a.numer * b.denom + b.numer * a.denom, a.denom * b.denom)
        assert _parts(a + b) == _parts(plain_sum), (a, b)
        plain_product = UniRatFunc(a.numer * b.numer, a.denom * b.denom)
        assert _parts(a * b) == _parts(plain_product), (a, b)
        assert a.cross_diff(b) == a.numer * b.denom - b.numer * a.denom, (a, b)
        assert (a == b) == (not a.numer * b.denom - b.numer * a.denom), (a, b)
    for a, p in itertools.product(values, numers):
        assert _parts(a * p) == _parts(UniRatFunc(a.numer * p, a.denom)), (a, p)


def test_linear_form_validation():
    with pytest.raises(ValueError):
        LinearForm(2)
    with pytest.raises(ValueError):
        LinearForm(-2, 1)
    with pytest.raises(ValueError):
        LinearForm(Fraction(1, 2), 0)


def test_linear_form_reduce_mod():
    # x + y - 1 = 0: substitute x = 1 - y into x^2
    rem = LinearForm(1, -1).reduce_mod(X * X)
    assert rem == UniPoly({2: 1, 1: -2, 0: 1})


def _is_clean(p) -> bool:
    """The .terms invariant: only nonzero Fraction values."""
    return all(type(c) is Fraction and c for c in p.terms.values())


@given(bipolys, y_coefs, form_shifts)
@settings(max_examples=150, deadline=None)
def test_reduce_mod_matches_independent_routes(p, b, c):
    form = LinearForm(b, c)
    rem = form.reduce_mod(p)
    assert _is_clean(rem)
    assert rem == divrem_linear(p, form)[1]  # long division
    if b:  # x = -b*y - c through the power-rebuilding substitution
        assert rem.as_bipoly("y") == subst_affine(p, "x", -b, "y", -c)


@given(
    bipolys,
    st.sampled_from([XPY_FORM, XMY_FORM]),
    st.integers(-8, 8).map(lambda n: Fraction(n, 2)),
    st.integers(0, 5),
    st.integers(0, 5),
)
@example(X + Y, XPY_FORM, Fraction(0), 3, 1)  # first nonzero at j = 1
@example(X * Y + BiPoly.const(1), XMY_FORM, Fraction(3, 2), 4, 3)
@settings(max_examples=150, deadline=None)
def test_first_remainder_is_the_first_nonzero_long_division(p, form, shift, count, vanish):
    # The factor makes the remainders at j < vanish zero, so the first
    # nonzero one comes at a later shift.
    p = p * ff_linear_poly(form, shift, vanish)
    expected = None
    for j in range(count):
        rem = divrem_linear(p, form.shifted(shift - j))[1]
        if rem:
            expected = rem
            break
    got = first_remainder(p, form, shift, count)
    assert got == expected
    if got is not None:
        assert _is_canonical(got) and _is_clean(got)


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
@example(X**5 + BiPoly.const(1000), Fraction(-1, 7), 2, 0)
@settings(max_examples=150, deadline=None)
def test_slope_zero_batches_match_fraction_evaluation(p, shift, count, vanish):
    # Modulo x + shift - j the remainder is p at x = j - shift: a batch of
    # non-integer roots through the packed loop with slope 0.  The factor
    # zeroes the first `vanish` roots, so later ones are reached.
    p = p * ff_poly("x", shift, vanish)
    roots = [j - shift for j in range(count)]
    expected = next(filter(None, (_naive_at_x(p, r) for r in roots)), None)
    assert first_remainder(p, X_FORM, shift, count) == expected
    # The same batch with the root 0 added and mixed denominators, every root read.
    roots += [Fraction(0), Fraction(count)]
    assert list(_subst_roots(p, "x", 0, roots)) == [_naive_at_x(p, r) for r in roots]


def test_first_remainder_of_an_empty_scan_is_none():
    for form in (X_FORM, XPY_FORM, XMY_FORM):
        assert first_remainder(X + BiPoly.const(1), form, 0, 0) is None
        assert first_remainder(BiPoly(), form, Fraction(1, 2), 0) is None


@pytest.mark.parametrize("n", [1, -1, 3, -3, 7, -7, 2**70 - 1, -(2**70 - 1)])
def test_remainder_at_the_packing_bound(n):
    # For n*x^xe*y^ye modulo x+-y+c, with c = 0 (or any c when xe = 0), the
    # remainder has the single coefficient +-n, and |n| is exactly the bound
    # sum_e S_e*(vd+|vn|)^e*vd^(top-e) that sets the width of the packing.
    exponents = [(0, 0), (0, 3), (1, 0), (2, 1), (5, 2)]
    for form, (xe, ye) in itertools.product((XPY_FORM, XMY_FORM), exponents):
        p = BiPoly.monomial(n, xe, ye)
        for c in [Fraction(0)] if xe else [Fraction(0), Fraction(-5, 2), Fraction(7)]:
            expected = divrem_linear(p, form.shifted(c))[1]
            assert expected.num == {xe + ye: n * (-form.b) ** xe}
            assert form.shifted(c).reduce_mod(p) == expected, (form, xe, ye, c)
            assert first_remainder(p, form, c, 1) == expected, (form, xe, ye, c)


def _naive_product(p, q) -> dict:
    acc = {}
    for k1, c1 in p.terms.items():
        for k2, c2 in q.terms.items():
            k = (k1[0] + k2[0], k1[1] + k2[1]) if isinstance(k1, tuple) else k1 + k2
            acc[k] = acc.get(k, Fraction(0)) + c1 * c2
    return {k: c for k, c in acc.items() if c}


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
    assert got.terms == _naive_product(p, q)
    assert _is_clean(got)


@given(unipolys, unipolys)
@example(
    UniPoly({1: Fraction(1, 2), 0: Fraction(1, 3)}),
    UniPoly({1: Fraction(1, 2), 0: Fraction(-1, 3)}),
)
@settings(max_examples=100, deadline=None)
def test_unipoly_mul_matches_fraction_double_loop(p, q):
    got = p * q
    assert got.terms == _naive_product(p, q)
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
    _checked(p * q, _naive_product(p, q))
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
    _checked(p * q, _naive_product(p, q))


@given(bipolys, y_coefs, form_shifts, st.sampled_from(["x", "y"]), form_shifts)
@settings(max_examples=100, deadline=None)
def test_substitutions_stay_canonical(p, b, c, var, value):
    form = LinearForm(b, c)
    _checked(form.reduce_mod(p), divrem_linear(p, form)[1].terms)
    naive: dict = {}
    for (xe, ye), v in p.terms.items():
        e, keep = (xe, ye) if var == "x" else (ye, xe)
        naive[keep] = naive.get(keep, Fraction(0)) + v * value**e
    _checked(p.subst_value(var, value), {k: v for k, v in naive.items() if v})
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
    got = p.subst_value("x", value)
    assert _is_canonical(got), (got.num, got.den)
    assert got == divrem_linear(p, X_FORM.shifted(-value))[1]
    got = p.subst_value("y", value)
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
