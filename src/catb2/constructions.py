"""Constructions for the candidate derivation basis of Cat(B2, m).

The family is indexed by (i, m) with p = 2m + i.  The integral polynomial

    f[i,m](x, y) = integral_0^x t^(2i) (t^2-x^2)^m (t^2-y^2)^m dt
                 = sum_{0<=k<=m} c[i,m,k] x^(2p-2k+1) y^(2k)

is deformed into its discrete analogue by replacing each monomial with
falling-factorial products of shifted variables:

    ft[i,m](x, y) = sum_{0<=k<=m} c[i,m,k] (x+p-k)_(2p-2k+1)
                                           (y+p-m)_k (y+m-p+k-1)_k.

The derivation ft[i,m](x,y)*dx + ft[i,m](y,x)*dy is the basis candidate;
everything else in this module is the expansion, recurrence, half-integer
evaluation, and determinant machinery that the checks in `checks` verify.

All functions are pure; the memo caches only short-circuit recomputation.
They sit in the one registry of `catb2.rational` (`_CACHES`, filled by
`_cached`, emptied by `clear_caches`), next to the memoized falling-factorial
builders of `rational` and `poly`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Callable

from .poly import (
    BiPoly,
    UniPoly,
    UniRatFunc,
    XMY_FORM,
    XPY_FORM,
    ff_linear_poly,
    ff_poly,
    ff_unipoly,
    ff_unirat,
    recurrence_sum,
)
from .rational import _cached, beta_half, binomial, falling_factorial, falling_factorial_pair

# Kept only for perfbench/run.py, which reads catb2.constructions._CACHES and .clear_caches.
from .rational import _CACHES, clear_caches  # noqa: F401


def _family_p(i: int, m: int) -> int:
    """p = 2m + i of the family member (i, m), whose indices must be nonnegative."""
    if i < 0 or m < 0:
        raise ValueError("family indices must be nonnegative")
    return 2 * m + i


@_cached
def integral_poly_coeff(i: int, m: int, k: int) -> Fraction:
    """Coefficient c[i,m,k] of x^(2p-2k+1) y^(2k) in the integral polynomial.

    Equals (1/2) binom(m, m-k) (-1)^(m-k) B(m-k+i+1/2, m+1).
    """
    _family_p(i, m)
    if not 0 <= k <= m:
        raise ValueError("k must satisfy 0 <= k <= m")
    u = m - k
    sign = -1 if u % 2 else 1
    return Fraction(sign, 2) * binomial(m, u) * beta_half(u, i, m)


def integral_poly(i: int, m: int) -> BiPoly:
    """f[i,m] by direct term-wise integration (independent expansion route).

    Expands (t^2-x^2)^m (t^2-y^2)^m by two binomial theorems and integrates
    each t power via integral_0^x t^(2J) dt = x^(2J+1)/(2J+1).
    """
    p = _family_p(i, m)
    acc = BiPoly()
    for a in range(m + 1):
        for b in range(m + 1):
            sign = -1 if (a + b) % 2 else 1
            c = Fraction(sign * binomial(m, a) * binomial(m, b), 2 * (i + a + b) + 1)
            acc = acc + BiPoly.monomial(c, 2 * (m - a) + 2 * (i + a + b) + 1, 2 * (m - b))
    assert acc.degree() == 2 * p + 1
    return acc


def poly_from_coeffs(i: int, m: int) -> BiPoly:
    """f[i,m] assembled from its closed-form coefficients c[i,m,k]."""
    p = _family_p(i, m)
    return BiPoly({(2 * p - 2 * k + 1, 2 * k): integral_poly_coeff(i, m, k) for k in range(m + 1)})


@_cached
def deformed_poly(i: int, m: int) -> BiPoly:
    """The falling-factorial deformation ft[i,m](x, y)."""
    p = _family_p(i, m)
    acc = BiPoly()
    for k in range(m + 1):
        y = ff_unipoly(p - m, k) * ff_unipoly(m - p + k - 1, k) * integral_poly_coeff(i, m, k)
        acc = acc + ff_poly("x", p - k, 2 * p - 2 * k + 1) * y.as_bipoly("y")
    return acc


@_cached
def deformed_term(i: int, m: int, u: int) -> BiPoly:
    """Summand u of the expansion 2*ft[i,m] = sum_{0<=u<=m} of these.

    Equals binom(m,u) (-1)^u B(u+i+1/2, m+1) (x+m+i+u)_(2m+2i+2u+1)
    (y+m+i)_(m-u) (y-i-u-1)_(m-u).
    """
    if not 0 <= u <= m:
        raise ValueError("u must satisfy 0 <= u <= m")
    sign = -1 if u % 2 else 1
    scalar = sign * binomial(m, u) * beta_half(u, i, m)
    y = ff_unipoly(m + i, m - u) * ff_unipoly(-i - u - 1, m - u) * scalar
    return ff_poly("x", m + i + u, 2 * m + 2 * i + 2 * u + 1) * y.as_bipoly("y")


def _suffix_sums(summands: list, zero: object) -> tuple:
    """Entry l = 0..n sums summands[l:] and entry n+1 is `zero`, built leftwards
    from the last summand as summands[l] + entry l+1, so no sum adds the zero."""
    tails = accumulate(reversed(summands), lambda tail, term: term + tail)
    return (*reversed(list(tails)), zero)


@_cached
def deformed_tail(i: int, m: int) -> tuple[BiPoly, ...]:
    """Expansion tails: entry l = 0..m+1 sums the summands u = l..m."""
    return _suffix_sums([deformed_term(i, m, u) for u in range(m + 1)], BiPoly())


def recurrence_quad(i: int, m: int) -> BiPoly:
    """x^2 + y^2 - (i+m+1)^2 - i^2, the middle coefficient of the recurrence at (i, m)."""
    return BiPoly._canon({(2, 0): 1, (0, 2): 1, (0, 0): -((i + m + 1) ** 2 + i * i)}, 1)


def recurrence_combo(
    value: Callable[[int, int], BiPoly | UniRatFunc], i: int, m: int, quad: BiPoly | UniPoly
) -> BiPoly | UniRatFunc:
    """The family's three-term recurrence applied to X[a,b] = value(a, b):

    -2*X[i+1,m] + quad*X[i,m] - (2i-1)/(2m+2)*X[i-1,m+1], defined for i >= 1.

    quad is `recurrence_quad(i, m)`, or that quadratic at a fixed x.  The
    combination vanishes on ft (prop1) and on V = ft + ft.swap() (the
    v-recurrence); `tail_closed` and `halfint_closed` give it on the tails.
    Polynomials, and rational functions over one denominator, are summed in
    one pass (`recurrence_sum`); values over different denominators, which
    only a fault produces, take the operator chain, so a witness keeps the
    (numer, denom) that chain gives.
    """
    if i < 1:
        raise ValueError("index i-1 undefined")
    a, b, c = value(i + 1, m), value(i, m) * quad, value(i - 1, m + 1)
    s = Fraction(1 - 2 * i, 2 * m + 2)
    if isinstance(a, BiPoly):
        return recurrence_sum(a, b, c, s)
    if a.denom == b.denom == c.denom:
        return UniRatFunc(recurrence_sum(a.numer, b.numer, c.numer, s), a.denom)
    return a * -2 + b + c * s


def tail_combo(i: int, m: int, l: int) -> BiPoly:
    """`recurrence_combo` of the expansion tails S[a,b,l+b-m] = deformed_tail(a,b)[l+b-m];
    `tail_closed` gives its closed form."""
    if not 0 <= l <= m + 1:
        raise ValueError("l must satisfy 0 <= l <= m+1")
    quad = recurrence_quad(i, m)
    return recurrence_combo(lambda a, b: deformed_tail(a, b)[l + b - m], i, m, quad)


def tail_closed(i: int, m: int, l: int) -> BiPoly:
    """Closed form of `tail_combo`; zero for l outside 0..m, where binom(m, l) = 0.

    binom(m,l) (-1)^l B(l+i+1/2, m+1) {y^2 + l(2m+2i+l+2) - i^2}
    (x+m+i+l)_(2m+2i+2l+1) (y+m+i)_(m-l) (y-i-l-1)_(m-l).
    """
    b = binomial(m, l)
    if b == 0:
        return BiPoly()
    sign = -1 if l % 2 else 1
    scalar = sign * b * beta_half(l, i, m)
    quad = UniPoly._canon({2: 1, 0: l * (2 * m + 2 * i + l + 2) - i * i}, 1)
    y = quad * ff_unipoly(m + i, m - l) * ff_unipoly(-i - l - 1, m - l) * scalar
    return ff_poly("x", m + i + l, 2 * m + 2 * i + 2 * l + 1) * y.as_bipoly("y")


def telescope_cleared_sides(a: int, b: int) -> tuple[UniPoly, UniPoly]:
    """Both sides of sum_{t>=a} (b+t)_(2t)/(z+t)_(2t+2), cleared of denominators.

    The sum truncates at t = b since (b+t)_(2t) vanishes for t > b, and it
    equals (b+a)_(2a) / ((z+b)(z+a-1)_(2a)(z-b-1)).  Multiplying both sides
    by (z+b)_(2b+2) leaves polynomials of degree <= 2b+2:
    (z+b)_(2b+2)/(z+t)_(2t+2) = (z+b)_(b-t)(z-t-2)_(b-t) for t <= b, and the
    right side clears to (b+a)_(2a)(z+b-1)_(b-a)(z-a-1)_(b-a).
    For a > b both sides are identically zero.
    """
    if a < 0 or b < 0:
        raise ValueError("a, b must be nonnegative")
    if a > b:
        return UniPoly(), UniPoly()
    lhs = UniPoly()
    for t in range(a, b + 1):
        term = ff_unipoly(b, b - t) * ff_unipoly(-t - 2, b - t)
        lhs = lhs + term * falling_factorial(b + t, 2 * t)
    rhs = ff_unipoly(b - 1, b - a) * ff_unipoly(-a - 1, b - a)
    rhs = rhs * falling_factorial(b + a, 2 * a)
    return lhs, rhs


@_cached
def halfint_term(i: int, m: int, k: int, t: int) -> UniRatFunc:
    """Summand of the half-integer evaluation series, in the variable y.

    -(i-1/2)_(2i+m-k) (y+m-k-1/2)_(2m-2k) (m+t)_m (k+t)_(2t)
    (i+2m+t+1/2)_t (i+m+k+1/2)_(k-t) (y+m+k+1/2)_(k-t) (y-m-t-3/2)_(k-t).

    Negative-length falling factorials (k > m, or k > 2i+m) move to the
    denominator, so the value is a rational function of y in general.  The
    scalar is one product of integer pairs, made a Fraction once.
    """
    if min(i, m, k, t) < 0 or t > k:
        raise ValueError("need i, m, k >= 0 and 0 <= t <= k")
    # Integer factors go through `falling_factorial`, which mutation tests patch.
    num, den = map(math.prod, zip(
        falling_factorial_pair(2 * i - 1, 2, 2 * i + m - k),
        falling_factorial(m + t, m).as_integer_ratio(),
        falling_factorial(k + t, 2 * t).as_integer_ratio(),
        falling_factorial_pair(2 * (i + 2 * m + t) + 1, 2, t),
        falling_factorial_pair(2 * (i + m + k) + 1, 2, k - t),
    ))
    return _halfint_y_factor(m, k, t) * Fraction(-num, den)


@_cached
def _halfint_y_factor(m: int, k: int, t: int) -> UniRatFunc:
    """(y+m-k-1/2)_(2m-2k) (y+m+k+1/2)_(k-t) (y-m-t-3/2)_(k-t), the factor of
    `halfint_term` and `halfint_closed` (at t = l) that does not depend on i."""
    out = ff_unirat(Fraction(2 * (m - k) - 1, 2), 2 * m - 2 * k)
    out = out * ff_unipoly(Fraction(2 * (m + k) + 1, 2), k - t)
    return out * ff_unipoly(Fraction(-2 * (m + t) - 3, 2), k - t)


@_cached
def _halfint_nest(n: int) -> tuple[UniPoly, UniPoly, UniPoly]:
    """(q, D[m+1,k], D[m+1,k]*q) for n = k-m >= 1: the denominators
    D[m,k] = (y+n-1/2)_(2n) of the half-integer values at (m, k) nest as
    D[m,k] = D[m+1,k]*q, with q = y^2 - (n-1/2)^2."""
    q = UniPoly({2: 1, 0: -Fraction(2 * n - 1, 2) ** 2})
    below = ff_unipoly(Fraction(2 * n - 3, 2), 2 * n - 2)
    return q, below, below * q


@_cached
def halfint_tail(i: int, m: int, k: int) -> tuple[UniRatFunc, ...]:
    """Half-integer tails: entry l = 0..k+1 sums the summands t = l..k.  Each
    lies over D[m,k] (1 for k <= m), so every sum adds numerators."""
    return _suffix_sums([halfint_term(i, m, k, t) for t in range(k + 1)], UniRatFunc(UniPoly()))


def halfint_quad(i: int, m: int, k: int) -> UniPoly:
    """`recurrence_quad(i, m)` at x = -1/2-k: y^2 + (k+1/2)^2 - (i+m+1)^2 - i^2."""
    return UniPoly._canon({2: 4, 0: (2 * k + 1) ** 2 - 4 * ((i + m + 1) ** 2 + i * i)}, 4)


def halfint_combo(i: int, m: int, k: int, l: int) -> UniRatFunc:
    """`recurrence_combo` of the half-integer tails U[a,b,k,l] = halfint_tail(a,b,k)[l].

    For k > m the tails at (m, k) lie over D[m,k] and the one at (m+1, k)
    over D[m+1,k] = D[m,k]/q, q from `_halfint_nest(k-m)`.  That tail is
    written over D[m+1,k]*q, the same value, so every sum in the combination
    (and its difference with `halfint_closed`) adds numerators over one
    denominator; values off it are cross-multiplied as usual.
    """
    if not 0 <= l <= k + 1:
        raise ValueError("l must satisfy 0 <= l <= k+1")

    def tail(a: int, b: int) -> UniRatFunc:
        u = halfint_tail(a, b, k)[l]
        if b == m or k <= m:
            return u
        q, below, shared = _halfint_nest(k - m)
        return UniRatFunc(u.numer * q, shared if u.denom == below else u.denom * q)

    return recurrence_combo(tail, i, m, halfint_quad(i, m, k))


def halfint_closed(i: int, m: int, k: int, l: int) -> UniRatFunc:
    """Closed form of `halfint_combo`; zero at l = 0 and for l > k.

    (m+l)_(m+1)/(m+1) (k+l)_(2l) (i-1/2)_(2i+m-k) (i+m+k+1/2)_(k-l)
    (i+2m+l+1/2)_(l-1) (y+m+k+1/2)_(k-l) (y+m-k-1/2)_(2m-2k)
    (y-m-l-3/2)_(k-l) {(y^2-i^2)(i+3m+l+5/2)
                       + (i+m+l+1/2)(i+m-k+1/2)(i+m+k+3/2)}.
    The scalar (as in `halfint_term`) and 1/8 scale the integer brace times 8 first.
    """
    if not 0 <= l <= k + 1:
        raise ValueError("l must satisfy 0 <= l <= k+1")
    num, den = map(math.prod, zip(
        falling_factorial(m + l, m + 1).as_integer_ratio(),
        falling_factorial(k + l, 2 * l).as_integer_ratio(),
        falling_factorial_pair(2 * i - 1, 2, 2 * i + m - k),
        falling_factorial_pair(2 * (i + m + k) + 1, 2, k - l),
        falling_factorial_pair(2 * (i + 2 * m + l) + 1, 2, l - 1),
    ))
    if num == 0:
        # (m+l)_(m+1) = 0 at l = 0 and (k+l)_(2l) = 0 for l > k; stop before
        # the y factors, whose length k-l may be negative at l = k+1.
        return UniRatFunc(UniPoly())
    slope = 2 * (i + 3 * m + l + 2) + 1  # twice i+3m+l+5/2
    offset = (2 * (i + m + l) + 1) * (2 * (i + m - k) + 1) * (2 * (i + m + k + 1) + 1)
    brace = UniPoly._canon({2: 4 * slope, 0: offset - 4 * i * i * slope}, 1)
    return _halfint_y_factor(m, k, l) * (brace * Fraction(num, 8 * (m + 1) * den))


@_cached
def defining_poly(m: int) -> BiPoly:
    """Defining polynomial of Cat(B2, m):

    (x+m)_(2m+1) (y+m)_(2m+1) (x+y+m)_(2m+1) (x-y+m)_(2m+1).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = ff_linear_poly(XPY_FORM, m, 2 * m + 1) * ff_linear_poly(XMY_FORM, m, 2 * m + 1)
    return out * (ff_poly("x", m, 2 * m + 1) * ff_poly("y", m, 2 * m + 1))


def saito_determinant(m: int) -> BiPoly:
    """ft[0,m](x,y)*ft[1,m](y,x) - ft[0,m](y,x)*ft[1,m](x,y).

    Exchanging x and y is a ring automorphism, so the second product is the
    first one swapped: with P = ft[0,m](x,y)*ft[1,m](y,x) this is P - P.swap().
    """
    product = deformed_poly(0, m) * deformed_poly(1, m).swap()
    return product - product.swap()


def saito_constant(m: int) -> Fraction:
    """The constant C with determinant = C * defining_poly(m):

    C = -c[0,m,m] * c[1,m,0].
    """
    return -integral_poly_coeff(0, m, m) * integral_poly_coeff(1, m, 0)


def even_moment(a: int, n: int) -> Fraction:
    """integral_0^1 t^(2a) (1-t^2)^n dt for a, n >= 0, expanded binomially
    and integrated term by term: sum_j (-1)^j C(n, j) / (2a+2j+1)."""
    return sum(Fraction((-1) ** j * binomial(n, j), 2 * a + 2 * j + 1) for j in range(n + 1))


def saito_constant_integral(m: int) -> Fraction:
    """C evaluated through the two one-variable integrals:

    C = -(-1)^m integral_0^1 (1-s^2)^m ds * integral_0^1 s^(2m+2)(1-s^2)^m ds.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return -(-1) ** m * even_moment(0, m) * even_moment(m + 1, m)


def basis_derivation(i: int, m: int) -> tuple[BiPoly, BiPoly]:
    """The candidate basis member ft[i,m](x,y)*dx + ft[i,m](y,x)*dy, as the
    pair of its coefficients (ft[i,m](x,y), ft[i,m](y,x))."""
    f = deformed_poly(i, m)
    return f, f.swap()
