"""Sparse exact polynomial arithmetic in one and two variables.

BiPoly is a sparse bivariate polynomial in x, y with rational
coefficients; UniPoly is its univariate counterpart (the variable is
positional, callers decide what it denotes); UniRatFunc is an unreduced
quotient of two UniPoly with equality tested by cross-multiplication.  All
values are immutable after construction and every operation returns a fresh
value, so everything here is safe to share across threads and to memoize;
`ff_unipoly` and `ff_poly` are memoized in the registry of `rational` and
hand out one shared value per argument tuple.

A UniPoly or BiPoly is stored as integer numerators over one positive
denominator with the common factor removed (`num`, `den`; the
content/primitive-part form), so all arithmetic and the falling-factorial
builders run in Python integers.  Every root substitution (`reduce_mod`,
`subst_value`, `first_remainder`) is one packed integer Horner loop,
`_subst_roots`.  Fraction is the coefficient type at every interface:
constructors take Fraction or int values, `UniPoly.coeff` returns Fraction,
and `.terms` is a Fraction view built on first use for text and tests.

The canonical text form (written for failure witnesses and the CLI; never parsed) is

    poly := "0" | term (" + " term)*
    term := coef [" * x^" int] [" * y^" int]
    coef := rational as "num/den", "/den" omitted when the denominator is 1

with terms ordered by decreasing x exponent, then decreasing y exponent.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping

from .rational import RatLike, _cached

Monomial = tuple[int, int]  # (x exponent, y exponent)


def _as_rat(value: RatLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


class _IntPoly:
    """Core shared by UniPoly and BiPoly: integer numerators over one denominator.

    `num` maps each exponent key to a nonzero int and `den` is a positive
    int with gcd(den, *num.values()) == 1, so every polynomial has exactly
    one representation and equality compares (num, den).  `.terms` is the
    same polynomial as key -> nonzero Fraction, built on first use.
    """

    __slots__ = ("num", "den", "_terms")

    def __init__(self, terms: Mapping | None = None):
        fracs = {k: _as_rat(c) for k, c in (terms or {}).items() if c}
        if any((min(k) if isinstance(k, tuple) else k) < 0 for k in fracs):
            raise ValueError("negative exponent")
        # Canonical already: no prime of the LCM divides every numerator.
        self.den = math.lcm(*[c.denominator for c in fracs.values()])
        self.num = {k: c.numerator * (self.den // c.denominator) for k, c in fracs.items()}
        self._terms = None

    @classmethod
    def _raw(cls, num: dict, den: int):
        """A cls from a (num, den) pair that is already canonical."""
        out = cls.__new__(cls)
        out.num, out.den, out._terms = num, den, None
        return out

    @classmethod
    def _canon(cls, num: dict, den: int):
        """A cls equal to num / den (den > 0): zeros dropped, gcd divided out."""
        num = {k: n for k, n in num.items() if n}
        g = math.gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {k: n // g for k, n in num.items()}
        return cls._raw(num, den)

    @classmethod
    def const(cls, c: RatLike):
        return cls({cls._ORIGIN: c})

    @property
    def terms(self) -> dict:
        """key -> nonzero Fraction; for text and tests."""
        if self._terms is None:
            den = self.den
            self._terms = {k: Fraction(n, den) for k, n in self.num.items()}
        return self._terms

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __neg__(self):
        return self._raw({k: -n for k, n in self.num.items()}, self.den)

    def _combine(self, other, sign: int):
        """self + sign*other over the least common denominator."""
        if self.den == other.den:
            acc, den, scale = dict(self.num), self.den, sign
        else:
            g = math.gcd(self.den, other.den)
            left, scale = other.den // g, self.den // g * sign
            acc, den = {k: n * left for k, n in self.num.items()}, self.den * left
        for k, n in other.num.items():
            acc[k] = acc.get(k, 0) + n * scale
        return self._canon(acc, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _scaled(self, c: RatLike):
        c = _as_rat(c)
        scaled = {k: n * c.numerator for k, n in self.num.items()}
        return self._canon(scaled, self.den * c.denominator)


class UniPoly(_IntPoly):
    """Sparse univariate polynomial in exponent -> coefficient form."""

    __slots__ = ()
    _ORIGIN = 0

    def __mul__(self, other: UniPoly | RatLike) -> UniPoly:
        if not isinstance(other, UniPoly):
            return self._scaled(other)
        # The operand with fewer terms outside: fewer inner loops to set up.
        a, b = (self.num, other.num) if len(self.num) <= len(other.num) else (other.num, self.num)
        acc: dict[int, int] = {}
        for e1, n1 in a.items():
            for e2, n2 in b.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + n1 * n2
        return UniPoly._canon(acc, self.den * other.den)

    __rmul__ = __mul__

    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return max(self.num, default=-1)

    def coeff(self, e: int) -> Fraction:
        return Fraction(self.num.get(e, 0), self.den)

    def as_bipoly(self, var: str) -> BiPoly:
        if var not in ("x", "y"):
            raise ValueError("var must be 'x' or 'y'")
        if var == "x":
            return BiPoly._raw({(e, 0): n for e, n in self.num.items()}, self.den)
        return BiPoly._raw({(0, e): n for e, n in self.num.items()}, self.den)

    def to_text(self, var: str = "y") -> str:
        return self.as_bipoly("x").to_text().replace("x", var)

    def __repr__(self) -> str:
        return f"UniPoly({self.to_text('v')!r})"


class BiPoly(_IntPoly):
    """Sparse bivariate polynomial in (x exp, y exp) -> coefficient form."""

    __slots__ = ()
    _ORIGIN = (0, 0)

    @classmethod
    def zero(cls) -> BiPoly:
        return cls()

    @classmethod
    def monomial(cls, c: RatLike, xe: int, ye: int) -> BiPoly:
        return cls({(xe, ye): c})

    def __add__(self, other: BiPoly) -> BiPoly:
        # Defined here too, so that BiPoly's addition can be instrumented alone.
        return self._combine(other, 1)

    def __mul__(self, other: BiPoly | RatLike) -> BiPoly:
        if not isinstance(other, BiPoly):
            return self._scaled(other)
        a, b = (self.num, other.num) if len(self.num) <= len(other.num) else (other.num, self.num)
        acc: dict[Monomial, int] = {}
        for (x1, y1), n1 in a.items():
            for (x2, y2), n2 in b.items():
                k = (x1 + x2, y1 + y2)
                acc[k] = acc.get(k, 0) + n1 * n2
        return BiPoly._canon(acc, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> BiPoly:
        if n < 0:
            raise ValueError("negative power")
        out = BiPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def degree(self) -> int:
        """Total degree, with the zero polynomial mapped to -1."""
        return max((xe + ye for xe, ye in self.num), default=-1)

    def swap(self) -> BiPoly:
        """Exchange x and y."""
        return BiPoly._raw({(ye, xe): n for (xe, ye), n in self.num.items()}, self.den)

    def subst_affine(self, var: str) -> BiPoly:
        """p with var replaced by -var: the terms odd in var change sign.  The
        name is the one the benchmark's tracer lists; once the tracer derives
        its names from the code, this can become `reflect`."""
        if var not in ("x", "y"):
            raise ValueError("var must be 'x' or 'y'")
        e = 0 if var == "x" else 1
        return BiPoly._raw({k: -n if k[e] & 1 else n for k, n in self.num.items()}, self.den)

    def subst_value(self, var: str, value: RatLike) -> UniPoly:
        """Substitute a constant for var; the result lives in the other variable."""
        if var not in ("x", "y"):
            raise ValueError("var must be 'x' or 'y'")
        return next(_subst_roots(self, var, 0, [_as_rat(value)]))

    def to_text(self) -> str:
        if not self.num:
            return "0"
        rendered = []
        # Keys are distinct, so this is decreasing x exponent, then decreasing y.
        for (xe, ye), c in sorted(self.terms.items(), reverse=True):
            parts = [str(c)]
            if xe:
                parts.append(f"x^{xe}")
            if ye:
                parts.append(f"y^{ye}")
            rendered.append(" * ".join(parts))
        return " + ".join(rendered)

    def __repr__(self) -> str:
        return f"BiPoly({self.to_text()!r})"


class LinearForm:
    """Hyperplane-style linear form x + b*y + c with b in {-1, 0, 1}."""

    __slots__ = ("b", "c")

    def __init__(self, b: int, c: RatLike = 0):
        if b not in (-1, 0, 1):
            raise ValueError("linear form needs b in {-1, 0, 1}")
        self.b = b
        self.c = _as_rat(c)

    def shifted(self, d: RatLike) -> LinearForm:
        return LinearForm(self.b, self.c + _as_rat(d))

    def as_poly(self) -> BiPoly:
        return BiPoly({(1, 0): 1, (0, 1): self.b, (0, 0): self.c})

    def reduce_mod(self, p: BiPoly) -> UniPoly:
        """Remainder of p modulo this form, univariate in y.

        x + b*y + c = 0 gives x = -b*y - c; substitute it.
        """
        return next(_subst_roots(p, "x", -self.b, [-self.c]))

    def __repr__(self) -> str:
        return f"LinearForm({self.b}, {self.c!r})"


def _subst_roots(p: BiPoly, var: str, slope: int, values: list[Fraction]) -> Iterator[UniPoly]:
    """p with var replaced by slope*v + value, v the other variable, for
    each value in turn.  In integers, with p = num / den and value = vn/vd,

        den * vd^top * result = sum_e (slope*vd*v + vn)^e * vd^(top-e) * num_e(v),

    num_e(v) the row of var^e.  The rows are packed once per batch as the
    integers num_e(2^B) (Kronecker substitution), Horner's rule over them
    gives the right side at v = 2^B in a few big-int operations per row, and
    its coefficients R_k are the signed base-2^B digits of that value if
    every |R_k| < 2^(B-1).  The coefficients of (slope*vd*v + vn)^e sum to
    at most (vd + |vn|)^e in absolute value (slope is 0 or +-1), so with
    S_e = sum_k |n_(e,k)|, |R_k| <= sum_e S_e * (vd + |vn|)^e * vd^(top-e);
    B is one more than the bit length of that sum with vd + |vn| and vd at
    their largest in the batch.
    """
    elim = 0 if var == "x" else 1
    top = max((key[elim] for key in p.num), default=0)
    sizes, rows = [0] * (top + 1), [0] * (top + 1)
    for key, n in p.num.items():
        sizes[key[elim]] += abs(n)
    reach = max((v.denominator + abs(v.numerator) for v in values), default=1)
    vd_max = max((v.denominator for v in values), default=1)
    bits = sum(s * reach**e * vd_max ** (top - e) for e, s in enumerate(sizes)).bit_length() + 1
    for key, n in p.num.items():
        rows[key[elim]] += n << (key[1 - elim] * bits)
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    for value in values:
        vn, vd = value.numerator, value.denominator
        lead, acc, scale = slope * vd, 0, 1
        for row in reversed(rows):
            acc = (acc * lead << bits) + acc * vn + row * scale
            scale *= vd
        out, k = {}, 0
        while acc:  # the lowest signed digit, in [-half, half), then the rest
            out[k] = digit = ((acc + half) & mask) - half
            acc, k = (acc - digit) >> bits, k + 1
        yield UniPoly._canon(out, p.den * vd**top)


def _times_linear(acc: list[int], lead: int, const: int) -> list[int]:
    """Coefficients, lowest first, of acc(v) * (lead*v + const)."""
    return [const * n + lead * prev for n, prev in zip(acc + [0], [0] + acc)]


X_FORM = LinearForm(0)
XPY_FORM = LinearForm(1)
XMY_FORM = LinearForm(-1)


def first_remainder(p: BiPoly, form: LinearForm, shift: RatLike, count: int) -> UniPoly | None:
    """First nonzero remainder of p modulo form+shift-j, j = 0..count-1."""
    roots = [-(form.c + shift - j) for j in range(count)]
    return next(filter(None, _subst_roots(p, "x", -form.b, roots)), None)


def split_cofactor(p: UniPoly, d: UniPoly) -> tuple[Fraction, UniPoly]:
    """Best constant lam for p = lam*d plus the residual p - lam*d."""
    lam = p.coeff(p.degree()) / d.coeff(d.degree()) if p and d else Fraction(0)
    return lam, p - d * lam


@_cached
def ff_poly(var: str, shift: RatLike, k: int) -> BiPoly:
    """Falling-factorial polynomial prod_{j=0}^{k-1} (var + shift - j), k >= 0."""
    return ff_unipoly(shift, k).as_bipoly(var)


def ff_linear_poly(form: LinearForm, shift: RatLike, k: int) -> BiPoly:
    """Falling-factorial product prod_{j=0}^{k-1} (form + shift - j), k >= 0."""
    if k < 0:
        raise ValueError("negative length")
    shift = _as_rat(shift)
    out = BiPoly.const(1)
    for j in range(k):
        out = out * form.shifted(shift - j).as_poly()
    return out


@_cached
def ff_unipoly(shift: RatLike, k: int) -> UniPoly:
    """Univariate falling-factorial product prod_{j=0}^{k-1} (v + shift - j).

    With shift = a/d this is prod_j (d*v + a - j*d) / d^k, built in integers
    one factor at a time.
    """
    if k < 0:
        raise ValueError("negative length")
    shift = _as_rat(shift)
    a, d = shift.numerator, shift.denominator
    acc = [1]
    for j in range(k):
        acc = _times_linear(acc, d, a - j * d)
    return UniPoly._canon(dict(enumerate(acc)), d**k)


# The denominator of every polynomial and zero UniRatFunc; shared, as
# polynomials are immutable.
_UNIT = UniPoly.const(1)


def _times(p: UniPoly, q: UniPoly) -> UniPoly:
    """p*q, skipping the product when either factor is the shared `_UNIT`."""
    return p if q is _UNIT else q if p is _UNIT else p * q


class UniRatFunc:
    """Quotient of univariate polynomials, kept unreduced.

    The denominator is never zero.  Equality is semantic, by
    cross-multiplication, so representations need not match.  Products
    with the shared `_UNIT` are skipped: p*1 is p, canonical already.
    """

    __slots__ = ("numer", "denom")

    def __init__(self, numer: UniPoly, denom: UniPoly = _UNIT):
        if not denom:
            raise ZeroDivisionError("zero denominator polynomial")
        if not numer:
            denom = _UNIT  # canonical zero keeps witnesses small
        self.numer = numer
        self.denom = denom

    @classmethod
    def zero(cls) -> UniRatFunc:
        return cls(UniPoly())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniRatFunc):
            return NotImplemented
        return not self.cross_diff(other)

    def cross_diff(self, other: UniRatFunc) -> UniPoly:
        """numer1*denom2 - numer2*denom1; zero iff the two values are equal."""
        return _times(self.numer, other.denom) - _times(other.numer, self.denom)

    def __add__(self, other: UniRatFunc) -> UniRatFunc:
        if self.denom == other.denom:
            return UniRatFunc(self.numer + other.numer, self.denom)
        return UniRatFunc(
            _times(self.numer, other.denom) + _times(other.numer, self.denom),
            _times(self.denom, other.denom),
        )

    def __mul__(self, other: UniRatFunc | UniPoly | RatLike) -> UniRatFunc:
        if isinstance(other, UniRatFunc):
            return UniRatFunc(_times(self.numer, other.numer), _times(self.denom, other.denom))
        return UniRatFunc(self.numer * other, self.denom)  # a UniPoly or a scalar

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"UniRatFunc({self.numer.to_text('v')!r}, {self.denom.to_text('v')!r})"


def ff_unirat(shift: RatLike, k: int) -> UniRatFunc:
    """Falling-factorial product extended to negative length.

    k >= 0 gives the polynomial prod (v + shift - j); k < 0 gives
    1 / prod_{j=0}^{|k|-1} (v + shift + |k| - j), a pure denominator.
    """
    if k >= 0:
        return UniRatFunc(ff_unipoly(shift, k))
    return UniRatFunc(_UNIT, ff_unipoly(_as_rat(shift) - k, -k))
