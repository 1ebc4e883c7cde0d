"""Sparse exact polynomial arithmetic in one and two variables.

BiPoly is a sparse bivariate polynomial in x, y with rational
coefficients; UniPoly is its univariate counterpart (the variable is
positional, callers decide what it denotes); UniRatFunc is an unreduced
quotient of two UniPoly with equality tested by cross-multiplication.  All
values are immutable after construction and every operation returns a fresh
value, so everything here is safe to share across threads and to memoize.

A UniPoly or BiPoly is stored as integer numerators over one positive
denominator with the common factor removed (`num`, `den`; the
content/primitive-part form), so all arithmetic, root substitution
(`reduce_mod`, `subst_value`) and the falling-factorial builders run in
Python integers.  Fraction is the coefficient type at every interface:
constructors take Fraction or int values, `coeff` returns Fraction, and
`.terms` is a Fraction view built on first use for text and tests.

The canonical text form (written for failure witnesses and the CLI; never parsed) is

    poly := "0" | term (" + " term)*
    term := coef [" * x^" int] [" * y^" int]
    coef := rational as "num/den", "/den" omitted when the denominator is 1

with terms ordered by decreasing x exponent, then decreasing y exponent.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .rational import RatLike

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
        acc: dict[int, int] = {}
        for e1, n1 in self.num.items():
            for e2, n2 in other.num.items():
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

    @classmethod
    def var(cls, name: str) -> BiPoly:
        if name == "x":
            return cls({(1, 0): 1})
        if name == "y":
            return cls({(0, 1): 1})
        raise ValueError("var must be 'x' or 'y'")

    def __add__(self, other: BiPoly) -> BiPoly:
        # Defined here too, so that BiPoly's addition can be instrumented alone.
        return self._combine(other, 1)

    def __mul__(self, other: BiPoly | RatLike) -> BiPoly:
        if not isinstance(other, BiPoly):
            return self._scaled(other)
        acc: dict[Monomial, int] = {}
        for (x1, y1), n1 in self.num.items():
            for (x2, y2), n2 in other.num.items():
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

    def coeff(self, xe: int, ye: int) -> Fraction:
        return Fraction(self.num.get((xe, ye), 0), self.den)

    def degree(self) -> int:
        """Total degree, with the zero polynomial mapped to -1."""
        return max((xe + ye for xe, ye in self.num), default=-1)

    def homogeneous_part(self, d: int) -> BiPoly:
        return BiPoly._canon({k: n for k, n in self.num.items() if sum(k) == d}, self.den)

    def swap(self) -> BiPoly:
        """Exchange x and y."""
        return BiPoly._raw({(ye, xe): n for (xe, ye), n in self.num.items()}, self.den)

    def subst_affine(self, var: str, sign: int, target: str, shift: RatLike = 0) -> BiPoly:
        """Substitute var -> sign*target + shift (target may equal var).

        Rebuilds every power of the image, independently of `reduce_mod`:
        with shift = sn/sd and b = sign*sd*target + sn (integer coefficients),
        p(image) = sum_e p_e * sd^(top-e) * b^e / (den * sd^top).
        """
        if var not in ("x", "y") or sign not in (1, -1):
            raise ValueError("bad substitution image")
        shift = _as_rat(shift)
        sd = shift.denominator
        base = BiPoly.var(target) * (sign * sd) + BiPoly.const(shift.numerator)
        top = max((k[0] if var == "x" else k[1] for k in self.num), default=0)
        pows = [BiPoly.const(1)]  # all with den 1, like base
        for _ in range(top):
            pows.append(pows[-1] * base)
        acc: dict[Monomial, int] = {}
        for (xe, ye), n in self.num.items():
            ve, keep = (xe, ye) if var == "x" else (ye, xe)
            n *= sd ** (top - ve)
            for (px, py), pn in pows[ve].num.items():
                k = (px, py + keep) if var == "x" else (px + keep, py)
                acc[k] = acc.get(k, 0) + n * pn
        return BiPoly._canon(acc, self.den * sd**top)

    def subst_value(self, var: str, value: RatLike) -> UniPoly:
        """Substitute a constant for var; the result lives in the other variable."""
        if var not in ("x", "y"):
            raise ValueError("var must be 'x' or 'y'")
        return _subst_root(self, var, 0, _as_rat(value))

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
    """Hyperplane-style linear form a*x + b*y + c with a in {-1, 1}, b in {-1, 0, 1}."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: RatLike = 0):
        if a not in (-1, 1) or b not in (-1, 0, 1):
            raise ValueError("linear form needs a unit x coefficient and b in {-1, 0, 1}")
        self.a = a
        self.b = b
        self.c = _as_rat(c)

    def shifted(self, d: RatLike) -> LinearForm:
        return LinearForm(self.a, self.b, self.c + _as_rat(d))

    def as_poly(self) -> BiPoly:
        return BiPoly({(1, 0): self.a, (0, 1): self.b, (0, 0): self.c})

    def reduce_mod(self, p: BiPoly) -> UniPoly:
        """Remainder of p modulo this form, univariate in y.

        a*x + b*y + c = 0 gives x = -a*b*y - a*c (a is a unit); substitute it.
        """
        return _subst_root(p, "x", -self.a * self.b, -self.a * self.c)

    def __repr__(self) -> str:
        return f"LinearForm({self.a}, {self.b}, {self.c!r})"


def _subst_root(p: BiPoly, var: str, slope: int, value: Fraction) -> UniPoly:
    """p with var replaced by slope*v + value, v the other variable.

    A Taylor shift by Horner's rule over the rows p_e(v) of var^e, in
    integers: with p = num / den and value = vn/vd,

        den * vd^top * result = sum_e (slope*vd*v + vn)^e * vd^(top-e) * num_e(v).
    """
    elim = 0 if var == "x" else 1
    rows: dict[int, dict[int, int]] = {}
    for key, n in p.num.items():
        rows.setdefault(key[elim], {})[key[1 - elim]] = n
    top = max(rows, default=0)
    lead, vn, vd = slope * value.denominator, value.numerator, value.denominator
    acc: list[int] = []
    scale = 1  # vd^(top-e)
    for e in range(top, -1, -1):
        acc = _times_linear(acc, lead, vn)
        row = rows.get(e)
        if row:
            acc.extend([0] * (max(row) + 1 - len(acc)))
            for k, n in row.items():
                acc[k] += n * scale
        scale *= vd
    return UniPoly._canon(dict(enumerate(acc)), p.den * vd**top)


def _times_linear(acc: list[int], lead: int, const: int) -> list[int]:
    """Coefficients, lowest first, of acc(v) * (lead*v + const)."""
    return [const * n + lead * prev for n, prev in zip(acc + [0], [0] + acc)]


X_FORM = LinearForm(1, 0)
XPY_FORM = LinearForm(1, 1)
XMY_FORM = LinearForm(1, -1)


def divrem_linear(p: BiPoly, form: LinearForm) -> tuple[BiPoly, UniPoly]:
    """Exact division with remainder by a linear form: p = q*form + r.

    r is p with x replaced by the root expression of the form, hence
    univariate in y; q and r are unique.
    """
    rows: dict[int, dict[int, Fraction]] = {}
    for (xe, ye), c in p.terms.items():
        rows.setdefault(xe, {})[ye] = c
    q_terms: dict[Monomial, Fraction] = {}
    # Peel off the top x row one step at a time:
    # subtracting (c/a)*x^(e-1)*y^k*form cancels c*x^e*y^k.
    for e in range(max(rows, default=0), 0, -1):
        lower = rows.setdefault(e - 1, {})
        for k, c in rows.pop(e, {}).items():
            qc = c / form.a
            q_terms[(e - 1, k)] = qc
            for ke, rc in ((k + 1, form.b), (k, form.c)):
                lower[ke] = lower.get(ke, 0) - qc * rc
    return BiPoly(q_terms), UniPoly(rows.get(0, {}))


def first_remainder(p: BiPoly, form: LinearForm, shift: RatLike, count: int) -> UniPoly | None:
    """First nonzero remainder of p modulo form+shift-j, j = 0..count-1."""
    for j in range(count):
        rem = form.shifted(shift - j).reduce_mod(p)
        if rem:
            return rem
    return None


def split_cofactor(p: UniPoly, d: UniPoly) -> tuple[Fraction, UniPoly]:
    """Best constant lam for p = lam*d plus the residual p - lam*d."""
    lam = p.coeff(p.degree()) / d.coeff(d.degree()) if p and d else Fraction(0)
    return lam, p - d * lam


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


class UniRatFunc:
    """Quotient of univariate polynomials, kept unreduced.

    The denominator is never zero.  Equality is semantic, by
    cross-multiplication, so representations need not match.
    """

    __slots__ = ("numer", "denom")

    def __init__(self, numer: UniPoly, denom: UniPoly | None = None):
        if denom is None:
            denom = _UNIT
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
        return self.numer * other.denom == other.numer * self.denom

    def cross_diff(self, other: UniRatFunc) -> UniPoly:
        """numer1*denom2 - numer2*denom1; zero iff the two values are equal."""
        return self.numer * other.denom - other.numer * self.denom

    def __add__(self, other: UniRatFunc) -> UniRatFunc:
        if self.denom == other.denom:
            return UniRatFunc(self.numer + other.numer, self.denom)
        return UniRatFunc(
            self.numer * other.denom + other.numer * self.denom,
            self.denom * other.denom,
        )

    def __mul__(self, other: UniRatFunc | UniPoly | RatLike) -> UniRatFunc:
        if isinstance(other, UniRatFunc):
            return UniRatFunc(self.numer * other.numer, self.denom * other.denom)
        if isinstance(other, UniPoly):
            return UniRatFunc(self.numer * other, self.denom)
        return UniRatFunc(self.numer * _as_rat(other), self.denom)

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
