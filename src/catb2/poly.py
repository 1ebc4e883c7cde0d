"""Sparse exact polynomial arithmetic in one and two variables.

BiPoly is a sparse bivariate polynomial in x, y with rational
coefficients; UniPoly is its univariate counterpart (the variable is
positional, callers decide what it denotes); UniRatFunc is an unreduced
quotient of two UniPoly, compared on numerators over an equal denominator
and by cross-multiplication otherwise.  All values are immutable after
construction and every operation returns a fresh value, so everything here
is safe to share across threads and to memoize;
`ff_unipoly` and `ff_poly` are memoized in the registry of `rational` and
hand out one shared value per argument tuple.

A UniPoly or BiPoly is stored as integer numerators over one positive
denominator with the common factor removed (`num`, `den`; the
content/primitive-part form), so all arithmetic and the falling-factorial
builders run in Python integers.  Every root substitution (`reduce_mod`,
`subst_value`, `first_remainder`) eliminates x in one packed integer Horner
loop, `_subst_roots`.  `first_remainder` scans a whole family of shifts, and
stops at c = 0 when every term has odd total degree.  A product of two
operands with dense x rows (ft[i,m], the factors of the defining
polynomial) is row-packed, `_packed_product`; every other product, such as
an x-only factor times a y-only one or a small quadratic, was measured
faster term by term.  Both pack each x row into one integer with
`_pack_rows` and read values back with `_signed_digits`.  `recurrence_sum`
takes the family's three-term recurrence -2*a + p + s*c in one integer
pass over the three numerators, scaled to their least common denominator.
Fraction is the coefficient type at every interface: constructors take
Fraction or int values, and `.terms` is a Fraction view built on first use
for text and tests.

The canonical text form (written for failure witnesses and the CLI; never parsed) is

    poly := "0" | term (" + " term)*
    term := coef [" * x^" int] [" * y^" int]
    coef := rational as "num/den", "/den" omitted when the denominator is 1

with terms ordered by decreasing x exponent, then decreasing y exponent.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

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
        return cls._reduced({k: n for k, n in num.items() if n}, den)

    @classmethod
    def _reduced(cls, num: dict, den: int):
        """A cls equal to num / den (den > 0, no zero value): gcd divided out."""
        if den != 1:
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
            if total := acc.get(k, 0) + n * scale:
                acc[k] = total
            else:  # n is nonzero, so k was in acc
                del acc[k]
        return self._reduced(acc, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _scaled(self, c: RatLike):
        a, b = (c, 1) if type(c) is int else _as_rat(c).as_integer_ratio()
        if not a:
            return self._raw({}, 1)
        # gcd(den, content) = gcd(a, b) = 1, so a*num / (b*den) shares gcd(a, den)*gcd(b, content).
        ga = math.gcd(a, self.den)
        gb = math.gcd(b, *self.num.values()) if b != 1 else 1
        num = self.num if gb == 1 else {k: n // gb for k, n in self.num.items()}
        a //= ga
        return self._raw({k: n * a for k, n in num.items()}, b // gb * (self.den // ga))


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
    def monomial(cls, c: RatLike, xe: int, ye: int) -> BiPoly:
        return cls({(xe, ye): c})

    def __add__(self, other: BiPoly) -> BiPoly:
        # Defined here too, so that BiPoly's addition can be instrumented alone.
        return self._combine(other, 1)

    def __mul__(self, other: BiPoly | RatLike) -> BiPoly:
        if not isinstance(other, BiPoly):
            return self._scaled(other)
        a, b = (self.num, other.num) if len(self.num) <= len(other.num) else (other.num, self.num)
        # Operands with dense x rows (ft[i,m], the factors of the defining
        # polynomial) multiply faster row-packed; outer products of an x-only
        # and a y-only factor, small quadratics and tiny products term by term.
        if len(a) >= 8 and len(a) * len(b) >= 256 and _dense_rows(a) and _dense_rows(b):
            return _packed_product(self, other)
        acc: dict[Monomial, int] = {}
        for (x1, y1), n1 in a.items():
            for (x2, y2), n2 in b.items():
                k = (x1 + x2, y1 + y2)
                acc[k] = acc.get(k, 0) + n1 * n2
        return BiPoly._canon(acc, self.den * other.den)

    __rmul__ = __mul__

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

    def subst_value(self, values: Sequence[RatLike]) -> list[UniPoly]:
        """p at x = each value, polynomials in y, from one packed batch."""
        return list(_subst_roots(self, 0, values))

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
    """The slope b in {-1, 0, 1} of the hyperplanes x + b*y + c, c an argument."""

    __slots__ = ("b",)

    def __init__(self, b: int):
        if b not in (-1, 0, 1):
            raise ValueError("linear form needs b in {-1, 0, 1}")
        self.b = b

    def reduce_mod(self, p: BiPoly, c: RatLike) -> UniPoly:
        """Remainder of p modulo x + b*y + c, univariate in y: p at x = -b*y - c."""
        return next(_subst_roots(p, -self.b, [-c]))

    def __repr__(self) -> str:
        return f"LinearForm({self.b})"


def _subst_roots(p: BiPoly, slope: int, values: Sequence[RatLike]) -> Iterator[UniPoly]:
    """p with x replaced by slope*y + value, for each value in turn.  In
    integers, with p = num / den and value = vn/vd,

        den * vd^top * result = sum_e (slope*vd*y + vn)^e * vd^(top-e) * num_e(y),

    num_e(y) the row of x^e.  The rows are packed once per batch as the
    integers num_e(2^B) (Kronecker substitution), Horner's rule over them
    gives the right side at y = 2^B in a few big-int operations per row, and
    its coefficients R_k are the signed base-2^B digits of that value if
    every |R_k| < 2^(B-1).  The coefficients of (slope*vd*y + vn)^e sum to
    at most (vd + |vn|)^e in absolute value (slope is 0 or +-1), so with
    S_e = sum_k |n_(e,k)|, |R_k| <= sum_e S_e * (vd + |vn|)^e * vd^(top-e);
    B is one more than the bit length of that sum with vd + |vn| and vd at
    their largest in the batch.
    """
    top = max((xe for xe, _ in p.num), default=0)
    # At most the remainder's y-degree, as x becomes slope*y + value.
    degree = max((ye + xe * abs(slope) for xe, ye in p.num), default=0)
    sizes = _row_sizes(p.num, top)
    reach = max((v.denominator + abs(v.numerator) for v in values), default=1)
    vd_max = max((v.denominator for v in values), default=1)
    bits = sum(s * reach**e * vd_max ** (top - e) for e, s in enumerate(sizes)).bit_length() + 1
    rows = _pack_rows(p.num, top, bits)
    for value in values:
        vn, vd = value.numerator, value.denominator
        lead, acc, scale = slope * vd, 0, 1
        for row in reversed(rows):
            acc = (acc * lead << bits) + acc * vn + row * scale
            scale *= vd
        yield UniPoly._canon(_signed_digits(acc, bits, degree + 1), p.den * vd**top)


def _dense_rows(num: dict) -> bool:
    """At least two terms per x row on average."""
    return len(num) >= 2 * len({xe for xe, _ in num})


def _packed_product(p: BiPoly, q: BiPoly) -> BiPoly:
    """p * q one x row at a time (Kronecker substitution in y alone; Harvey,
    "Faster polynomial multiplication via multipoint Kronecker substitution",
    JSC 2009).  Each row is packed as one integer at y = 2^B, every pair of
    rows is multiplied as Python integers, the products are summed per output
    row, and each output row is read back as its signed base-2^B digits.

    When each operand's y exponents share one parity (ft[i,m] is even in y,
    its swap odd), digit j of a row stands for y = parity + 2j, which halves
    the packed length.  Output row x has coefficients of absolute value at
    most sum_{x1+x2=x} S_p(x1) * S_q(x2), S a row's sum of |numerators|, so
    B one more than the bit length of the largest such sum keeps every digit
    exact.
    """
    parity_p, parity_q = {ye & 1 for _, ye in p.num}, {ye & 1 for _, ye in q.num}
    shift = 1 if len(parity_p) == len(parity_q) == 1 else 0
    offset = (min(parity_p) + min(parity_q)) * shift
    # (x, digit index) -> numerator
    num_p = {(xe, ye >> shift): n for (xe, ye), n in p.num.items()}
    num_q = {(xe, ye >> shift): n for (xe, ye), n in q.num.items()}
    # each row's highest digit index: in sorted keys a row's largest comes last
    tops_p, tops_q = dict(sorted(num_p)), dict(sorted(num_q))
    top_p, top_q = max(tops_p), max(tops_q)
    sizes_p, sizes_q = _row_sizes(num_p, top_p), _row_sizes(num_q, top_q)
    bound: dict[int, int] = {}
    counts: dict[int, int] = {}
    for x1, t1 in tops_p.items():
        for x2, t2 in tops_q.items():
            x = x1 + x2
            bound[x] = bound.get(x, 0) + sizes_p[x1] * sizes_q[x2]
            counts[x] = max(counts.get(x, 0), t1 + t2 + 1)
    bits = max(bound.values()).bit_length() + 1
    packed_p, packed_q = _pack_rows(num_p, top_p, bits), _pack_rows(num_q, top_q, bits)
    rows_q = [(x2, packed_q[x2]) for x2 in tops_q]
    rows: dict[int, int] = {}
    for x1 in tops_p:
        r1 = packed_p[x1]
        for x2, r2 in rows_q:
            rows[x1 + x2] = rows.get(x1 + x2, 0) + r1 * r2
    num = {
        (x, offset + (j << shift)): n
        for x, row in rows.items()
        for j, n in _signed_digits(row, bits, counts[x]).items()
    }
    return BiPoly._canon(num, p.den * q.den)


def _row_sizes(num: dict, top: int) -> list[int]:
    """The sum of |numerators| in each x row 0..top."""
    sizes = [0] * (top + 1)
    for (xe, _), n in num.items():
        sizes[xe] += abs(n)
    return sizes


def _pack_rows(num: dict, top: int, bits: int) -> list[int]:
    """Each x row 0..top of num as one integer, its value at y = 2^bits."""
    rows = [0] * (top + 1)
    for (xe, ye), n in num.items():
        rows[xe] += n << (ye * bits)
    return rows


def _signed_digits(acc: int, bits: int, count: int) -> dict[int, int]:
    """The signed base-2^bits digits of acc, lowest first, each in
    [-2^(bits-1), 2^(bits-1)); ArithmeticError if it needs more than count."""
    out, k = {}, 0
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    while acc and k < count:  # the lowest signed digit, then the rest
        out[k] = digit = ((acc + half) & mask) - half
        acc, k = (acc - digit) >> bits, k + 1
    if acc:
        raise ArithmeticError("packed value has more digits than its degree allows")
    return out


X_FORM = LinearForm(0)
XPY_FORM = LinearForm(1)
XMY_FORM = LinearForm(-1)


def first_remainder(p: BiPoly, form: LinearForm, m: int) -> UniPoly | None:
    """First nonzero remainder of p modulo x + form.b*y + c, c = m, m-1, ..., -m.
    If every term of p has odd total degree, p(-x, -y) = -p: the remainders at
    c and -c, R_c(y) and R_{-c}(y) = -R_c(-y), vanish together, so the scan
    stops at c = 0."""
    odd = all((xe + ye) & 1 for xe, ye in p.num)
    return next(filter(None, _subst_roots(p, -form.b, range(-m, 1 if odd else m + 1))), None)


@_cached
def ff_poly(var: str, shift: RatLike, k: int) -> BiPoly:
    """Falling-factorial polynomial prod_{j=0}^{k-1} (var + shift - j), k >= 0."""
    return ff_unipoly(shift, k).as_bipoly(var)


def ff_linear_poly(form: LinearForm, shift: RatLike, k: int) -> BiPoly:
    """Falling-factorial product prod_{j=0}^{k-1} (x + form.b*y + shift - j), k >= 0:
    `ff_unipoly` at v = x + b*y, each n*v^e written out as
    sum_t n*C(e, t)*b^t x^(e-t) y^t."""
    u, b = ff_unipoly(shift, k), form.b
    num = {(e - t, t): n * math.comb(e, t) * b**t for e, n in u.num.items() for t in range(e + 1)}
    return BiPoly._canon(num, u.den)


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
    for j in range(k):  # acc(v) * (d*v + a - j*d), coefficients lowest first
        acc = [(a - j * d) * n + d * prev for n, prev in zip(acc + [0], [0] + acc)]
    return UniPoly._canon(dict(enumerate(acc)), d**k)


def recurrence_sum(a: _IntPoly, p: _IntPoly, c: _IntPoly, s: Fraction) -> _IntPoly:
    """-2*a + p + s*c for polynomials of one class, in one integer pass over
    their numerators scaled to the least common denominator."""
    sn, sd = s.numerator, s.denominator
    den = math.lcm(a.den, p.den, c.den * sd)
    acc = {k: n * (den // a.den * -2) for k, n in a.num.items()}
    for num, scale in ((p.num, den // p.den), (c.num, den // (c.den * sd) * sn)):
        for k, n in num.items():
            acc[k] = acc.get(k, 0) + n * scale
    return p._canon(acc, den)


# The denominator of every polynomial and zero UniRatFunc; shared, as
# polynomials are immutable.
_UNIT = UniPoly.const(1)


class UniRatFunc:
    """Quotient of univariate polynomials, kept unreduced.

    The denominator is never zero, and a zero value has the denominator
    `_UNIT`.  Equality is semantic (see `cross_diff`), so representations
    need not match.
    """

    __slots__ = ("numer", "denom")

    def __init__(self, numer: UniPoly, denom: UniPoly = _UNIT):
        if not denom:
            raise ZeroDivisionError("zero denominator polynomial")
        if not numer:
            denom = _UNIT  # canonical zero keeps witnesses small
        self.numer = numer
        self.denom = denom

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniRatFunc):
            return NotImplemented
        return not self.cross_diff(other)

    def cross_diff(self, other: UniRatFunc) -> UniPoly:
        """numer1 - numer2 over an equal denominator, else
        numer1*denom2 - numer2*denom1; zero iff the two values are equal."""
        if self.denom == other.denom:
            return self.numer - other.numer
        return self.numer * other.denom - other.numer * self.denom

    def __add__(self, other: UniRatFunc) -> UniRatFunc:
        if self.denom == other.denom:
            return UniRatFunc(self.numer + other.numer, self.denom)
        return UniRatFunc(
            self.numer * other.denom + other.numer * self.denom, self.denom * other.denom
        )

    def __mul__(self, other: UniPoly | RatLike) -> UniRatFunc:
        return UniRatFunc(self.numer * other, self.denom)

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
