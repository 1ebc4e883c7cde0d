"""Sparse exact polynomial arithmetic in one and two variables.

BiPoly is a sparse bivariate polynomial in x, y over Fraction; UniPoly is
its univariate counterpart (the variable is positional, callers decide what
it denotes); UniRatFunc is an unreduced quotient of two UniPoly with
equality tested by cross-multiplication.  All values are immutable after
construction and every operation returns a fresh value, so everything here
is safe to share across threads and to memoize.

Coefficients are Fraction at every interface and in `.terms`.  The two hot
kernels, polynomial multiplication and root substitution (`reduce_mod`,
`subst_value`), clear denominators by their LCM on entry, run in Python
integers and divide once per output coefficient, so their results equal the
term-by-term Fraction computation exactly.

The canonical text form (also used for failure witnesses and by the CLI) is

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


class PolyParseError(ValueError):
    """Malformed polynomial text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


def _as_rat(value: RatLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _cleared(terms: Mapping) -> tuple[int, dict]:
    """(den, ints) with terms[k] == ints[k] / den, den the LCM of the denominators."""
    den = math.lcm(*[c.denominator for c in terms.values()])
    return den, {k: c.numerator * (den // c.denominator) for k, c in terms.items()}


def _from_ints(cls, ints: Mapping, den: int):
    """A cls with terms ints[k] / den, zeros dropped, bypassing __init__."""
    out = cls.__new__(cls)
    if den == 1:
        out.terms = {k: Fraction(n) for k, n in ints.items() if n}
    else:
        out.terms = {k: Fraction(n, den) for k, n in ints.items() if n}
    return out


class UniPoly:
    """Sparse univariate polynomial: map exponent -> nonzero Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, RatLike] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = _as_rat(c)
                if c:
                    if e < 0:
                        raise ValueError("negative exponent")
                    clean[e] = c
        self.terms = clean

    @classmethod
    def const(cls, c: RatLike) -> UniPoly:
        return cls({0: c})

    @classmethod
    def monomial(cls, c: RatLike, e: int) -> UniPoly:
        return cls({e: c})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.terms == other.terms

    def __neg__(self) -> UniPoly:
        return UniPoly({e: -c for e, c in self.terms.items()})

    def __add__(self, other: UniPoly) -> UniPoly:
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, Fraction(0)) + c
        return UniPoly(acc)

    def __sub__(self, other: UniPoly) -> UniPoly:
        return self + (-other)

    def __mul__(self, other: UniPoly | RatLike) -> UniPoly:
        if isinstance(other, UniPoly):
            den1, left = _cleared(self.terms)
            den2, right = _cleared(other.terms)
            acc: dict[int, int] = {}
            for e1, n1 in left.items():
                for e2, n2 in right.items():
                    e = e1 + e2
                    acc[e] = acc.get(e, 0) + n1 * n2
            return _from_ints(UniPoly, acc, den1 * den2)
        return UniPoly({e: c * _as_rat(other) for e, c in self.terms.items()})

    __rmul__ = __mul__

    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return max(self.terms) if self.terms else -1

    def coeff(self, e: int) -> Fraction:
        return self.terms.get(e, Fraction(0))

    def eval(self, v: RatLike) -> Fraction:
        v = _as_rat(v)
        return sum((c * v**e for e, c in self.terms.items()), Fraction(0))

    def as_bipoly(self, var: str) -> BiPoly:
        if var not in ("x", "y"):
            raise ValueError("var must be 'x' or 'y'")
        if var == "x":
            return BiPoly({(e, 0): c for e, c in self.terms.items()})
        return BiPoly({(0, e): c for e, c in self.terms.items()})

    def to_text(self, var: str = "y") -> str:
        return self.as_bipoly("x").to_text().replace("x", var)

    def __repr__(self) -> str:
        return f"UniPoly({self.to_text('v')!r})"


class BiPoly:
    """Sparse bivariate polynomial: map (x exp, y exp) -> nonzero Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, RatLike] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for (xe, ye), c in terms.items():
                c = _as_rat(c)
                if c:
                    if xe < 0 or ye < 0:
                        raise ValueError("negative exponent")
                    clean[(xe, ye)] = c
        self.terms = clean

    @classmethod
    def zero(cls) -> BiPoly:
        return cls()

    @classmethod
    def const(cls, c: RatLike) -> BiPoly:
        return cls({(0, 0): c})

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

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __neg__(self) -> BiPoly:
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __add__(self, other: BiPoly) -> BiPoly:
        acc = dict(self.terms)
        for k, c in other.terms.items():
            acc[k] = acc.get(k, Fraction(0)) + c
        return BiPoly(acc)

    def __sub__(self, other: BiPoly) -> BiPoly:
        return self + (-other)

    def __mul__(self, other: BiPoly | RatLike) -> BiPoly:
        if isinstance(other, BiPoly):
            den1, left = _cleared(self.terms)
            den2, right = _cleared(other.terms)
            acc: dict[Monomial, int] = {}
            for (x1, y1), n1 in left.items():
                for (x2, y2), n2 in right.items():
                    k = (x1 + x2, y1 + y2)
                    acc[k] = acc.get(k, 0) + n1 * n2
            return _from_ints(BiPoly, acc, den1 * den2)
        return BiPoly({k: c * _as_rat(other) for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> BiPoly:
        if n < 0:
            raise ValueError("negative power")
        out = BiPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def coeff(self, xe: int, ye: int) -> Fraction:
        return self.terms.get((xe, ye), Fraction(0))

    def degree(self) -> int:
        """Total degree, with the zero polynomial mapped to -1."""
        return max(xe + ye for xe, ye in self.terms) if self.terms else -1

    def homogeneous_part(self, d: int) -> BiPoly:
        return BiPoly({k: c for k, c in self.terms.items() if k[0] + k[1] == d})

    def swap(self) -> BiPoly:
        """Exchange x and y."""
        return BiPoly({(ye, xe): c for (xe, ye), c in self.terms.items()})

    def eval(self, x0: RatLike, y0: RatLike) -> Fraction:
        x0, y0 = _as_rat(x0), _as_rat(y0)
        return sum(
            (c * x0**xe * y0**ye for (xe, ye), c in self.terms.items()), Fraction(0)
        )

    def subst_affine(self, var: str, sign: int, target: str, shift: RatLike = 0) -> BiPoly:
        """Substitute var -> sign*target + shift (target may equal var)."""
        if var not in ("x", "y") or sign not in (1, -1):
            raise ValueError("bad substitution image")
        base = BiPoly.var(target) * sign + BiPoly.const(shift)
        top = max((k[0] if var == "x" else k[1] for k in self.terms), default=0)
        pows = [BiPoly.const(1)]
        for _ in range(top):
            pows.append(pows[-1] * base)
        acc: dict[Monomial, Fraction] = {}
        for (xe, ye), c in self.terms.items():
            ve, keep = (xe, ye) if var == "x" else (ye, xe)
            for (px, py), pc in pows[ve].terms.items():
                k = (px, py + keep) if var == "x" else (px + keep, py)
                acc[k] = acc.get(k, Fraction(0)) + c * pc
        return BiPoly(acc)

    def subst_value(self, var: str, value: RatLike) -> UniPoly:
        """Substitute a constant for var; the result lives in the other variable."""
        if var not in ("x", "y"):
            raise ValueError("var must be 'x' or 'y'")
        return _subst_root(self, var, 0, _as_rat(value))

    def as_unipoly(self, var: str) -> UniPoly:
        """View as univariate in var; fails if the other variable occurs."""
        if var not in ("x", "y"):
            raise ValueError("var must be 'x' or 'y'")
        acc: dict[int, Fraction] = {}
        for (xe, ye), c in self.terms.items():
            ve, other = (xe, ye) if var == "x" else (ye, xe)
            if other:
                raise ValueError(f"polynomial is not univariate in {var}")
            acc[ve] = c
        return UniPoly(acc)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in canonical order: decreasing x exponent, then decreasing y."""
        return sorted(self.terms.items(), key=lambda kv: (-kv[0][0], -kv[0][1]))

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        rendered = []
        for (xe, ye), c in self.sorted_terms():
            parts = [str(c)]
            if xe:
                parts.append(f"x^{xe}")
            if ye:
                parts.append(f"y^{ye}")
            rendered.append(" * ".join(parts))
        return " + ".join(rendered)

    @classmethod
    def from_text(cls, s: str) -> BiPoly:
        return _parse_poly(s)

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"x": xe, "y": ye, "c": str(c)} for (xe, ye), c in self.sorted_terms()
            ]
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> BiPoly:
        if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
            raise ValueError("expected {'terms': [...]}")
        acc: dict[Monomial, Fraction] = {}
        for entry in obj["terms"]:
            if not isinstance(entry, dict):
                raise ValueError("term entries must be objects")
            try:
                xe, ye = entry["x"], entry["y"]
                c = Fraction(entry["c"])
            except (KeyError, ValueError, ZeroDivisionError, TypeError) as exc:
                raise ValueError(f"bad term entry {entry!r}") from exc
            if not isinstance(xe, int) or not isinstance(ye, int) or xe < 0 or ye < 0:
                raise ValueError(f"bad exponents in {entry!r}")
            acc[(xe, ye)] = acc.get((xe, ye), Fraction(0)) + c
        return cls(acc)

    def __repr__(self) -> str:
        return f"BiPoly({self.to_text()!r})"


X = BiPoly.var("x")
Y = BiPoly.var("y")
ONE = BiPoly.const(1)


class LinearForm:
    """Hyperplane-style linear form a*x + b*y + c with a, b in {-1, 0, 1}."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: RatLike = 0):
        if a not in (-1, 0, 1) or b not in (-1, 0, 1) or (a, b) == (0, 0):
            raise ValueError("linear form needs unit coefficients, not both zero")
        self.a = a
        self.b = b
        self.c = _as_rat(c)

    def shifted(self, d: RatLike) -> LinearForm:
        return LinearForm(self.a, self.b, self.c + _as_rat(d))

    def as_poly(self) -> BiPoly:
        return BiPoly({(1, 0): self.a, (0, 1): self.b, (0, 0): self.c})

    def reduce_mod(self, p: BiPoly) -> UniPoly:
        """Remainder of p modulo this form: substitute the root expression.

        The variable with nonzero unit coefficient is eliminated (x first);
        the result is univariate in the surviving variable.
        """
        if self.a != 0:
            # a*x + b*y + c = 0  =>  x = -a*b*y - a*c  (a, b are units)
            return _subst_root(p, "x", -self.a * self.b, -self.a * self.c)
        return _subst_root(p, "y", 0, -self.b * self.c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearForm):
            return NotImplemented
        return (self.a, self.b, self.c) == (other.a, other.b, other.c)

    def __repr__(self) -> str:
        return f"LinearForm({self.a}, {self.b}, {self.c!r})"


def _subst_root(p: BiPoly, var: str, slope: int, value: Fraction) -> UniPoly:
    """p with var replaced by slope*v + value, v the other variable.

    A Taylor shift by Horner's rule over the rows p_e(v) of var^e, in
    integers: with p's denominators cleared to L and value = vn/vd,

        L * vd^top * result = sum_e (slope*vd*v + vn)^e * vd^(top-e) * L*p_e(v).
    """
    den, ints = _cleared(p.terms)
    elim = 0 if var == "x" else 1
    rows: dict[int, dict[int, int]] = {}
    for key, n in ints.items():
        rows.setdefault(key[elim], {})[key[1 - elim]] = n
    top = max(rows, default=0)
    lead, vn, vd = slope * value.denominator, value.numerator, value.denominator
    acc: list[int] = []
    scale = 1  # vd^(top-e)
    for e in range(top, -1, -1):
        # acc *= lead*v + vn
        acc = [vn * n + lead * prev for n, prev in zip(acc + [0], [0] + acc)]
        row = rows.get(e)
        if row:
            acc.extend([0] * (max(row) + 1 - len(acc)))
            for k, n in row.items():
                acc[k] += n * scale
        scale *= vd
    return _from_ints(UniPoly, dict(enumerate(acc)), den * vd**top)


X_FORM = LinearForm(1, 0)
Y_FORM = LinearForm(0, 1)
XPY_FORM = LinearForm(1, 1)
XMY_FORM = LinearForm(1, -1)


def divrem_linear(p: BiPoly, form: LinearForm) -> tuple[BiPoly, UniPoly]:
    """Exact division with remainder by a linear form: p = q*form + r.

    r is p with the eliminated variable replaced by the root expression of
    the form, hence univariate in the surviving variable; q and r are unique.
    """
    elim = "x" if form.a != 0 else "y"
    unit = form.a if elim == "x" else form.b
    # rest = the form minus its unit*elim part, as (surviving exp -> coef)
    if elim == "x":
        rest = {1: Fraction(form.b), 0: form.c}
    else:
        rest = {1: Fraction(form.a), 0: form.c}
    rest = {e: c for e, c in rest.items() if c}

    rows: dict[int, dict[int, Fraction]] = {}
    for (xe, ye), c in p.terms.items():
        ve, keep = (xe, ye) if elim == "x" else (ye, xe)
        rows.setdefault(ve, {})[keep] = c

    q_terms: dict[Monomial, Fraction] = {}
    # Peel off the top eliminated-variable degree one step at a time:
    # subtracting (row/unit)*elim^(e-1)*form cancels the x^e (resp. y^e) row.
    for e in range(max(rows, default=0), 0, -1):
        row = rows.pop(e, None)
        if not row:
            continue
        lower = rows.setdefault(e - 1, {})
        for ke, c in row.items():
            qc = c / unit
            key = (e - 1, ke) if elim == "x" else (ke, e - 1)
            q_terms[key] = q_terms.get(key, Fraction(0)) + qc
            for re_, rc in rest.items():
                lower[ke + re_] = lower.get(ke + re_, Fraction(0)) - qc * rc
    return BiPoly(q_terms), UniPoly(rows.get(0, {}))


def divisible_by_falling_product(
    p: BiPoly, form: LinearForm, shift: RatLike, k: int
) -> bool:
    """True iff p is divisible by prod_{j=0}^{k-1} (form + shift - j).

    The shifted forms are pairwise coprime, so divisibility by the product
    is equivalent to each root substitution annihilating p.
    """
    shift = _as_rat(shift)
    return all(not form.shifted(shift - j).reduce_mod(p) for j in range(k))


def constant_cofactor(p: UniPoly, d: UniPoly) -> Fraction:
    """The constant lam with p = lam*d; raises if no such constant exists."""
    if not d:
        raise ValueError("zero divisor polynomial")
    if not p:
        return Fraction(0)
    lam = p.coeff(p.degree()) / d.coeff(d.degree())
    if p != d * lam:
        raise ValueError("not a constant multiple")
    return lam


def ff_poly(var: str, shift: RatLike, k: int) -> BiPoly:
    """Falling-factorial polynomial prod_{j=0}^{k-1} (var + shift - j), k >= 0."""
    if k < 0:
        raise ValueError("negative length")
    shift = _as_rat(shift)
    out = ONE
    v = BiPoly.var(var)
    for j in range(k):
        out = out * (v + BiPoly.const(shift - j))
    return out


def ff_linear_poly(form: LinearForm, shift: RatLike, k: int) -> BiPoly:
    """Falling-factorial product prod_{j=0}^{k-1} (form + shift - j), k >= 0."""
    if k < 0:
        raise ValueError("negative length")
    shift = _as_rat(shift)
    out = ONE
    for j in range(k):
        out = out * form.shifted(shift - j).as_poly()
    return out


def ff_unipoly(shift: RatLike, k: int) -> UniPoly:
    """Univariate falling-factorial product prod_{j=0}^{k-1} (v + shift - j)."""
    if k < 0:
        raise ValueError("negative length")
    shift = _as_rat(shift)
    out = UniPoly.const(1)
    for j in range(k):
        out = out * UniPoly({1: 1, 0: shift - j})
    return out


class UniRatFunc:
    """Quotient of univariate polynomials, kept unreduced.

    The denominator is never zero.  Equality is semantic, by
    cross-multiplication, so representations need not match.
    """

    __slots__ = ("numer", "denom")

    def __init__(self, numer: UniPoly, denom: UniPoly | None = None):
        if denom is None:
            denom = UniPoly.const(1)
        if not denom:
            raise ZeroDivisionError("zero denominator polynomial")
        if not numer:
            denom = UniPoly.const(1)  # canonical zero keeps witnesses small
        self.numer = numer
        self.denom = denom

    @classmethod
    def zero(cls) -> UniRatFunc:
        return cls(UniPoly())

    @classmethod
    def from_poly(cls, p: UniPoly) -> UniRatFunc:
        return cls(p)

    @property
    def is_zero(self) -> bool:
        return not self.numer

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniRatFunc):
            return NotImplemented
        return self.numer * other.denom == other.numer * self.denom

    def cross_diff(self, other: UniRatFunc) -> UniPoly:
        """numer1*denom2 - numer2*denom1; zero iff the two values are equal."""
        return self.numer * other.denom - other.numer * self.denom

    def __neg__(self) -> UniRatFunc:
        return UniRatFunc(-self.numer, self.denom)

    def __add__(self, other: UniRatFunc) -> UniRatFunc:
        if self.denom == other.denom:
            return UniRatFunc(self.numer + other.numer, self.denom)
        return UniRatFunc(
            self.numer * other.denom + other.numer * self.denom,
            self.denom * other.denom,
        )

    def __sub__(self, other: UniRatFunc) -> UniRatFunc:
        return self + (-other)

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
        return UniRatFunc.from_poly(ff_unipoly(shift, k))
    return UniRatFunc(UniPoly.const(1), ff_unipoly(_as_rat(shift) - k, -k))


# ------------------------------ text parser ------------------------------


class _Scanner:
    def __init__(self, s: str):
        self.s = s
        self.pos = 0

    def _loc(self, pos: int) -> tuple[int, int]:
        line = self.s.count("\n", 0, pos) + 1
        col = pos - (self.s.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def error(self, message: str, pos: int | None = None) -> PolyParseError:
        line, col = self._loc(self.pos if pos is None else pos)
        return PolyParseError(message, line, col)

    def skip_ws(self) -> None:
        while self.pos < len(self.s) and self.s[self.pos] in " \t\r\n":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.s)

    def take(self, ch: str) -> bool:
        self.skip_ws()
        if self.s.startswith(ch, self.pos):
            self.pos += len(ch)
            return True
        return False

    def expect_int(self, what: str, signed: bool = False) -> int:
        self.skip_ws()
        start = self.pos
        if signed and self.pos < len(self.s) and self.s[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.s) and self.s[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise self.error(f"expected {what}", start)
        return int(self.s[start : self.pos])

    def expect_rat(self) -> Fraction:
        num = self.expect_int("coefficient", signed=True)
        if self.s.startswith("/", self.pos):  # no space inside "num/den"
            self.pos += 1
            den_pos = self.pos
            den = self.expect_int("denominator")
            if den == 0:
                raise self.error("zero denominator", den_pos)
            return Fraction(num, den)
        return Fraction(num)

    def expect_var_power(self) -> tuple[str, int]:
        self.skip_ws()
        start = self.pos
        if self.pos >= len(self.s) or self.s[self.pos] not in "xy":
            raise self.error("expected variable x or y", start)
        name = self.s[self.pos]
        self.pos += 1
        if not self.s.startswith("^", self.pos):
            raise self.error("expected '^' after variable")
        self.pos += 1
        expo = self.expect_int("exponent")
        return name, expo


def _parse_poly(s: str) -> BiPoly:
    sc = _Scanner(s)
    acc: dict[Monomial, Fraction] = {}
    while True:
        coef = sc.expect_rat()
        xe = ye = 0
        seen: set[str] = set()
        while sc.take("*"):
            sc.skip_ws()
            pos = sc.pos
            name, expo = sc.expect_var_power()
            if name in seen:
                raise sc.error(f"duplicate variable {name} in term", pos)
            seen.add(name)
            if name == "x":
                xe = expo
            else:
                ye = expo
        key = (xe, ye)
        acc[key] = acc.get(key, Fraction(0)) + coef
        if sc.at_end():
            break
        if not sc.take("+"):
            raise sc.error("expected '+' between terms")
    return BiPoly(acc)
