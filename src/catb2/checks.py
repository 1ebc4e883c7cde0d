"""Executable identity checks over the Cat(B2, m) constructions.

Every check compares two independently built exact values and returns a
CheckReport; nothing here raises on a mathematical mismatch (only on
out-of-domain parameters).  A failed report always carries a witness: the
serialized nonzero difference or remainder that falsifies the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constructions import (
    _cached,
    _recurrence_quad,
    basis_derivation,
    defining_poly,
    deformed_poly,
    deformed_tail,
    halfint_closed,
    halfint_combo,
    halfint_tail,
    saito_constant,
    saito_constant_integral,
    saito_determinant,
    tail_closed,
    tail_combo,
    telescope_cleared_sides,
)
from .poly import (
    BiPoly,
    UniPoly,
    UniRatFunc,
    XMY_FORM,
    XPY_FORM,
    X_FORM,
    Y_FORM,
    ff_unipoly,
    first_remainder,
    split_cofactor,
)

# Registry order is also the report order used by the CLI sweep.
CHECK_NAMES = (
    "expansion",
    "ftilde-forms",
    "lemma1",
    "lemma2",
    "lemma3",
    "prop1",
    "prop2",
    "prop3",
    "theorem",
    "v-recurrence",
    "saito",
    "membership",
    "parity",
    "degree",
)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification: name, parameters, verdict, witness."""

    check_name: str
    params: tuple[tuple[str, int], ...]
    passed: bool
    witness: str | None = None
    data: dict[str, str] | None = None

    def __post_init__(self) -> None:
        if self.passed == (self.witness is not None):
            raise ValueError("witness must be present exactly when the check fails")


def _report(
    name: str,
    params: tuple[tuple[str, int], ...],
    witness: str | None,
    data: dict[str, str] | None = None,
) -> CheckReport:
    return CheckReport(name, params, passed=witness is None, witness=witness, data=data)


def _witness(diff: BiPoly | UniPoly | None, *var: str) -> str | None:
    """The text of a nonzero difference or remainder, else None."""
    return diff.to_text(*var) if diff else None


def check_expansion(i: int, m: int) -> CheckReport:
    """Coefficient form of the integral polynomial vs direct integration."""
    from .constructions import integral_poly, poly_from_coeffs

    witness = _witness(poly_from_coeffs(i, m) - integral_poly(i, m))
    return _report("expansion", (("i", i), ("m", m)), witness)


def check_ftilde_forms(i: int, m: int) -> CheckReport:
    """Twice the deformation equals the sum of its expansion summands."""
    witness = _witness(deformed_poly(i, m) * 2 - deformed_tail(i, m, 0))
    return _report("ftilde-forms", (("i", i), ("m", m)), witness)


def check_lemma1(i: int, m: int, l: int) -> CheckReport:
    """Tail combination equals its closed form (zero at l = m+1)."""
    witness = _witness(tail_combo(i, m, l) - tail_closed(i, m, l))
    return _report("lemma1", (("i", i), ("m", m), ("l", l)), witness)


def check_lemma2(a: int, b: int) -> CheckReport:
    """Telescoping sum identity, compared after clearing (z+b)_(2b+2)."""
    lhs, rhs = telescope_cleared_sides(a, b)
    witness = _witness(lhs - rhs, "z")
    return _report("lemma2", (("a", a), ("b", b)), witness)


def check_lemma3(i: int, m: int, k: int, l: int) -> CheckReport:
    """Half-integer tail combination equals its closed form."""
    witness = _witness(halfint_combo(i, m, k, l).cross_diff(halfint_closed(i, m, k, l)), "y")
    return _report("lemma3", (("i", i), ("m", m), ("k", k), ("l", l)), witness)


def check_prop1(i: int, m: int) -> CheckReport:
    """Three-term recurrence between consecutive family members (i >= 1):

    (2i-1)/(2m+2) ft[i-1,m+1] = (x^2+y^2-(i+m+1)^2-i^2) ft[i,m] - 2 ft[i+1,m].
    """
    if i < 1:
        raise ValueError("index i-1 undefined")
    lhs = deformed_poly(i - 1, m + 1) * Fraction(2 * i - 1, 2 * m + 2)
    quad = _recurrence_quad((i + m + 1) ** 2 + i * i)
    rhs = quad * deformed_poly(i, m) - deformed_poly(i + 1, m) * 2
    return _report("prop1", (("i", i), ("m", m)), _witness(lhs - rhs))


def check_prop2(i: int, m: int, k: int) -> CheckReport:
    """2*ft[i,m](-1/2-k, y) equals the half-integer evaluation series."""
    lhs = (deformed_poly(i, m) * 2).subst_value("x", Fraction(-(2 * k + 1), 2))
    witness = _witness(UniRatFunc.from_poly(lhs).cross_diff(halfint_tail(i, m, k, 0)), "y")
    return _report("prop2", (("i", i), ("m", m), ("k", k)), witness)


def check_prop3(i: int, m: int) -> CheckReport:
    """Congruences of 2*ft[i,m] modulo x+y+m and x+y-m.

    mod x+y+m:  2*ft =  A (x+2m+i)_(3m+2i+1) (x+m-1/2)_m
                     = -A (y+2m+i)_(3m+2i+1) (y+m-1/2)_m
    mod x+y-m:  2*ft =  B (x+m+i)_(3m+2i+1) (x-1/2)_m
                     = -B (y+m+i)_(3m+2i+1) (y-1/2)_m
    with A, B depending only on (i, m); they are extracted, then the three
    companion congruences are verified against them.
    """
    doubled = deformed_poly(i, m) * 2
    swapped = doubled.swap()
    length = 3 * m + 2 * i + 1
    params = (("i", i), ("m", m))

    cases = (
        # (form, x shift, half shift)
        (XPY_FORM.shifted(m), 2 * m + i, Fraction(2 * m - 1, 2)),
        (XPY_FORM.shifted(-m), m + i, Fraction(-1, 2)),
    )
    extracted: list[Fraction] = []
    for form, ff_shift, half_shift in cases:
        # reduce_mod eliminates x, so the swap leaves the remainder in x
        in_x = form.reduce_mod(swapped)
        target = ff_unipoly(ff_shift, length) * ff_unipoly(half_shift, m)
        lam, residual = split_cofactor(in_x, target)
        if residual:
            return _report("prop3", params, residual.to_text("x"))
        in_y = form.reduce_mod(doubled)
        companion = in_y + target * lam  # must equal -lam * target
        if companion:
            return _report("prop3", params, companion.to_text("y"))
        extracted.append(lam)

    a_const, b_const = extracted
    return _report("prop3", params, None, data={"A": str(a_const), "B": str(b_const)})


@_cached
def _symmetric_remainder(i: int, m: int) -> UniPoly | None:
    """First nonzero remainder of ft[i,m](x,y) + ft[i,m](y,x) modulo x+y+m-j,
    j = 0..2m; the theorem and the x+y clause of membership both need it."""
    f = deformed_poly(i, m)
    return first_remainder(f + f.swap(), XPY_FORM, m, 2 * m + 1)


def check_theorem(i: int, m: int) -> CheckReport:
    """ft[i,m](x,y) + ft[i,m](y,x) is divisible by prod_{|j|<=m} (x+y+j)."""
    witness = _witness(_symmetric_remainder(i, m), "y")
    return _report("theorem", (("i", i), ("m", m)), witness)


def check_v_recurrence(i: int, m: int) -> CheckReport:
    """Recurrence for V[i,m] = ft[i,m](x,y) + ft[i,m](y,x), for m >= 1:

    (2i+1)/(2m) V[i,m] = (x^2+y^2-(i+m+1)^2-(i+1)^2) V[i+1,m-1] - 2 V[i+2,m-1].
    """
    if m < 1:
        raise ValueError("recurrence needs m >= 1")

    def symmetrized(ii: int, mm: int) -> BiPoly:
        f = deformed_poly(ii, mm)
        return f + f.swap()

    lhs = symmetrized(i, m) * Fraction(2 * i + 1, 2 * m)
    quad = _recurrence_quad((i + m + 1) ** 2 + (i + 1) ** 2)
    rhs = quad * symmetrized(i + 1, m - 1) - symmetrized(i + 2, m - 1) * 2
    return _report("v-recurrence", (("i", i), ("m", m)), _witness(lhs - rhs))


def check_saito(m: int) -> CheckReport:
    """Saito criterion: determinant = C * defining polynomial, C nonzero.

    Also requires the two routes to C (coefficient product vs the two exact
    integrals) to agree, and the x^(6m+3) y^(2m+1) coefficient of the
    determinant to be C times that coefficient of the defining polynomial.
    """
    params = (("m", m),)
    c = saito_constant(m)
    data = {"C": str(c)}
    c_int = saito_constant_integral(m)
    if c != c_int:
        return _report("saito", params, BiPoly.const(c - c_int).to_text(), data=data)
    det = saito_determinant(m)
    phi = defining_poly(m)
    if c == 0:
        # The criterion needs C != 0, and a witness must be nonzero: det if it
        # is (it contradicts det = 0 * phi), else phi, which det should be a
        # nonzero multiple of.
        return _report("saito", params, (det or phi).to_text(), data=data)
    if det.coeff(6 * m + 3, 2 * m + 1) != c * phi.coeff(6 * m + 3, 2 * m + 1):
        return _report("saito", params, (det - phi * c).to_text(), data=data)
    witness = _witness(det - phi * c)
    return _report("saito", params, witness, data=data)


def check_membership(i: int, m: int) -> CheckReport:
    """The candidate derivation lies in the module of logarithmic fields:

    applying it to each of the four hyperplane families x, y, x+y, x-y
    yields a polynomial divisible by the full shifted product of that family.
    """
    der = basis_derivation(i, m)
    for form in (X_FORM, Y_FORM, XPY_FORM, XMY_FORM):
        if form is XPY_FORM:  # der.apply_linear(XPY_FORM) is f + f.swap()
            rem = _symmetric_remainder(i, m)
        else:
            rem = first_remainder(der.apply_linear(form), form, m, 2 * m + 1)
        if rem is not None:
            var = "x" if form.a == 0 else "y"
            return _report("membership", (("i", i), ("m", m)), rem.to_text(var))
    return _report("membership", (("i", i), ("m", m)), None)


def check_parity(i: int, m: int) -> CheckReport:
    """ft[i,m] is odd in x and even in y."""
    f = deformed_poly(i, m)
    odd = f.subst_affine("x", -1, "x") + f
    if odd:
        return _report("parity", (("i", i), ("m", m)), odd.to_text())
    even = f.subst_affine("y", -1, "y") - f
    witness = _witness(even)
    return _report("parity", (("i", i), ("m", m)), witness)


def check_degree(i: int, m: int) -> CheckReport:
    """Total degrees: deg ft[i,m] = 4m+2i+1 and deg of the defining poly = 8m+4."""
    f = deformed_poly(i, m)
    if f.degree() != 4 * m + 2 * i + 1:
        return _report("degree", (("i", i), ("m", m)), f.to_text())
    phi = defining_poly(m)
    witness = phi.to_text() if phi.degree() != 8 * m + 4 else None
    return _report("degree", (("i", i), ("m", m)), witness)
