"""Executable identity checks over the Cat(B2, m) constructions.

`REGISTRY` declares every check: its name, which cells of the (i, m) grid
it runs and with what parameters.  Each entry has one `check_*` function.
Every check compares two independently built exact values and returns a
CheckReport; nothing here raises on a mathematical mismatch (only on
out-of-domain parameters).  A report fails exactly when it carries a
witness: the serialized nonzero difference or remainder that falsifies
the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .constructions import (
    basis_derivation,
    defining_poly,
    deformed_poly,
    deformed_tail,
    halfint_closed,
    halfint_combo,
    halfint_tail,
    integral_poly,
    poly_from_coeffs,
    recurrence_combo,
    recurrence_quad,
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
    ff_unipoly,
    first_remainder,
    split_cofactor,
)
from .rational import _cached

Params = tuple[tuple[str, int], ...]


def _p(**params: int) -> Params:
    return tuple(params.items())


def _cell(i: int, m: int, k_extra: int) -> list[Params]:
    return [_p(i=i, m=m)]


class Check(NamedTuple):
    """One registry entry.  `params(i, m, k_extra)` lists the parameter
    tuples that the grid cell (i, m) runs; a cell failing `applies(i, m)`
    runs nothing and reports one SKIP instead."""

    params: Callable[[int, int, int], list[Params]] = _cell
    applies: Callable[[int, int], bool] = lambda i, m: True


def _i_positive(i: int, m: int) -> bool:
    return i >= 1


# The one place a check is declared.  Registry order is also the report
# order of the CLI sweep, which runs check_<name, '-' read as '_'> looked up
# on this module at call time (so patched or traced functions are the ones
# that run).
REGISTRY = {
    "expansion": Check(),
    "ftilde-forms": Check(),
    "lemma1": Check(lambda i, m, kx: [_p(i=i, m=m, l=l) for l in range(m + 2)], _i_positive),
    # a and b sweep the i and m ranges respectively
    "lemma2": Check(lambda a, b, kx: [_p(a=a, b=b)]),
    "lemma3": Check(
        lambda i, m, kx: [
            _p(i=i, m=m, k=k, l=l) for k in range(m + kx + 1) for l in range(k + 2)
        ],
        _i_positive,
    ),
    "prop1": Check(applies=_i_positive),
    "prop2": Check(lambda i, m, kx: [_p(i=i, m=m, k=k) for k in range(m + kx + 1)]),
    "prop3": Check(),
    "theorem": Check(),
    "v-recurrence": Check(applies=lambda i, m: m >= 1),
    # one line per m: the sweep keeps the first of the tasks repeated over i
    "saito": Check(lambda i, m, kx: [_p(m=m)]),
    "membership": Check(),
    "parity": Check(),
    "degree": Check(),
}
CHECK_NAMES = tuple(REGISTRY)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification: the witness of a failure, absent exactly
    when the identity holds, and any constants the check extracted."""

    witness: str | None = None
    data: dict[str, str] | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None


def _witness(diff: BiPoly | UniPoly | None, *var: str) -> str | None:
    """The text of a nonzero difference or remainder, else None."""
    return diff.to_text(*var) if diff else None


def check_expansion(i: int, m: int) -> CheckReport:
    """Coefficient form of the integral polynomial vs direct integration."""
    return CheckReport(_witness(poly_from_coeffs(i, m) - integral_poly(i, m)))


def check_ftilde_forms(i: int, m: int) -> CheckReport:
    """Twice the deformation equals the sum of its expansion summands."""
    return CheckReport(_witness(deformed_poly(i, m) * 2 - deformed_tail(i, m, 0)))


def check_lemma1(i: int, m: int, l: int) -> CheckReport:
    """Tail combination equals its closed form (zero at l = m+1)."""
    return CheckReport(_witness(tail_combo(i, m, l) - tail_closed(i, m, l)))


def check_lemma2(a: int, b: int) -> CheckReport:
    """Telescoping sum identity, compared after clearing (z+b)_(2b+2)."""
    lhs, rhs = telescope_cleared_sides(a, b)
    return CheckReport(_witness(lhs - rhs, "z"))


def check_lemma3(i: int, m: int, k: int, l: int) -> CheckReport:
    """Half-integer tail combination equals its closed form."""
    witness = _witness(halfint_combo(i, m, k, l).cross_diff(halfint_closed(i, m, k, l)), "y")
    return CheckReport(witness)


def check_prop1(i: int, m: int) -> CheckReport:
    """Three-term recurrence between consecutive family members (i >= 1):

    (2i-1)/(2m+2) ft[i-1,m+1] = (x^2+y^2-(i+m+1)^2-i^2) ft[i,m] - 2 ft[i+1,m].
    """
    return CheckReport(_witness(-recurrence_combo(deformed_poly, i, m, recurrence_quad(i, m))))


def check_prop2(i: int, m: int, k: int) -> CheckReport:
    """2*ft[i,m](-1/2-k, y) equals the half-integer evaluation series."""
    lhs = deformed_poly(i, m).subst_value("x", Fraction(-(2 * k + 1), 2)) * 2
    witness = _witness(UniRatFunc(lhs).cross_diff(halfint_tail(i, m, k, 0)), "y")
    return CheckReport(witness)


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
            return CheckReport(residual.to_text("x"))
        in_y = form.reduce_mod(doubled)
        companion = in_y + target * lam  # must equal -lam * target
        if companion:
            return CheckReport(companion.to_text("y"))
        extracted.append(lam)

    a_const, b_const = extracted
    return CheckReport(data={"A": str(a_const), "B": str(b_const)})


def _symmetrized(i: int, m: int) -> BiPoly:
    """V[i,m] = ft[i,m](x,y) + ft[i,m](y,x)."""
    f, g = basis_derivation(i, m)
    return f + g


@_cached
def _symmetric_remainder(i: int, m: int) -> UniPoly | None:
    """First nonzero remainder of V[i,m] modulo x+y+m-j, j = 0..2m; the
    theorem and the x+y clause of membership both need it."""
    return first_remainder(_symmetrized(i, m), XPY_FORM, m, 2 * m + 1)


def check_theorem(i: int, m: int) -> CheckReport:
    """ft[i,m](x,y) + ft[i,m](y,x) is divisible by prod_{|j|<=m} (x+y+j)."""
    return CheckReport(_witness(_symmetric_remainder(i, m), "y"))


def check_v_recurrence(i: int, m: int) -> CheckReport:
    """Recurrence for V[i,m] = ft[i,m](x,y) + ft[i,m](y,x), for m >= 1:

    (2i+1)/(2m) V[i,m] = (x^2+y^2-(i+m+1)^2-(i+1)^2) V[i+1,m-1] - 2 V[i+2,m-1].
    """
    if m < 1:
        raise ValueError("recurrence needs m >= 1")
    quad = recurrence_quad(i + 1, m - 1)
    return CheckReport(_witness(-recurrence_combo(_symmetrized, i + 1, m - 1, quad)))


def check_saito(m: int) -> CheckReport:
    """Saito criterion: determinant = C * defining polynomial, C nonzero.

    Also requires the two routes to C (coefficient product vs the two exact
    integrals) to agree.
    """
    c = saito_constant(m)
    data = {"C": str(c)}
    c_int = saito_constant_integral(m)
    if c != c_int:
        return CheckReport(BiPoly.const(c - c_int).to_text(), data=data)
    det = saito_determinant(m)
    phi = defining_poly(m)
    if c == 0:
        # The criterion needs C != 0, and a witness must be nonzero: det if it
        # is (it contradicts det = 0 * phi), else phi, which det should be a
        # nonzero multiple of.
        return CheckReport((det or phi).to_text(), data=data)
    return CheckReport(_witness(det - phi * c), data=data)


def check_membership(i: int, m: int) -> CheckReport:
    """The candidate derivation theta = f*dx + g*dy, with f = ft[i,m](x,y) and
    g = ft[i,m](y,x), lies in the module of logarithmic fields:

    its images theta(x) = f, theta(y) = g, theta(x+y) = f+g and
    theta(x-y) = f-g are each divisible by the full shifted product of that
    hyperplane family.  The x clause also covers theta(y): g = f.swap(), so
    g modulo y+m-j is f modulo x+m-j.  The x+y clause is the scan theorem
    shares.  Every remainder is left in y.
    """
    f, g = basis_derivation(i, m)
    rem = (
        first_remainder(f, X_FORM, m, 2 * m + 1)
        or _symmetric_remainder(i, m)
        or first_remainder(f - g, XMY_FORM, m, 2 * m + 1)
    )
    return CheckReport(_witness(rem, "y"))


def check_parity(i: int, m: int) -> CheckReport:
    """ft[i,m] is odd in x and even in y."""
    f = deformed_poly(i, m)
    odd = f.subst_affine("x") + f
    if odd:
        return CheckReport(odd.to_text())
    even = f.subst_affine("y") - f
    return CheckReport(_witness(even))


def check_degree(i: int, m: int) -> CheckReport:
    """Total degrees: deg ft[i,m] = 4m+2i+1 and deg of the defining poly = 8m+4."""
    f = deformed_poly(i, m)
    if f.degree() != 4 * m + 2 * i + 1:
        return CheckReport(f.to_text())
    phi = defining_poly(m)
    return CheckReport(phi.to_text() if phi.degree() != 8 * m + 4 else None)
