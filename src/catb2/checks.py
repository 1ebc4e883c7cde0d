"""Executable identity checks over the Cat(B2, m) constructions.

`REGISTRY` declares every check: its name and the parameters each cell of
the (i, m) grid runs, none for a cell it skips.  Each entry has one
`check_*` function.  Every check compares two independently built exact
values and returns a CheckReport; nothing here raises on a mathematical
mismatch (only on out-of-domain parameters).  A report fails exactly when
it carries a witness: the serialized nonzero difference or remainder that
falsifies the identity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .constructions import (
    basis_derivation,
    defining_poly,
    deformed_poly,
    deformed_tail,
    even_moment,
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
)
from .rational import _cached

Params = tuple[tuple[str, int], ...]


def _p(**params: int) -> Params:
    return tuple(params.items())


def _cell(i: int, m: int, k_extra: int) -> list[Params]:
    return [_p(i=i, m=m)]


# The one place a check is declared: its name and the parameter tuples one
# grid cell (i, m, k_extra) runs; a cell whose function returns no parameter
# tuple reports SKIP.  Registry order is also the report order of the CLI
# sweep, which runs check_<name, '-' read as '_'> looked up on this module at
# call time (so patched or traced functions are the ones that run).
REGISTRY: dict[str, Callable[[int, int, int], list[Params]]] = {
    "expansion": _cell,
    "ftilde-forms": _cell,
    "lemma1": lambda i, m, kx: [_p(i=i, m=m, l=l) for l in range(m + 2)] if i else [],
    # a and b sweep the i and m ranges respectively
    "lemma2": lambda a, b, kx: [_p(a=a, b=b)],
    "lemma3": lambda i, m, kx: [
        _p(i=i, m=m, k=k, l=l) for k in range(m + kx + 1) for l in range(k + 2)
    ] if i else [],
    "prop1": lambda i, m, kx: [_p(i=i, m=m)] if i else [],
    "prop2": lambda i, m, kx: [_p(i=i, m=m, k=k) for k in range(m + kx + 1)],
    "prop3": _cell,
    "theorem": _cell,
    "v-recurrence": lambda i, m, kx: [_p(i=i, m=m)] if m else [],
    # one line per m: the sweep keeps the first of the tasks repeated over i
    "saito": lambda i, m, kx: [_p(m=m)],
    "membership": _cell,
    "parity": _cell,
    "degree": _cell,
}
CHECK_NAMES = tuple(REGISTRY)


class CheckReport(NamedTuple):
    """Outcome of one verification: the witness of a failure, absent exactly
    when the identity holds, and any constants the check reports.  A named
    tuple rather than a dataclass, so that importing catb2 does not load
    `dataclasses`."""

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
    return CheckReport(_witness(deformed_poly(i, m) * 2 - deformed_tail(i, m)[0]))


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


@_cached
def _half_integer_values(i: int, m: int, block: int) -> tuple[UniPoly, ...]:
    """ft[i,m](-1/2-k, y) for the 8 k with k // 8 == block, in one batch: of 4, 8, 12
    and 16, 8 was fastest on the default grid and level with 12 at m = 12..20."""
    ks = range(8 * block, 8 * block + 8)
    return tuple(deformed_poly(i, m).subst_value([Fraction(-(2 * k + 1), 2) for k in ks]))


def check_prop2(i: int, m: int, k: int) -> CheckReport:
    """2*ft[i,m](-1/2-k, y) equals the half-integer evaluation series."""
    lhs = _half_integer_values(i, m, k // 8)[k % 8] * 2
    witness = _witness(UniRatFunc(lhs).cross_diff(halfint_tail(i, m, k)[0]), "y")
    return CheckReport(witness)


def check_prop3(i: int, m: int) -> CheckReport:
    """Congruences of 2*ft[i,m] modulo x+y+m and x+y-m.

    mod x+y+m:  2*ft = A (x+2m+i)_(3m+2i+1) (x+m-1/2)_m
    mod x+y-m:  2*ft = B (x+m+i)_(3m+2i+1) (x-1/2)_m
    with A = B = 2*f[i,m](1, -1) = 2 integral_0^1 t^(2i) (1-t^2)^(2m) dt: the
    top-degree part of ft[i,m] is f[i,m], and each target is monic.  Each
    congruence is checked with the remainder left in x.  The same congruence
    with the remainder in y, 2*ft = -A (y+2m+i)_(3m+2i+1) (y+m-1/2)_m and
    likewise for B, follows: on x+y+c = 0, put x = -y-c in the x form, and
    each target t has t(-y-c) = -t(y).  The witness is the first nonzero
    difference, in the order above.
    """
    swapped = (deformed_poly(i, m) * 2).swap()
    const = 2 * even_moment(i, 2 * m)
    length = 3 * m + 2 * i + 1

    # (c of x+y+c, x shift, half shift)
    cases = ((m, 2 * m + i, Fraction(2 * m - 1, 2)), (-m, m + i, Fraction(-1, 2)))
    for c, ff_shift, half_shift in cases:
        rhs = ff_unipoly(ff_shift, length) * ff_unipoly(half_shift, m) * const
        # reduce_mod eliminates x, so the swap leaves the remainder in x
        in_x = XPY_FORM.reduce_mod(swapped, c) - rhs
        if in_x:
            return CheckReport(in_x.to_text("x"))
    return CheckReport(data={"A": str(const), "B": str(const)})


def _symmetrized(i: int, m: int) -> BiPoly:
    """V[i,m] = ft[i,m](x,y) + ft[i,m](y,x)."""
    f, g = basis_derivation(i, m)
    return f + g


@_cached
def _symmetric_remainder(i: int, m: int) -> UniPoly | None:
    """First nonzero remainder of V[i,m] modulo x+y+c, c = m..-m; the
    theorem and the x+y clause of membership both need it."""
    return first_remainder(_symmetrized(i, m), XPY_FORM, m)


def check_theorem(i: int, m: int) -> CheckReport:
    """ft[i,m](x,y) + ft[i,m](y,x) is divisible by prod_{|j|<=m} (x+y+j)."""
    return CheckReport(_witness(_symmetric_remainder(i, m), "y"))


def check_v_recurrence(i: int, m: int) -> CheckReport:
    """Recurrence for V[i,m] = ft[i,m](x,y) + ft[i,m](y,x), for m >= 1:

    (2i+1)/(2m) V[i,m] = (x^2+y^2-(i+m+1)^2-(i+1)^2) V[i+1,m-1] - 2 V[i+2,m-1].
    """
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
    hyperplane family.  All rests on g = f.swap(), as basis_derivation
    builds it.  The x clause covers theta(y): g modulo y+c is f modulo x+c.
    The x+y clause is the scan theorem shares.  Every remainder is left in y.
    """
    f, g = basis_derivation(i, m)
    rem = first_remainder(f, X_FORM, m) or _symmetric_remainder(i, m)
    rem = rem or first_remainder(f - g, XMY_FORM, m)
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
