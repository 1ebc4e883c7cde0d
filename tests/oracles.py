"""Reference routines the tests compare the library against.

They compute in Fractions on the `.terms` view and share nothing with
the integer kernels of `catb2.poly` but the constructors.
"""

import math
from fractions import Fraction

from catb2.poly import BiPoly, LinearForm, UniPoly


def divrem_linear(p: BiPoly, form: LinearForm, shift) -> tuple[BiPoly, UniPoly]:
    """Exact division with remainder: p = q*(x + b*y + shift) + r, b = form.b.

    r is p with x replaced by the root expression -b*y - shift, hence
    univariate in y; q and r are unique.
    """
    rows: dict[int, dict[int, Fraction]] = {}
    for (xe, ye), c in p.terms.items():
        rows.setdefault(xe, {})[ye] = c
    q_terms: dict[tuple[int, int], Fraction] = {}
    # Peel off the top x row one step at a time:
    # subtracting c*x^(e-1)*y^k*form cancels c*x^e*y^k.
    for e in range(max(rows, default=0), 0, -1):
        lower = rows.setdefault(e - 1, {})
        for k, c in rows.pop(e, {}).items():
            q_terms[(e - 1, k)] = c
            for ke, rc in ((k + 1, form.b), (k, shift)):
                lower[ke] = lower.get(ke, 0) - c * rc
    return BiPoly(q_terms), UniPoly(rows.get(0, {}))


def termwise_product(p, q) -> dict:
    """p * q term by term, as key -> nonzero Fraction (BiPoly or UniPoly)."""
    acc = {}
    for k1, c1 in p.terms.items():
        for k2, c2 in q.terms.items():
            k = (k1[0] + k2[0], k1[1] + k2[1]) if isinstance(k1, tuple) else k1 + k2
            acc[k] = acc.get(k, Fraction(0)) + c1 * c2
    return {k: c for k, c in acc.items() if c}


def form_poly(form: LinearForm, shift) -> BiPoly:
    """The linear form x + form.b*y + shift as a polynomial."""
    return BiPoly({(1, 0): 1, (0, 1): form.b, (0, 0): shift})


def homogeneous_part(p: BiPoly, d: int) -> BiPoly:
    """The terms of p of total degree d."""
    return BiPoly({k: c for k, c in p.terms.items() if sum(k) == d})


def subst_affine(p: BiPoly, var: str, sign: int, target: str, shift=0) -> BiPoly:
    """p with var replaced by sign*target + shift (target may equal var).

    Each term c * var^e expands by the binomial theorem; the exponent of
    the other variable is kept.
    """
    shift = Fraction(shift)
    out: dict[tuple[int, int], Fraction] = {}
    for (xe, ye), c in p.terms.items():
        e, keep = (xe, ye) if var == "x" else (ye, xe)
        for j in range(e + 1):  # c * binom(e, j) * (sign*target)^j * shift^(e-j)
            tx, ty = (j, 0) if target == "x" else (0, j)
            key = (tx, ty + keep) if var == "x" else (tx + keep, ty)
            term = c * math.comb(e, j) * sign**j * shift ** (e - j)
            out[key] = out.get(key, 0) + term
    return BiPoly(out)
