"""Reference routines the tests compare the library against.

They compute in Fractions on the `.terms` view and share nothing with
the integer kernels of `catb2.poly` but the constructors.
"""

from fractions import Fraction

from catb2 import BiPoly, LinearForm, UniPoly


def divrem_linear(p: BiPoly, form: LinearForm) -> tuple[BiPoly, UniPoly]:
    """Exact division with remainder by a linear form: p = q*form + r.

    r is p with x replaced by the root expression of the form, hence
    univariate in y; q and r are unique.
    """
    rows: dict[int, dict[int, Fraction]] = {}
    for (xe, ye), c in p.terms.items():
        rows.setdefault(xe, {})[ye] = c
    q_terms: dict[tuple[int, int], Fraction] = {}
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


def homogeneous_part(p: BiPoly, d: int) -> BiPoly:
    """The terms of p of total degree d."""
    return BiPoly({k: c for k, c in p.terms.items() if sum(k) == d})
