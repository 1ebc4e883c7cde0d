"""Strict reader of the canonical text form that `BiPoly.to_text` writes
(see `catb2.poly`): a text it reads back is also proven canonical."""

from fractions import Fraction

from catb2.poly import BiPoly


def parse(text: str) -> BiPoly:
    terms = {}
    for term in text.split(" + "):
        coef, *powers = term.split(" * ")
        exps = {"x": 0, "y": 0}
        for power in powers:
            var, e = power.split("^")
            assert var in exps, f"unknown variable in {text!r}"
            exps[var] = int(e)
        key = (exps["x"], exps["y"])
        assert key not in terms, f"repeated monomial in {text!r}"
        terms[key] = Fraction(coef)
    p = BiPoly(terms)
    assert p.to_text() == text, f"not canonical: {text!r}"
    return p
