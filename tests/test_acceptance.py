"""Acceptance criteria, one test per criterion.

Every comparison is exact (tolerance zero): all arithmetic is rational.
Each test prints one `ACCEPTANCE <nn> <label>: PASS|FAIL` line; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""

import subprocess
import sys
import time
from fractions import Fraction

import pytest

from test_checks import mutated
from textform import parse

from catb2 import checks as ck
from catb2 import constructions as cons
from catb2.poly import BiPoly

GRID4 = [(i, m) for i in range(5) for m in range(5)]


def _criterion(number: int, label: str, failures: list) -> None:
    verdict = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number:02d} {label}: {verdict}")
    assert not failures, f"criterion {number} ({label}): {failures[:5]}"


def test_criterion_01_expansion_oracle():
    start = time.perf_counter()
    failures = [
        (i, m)
        for i, m in GRID4
        if cons.poly_from_coeffs(i, m) != cons.integral_poly(i, m)
    ]
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(("elapsed", elapsed))
    _criterion(1, "coefficient form equals term-wise integration", failures)


def test_criterion_02_deformation_consistency():
    failures = []
    for i, m in GRID4:
        total = BiPoly.zero()
        for u in range(m + 1):
            total = total + cons.deformed_term(i, m, u)
        if total != cons.deformed_poly(i, m) * 2:
            failures.append((i, m))
    _criterion(2, "expansion summands add to twice the deformation", failures)


def test_criterion_03_saito_criterion():
    start = time.perf_counter()
    failures = []
    for m in range(5):
        c = cons.saito_constant(m)
        if c == 0 or c != cons.saito_constant_integral(m):
            failures.append(("constant", m))
        if cons.saito_determinant(m) != cons.defining_poly(m) * c:
            failures.append(("determinant", m))
    if cons.saito_constant(0) != Fraction(-1, 3):
        failures.append("C(0)")
    if cons.saito_constant(1) != Fraction(4, 105):
        failures.append("C(1)")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(("elapsed", elapsed))
    _criterion(3, "determinant equals nonzero constant times defining poly", failures)


def test_criterion_04_recurrence():
    failures = [
        (i, m)
        for i in range(1, 5)
        for m in range(4)
        if not ck.check_prop1(i, m).passed
    ]
    _criterion(4, "three-term recurrence across the family", failures)


def test_criterion_05_tail_closed_form():
    failures = []
    for i in range(1, 4):
        for m in range(4):
            for l in range(m + 2):
                if not ck.check_lemma1(i, m, l).passed:
                    failures.append((i, m, l))
            if cons.tail_closed(i, m, m + 1) != BiPoly.zero():
                failures.append((i, m, "forced zero"))
    _criterion(5, "tail combination equals closed form incl. l=m+1", failures)


def test_criterion_06_telescoping_sum():
    failures = []
    for a in range(7):
        for b in range(7):
            if not ck.check_lemma2(a, b).passed:
                failures.append((a, b))
            if a > b:
                lhs, rhs = cons.telescope_cleared_sides(a, b)
                if lhs or rhs:
                    failures.append((a, b, "nonzero empty case"))
    _criterion(6, "telescoping sum identity via cleared denominators", failures)


def test_criterion_07_halfint_closed_form():
    failures = [
        (i, m, k, l)
        for i in (1, 2)
        for m in range(3)
        for k in range(4)
        for l in range(k + 2)
        if not ck.check_lemma3(i, m, k, l).passed
    ]
    _criterion(7, "half-integer tail combination equals closed form", failures)


def test_criterion_08_halfint_evaluation():
    failures = [
        (i, m, k)
        for i in range(4)
        for m in range(4)
        for k in range(2 * m + 3)
        if not ck.check_prop2(i, m, k).passed
    ]
    _criterion(8, "half-integer evaluation incl. k beyond m", failures)


def test_criterion_09_congruences():
    failures = []
    for i, m in GRID4:
        rep = ck.check_prop3(i, m)
        if not rep.passed:
            failures.append((i, m))
    base = ck.check_prop3(0, 0)
    if base.data != {"A": "2", "B": "2"}:
        failures.append(("base constants", base.data))
    _criterion(9, "congruences mod x+y+m and x+y-m with constants", failures)


def test_criterion_10_symmetrized_divisibility():
    failures = [(i, m) for i, m in GRID4 if not ck.check_theorem(i, m).passed]
    failures += [
        ("v-rec", i, m)
        for i in range(5)
        for m in range(1, 5)
        if not ck.check_v_recurrence(i, m).passed
    ]
    _criterion(10, "symmetrized poly divisible by full x+y family", failures)


def test_criterion_11_membership():
    failures = [
        (i, m)
        for i in (0, 1)
        for m in range(5)
        if not ck.check_membership(i, m).passed
    ]
    _criterion(11, "candidate derivations are logarithmic for all planes", failures)


def test_criterion_12_structure():
    failures = []
    for i, m in GRID4:
        if not ck.check_degree(i, m).passed:
            failures.append(("degree", i, m))
        if not ck.check_parity(i, m).passed:
            failures.append(("parity", i, m))
    _criterion(12, "degrees and parity across the grid", failures)


def test_criterion_13_harness():
    failures = []
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "catb2", "verify", "--checks", "all"],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        failures.append(("exit", proc.returncode))
    if "RESULT=FAIL" in proc.stdout:
        failures.append("unexpected FAIL line")
    if elapsed >= 60.0:
        failures.append(("elapsed", elapsed))

    # soundness: a single perturbed coefficient must surface as FAIL + witness
    with mutated("integral_poly_coeff", (1, 2, 1), lambda value, *args: value + 1):
        rep = ck.check_prop1(1, 2)
    if rep.passed:
        failures.append("mutation not detected")
    elif not parse(rep.witness):
        failures.append("zero witness")
    _criterion(13, "default sweep green and mutation-sound", failures)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v", "-s"]))
