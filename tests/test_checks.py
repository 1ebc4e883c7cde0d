"""Check layer: verdict structure, small grids, and mutation soundness."""

import contextlib
from fractions import Fraction

import pytest

from oracles import subst_affine
from textform import parse

from catb2 import checks as ck
from catb2 import cli
from catb2 import constructions as cons
from catb2.checks import CHECK_NAMES, CheckReport
from catb2.poly import X_FORM, XPY_FORM, BiPoly, first_remainder
from catb2.rational import clear_caches


@pytest.fixture
def poison(monkeypatch):
    """Perturb one family coefficient c[i,m,k] by delta (cleaned up afterwards)."""
    original = cons.integral_poly_coeff

    def apply(key: tuple[int, int, int], delta: Fraction) -> None:
        def fake(i: int, m: int, k: int) -> Fraction:
            value = original(i, m, k)
            return value + delta if (i, m, k) == key else value

        clear_caches()
        monkeypatch.setattr(cons, "integral_poly_coeff", fake)

    yield apply
    monkeypatch.undo()
    clear_caches()


def test_report_witness_invariant():
    ok = CheckReport()
    assert ok.passed and ok.witness is None and ok.data is None
    failed = CheckReport("1", data={"C": "0"})
    assert not failed.passed and failed.witness == "1"


def test_expansion_and_forms_pass():
    for i in range(3):
        for m in range(3):
            assert ck.check_expansion(i, m).passed
            assert ck.check_ftilde_forms(i, m).passed


def test_lemma1_pass_including_forced_zero():
    for i in (1, 2):
        for m in range(3):
            for l in range(m + 2):
                rep = ck.check_lemma1(i, m, l)
                assert rep.passed, rep


def test_lemma2_pass_including_empty_cases():
    for a in range(5):
        for b in range(5):
            assert ck.check_lemma2(a, b).passed, (a, b)


def test_lemma3_pass():
    for i in (1, 2):
        for m in range(2):
            for k in range(3):
                for l in range(k + 2):
                    rep = ck.check_lemma3(i, m, k, l)
                    assert rep.passed, rep


def test_prop1_pass_and_domain():
    assert ck.check_prop1(1, 0).passed
    assert ck.check_prop1(2, 1).passed
    with pytest.raises(ValueError):
        ck.check_prop1(0, 1)


def test_prop2_pass_beyond_m():
    for i in range(3):
        for m in range(3):
            for k in range(2 * m + 3):
                assert ck.check_prop2(i, m, k).passed, (i, m, k)


def test_prop3_constants_for_base_cell():
    rep = ck.check_prop3(0, 0)
    assert rep.passed
    assert rep.data == {"A": "2", "B": "2"}


def test_prop3_pass():
    for i in range(3):
        for m in range(3):
            rep = ck.check_prop3(i, m)
            assert rep.passed
            assert set(rep.data) == {"A", "B"}


def test_theorem_small_cases():
    assert ck.check_theorem(0, 0).passed
    assert ck.check_theorem(1, 0).passed
    assert ck.check_theorem(0, 1).passed


def test_theorem_hand_case():
    # ft[1,0](x,y) + ft[1,0](y,x) = (x^3-x)/3 + (y^3-y)/3 vanishes at y = -x
    f = cons.deformed_poly(1, 0)
    v = f + f.swap()
    assert not subst_affine(v, "y", -1, "x")


def test_v_recurrence_pass_and_domain():
    for i in range(3):
        for m in (1, 2):
            assert ck.check_v_recurrence(i, m).passed
    with pytest.raises(ValueError):
        ck.check_v_recurrence(0, 0)


def test_saito_reports_constant():
    rep = ck.check_saito(0)
    assert rep.passed
    assert rep.data == {"C": "-1/3"}
    assert ck.check_saito(1).data == {"C": "4/105"}


def test_membership_and_parity_and_degree():
    for i in range(3):
        for m in range(3):
            assert ck.check_membership(i, m).passed
            assert ck.check_parity(i, m).passed
            assert ck.check_degree(i, m).passed


@pytest.mark.parametrize("case", ["det", "phi", "one-route"])
def test_saito_zero_constant_has_nonzero_witness(monkeypatch, case):
    monkeypatch.setattr(ck, "saito_constant", lambda m: Fraction(0))
    if case != "one-route":
        monkeypatch.setattr(ck, "saito_constant_integral", lambda m: Fraction(0))
    if case == "phi":
        monkeypatch.setattr(ck, "saito_determinant", lambda m: BiPoly.zero())
    rep = ck.check_saito(1)
    expected = {
        "det": cons.saito_determinant(1),
        "phi": cons.defining_poly(1),
        "one-route": BiPoly.const(-cons.saito_constant_integral(1)),
    }[case]
    assert expected
    assert not rep.passed
    assert rep.witness == expected.to_text()


def test_checks_are_pure_after_cache_clear():
    before = ck.check_prop3(1, 1)
    clear_caches()
    after = ck.check_prop3(1, 1)
    assert before == after


def test_xpy_clause_of_membership_is_the_theorem_polynomial(poison):
    # membership reads its x+y clause from the scan it shares with theorem,
    # which must be the scan of theta(x+y) = f + g; poisoned so that one
    # cell compares a nonzero remainder
    poison((1, 2, 1), Fraction(1, 7))
    assert ck._symmetric_remainder(1, 2) is not None
    for i in range(3):
        for m in range(3):
            f, g = cons.basis_derivation(i, m)
            scan = first_remainder(f + g, XPY_FORM, m, 2 * m + 1)
            assert ck._symmetric_remainder(i, m) == scan


def test_y_clause_of_membership_is_the_x_clause(poison):
    # membership scans theta(x) = f alone: theta(y) = g = f.swap() leaves the
    # same remainder modulo y+m-j (g at y = j-m) as f modulo x+m-j.  Poisoned
    # as membership's matrix row; j = 2m+1 leaves the family, so nonzero
    # remainders compare too.
    poison((1, 2, 1), Fraction(1, 7))
    remainders = []
    for i in range(3):
        for m in range(3):
            f, g = cons.basis_derivation(i, m)
            for j in range(2 * m + 2):
                rem = X_FORM.shifted(m - j).reduce_mod(f)
                assert g.subst_value("y", j - m) == rem
                remainders.append(rem)
    assert any(remainders)


def test_shared_remainder_scan_is_dropped_by_clear_caches():
    ck.check_theorem(1, 1)
    assert ck._symmetric_remainder.cache_info().currsize > 0
    clear_caches()
    assert ck._symmetric_remainder.cache_info().currsize == 0


def test_membership_alone_finds_the_theorem_witness(poison):
    poison((1, 2, 1), Fraction(1, 7))
    membership = ck.check_membership(1, 2)  # fresh caches: runs the scan itself
    clear_caches()
    theorem = ck.check_theorem(1, 2)
    assert not membership.passed and not theorem.passed
    assert membership.witness == theorem.witness


def _cell(**params: int) -> tuple[tuple[str, int], ...]:
    return tuple(params.items())


def _plus_one(value, *args):
    return value + 1


def _plus_one_seventh(value, *args):
    return value + Fraction(1, 7)


def _plus_poly_one(value, *args):
    return value + BiPoly.const(1)


# check -> (construction perturbed, the arguments it is perturbed at (None:
# all), the perturbation of its value, a cell where the check must FAIL)
MUTATIONS = {
    "expansion": ("integral_poly_coeff", (1, 1, 0), _plus_one, _cell(i=1, m=1)),
    "ftilde-forms": ("integral_poly_coeff", (1, 1, 0), _plus_one, _cell(i=1, m=1)),
    "lemma1": ("deformed_term", (1, 1, 1), _plus_poly_one, _cell(i=1, m=1, l=1)),
    # at (a, b) = (1, 1) both sides of the identity change
    "lemma2": ("falling_factorial", (2, 2), _plus_one, _cell(a=0, b=1)),
    "lemma3": ("halfint_term", (1, 1, 1, 1), lambda v, *a: v * 2, _cell(i=1, m=1, k=1, l=1)),
    "prop1": ("integral_poly_coeff", (1, 1, 0), _plus_one, _cell(i=1, m=1)),
    "prop2": ("integral_poly_coeff", (1, 1, 0), _plus_one, _cell(i=1, m=1, k=0)),
    "prop3": ("integral_poly_coeff", (1, 2, 1), _plus_one_seventh, _cell(i=1, m=2)),
    "theorem": ("integral_poly_coeff", (1, 2, 1), _plus_one_seventh, _cell(i=1, m=2)),
    "v-recurrence": ("integral_poly_coeff", (1, 1, 0), _plus_one, _cell(i=1, m=1)),
    "saito": ("integral_poly_coeff", (1, 1, 0), _plus_one, _cell(m=1)),
    "membership": ("integral_poly_coeff", (1, 2, 1), _plus_one_seventh, _cell(i=1, m=2)),
    "parity": ("deformed_poly", None, _plus_poly_one, _cell(i=1, m=2)),
    "degree": (
        "deformed_poly",
        None,
        lambda f, i, m: f + BiPoly.monomial(1, 4 * m + 2 * i + 2, 0),
        _cell(i=1, m=1),
    ),
}


@contextlib.contextmanager
def mutated(target: str, at, perturb):
    """Run the body with construction `target` perturbed by `perturb` at the
    arguments `at` (None: all), on caches that are empty before and dropped
    after."""
    original = getattr(cons, target)

    def fake(*args):
        value = original(*args)
        return perturb(value, *args) if at is None or args == at else value

    clear_caches()
    with pytest.MonkeyPatch.context() as mp:
        for module in (cons, ck):  # every namespace that calls it by this name
            if vars(module).get(target) is original:
                mp.setattr(module, target, fake)
        try:
            yield
        finally:
            clear_caches()


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_mutation_matrix_flips_every_check(name):
    assert set(MUTATIONS) == set(CHECK_NAMES)  # a new check needs a mutation
    *mutation, params = MUTATIONS[name]
    with mutated(*mutation):
        report = cli.execute_task(("run", name, params))
    assert isinstance(report, CheckReport) and not report.passed
    assert parse(report.witness.replace("z", "x"))  # lemma2 reports in z


def _drop_third_term(combo, value, i, m, quad):
    return combo + value(i - 1, m + 1) * Fraction(2 * i - 1, 2 * m + 2)


def _zero(combo, *args):
    return combo * 0


# prop1, v-recurrence, lemma1 and lemma3 all go through recurrence_combo, so
# a fault there could cancel between the two sides of the recurrence checks:
# returning zero passes prop1 and v-recurrence, and only the closed forms of
# lemma1 and lemma3 catch it.
@pytest.mark.parametrize(
    "perturb, names",
    [
        (_drop_third_term, ("prop1", "v-recurrence", "lemma1", "lemma3")),
        (_zero, ("lemma1", "lemma3")),
    ],
    ids=["drop-third-term", "zero"],
)
def test_mutated_recurrence_combo_fails_the_checks_that_share_it(perturb, names):
    for name in names:
        with mutated("recurrence_combo", None, perturb):
            report = cli.execute_task(("run", name, MUTATIONS[name][-1]))
        assert isinstance(report, CheckReport) and not report.passed, name


@pytest.mark.parametrize(
    "call",
    [
        lambda: cons.recurrence_combo(cons.deformed_poly, 0, 1, cons.recurrence_quad(0, 1)),
        lambda: cons.tail_combo(0, 1, 0),
        lambda: cons.halfint_combo(0, 1, 1, 0),
        lambda: ck.check_prop1(0, 2),
        lambda: ck.check_v_recurrence(1, 0),
    ],
    ids=["recurrence_combo", "tail_combo", "halfint_combo", "prop1", "v-recurrence"],
)
def test_recurrence_users_reject_indices_below_their_domain(call):
    with pytest.raises(ValueError):
        call()


def test_halfint_quad_is_the_recurrence_quad_at_the_half_integer(monkeypatch):
    # halfint_combo writes its quad out as a UniPoly rather than substituting
    # into recurrence_quad, the one other place the coefficient is spelled
    quads = []
    original = cons.recurrence_combo

    def spy(value, i, m, quad):
        quads.append(quad)
        return original(value, i, m, quad)

    monkeypatch.setattr(cons, "recurrence_combo", spy)
    for i in (1, 2, 3):
        for m in range(3):
            for k in range(4):
                quads.clear()
                cons.halfint_combo(i, m, k, k + 1)
                x = Fraction(-(2 * k + 1), 2)
                assert quads == [cons.recurrence_quad(i, m).subst_value("x", x)], (i, m, k)
