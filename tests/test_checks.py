"""Check layer: verdict structure, small grids, and mutation soundness."""

import contextlib
import io
import itertools
from fractions import Fraction

import pytest

from oracles import divrem_linear, subst_affine
from textform import parse

from catb2 import checks as ck
from catb2 import cli
from catb2 import constructions as cons
from catb2 import poly
from catb2 import rational
from catb2.checks import CHECK_NAMES, CheckReport
from catb2.poly import (
    X_FORM,
    XMY_FORM,
    XPY_FORM,
    BiPoly,
    ff_linear_poly,
    ff_poly,
    ff_unipoly,
    first_remainder,
)
from catb2.rational import beta_half, clear_caches


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
    # A = B = 2 integral_0^1 t^(2i) (1-t^2)^(2m) dt = B(i+1/2, 2m+1), here
    # through the Beta integral's falling-factorial form
    for i in range(5):
        for m in range(9):
            rep = ck.check_prop3(i, m)
            expected = str(beta_half(0, i, 2 * m))
            assert rep.passed
            assert rep.data == {"A": expected, "B": expected}


def test_prop3_targets_are_odd_about_their_lines():
    """Each prop3 target t, for the line x+y+c = 0, has t(-y-c) = -t(y): the
    remainder of t(x) modulo x+y+c is -t.  So on that line the congruence
    with the remainder in y is the one in x with x = -y-c, and check_prop3
    need not check it."""
    for i in range(5):
        for m in range(9):
            length = 3 * m + 2 * i + 1
            cases = ((m, 2 * m + i, Fraction(2 * m - 1, 2)), (-m, m + i, Fraction(-1, 2)))
            for c, ff_shift, half_shift in cases:
                t = ff_unipoly(ff_shift, length) * ff_unipoly(half_shift, m)
                assert XPY_FORM.reduce_mod(t.as_bipoly("x"), c) == -t, (i, m, c)


def test_prop3_fails_on_scaled_remainders(monkeypatch):
    """Every slope +-1 remainder tripled: both sides of each congruence scale
    alike, so only the closed form of A and B can catch it."""
    original = poly._subst_roots

    def tripled(p, slope, values):
        for remainder in original(p, slope, values):
            yield remainder * 3 if slope in (1, -1) else remainder

    cfg = cli.SweepConfig(
        i_range=(0, 4), m_range=(0, 8), k_extra=2, checks=CHECK_NAMES, format="text", jobs=1
    )
    out = io.StringIO()
    clear_caches()
    monkeypatch.setattr(poly, "_subst_roots", tripled)
    try:
        code = cli.run_verify(cfg, out)
    finally:
        clear_caches()
    prop3 = [line for line in out.getvalue().splitlines() if line.startswith("CHECK=prop3 ")]
    assert code == 1
    assert len(prop3) == 45 and all("RESULT=FAIL WITNESS=" in line for line in prop3)


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
        monkeypatch.setattr(ck, "saito_determinant", lambda m: BiPoly())
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
            scan = first_remainder(f + g, XPY_FORM, m)
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
                rem = X_FORM.reduce_mod(f, m - j)
                # g at y = j-m, a polynomial in x, by the Fraction oracle
                assert subst_affine(g, "y", 0, "y", j - m) == rem.as_bipoly("x")
                remainders.append(rem)
    assert any(remainders)


def test_xmy_remainders_of_membership_pair_up_about_zero(poison):
    # membership scans theta(x-y) = h = f-g modulo x-y+c for c = m..0, as
    # every term of h has odd total degree; h(y,x) = -h(x,y) gives the same
    # pairing by another route: R_c(y) = h(y-c, y) has R_0 = 0 and
    # R_{-c}(y-c) = -R_c(y).  Poisoned as membership's matrix row; c = m+1
    # leaves the family, so nonzero remainders compare too.
    poison((1, 2, 1), Fraction(1, 7))
    remainders = []
    for i in range(3):
        for m in range(3):
            f, g = cons.basis_derivation(i, m)
            h = f - g
            assert not XMY_FORM.reduce_mod(h, 0), (i, m)
            for c in range(1, m + 2):
                rem = XMY_FORM.reduce_mod(h, c)
                mirror = XMY_FORM.reduce_mod(h, -c).as_bipoly("y")
                assert subst_affine(mirror, "y", 1, "y", -c) == -rem.as_bipoly("y"), (i, m, c)
                remainders.append(rem)
    assert any(remainders)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_xmy_clause_of_membership_scans_the_shifts_one_to_m(monkeypatch, m):
    # f = P(x) P(y) P(x+y) r, P the full shifted product of a family and r
    # antisymmetric, passes the x and y clauses, and f+g = 0.  f-g = 2 P P P r
    # has the remainders of r on x-y+c: r = (x-y) prod_{c<n} ((x-y)^2-c^2)
    # makes c = m the first nonzero one for n = m and none for n = m+1.
    # Every term of f has even total degree, so each scan reads c = m..-m.
    d = BiPoly.monomial(1, 1, 0) - BiPoly.monomial(1, 0, 1)
    f = ff_poly("x", m, 2 * m + 1) * ff_poly("y", m, 2 * m + 1) * d
    f = f * ff_linear_poly(XPY_FORM, m, 2 * m + 1)
    for c in range(1, m):
        f = f * (d * d - BiPoly.const(c * c))
    witness = divrem_linear(f - f.swap(), XMY_FORM, m)[1].to_text("y")
    cases = ((f, witness), (f * (d * d - BiPoly.const(m * m)), None))
    try:
        for p, expected in cases:
            monkeypatch.setattr(ck, "basis_derivation", lambda i, m, p=p: (p, p.swap()))
            clear_caches()
            assert ck.check_membership(0, m).witness == expected
    finally:
        clear_caches()


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
def mutated(target: str, at, perturb, namespaces=(cons, ck)):
    """Run the body with construction `target` perturbed by `perturb` at the
    arguments `at` (None: all), on caches that are empty before and dropped
    after.  The fake replaces `target` in each of `namespaces` that holds it,
    or a method `Class.name` of poly on its class."""
    owner, _, target = target.rpartition(".")
    holders = [vars(poly)[owner]] if owner else [ns for ns in namespaces if target in vars(ns)]
    original = vars(holders[0])[target]

    def fake(*args):
        value = original(*args)
        return perturb(value, *args) if at is None or args == at else value

    clear_caches()
    with pytest.MonkeyPatch.context() as mp:
        for holder in holders:  # each namespace that calls it by this name
            if vars(holder)[target] is original:
                mp.setattr(holder, target, fake)
        try:
            yield
        finally:
            clear_caches()


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_mutation_matrix_flips_every_check(name):
    assert set(MUTATIONS) == set(CHECK_NAMES)  # a new check needs a mutation
    *mutation, params = MUTATIONS[name]
    with mutated(*mutation):
        fields, _ = cli.execute_task(("run", name, params))
    assert fields["result"] == "FAIL"
    assert parse(fields["witness"].replace("z", "x"))  # lemma2 reports in z


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
            fields, _ = cli.execute_task(("run", name, MUTATIONS[name][-1]))
        assert fields["result"] == "FAIL", name
        assert parse(fields["witness"].replace("z", "x")), name


def _both_at_least(terms: int, a, b) -> bool:
    return isinstance(b, type(a)) and min(len(a.num), len(b.num)) >= terms


def _bump_top(p):
    """p with 1 added to the coefficient of its largest exponent key."""
    return p + type(p)({max(p.num): 1}) if p else p


# A fault in one shared kernel, patched in every module that calls it (a
# polynomial method on its class, `__rmul__` left as is): the exact set of
# checks whose cells then FAIL or raise on --i 0..4 --m 0..8, and the
# sweep's exit code.
_SCALARS = {"expansion", "prop2", "prop3", "saito"}
_POLYS = {"lemma1", "membership", "prop1", "prop2", "prop3", "saito", "theorem", "v-recurrence"}
KERNEL_FAULTS = {
    "even_moment": (lambda v, *a: v * 3, {"prop3", "saito"}, 1),
    "beta_half": (lambda v, *a: v * 3, _SCALARS, 1),
    "ff_unipoly": (lambda v, shift, k: v * 2 if k >= 3 else v, _POLYS | {"lemma2", "lemma3"}, 1),
    "binomial": (lambda v, n, k: v + 1 if 0 < k < n else v, _POLYS | {"expansion"}, 1),
    # some cells divide by a pole the fault creates, so the sweep exits 3
    "falling_factorial_pair": (
        lambda v, a, d, k: (v[0] + 1, v[1]) if k >= 2 else v,
        _POLYS | {"expansion", "lemma2", "lemma3"},
        3,
    ),
    "BiPoly.__mul__": (
        lambda v, a, b: v * 2 if _both_at_least(10, a, b) else v,
        {"lemma1", "prop1", "saito"},
        1,
    ),
    # no univariate product on this grid has both operands of 12 terms or more
    "UniPoly.__mul__": (
        lambda v, a, b: v * 2 if _both_at_least(5, a, b) else v,
        _POLYS | {"lemma2", "lemma3"},
        1,
    ),
    # only the products of two operands with dense x rows: saito's
    # ft[0,m]*ft[1,m].swap() and defining_poly's two large ones, from m = 3
    "_packed_product": (lambda v, p, q: _bump_top(v), {"saito"}, 1),
    # 12 lemma3 tasks with k > m (i=1 m=6 k=8 l=1 among them) pass: their
    # numerators over the shared D[m,k] stay under the 10-term threshold,
    # the same sums cross-multiplied by D[m,k] would not; lemma3 still
    # catches the fault on k <= m
    "_IntPoly._combine": (
        lambda v, a, b, sign: _bump_top(v) if _both_at_least(10, a, b) else v,
        _POLYS | {"ftilde-forms", "lemma2", "lemma3"},
        1,
    ),
    # every remainder reads zero: theorem and membership ask only whether a
    # remainder is zero, so they pass under this fault; prop2 and prop3
    # compare a remainder with a value built without it
    "_subst_roots": (
        lambda v, p, slope, values: (poly.UniPoly() for _ in values),
        {"prop2", "prop3"},
        1,
    ),
    # only the remainders at roots r > 0, the shifts c < 0 that first_remainder
    # skips when every term has odd total degree: theorem and membership no
    # longer reach them; prop3's reduction modulo x+y-m does, and compares values
    "_subst_roots:positive-roots": (
        lambda v, p, slope, values: (
            r + poly.UniPoly.const(1) if x > 0 else r for r, x in zip(v, values)
        ),
        {"prop3"},
        1,
    ),
    # 1 added to every three-term recurrence, a zero one included: prop1 and
    # v-recurrence expect zero, lemma1 and lemma3 their closed forms
    "recurrence_sum": (
        lambda v, *a: v + type(v).const(1),
        {"lemma1", "lemma3", "prop1", "v-recurrence"},
        1,
    ),
    # every recurrence reads zero: prop1 and v-recurrence pass, and only the
    # closed forms of lemma1 and lemma3 catch it
    "recurrence_sum:zero": (lambda v, *a: type(v)(), {"lemma1", "lemma3"}, 1),
}


@pytest.mark.parametrize("kernel", KERNEL_FAULTS)
def test_kernel_fault_is_caught_by_exactly_the_checks_that_use_it(kernel):
    perturb, catchers, code = KERNEL_FAULTS[kernel]
    kernel = kernel.partition(":")[0]  # a row name past ":" tells rows of one kernel apart
    cfg = cli.SweepConfig(
        i_range=(0, 4), m_range=(0, 8), k_extra=2, checks=CHECK_NAMES, format="text", jobs=1
    )
    out = io.StringIO()
    with mutated(kernel, None, perturb, namespaces=(rational, poly, cons, ck)):
        assert cli.run_verify(cfg, out) == code
    caught = {
        line.split()[0].removeprefix("CHECK=")
        for line in out.getvalue().splitlines()
        if "RESULT=FAIL" in line or "RESULT=ERROR" in line
    }
    assert caught == catchers


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
    # halfint_quad writes its quad out as a UniPoly rather than substituting
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
                expected = cons.recurrence_quad(i, m).subst_value(x)
                assert quads == [expected], (i, m, k)


def _lemma3_fields(i: int, m: int, k: int, l: int) -> dict:
    fields, _ = cli.execute_task(("run", "lemma3", _cell(i=i, m=m, k=k, l=l)))
    return fields


def test_lemma3_combo_shares_the_closed_form_denominator_for_every_k_above_m():
    # the benchmark's halfint-k grid: i 1..4 (lemma3 skips i = 0), m 0..4,
    # --k-extra 6.  Over one denominator every sum in halfint_combo and its
    # difference with the closed form add numerators, not cross-products.
    tasks = [dict(p) for i in range(1, 5) for m in range(5) for p in ck.REGISTRY["lemma3"](i, m, 6)]
    above = [params for params in tasks if params["k"] > params["m"]]
    assert len(tasks) == 1100 and len(above) == 900
    for params in above:
        assert cons.halfint_combo(**params).denom == cons.halfint_closed(**params).denom, params
    assert all(ck.check_lemma3(**params).passed for params in tasks)


def test_a_broken_denominator_nesting_fails_every_lemma3_tail_but_the_last():
    # doubling D[0,2] = (y+3/2)_4 breaks D[0,2] = D[1,2]*(y^2-9/4); the tails
    # over D[0,2] and the closed form double their denominators consistently,
    # the (0, 1) tail written over D[1,2]*(y^2-9/4) is then off that
    # denominator, and the sums with it cross-multiply
    fault = ("ff_unipoly", (Fraction(3, 2), 4), lambda v, *a: v * 2, (poly, cons, ck))
    with mutated(*fault):
        fields = [_lemma3_fields(1, 0, 2, l) for l in range(4)]
    assert [f["result"] for f in fields] == ["FAIL", "FAIL", "FAIL", "PASS"]


def test_a_tail_off_the_shared_denominator_fails_lemma3():
    # the same numerator over 2*D[0,2] is another value, so lemma3 must fail
    def halve_tail_1(v, *a):
        return (v[0], poly.UniRatFunc(v[1].numer, v[1].denom * 2), *v[2:])

    halve = ("halfint_tail", (2, 0, 2), halve_tail_1)
    with mutated(*halve):
        assert _lemma3_fields(1, 0, 2, 1)["result"] == "FAIL"


@pytest.mark.parametrize("numer, result", [(1, "FAIL"), (2, "PASS")], ids=["halved", "same-value"])
def test_a_nested_tail_off_its_denominator_is_multiplied_by_q(numer, result):
    # the (0, 1) tail of lemma3 at (1, 0, 2, 1) rewritten over 2*D[1,2]: with
    # its numerator kept it is another value, with it doubled the same one,
    # which only multiplying that tail by q (not the shared D[1,2]*q) keeps
    def over_twice_the_denominator(v, *a):
        return (v[0], poly.UniRatFunc(v[1].numer * numer, v[1].denom * 2), *v[2:])

    with mutated("halfint_tail", (0, 1, 2), over_twice_the_denominator):
        assert _lemma3_fields(1, 0, 2, 1)["result"] == result


def test_every_nested_tail_on_the_halfint_grid_lies_over_the_shared_denominator(monkeypatch):
    # the benchmark's halfint-k grid: each tail tuple starts from its last
    # summand, so no sum adds the zero tail over 1 and every sum of the sweep
    # adds numerators over one denominator; the values cannot show it, since
    # a cross-multiplied sum has the same canonical (numer, denom)
    add, equal = poly.UniRatFunc.__add__, []

    def spy(a, b):
        equal.append(a.denom == b.denom)
        return add(a, b)

    clear_caches()
    monkeypatch.setattr(poly.UniRatFunc, "__add__", spy)
    cfg = cli.SweepConfig(
        i_range=(0, 4), m_range=(0, 4), k_extra=6, checks=("prop2", "lemma3"), format="text", jobs=1
    )
    assert cli.run_verify(cfg, io.StringIO()) == 0
    assert equal and all(equal), equal.count(False)
    # every (m+1, k) tail that lemma3 reads for k > m lies over D[m+1,k], so
    # it takes the precomputed D[m+1,k]*q, which is D[m,k]; none is a
    # product of its own
    for i, m in itertools.product(range(4), range(5)):
        for k in range(m + 1, m + 7):
            q, below, shared = cons._halfint_nest(k - m)
            assert shared == below * q == cons.halfint_tail(i, m, k)[0].denom, (i, m, k)
            assert all(u.denom == below for u in cons.halfint_tail(i, m + 1, k)[: k + 1]), (i, m, k)


@pytest.mark.parametrize(
    "check, m_range",
    [("prop2", (0, 1)), ("saito", (4, 5))],
    ids=["remainder", "packed-product"],
)
def test_a_remainder_wider_than_its_degree_is_a_harness_error(monkeypatch, check, m_range):
    # one digit fewer than a remainder's degree, or than a row of a packed
    # product (saito's ft[0,m]*ft[1,m].swap() from m = 3), allows: the decode
    # raises, the cells report ERROR and the sweep exits 3 instead of running
    # away or printing a wrong polynomial
    original = poly._signed_digits
    monkeypatch.setattr(poly, "_signed_digits", lambda acc, bits, n: original(acc, bits, n - 1))
    clear_caches()
    cfg = cli.SweepConfig(
        i_range=(0, 1), m_range=m_range, k_extra=1, checks=(check,), format="text", jobs=1
    )
    out = io.StringIO()
    assert cli.run_verify(cfg, out) == 3
    lines = out.getvalue().splitlines()
    assert lines and all("RESULT=ERROR ERROR=ArithmeticError" in line for line in lines)
