import random
from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest
from operator_reference import SampleAtPole, at, factor, mul, scaled

from symfusion import products, rmatrix, tensorop
from symfusion.fusion import FusionConfig, e_operator, f_operator_general
from symfusion.products import OrbitComparison, _cleared
from symfusion.rmatrix import (Affine, _g_factors, _h_factors, check_eval_consistency_E,
                               check_eval_consistency_F, check_image_coincidence,
                               check_intertwiner_E, check_intertwiner_F,
                               check_lemma44, check_reflection_image, check_rtt,
                               check_unitarity, check_yang_baxter_family,
                               run_identity_check, variables)
from symfusion.shapes import (Partition, partitions_of, row_tableau, skew,
                              standard_tableaux)
from symfusion.symalg import Permutation
from symfusion.tensorop import BilinearForm, SparseOperator, column_orbits, perm_op, q_op

SEED = 1729


def P(*parts):
    return Partition(parts)


def swap12(N=2, n=2):
    return perm_op(Permutation.transposition(n, 1, 2), N)


def test_R_factor_values():
    # the exchange factor 1 - P/(x-y) at (2, 0)
    P = swap12()
    op = factor(P, -1, Fraction(2) - Fraction(0))
    expected = SparseOperator.identity(2, 2) - scaled(
        perm_op(Permutation((2, 1)), 2), Fraction(1, 2))
    assert op == expected
    # the contraction factor 1 + Q/(x+y) at (3, 1)
    Q = q_op(1, 2, BilinearForm("symmetric", 2), 2)
    assert factor(Q, 1, Fraction(4)) == SparseOperator.identity(2, 2) + scaled(
        Q, Fraction(1, 4))
    with pytest.raises(SampleAtPole):
        factor(P, -1, Fraction(1) - Fraction(1))


def test_tilde_bar_inverse_at_sample():
    Q = q_op(1, 2, BilinearForm("symmetric", 2), 2)
    x, y = Fraction(3), Fraction(1)
    prod = mul(factor(Q, 1, x + y), factor(Q, -1, x + y + 2))
    assert prod == SparseOperator.identity(2, 2)


def test_RR_flipped_is_scalar():
    x, y = Fraction(5), Fraction(2)
    P21 = perm_op(Permutation.transposition(2, 2, 1), 2)
    prod = mul(factor(swap12(), -1, x - y), factor(P21, -1, y - x))
    assert prod == scaled(SparseOperator.identity(2, 2), Fraction(1) - Fraction(1, 9))


@pytest.mark.parametrize("which", ["YB35", "tilde37", "bar38", "mixed385"])
@pytest.mark.parametrize("kind", ["symmetric", "alternating"])
def test_yang_baxter_family(which, kind):
    form = BilinearForm(kind, 2)
    assert check_yang_baxter_family(which, 2, form).passed


@pytest.mark.parametrize("which", ["RR", "tildebar"])
def test_unitarity_checks(which):
    for form in (BilinearForm("symmetric", 2), BilinearForm("alternating", 2)):
        assert check_unitarity(which, 2, form).passed


def test_factor_slot_argument_symmetry():
    # tilde and bar factors are invariant under swapping slots with arguments
    points = [(Fraction(3), Fraction(-1, 2)), (Fraction(-7, 3), Fraction(5)),
              (Fraction(0), Fraction(4, 5))]
    for form in (BilinearForm("symmetric", 2), BilinearForm("alternating", 2)):
        for x, y in points:
            Q12, Q21 = q_op(1, 2, form, 2), q_op(2, 1, form, 2)
            assert factor(Q12, 1, x + y) == factor(Q21, 1, y + x)
            assert factor(Q12, -1, x + y + 2) == factor(Q21, -1, y + x + 2)


def test_rtt_examples():
    assert check_rtt((Fraction(0),), 2).passed
    assert check_rtt((Fraction(0), Fraction(1)), 2).passed
    assert check_rtt((Fraction(-1), Fraction(1)), 2).passed


def test_intertwiner_E_examples():
    for lam, mu in (((2,), ()), ((1, 1), ()), ((2, 1), (1,))):
        for T in standard_tableaux(skew(P(*lam), P(*mu))):
            chk = check_intertwiner_E(T, 2, Fraction(0))
            assert chk.passed, T
    # a nonzero spectral shift must work just as well
    T = row_tableau(skew(P(2, 1)))
    assert check_intertwiner_E(T, 2, Fraction(3, 2)).passed


def test_intertwiner_F_examples():
    cfg = FusionConfig(row_tableau(skew(P(1, 1))), 2, 0, "symmetric")
    assert check_intertwiner_F(cfg).passed
    cfg = FusionConfig(row_tableau(skew(P(2,))), 2, 0, "alternating")
    assert check_intertwiner_F(cfg).passed
    cfg = FusionConfig(row_tableau(skew(P(1,))), 2, 0, "symmetric")
    assert check_intertwiner_F(cfg).passed  # n = 1: no reordering
    # skew shapes need a compatible M for the inner label
    for T in standard_tableaux(skew(P(2, 1), P(1))):
        assert check_intertwiner_F(FusionConfig(T, 2, 1, "symmetric")).passed
        assert check_intertwiner_F(FusionConfig(T, 2, 2, "alternating")).passed


def test_reflection_equation():
    for form in (BilinearForm("symmetric", 2), BilinearForm("alternating", 2)):
        assert check_reflection_image((Fraction(0),), 2, form).passed
        assert check_reflection_image((Fraction(0), Fraction(1)), 2, form).passed


def test_image_coincidence_single_slot():
    for form in (BilinearForm("symmetric", 2), BilinearForm("alternating", 2)):
        for z in (Fraction(0), Fraction(3)):
            assert check_image_coincidence(z, 2, form).passed


def test_eval_consistency_checks():
    T = row_tableau(skew(P(2, 1)))
    assert check_eval_consistency_E(T, 2).passed
    # every tableau with three cells at N = 4, where the realization of the
    # group algebra on four slots is faithful
    for lam in (P(3), P(2, 1)):
        for T in standard_tableaux(skew(lam)):
            assert check_eval_consistency_E(T, 4).passed, T
    cfg = FusionConfig(row_tableau(skew(P(2,))), 2, 0, "alternating")
    assert check_eval_consistency_F(cfg).passed
    cfg = FusionConfig(row_tableau(skew(P(1, 1))), 2, 0, "symmetric")
    assert check_eval_consistency_F(cfg).passed


def _scalar(factors, x):
    """The product of scalar factors (I, sign, den) at the point x."""
    out = Fraction(1)
    for I, sign, den in factors:
        out *= factor(I, sign, at(den, (x,))).entry(0, 0)
    return out


def test_g_mu_h_examples():
    (x,) = variables(1)
    I = SparseOperator.identity(1, 1)

    def g(mu, x0):
        return _scalar(_g_factors(mu, x, I), x0)

    def h(mu, x0):
        return _scalar(_h_factors(row_tableau(skew(mu)), x, I), x0)

    assert g(P(1), Fraction(3)) == Fraction(9, 8)
    assert h(P(1), Fraction(3)) == Fraction(8, 9)
    assert g(P(), Fraction(3)) == 1 and h(P(), Fraction(3)) == 1
    for x0 in (Fraction(5), Fraction(-7)):
        assert g(P(2, 1), x0) * h(P(2, 1), x0) == 1
    with pytest.raises(SampleAtPole):
        h(P(1), Fraction(0))


def test_lemma44_sweep():
    for size in range(0, 5):
        for mu in partitions_of(size):
            assert check_lemma44(mu).passed, mu


def test_run_identity_check_failure_witness():
    I = SparseOperator.identity(2, 1)
    chk = run_identity_check("toy", "toy-statement", [I], [scaled(I, 2)])
    assert not chk.passed
    assert chk.witness["monomial"] == []
    assert chk.witness["row"] == 0 and chk.witness["col"] == 0
    assert (chk.witness["lhs"], chk.witness["rhs"]) == ("1", "2")


def test_zero_identity_and_stored_zero_witness():
    assert not scaled(SparseOperator.identity(2, 1), Fraction(0))
    # stored zeros are normalized away, so equal values are equal operators
    stored_zero = SparseOperator(2, 1, {1: {0: Fraction(0)}})
    assert stored_zero == SparseOperator(2, 1) and stored_zero.rows == {}
    # an unequal pair gets its first differing entry as the witness
    a = SparseOperator(2, 1, {0: {1: 3}, 1: {0: Fraction(1, 2)}})
    b = SparseOperator(2, 1, {0: {1: Fraction(3, 2)}, 1: {0: Fraction(1, 2)}})
    assert OrbitComparison(2, 1).difference([a], [b]) == (0, 1, (), 3, Fraction(3, 2))
    witness = run_identity_check("toy", "toy-statement", [a], [b]).witness
    assert (witness["row"], witness["col"]) == (0, 1)
    assert (witness["lhs"], witness["rhs"]) == ("3", "3/2")


def test_factor_pole_rejection():
    # every factor kind raises on its own pole
    Q = q_op(1, 2, BilinearForm("alternating", 2), 2)
    x = Fraction(-3)
    for X, sign, den in ((swap12(), -1, x - x), (Q, 1, x + 3), (Q, -1, x + 1 + 2)):
        with pytest.raises(SampleAtPole):
            factor(X, sign, den)
    # a check evaluates no den, so no number of poles can exhaust it
    (x,) = variables(1)
    I = SparseOperator.identity(2, 1)
    factors = [(I, 1, x - k) for k in range(300)]
    assert run_identity_check("toy", "toy-statement", factors, factors).passed


def test_affine_forms():
    x, y, z = variables(3)
    pt = (Fraction(3), Fraction(-1, 2), Fraction(5))
    assert at(x - y, pt) == Fraction(7, 2)
    assert at(x + y + 4, pt) == Fraction(13, 2)
    assert at(1 - x, pt) == -2
    assert at(Fraction(1, 2) - (x + z), pt) == Fraction(-15, 2)
    assert at(x + Fraction(3, 2) - z, pt) == Fraction(-1, 2)
    assert at(-(y - z), pt) == Fraction(11, 2)
    assert at(x - x, pt) == 0


def test_no_variable_means_degree_zero():
    # constant dens only: the comparison is of the entries themselves
    I = SparseOperator.identity(2, 1)
    chk = run_identity_check("toy", "toy-statement", [(I, 1, Affine(3))],
                             [scaled(I, Fraction(4, 3))])
    assert chk.passed
    chk = run_identity_check("toy", "toy-statement", [(I, 1, Fraction(3))],
                             [scaled(I, Fraction(5, 4))])
    assert not chk.passed
    assert chk.witness == {"row": 0, "col": 0, "monomial": [], "lhs": "4/3", "rhs": "5/4"}


def test_identically_zero_den_is_rejected():
    (x,) = variables(1)
    I = SparseOperator.identity(1, 1)
    for den in (Affine(0), x - x, 0, Fraction(0)):
        with pytest.raises(ValueError, match="identically zero"):
            run_identity_check("toy", "toy-statement", [(I, 1, den)], [I])


def test_degree_and_variables_come_from_the_dens():
    x, y = variables(2)
    x2_y2 = Affine(0, [2, -2])  # 2x - 2y
    # a den is cleared to integers, without its trailing zero coefficients:
    # x written as (x + y) - y is x, and x/2 - y/2 + 1/3 is (2 + 3x - 3y)/6
    assert _cleared((x + y) - y)[:2] == (1, (0, 1))
    assert _cleared(Affine(Fraction(1, 3), [Fraction(1, 2), Fraction(-1, 2)]))[:2] == (
        6, (2, 3, -3))
    # x - y, y - x and 2x - 2y are one primitive form times a unit, and a
    # constant is a unit alone
    assert [_cleared(d)[2:] for d in (x - y, y - x, x2_y2)] == [
        (1, (0, 1, -1)), (-1, (0, 1, -1)), (2, (0, 1, -1))]
    assert _cleared(Fraction(-3, 4)) == (4, (-3,), -3, None)
    I = SparseOperator.identity(2, 1)
    I2, I3 = scaled(I, 2), scaled(I, 3)
    half = Affine(0, [Fraction(1, 2), Fraction(-1, 2)])  # (x - y)/2
    # 1 + 1/(x - y) in four writings, and 1 + 2/(x - y) in two
    same = [[(I, 1, x - y)], [(I, -1, y - x)], [(I2, 1, x2_y2)],
            [(I3, -1, Affine(0, [-3, 3]))]]
    for lhs, rhs in combinations(same, 2):
        assert run_identity_check("toy", "toy-statement", lhs, rhs).passed, (lhs, rhs)
    assert run_identity_check("toy", "toy-statement", [(I, 1, half)], [(I2, 1, x - y)]).passed
    # a form that both sides' dens share cancels, whatever its unit and
    # wherever it stands in the product
    lhs = [(I, 1, x - y), (I, -1, y - x), (I, 1, x + 1)]
    rhs = [(I2, 1, x2_y2), (I, 1, x + 1), (I, 1, x - y)]
    assert run_identity_check("toy", "toy-statement", lhs, rhs).passed
    for wrong in ([(I, 1, y - x)], [(I, 1, half)], [(I2, -1, x2_y2)]):
        chk = run_identity_check("toy", "toy-statement", [(I, 1, x - y)], wrong)
        assert not chk.passed and len(chk.witness["monomial"]) == 2, wrong
    # sides whose dens differ: each numerator takes the other side's forms,
    # whichever side holds them; (x - y + 1)/(x - y) · (x - y)/(x - y + 1) = 1
    one = [(I, 1, x - y), (I, -1, x - y + 1)]
    assert run_identity_check("toy", "toy-statement", one, [I]).passed
    assert run_identity_check("toy", "toy-statement", [I], one).passed
    assert not run_identity_check("toy", "toy-statement",
                                  [I], [(I, 1, x - y), (I, -1, x - y + 2)]).passed


def test_a_difference_in_the_top_degree_coefficient_fails():
    # the sides differ only in one constant den, 3 on the left and 4 on the
    # right: the values at infinity differ, so the cleared numerators agree
    # in every coefficient but those of top degree, here the two monomials
    # x and y of degree 1; the shared den x - y + 1 cancels
    x, y = variables(2)
    P12, I = swap12(), SparseOperator.identity(2, 2)
    common = (I, -1, x - y + 1)  # 1 - 1/(x - y + 1) = (x - y)/(x - y + 1)
    lhs, rhs = [(P12, 1, Affine(3)), common], [(P12, 1, Affine(4)), common]
    assert run_identity_check("toy", "toy-statement", lhs, lhs).passed
    chk = run_identity_check("toy", "toy-statement", lhs, rhs)
    assert not chk.passed
    w = chk.witness
    # y's coefficient is compared first; -(1 + P/3)·e_c against -(1 + P/4)·e_c
    assert w["monomial"] == [0, 1]
    assert (Fraction(w["lhs"]), Fraction(w["rhs"])) == tuple(
        -factor(P12, 1, d).entry(w["row"], w["col"]) for d in (3, 4))


def test_a_difference_in_the_second_block_of_columns_is_found():
    # Sp_4 on three slots has 10 orbit representatives, so the columns go in
    # two blocks; the sides differ only on the orbit of the last one
    form = BilinearForm("alternating", 4)
    reps = column_orbits(form, 3).representatives
    assert len(reps) == 10 and products._BLOCK == 8
    rep = reps[9]
    Q = q_op(1, 2, form, 3)
    D = _orbit_indicator(form, 3, rep)
    (x,) = variables(1)
    compare = OrbitComparison(4, 3, form)
    assert compare.difference([(("Q", 2, 3), 1, x), Q], [(("Q", 2, 3), 1, x), Q]) is None
    r, c, monomial, a, b = compare.difference([(("Q", 2, 3), 1, x), Q],
                                              [(("Q", 2, 3), 1, x), Q + D])
    assert c == rep and compare.columns == reps and len(monomial) == 1 and a != b
    assert compare.difference([Q], [Q + D]) == (rep, rep, (), Q.entry(rep, rep),
                                                Q.entry(rep, rep) + 1)


def _perturb_first_call(fn):
    """fn, with entry (0, 1) of the result of its first call shifted by
    1/7.  That entry moves weight between slots; a shift that commutes with
    every slot permutation, such as one at (0, 0), can keep an identity."""
    done = False

    def perturbed(*args, **kwargs):
        nonlocal done
        op = fn(*args, **kwargs)
        if done:
            return op
        done = True
        return op + SparseOperator(op.N, op.n, {0: {1: Fraction(1, 7)}})
    return perturbed


SYM, ALT = BilinearForm("symmetric", 2), BilinearForm("alternating", 2)
# the number of variables of each family, the length of a witness's monomial
VARIABLES = {"YB35": 3, "tilde37": 3, "bar38": 3, "mixed385": 3, "unitarity-RR": 2,
             "unitarity-tildebar": 2, "rtt": 2, "intertwiner-E": 1, "intertwiner-F": 1,
             "eval-consistency-E": 1, "eval-consistency-F": 1, "reflection": 2,
             "image-coincidence": 1}
MUTATIONS = {
    "YB35": ("perm_op", lambda: check_yang_baxter_family("YB35", 2, None)),
    "tilde37": ("q_op", lambda: check_yang_baxter_family("tilde37", 2, SYM)),
    "bar38": ("q_op", lambda: check_yang_baxter_family("bar38", 2, SYM)),
    "mixed385": ("q_op", lambda: check_yang_baxter_family("mixed385", 2, ALT)),
    "unitarity-RR": ("perm_op", lambda: check_unitarity("RR", 2, SYM)),
    "unitarity-tildebar": ("q_op", lambda: check_unitarity("tildebar", 2, SYM)),
    "rtt": ("perm_op", lambda: check_rtt((Fraction(0), Fraction(1)), 2)),
    "intertwiner-E": ("e_operator", lambda: check_intertwiner_E(
        row_tableau(skew(P(2, 1))), 2, Fraction(0))),
    "intertwiner-F": ("f_operator_general", lambda: check_intertwiner_F(
        FusionConfig(row_tableau(skew(P(2,))), 2, 0, "alternating"))),
    "eval-consistency-E": ("e_operator", lambda: check_eval_consistency_E(
        row_tableau(skew(P(2, 1))), 2)),
    "eval-consistency-F": ("f_operator_general", lambda: check_eval_consistency_F(
        FusionConfig(row_tableau(skew(P(1, 1))), 2, 0, "symmetric"))),
    "reflection": ("q_op", lambda: check_reflection_image((Fraction(0),), 2, SYM)),
    "image-coincidence": ("perm_op", lambda: check_image_coincidence(
        Fraction(0), 2, ALT)),
}


@pytest.mark.parametrize("target, tableau", [("_g_factors", None), ("_h_factors", 0),
                                             ("_h_factors", -1)])
def test_lemma44_rejects_a_shifted_den(target, tableau, monkeypatch):
    # a den of g shifted by 1, or one of h for the first or the last
    # tableau only: the entry fails when either of its statements does
    assert check_lemma44(P(2, 1)).passed
    tabs = standard_tableaux(skew(P(2, 1)))
    original = getattr(rmatrix, target)

    def shifted(arg, x, I):
        (X, sign, den), *rest = original(arg, x, I)
        hit = tableau is None or arg == tabs[tableau]
        return [(X, sign, den + 1 if hit else den), *rest]

    monkeypatch.setattr(rmatrix, target, shifted)
    chk = check_lemma44(P(2, 1))
    assert not chk.passed
    assert len(chk.witness["monomial"]) == 1 and chk.witness["lhs"] != chk.witness["rhs"]


@pytest.mark.parametrize("family", MUTATIONS)
def test_every_family_rejects_a_perturbed_input(family, monkeypatch, fresh_units):
    # both sides multiply the same factor objects; a check that still
    # passed with a wrong input would be comparing a computation with itself.
    # Exchanges and contractions are named, and their builders sit behind
    # the unit cache in tensorop, which is cleared once the builder is patched
    target, run = MUTATIONS[family]
    assert run().passed
    owner = tensorop if target in ("perm_op", "q_op") else rmatrix
    monkeypatch.setattr(owner, target, _perturb_first_call(getattr(owner, target)))
    tensorop.unit_move.cache_clear()
    chk = run()
    assert not chk.passed
    w = chk.witness
    assert w is not None and len(w["monomial"]) == VARIABLES[family]
    assert all(e >= 0 for e in w["monomial"]) and w["lhs"] != w["rhs"]


SP4, O3 = BilinearForm("alternating", 4), BilinearForm("symmetric", 3)


def _eval_f(N, kind):
    return lambda: check_eval_consistency_F(FusionConfig(row_tableau(skew(P(1, 1))), N, 0, kind))


# a check and the form of its contractions: the comparison alone reports
# each flip of a pairing weight as a witness in the first two, while in
# the others the orbit columns miss some flips
FLIPS = {
    "tilde37": (SYM, lambda: check_yang_baxter_family("tilde37", 2, SYM)),
    "eval-consistency-F": (SP4, _eval_f(4, "alternating")),
    "tilde37/O_3": (O3, lambda: check_yang_baxter_family("tilde37", 3, O3)),
    "tilde37/Sp_4": (SP4, lambda: check_yang_baxter_family("tilde37", 4, SP4)),
    "eval-consistency-F/O_2": (SYM, _eval_f(2, "symmetric")),
    "eval-consistency-F/O_3": (O3, _eval_f(3, "symmetric")),
}


def _flips(form):
    """Each one-sign flip of the pairing weights of Q_12 on ``form``, as a
    stand-in for ``tensorop._rank_one``."""
    real = tensorop._rank_one
    weights = list(real(q_op(1, 2, form, 2))[0])
    assert len(weights) == form.N
    for c in weights:
        def flipped(X, c=c):
            pairing, inserts = real(X)
            return {**pairing, c: -pairing[c]}, inserts
        yield c, flipped


@pytest.mark.parametrize("family", FLIPS)
def test_a_flipped_pairing_weight_is_rejected(family, monkeypatch, fresh_units):
    # the contraction's move sums each entry's pairing into its base, then
    # inserts w; Q_12 with the sign of any one of its pairing weights
    # flipped fails the lifted move's own check before any column is
    # compared.  F is built and cached before the patch, so only the
    # identity check's own contraction moves see it
    form, run = FLIPS[family]
    assert run().passed
    for c, flipped in _flips(form):
        monkeypatch.setattr(tensorop, "_rank_one", flipped)
        tensorop.unit_move.cache_clear()
        with pytest.raises(ArithmeticError):
            run()


@pytest.mark.parametrize("family", ["tilde37", "eval-consistency-F"])
def test_the_comparison_alone_reports_a_flipped_pairing_weight(family, monkeypatch,
                                                               fresh_units):
    # with the lifted moves left unchecked, the comparison itself reports
    # each flip as a witness in these checks
    form, run = FLIPS[family]
    assert run().passed
    monkeypatch.setattr(tensorop, "_check_lift", lambda *args: None)
    for c, flipped in _flips(form):
        monkeypatch.setattr(tensorop, "_rank_one", flipped)
        tensorop.unit_move.cache_clear()
        chk = run()
        assert not chk.passed, c
        w = chk.witness
        assert len(w["monomial"]) == VARIABLES[family] and w["lhs"] != w["rhs"]


# ---------------------------------------------------------------------------
# the orbit-column comparison against full products


def _full_product(side, N, n):
    """The product of a side as one operator, each factor built by
    ``factor`` and each scalar as a multiple of the identity."""
    out = SparseOperator.identity(N, n)
    for item in side:
        if isinstance(item, tuple):
            item = factor(*item)
        elif not isinstance(item, SparseOperator):
            item = scaled(SparseOperator.identity(N, n), item)
        out = mul(out, item)
    return out


def _orbit_indicator(form, n, rep):
    """The diagonal operator that is 1 on the orbit of the representative
    ``rep`` and 0 elsewhere: it commutes with every generator, whose signs
    square to 1, and it is nonzero in that one orbit."""
    orbit = {rep}
    for code, parent, _ in column_orbits(form, n).steps:
        if parent in orbit:
            orbit.add(code)
    return SparseOperator(form.N, n, {c: {c: 1} for c in orbit})


@pytest.mark.parametrize("kind", ["symmetric", "alternating"])
def test_orbit_comparison_matches_full_equality(kind):
    rng = random.Random(SEED)
    form = BilinearForm(kind, 4)
    for n in (2, 3, 4):
        pairs = list(combinations(range(1, n + 1), 2))
        units = [q_op(k, l, form, n) for k, l in pairs] + [
            perm_op(Permutation.transposition(n, k, l), 4) for k, l in pairs]

        def combination():
            # a random integer combination of products of unit operators
            return reduce(lambda a, b: a + b, (
                scaled(reduce(mul, rng.choices(units, k=rng.randint(1, 3))),
                       rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(3)))

        lhs = [combination(), (rng.choice(units), 1, Fraction(5, 3)), combination(),
               Fraction(2, 7)]
        full = _full_product(lhs, 4, n)
        reps = column_orbits(form, n).representatives
        rep = rng.choice(reps)
        D = _orbit_indicator(form, n, rep)
        cases = [(lhs, [full]), (lhs, [full + D])]
        if n == 3:
            T = row_tableau(skew(P(2, 1)))
            F, E = f_operator_general(FusionConfig(T, 4, 0, kind)), e_operator(T, 4)
            cases += [([F, F], [3, F]), ([F, E], [3, F]), ([E, F], [3, F + D])]
        compare = OrbitComparison(4, n, form)
        outcomes = []
        for a, b in cases:
            same = compare.difference(a, b) is None
            assert same == (_full_product(a, 4, n) == _full_product(b, 4, n))
            outcomes.append(same)
        assert compare.columns == reps  # every operator commutes: no fallback
        assert outcomes[:2] == [True, False] and (n != 3 or outcomes[2:] == [True, True, False])
        # the sides differ only on the diagonal of rep's orbit, and rep is
        # the one compared column there
        value = full.entry(rep, rep)
        assert compare.difference(lhs, [full + D]) == (rep, rep, (), value, value + 1)


def test_a_non_equivariant_operator_turns_on_every_column():
    form = BilinearForm("alternating", 4)
    Q, P12 = q_op(1, 2, form, 2), swap12(4)
    reps, reps3 = (column_orbits(form, n).representatives for n in (2, 3))
    # a column that the exchange moves, off the representatives on two
    # slots, and whose lifts a·16 + c are off them on three
    c = next(c for c in range(16) if c % 5 and c not in reps
             and all(a * 16 + c not in reps3 for a in range(4)))
    bad = Q + SparseOperator(4, 2, {0: {c: Fraction(1, 7)}})
    compare = OrbitComparison(4, 2, form)
    assert compare.difference([bad], [Q]) == (0, c, (), Q.entry(0, c) + Fraction(1, 7),
                                              Q.entry(0, c))
    assert compare.columns == range(16)
    # as 1 ⊗ bad on three slots it is checked on its own two
    compare = OrbitComparison(4, 3, form)
    assert compare.difference([bad], [Q])[:2] == (0, c)
    assert compare.columns == range(64)
    # in a check with a variable the witness is the least differing
    # coefficient of the cleared numerators: (x + bad)(x - P12) against
    # (x - P12)(x + bad) agree in x^2 and x and differ in the constant
    # coefficient, -bad·P12 against -P12·bad
    (x,) = variables(1)
    chk = run_identity_check("toy", "toy-statement", [(bad, 1, x), (P12, -1, x)],
                             [(P12, -1, x), (bad, 1, x)], form)
    assert not chk.passed
    w = chk.witness
    a, b = mul(bad, P12), mul(P12, bad)
    assert w["monomial"] == [0]
    assert (w["row"], w["col"]) == min((r, k) for r, row in (a - b).rows.items() for k in row)
    assert (Fraction(w["lhs"]), Fraction(w["rhs"])) == (-a.entry(w["row"], w["col"]),
                                                       -b.entry(w["row"], w["col"]))


def test_identity_gram_generators_do_not_pass_a_contraction_check():
    # Q of Sp_4 and its cut to the identity Gram's representative columns
    # agree on those columns only; Q does not commute with the identity
    # Gram's isometries, so every column is compared
    Q = q_op(1, 2, BilinearForm("alternating", 4), 2)
    reps = column_orbits(BilinearForm("symmetric", 4), 2).representatives
    cut = SparseOperator(4, 2, {r: {c: v for c, v in row.items() if c in reps}
                                for r, row in Q.rows.items()}, Q.den)
    chk = run_identity_check("toy", "toy-statement", [Q], [cut])
    assert not chk.passed and chk.witness["col"] not in reps
    # a true contraction identity still passes there
    x, y = variables(2)
    chk = run_identity_check("toy", "toy-statement", [(Q, 1, x + y), (Q, -1, x + y + 4)],
                             [SparseOperator.identity(4, 2)])
    assert chk.passed
