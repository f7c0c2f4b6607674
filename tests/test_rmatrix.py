from fractions import Fraction

import pytest

from symfusion.fusion import FusionConfig
from symfusion.rmatrix import (IdentityCheck, ParamOperator, R, Rbar, Rtilde,
                               _difference_witness,
                               check_eval_consistency_E,
                               check_eval_consistency_F, check_image_coincidence,
                               check_intertwiner_E, check_intertwiner_F,
                               check_lemma44, check_reflection_image, check_rtt,
                               check_symmetry_flip, check_unitarity,
                               check_yang_baxter_family, g_mu, h_of,
                               run_identity_check, sample_points)
from symfusion.shapes import (Partition, partitions_of, row_tableau, skew,
                              standard_tableaux)
from symfusion.symalg import Permutation, SampleAtPole
from symfusion.tensorop import (SparseOperator, alternating_form, perm_op,
                                symmetric_form)

SEED = 1729


def P(*parts):
    return Partition(parts)


def test_R_factor_values():
    # 1 - P/(x-y) at (2, 0)
    op = R(1, 2, 2, 2).at(Fraction(2), Fraction(0))
    expected = SparseOperator.identity(2, 2) - perm_op(Permutation((2, 1)), 2).scaled(
        Fraction(1, 2))
    assert op == expected
    with pytest.raises(SampleAtPole):
        R(1, 2, 2, 2).at(Fraction(1), Fraction(1))


def test_tilde_bar_inverse_at_sample():
    form = symmetric_form(2)
    x, y = Fraction(3), Fraction(1)
    prod = Rtilde(1, 2, form, 2).at(x, y) * Rbar(1, 2, form, 2).at(x, y)
    assert prod == SparseOperator.identity(2, 2)


def test_RR_flipped_is_scalar():
    x, y = Fraction(5), Fraction(2)
    prod = R(1, 2, 2, 2).at(x, y) * R(2, 1, 2, 2).at(y, x)
    assert prod == SparseOperator.identity(2, 2, Fraction(1) - Fraction(1, 9))


@pytest.mark.parametrize("which", ["YB35", "tilde37", "bar38", "mixed385"])
@pytest.mark.parametrize("kind", ["symmetric", "alternating"])
def test_yang_baxter_family(which, kind):
    form = symmetric_form(2) if kind == "symmetric" else alternating_form(2)
    chk = check_yang_baxter_family(which, 2, form, SEED)
    assert chk.passed
    assert len(chk.samples) == chk.degree_bound + 1 == 4


@pytest.mark.parametrize("which", ["RR", "tildebar"])
def test_unitarity_checks(which):
    for form in (symmetric_form(2), alternating_form(2)):
        assert check_unitarity(which, 2, form, SEED).passed


def test_symmetry_flip():
    for form in (symmetric_form(2), alternating_form(2)):
        assert check_symmetry_flip(2, form, SEED).passed


def test_factor_slot_argument_symmetry():
    # tilde and bar factors are invariant under swapping slots with arguments
    for form in (symmetric_form(2), alternating_form(2)):
        for pt in sample_points(SEED, 2, 3, lambda p: p[0] + p[1] == 0
                                or p[0] + p[1] + 2 == 0):
            x, y = pt
            assert Rtilde(1, 2, form, 2).at(x, y) == Rtilde(2, 1, form, 2).at(y, x)
            assert Rbar(1, 2, form, 2).at(x, y) == Rbar(2, 1, form, 2).at(y, x)


def test_rtt_examples():
    assert check_rtt((Fraction(0),), 2, SEED).passed
    assert check_rtt((Fraction(0), Fraction(1)), 2, SEED).passed
    assert check_rtt((Fraction(-1), Fraction(1)), 2, SEED).passed


def test_intertwiner_E_examples():
    for lam, mu in (((2,), ()), ((1, 1), ()), ((2, 1), (1,))):
        for T in standard_tableaux(skew(P(*lam), P(*mu))):
            chk = check_intertwiner_E(T, 2, Fraction(0), SEED)
            assert chk.passed, T
    # a nonzero spectral shift must work just as well
    T = row_tableau(skew(P(2, 1)))
    assert check_intertwiner_E(T, 2, Fraction(3, 2), SEED).passed


def test_intertwiner_F_examples():
    cfg = FusionConfig(row_tableau(skew(P(1, 1))), 2, 0, "symmetric")
    assert check_intertwiner_F(cfg, SEED).passed
    cfg = FusionConfig(row_tableau(skew(P(2,))), 2, 0, "alternating")
    assert check_intertwiner_F(cfg, SEED).passed
    cfg = FusionConfig(row_tableau(skew(P(1,))), 2, 0, "symmetric")
    assert check_intertwiner_F(cfg, SEED).passed  # n = 1: no reordering
    # skew shapes need a compatible M for the inner label
    for T in standard_tableaux(skew(P(2, 1), P(1))):
        assert check_intertwiner_F(FusionConfig(T, 2, 1, "symmetric"), SEED).passed
        assert check_intertwiner_F(FusionConfig(T, 2, 2, "alternating"), SEED).passed


def test_reflection_equation():
    for form in (symmetric_form(2), alternating_form(2)):
        assert check_reflection_image((Fraction(0),), 2, form, SEED).passed
        assert check_reflection_image((Fraction(0), Fraction(1)), 2, form, SEED).passed


def test_image_coincidence_single_slot():
    for form in (symmetric_form(2), alternating_form(2)):
        for z in (Fraction(0), Fraction(3)):
            assert check_image_coincidence(z, 2, form, SEED).passed


def test_eval_consistency_checks():
    T = row_tableau(skew(P(2, 1)))
    assert check_eval_consistency_E(T, 2, SEED).passed
    cfg = FusionConfig(row_tableau(skew(P(2,))), 2, 0, "alternating")
    assert check_eval_consistency_F(cfg, SEED).passed
    cfg = FusionConfig(row_tableau(skew(P(1, 1))), 2, 0, "symmetric")
    assert check_eval_consistency_F(cfg, SEED).passed


def test_g_mu_h_examples():
    x = Fraction(3)
    assert g_mu(P(1), x) == Fraction(9, 8)
    assert h_of(P(1), x) == Fraction(8, 9)
    assert g_mu(P(), x) == 1 and h_of(P(), x) == 1
    for x in (Fraction(5), Fraction(-7)):
        assert g_mu(P(2, 1), x) * h_of(P(2, 1), x) == 1
    with pytest.raises(SampleAtPole):
        h_of(P(1), Fraction(0))


def test_lemma44_sweep():
    for size in range(0, 5):
        for mu in partitions_of(size):
            chk = check_lemma44(mu, SEED)
            assert chk.passed, mu
            assert len(chk.samples) == 5


def test_sample_points_deterministic_and_off_poles():
    pts1 = sample_points(7, 2, 5, lambda pt: pt[0] == pt[1])
    pts2 = sample_points(7, 2, 5, lambda pt: pt[0] == pt[1])
    assert pts1 == pts2
    assert all(pt[0] != pt[1] for pt in pts1)
    assert len(set(pts1)) == 5


def test_run_identity_check_failure_witness():
    I = SparseOperator.identity(2, 1)

    def lhs_b(pt):
        return I

    def rhs_b(pt):
        return I.scaled(2)

    lhs = ParamOperator(lhs_b, 1, lambda pt: False, 0)
    rhs = ParamOperator(rhs_b, 1, lambda pt: False, 0)
    chk = run_identity_check("toy", "toy-statement", lhs, rhs, SEED)
    assert not chk.passed
    assert chk.witness["row"] == 0 and chk.witness["col"] == 0


def test_zero_identity_and_stored_zero_witness():
    assert SparseOperator.identity(2, 1, Fraction(0)).is_zero()
    # operators equal in value but not in storage still get a witness
    stored_zero = SparseOperator(2, 1, {1: {0: Fraction(0)}})
    witness = _difference_witness((Fraction(1),), stored_zero, SparseOperator.zero(2, 1))
    assert (witness["row"], witness["col"]) == (1, 0)
    assert witness["lhs"] == witness["rhs"] == "0"


def test_param_operator_pole_rejection():
    op = ParamOperator(lambda pt: SparseOperator.identity(2, 1), 1,
                       lambda pt: pt[0] == 0, 0)
    with pytest.raises(SampleAtPole):
        op.at((Fraction(0),))


def test_identity_check_json_shape():
    chk = IdentityCheck(name="x", statement="s", degree_bound=1, seed=3)
    payload = chk.to_json()
    assert payload["name"] == "x" and payload["paper_ref"] == "s"
    assert payload["pass"] is True
