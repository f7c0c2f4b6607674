"""Acceptance criteria, one test per criterion.

All arithmetic is exact, so every comparison below is equality of
rationals, group-algebra elements, operators or subspaces; there are no
tolerances.  Each test prints one PASS line (visible with pytest -s).
Sweeps over "all skew shapes" are pinned to outer partitions with at
most six boxes, matching the bound on extending tableaux.
"""

from fractions import Fraction

from symfusion.fusion import (FusionConfig, NotApplicable, _closed_factors,
                              e_operator, f_operator_general,
                              scaled_idempotency_constant, verify_corollary32,
                              verify_prop33, verify_scaled_idempotent,
                              verify_theta_factorization)
from symfusion.products import OrbitComparison
from symfusion.rmatrix import (check_intertwiner_E, check_intertwiner_F,
                               check_image_coincidence, check_lemma44,
                               check_reflection_image, check_rtt,
                               check_unitarity, check_yang_baxter_family)
from symfusion.shapes import (Partition, count_semistandard, partitions_of,
                              skew, standard_tableaux, validate_label)
from symfusion.symalg import (e_skew_extract, e_tableau, extend_tableau,
                              fusion_e_skew)
from symfusion.tensorop import BilinearForm, rank


GROUP_OF = {"symmetric": "O", "alternating": "Sp"}
SWEEP_NS = {"symmetric": (2, 3), "alternating": (2, 4)}
SWEEP_MS = {"symmetric": (0, 1), "alternating": (0, 2)}


def _skew_shapes(max_outer, min_cells, max_cells):
    """(lam, mu) pairs with |lam| <= max_outer and the cell count in range."""
    for outer in range(1, max_outer + 1):
        for lam in partitions_of(outer):
            for inner in range(max(0, outer - max_cells), outer - min_cells + 1):
                for mu in filter(lam.contains, partitions_of(inner)):
                    yield lam, mu


def _nonskew_sweep(max_boxes):
    """(form_kind, N, lam, tableau) over the per-form dimension lists."""
    for kind, ns in SWEEP_NS.items():
        group = GROUP_OF[kind]
        for N in ns:
            for size in range(1, max_boxes + 1):
                for lam in partitions_of(size):
                    if not validate_label(lam, group, N):
                        continue
                    for T in standard_tableaux(skew(lam)):
                        yield kind, N, lam, T


def test_criterion_01_fusion_consistency():
    """Row-mode fusion, column-mode fusion and extraction from every
    extending tableau all produce the same group-algebra element."""
    checked = 0
    for lam, mu in _skew_shapes(max_outer=6, min_cells=1, max_cells=5):
        sh = skew(lam, mu)
        m = mu.size
        inner_tabs = standard_tableaux(skew(mu))
        for O in standard_tableaux(sh):
            value = fusion_e_skew(O, "row")
            assert fusion_e_skew(O, "column") == value, (lam, mu, O)
            for U in inner_tabs:
                L = extend_tableau(O, U)
                assert e_skew_extract(L, m) == value, (lam, mu, O, U)
                checked += 1
    assert checked > 400
    print(f"\nACCEPTANCE 1 fusion-consistency: PASS ({checked} route comparisons)")


def test_criterion_02_scaled_idempotency():
    """e² and F² (at M = 0) are the stated multiples of e and F."""
    checked = 0
    for size in range(1, 5):
        for lam in partitions_of(size):
            scalar = scaled_idempotency_constant(lam)
            for T in standard_tableaux(skew(lam)):
                e = e_tableau(T)
                assert e * e == e.scaled(scalar), T
                checked += 1
    for kind, N, lam, T in _nonskew_sweep(4):
        scalar = scaled_idempotency_constant(lam)
        F = f_operator_general(FusionConfig(T, N, 0, kind))
        assert verify_scaled_idempotent(F, scalar), (kind, N, T)
        checked += 1
    print(f"\nACCEPTANCE 2 scaled-idempotency: PASS ({checked} operators)")


def test_criterion_03_traceless_image_equality():
    """image(F) = image(E) ∩ traceless, which implies that every
    contraction kills F: the traceless part is the contractions' joint kernel."""
    checked = 0
    for kind, N, lam, T in _nonskew_sweep(4):
        if N ** lam.size > 256:
            continue
        assert verify_prop33(FusionConfig(T, N, 0, kind)), (kind, N, T)
        checked += 1
    assert checked >= 20
    print(f"\nACCEPTANCE 3 traceless-image: PASS ({checked} configs)")


def _closed_sweep():
    for kind, ns in SWEEP_NS.items():
        group = GROUP_OF[kind]
        for N in ns:
            for M in SWEEP_MS[kind]:
                for size in range(1, 5):
                    for lam in partitions_of(size):
                        if not validate_label(lam, group, N + M):
                            continue
                        for T in standard_tableaux(skew(lam)):
                            yield FusionConfig(T, N, M, kind)


def test_criterion_04_closed_form_agreement():
    """Every applicable closed formula equals the general product route:
    F against the formula's chain of contraction factors times E, on the
    orbit columns, as ``certify`` compares them."""
    checked = 0
    applied = 0
    for cfg in _closed_sweep():
        F = f_operator_general(cfg)
        E = e_operator(cfg.tableau, cfg.N)
        compare = OrbitComparison(cfg.N, cfg.n, cfg.form)
        checked += 1
        for formula in ("col_O", "row_Sp", "any_Sp", "any_SO", "regular_case"):
            try:
                chain = _closed_factors(cfg, formula)
            except NotApplicable:
                continue
            assert compare.difference([F], chain + [E]) is None, (cfg.describe(), formula)
            applied += 1
    assert applied > checked  # every config admits at least one formula
    print(f"\nACCEPTANCE 4 closed-form-agreement: PASS "
          f"({applied} formula agreements over {checked} configs)")


def test_criterion_05_rank_oracle():
    """rank of the symmetrizer operator equals the semistandard count."""
    checked = 0
    for lam, mu in _skew_shapes(max_outer=6, min_cells=1, max_cells=4):
        sh = skew(lam, mu)
        tabs = standard_tableaux(sh)
        for N in (1, 2, 3):
            expected = count_semistandard(sh, N)
            for O in tabs:
                assert rank(e_operator(O, N)) == expected, (lam, mu, O, N)
                checked += 1
    assert checked > 300
    print(f"\nACCEPTANCE 5 rank-oracle: PASS ({checked} rank comparisons)")


def test_criterion_06_identity_certificates():
    """All rational identities pass, each decided as a polynomial identity."""
    results = []
    sym2, alt2 = BilinearForm("symmetric", 2), BilinearForm("alternating", 2)
    for form in (sym2, alt2):
        for which in ("YB35", "tilde37", "bar38", "mixed385"):
            results.append(check_yang_baxter_family(which, 2, form))
        for which in ("RR", "tildebar"):
            results.append(check_unitarity(which, 2, form))
        for zs in ((Fraction(0),), (Fraction(0), Fraction(1))):
            results.append(check_reflection_image(zs, 2, form))
        results.append(check_image_coincidence(Fraction(0), 2, form))
    for zs in ((Fraction(0),), (Fraction(0), Fraction(1)), (Fraction(-1), Fraction(1))):
        results.append(check_rtt(zs, 2))
    # symmetrizer intertwiner: every tableau with at most 3 cells
    for lam, mu in _skew_shapes(max_outer=4, min_cells=1, max_cells=3):
        for O in standard_tableaux(skew(lam, mu)):
            results.append(check_intertwiner_E(O, 2, Fraction(0)))
    # twisted intertwiner: both forms, minimal valid M per inner shape
    for kind in ("symmetric", "alternating"):
        group = GROUP_OF[kind]
        for lam, mu in _skew_shapes(max_outer=4, min_cells=1, max_cells=3):
            M = _minimal_M(kind, lam, mu)
            if M is None:
                continue
            for O in standard_tableaux(skew(lam, mu)):
                results.append(check_intertwiner_F(FusionConfig(O, 2, M, kind)))
    for chk in results:
        assert chk.passed, chk.name
    print(f"\nACCEPTANCE 6 identity-certificates: PASS ({len(results)} checks)")


def _minimal_M(kind, lam, mu):
    group = GROUP_OF[kind]
    step = 2 if kind == "alternating" else 1
    for M in range(0, 9, step):
        if mu.parts and (M == 0 or not validate_label(mu, group, M)):
            continue
        if validate_label(lam, group, 2 + M):
            return M
    return None


def test_criterion_07_normalizing_function():
    """g·h = 1 for two tableaux of each shape, decided as a polynomial
    identity in its one variable."""
    checked = 0
    for size in range(0, 5):
        for mu in partitions_of(size):
            chk = check_lemma44(mu)
            assert chk.passed, mu
            checked += 1
    print(f"\nACCEPTANCE 7 normalizing-function: PASS ({checked} shapes)")


def test_criterion_08_exchange_relation():
    """The adjacent-exchange relation holds for every admissible pair."""
    checked = 0
    for kind, N, lam, T in _nonskew_sweep(4):
        rows, cols = T.rows(), T.columns()
        cfg = FusionConfig(T, N, 0, kind)
        for k in range(1, T.n):
            if rows[k - 1] == rows[k] or cols[k - 1] == cols[k]:
                continue
            assert verify_corollary32(cfg, k), (kind, N, T, k)
            checked += 1
    assert checked >= 10
    print(f"\nACCEPTANCE 8 exchange-relation: PASS ({checked} admissible pairs)")


def test_criterion_09_split_factorization():
    """Compression to the split subspace factors through the small operator."""
    configs = [
        (Partition((2,)), 1, 2, 1, "symmetric"),
        (Partition((2, 1)), 1, 2, 2, "symmetric"),
    ]
    checked = 0
    for lam, m, N, M, kind in configs:
        for T in standard_tableaux(skew(lam)):
            assert verify_theta_factorization(T, m, N, M, kind), (lam, T)
            checked += 1
    print(f"\nACCEPTANCE 9 split-factorization: PASS ({checked} configs)")


def test_criterion_10_rank_monotonicity():
    """rank(F) never exceeds rank(E) across the operator sweeps."""
    checked = 0
    for cfg in _closed_sweep():
        if cfg.N ** cfg.n > 256:
            continue
        F = f_operator_general(cfg)
        E = e_operator(cfg.tableau, cfg.N)
        assert rank(F) <= rank(E), cfg.describe()
        checked += 1
    assert checked >= 40
    print(f"\nACCEPTANCE 10 rank-monotonicity: PASS ({checked} configs)")
