import hashlib
import json
import math
from fractions import Fraction

import pytest
from operator_reference import mul, rank_one_shifted, scaled
from qq_oracle import qq_rank

from symfusion.exactnum import PoleAtLimit, limit_at_zero, value_at_zero
from symfusion import fusion
from symfusion.fusion import (ConfigError, FusionConfig, NotApplicable,
                              NonStandardNeighbor, SizeLimitExceeded,
                              _closed_factors, certify, e_operator,
                              f_operator_general, operator_hash,
                              scaled_idempotency_constant,
                              verify_corollary32, verify_divisibility,
                              verify_prop33, verify_scaled_idempotent,
                              verify_theta_factorization)
from symfusion.shapes import (Partition, column_tableau, conjugate, count_semistandard,
                              partitions_of, row_tableau, skew, standard_tableaux)
from symfusion.symalg import Permutation, fusion_e_skew
from symfusion.products import OrbitComparison
from symfusion.tensorop import (BilinearForm, SparseOperator, act, column_orbits, decode,
                                encode, image_basis, perm_op, q_op, rank, standard_form)


def P(*parts):
    return Partition(parts)


def T(lam, mu=(), which="row"):
    sh = skew(P(*lam), P(*mu))
    return row_tableau(sh) if which == "row" else column_tableau(sh)


I2 = lambda n=2: SparseOperator.identity(2, n)
P12_2 = perm_op(Permutation((2, 1)), 2)


def test_config_validation():
    with pytest.raises(ConfigError):
        FusionConfig(T((1,)), 3, 0, "alternating")  # odd N
    with pytest.raises(ConfigError):
        FusionConfig(T((1, 1, 1)), 2, 0, "symmetric")  # label out of range
    with pytest.raises(ConfigError):
        FusionConfig(T((2, 1), (1,)), 2, 0, "symmetric")  # inner shape needs M > 0
    cfg = FusionConfig(T((2,)), 3, 1, "symmetric")
    assert cfg.constraint_mode == "column" and cfg.base_point == Fraction(-1, 2)
    cfg = FusionConfig(T((2,)), 2, 0, "alternating")
    assert cfg.constraint_mode == "row" and cfg.base_point == Fraction(1, 2)


def test_configs_share_one_form_per_kind_and_N():
    # every cache keyed by a form then finds the same object
    form = FusionConfig(T((2, 1)), 3, 0, "symmetric").form
    assert FusionConfig(T((2,)), 3, 1, "symmetric").form is form
    assert OrbitComparison(3, 2).form is form
    assert FusionConfig(T((2,)), 4, 0, "symmetric").form is not form


def test_e_operator_examples():
    assert e_operator(T((2,)), 2) == I2() + P12_2
    assert rank(e_operator(T((2,)), 2)) == 3
    assert e_operator(T((1, 1)), 2) == I2() - P12_2
    assert rank(e_operator(T((1, 1)), 2)) == 1
    sk = [t for t in standard_tableaux(skew(P(2, 1), P(1))) if t.contents == (1, -1)][0]
    E = e_operator(sk, 2)
    assert E == I2() - scaled(P12_2, Fraction(1, 2))
    assert rank(E) == 4 == count_semistandard(skew(P(2, 1), P(1)), 2)


def test_e_rank_per_content_block_is_kostka():
    """E commutes with permuting tensor factors, so it preserves the content
    (the multiset of indices) of a multi-index.  On each content block α its
    rank is the number of semistandard fillings with content α."""
    N = 4
    tableaux = []
    for lam, mu in (((3, 2), ()), ((3, 1), ()), ((3, 2), (1,)), ((2, 2, 1), (1,))):
        sh = skew(P(*lam), P(*mu))
        tableaux += [row_tableau(sh)] if mu else [row_tableau(sh), standard_tableaux(sh)[-1]]
    for O in tableaux:
        n = O.n
        blocks = {}
        for code in range(N ** n):
            idx = decode(code, N, n)
            blocks.setdefault(tuple(idx.count(v) for v in range(1, N + 1)), []).append(code)
        assert len(blocks) == math.comb(n + N - 1, N - 1)
        block_of = {code: alpha for alpha, codes in blocks.items() for code in codes}
        E = e_operator(O, N)
        assert all(block_of[r] == block_of[c] for r, row in E.rows.items() for c in row)
        total = 0
        for alpha, codes in blocks.items():
            block_rank = qq_rank([[E.entry(r, c) for c in codes] for r in codes], len(codes))
            assert block_rank == count_semistandard(O.shape, N, alpha), (O, alpha)
            total += block_rank
        assert total == count_semistandard(O.shape, N)


def test_f_general_O3_single_row():
    cfg = FusionConfig(T((2,)), 3, 0, "symmetric")
    F = f_operator_general(cfg)
    I = SparseOperator.identity(3, 2)
    Q = q_op(1, 2, BilinearForm("symmetric", 3), 2)
    Pm = perm_op(Permutation((2, 1)), 3)
    assert F == I + Pm - scaled(Q, Fraction(2, 3))
    assert not mul(Q, F)
    assert rank(F) == 5


def test_f_general_Sp2_single_row():
    cfg = FusionConfig(T((2,)), 2, 0, "alternating")
    F = f_operator_general(cfg)
    assert F == I2() + P12_2
    assert rank(F) == 3


def test_f_general_O2_single_column():
    # one factor is genuinely singular on the line; the product is regular
    cfg = FusionConfig(T((1, 1)), 2, 0, "symmetric")
    F = f_operator_general(cfg)
    assert F == I2() - P12_2
    assert rank(F) == 1
    assert not mul(q_op(1, 2, BilinearForm("symmetric", 2), 2), F)


def closed_form_difference(cfg, formula, chain=None):
    """certify's closed-form check: F against the closed formula's chain of
    contraction factors times E, on orbit columns; None when they agree."""
    chain = _closed_factors(cfg, formula) if chain is None else chain
    return OrbitComparison(cfg.N, cfg.n, cfg.form).difference(
        [f_operator_general(cfg)], chain + [e_operator(cfg.tableau, cfg.N)])


def test_closed_formula_examples():
    cfg = FusionConfig(T((2,)), 3, 0, "symmetric")
    for formula in ("col_O", "regular_case", "any_SO"):
        assert closed_form_difference(cfg, formula) is None, formula
    cfg_sp = FusionConfig(T((2,)), 2, 0, "alternating")
    for formula in ("row_Sp", "any_Sp"):
        assert closed_form_difference(cfg_sp, formula) is None, formula
    # empty pair set: both boxes share the single column, so the formula is E
    cfg_col = FusionConfig(T((1, 1)), 2, 0, "symmetric")
    assert _closed_factors(cfg_col, "col_O") == []
    assert closed_form_difference(cfg_col, "col_O") is None


def test_closed_form_check_rejects_a_shifted_den(monkeypatch):
    """Shifting the den of one factor of a closed formula by 1 fails the
    closed-form check of ``certify``, for every factor of these chains.
    On O_4, ``regular_case`` has the chain of ``any_SO`` and shares its
    comparison; shifted alone, it fails alone."""
    cases = ((FusionConfig(T((2, 1)), 4, 0, "alternating"), "row_Sp"),
             (FusionConfig(T((2, 1)), 4, 0, "symmetric"), "regular_case"),
             (FusionConfig(T((2, 1), which="col"), 3, 0, "symmetric"), "col_O"))
    for cfg, formula in cases:
        check = f"closed-form/{formula}"
        chain = _closed_factors(cfg, formula)
        assert chain and closed_form_difference(cfg, formula) is None
        assert {c.name: c.passed for c in certify(cfg).checks}[check]
        for i, (Q, sign, d) in enumerate(chain):
            shifted = chain[:i] + [(Q, sign, d + 1)] + chain[i + 1:]
            assert closed_form_difference(cfg, formula, shifted) is not None, (formula, i)
            with monkeypatch.context() as patch:
                patch.setattr(fusion, "_closed_factors",
                              lambda c, f: shifted if f == formula else _closed_factors(c, f))
                verdicts = {c.name: c.passed for c in certify(cfg).checks}
            assert not verdicts[check], (formula, i)
            assert all(ok for name, ok in verdicts.items() if name != check)


def test_certify_compares_each_distinct_chain_once(monkeypatch):
    # on Sp_4, any_Sp and regular_case have one chain: one comparison, two
    # entries; row_Sp drops the pairs within a row, so it is compared apart
    cfg = FusionConfig(T((2, 1)), 4, 0, "alternating")
    assert _closed_factors(cfg, "any_Sp") == _closed_factors(cfg, "regular_case")
    compared = []
    difference = OrbitComparison.difference

    def counting(self, lhs, rhs):
        if len(lhs) == 1:  # [F] against a closed formula's chain times E
            compared.append(tuple(rhs[:-1]))
        return difference(self, lhs, rhs)

    monkeypatch.setattr(OrbitComparison, "difference", counting)
    verdicts = {c.name: c.passed for c in certify(cfg).checks}
    assert sorted(compared) == sorted({tuple(_closed_factors(cfg, f))
                                       for f in ("row_Sp", "any_Sp")})
    assert {name for name in verdicts if name.startswith("closed-form/")} == {
        "closed-form/row_Sp", "closed-form/any_Sp", "closed-form/regular_case"}
    assert all(verdicts.values())


def test_scaled_square_is_no_statement_at_positive_M():
    # for (2) on O_2 with M = 1, F·F is no multiple of F at all: the ratios
    # of their entries take three values, so certify checks it at M = 0 only
    cfg = FusionConfig(T((2,)), 2, 1, "symmetric")
    F = f_operator_general(cfg)
    FF = mul(F, F)
    assert {(r, c) for r, row in FF.rows.items() for c in row} <= {
        (r, c) for r, row in F.rows.items() for c in row}
    ratios = {FF.entry(r, c) / F.entry(r, c) for r, row in F.rows.items() for c in row}
    assert ratios == {Fraction(5, 3), Fraction(2), Fraction(8, 3)}
    names = {c.name for c in certify(cfg).checks}
    assert "scaled-idempotency" not in names and "two-sided-divisibility" in names
    assert "scaled-idempotency" in {c.name for c in certify(
        FusionConfig(T((2,)), 3, 0, "symmetric")).checks}


def test_closed_formula_applicability():
    cfg = FusionConfig(T((2,)), 3, 0, "symmetric")
    with pytest.raises(NotApplicable):
        _closed_factors(cfg, "row_Sp")
    with pytest.raises(NotApplicable):
        _closed_factors(cfg, "any_Sp")
    cfg_col = FusionConfig(T((1, 1)), 2, 0, "symmetric")
    with pytest.raises(NotApplicable):
        _closed_factors(cfg_col, "any_SO")  # 2*2 > 2
    with pytest.raises(NotApplicable):
        _closed_factors(cfg_col, "regular_case")
    # non-column tableau rejected by col_O
    cfg_rowtab = FusionConfig(T((2, 1), which="row"), 3, 0, "symmetric")
    tabs = standard_tableaux(skew(P(2, 1)))
    other = [t for t in tabs if t != column_tableau(skew(P(2, 1)))][0]
    assert other == cfg_rowtab.tableau
    with pytest.raises(NotApplicable):
        _closed_factors(cfg_rowtab, "col_O")


def _factor_sweep():
    """Configs of every standard tableau of at most 3 boxes, skew included,
    with |λ| ≤ 5, on O_2, O_3 at M = 0, 1, 2 and Sp_2, Sp_4 at M = 0, 2,
    without label validation."""
    for O in _small_tableaux():
        if O.n > 3 or O.shape.lam.size > 5:
            continue
        for kind, Ns, Ms in (("symmetric", (2, 3), (0, 1, 2)), ("alternating", (2, 4), (0, 2))):
            for N in Ns:
                for M in Ms:
                    yield FusionConfig(O, N, M, kind, strict=False)


def _closed_reference(cfg, formula):
    """The closed formula as stated: the factors 1 − Q_kl/(c_k + c_l + s),
    with s = N + M − 1 for a symmetric form and N + M + 1 for an
    alternating one, over the pairs k < l in different columns (col_O), in
    different rows (row_Sp) or all pairs; None where it does not apply."""
    O = cfg.tableau
    sym = cfg.form_kind == "symmetric"
    half_rank = 2 * conjugate(O.shape.lam)[0] <= cfg.N + cfg.M
    applies = {"col_O": sym and O == column_tableau(O.shape),
               "row_Sp": not sym and O == row_tableau(O.shape),
               "any_Sp": not sym and not O.shape.is_skew,
               "any_SO": sym and not O.shape.is_skew and half_rank,
               "regular_case": half_rank}[formula]
    if not applies:
        return None
    apart = {"col_O": O.columns(), "row_Sp": O.rows()}.get(formula)
    s = cfg.N + cfg.M + (-1 if sym else 1)
    c = O.contents
    return [(("Q", k, l), -1, c[k - 1] + c[l - 1] + s)
            for k in range(1, O.n) for l in range(k + 1, O.n + 1)
            if apart is None or apart[k - 1] != apart[l - 1]]


def test_closed_formula_chains_pinned():
    """Every closed formula's chain, and whether it applies, equals the
    formula as stated; a chain with a zero den raises DivisionByZero.  The
    dens are rationals, not forms in ε."""
    from symfusion.exactnum import DivisionByZero

    seen = {"applied": 0, "skew": 0, "M": 0, "zero": 0}
    for cfg in _factor_sweep():
        for formula in fusion.CLOSED_FORMULAS:
            want = _closed_reference(cfg, formula)
            if want is None:
                with pytest.raises(NotApplicable):
                    _closed_factors(cfg, formula)
            elif any(d == 0 for _, _, d in want):
                seen["zero"] += 1
                with pytest.raises(DivisionByZero):
                    _closed_factors(cfg, formula)
            else:
                chain = _closed_factors(cfg, formula)
                assert chain == want, (cfg.describe(), formula)
                assert all(type(d) in (int, Fraction) for _, _, d in chain)
                seen["applied"] += 1
                seen["skew"] += cfg.tableau.shape.is_skew
                seen["M"] += cfg.M > 0
    assert seen["applied"] > 500 and seen["skew"] and seen["M"] and seen["zero"], seen


def test_f_factors_pinned():
    """``_f_factors`` applies the reverse of the product R̄ over all pairs
    k < l, then R over all pairs: R̄_kl as the move of Q_kl with a = c_k +
    c_l + N + M + 2·base and b = g_k + g_l, R_kl as the move of P_kl with
    a = c_k − c_l and b = g_k − g_l, for g the columns (symmetric) or rows
    (alternating) of the boxes; a and b are ints."""
    from symfusion.tensorop import unit_move

    count = 0
    for cfg in _factor_sweep():
        O = cfg.tableau
        c = O.contents
        g = O.columns() if cfg.form_kind == "symmetric" else O.rows()
        pairs = [(k, l) for k in range(1, O.n) for l in range(k + 1, O.n + 1)]
        shift = cfg.N + cfg.M + 2 * cfg.base_point
        product = ([(("Q", k, l), c[k - 1] + c[l - 1] + shift, g[k - 1] + g[l - 1])
                    for k, l in pairs]
                   + [(("P", k, l), c[k - 1] - c[l - 1], g[k - 1] - g[l - 1])
                      for k, l in pairs])
        factors = fusion._f_factors(cfg)
        assert [(a, b) for _, a, b in factors] == [(a, b) for _, a, b in reversed(product)]
        assert all(type(a) is int and type(b) is int for _, a, b in factors)
        assert all(move is unit_move(name, cfg.N, O.n, cfg.form)[0]
                   for (move, _, _), (name, _, _) in zip(factors, reversed(product)))
        count += 1
    assert count > 500


def test_f_factors_reject_a_non_integer_den(monkeypatch):
    # the engine takes integer a and b only: off the half-integer base
    # points, a = c_k + c_l + N + M + 2·base is no integer
    cfg = FusionConfig(T((2,)), 3, 0, "symmetric")
    monkeypatch.setattr(FusionConfig, "base_point", property(lambda self: Fraction(1, 3)))
    with pytest.raises(ConfigError):
        fusion._f_factors(cfg)


def test_a_shifted_R_bar_changes_F(monkeypatch):
    """R̄'s shift N + M is written once for F's product: shifted by 1 there,
    the pinned hashes of F and the intertwiner-F check fail."""
    from symfusion.rmatrix import check_intertwiner_F

    cases = [FusionConfig(T((2, 1)), 3, 0, "symmetric"),
             FusionConfig(T((2, 1)), 4, 0, "alternating"),
             *(FusionConfig(O, 2, 1, "symmetric") for O in standard_tableaux(skew(P(2, 1), P(1))))]
    assert all(check_intertwiner_F(cfg).passed for cfg in cases)
    real = fusion.R_bar
    monkeypatch.setattr(fusion, "R_bar", lambda i, j, x, y, shift: real(i, j, x, y, shift + 1))
    fusion._f_operator_cached.cache_clear()
    try:
        for (kind, lam), (hash_f, _) in PINNED_HASHES.items():
            assert operator_hash(f_operator_general(FusionConfig(T(lam), 4, 0, kind))) != hash_f
        assert not any(check_intertwiner_F(cfg).passed for cfg in cases)
    finally:
        fusion._f_operator_cached.cache_clear()


def test_scaled_idempotency_examples():
    E = e_operator(T((2,)), 2)
    assert verify_scaled_idempotent(E, Fraction(2))
    cfg = FusionConfig(T((2,)), 3, 0, "symmetric")
    assert verify_scaled_idempotent(f_operator_general(cfg), Fraction(2))
    assert scaled_idempotency_constant(P(2, 1)) == Fraction(3)
    E21 = e_operator(T((2, 1)), 2)
    assert verify_scaled_idempotent(E21, Fraction(3))


def test_divisibility_examples():
    cfg = FusionConfig(T((2,)), 3, 0, "symmetric")
    F = f_operator_general(cfg)
    E = e_operator(T((2,)), 3)
    assert verify_divisibility(F, E, Fraction(2))
    cfg2 = FusionConfig(T((1, 1)), 2, 0, "symmetric")
    F2 = f_operator_general(cfg2)
    E2 = e_operator(T((1, 1)), 2)
    assert F2 == E2 and verify_divisibility(F2, E2, Fraction(2))
    cfg3 = FusionConfig(T((2,)), 2, 0, "alternating")
    assert f_operator_general(cfg3) == e_operator(T((2,)), 2)


def test_measured_eigenvalue():
    E = e_operator(T((2,)), 2)
    assert verify_scaled_idempotent(E, 2)
    # the two-box disconnected skew element is not essentially idempotent:
    # the one scalar that fits its entry (0, 0) does not fit E² = σ·E
    sk = [t for t in standard_tableaux(skew(P(2, 1), P(1))) if t.contents == (1, -1)][0]
    E = e_operator(sk, 2)
    sq = mul(E, E)
    sigma = sq.entry(0, 0) / E.entry(0, 0)
    assert sq != scaled(E, sigma)


def test_prop33_examples():
    assert verify_prop33(FusionConfig(T((2,)), 3, 0, "symmetric"))
    assert verify_prop33(FusionConfig(T((1, 1)), 2, 0, "symmetric"))
    assert verify_prop33(FusionConfig(T((1,)), 2, 0, "alternating"))
    with pytest.raises(ConfigError):
        verify_prop33(FusionConfig(T((2,)), 3, 1, "symmetric"))


def _wrong_right_division(F, form):
    """F + F·P_13·(3 − E) for the (2,1) tableau, whose σ is 3: its square is
    3 times it, E·F′ = 3F′ and its image is that of F, as (3 − E)·F = 0; but
    F′·E = 3F, not 3F′."""
    shift = scaled(SparseOperator.identity(F.N, 3), 3) - e_operator(T((2, 1)), F.N)
    return F + mul(mul(F, perm_op(Permutation.transposition(3, 1, 3), F.N)), shift)


@pytest.mark.parametrize("perturb", [
    lambda F: F + SparseOperator(F.N, F.n, {0: {1: Fraction(1, 7)}}),
    # 2F still kills every contraction and has the image of F: only the
    # clause "F = E on traceless vectors" rejects it, through its square
    lambda F: scaled(F, 2),
    lambda F: _wrong_right_division(F, None),
    # 0 passes every operator equation: only the image equality rejects it
    lambda F: SparseOperator(F.N, F.n),
], ids=["entry_shift", "doubled", "wrong_right_division", "zero"])
def test_prop33_rejects_a_perturbed_operator(monkeypatch, perturb):
    from symfusion import fusion

    cfg = FusionConfig(T((2, 1)), 3, 0, "symmetric")
    assert verify_prop33(cfg)
    built = fusion.f_operator_general
    monkeypatch.setattr(fusion, "f_operator_general", lambda c: perturb(built(c)))
    assert not verify_prop33(cfg)


@pytest.mark.parametrize("kind, N", [("symmetric", 3), ("alternating", 4)])
def test_prop33_rejects_an_E_off_its_square(monkeypatch, kind, N):
    """E′ = E + Z with Z = (1 − E/3)·e_4·e_0ᵀ·(1 − E/3), which F kills on
    both sides: F·E′ = E′·F = 3F, and the traceless part of image(E′) is
    still image(F), but E′·E′ ≠ 3E′ and F ≠ E′ on traceless vectors.  Of
    verify_prop33's checks only E′ on image(E′) sees it."""
    from symfusion.tensorop import traceless_basis

    cfg = FusionConfig(T((2, 1)), N, 0, kind)
    F, E = f_operator_general(cfg), e_operator(cfg.tableau, N)
    off = SparseOperator.identity(N, 3) - scaled(E, Fraction(1, 3))
    bad = E + mul(mul(off, SparseOperator(N, 3, {4: {0: 1}})), off)
    assert mul(F, bad) == scaled(F, 3) == mul(bad, F) and mul(bad, bad) != scaled(bad, 3)
    assert fusion._traceless_part(image_basis(bad), cfg) == image_basis(F)
    traceless = {}  # the traceless basis as the columns of one operator
    for j, vec in enumerate(traceless_basis(N, 3, cfg.form).vectors):
        for code, v in vec:
            traceless.setdefault(code, {})[j] = v
    assert mul(F - bad, SparseOperator(N, 3, traceless))
    monkeypatch.setattr(fusion, "e_operator", lambda O, N: bad)
    assert not verify_prop33(cfg)


def test_corollary32_examples():
    t21 = T((2, 1))
    assert verify_corollary32(FusionConfig(t21, 3, 0, "symmetric"), 2)
    assert verify_corollary32(FusionConfig(t21, 2, 0, "alternating", strict=False), 2)
    t22 = T((2, 2))
    assert verify_corollary32(FusionConfig(t22, 2, 0, "symmetric", strict=False), 2)
    with pytest.raises(NonStandardNeighbor):
        verify_corollary32(FusionConfig(t21, 3, 0, "symmetric"), 1)


def _on_the_orbit_of_zero(F, form):
    """F plus 1 on the diagonal over the orbit of code 0: a perturbation
    that commutes with every generator, so no check falls back."""
    orbit = {0}
    for code, parent, _ in column_orbits(form, F.n).steps:
        if parent in orbit:
            orbit.add(code)
    return F + SparseOperator(F.N, F.n, {c: {c: 1} for c in orbit})


def _doubled(F, form):
    return scaled(F, 2)


@pytest.mark.parametrize("perturb", [
    lambda F, form: F + SparseOperator(F.N, F.n, {0: {1: Fraction(1, 7)}}),
    _doubled,
    _on_the_orbit_of_zero,
], ids=["entry_shift", "doubled", "orbit_shift"])
@pytest.mark.parametrize("kind, N", [("symmetric", 3), ("alternating", 4)])
def test_verifiers_reject_a_perturbed_operator(monkeypatch, perturb, kind, N):
    from symfusion import fusion

    L = T((2, 1))
    cfg = FusionConfig(L, N, 0, kind)
    F, E = f_operator_general(cfg), e_operator(L, N)
    bad = perturb(F, cfg.form)
    assert verify_scaled_idempotent(F, 3) and verify_divisibility(F, E, 3)
    # each verifier gives the verdict of the full products; divisibility is
    # homogeneous in F, so 2F still passes it
    assert mul(bad, bad) != scaled(bad, 3)
    assert not verify_scaled_idempotent(bad, 3)
    divides = mul(bad, E) == scaled(bad, 3) == mul(E, bad)
    assert verify_divisibility(bad, E, 3) == divides
    assert divides == (perturb is _doubled)
    # k = 2 exchanges the contents 1 and -1 of the row tableau
    assert verify_corollary32(cfg, 2)
    P = perm_op(Permutation.transposition(3, 2, 3), N)
    I = SparseOperator.identity(N, 3)
    Fk = f_operator_general(FusionConfig(L.swap_adjacent(2), N, 0, kind))
    assert (mul(mul(P, I + scaled(P, Fraction(1, 2))), bad)
            != mul(mul(Fk, I - scaled(P, Fraction(1, 2))), P))
    built = fusion.f_operator_general
    monkeypatch.setattr(fusion, "f_operator_general",
                        lambda c: perturb(built(c), c.form) if c == cfg else built(c))
    assert not verify_corollary32(cfg, 2)


def _plus_P13_E(F, form):
    """F + P_13·E: still F·E = 3F, but not E·F = 3F."""
    return F + mul(perm_op(Permutation.transposition(3, 1, 3), F.N), e_operator(T((2, 1)), F.N))


@pytest.mark.parametrize("perturb", [
    lambda F, form: F + SparseOperator(F.N, F.n, {0: {1: Fraction(1, 7)}}),
    _doubled,
    _on_the_orbit_of_zero,
    _plus_P13_E,
    _wrong_right_division,
], ids=["entry_shift", "doubled", "orbit_shift", "plus_P13_E", "wrong_right_division"])
@pytest.mark.parametrize("kind, N", [("symmetric", 3), ("alternating", 4)])
def test_certify_gives_the_verifiers_verdicts(monkeypatch, perturb, kind, N):
    """certify runs its operator equations on the image bases it shares
    with the rank check; on a perturbed F its verdicts are those of the
    standalone verifiers, and every closed formula rejects it."""
    cfg = FusionConfig(T((2, 1)), N, 0, kind)
    E = e_operator(cfg.tableau, N)
    bad = perturb(f_operator_general(cfg), cfg.form)
    assert (mul(bad, E) == scaled(bad, 3)) is (perturb in (_doubled, _plus_P13_E))
    built = fusion.f_operator_general
    monkeypatch.setattr(fusion, "f_operator_general", lambda c: bad if c == cfg else built(c))
    verdicts = {c.name: c.passed for c in certify(cfg).checks}
    assert (verdicts["scaled-idempotency"] is verify_scaled_idempotent(bad, 3)
            is (perturb is _wrong_right_division))
    assert (verdicts["two-sided-divisibility"] is verify_divisibility(bad, E, 3)
            is (perturb is _doubled))
    assert not any(ok for name, ok in verdicts.items() if name.startswith("closed-form/"))


@pytest.mark.parametrize("kind, N", [("symmetric", 3), ("alternating", 4)])
def test_a_wrong_right_division_alone_is_rejected(monkeypatch, kind, N):
    """F′ = F + F·P_13·(3 − E) breaks F′·E = 3F′ and nothing else that the
    image bases see: its square, E·F′ and its image are right.  The check
    of E on the row space of F′ rejects it in ``verify_divisibility``, in
    certify's divisibility and traceless-image entries and in
    ``verify_prop33``."""
    cfg = FusionConfig(T((2, 1)), N, 0, kind)
    F, E = f_operator_general(cfg), e_operator(cfg.tableau, N)
    bad = _wrong_right_division(F, cfg.form)
    assert mul(bad, bad) == scaled(bad, 3) == mul(E, bad) != mul(bad, E)
    assert image_basis(bad) == image_basis(F)
    assert verify_scaled_idempotent(bad, 3) and not verify_divisibility(bad, E, 3)
    built = fusion.f_operator_general
    monkeypatch.setattr(fusion, "f_operator_general", lambda c: bad if c == cfg else built(c))
    assert not verify_prop33(cfg)
    verdicts = {c.name: c.passed for c in certify(cfg).checks}
    assert verdicts["scaled-idempotency"] and verdicts["rank-monotone"]
    assert not verdicts["two-sided-divisibility"] and not verdicts["traceless-image"]


def test_theta_factorization_configs(monkeypatch):
    monkeypatch.setenv("FUSION_MAX_DIM", "1000")  # the size cap comes from here
    t2 = T((2,))
    assert verify_theta_factorization(t2, 0, 2, 1, "symmetric")
    assert verify_theta_factorization(t2, 1, 2, 1, "symmetric")
    for t in standard_tableaux(skew(P(2, 1))):
        assert verify_theta_factorization(t, 1, 2, 2, "symmetric")
    for t in standard_tableaux(skew(P(2, 2))):
        assert verify_theta_factorization(t, 1, 2, 2, "alternating")
    # m >= 2: the projector is not the identity, and traceless vectors share rows
    assert verify_theta_factorization(T((2, 1, 1)), 2, 2, 3, "symmetric")
    for t in standard_tableaux(skew(P(3, 1))):
        assert verify_theta_factorization(t, 2, 2, 2, "symmetric")
    assert verify_theta_factorization(T((2, 2)), 2, 2, 2, "alternating")
    with pytest.raises(NotApplicable):
        verify_theta_factorization(T((1, 1)), 1, 2, 1, "alternating")  # odd M
    with pytest.raises(SizeLimitExceeded):
        verify_theta_factorization(T((4, 2)), 1, 3, 1, "symmetric")


def test_theta_factorization_rejects_perturbed_factors(monkeypatch):
    """A doubled small operator, or the small operator or E_ups off by 1/7
    in one entry, breaks the factorization at m = 2: the small one moves
    X off the pairings of Y, and the E_ups one moves E_ups·u_j off the
    traceless part or off those pairings.  So does E_ups plus a map into
    the contraction span C, which pairs to 0 with the traceless part: only
    the Q_kl moves on E_ups·u_j see it."""
    from symfusion import fusion
    from symfusion.symalg import inner_tableau_of
    from symfusion.tensorop import traceless_basis

    monkeypatch.setenv("FUSION_MAX_DIM", "1000")
    L = T((2, 1, 1))
    case = (L, 2, 2, 3, "symmetric")
    assert verify_theta_factorization(*case)
    general, built = fusion.f_operator_general, fusion.e_operator
    upsilon = inner_tableau_of(L, 2)

    def shifted(A, row=None):
        r = min(A.rows) if row is None else row
        return A + SparseOperator(A.N, A.n, {r: {min(A.rows[r]): Fraction(1, 7)}})

    perturbed = [
        ("f_operator_general", lambda cfg: scaled(general(cfg), 2) if cfg.M else general(cfg)),
        ("f_operator_general", lambda cfg: shifted(general(cfg)) if cfg.M else general(cfg)),
    ]
    E_ups = built(upsilon, 3)
    perturbed += [("e_operator", lambda O, N, r=r: shifted(built(O, N), r) if O == upsilon
                   else built(O, N)) for r in sorted(E_ups.rows)]
    # w = Σ e_i ⊗ e_i spans the image of Q_12 on C^3 ⊗ C^3; it is added at
    # the first code of the first traceless vector
    code = traceless_basis(3, 2, standard_form("symmetric", 3)).vectors[0][0][0]
    into_C = SparseOperator(3, 2, {4 * i: {code: Fraction(1, 7)} for i in range(3)})
    perturbed.append(("e_operator", lambda O, N: built(O, N) + into_C if O == upsilon
                      else built(O, N)))
    for name, mutant in perturbed:
        with monkeypatch.context() as patch:
            patch.setattr(fusion, name, mutant)
            assert not verify_theta_factorization(*case), name
    assert verify_theta_factorization(*case)


def test_block_codes_match_the_decoded_reference():
    # the code of (mcode, ncode) in the split space is the encoding of the
    # first m letters in 1..M followed by the last n letters in M+1..L
    for L, M, m, n in ((3, 1, 0, 2), (3, 2, 0, 1), (3, 1, 1, 2), (4, 2, 1, 2),
                       (5, 3, 2, 1), (4, 2, 2, 2)):
        first, last = fusion._block_codes(L, M, m, n)
        assert (len(first), len(last)) == (M ** m, (L - M) ** n)
        for mcode, f in enumerate(first):
            midx = decode(mcode, M, m)
            for ncode, t in enumerate(last):
                nidx = tuple(M + i for i in decode(ncode, L - M, n))
                assert f + t == encode(midx + nidx, L), (L, M, m, n, mcode, ncode)


def _tensor_gram(form, m):
    """ω^{⊗m} entry by entry from the decoded letters of both codes."""
    dim = form.N ** m
    gram = {}
    for a in range(dim):
        la = decode(a, form.N, m)
        for b in range(dim):
            lb = decode(b, form.N, m)
            v = math.prod(form.gram[i - 1][j - 1] for i, j in zip(la, lb))
            if v:
                gram[a, b] = v
    return gram


def test_contraction_span_is_the_traceless_part_orthogonal():
    """The fact the theta check rests on: with T the traceless part and C
    the span of the images of every Q_kl, every vector of C pairs to 0
    with every vector of T under ω^{⊗m}, T ∩ C = 0 and dim T + dim C = M^m.
    So T ⊕ C is the whole space and, ω^{⊗m} being nondegenerate, C = T^⊥:
    the projector onto T along C kills exactly T^⊥.  Checked on Sp_4 and
    O_3 and O_2 at m = 3, Sp_2 at m = 4, O_4 at m = 2, and on a Gram with
    a rational entry."""
    from operator_reference import span_of_vectors
    from symfusion.tensorop import intersect, traceless_basis

    cases = [(standard_form("alternating", 4), 3), (standard_form("symmetric", 3), 3),
             (standard_form("symmetric", 2), 3), (standard_form("alternating", 2), 4),
             (standard_form("symmetric", 4), 2),
             (BilinearForm("symmetric", 2, [[2, 1], [1, Fraction(1, 3)]]), 2)]
    for form, m in cases:
        dim = form.N ** m
        traceless = traceless_basis(form.N, m, form)
        images = [dict(v) for k in range(1, m) for l in range(k + 1, m + 1)
                  for v in image_basis(q_op(k, l, form, m)).vectors]
        span = span_of_vectors(dim, images)
        assert traceless.dim + span.dim == dim and intersect(traceless, span).dim == 0
        assert 0 < traceless.dim < dim
        gram = _tensor_gram(form, m)
        for t in traceless.vectors:
            covector = {}
            for (a, b), g in gram.items():
                covector[b] = covector.get(b, 0) + dict(t).get(a, 0) * g
            assert all(sum(covector.get(c, 0) * v for c, v in image.items()) == 0
                       for image in images), (form, m)


def test_divisibility_for_skew_shape_with_measured_scalar():
    # single-row skew: the symmetrizer operator is essentially idempotent,
    # with E² = 2·E, so σ = 2 feeds the divisibility reformulation
    O = T((3,), (1,))
    cfg = FusionConfig(O, 2, 1, "symmetric")
    E = e_operator(O, 2)
    assert verify_scaled_idempotent(E, 2)
    assert verify_divisibility(f_operator_general(cfg), E, 2)


def test_pole_detection_machinery():
    # numerator 1 over denominator 2ε must raise
    with pytest.raises(PoleAtLimit):
        value_at_zero([{0: 1}, {}], [(0, 2)])
    # numerator divisible by ε passes: 3ε/2ε -> 3/2, as numerators over den
    assert value_at_zero([{}, {0: 3}], [(0, 2)]) == ({0: 3}, 2)
    # 3ε/(-2ε) -> -3/2: the denominator comes back positive
    assert value_at_zero([{}, {0: 3}], [(0, -2)]) == ({0: -3}, 2)


def test_dimension_cap(monkeypatch):
    monkeypatch.setenv("FUSION_MAX_DIM", "8")
    with pytest.raises(SizeLimitExceeded):
        e_operator(T((2, 2)), 2)  # 2^4 = 16 > 8
    monkeypatch.delenv("FUSION_MAX_DIM")


def test_operator_hash_stability():
    E = e_operator(T((2,)), 2)
    assert operator_hash(E) == operator_hash(I2() + P12_2)
    assert operator_hash(E) != operator_hash(I2())
    assert operator_hash(SparseOperator(2, 2)) == hashlib.sha256(b"[]").hexdigest()[:16]


def test_operator_hash_is_the_sha256_of_the_triplets():
    """operator_hash streams the compact JSON of to_triplets by hand; it
    must stay the same bytes."""
    handmade = SparseOperator(2, 2, {0: {0: Fraction(-3, 4), 3: 2}, 2: {1: Fraction(5, 6)}})
    F = f_operator_general(FusionConfig(T((2,)), 3, 0, "symmetric"))  # I + P - 2Q/3
    # rows that share one object, as the orbit assembly stores them, are
    # formatted once and joined behind each index's own prefix
    built = SparseOperator(2, 4, {0: {0: Fraction(-3, 4), 3: 2, 10: Fraction(1, 12)}, 2: {7: 5}})
    shared = SparseOperator._in_normal_form(
        2, 4, {r: built.rows[0 if r in (0, 5, 11) else 2] for r in (0, 2, 5, 11, 12)}, built.den)
    for A in (handmade, F, shared):
        assert A.den != 1 and any(v < 0 for row in A.rows.values() for v in row.values())
        text = json.dumps(A.to_triplets(), separators=(",", ":"))
        assert operator_hash(A) == hashlib.sha256(text.encode()).hexdigest()[:16]


# operator_hash of (F, E) for row tableaux at N = 4, pinned from the
# integer-polynomial and rational-function limit routes that the integer
# series engine replaced; it must reproduce them exactly
PINNED_HASHES = {
    ("alternating", (3, 1)): ("38f7fe4e7ab026a4", "3854fd8f58322fdb"),
    ("alternating", (2, 2)): ("a927a755b0a8c4d6", "3ee55571f4f6315c"),
    ("symmetric", (3, 1)): ("09b44d1f8c5263a9", "3854fd8f58322fdb"),
    ("symmetric", (2, 2)): ("f65b2b1e54ba0e06", "3ee55571f4f6315c"),
}


def test_operator_hashes_pinned():
    for (kind, lam), (hash_f, hash_e) in PINNED_HASHES.items():
        tab = T(lam)
        assert operator_hash(f_operator_general(FusionConfig(tab, 4, 0, kind))) == hash_f
        assert operator_hash(e_operator(tab, 4)) == hash_e


def test_rank_of_F_matches_traceless_intersection_dimension():
    # the two sides count different things: the pivots of F's own blocks
    # against the intersection of two computed subspaces; that intersection
    # is verify_prop33's traceless part of image(E), taken by the
    # contractions' moves, and intersect's meet with the traceless basis
    from symfusion.tensorop import intersect, traceless_basis

    cases = [
        (T((2,)), 3, "symmetric"),
        (T((2, 1)), 3, "symmetric"),
        (T((1, 1)), 2, "symmetric"),
        (T((2,)), 2, "alternating"),
        (T((2, 1)), 4, "alternating"),
    ]
    for tab, N, kind in cases:
        cfg = FusionConfig(tab, N, 0, kind)
        F = f_operator_general(cfg)
        form = BilinearForm(kind, N)
        E = e_operator(tab, N)
        meet = intersect(image_basis(E), traceless_basis(N, tab.n, form))
        assert rank(F) == meet.dim
        assert fusion._traceless_part(image_basis(E), cfg) == meet


def _trace(A):
    return Fraction(sum(row.get(r, 0) for r, row in A.rows.items()), A.den)


def test_rank_is_the_trace_over_sigma():
    """At M = 0 on a non-skew tableau, F/σ and E/σ are idempotents, so each
    rank is its trace over σ: a route that eliminates nothing.  Every
    standard tableau of every valid label of at most 4 boxes, on Sp_4,
    O_3, O_2 and Sp_2 (32 configs)."""
    from symfusion.shapes import validate_label

    configs = 0
    for kind, N in (("alternating", 4), ("symmetric", 3), ("symmetric", 2), ("alternating", 2)):
        group = fusion.FORM_GROUP[kind]
        for size in range(1, 5):
            for lam in partitions_of(size):
                if not validate_label(lam, group, N):
                    continue
                sigma = scaled_idempotency_constant(lam)
                for tab in standard_tableaux(skew(lam)):
                    F = f_operator_general(FusionConfig(tab, N, 0, kind))
                    E = e_operator(tab, N)
                    assert rank(F) == _trace(F) / sigma, (kind, N, tab)
                    assert rank(E) == _trace(E) / sigma, (kind, N, tab)
                    configs += 1
    assert configs == 32


def test_certify_collects_passing_checks():
    cert = certify(FusionConfig(T((2,)), 3, 0, "symmetric"))
    assert cert.all_passed()
    names = {c.name for c in cert.checks}
    assert {"regular-limit", "scaled-idempotency", "two-sided-divisibility",
            "traceless-image", "rank-monotone"} <= names
    payload = cert.to_json()
    assert payload["operator_hash"]
    assert all("paper_ref" in c for c in payload["checks"])
    listed = [c["name"] for c in payload["checks"]]
    assert listed == sorted(listed)


def test_route_agreement_small_sweep():
    # every applicable closed formula agrees with the general route
    cases = [
        (T((2, 1)), 3, 0, "symmetric"),
        (T((2, 1), which="col"), 3, 0, "symmetric"),
        (T((2, 1)), 2, 2, "alternating"),
        (T((3,)), 2, 1, "symmetric"),
        (T((2, 1), (1,)), 2, 1, "symmetric"),
        (T((2, 1), (1,), "col"), 2, 1, "symmetric"),
        (T((2, 2), (1,)), 2, 2, "symmetric"),
    ]
    for tab, N, M, kind in cases:
        cfg = FusionConfig(tab, N, M, kind)
        for formula in ("col_O", "row_Sp", "any_Sp", "any_SO", "regular_case"):
            try:
                chain = _closed_factors(cfg, formula)
            except NotApplicable:
                continue
            assert closed_form_difference(cfg, formula, chain) is None, (tab, N, M, kind, formula)


def _unreduced_f(cfg):
    """Reference route: the limit engine on every column of the identity,
    with no symmetry used."""
    from symfusion import fusion

    dim = cfg.N ** cfg.n
    values, den = limit_at_zero({c * dim + c: 1 for c in range(dim)},
                                fusion._f_factors(cfg), "operator product")
    rows = {}
    for key, v in values.items():
        r, c = divmod(key, dim)
        rows.setdefault(r, {})[c] = v
    return SparseOperator(cfg.N, cfg.n, rows, den)


def _orbit_cases():
    cases = [FusionConfig(t, 4, 0, kind)
             for lam in ((2, 1), (3, 1), (2, 2))
             for t in standard_tableaux(skew(P(*lam)))
             for kind in ("symmetric", "alternating")]
    cases.append(FusionConfig(T((2, 1)), 3, 0, "symmetric"))
    cases.append(FusionConfig(T((2, 2), (1,)), 2, 2, "symmetric"))
    return cases


def test_orbit_build_matches_unreduced_reference():
    """F built on column orbits equals the engine run on every column."""
    for cfg in _orbit_cases():
        orbits = column_orbits(cfg.form, cfg.n)
        assert len(orbits.representatives) < cfg.N ** cfg.n
        assert f_operator_general(cfg) == _unreduced_f(cfg), cfg.describe()


def test_f_commutes_with_every_derived_generator():
    """F·g^{⊗n} = g^{⊗n}·F as operator products, for every generator."""
    cases = _orbit_cases() + [FusionConfig(T((3, 2)), 4, 0, "symmetric")]
    for cfg in cases:
        F = f_operator_general(cfg)
        for targets, signs in column_orbits(cfg.form, cfg.n).tables:
            G = SparseOperator(cfg.N, cfg.n, {targets[c]: {c: signs[c]}
                                              for c in range(cfg.N ** cfg.n)})
            assert mul(F, G) == mul(G, F), cfg.describe()


def test_orbit_build_stores_each_distinct_row_once():
    """F and E of the (3,2) row tableau on Sp_4 hold their 960 rows in 156
    and 160 row objects, one per distinct row, with the hashes of
    perfbench's golden file."""
    cfg = FusionConfig(T((3, 2)), 4, 0, "alternating")
    for A, objects, digest in ((f_operator_general(cfg), 156, "9586b22c521803ee"),
                               (e_operator(cfg.tableau, 4), 160, "db884de27e325330")):
        assert len(A.rows) == 960
        assert len({id(row) for row in A.rows.values()}) == objects
        assert len({tuple(sorted(row.items())) for row in A.rows.values()}) == objects
        assert operator_hash(A) == digest


def test_certify_and_verify_mutate_no_shared_row(tmp_path):
    """F and E share row objects, so a write to one row would reach every
    index that holds it.  The cached F and E of a config keep their hash
    and the row object at every index through ``certify`` and through a
    ``verify`` sweep that reaches the config."""
    from symfusion.cli import main

    cfg = FusionConfig(T((2, 2)), 4, 0, "alternating")
    ops = (f_operator_general(cfg), e_operator(cfg.tableau, 4))

    def state():
        return [(operator_hash(A), {r: id(row) for r, row in A.rows.items()}) for A in ops]

    before = state()
    assert all(len(set(objects.values())) < len(objects) for _, objects in before)
    assert certify(cfg).all_passed()
    assert state() == before
    assert main(["verify", "--form", "Sp", "--N", "4", "--max-boxes", "4",
                 "--output", str(tmp_path / "c.json")]) == 0
    assert state() == before
    assert f_operator_general(cfg) is ops[0] and e_operator(cfg.tableau, 4) is ops[1]


def test_orbit_build_rejects_a_flipped_rebuilt_column(monkeypatch):
    """A rebuilt column with the wrong sign fails the commutation check,
    whether it is a leaf of its orbit's tree or the parent of later
    columns: both kinds are written by ``_write_image``."""
    from symfusion import fusion

    cfg = FusionConfig(T((3, 1)), 4, 0, "alternating")
    write = fusion._write_image
    for parent in (False, True):
        flipped = []

        def flip_first(rows, code, column, table, s, image, parent=parent, flipped=flipped):
            if column and (image is not None) is parent and not flipped:
                flipped.append(code)
                s = -s
            return write(rows, code, column, table, s, image)

        monkeypatch.setattr(fusion, "_write_image", flip_first)
        with pytest.raises(ArithmeticError):
            fusion._f_operator_cached.__wrapped__(cfg)  # uncached build
        assert flipped, parent
    monkeypatch.setattr(fusion, "_write_image", write)
    assert fusion._f_operator_cached.__wrapped__(cfg) == _unreduced_f(cfg)


def _small_tableaux():
    """Every standard tableau of at most 4 boxes, skew included, with
    |λ| ≤ 6."""
    out = set()
    for size in range(1, 7):
        for lam in partitions_of(size):
            for mu in (m for k in range(max(0, size - 4), size) for m in partitions_of(k)):
                try:
                    out.update(standard_tableaux(skew(lam, mu)))
                except ValueError:  # mu does not fit in lam
                    continue
    return sorted(out, key=lambda t: (t.shape.lam.parts, t.shape.mu.parts, t.entries))


def test_orbit_built_e_matches_act():
    """E built on the column orbits of the signed letter permutations
    equals the all-column slot sums of ``act``, and is stored in normal
    form although it skipped the constructor's ``normal_form`` pass."""
    cases = [(O, N) for O in _small_tableaux() for N in (1, 2, 3)]
    assert len(cases) == 951
    cases += [(O, 4) for O in standard_tableaux(skew(P(3, 2)))]
    cases.append((T((2, 2, 1), (1,)), 4))
    for O, N in cases:
        E = fusion._e_operator_cached.__wrapped__(O, N)  # uncached build
        assert E == act(fusion_e_skew(O, "row"), N), (O, N)
        assert E == SparseOperator(N, O.n, E.rows, E.den), (O, N)


def test_e_build_rejects_a_non_equivariant_exchange(monkeypatch):
    """E takes its equivariance from the adjacent exchanges' verdicts; one
    failed verdict stops the build."""
    real = fusion.unit_move

    def failing(name, N, n, form):
        move, den, commutes = real(name, N, n, form)
        return move, den, commutes and name != ("P", 2, 3)

    O = T((2, 1))
    assert fusion._e_operator_cached.__wrapped__(O, 2) == act(fusion_e_skew(O, "row"), 2)
    monkeypatch.setattr(fusion, "unit_move", failing)
    with pytest.raises(ArithmeticError):
        fusion._e_operator_cached.__wrapped__(O, 2)  # uncached build


def test_e_build_enumerates_no_permutation(monkeypatch):
    """E is the exchange factors' limit on orbit columns: a skew and a
    non-skew E build with the group-algebra element and S_n's table out
    of reach."""
    from symfusion import symalg

    cases = [(T((3, 2)), 3), (T((3, 2, 1), (1,)), 2)]
    want = [act(fusion_e_skew(O, "row"), N) for O, N in cases]

    def enumerated(*args):
        raise AssertionError("E's build enumerated S_n")

    monkeypatch.setattr(symalg, "fusion_e_skew", enumerated)
    monkeypatch.setattr(symalg, "_perms", enumerated)
    fusion._e_operator_cached.cache_clear()
    try:
        assert [e_operator(O, N) for O, N in cases] == want
    finally:
        fusion._e_operator_cached.cache_clear()


def test_e_of_eight_boxes_pinned():
    """E of the (4,4) row tableau on N = 2 (dim 256, 28 exchange factors) is
    built in well under a second; a build that sums the 8! = 40320
    permutations of the group-algebra element into every orbit column took
    seconds.  The hash is the one that build gave."""
    import time

    start = time.monotonic()
    E = fusion._e_operator_cached.__wrapped__(T((4, 4)), 2)  # uncached build
    assert time.monotonic() - start < 5
    assert operator_hash(E) == "753603c2c5f1b0bf"


def test_column_orbit_steps_run_orbit_by_orbit():
    """The steps of each orbit are contiguous, the orbits come in the order
    of their representatives, and each orbit starts from its
    representative; the assembly rejects steps out of that order."""
    for kind, N, n in (("symmetric", 3, 4), ("symmetric", 4, 3), ("alternating", 4, 3),
                       ("alternating", 2, 5), ("symmetric", 1, 3)):
        orbits = column_orbits(standard_form(kind, N), n)
        reps = orbits.representatives
        assert list(reps) == sorted(reps)
        orbit_of = {rep: i for i, rep in enumerate(reps)}
        current = -1
        for code, parent, t in orbits.steps:
            assert orbits.tables[t][0][parent] == code
            if orbit_of[parent] != current:
                assert parent in reps and orbit_of[parent] > current
                current = orbit_of[parent]
            orbit_of[code] = current
        assert len(orbit_of) == N ** n
    orbits = column_orbits(standard_form("symmetric", 2), 3)
    first = [s for s in orbits.steps if s[1] == orbits.representatives[0]][0]
    swapped = orbits._replace(steps=[s for s in orbits.steps if s != first] + [first])
    columns = {rep: {rep: 1} for rep in orbits.representatives}
    with pytest.raises(ValueError):
        fusion._assemble(2, 3, swapped, columns, 1)
    columns = {rep: {rep: 1} for rep in orbits.representatives}
    assert fusion._assemble(2, 3, orbits, columns, 1) == SparseOperator.identity(2, 3)


def test_orbit_build_rejects_a_non_equivariant_factor(monkeypatch, fresh_units):
    """A factor that breaks the form's symmetry stops the F build.  Every
    contraction is Q_12 on C^N ⊗ C^N lifted to its two slots, so Q_12 there
    is shifted at each of the 7 codes off the orbit representatives of
    C^3 ⊗ C^3, by adding 1/7 to v there in Q_12 = u·vᵀ, so that it stays
    rank one:
    F's build takes that shift into every contraction factor, and the
    factors' verdict, decided on the two slots, raises."""
    from symfusion import tensorop

    cfg = FusionConfig(T((2, 1)), 3, 0, "symmetric")
    reps = column_orbits(cfg.form, 2).representatives
    off = [c for c in range(9) if c not in reps]
    assert len(off) == 7
    real = tensorop.q_op
    for c in off:
        def shifted(k, l, form, n, c=c):
            Q = real(k, l, form, n)
            return rank_one_shifted(Q, cols=[c]) if n == 2 else Q

        monkeypatch.setattr(tensorop, "q_op", shifted)
        tensorop.unit_move.cache_clear()
        assert not tensorop.unit_move(("Q", 1, 3), 3, 3, cfg.form)[2]
        with pytest.raises(ArithmeticError):
            fusion._f_operator_cached.__wrapped__(cfg)  # uncached build


def test_cap_row_tableau_F_pinned(monkeypatch):
    """F for the (3,3) row tableau on Sp_4 at the default cap, dim 4096,
    pinned from the build on all columns."""
    from symfusion import fusion

    monkeypatch.delenv("FUSION_MAX_DIM", raising=False)
    cfg = FusionConfig(T((3, 3)), 4, 0, "alternating")
    fusion._check_dim(cfg.N, cfg.n)
    F = fusion._f_operator_cached.__wrapped__(cfg)  # uncached: 659k entries
    assert (operator_hash(F), F.nnz(), F.den) == ("3bb3e2c912794c7c", 658832, 21)
