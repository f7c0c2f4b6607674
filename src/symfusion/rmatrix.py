"""Parameterized R-matrices and exact checks of rational identities.

Each identity is stated once, as two ordered lists ``lhs`` and ``rhs``
whose products must agree.  An item is a constant operator (F, E, the
identity) or a factor (X, sign, den) standing for 1 + sign·X/den, where
X is a unit operator (an exchange P_ij, a contraction Q_ij, or the
identity for a scalar) or a sum of them, and den an affine form in the
spectral parameters (``Affine``).

A check decides the identity as a polynomial identity, with no point
evaluated.  Each side is a polynomial of integer vectors in the
parameters over a den that is an int times a product of linear forms;
the forms both dens share cancel, and each numerator is multiplied by
the other side's remaining forms and int.  The two cleared numerators
are equal in the polynomial ring exactly when the two products are equal
as rational functions, since the ring has no zero divisors: so equal
coefficients are a proof, for one variable and for several alike, and a
differing coefficient is a witness.  The check needs no sample point, no
degree bound and no seed.

The families are written in the factors of ``products``: the exchange
factor ``R``, the contraction factors ``R_tilde`` and ``R_bar``, whose
unit operators are named, not built: ("P", i, j) is the exchange P_ij
and ("Q", k, l) the contraction Q_kl of the check's form.  A sum of them,
such as P_sum in eval-consistency-E or P − Q in eval-consistency-F, is a
``products.UnitSum`` of names, so no check builds an operator it can
name.

No operator product is formed.  One ``products.OrbitComparison`` per
check applies both sides right to left to the unit columns of the orbit
representatives under the monomial isometries of the family's form (of
the identity Gram when no contraction appears), every step an integer
move on each coefficient: a factor with D = q·den integral maps p to
d_X·D·p + sign·q·X_num·p with X = X_num/d_X.  Every operator commutes
with those isometries, checked exactly: each named unit operator is
built, moved and checked once per process on its two slots, a sum of
names takes its terms' moves and verdicts, and each constant operator
(E, F) is checked once per check.  So agreement on the representatives
is agreement everywhere; if one operator does not commute, all columns
are compared.  Each move does only its operator's work: an exchange
relabels keys, a contraction sums each entry's pairing into its base
and inserts w once per base, and a constant operator takes each of its
row objects once.  An operator on fewer slots, such as E or F next to
the extra strand, stands for 1 ⊗ it and is never built on the larger
space.
"""

from __future__ import annotations

from fractions import Fraction

from .fusion import CheckResult, FusionConfig, e_operator, f_operator_general
from .products import Affine, OrbitComparison, R, R_bar, R_tilde, UnitSum, variables
from .shapes import Partition, StandardTableau, skew, standard_tableaux
from .symalg import Permutation
from .tensorop import BilinearForm, SparseOperator, perm_op


def _is_factor(item) -> bool:
    """Whether a side's item is a factor (X, sign, den), not a constant:
    an operator, a unit operator's name such as ("P", 1, 2), or a scalar."""
    return isinstance(item, tuple) and not isinstance(item[0], str)


def run_identity_check(name: str, statement: str, lhs: list, rhs: list,
                       form: BilinearForm | None = None, N: int | None = None) -> CheckResult:
    """Decide that the ordered products of ``lhs`` and ``rhs`` are equal as
    rational functions, by one ``products.OrbitComparison``; a differing
    coefficient of the cleared numerators is recorded as the witness: its
    row, column, monomial (exponents per variable) and both coefficients.

    An item is a constant operator, or a factor tuple (X, sign, den) for
    1 + sign·X/den with X an operator and den an ``Affine``.  An operator
    is a SparseOperator, where one on fewer slots stands for 1 ⊗ it, a
    unit operator's name, ("P", i, j) or ("Q", k, l), or a ``UnitSum`` of
    names.  The product acts on C^N with N given, or that of the first
    SparseOperator, and on as many slots as the largest SparseOperator
    has or a name or sum mentions.  The sides are compared on the orbit
    columns of ``form``'s monomial isometries, or of the identity Gram's
    when ``form`` is None (for checks without a contraction), so each
    SparseOperator's move is built and its commutation checked once per
    check, and each name's once per process.
    """
    ops = [item[0] if _is_factor(item) else item for item in lhs + rhs]
    if N is None:
        N = next(op.N for op in ops if isinstance(op, SparseOperator))
    n = max(max(op[1:]) if isinstance(op, tuple) else op.n for op in ops)
    diff = OrbitComparison(N, n, form).difference(lhs, rhs)
    if diff is None:
        return CheckResult(name, statement, True)
    r, c, monomial, a, b = diff
    return CheckResult(name, statement, False, {"row": r, "col": c, "monomial": list(monomial),
                                                "lhs": str(a), "rhs": str(b)})


# ---------------------------------------------------------------------------
# the identity families, in the factors R, R~ and R̄ of ``products``


def check_yang_baxter_family(which: str, N: int, form: BilinearForm | None) -> CheckResult:
    """Three-slot braid identities A·B·C = C·B·A for the
    exchange/contraction factors.

    which: "YB35" (plain), "tilde37", "bar38", "mixed385".
    """
    x, y, z = variables(3)
    if which == "YB35":
        abc = [R(1, 2, x, y), R(1, 3, x, z), R(2, 3, y, z)]
    elif which == "tilde37":
        abc = [R_tilde(1, 3, x, z), R_tilde(1, 2, x, y), R(2, 3, y, z)]
    elif which == "bar38":
        abc = [R_bar(1, 2, x, y, N), R_bar(1, 3, x, z, N), R(2, 3, y, z)]
    elif which == "mixed385":
        abc = [R_tilde(1, 2, x, y), R(1, 3, x, z), R_bar(2, 3, y, z, N)]
    else:
        raise ValueError(f"unknown family member {which!r}")
    return run_identity_check(f"yang-baxter/{which}", "three-slot-braid-exchange",
                              abc, abc[::-1], None if which == "YB35" else form, N)


def check_unitarity(which: str, N: int, form: BilinearForm | None) -> CheckResult:
    """Two-slot inversion identities: the exchange pair composes to the
    scalar 1 - 1/(x-y)^2, the contraction pair composes to 1."""
    x, y = variables(2)
    I = SparseOperator.identity(N, 2)
    if which == "RR":
        lhs = [R(1, 2, x, y), R(1, 2, y, x)]
        rhs = [(I, -1, x - y), (I, 1, x - y)]
        statement, form = "exchange-pair-inversion", None
    elif which == "tildebar":
        lhs, rhs = [R_tilde(1, 2, x, y), R_bar(1, 2, x, y, N)], [I]
        statement = "contraction-pair-inversion"
    else:
        raise ValueError(f"unknown member {which!r}")
    return run_identity_check(f"unitarity/{which}", statement, lhs, rhs, form, N)


def check_rtt(z_params: tuple[Fraction, ...], N: int) -> CheckResult:
    """Exchange relation for the evaluation image of the generating matrix:
    R12·T1·T2 = T2·T1·R12 with T_a = Π_k R_{a,2+k}(·, z_k)."""
    x, y = variables(2)
    zs = [Fraction(z) for z in z_params]
    R12 = R(1, 2, x, y)
    T1 = [R(1, 3 + k, x, z) for k, z in enumerate(zs)]
    T2 = [R(2, 3 + k, y, z) for k, z in enumerate(zs)]
    return run_identity_check(f"rtt/n{len(zs)}", "generating-matrix-exchange",
                              [R12] + T1 + T2, T2 + T1 + [R12], N=N)


def check_intertwiner_E(O: StandardTableau, N: int, z_shift: Fraction) -> CheckResult:
    """The symmetrizer times the order reversal intertwines the two
    evaluation strings with opposite parameter order."""
    n = O.n
    (x,) = variables(1)
    zs = [c + z_shift for c in O.contents]
    # E·(order reversal) on the last n slots, each standing for 1 ⊗ it
    E = [e_operator(O, N), perm_op(Permutation.reversal(n), N)]
    forward = [R(1, 2 + k, x, z) for k, z in enumerate(zs)]
    backward = [R(1, 2 + k, x, z) for k, z in enumerate(zs[::-1])]
    return run_identity_check(f"intertwiner-E/{O}", "symmetrizer-evaluation-intertwiner",
                              forward + E, E + backward, N=N)


def _image_strings(a: int, x: Affine, ds, first: int):
    """The plain factors R_{a,b}(x, d_k) and the twisted ones R~_{a,b}(x, d_k)
    in slot order, for the slots b = first + k of the ds."""
    plain = [R(a, first + k, x, d) for k, d in enumerate(ds)]
    tilde = [R_tilde(a, first + k, x, d) for k, d in enumerate(ds)]
    return plain, tilde


def check_intertwiner_F(cfg: FusionConfig) -> CheckResult:
    """The two-parameter operator intertwines the twisted and plain
    evaluation strings built at the shifted contents d_k."""
    O = cfg.tableau
    (x,) = variables(1)
    ds = [c + Fraction(cfg.M, 2) + cfg.base_point for c in O.contents]
    F = f_operator_general(cfg)
    plain, tilde = _image_strings(1, x, ds, 2)
    # slot k keeps its argument d_k; only the multiplication order flips
    return run_identity_check(f"intertwiner-F/{O}/{cfg.form_kind}/M{cfg.M}",
                              "twisted-intertwiner", tilde[::-1] + plain + [F],
                              [F] + plain[::-1] + tilde, cfg.form, cfg.N)


def check_reflection_image(z_params: tuple[Fraction, ...], N: int,
                           form: BilinearForm) -> CheckResult:
    """Reflection relation R12·S1·R~12·S2 = S2·R~12·S1·R12 for the image
    S_a = (Π_k R~_{a,2+k})^reversed · Π_k R_{a,2+k} of the coideal
    generating matrix."""
    n = len(z_params)
    x, y = variables(2)
    zs = [Fraction(z) for z in z_params]
    R12, Rt12 = R(1, 2, x, y), R_tilde(1, 2, x, y)
    plain1, tilde1 = _image_strings(1, x, zs, 3)
    plain2, tilde2 = _image_strings(2, y, zs, 3)
    S1, S2 = tilde1[::-1] + plain1, tilde2[::-1] + plain2
    return run_identity_check(f"reflection/n{n}/{form.kind}", "coideal-image-reflection",
                              [R12, *S1, Rt12, *S2], [*S2, Rt12, *S1, R12], form, N)


def check_image_coincidence(z: Fraction, N: int, form: BilinearForm) -> CheckResult:
    """For one quantum slot, the plain and twisted realizations of the
    coideal image coincide: R~12·R12 = R12·R~12."""
    (x,) = variables(1)
    R12, Rt12 = R(1, 2, x, z), R_tilde(1, 2, x, z)
    return run_identity_check(f"image-coincidence/z{z}", "single-slot-image-coincidence",
                              [Rt12, R12], [R12, Rt12], form, N)


def check_eval_consistency_E(L: StandardTableau, N: int) -> CheckResult:
    """The evaluation string collapses on the symmetrizer to the one-term
    sum of exchanges with the extra strand."""
    l = L.n
    (x,) = variables(1)
    E = e_operator(L, N)
    P_sum = UnitSum(tuple((1, ("P", 1, k + 2)) for k in range(l)))
    return run_identity_check(f"eval-consistency-E/{L}", "symmetrizer-evaluation-collapse",
                              [R(1, k + 2, x, c) for k, c in enumerate(L.contents)]
                              + [E], [(P_sum, -1, x), E], N=N)


def check_eval_consistency_F(cfg: FusionConfig) -> CheckResult:
    """The twisted evaluation string collapses on the two-parameter
    operator to a single sum of exchange and contraction terms."""
    if cfg.M != 0 or cfg.tableau.shape.is_skew:
        raise ValueError("collapse statement needs M = 0 and a non-skew tableau")
    L = cfg.tableau
    l = L.n
    N = cfg.N
    (x,) = variables(1)
    ds = [c + cfg.base_point for c in L.contents]
    F = f_operator_general(cfg)
    PQ_sum = UnitSum(tuple(term for k in range(l)
                           for term in ((1, ("P", 1, 2 + k)), (-1, ("Q", 1, 2 + k)))))
    plain, tilde = _image_strings(1, x, ds, 2)
    return run_identity_check(f"eval-consistency-F/{L}/{cfg.form_kind}",
                              "twisted-evaluation-collapse", tilde[::-1] + plain + [F],
                              [(PQ_sum, -1, x - cfg.base_point), F], cfg.form, N)


# ---------------------------------------------------------------------------
# scalar identity, on the one-dimensional space


def _g_factors(mu: Partition, x: Affine, I: SparseOperator) -> list:
    """The normalizing function g_μ of the inner shape: per row k the
    factors (x - μ_k + k)/(x - μ_k + k - 1) and (x + k - 1)/(x + k)."""
    return [f for k, part in enumerate(mu.parts, start=1)
            for f in ((I, 1, x - part + k - 1), (I, -1, x + k))]


def _h_factors(T: StandardTableau, x: Affine, I: SparseOperator) -> list:
    """h_T, the product of ((x - c)^2 - 1)/(x - c)^2 over the contents c
    of T: per content the factors 1 - 1/(x - c) and 1 + 1/(x - c)."""
    return [f for c in T.contents for f in ((I, -1, x - c), (I, 1, x - c))]


def check_lemma44(mu: Partition) -> CheckResult:
    """g_μ·h_T = 1 for the first and for the last standard tableau T of μ
    (once when μ has one); the entry fails when either statement does."""
    (x,) = variables(1)
    I = SparseOperator.identity(1, 1)
    g = _g_factors(mu, x, I)
    tabs = standard_tableaux(skew(mu))
    for T in (tabs[0], tabs[-1])[:len(tabs)]:
        check = run_identity_check(f"normalize/{mu}", "normalizing-product-inverse",
                                   [I] + g + _h_factors(T, x, I), [I])
        if not check.passed:
            break
    return check
