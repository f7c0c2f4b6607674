"""Fusion symmetrizers on tensor space and their verified properties.

Two constructions live here, values at ε = 0 of products of the R-matrix
factors of ``products``.  The plain symmetrizer operator E is R(t_k, t_l)
over all pairs k < l on the row line t_k = c_k + r_k·ε.  Its
two-parameter analogue F for a chosen form is R̄(t_k, t_l) over all pairs
times R(t_k, t_l) over all pairs, on the line t_k = c_k + base + g_k·ε
(``_fusion_line``, base -1/2 or +1/2).  Each closed formula is E times
R̄(t_k(0), t_l(0)) over some of the pairs.

The limit is taken by the integer engine in ``exactnum``: every entry
of the operator product is an integer series in ε over the product of
the factor denominators a + b·ε, truncated at the order of that
product's zero at ε = 0.  This is exact; the value and the pole test at
ε = 0 are read off per entry at the very end, and no individual factor
is ever evaluated early.  The same engine takes the group-algebra limit
in ``symalg``.

Every factor commutes with g^{⊗n} for a signed permutation g of the
basis that preserves the Gram, so the product does too, and its columns
come in orbits of such g; each factor's exact verdict comes with its
move from ``tensorop.unit_move``.  So both operators come from one build,
``_orbit_build``: the engine on one column per orbit, then ``_assemble``
rebuilding the other columns as ± images straight into the rows and
storing each distinct row once.  F uses
its form's orbits, E those of the identity Gram, and no build
enumerates S_n.
"""

from __future__ import annotations

import hashlib
import math
import os
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .exactnum import (DivisionByZero, PoleAtLimit, format_rational, limit_at_zero,
                       normal_form)
from .products import Affine, OrbitComparison, R, R_bar
from .shapes import (Partition, StandardTableau, column_tableau, conjugate,
                     dim_sym_irrep, row_tableau, validate_label)
from .symalg import inner_tableau_of, skew_tableau_of
from .tensorop import (BilinearForm, ColumnOrbits, SparseOperator, SubspaceBasis,
                       acts_as_scalar, column_orbits, commutes_with, image_basis,
                       kernel_within, left_multiplication, row_basis, slot_codes,
                       standard_form, subspace_equal, traceless_basis, unit_move)


class NotApplicable(ValueError):
    """A closed formula's applicability condition fails for the config."""


class SizeLimitExceeded(ValueError):
    """The requested computation exceeds the configured size cap."""


class ConfigError(ValueError):
    """Invalid fusion configuration."""


def max_dim() -> int:
    """The cap on N^n from FUSION_MAX_DIM (default 4096); a value that is
    not a positive integer raises ConfigError."""
    text = os.environ.get("FUSION_MAX_DIM", "4096")
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigError(f"FUSION_MAX_DIM must be a positive integer, got {text!r}")
    return value


# No operator build enumerates the n! permutations of S_n, but the
# idempotency suite squares e_T in the group algebra and ``symmetrizer``
# prints up to n! terms, so n stays bounded beside N^n.
MAX_BOXES = 9


def _check_dim(N: int, n: int):
    if n > MAX_BOXES:
        raise SizeLimitExceeded(f"n = {n} boxes exceeds {MAX_BOXES}, the bound on the "
                                "number of boxes")
    if N ** n > max_dim():
        raise SizeLimitExceeded(
            f"N^n = {N ** n} exceeds FUSION_MAX_DIM = {max_dim()}")


FORM_GROUP = {"symmetric": "O", "alternating": "Sp"}


@dataclass(frozen=True)
class FusionConfig:
    """A tableau together with the tensor-space and form parameters.

    The constraint mode and base point are derived: symmetric forms tie
    the variables of boxes in the same column and sit at -1/2,
    alternating forms tie boxes in the same row and sit at +1/2.
    """

    tableau: StandardTableau
    N: int
    M: int
    form_kind: str
    strict: bool = True  # False skips label validation (the exchange
    # relation is an identity in the centralizer algebra and is also
    # exercised on labels outside the polynomial-representation range)

    def __post_init__(self):
        if self.form_kind not in FORM_GROUP:
            raise ConfigError(f"unknown form kind {self.form_kind!r}")
        if self.N < 1 or self.M < 0:
            raise ConfigError("need N >= 1 and M >= 0")
        group = FORM_GROUP[self.form_kind]
        if self.form_kind == "alternating" and (self.N % 2 or self.M % 2):
            raise ConfigError("alternating forms need even N and M")
        if not self.strict:
            return
        lam = self.tableau.shape.lam
        mu = self.tableau.shape.mu
        if not validate_label(lam, group, self.N + self.M):
            raise ConfigError(f"{lam} is not a valid {group}_{self.N + self.M} label")
        if mu.parts:
            if self.M == 0 or not validate_label(mu, group, self.M):
                raise ConfigError(f"{mu} is not a valid {group}_{self.M} label")

    @property
    def constraint_mode(self) -> str:
        return "column" if self.form_kind == "symmetric" else "row"

    @property
    def base_point(self) -> Fraction:
        return Fraction(-1, 2) if self.form_kind == "symmetric" else Fraction(1, 2)

    @property
    def form(self) -> BilinearForm:
        return standard_form(self.form_kind, self.N)

    @property
    def n(self) -> int:
        return self.tableau.n

    def describe(self) -> dict:
        return {
            "lambda": str(self.tableau.shape.lam),
            "mu": str(self.tableau.shape.mu),
            "tableau": list(self.tableau.entries),
            "N": self.N,
            "M": self.M,
            "form": FORM_GROUP[self.form_kind],
        }


# ---------------------------------------------------------------------------
# the operators


def e_operator(O: StandardTableau, N: int) -> SparseOperator:
    """R(t_k, t_l) over the pairs k < l at ε = 0, on the row line t_k = c_k +
    r_k·ε: the image ``act(fusion_e_skew(O, "row"), N)`` of the group-algebra
    fusion element, built by ``_e_operator_cached``."""
    _check_dim(N, O.n)
    return _e_operator_cached(O, N)


@lru_cache(maxsize=None)
def _e_operator_cached(O: StandardTableau, N: int) -> SparseOperator:
    """E by ``_orbit_build`` on the identity Gram's orbits, the signed letter
    permutations, which every exchange's ``unit_move`` verdict covers.  No
    commutation pass runs over E itself: every column it rebuilds, parent
    or leaf, goes through ``_assemble``'s ``_write_image``, the seam that
    F's final check covers on every F build.
    """
    n = O.n
    form = standard_form("symmetric", N)
    t = [Affine(c, [r]) for c, r in zip(O.contents, O.rows())]
    factors = _engine_factors([R(k, l, t[k - 1], t[l - 1]) for k, l in _lex_pairs(n)],
                              N, n, form)
    return _orbit_build(N, n, column_orbits(form, n), factors, "fusion product")


def _lex_pairs(n: int):
    return [(k, l) for k in range(1, n) for l in range(k + 1, n + 1)]


def f_operator_general(cfg: FusionConfig) -> SparseOperator:
    """Diagonal-limit value of the full ordered contraction-exchange product.

    The variables run along the line of ``_fusion_line``; all 2·C(n,2)
    factors are carried symbolically and the limit is taken only on the
    complete product.
    """
    _check_dim(cfg.N, cfg.n)
    return _f_operator_cached(cfg)


def _fusion_line(cfg: FusionConfig) -> list[Affine]:
    """The forms t_k = c_k + base + g_k·ε in ε: c_k is the content of the box
    of k and g_k its column or row index per the constraint mode."""
    O = cfg.tableau
    g = O.columns() if cfg.constraint_mode == "column" else O.rows()
    return [Affine(c + cfg.base_point, [gk]) for c, gk in zip(O.contents, g)]


def _contractions(cfg: FusionConfig, t: list, pairs) -> list:
    """R̄_kl(t_k, t_l) for the pairs (k, l), on the form of rank N + M."""
    return [R_bar(k, l, t[k - 1], t[l - 1], cfg.N + cfg.M) for k, l in pairs]


def _f_factors(cfg: FusionConfig) -> list:
    """The engine factors of F's product, R̄(t_k, t_l) over all pairs k < l
    then R(t_k, t_l) on ``_fusion_line``."""
    t = _fusion_line(cfg)
    pairs = _lex_pairs(cfg.n)
    product = _contractions(cfg, t, pairs) + [R(k, l, t[k - 1], t[l - 1]) for k, l in pairs]
    return _engine_factors(product, cfg.N, cfg.n, cfg.form)


def _engine_factors(product: list, N: int, n: int, form: BilinearForm) -> list:
    """The engine factors (move, a, b) of a product of items (X, sign, den),
    in the order they apply to a start vector (the product's reversed):
    1 − X/(a + b·ε) becomes X's ``unit_move`` with a and b.  A non-integer a
    or b raises ConfigError; a factor that is not integer or not
    equivariant, which the orbit build cannot take, raises ArithmeticError."""
    factors = []
    for name, sign, den in reversed(product):
        a, b = den.const, *den.coeffs
        if a.denominator != 1 or b.denominator != 1:
            raise ConfigError(f"factor {name} has the non-integer den {a} + {b}·ε")
        move, d, commutes = unit_move(name, N, n, form)
        if sign != -1 or d != 1 or not commutes:
            raise ArithmeticError(f"factor {name} is not 1 − X/den, X integer, equivariant")
        factors.append((move, int(a), int(b)))
    return factors


def _orbit_build(N: int, n: int, orbits: ColumnOrbits, factors: list,
                 what: str) -> SparseOperator:
    """The value at ε = 0 of the engine ``factors``, each equivariant under
    ``orbits``, from the representatives' columns, normalized once, while
    ``_assemble`` rebuilds the rest.  A rebuilt column's series is ± the
    image of its parent's, so a pole shows in the representatives too."""
    dim = N ** n
    values, den = limit_at_zero({c * dim + c: 1 for c in orbits.representatives},
                                factors, what)
    (values,), den = normal_form([values], den)
    columns: dict[int, dict[int, int]] = {c: {} for c in orbits.representatives}
    for key, v in values.items():
        r, col = divmod(key, dim)
        columns[col][r] = v
    del values
    return _assemble(N, n, orbits, columns, den)


def _write_image(rows: dict[int, dict[int, int]], code: int, column: dict[int, int],
                 table, s: int, image: dict[int, int] | None) -> None:
    """Write s·g^{⊗n}·column, by the code table of g, into ``rows`` as
    column ``code``, and into ``image`` {row: value} as well unless it is
    None."""
    targets, signs = table
    for r, v in column.items():
        tr, x = targets[r], s * signs[r] * v
        row = rows.get(tr)
        if row is None:
            rows[tr] = {code: x}
        else:
            row[code] = x
        if image is not None:
            image[tr] = x


def _assemble(N: int, n: int, orbits: ColumnOrbits, columns: dict[int, dict[int, int]],
              den: int) -> SparseOperator:
    """The operator over ``den`` whose representative columns are
    ``columns`` (rep -> {row: value}, in normal form together, consumed)
    and that commutes with every generator of ``orbits``: column π_g(c) is
    s_g(c)·g^{⊗n}·(column c).

    The steps run orbit by orbit, so each rebuilt column comes from its
    breadth-first parent through ``_write_image``, which writes it into the
    rows at once; a column that is the parent of a later step is also kept
    as a dict until the next orbit starts, and a step whose parent lies
    outside the current orbit raises ValueError.  The rebuilt entries are
    ± the representatives', so the rows are in normal form as assembled and
    are not normalized again.

    Once every column is written, each row is replaced by the first row
    object with the same keys and values, so that equal rows share one dict
    (``SparseOperator``) and each distinct row is stored once.  Equal rows
    list their keys in the same order, since every row receives its
    entries in one global column order, the representatives first and then
    the orbit steps; so the keys and values, as two tuples, identify a
    row's contents.
    """
    rows: dict[int, dict[int, int]] = {}
    for rep, column in columns.items():
        for r, v in column.items():
            row = rows.get(r)
            if row is None:
                rows[r] = {rep: v}
            else:
                row[rep] = v
    index = {rep: i for i, rep in enumerate(orbits.representatives)}
    parents = {parent for _, parent, _ in orbits.steps}
    current, orbit = -1, {}
    for code, parent, t in orbits.steps:
        column = orbit.get(parent)
        if column is None:  # the first step of the next orbit leaves its representative
            if index.get(parent, -1) <= current:
                raise ValueError(f"column {code} has its parent {parent} outside "
                                 "the current orbit")
            current = index[parent]
            column = columns.pop(parent)
            orbit = {parent: column}
        table = orbits.tables[t]
        image = None
        if code in parents:
            image = orbit[code] = {}
        _write_image(rows, code, column, table, table[1][parent], image)
    shared: dict[tuple, dict[int, int]] = {}
    for r, row in rows.items():
        rows[r] = shared.setdefault((tuple(row), tuple(row.values())), row)
    return SparseOperator._in_normal_form(N, n, rows, den)


@lru_cache(maxsize=None)
def _f_operator_cached(cfg: FusionConfig) -> SparseOperator:
    """F by ``_orbit_build`` on the orbits of the form's monomial isometries,
    then checked exactly to commute with every generator, which covers each
    orbit's stabilizer; a mismatch raises ArithmeticError.  The check
    covers every row, each triple of row object, image row object and sign
    once, as F's rows share objects (``_assemble``).  With no generator
    this is the build on all columns."""
    orbits = column_orbits(cfg.form, cfg.n)
    F = _orbit_build(cfg.N, cfg.n, orbits, _f_factors(cfg), "operator product")
    for table in orbits.tables:
        if not commutes_with(F, table):
            raise ArithmeticError("the orbit-built F does not commute with a "
                                  "monomial isometry of the form")
    return F


# formula -> (the form kind it needs, None for either; the tableau it needs;
# the index, "columns" or "rows", in which the boxes of a kept pair k < l
# differ, None to keep all pairs; whether the first column must be at most
# half the rank)
_CLOSED = {
    "col_O": ("symmetric", "column", "columns", False),
    "row_Sp": ("alternating", "row", "rows", False),
    "any_Sp": ("alternating", "non-skew", None, False),
    "any_SO": ("symmetric", "non-skew", None, True),
    "regular_case": (None, None, None, True),
}
CLOSED_FORMULAS = tuple(_CLOSED)


def _closed_factors(cfg: FusionConfig, formula: str) -> list:
    """The factors R̄(t_k(0), t_l(0)) = (("Q", k, l), -1, d) of a closed
    formula, d rational, in product order: the formula is their product
    times E.  NotApplicable is raised when the config fails the formula's
    row of ``_CLOSED``.  ``certify`` compares the product with F."""
    if formula not in _CLOSED:
        raise ValueError(f"unknown formula {formula!r}")
    kind, tableau, apart, half_rank = _CLOSED[formula]
    O = cfg.tableau
    if kind not in (None, cfg.form_kind):
        raise NotApplicable(f"{formula} needs a {kind} form")
    named = {"column": column_tableau, "row": row_tableau}.get(tableau)
    if named is not None and O != named(O.shape):
        raise NotApplicable(f"{formula} needs the {tableau} tableau")
    if tableau == "non-skew" and O.shape.is_skew:
        raise NotApplicable(f"{formula} needs a non-skew tableau")
    if half_rank and 2 * conjugate(O.shape.lam)[0] > cfg.N + cfg.M:
        raise NotApplicable(f"{formula} needs the first column at most half the rank")
    pairs = _lex_pairs(O.n)
    if apart is not None:
        index = getattr(O, apart)()
        pairs = [(k, l) for k, l in pairs if index[k - 1] != index[l - 1]]
    factors = _contractions(cfg, [t.const for t in _fusion_line(cfg)], pairs)
    for (k, l), (_, _, d) in zip(pairs, factors):
        if d == 0:
            raise DivisionByZero(f"closed formula {formula}: factor ({k},{l}) has denominator 0")
    return factors


# ---------------------------------------------------------------------------
# verifiers


def scaled_idempotency_constant(lam: Partition) -> Fraction:
    return Fraction(math.factorial(lam.size), dim_sym_irrep(lam))


def verify_scaled_idempotent(A: SparseOperator, scalar: Fraction) -> bool:
    """A·A = scalar·A: every column of A lies in its image, so this holds
    exactly when A acts as the scalar on a basis of image(A)."""
    return acts_as_scalar(A, image_basis(A), scalar)


# image_basis(F) by config, for the scaled-square suite and verify_prop33,
# which both take it: config -> (a weak reference to F, the basis).  At most
# _F_IMAGES_MAX entries, the oldest dropped first; the Sp_4 5-box sweep has
# 22 configs.
_F_IMAGES: dict = {}
_F_IMAGES_MAX = 32


def f_image_basis(cfg: FusionConfig, F: SparseOperator) -> SubspaceBasis:
    """``image_basis(F)`` for the operator F of ``cfg``, taken once per
    config.  An entry serves only the F object it was taken from, so an F
    built anew or substituted gets its own basis, and the cache holds no
    operator: only the frozen basis and a weak reference."""
    entry = _F_IMAGES.get(cfg)
    if entry is not None and entry[0]() is F:
        return entry[1]
    basis = image_basis(F)
    _F_IMAGES.pop(cfg, None)
    if len(_F_IMAGES) >= _F_IMAGES_MAX:
        del _F_IMAGES[next(iter(_F_IMAGES))]
    _F_IMAGES[cfg] = weakref.ref(F), basis
    return basis


def verify_divisibility(F: SparseOperator, E: SparseOperator, scalar: Fraction) -> bool:
    """F·E = scalar·F and E·F = scalar·F, on image(F)'s basis."""
    return _divides(F, E, image_basis(F), scalar)


def _divides(F: SparseOperator, E: SparseOperator, image_F: SubspaceBasis,
             scalar: Fraction) -> bool:
    """E·F = σF exactly when E acts as σ on image(F), and F·E = σF exactly
    when r·E = σ·r for every r in the row space of F."""
    return (acts_as_scalar(E, image_F, scalar)
            and acts_as_scalar(E, row_basis(F), scalar, on_rows=True))


def _traceless_part(image_E: SubspaceBasis, cfg: FusionConfig) -> SubspaceBasis:
    """{x in image(E) : Q_kl·x = 0 for all k < l}: image(E)'s basis goes
    through the cached move of each contraction (``kernel_within``)."""
    return kernel_within(image_E, [unit_move(("Q", k, l), cfg.N, cfg.n, cfg.form)[0]
                                   for k, l in _lex_pairs(cfg.n)])


def _image_is_traceless_part(E: SparseOperator, image_F: SubspaceBasis,
                             image_E: SubspaceBasis, scalar: Fraction,
                             cfg: FusionConfig) -> bool:
    """E·E = σE, on image(E)'s basis, and image(F) = {x in image(E) :
    Q_kl·x = 0 for all k < l}."""
    return (acts_as_scalar(E, image_E, scalar)
            and subspace_equal(image_F, _traceless_part(image_E, cfg)))


def verify_prop33(cfg: FusionConfig) -> bool:
    """F agrees with E on traceless vectors, and the image of F equals the
    image of E intersected with the traceless subspace T, the joint kernel
    of the contractions Q_kl.  With σ the scaled-idempotency constant,
    four checks on image bases decide it:

    1. F·F = σF (F acts as σ on image(F));
    2. F·E = σF (E acts as σ on the row space of F), and E·F = σF, which
       3 and 4 imply;
    3. E·E = σE (E acts as σ on image(E));
    4. image(F) = {x in image(E) : Q_kl·x = 0 for all k < l}.

    They imply the first clause, (F − E)·u = 0 for u in T.  E is a sum of
    slot permutations, and conjugating a contraction by one gives another,
    so E maps T into T and w = E·u/σ lies in T ∩ image(E) = image(F).
    Then F·u = F·E·u/σ = F·w by 2, and E·u = E·E·u/σ = E·w by 3; F·w = σw
    by 1, and E·w = σw by 3, as w is in image(F) ⊆ image(E).  So
    (F − E)·u = σw − σw = 0.  The image equality also says that F kills
    every contraction, Q_kl·F = 0.  Only meaningful at M = 0 with a
    non-skew tableau."""
    if cfg.M != 0:
        raise ConfigError("the traceless-image equality is an M = 0 statement")
    if cfg.tableau.shape.is_skew:
        raise ConfigError("non-skew tableau required")
    F = f_operator_general(cfg)
    E = e_operator(cfg.tableau, cfg.N)
    scalar = scaled_idempotency_constant(cfg.tableau.shape.lam)
    image_F = f_image_basis(cfg, F)
    return (acts_as_scalar(F, image_F, scalar) and _divides(F, E, image_F, scalar)
            and _image_is_traceless_part(E, image_F, image_basis(E), scalar, cfg))


def verify_corollary32(cfg: FusionConfig, k: int) -> bool:
    """Exchange relation moving the operator of ``cfg.tableau`` to the
    tableau with k and k + 1 swapped:
    P·R(c_(k+1), c_k)·F = F_k·R(c_k, c_(k+1))·P with P and R the exchange
    and exchange factor of k and k + 1, compared on the orbit columns of the form's
    monomial isometries (``OrbitComparison``)."""
    L = cfg.tableau
    c = L.contents
    rows = L.rows()
    cols = L.columns()
    if rows[k - 1] == rows[k] or cols[k - 1] == cols[k]:
        raise NonStandardNeighbor(f"exchanging {k} and {k + 1} in {L} is not standard")
    Lk = L.swap_adjacent(k)
    F = f_operator_general(cfg)
    Fk = f_operator_general(FusionConfig(Lk, cfg.N, cfg.M, cfg.form_kind, cfg.strict))
    P = ("P", k, k + 1)
    return OrbitComparison(cfg.N, L.n, cfg.form).difference(
        [P, R(k, k + 1, c[k], c[k - 1]), F], [Fk, R(k, k + 1, c[k - 1], c[k]), P]) is None


class NonStandardNeighbor(ValueError):
    """Exchanging k and k+1 does not give a standard tableau."""


# ---------------------------------------------------------------------------
# block factorization through the split of the ambient space


def _block_codes(L: int, M: int, m: int, n: int) -> tuple[list[int], list[int]]:
    """(first, last): the code in the split space of the pair (mcode, ncode)
    of the component with the first m letters in the first-M part and the
    last n letters in the last-N part is first[mcode] + last[ncode]."""
    first = slot_codes([[d * L ** (m + n - k) for d in range(M)] for k in range(1, m + 1)])
    last = slot_codes([[(M + d) * L ** (n - k) for d in range(L - M)] for k in range(1, n + 1)])
    return first, last


def verify_theta_factorization(L_tab: StandardTableau, m: int, N: int, M: int,
                               form_kind: str) -> bool:
    """Compression of the big operator to the split subspace factors as
    (restricted plain symmetrizer) ⊗ (small two-parameter operator).

    On traceless u_j ⊗ e_nc this reads (H ⊗ 1)·Y = X, with Y the split
    block of big·(u_j ⊗ e_nc), X = (E_ups·u_j) ⊗ (small·e_nc) and H the
    projector of the first factor onto its traceless part T along C, the
    span of the contractions' images.  No H is built.  Each Q_kl is
    self-adjoint for ω^{⊗m}, and T = ∩ ker Q_kl, so C = T^⊥; so H ⊗ 1 fixes
    T ⊗ V and kills C ⊗ V = T^⊥ ⊗ V, and the equation holds exactly when
    X lies in T ⊗ V, which is when every Q_kl kills each E_ups·u_j, and
    Y − X pairs to 0 with every t of T's basis under ω^{⊗m} in the first
    factor.  All the u_j ⊗ e_nc are moved at once, as the columns
    j·N^n + nc of one start vector keyed row·dim + col, by the
    ``left_multiplication`` move of big; the u_j are moved by that of
    E_ups on (C^M)^⊗m.  The pairings of Y and X, over big.den and over
    E_ups.den·small.den, are compared cross-multiplied by the other's den.
    """
    l = L_tab.n
    Lrank = N + M
    _check_dim(Lrank, l)
    if L_tab.shape.is_skew:
        raise ConfigError("non-skew tableau required")
    group = FORM_GROUP[form_kind]
    if form_kind == "alternating" and (M % 2 or N % 2):
        raise NotApplicable("alternating split needs even N and M")
    upsilon = inner_tableau_of(L_tab, m)
    mu = upsilon.shape.lam
    if m and (M == 0 or not validate_label(mu, group, M)):
        raise NotApplicable(f"{mu} is not a valid {group}_{M} label")
    omega = skew_tableau_of(L_tab, m)
    n = l - m

    big = f_operator_general(FusionConfig(L_tab, Lrank, 0, form_kind))
    small = f_operator_general(FusionConfig(omega, N, M, form_kind))
    gram: dict[int, dict[int, Fraction]] = {0: {0: Fraction(1)}}  # ω^{⊗k} on codes
    if m:
        form_M = standard_form(form_kind, M)
        E_ups = e_operator(upsilon, M)
        traceless = traceless_basis(M, m, form_M).vectors
        kills = [unit_move(("Q", *pair), M, m, form_M)[0] for pair in _lex_pairs(m)]
        for _ in range(m):  # entry (aM + i, bM + j) of one slot more is that of (a, b)·G_ij
            gram = {a * M + i: {b * M + j: v * g for b, v in row.items()
                                for j, g in enumerate(form_M.gram[i]) if g}
                    for a, row in gram.items() for i in range(M)}
    else:
        E_ups = SparseOperator.identity(M, 0)
        traceless = (((0, 1),),)  # the unit vector of the one-dimensional first factor
        kills = []

    dm, dn, dim = M ** m, N ** n, Lrank ** l
    columns = {mc * dm + j: v for j, u in enumerate(traceless) for mc, v in u}
    moved = left_multiplication(E_ups)(columns)  # E_ups·u_j at the keys mc·dm + j
    if any(any(kill(moved).values()) for kill in kills):
        return False
    # the covectors ω^{⊗m}(t_i, ·), and at[mc] the (i, weight) of those nonzero at mc
    covectors = [{} for _ in traceless]
    for w, t in zip(covectors, traceless):
        for a, v in t:
            for b, g in gram[a].items():
                w[b] = w.get(b, 0) + v * g
    at: dict[int, list[tuple[int, int]]] = {}
    for i, w in enumerate(normal_form(covectors)[0]):
        for mc, v in w.items():
            at.setdefault(mc, []).append((i, v))

    first, last = _block_codes(Lrank, M, m, n)
    start = {(first[mc] + code) * dim + j * dn + nc: v
             for j, u in enumerate(traceless) for mc, v in u
             for nc, code in enumerate(last)}
    block = {f + code: (mc, nr) for mc, f in enumerate(first) for nr, code in enumerate(last)}
    lhs: dict[tuple[int, int, int], int] = {}  # (i, nr, column): t_i's pairing with Y
    for key, y in left_multiplication(big)(start).items():
        r, col = divmod(key, dim)
        if y and r in block:
            mc, nr = block[r]
            for i, v in at.get(mc, ()):
                lhs[i, nr, col] = lhs.get((i, nr, col), 0) + v * y
    paired: dict[tuple[int, int], int] = {}  # (i, j): t_i's pairing with E_ups·u_j
    for key, x in moved.items():
        mc, j = divmod(key, dm)
        for i, v in at.get(mc, ()):
            paired[i, j] = paired.get((i, j), 0) + v * x
    rhs = {(i, nr, j * dn + nc): p * x for (i, j), p in paired.items() if p
           for nr, row in small.rows.items() for nc, x in row.items()}
    dl, dr = big.den, E_ups.den * small.den
    return all(lhs.get(k, 0) * dr == rhs.get(k, 0) * dl for k in lhs.keys() | rhs.keys())


# ---------------------------------------------------------------------------
# certificates


@dataclass
class CheckResult:
    name: str
    statement: str
    passed: bool
    witness: dict | None = None
    runtime_ms: int | None = None

    def to_json(self) -> dict:
        out = {"name": self.name, "paper_ref": self.statement, "pass": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.runtime_ms is not None:
            out["runtime_ms"] = self.runtime_ms
        return out


@dataclass
class FusionCertificate:
    config: dict
    checks: list[CheckResult] = field(default_factory=list)
    operator_hash: str | None = None
    rank: int | None = None  # rank(F), kept out of the JSON form

    def add(self, result: CheckResult):
        self.checks.append(result)

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "operator_hash": self.operator_hash,
            "checks": [c.to_json() for c in sorted(self.checks, key=lambda c: c.name)],
        }


def operator_hash(A: SparseOperator) -> str:
    """First 16 hex digits of the sha256 of the compact JSON of
    ``A.to_triplets()``, streamed one sorted row at a time instead of built.
    Each distinct value is formatted once per call: an operator has few.
    Each row object (``SparseOperator.row_objects``) is formatted once, as
    the text of its entries in column order with a NUL byte where the row
    index goes, and each row index writes its own index there.  An
    object's text is kept only until its last row index."""
    digest = hashlib.sha256(b"[")
    sep = b""
    text: dict[int, str] = {}
    objects = A.row_objects()
    owner = {r: i for i, (_, indices) in enumerate(objects) for r in indices}
    kept: dict[int, bytes] = {}  # object i -> its text
    for r in sorted(owner):
        i = owner[r]
        template = kept.get(i)
        if template is None:
            cols = objects[i][0]
            for v in cols.values():
                if v not in text:
                    text[v] = format_rational(Fraction(v, A.den))
            template = kept[i] = ",".join(f'{{"row":\0,"col":{c},"value":"{text[cols[c]]}"}}'
                                          for c in sorted(cols)).encode()
        if r == objects[i][1][-1]:
            del kept[i]
        digest.update(sep + template.replace(b"\0", b"%d" % r))
        sep = b","
    digest.update(b"]")
    return digest.hexdigest()[:16]


def certify(cfg: FusionConfig) -> FusionCertificate:
    """Build the operator for one configuration and run the checks that
    make sense for it; every check names the statement it instantiates.
    F and E each get one ``image_basis``: rank(F) and rank(E) are their
    dims, and the operator equations run on them as in the verifiers.
    Divisibility is ``verify_divisibility``'s pair of checks (E on image(F)
    and on F's row space); at M = 0 the scaled square is F on image(F), and
    the traceless image is ``verify_prop33``'s verdict, from the same
    square and divisibility verdicts, E on image(E) and the traceless part
    of image(E).  F is compared with each closed formula's chain of
    contraction factors times E on one ``OrbitComparison``, which is the
    only route that evaluates a closed formula.  The chain names its Q_kl,
    so they take the moves that F's build cached.  Formulas with the same
    chain, such as ``regular_case`` and ``any_Sp``, share one comparison
    and keep one entry each.

    At M > 0, F·F is not a multiple of F in general (for (2) on O_2 with
    M = 1 the ratios of their entries differ), so the scaled square, like
    the traceless image, is checked at M = 0 only."""
    cert = FusionCertificate(config=cfg.describe())
    try:
        F = f_operator_general(cfg)
    except PoleAtLimit as exc:
        cert.add(CheckResult("regular-limit", "fusion-product-regularity",
                             False, {"error": str(exc)}))
        return cert
    cert.operator_hash = operator_hash(F)
    cert.add(CheckResult("regular-limit", "fusion-product-regularity", True))
    E = e_operator(cfg.tableau, cfg.N)
    image_F, image_E = image_basis(F), image_basis(E)
    if not cfg.tableau.shape.is_skew:
        scalar = scaled_idempotency_constant(cfg.tableau.shape.lam)
        divides = _divides(F, E, image_F, scalar)
        cert.add(CheckResult("two-sided-divisibility", "symmetrizer-divides", divides))
        if cfg.M == 0:
            square = acts_as_scalar(F, image_F, scalar)
            cert.add(CheckResult("scaled-idempotency", "scaled-square", square))
            cert.add(CheckResult("traceless-image", "traceless-image-equality",
                                 square and divides and _image_is_traceless_part(
                                     E, image_F, image_E, scalar, cfg)))
    cert.rank = image_F.dim
    cert.add(CheckResult("rank-monotone", "image-dimension-bound",
                         cert.rank <= image_E.dim))
    compare = OrbitComparison(cfg.N, cfg.n, cfg.form)
    agrees: dict[tuple, bool] = {}  # chain -> verdict
    for formula in CLOSED_FORMULAS:
        try:
            chain = tuple(_closed_factors(cfg, formula))
        except NotApplicable:
            continue
        if chain not in agrees:
            agrees[chain] = compare.difference([F], [*chain, E]) is None
        cert.add(CheckResult(f"closed-form/{formula}", "closed-form-agreement", agrees[chain]))
    return cert
