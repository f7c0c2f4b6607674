"""Ordered products of operators and R-matrix factors on the tensor power
of C^N, compared exactly on orbit columns.

A product is a list of items applied right to left: constant operators,
rational scalars and factors (X, sign, den) for 1 + sign·X/den, with den
an ``Affine`` form in the spectral parameters.  The exchange factor ``R``
and the contraction factors ``R_tilde`` and ``R_bar`` are written once
here, on named unit operators ("P", i, j) and ("Q", k, l), whose moves,
dens and commutation verdicts come from ``tensorop.unit_move``; a sum of
names is a ``UnitSum``.  ``OrbitComparison`` decides that two products
are equal as rational functions, on the unit columns of the orbit
representatives under the monomial isometries of a form, with every
step an integer move of ``tensorop``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .tensorop import (AmbientMismatch, BilinearForm, SparseOperator, column_orbits,
                       commutes_with, left_multiplication, standard_form, unit_move)


class Affine:
    """The affine form const + Σ_i coeffs[i]·x_(i+1) in the spectral
    parameters, with rational coefficients.  Forms add and subtract with
    each other and with ints and Fractions."""

    __slots__ = ("const", "coeffs")

    def __init__(self, const=0, coeffs=()):
        self.const = Fraction(const)
        self.coeffs = tuple(map(Fraction, coeffs))

    def _combine(self, other, sign: int) -> "Affine":
        if isinstance(other, (int, Fraction)):
            return Affine(self.const + sign * other, self.coeffs)
        if isinstance(other, Affine):
            return Affine(self.const + sign * other.const,
                          [a + sign * b for a, b in
                           zip_longest(self.coeffs, other.coeffs, fillvalue=0)])
        return NotImplemented

    def __add__(self, other) -> "Affine":
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "Affine":
        return self._combine(other, -1)

    def __rsub__(self, other) -> "Affine":
        return (-self)._combine(other, 1)

    def __neg__(self) -> "Affine":
        return Affine(-self.const, [-a for a in self.coeffs])


def variables(k: int) -> tuple[Affine, ...]:
    """The coordinate forms x_1..x_k."""
    return tuple(Affine(0, [0] * i + [1]) for i in range(k))


# The R-matrix factors on slots i and j, as the items (name, sign, den) for
# 1 + sign·X/den that ``OrbitComparison`` reads; x, y and den are ``Affine``
# forms or rationals.


def R(i: int, j: int, x, y) -> tuple:
    """The exchange factor R_ij(x, y) = 1 − P_ij/(x − y)."""
    return ("P", i, j), -1, x - y


def R_tilde(i: int, j: int, x, y) -> tuple:
    """The contraction factor R~_ij(x, y) = 1 + Q_ij/(x + y)."""
    return ("Q", i, j), 1, x + y


def R_bar(i: int, j: int, x, y, shift) -> tuple:
    """The contraction factor R̄_ij(x, y) = 1 − Q_ij/(x + y + shift), with
    shift N + M in F's product."""
    return ("Q", i, j), -1, x + y + shift


@dataclass(frozen=True)
class UnitSum:
    """The operator Σ c·X over named unit operators X, one operator item of
    ``OrbitComparison``: ``terms`` holds the pairs (c, name) with integer
    c, such as ((1, ("P", 1, 2)), (-1, ("Q", 1, 2))) for P_12 − Q_12.  Its
    move accumulates the terms' cached moves (``unit_move``) into one
    output, its den is the lcm of the terms' dens, and its verdict the AND
    of theirs, so no operator on n slots is built for it."""

    terms: tuple[tuple[int, tuple], ...]

    @property
    def n(self) -> int:
        """The highest slot that a term names."""
        return max(max(name[1:]) for _, name in self.terms)


def _sum_move(terms: list):
    """The move of Σ c·X from the terms (move of X, c)."""
    def move(vec: dict[int, int], scale: int = 1, into: dict | None = None) -> dict[int, int]:
        out: dict[int, int] = {} if into is None else into
        for term, c in terms:
            term(vec, scale * c, out)
        return out
    return move


def _is_name(item) -> bool:
    """Whether a product item names a unit operator, as ("P", 1, 2) does."""
    return isinstance(item, tuple) and isinstance(item[0], str)


def _is_operator(item) -> bool:
    """Whether a product item is an operator: a SparseOperator, a
    ``UnitSum`` or a unit operator's name."""
    return isinstance(item, (SparseOperator, UnitSum)) or _is_name(item)


def _cleared(den) -> tuple:
    """(q, D, u, P) for a factor's den, an ``Affine`` form or a rational: q > 0
    the least integer that clears its denominators, D = q·den as the integers
    (const, c_1, ..., c_k) with no trailing zero coefficient, and D = u·P with
    P primitive, its first nonzero variable coefficient positive, so that
    x − y, y − x and 2x − 2y share one P (None for a constant D, u = D).  A
    den that is identically zero, the constant 0 included, raises ValueError."""
    values = (den.const, *den.coeffs) if isinstance(den, Affine) else (Fraction(den),)
    q = math.lcm(*(v.denominator for v in values))
    D = [v.numerator * (q // v.denominator) for v in values]
    while len(D) > 1 and not D[-1]:
        D.pop()
    if not any(D):
        raise ValueError("a factor's den is identically zero")
    if len(D) == 1:
        return q, tuple(D), D[0], None
    u = math.gcd(*D) * (1 if next(c for c in D[1:] if c) > 0 else -1)
    return q, tuple(D), u, tuple(c // u for c in D)


def _times(poly: dict, form, move=None, b: int = 0) -> dict:
    """form·p + b·move(p) for the polynomial p = ``poly`` of integer
    vectors, {monomial: vector} with a monomial its exponents per variable,
    and the integer affine form (c_0, c_1, ..., c_k): each coefficient p_m
    adds c_0·p_m at m and c_i·p_m at m·x_i, and is moved once, with b·X·p_m
    written straight into the output at m.  Each output monomial is one
    dict."""
    out: dict[tuple, dict] = {}

    def add(m, vec, c):
        acc = out.get(m)
        if acc is None:
            acc = out[m] = {key: c * x for key, x in vec.items()}
        else:
            get = acc.get
            for key, x in vec.items():
                acc[key] = get(key, 0) + c * x
        return acc

    for m, vec in poly.items():
        acc = add(m, vec, form[0]) if form[0] else out.setdefault(m, {})
        if b:
            move(vec, b, acc)
        for i, c in enumerate(form[1:]):
            if c:
                add(m[:i] + (m[i] + 1,) + m[i + 1:], vec, c)
    return {m: vec for m, acc in out.items() if (vec := {key: x for key, x in acc.items() if x})}


# Orbit columns are compared in blocks of this many representatives.  On the
# Sp_4 4-box verify sweep (2 vCPUs, Python 3.11.7), one block of all columns
# holds every coefficient vector of reflection/n2 (two variables, degree 10)
# at once and peaks at 26.6 MB RSS; blocks of 8 peak at 25.0 MB, and blocks
# of one column made the sweep's intertwiner suite up to 2x slower.
_BLOCK = 8


class OrbitComparison:
    """Exact comparison of ordered operator products on the tensor power
    of C^N with n slots, on one unit column per orbit, as polynomial
    identities in the spectral parameters.

    A side is a list of items, applied right to left: a constant operator,
    a rational scalar, or a factor (X, sign, den) for 1 + sign·X/den with X
    an operator and den an ``Affine`` form or a nonzero rational.  An
    operator is a SparseOperator (one on fewer slots stands for 1 ⊗ it,
    acting on the last slots), the name of a unit operator on all n
    slots, ("P", i, j) or ("Q", k, l) as ``unit_operator`` reads it, with
    Q_kl of ``form``, or a ``UnitSum`` of such names.  A name's move is
    built once per process (``unit_move``), a sum's accumulates its terms'
    moves, and a SparseOperator's (``left_multiplication``) is built once
    per comparison.

    A side's columns are one polynomial of integer vectors, {monomial:
    vector}, over a den that is an int times a multiset of primitive
    integer forms (``_cleared``).  A constant C maps each coefficient
    p ↦ C.rows·p and multiplies the int by C.den.  A factor, with
    D = q·den integral and d_X = X.den, maps
    p ↦ d_X·D·p + sign·q·X.rows·p (``_times``) and multiplies the den by
    d_X·D.  Forms that both sides' dens share cancel; each side's
    numerator is then multiplied by the other side's remaining forms, and
    the coefficients are compared cross-multiplied by the two ints.  Equal
    cleared numerators in the polynomial ring mean equal rational
    functions, so a verdict is a proof, with no point evaluated.  A check
    with constant dens only is the same step at degree 0.

    The generators are the monomial isometries of ``form``, or of the
    identity Gram when ``form`` is None, and each operator is checked
    exactly to commute with their tensor powers: a SparseOperator once per
    comparison, a name once per process, its verdict kept with its move,
    and a sum through its terms' verdicts.
    Then both sides commute with them at every value of the parameters,
    column π_g(c) of each side is s_g(c)·g^{⊗n}·(column c), and the sides
    agree exactly when they agree on the orbit representatives.  Once an
    operator fails that check, every column is compared instead.  The
    columns go through in blocks of ``_BLOCK``.
    """

    def __init__(self, N: int, n: int, form: BilinearForm | None = None):
        self.N, self.n, self.dim = N, n, N ** n
        self.form = form if form is not None else standard_form("symmetric", N)
        if self.form.N != N:
            raise AmbientMismatch(f"a form on C^{self.form.N} in a product on C^{N}")
        self.columns = column_orbits(self.form, n).representatives
        # name, sum or id(op) -> (move, den, op), the op kept so that its id
        # stays its own
        self._moves: dict = {}

    def _move(self, op) -> tuple:
        """(move, den) of an operator, its commutation checked at first
        sight."""
        key = id(op) if isinstance(op, SparseOperator) else op
        entry = self._moves.get(key)
        if entry is None:
            if _is_name(op):
                move, den, commutes = unit_move(op, self.N, self.n, self.form)
            elif isinstance(op, UnitSum):
                parts = [(unit_move(name, self.N, self.n, self.form), c) for c, name in op.terms]
                den = math.lcm(*(d for (_, d, _), _ in parts))
                move = _sum_move([(term, c * (den // d)) for (term, d, _), c in parts])
                commutes = all(verdict for (_, _, verdict), _ in parts)
            else:
                if op.N != self.N or op.n > self.n:
                    raise AmbientMismatch(f"operator on {(op.N, op.n)} in a product on "
                                          f"{(self.N, self.n)}")
                den = op.den
                commutes = all(commutes_with(op, t)
                               for t in column_orbits(self.form, op.n).tables)
                move = left_multiplication(op, self.dim)
            if not commutes:
                self.columns = range(self.dim)
            entry = self._moves[key] = (move, den, op)
        return entry[:2]

    def _apply(self, side: list, columns, k: int) -> tuple[dict, int, Counter]:
        """(numerator, int, forms): the side's product on the unit columns
        ``columns`` as a polynomial in k variables over int·Π forms."""
        dim = self.dim
        poly, const, forms = {(0,) * k: {c * dim + c: 1 for c in columns}}, 1, Counter()
        for item in reversed(side):
            if _is_operator(item):
                move, d = self._move(item)
                poly = {m: move(vec) for m, vec in poly.items()}
                const *= d
            elif isinstance(item, tuple):
                X, sign, den = item
                move, d = self._move(X)
                q, D, u, P = _cleared(den)
                poly = _times(poly, [d * c for c in D], move, sign * q)
                const *= d * u
                if P is not None:
                    forms[P] += 1
            else:
                c = Fraction(item)
                poly = {m: {key: c.numerator * x for key, x in vec.items()}
                        for m, vec in poly.items()}
                const *= c.denominator
        return poly, const, forms

    def difference(self, lhs: list, rhs: list):
        """None when the products of ``lhs`` and ``rhs`` are equal, else
        (row, col, monomial, lhs coefficient, rhs coefficient) at their
        least differing (entry, monomial) among the compared columns, each
        coefficient over its own side's int.  With no variable the monomial
        is () and the coefficients are the entries."""
        k = 0
        for item in lhs + rhs:  # every commutation check runs before any column is picked
            if _is_operator(item):
                self._move(item)
            elif isinstance(item, tuple):
                self._move(item[0])
                k = max(k, len(_cleared(item[2])[1]) - 1)
        dim, columns = self.dim, self.columns
        least = None
        for i in range(0, len(columns), _BLOCK):
            block = columns[i:i + _BLOCK]
            (a, ca, fa), (b, cb, fb) = self._apply(lhs, block, k), self._apply(rhs, block, k)
            for P in (fb - fa).elements():
                a = _times(a, P)
            for P in (fa - fb).elements():
                b = _times(b, P)
            for m in a.keys() | b.keys():
                am, bm = a.get(m, {}), b.get(m, {})
                for key in am.keys() | bm.keys():
                    x, y = am.get(key, 0), bm.get(key, 0)
                    if x * cb != y * ca and (least is None or (key, m) < least[:2]):
                        least = (key, m, Fraction(x, ca), Fraction(y, cb))
        if least is None:
            return None
        key, m, x, y = least
        return (*divmod(key, dim), m, x, y)
