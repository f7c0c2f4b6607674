"""Whole-operator arithmetic for the tests, as plain dict products.

The library never multiplies two operators: every product runs as a
``tensorop.left_multiplication`` move on vectors.  These build products,
multiples and factors entry by entry from the stored rows, independent
of that move, so the tests can state an operator identity in full and
check the moves against it.  The library never evaluates a den either:
``at`` gives a factor's den at a point, so that ``factor`` can build it
there.  ``three_pass_factor`` keeps the limit engine's step as it was
first written, the reference for ``exactnum``'s one-pass step.
"""

from __future__ import annotations

from fractions import Fraction

from symfusion.exactnum import value_at_zero
from symfusion.products import Affine
from symfusion.tensorop import AmbientMismatch, SparseOperator


class SampleAtPole(ValueError):
    """A factor is evaluated at a zero of its den."""


def at(den: Affine, pt) -> Fraction:
    """The value of the affine form ``den`` at the point x = pt."""
    if len(den.coeffs) > len(pt):
        raise ValueError(f"form in {len(den.coeffs)} variables at a point of {len(pt)}")
    return den.const + sum(a * v for a, v in zip(den.coeffs, pt))


def mul(A: SparseOperator, B: SparseOperator) -> SparseOperator:
    """A·B: row r is the sum of B's rows weighted by A's row r."""
    if (A.N, A.n) != (B.N, B.n):
        raise AmbientMismatch(f"operators on different spaces: {(A.N, A.n)} vs {(B.N, B.n)}")
    rows = {}
    for r, arow in A.rows.items():
        acc = rows[r] = {}
        for k, av in arow.items():
            for c, bv in B.rows.get(k, {}).items():
                acc[c] = acc.get(c, 0) + av * bv
    return SparseOperator(A.N, A.n, rows, A.den * B.den)


def applied(A: SparseOperator, vec: dict, dim: int) -> dict:
    """1^{⊗m} ⊗ A.rows applied to a vector keyed row·dim + col, entry by
    entry over A's stored rows, zeros dropped: the reference for the moves
    of ``tensorop``."""
    out: dict = {}
    for key, x in vec.items():
        k, c = divmod(key, dim)
        a, low = divmod(k, A.dim)
        for r, row in A.rows.items():
            if low in row:
                nk = (a * A.dim + r) * dim + c
                out[nk] = out.get(nk, 0) + row[low] * x
    return {k: x for k, x in out.items() if x}


def scaled(X: SparseOperator, c) -> SparseOperator:
    """c·X for a rational c."""
    c = Fraction(c)
    return SparseOperator(X.N, X.n, {r: {k: v * c.numerator for k, v in cols.items()}
                                     for r, cols in X.rows.items()}, X.den * c.denominator)


def factor(X: SparseOperator, sign: int, den) -> SparseOperator:
    """1 + sign·X/den as a whole operator: the reference for the factor
    step of ``OrbitComparison``."""
    if den == 0:
        raise SampleAtPole(f"pole: 1 + ({sign})·X/den with den = 0, X = {X!r}")
    return SparseOperator.identity(X.N, X.n) + scaled(X, sign / Fraction(den))


def three_pass_factor(series: list[dict], move, a: int, b: int) -> list[dict]:
    """(a + b·ε)·u − X·u, coefficient by coefficient, truncated to
    len(series): a·u in one pass, b·(the previous coefficient) added in a
    second, X·u subtracted in a third, then the zeros dropped."""
    out = []
    prev: dict = {}
    for cur in series:
        acc = {k: a * x for k, x in cur.items()} if a else {}
        if b:
            for k, x in prev.items():
                acc[k] = acc.get(k, 0) + b * x
        for k, x in move(cur).items():
            acc[k] = acc.get(k, 0) - x
        out.append({k: x for k, x in acc.items() if x})
        prev = cur
    return out


def three_pass_limit(start: dict, factors) -> tuple[dict, int]:
    """The engine's value at ε = 0 through ``three_pass_factor``: the
    numerator itself over Π(a + b·ε)."""
    v = sum(1 for _, a, _ in factors if a == 0)
    series = [{k: x for k, x in start.items() if x}] + [{} for _ in range(v)]
    for move, a, b in factors:
        series = three_pass_factor(series, move, a, b)
    return value_at_zero(series, [(a, b) for _, a, b in factors])
