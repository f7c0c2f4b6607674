"""Reference routes for the tests, on sympy's exact domains.

Elimination runs on ``DomainMatrix`` over QQ, and the fusion product on
coefficients in the field QQ(ε).  sympy was written outside this
repository, so comparing ``kernels.echelon``, ``tensorop.rank`` and the
integer limit engine against it keeps the two routes independent.
Entries may be ints or Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction

from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from symfusion.symalg import GroupAlgebraElement

EPS_FIELD = QQ.frac_field("eps")
EPS = EPS_FIELD.gens[0]


def _matrix(rows, ncols: int) -> DomainMatrix:
    qq = [[QQ(Fraction(v).numerator, Fraction(v).denominator) for v in row] for row in rows]
    return DomainMatrix(qq, (len(qq), ncols), QQ)


def _fraction(x) -> Fraction:
    return Fraction(int(x.numerator), int(x.denominator))


def _rows(matrix: DomainMatrix) -> list[list[Fraction]]:
    return [[_fraction(x) for x in row] for row in matrix.to_list()]


def qq_rank(rows, ncols: int) -> int:
    return _matrix(rows, ncols).rank()


def qq_echelon(rows, ncols: int) -> tuple[list[int], list[list[int]]]:
    """sympy's RREF with zero rows dropped and each row scaled to primitive
    integers with a positive pivot: the form ``kernels.echelon`` returns."""
    reduced, pivots = _matrix(rows, ncols).rref()
    out = []
    for row in _rows(reduced)[:len(pivots)]:
        scale = math.lcm(*(x.denominator for x in row))
        ints = [int(x * scale) for x in row]
        g = math.gcd(*ints)
        out.append([x // g for x in ints])  # the RREF pivot is 1, so already positive
    return list(pivots), out


def qq_nullspace(rows, ncols: int) -> list[list[int]]:
    """{x : row·x = 0 for every row} in the form of ``qq_echelon``."""
    return qq_echelon(_rows(_matrix(rows, ncols).nullspace()), ncols)[1]


def qq_fusion_limit(n: int, contents, slopes) -> GroupAlgebraElement:
    """Value at ε = 0 of the ordered product of
    1 - (i j)/(c_i - c_j + (g_i - g_j)·ε) over lexicographic pairs, carried
    in QQ(ε), where every coefficient stays reduced.  A reduced denominator
    that vanishes at ε = 0 is a genuine pole and raises ZeroDivisionError."""
    one = EPS_FIELD.one
    terms = {tuple(range(1, n + 1)): one}
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            step = -one / ((contents[i - 1] - contents[j - 1])
                           + (slopes[i - 1] - slopes[j - 1]) * EPS)
            out = dict(terms)
            for s, c in terms.items():
                st = list(s)  # s∘(i j): the images of i and j trade places
                st[i - 1], st[j - 1] = s[j - 1], s[i - 1]
                out[tuple(st)] = out.get(tuple(st), EPS_FIELD.zero) + c * step
            terms = out
    values = {}
    for s, c in terms.items():
        den = c.denom(0)
        if den == 0:
            raise ZeroDivisionError(f"pole at ε = 0 in the coefficient {c} of {s}")
        values[s] = _fraction(c.numer(0) / den)
    return GroupAlgebraElement(n, values)


def qq_fusion_e_skew(T, mode: str = "row") -> GroupAlgebraElement:
    """The fusion element of a (skew) standard tableau along its row or
    column line, by ``qq_fusion_limit``."""
    return qq_fusion_limit(T.n, T.contents, T.rows() if mode == "row" else T.columns())
