"""Reference elimination for the tests: sympy's ``DomainMatrix`` over QQ.

It was written outside this repository, so comparing ``kernels.echelon``
and ``tensorop.rank`` against it keeps the two routes independent.
Entries may be ints or Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction

from sympy import QQ
from sympy.polys.matrices import DomainMatrix


def _matrix(rows, ncols: int) -> DomainMatrix:
    qq = [[QQ(Fraction(v).numerator, Fraction(v).denominator) for v in row] for row in rows]
    return DomainMatrix(qq, (len(qq), ncols), QQ)


def _rows(matrix: DomainMatrix) -> list[list[Fraction]]:
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in row]
            for row in matrix.to_list()]


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
