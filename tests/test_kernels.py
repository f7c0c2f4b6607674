import random
from fractions import Fraction

from symfusion import kernels


def test_compose_convention():
    # right factor first: (s∘t)(i) = s(t(i))
    s = (1, 3, 2)
    t = (2, 1, 3)
    assert kernels.compose(s, t) == (3, 1, 2)


def test_bareiss_rank_matches_frac_rref():
    rng = random.Random(17)
    for _ in range(25):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        mat = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        r = kernels.bareiss_rank([row[:] for row in mat], nc)
        frows = [[Fraction(v) for v in row] for row in mat]
        pivots, _ = kernels.frac_rref(frows, nc)
        assert r == len(pivots)


def test_frac_rref_known_case():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    pivots, reduced = kernels.frac_rref(rows, 2)
    assert pivots == [0]
    assert reduced == [[Fraction(1), Fraction(2)]]


def test_frac_rref_of_int_rows_is_exact():
    # pivots 3 and 5/3 must invert to Fractions, not to floats
    rows = [[3, 1, 2], [6, 2, 4], [1, 2, 0]]
    pivots, reduced = kernels.frac_rref(rows, 3)
    assert pivots == [0, 1]
    assert reduced == [[Fraction(1), Fraction(0), Fraction(4, 5)],
                       [Fraction(0), Fraction(1), Fraction(-2, 5)]]
    assert all(type(x) in (int, Fraction) for row in reduced for x in row)
