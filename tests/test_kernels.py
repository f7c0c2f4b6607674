import random

from qq_oracle import qq_echelon, qq_rank

from symfusion import kernels


def test_compose_convention():
    # right factor first: (s∘t)(i) = s(t(i))
    s = (1, 3, 2)
    t = (2, 1, 3)
    assert kernels.compose(s, t) == (3, 1, 2)


def test_echelon_rank_matches_sympy():
    rng = random.Random(17)
    for _ in range(25):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        mat = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        pivots, _ = kernels.echelon(mat, nc)
        assert len(pivots) == qq_rank(mat, nc)


def test_echelon_known_case():
    pivots, reduced = kernels.echelon([[1, 2], [2, 4]], 2)
    assert pivots == [0]
    assert reduced == [[1, 2]]


def test_echelon_of_int_rows_is_exact():
    # the field RREF has entries 4/5 and -2/5: primitive rows clear them
    rows = [[3, 1, 2], [6, 2, 4], [1, 2, 0]]
    pivots, reduced = kernels.echelon(rows, 3)
    assert pivots == [0, 1]
    assert reduced == [[5, 0, 4], [0, 5, -2]]
    assert all(type(x) is int for row in reduced for x in row)
    assert rows == [[3, 1, 2], [6, 2, 4], [1, 2, 0]]  # input not mutated


def test_echelon_matches_sympy_rref():
    """On seeded random matrices with zero rows, repeated rows and planted
    low rank, ``echelon`` is sympy's RREF scaled to primitive rows with
    positive pivots."""
    rng = random.Random(1729)
    for _ in range(60):
        nr, nc, k = rng.randint(1, 9), rng.randint(1, 9), rng.randint(0, 5)
        X = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(nr)]
        Y = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(k)]
        mat = [[sum(X[i][t] * Y[t][j] for t in range(k)) for j in range(nc)] for i in range(nr)]
        mat.insert(rng.randint(0, nr), [0] * nc)
        mat.append(list(rng.choice(mat)))
        assert kernels.echelon(mat, nc) == qq_echelon(mat, nc)
