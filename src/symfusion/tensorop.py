"""Exact sparse operators on the n-fold tensor power of C^N.

Basis vectors of the tensor power are multi-indices (i_1..i_n) with
i_k in 1..N, encoded as row = Σ (i_k - 1)·N^(n-k), i.e. lexicographic
with i_1 most significant.  Operators hold int numerators over one
denominator (``SparseOperator``); forms and subspaces hold Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add

from . import kernels
from .exactnum import format_rational
from .symalg import GroupAlgebraElement, Permutation


class SingularForm(ValueError):
    """The Gram matrix is singular."""


class AmbientMismatch(ValueError):
    """Subspaces live in tensor spaces of different dimensions."""


def encode(index: tuple[int, ...], N: int) -> int:
    code = 0
    for i in index:
        code = code * N + (i - 1)
    return code


def decode(code: int, N: int, n: int) -> tuple[int, ...]:
    out = [0] * n
    for k in range(n - 1, -1, -1):
        out[k] = code % N + 1
        code //= N
    return tuple(out)


@dataclass(frozen=True)
class BilinearForm:
    kind: str  # "symmetric" | "alternating"
    N: int
    gram: tuple[tuple[Fraction, ...], ...]

    def __init__(self, kind: str, N: int, gram=None):
        if kind not in ("symmetric", "alternating"):
            raise ValueError(f"kind must be symmetric or alternating, got {kind!r}")
        if N < 1:
            raise ValueError("N must be >= 1")
        if kind == "alternating" and N % 2:
            raise ValueError("alternating forms need even N")
        if gram is None:
            gram = _default_gram(kind, N)
        gram = tuple(tuple(Fraction(v) for v in row) for row in gram)
        if len(gram) != N or any(len(r) != N for r in gram):
            raise ValueError("Gram matrix must be N x N")
        for i in range(N):
            for j in range(N):
                expected = gram[j][i] if kind == "symmetric" else -gram[j][i]
                if gram[i][j] != expected:
                    raise ValueError(f"Gram matrix has wrong symmetry at {(i, j)}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "gram", gram)
        if self.gram_inverse() is None:
            raise SingularForm("Gram matrix is singular")

    def pairing(self, i: int, j: int) -> Fraction:
        """<e_i, e_j> with 1-based indices."""
        return self.gram[i - 1][j - 1]

    def gram_inverse(self):
        N = self.N
        rows = [[self.gram[i][j] for j in range(N)]
                + [Fraction(int(i == j)) for j in range(N)] for i in range(N)]
        pivots, reduced = kernels.frac_rref(rows, 2 * N)
        if pivots[:N] != list(range(N)) or len(pivots) < N:
            return None
        return tuple(tuple(reduced[i][N + j] for j in range(N)) for i in range(N))


def _default_gram(kind: str, N: int):
    if kind == "symmetric":
        return [[Fraction(int(i == j)) for j in range(N)] for i in range(N)]
    gram = [[Fraction(0)] * N for _ in range(N)]
    for k in range(0, N, 2):
        gram[k][k + 1] = Fraction(1)
        gram[k + 1][k] = Fraction(-1)
    return gram


def symmetric_form(N: int, gram=None) -> BilinearForm:
    return BilinearForm("symmetric", N, gram)


def alternating_form(N: int, gram=None) -> BilinearForm:
    return BilinearForm("alternating", N, gram)


def dual_basis(form: BilinearForm) -> list[tuple[Fraction, ...]]:
    """Vectors v_j with <e_i, v_j> = delta_ij, solved from the Gram matrix."""
    inv = form.gram_inverse()
    if inv is None:
        raise SingularForm("Gram matrix is singular")
    return [tuple(inv[k][j] for k in range(form.N)) for j in range(form.N)]


def pair_vector(form: BilinearForm) -> dict[tuple[int, int], Fraction]:
    """Coordinates of w = Σ e_i ⊗ v_i, the invariant two-tensor."""
    duals = dual_basis(form)
    return {(i, b): duals[i - 1][b - 1] for i in range(1, form.N + 1)
            for b in range(1, form.N + 1) if duals[i - 1][b - 1]}


class SparseOperator:
    """Sparse linear map on the n-fold tensor power of C^N.

    Entry (r, c) is ``rows[r][c] / den``.  The constructor takes rational
    entries and brings them to a normal form: only nonzero ints are stored,
    ``den`` > 0, gcd(den, all numerators) = 1, and the zero operator has
    ``rows == {}``, ``den == 1``.  So equality compares the stored fields.
    """

    __slots__ = ("N", "n", "rows", "den")

    def __init__(self, N: int, n: int, rows=None, den: int = 1):
        if type(den) is not int or den < 1:
            raise ValueError(f"den must be a positive int, got {den!r}")
        rows = {r: kept for r, cols in (rows or {}).items()
                if (kept := {c: v for c, v in cols.items() if v})}
        if any(type(v) is not int for cols in rows.values() for v in cols.values()):
            scale = math.lcm(*(v.denominator for cols in rows.values() for v in cols.values()))
            rows = {r: {c: v.numerator * (scale // v.denominator) for c, v in cols.items()}
                    for r, cols in rows.items()}
            den *= scale
        self.N = N
        self.n = n
        self.rows, self.den = _divide_content(rows, den)

    @property
    def dim(self) -> int:
        return self.N ** self.n

    @classmethod
    def identity(cls, N: int, n: int, coeff=1) -> "SparseOperator":
        return cls(N, n, {r: {r: coeff} for r in range(N ** n)})

    @classmethod
    def zero(cls, N: int, n: int) -> "SparseOperator":
        return cls(N, n)

    def _check(self, other: "SparseOperator"):
        if (self.N, self.n) != (other.N, other.n):
            raise AmbientMismatch(f"operators on different spaces: "
                                  f"{(self.N, self.n)} vs {(other.N, other.n)}")

    def entry(self, r: int, c: int) -> Fraction:
        return Fraction(self.rows.get(r, {}).get(c, 0), self.den)

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def is_zero(self) -> bool:
        return not self.rows

    def __bool__(self):
        return bool(self.rows)

    def __eq__(self, other):
        return (isinstance(other, SparseOperator)
                and (self.N, self.n, self.den) == (other.N, other.n, other.den)
                and self.rows == other.rows)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        self._check(other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        rows = {r: {c: v * fa for c, v in cols.items()} for r, cols in self.rows.items()}
        for r, cols in other.rows.items():
            dst = rows.setdefault(r, {})
            for c, v in cols.items():
                dst[c] = dst.get(c, 0) + v * fb
        return SparseOperator(self.N, self.n, rows, den)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return self + other.scaled(-1)

    def scaled(self, c) -> "SparseOperator":
        c = Fraction(c)
        return SparseOperator(self.N, self.n,
                              {r: {k: v * c.numerator for k, v in cols.items()}
                               for r, cols in self.rows.items()},
                              self.den * c.denominator)

    def __mul__(self, other: "SparseOperator") -> "SparseOperator":
        self._check(other)
        # sparse_mm keeps no zeros, so only the content is left to divide out
        out = SparseOperator(self.N, self.n)
        out.rows, out.den = _divide_content(kernels.sparse_mm(self.rows, other.rows),
                                            self.den * other.den)
        return out

    def apply(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        """Image of a vector {code: rational}, whose denominators are cleared once."""
        scale = math.lcm(*(x.denominator for x in vec.values()))
        ivec = {c: x.numerator * (scale // x.denominator) for c, x in vec.items()}
        den = self.den * scale
        out: dict[int, Fraction] = {}
        for r, cols in self.rows.items():
            acc = 0
            for c, v in cols.items():
                x = ivec.get(c)
                if x is not None:
                    acc += v * x
            if acc:
                out[r] = Fraction(acc, den)
        return out

    def to_triplets(self) -> list[dict]:
        return [{"row": r, "col": c, "value": format_rational(Fraction(cols[c], self.den))}
                for r, cols in sorted(self.rows.items()) for c in sorted(cols)]

    def __repr__(self):
        return f"SparseOperator(N={self.N}, n={self.n}, nnz={self.nnz()}, den={self.den})"


def _divide_content(rows: dict[int, dict[int, int]], den: int):
    """(rows, den) divided by gcd(den, all numerators); no rows give den 1."""
    g = den
    for cols in rows.values():
        g = math.gcd(g, *cols.values())
        if g == 1:
            return rows, den
    return {r: {c: v // g for c, v in cols.items()} for r, cols in rows.items()}, den // g


def perm_op(s: Permutation, N: int) -> SparseOperator:
    """Operator permuting tensor factors: factor k moves to slot s(k)."""
    n = len(s)
    dim = N ** n
    inv = s.inverse()
    rows: dict[int, dict[int, int]] = {}
    for code in range(dim):
        idx = decode(code, N, n)
        tgt = tuple(idx[inv[k] - 1] for k in range(n))
        rows[encode(tgt, N)] = {code: 1}
    return SparseOperator(N, n, rows)


def q_op(k: int, l: int, form: BilinearForm, n: int) -> SparseOperator:
    """Contraction-insertion in slots (k, l): u⊗v -> <u,v>·w, identity elsewhere."""
    if not (1 <= k <= n and 1 <= l <= n) or k == l:
        raise IndexError(f"slots must be distinct and within 1..{n}: {(k, l)}")
    if k > l:
        k, l = l, k
    N = form.N
    w = pair_vector(form)
    rows: dict[int, dict[int, Fraction]] = {}
    for rest_code in range(N ** (n - 2)):
        rest = decode(rest_code, N, n - 2) if n > 2 else ()
        for a in range(1, N + 1):
            for b in range(1, N + 1):
                g = form.pairing(a, b)
                if not g:
                    continue
                col = _place(rest, k, l, a, b, N)
                for (i, j), wv in w.items():
                    row = _place(rest, k, l, i, j, N)
                    dst = rows.setdefault(row, {})
                    dst[col] = dst.get(col, 0) + g * wv
    return SparseOperator(N, n, rows)


def _place(rest: tuple[int, ...], k: int, l: int, a: int, b: int, N: int) -> int:
    idx = []
    it = iter(rest)
    for slot in range(1, len(rest) + 3):
        if slot == k:
            idx.append(a)
        elif slot == l:
            idx.append(b)
        else:
            idx.append(next(it))
    return encode(tuple(idx), N)


def act(a: GroupAlgebraElement, N: int) -> SparseOperator:
    """Operator realization of a group-algebra element by permuting factors.

    Σ_s c_s·perm_op(s), accumulated into one set of int rows over the lcm
    of the c_s denominators: perm_op(s) sends basis vector idx to the one
    holding idx_j in slot s(j), whose code is Σ_j (idx_j - 1)·N^(n - s(j)).
    """
    n = a.n
    dim = N ** n
    den = math.lcm(*(c.denominator for c in a.terms.values()))
    digits = list(zip(*(decode(code, N, n) for code in range(dim))))
    # placed[j][slot - 1][code]: contribution of factor j+1 of code in that slot
    placed = [[[(d - 1) * N ** (n - slot) for d in col] for slot in range(1, n + 1)]
              for col in digits]
    rows: list[dict[int, int]] = [{} for _ in range(dim)]
    for s, c in a.terms.items():
        c = c.numerator * (den // c.denominator)
        targets = [0] * dim
        for j, v in enumerate(s):
            targets = list(map(add, targets, placed[j][v - 1]))
        for code, tgt in enumerate(targets):
            row = rows[tgt]
            row[code] = row.get(code, 0) + c
    return SparseOperator(N, n, dict(enumerate(rows)), den)


@dataclass(frozen=True)
class SubspaceBasis:
    """Exact basis of a subspace of the tensor power, rows in RREF."""

    ambient: int
    vectors: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)


def _rref_basis(ambient: int, dense_rows: list[list[Fraction]]) -> SubspaceBasis:
    _, reduced = kernels.frac_rref(dense_rows, ambient)
    return SubspaceBasis(ambient, tuple(tuple(r) for r in reduced))


def _dense_columns(A: SparseOperator) -> list[list[int]]:
    dim = A.dim
    cols: dict[int, list[int]] = {}
    for r, row in A.rows.items():
        for c, v in row.items():
            cols.setdefault(c, [0] * dim)[r] = v
    return [vec for _, vec in sorted(cols.items())]


def image_basis(A: SparseOperator) -> SubspaceBasis:
    """Column space of the numerators (the den does not change it), in RREF."""
    return _rref_basis(A.dim, _dense_columns(A))


def kernel_basis(A: SparseOperator) -> SubspaceBasis:
    dim = A.dim
    rows = []
    for _, row in sorted(A.rows.items()):
        dense = [0] * dim
        for c, v in row.items():
            dense[c] = v
        rows.append(dense)
    if not rows:
        return SubspaceBasis(dim, tuple(tuple(Fraction(int(i == j)) for j in range(dim))
                                        for i in range(dim)))
    pivots, reduced = kernels.frac_rref(rows, dim)
    pivot_set = set(pivots)
    free = [c for c in range(dim) if c not in pivot_set]
    vectors = []
    for f in free:
        vec = [Fraction(0)] * dim
        vec[f] = Fraction(1)
        for prow, pcol in zip(reduced, pivots):
            if prow[f]:
                vec[pcol] = -prow[f]
        vectors.append(tuple(vec))
    return _rref_basis(dim, [list(v) for v in vectors])


def rank(A: SparseOperator) -> int:
    """Exact rank, summed over the connected blocks of A's nonzero pattern.

    Two nonzero rows fall in the same block when they share a column; one
    union-find pass over the nonzeros finds the blocks.  Permuting rows and
    columns makes A block-diagonal over them, so rank(A) is the sum of the
    block ranks.  Each block of integer numerators is densified over its own
    sorted columns and ``kernels.bareiss_rank`` eliminates it; the common
    denominator does not change the rank.
    """
    parent: dict[int, int] = {}  # column -> parent column; roots map to themselves

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    for row in A.rows.values():
        root = None
        for c in row:
            c = find(parent.setdefault(c, c))
            if root is None:
                root = c
            elif c != root:
                parent[c] = root
    blocks: dict[int, list[dict[int, int]]] = {}
    for _, row in sorted(A.rows.items()):
        blocks.setdefault(find(next(iter(row))), []).append(row)
    total = 0
    for rows in blocks.values():
        pos = {c: i for i, c in enumerate(sorted({c for row in rows for c in row}))}
        dense_rows = []
        for row in rows:
            dense = [0] * len(pos)
            for c, v in row.items():
                dense[pos[c]] = v
            dense_rows.append(dense)
        total += kernels.bareiss_rank(dense_rows, len(pos))
    return total


@lru_cache(maxsize=None)
def traceless_basis(N: int, n: int, form: BilinearForm) -> SubspaceBasis:
    """Joint kernel of all pairwise contraction operators.

    Valid as the traceless subspace because inserting the invariant
    two-tensor is injective, so the (k,l)-contraction of a tensor
    vanishes exactly when the corresponding contraction-insertion does.
    """
    dim = N ** n
    if n < 2:
        return SubspaceBasis(dim, tuple(tuple(Fraction(int(i == j)) for j in range(dim))
                                        for i in range(dim)))
    # Intersect kernels incrementally; each step solves in the coordinates
    # of the current basis, which keeps the eliminations small.
    basis = [{i: Fraction(1)} for i in range(dim)]
    for k in range(1, n):
        for l in range(k + 1, n + 1):
            Q = q_op(k, l, form, n)
            images = [Q.apply(v) for v in basis]
            used_rows = sorted({r for img in images for r in img})
            if not used_rows:
                continue
            pos = {r: i for i, r in enumerate(used_rows)}
            mat = []
            for img in images:
                col = [Fraction(0)] * len(used_rows)
                for r, v in img.items():
                    col[pos[r]] = v
                mat.append(col)
            # kernel of the (used_rows x len(basis)) matrix M with M[:,i]=images[i]
            rows = [[mat[i][j] for i in range(len(basis))] for j in range(len(used_rows))]
            pivots, reduced = kernels.frac_rref(rows, len(basis))
            pivot_set = set(pivots)
            free = [c for c in range(len(basis)) if c not in pivot_set]
            new_basis = []
            for f in free:
                combo: dict[int, Fraction] = {}
                _accumulate(combo, basis[f], Fraction(1))
                for prow, pcol in zip(reduced, pivots):
                    if prow[f]:
                        _accumulate(combo, basis[pcol], -prow[f])
                new_basis.append(combo)
            basis = new_basis
            if not basis:
                break
    dense = []
    for combo in basis:
        vec = [Fraction(0)] * dim
        for i, v in combo.items():
            vec[i] = v
        dense.append(vec)
    return _rref_basis(dim, dense)


def _accumulate(dst: dict[int, Fraction], src: dict[int, Fraction], scale: Fraction):
    for i, v in src.items():
        acc = dst.get(i, 0) + v * scale
        if acc:
            dst[i] = acc
        else:
            dst.pop(i, None)


def subspace_equal(A: SubspaceBasis, B: SubspaceBasis) -> bool:
    if A.ambient != B.ambient:
        raise AmbientMismatch(f"ambient dimensions {A.ambient} and {B.ambient} differ")
    return A.vectors == B.vectors  # both are in RREF, a canonical form


def intersect(A: SubspaceBasis, B: SubspaceBasis) -> SubspaceBasis:
    """Exact intersection via the kernel of the stacked coefficient system."""
    if A.ambient != B.ambient:
        raise AmbientMismatch(f"ambient dimensions {A.ambient} and {B.ambient} differ")
    if A.dim == 0 or B.dim == 0:
        return SubspaceBasis(A.ambient, ())
    # Solve x·A - y·B = 0 for coefficient rows (x, y).
    na, nb = A.dim, B.dim
    rows = []
    for col in range(A.ambient):
        row = [A.vectors[i][col] for i in range(na)]
        row += [-B.vectors[j][col] for j in range(nb)]
        rows.append(row)
    pivots, reduced = kernels.frac_rref(rows, na + nb)
    pivot_set = set(pivots)
    free = [c for c in range(na + nb) if c not in pivot_set]
    vectors = []
    for f in free:
        coeffs = [Fraction(0)] * (na + nb)
        coeffs[f] = Fraction(1)
        for prow, pcol in zip(reduced, pivots):
            if prow[f]:
                coeffs[pcol] = -prow[f]
        vec = [Fraction(0)] * A.ambient
        for i in range(na):
            if coeffs[i]:
                for col in range(A.ambient):
                    vec[col] += coeffs[i] * A.vectors[i][col]
        if any(vec):
            vectors.append(vec)
    return _rref_basis(A.ambient, vectors)


def span_of_vectors(ambient: int, vectors) -> SubspaceBasis:
    dense = []
    for v in vectors:
        if isinstance(v, dict):
            row = [Fraction(0)] * ambient
            for i, x in v.items():
                row[i] = x
            dense.append(row)
        else:
            dense.append([Fraction(x) for x in v])
    return _rref_basis(ambient, dense)
