"""Exact sparse operators on the n-fold tensor power of C^N.

Basis vectors of the tensor power are multi-indices (i_1..i_n) with
i_k in 1..N, encoded as row = Σ (i_k - 1)·N^(n-k), i.e. lexicographic
with i_1 most significant.  All coefficients are exact Fractions.
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
        pivots, reduced = kernels.frac_rref(rows, 2 * N, Fraction(0), Fraction(1))
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
    w: dict[tuple[int, int], Fraction] = {}
    for i in range(1, form.N + 1):
        for b in range(1, form.N + 1):
            c = duals[i - 1][b - 1]
            if c:
                w[(i, b)] = w.get((i, b), Fraction(0)) + c
    return {k: v for k, v in w.items() if v}


class SparseOperator:
    """Sparse linear map on the n-fold tensor power of C^N."""

    __slots__ = ("N", "n", "rows")

    def __init__(self, N: int, n: int, rows=None):
        self.N = N
        self.n = n
        self.rows: dict[int, dict[int, Fraction]] = rows if rows is not None else {}

    @property
    def dim(self) -> int:
        return self.N ** self.n

    @classmethod
    def identity(cls, N: int, n: int, coeff=Fraction(1)) -> "SparseOperator":
        if not coeff:
            return cls.zero(N, n)
        dim = N ** n
        return cls(N, n, {r: {r: coeff} for r in range(dim)})

    @classmethod
    def zero(cls, N: int, n: int) -> "SparseOperator":
        return cls(N, n, {})

    def _check(self, other: "SparseOperator"):
        if (self.N, self.n) != (other.N, other.n):
            raise AmbientMismatch(f"operators on different spaces: "
                                  f"{(self.N, self.n)} vs {(other.N, other.n)}")

    def entry(self, r: int, c: int) -> Fraction:
        return self.rows.get(r, {}).get(c, Fraction(0))

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def is_zero(self) -> bool:
        return not self.rows

    def __bool__(self):
        return bool(self.rows)

    def __eq__(self, other):
        return (isinstance(other, SparseOperator)
                and (self.N, self.n) == (other.N, other.n)
                and self.rows == other.rows)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        self._check(other)
        rows = {r: dict(cols) for r, cols in self.rows.items()}
        for r, cols in other.rows.items():
            dst = rows.setdefault(r, {})
            for c, v in cols.items():
                acc = dst.get(c, 0) + v
                if acc:
                    dst[c] = acc
                else:
                    dst.pop(c, None)
            if not dst:
                del rows[r]
        return SparseOperator(self.N, self.n, rows)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return self + other.scaled(-1)

    def scaled(self, c) -> "SparseOperator":
        if not c:
            return SparseOperator.zero(self.N, self.n)
        return SparseOperator(self.N, self.n,
                              {r: {k: v * c for k, v in cols.items()}
                               for r, cols in self.rows.items()})

    def __mul__(self, other: "SparseOperator") -> "SparseOperator":
        self._check(other)
        return SparseOperator(self.N, self.n, kernels.sparse_mm(self.rows, other.rows))

    def apply(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for r, cols in self.rows.items():
            acc = 0
            for c, v in cols.items():
                x = vec.get(c)
                if x is not None:
                    acc += v * x
            if acc:
                out[r] = acc
        return out

    def to_triplets(self) -> list[dict]:
        out = []
        for r in sorted(self.rows):
            cols = self.rows[r]
            for c in sorted(cols):
                out.append({"row": r, "col": c, "value": format_rational(cols[c])})
        return out

    def __repr__(self):
        return f"SparseOperator(N={self.N}, n={self.n}, nnz={self.nnz()})"


def perm_op(s: Permutation, N: int) -> SparseOperator:
    """Operator permuting tensor factors: factor k moves to slot s(k)."""
    n = len(s)
    dim = N ** n
    inv = s.inverse()
    rows: dict[int, dict[int, Fraction]] = {}
    one = Fraction(1)
    for code in range(dim):
        idx = decode(code, N, n)
        tgt = tuple(idx[inv[k] - 1] for k in range(n))
        rows[encode(tgt, N)] = {code: one}
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
                    acc = dst.get(col, 0) + g * wv
                    if acc:
                        dst[col] = acc
                    else:
                        dst.pop(col, None)
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

    Σ_s c_s·perm_op(s), accumulated into one set of rows: perm_op(s) sends
    basis vector idx to the one holding idx_j in slot s(j), whose code is
    Σ_j (idx_j - 1)·N^(n - s(j)).
    """
    n = a.n
    dim = N ** n
    digits = list(zip(*(decode(code, N, n) for code in range(dim))))
    # placed[j][slot - 1][code]: contribution of factor j+1 of code in that slot
    placed = [[[(d - 1) * N ** (n - slot) for d in col] for slot in range(1, n + 1)]
              for col in digits]
    rows: list[dict[int, Fraction]] = [{} for _ in range(dim)]
    for s, c in a.terms.items():
        targets = [0] * dim
        for j, v in enumerate(s):
            targets = list(map(add, targets, placed[j][v - 1]))
        for code, tgt in enumerate(targets):
            row = rows[tgt]
            row[code] = row.get(code, 0) + c
    out = {}
    for r, row in enumerate(rows):
        row = {k: v for k, v in row.items() if v}
        if row:
            out[r] = row
    return SparseOperator(N, n, out)


@dataclass(frozen=True)
class SubspaceBasis:
    """Exact basis of a subspace of the tensor power, rows in RREF."""

    ambient: int
    vectors: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)


def _rref_basis(ambient: int, dense_rows: list[list[Fraction]]) -> SubspaceBasis:
    _, reduced = kernels.frac_rref(dense_rows, ambient, Fraction(0), Fraction(1))
    return SubspaceBasis(ambient, tuple(tuple(r) for r in reduced))


def _dense_columns(A: SparseOperator) -> list[list[Fraction]]:
    dim = A.dim
    cols: dict[int, list[Fraction]] = {}
    for r, row in A.rows.items():
        for c, v in row.items():
            cols.setdefault(c, [Fraction(0)] * dim)[r] = v
    return [vec for _, vec in sorted(cols.items())]


def image_basis(A: SparseOperator) -> SubspaceBasis:
    """Column space, reduced by exact elimination."""
    return _rref_basis(A.dim, _dense_columns(A))


def kernel_basis(A: SparseOperator) -> SubspaceBasis:
    dim = A.dim
    rows = []
    for _, row in sorted(A.rows.items()):
        dense = [Fraction(0)] * dim
        for c, v in row.items():
            dense[c] = v
        rows.append(dense)
    if not rows:
        return SubspaceBasis(dim, tuple(tuple(Fraction(int(i == j)) for j in range(dim))
                                        for i in range(dim)))
    pivots, reduced = kernels.frac_rref(rows, dim, Fraction(0), Fraction(1))
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
    block ranks.  Each block is densified over its own sorted columns, each
    row's denominators are cleared with their lcm (which preserves the row
    space over the rationals), and ``kernels.bareiss_rank`` eliminates it.
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
    blocks: dict[int, list[dict[int, Fraction]]] = {}
    for _, row in sorted(A.rows.items()):
        if row:
            blocks.setdefault(find(next(iter(row))), []).append(row)
    total = 0
    for rows in blocks.values():
        pos = {c: i for i, c in enumerate(sorted({c for row in rows for c in row}))}
        dense_rows = []
        for row in rows:
            lcm = math.lcm(*(v.denominator for v in row.values()))
            dense = [0] * len(pos)
            for c, v in row.items():
                dense[pos[c]] = v.numerator * (lcm // v.denominator)
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
            pivots, reduced = kernels.frac_rref(rows, len(basis), Fraction(0), Fraction(1))
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


def contains_subspace(A: SubspaceBasis, B: SubspaceBasis) -> bool:
    """Whether span(B) is contained in span(A)."""
    if A.ambient != B.ambient:
        raise AmbientMismatch(f"ambient dimensions {A.ambient} and {B.ambient} differ")
    joint = [list(v) for v in A.vectors] + [list(v) for v in B.vectors]
    _, reduced = kernels.frac_rref(joint, A.ambient, Fraction(0), Fraction(1))
    return len(reduced) == A.dim


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
    pivots, reduced = kernels.frac_rref(rows, na + nb, Fraction(0), Fraction(1))
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
