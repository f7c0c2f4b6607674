"""Exact sparse operators on the n-fold tensor power of C^N.

Basis vectors of the tensor power are multi-indices (i_1..i_n) with
i_k in 1..N, encoded as row = Σ (i_k - 1)·N^(n-k), i.e. lexicographic
with i_1 most significant.  Operators hold int numerators over one
denominator (``SparseOperator``, in the ``exactnum.normal_form`` that a
group-algebra element shares, so ``act`` reads an element's numerators
and den directly) and subspaces hold integer echelon rows
(``SubspaceBasis``); Fractions appear only where rationals enter or leave
(``entry``, ``to_triplets``, the scalar of ``acts_as_scalar``) and in
``BilinearForm``.  Operators add and subtract, but are never multiplied
whole.  Operators apply as
``left_multiplication`` moves on integer vectors keyed row·dim + col,
which hold some columns of a matrix (the limit engine,
``products.OrbitComparison``, ``kernel_within``, the theta check in
``fusion``).  An equation A·X = σ·X is decided on a basis instead: it
holds exactly when A acts as σ on the image of X, and X·A = σ·X exactly
when A acts as σ on X's row space (``acts_as_scalar`` on ``image_basis``
or ``row_basis``).

Every code table (``perm_op``, ``act``, ``q_op``, ``code_table``, and the
block embedding of the theta check in ``fusion``) is one slot sum,
``slot_codes``: slot k adds where its letter lands, a multiple of the
slot weight N^(n-k).  So no library code decodes or encodes a code,
but for the reference that checks each lifted unit move (``_check_lift``,
with ``encode``); ``encode`` and ``decode`` are the tests' reference.  The identity
checks, the F and E builds and the traceless part of image(E) name the
exchanges P_ij and contractions Q_kl, ("P", i, j) and ("Q", k, l), as
do the R-matrix factors ``R``, ``R_tilde`` and ``R_bar`` of
``products``.  Each name resolves through ``unit_move``, with the
identity Gram as every exchange's form.  A unit operator acts on two
slots only, so its kind is built and checked once per (kind, N, form),
as P_12 or Q_12 on C^N ⊗ C^N, where the commutation verdict is exact for
every n; each name's move on n slots is lifted from that operator's
columns, checked against them on unit columns that read every lifted
entry, and cached by (name, N, n, form) with its den and verdict.  No
unit operator on n slots is built, and no caller ever holds, and so
cannot mutate, a cached operator.

Each move does only its operator's work.  An exchange, or any
permutation matrix such as ``perm_op``, relabels keys in one
comprehension.  A contraction is rank one on its two slots, its entry
<e_a, e_b>·w_ij, so its move sums each entry's pairing into the base code
with those slots cleared and then inserts w once per nonzero base.  Any
other operator takes each of its row objects once.  A move takes
(vec, scale=1, into=None), so a caller such as ``products.OrbitComparison``
writes b·X·p straight into an output it holds, and a sum of names
(``products.UnitSum``) accumulates its terms' cached moves into one
output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, repeat
from typing import NamedTuple

from . import kernels
from .exactnum import format_rational, normal_form
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

    def gram_inverse(self):
        """G⁻¹ read off the echelon form of [s·G | s] (s clears each row's
        denominators), which is [d·I | d·G⁻¹] row by row; None if singular."""
        N = self.N
        rows = []
        for i, grow in enumerate(self.gram):
            (num,), scale = normal_form([dict(enumerate(grow))])
            rows.append([num.get(j, 0) for j in range(N)] + [scale * (i == j) for j in range(N)])
        pivots, reduced = kernels.echelon(rows, 2 * N)
        if pivots[:N] != list(range(N)):
            return None
        return tuple(tuple(Fraction(row[N + j], row[i]) for j in range(N))
                     for i, row in enumerate(reduced))


@lru_cache(maxsize=None)
def standard_form(kind: str, N: int) -> BilinearForm:
    """The form of ``kind`` on C^N with the default Gram, one object per (kind, N)."""
    return BilinearForm(kind, N)


def _default_gram(kind: str, N: int):
    if kind == "symmetric":
        return [[Fraction(int(i == j)) for j in range(N)] for i in range(N)]
    gram = [[Fraction(0)] * N for _ in range(N)]
    for k in range(0, N, 2):
        gram[k][k + 1] = Fraction(1)
        gram[k + 1][k] = Fraction(-1)
    return gram


def dual_basis(form: BilinearForm) -> list[tuple[Fraction, ...]]:
    """Vectors v_j with <e_i, v_j> = delta_ij, solved from the Gram matrix."""
    inv = form.gram_inverse()  # not None: the constructor rejects a singular Gram
    return [tuple(inv[k][j] for k in range(form.N)) for j in range(form.N)]


def pair_vector(form: BilinearForm) -> dict[tuple[int, int], Fraction]:
    """Coordinates of w = Σ e_i ⊗ v_i, the invariant two-tensor."""
    duals = dual_basis(form)
    return {(i, b): duals[i - 1][b - 1] for i in range(1, form.N + 1)
            for b in range(1, form.N + 1) if duals[i - 1][b - 1]}


class SparseOperator:
    """Sparse linear map on the n-fold tensor power of C^N.

    Entry (r, c) is ``rows[r][c] / den``.  The constructor takes rational
    entries and brings them to ``exactnum.normal_form``; no empty row is
    kept, so the zero operator, ``SparseOperator(N, n)``, has
    ``rows == {}`` and ``den == 1``, and equality compares the stored
    fields.

    Several row indices may hold one dict object: the orbit assembly of
    ``fusion`` stores each distinct row of F and E once.  So no code
    mutates a stored row (the constructor and ``_combine`` copy what they
    are given), and a row-wise pass may do its work once per row object
    and reuse it at every index that holds that object, reading the
    objects and their indices from ``row_objects``.
    """

    __slots__ = ("N", "n", "rows", "den", "__weakref__")

    def __init__(self, N: int, n: int, rows=None, den: int = 1):
        rows = rows or {}
        parts, self.den = normal_form(list(rows.values()), den)
        self.N = N
        self.n = n
        self.rows = {r: cols for r, cols in zip(rows, parts) if cols}

    @classmethod
    def _in_normal_form(cls, N: int, n: int, rows: dict[int, dict[int, int]],
                        den: int) -> "SparseOperator":
        """The operator that holds ``rows`` and ``den`` themselves, with no
        copy and no ``normal_form`` pass: the caller vouches that they are
        already in normal form with no empty row, as the orbit assembly of
        ``fusion`` builds them."""
        self = cls.__new__(cls)
        self.N, self.n, self.rows, self.den = N, n, rows, den
        return self

    @property
    def dim(self) -> int:
        return self.N ** self.n

    @classmethod
    def identity(cls, N: int, n: int) -> "SparseOperator":
        return cls(N, n, {r: {r: 1} for r in range(N ** n)})

    def row_objects(self) -> list[tuple[dict[int, int], list[int]]]:
        """(row object, the row indices that hold it, ascending) for each
        distinct row object, ordered by its least row index: the one place
        that groups rows by object."""
        held: dict[int, tuple[dict[int, int], list[int]]] = {}
        for r in sorted(self.rows):
            row = self.rows[r]
            group = held.get(id(row))
            if group is None:
                group = held[id(row)] = (row, [])
            group[1].append(r)
        return list(held.values())

    def _check(self, other: "SparseOperator"):
        if (self.N, self.n) != (other.N, other.n):
            raise AmbientMismatch(f"operators on different spaces: "
                                  f"{(self.N, self.n)} vs {(other.N, other.n)}")

    def entry(self, r: int, c: int) -> Fraction:
        return Fraction(self.rows.get(r, {}).get(c, 0), self.den)

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def __bool__(self):
        return bool(self.rows)

    def __eq__(self, other):
        return (isinstance(other, SparseOperator)
                and (self.N, self.n, self.den) == (other.N, other.n, other.den)
                and self.rows == other.rows)

    def _combine(self, other: "SparseOperator", sign: int) -> "SparseOperator":
        """self + sign·other over the lcm of the dens, normalized once; a
        side whose scale factor is 1 is copied, not rescaled."""
        self._check(other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        rows = {r: _rescaled(cols, fa) for r, cols in self.rows.items()}
        for r, cols in other.rows.items():
            dst = rows.get(r)
            if dst is None:
                rows[r] = _rescaled(cols, fb)
            else:
                for c, v in cols.items():
                    dst[c] = dst.get(c, 0) + v * fb
        return SparseOperator(self.N, self.n, rows, den)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        return self._combine(other, 1)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return self._combine(other, -1)

    def to_triplets(self) -> list[dict]:
        return [{"row": r, "col": c, "value": format_rational(Fraction(cols[c], self.den))}
                for r, cols in sorted(self.rows.items()) for c in sorted(cols)]

    def __repr__(self):
        return f"SparseOperator(N={self.N}, n={self.n}, nnz={self.nnz()}, den={self.den})"


def _rescaled(cols: dict[int, int], f: int) -> dict[int, int]:
    return dict(cols) if f == 1 else {c: v * f for c, v in cols.items()}


def slot_codes(places) -> list[int]:
    """The codes Σ_k places[k][d_k] over every letter tuple (d_1..d_n), in
    code order (d_1 most significant, slot k running over its own
    len(places[k]) letters), built slot by slot.

    Every code table of the tensor power is one such sum: places[k][d] is
    where letter d of slot k lands, so no code is ever decoded."""
    codes = [0]
    for place in places:
        codes = [c + p for c in codes for p in place]
    return codes


def _perm_targets(s: Permutation, N: int) -> list[int]:
    """Target of every code under perm_op(s): letter d of slot k lands at
    d·N^(n - s(k))."""
    n = len(s)
    return slot_codes([[d * N ** (n - image) for d in range(N)] for image in s])


def perm_op(s: Permutation, N: int) -> SparseOperator:
    """Operator permuting tensor factors: factor k moves to slot s(k).

    Column c has its one entry in row ``_perm_targets(s, N)[c]``."""
    return SparseOperator(N, len(s), {t: {code: 1}
                                      for code, t in enumerate(_perm_targets(s, N))})


def q_op(k: int, l: int, form: BilinearForm, n: int) -> SparseOperator:
    """Contraction-insertion in slots (k, l): u⊗v -> <u,v>·w, identity elsewhere.

    From each code with letter 0 in slots k and l (``slot_codes`` with [0]
    there), column base + a·N^(n-k) + b·N^(n-l) maps to the rows
    base + i·N^(n-k) + j·N^(n-l) over the pairs (i, j) of w, with weight
    <e_a, e_b>·w_ij (0-based letters in the codes)."""
    if not (1 <= k <= n and 1 <= l <= n) or k == l:
        raise IndexError(f"slots must be distinct and within 1..{n}: {(k, l)}")
    if k > l:
        k, l = l, k
    N = form.N
    wk, wl = N ** (n - k), N ** (n - l)
    w = pair_vector(form)
    pairs = [(a, b) for a in range(N) for b in range(N) if form.gram[a][b]]
    # one {row offset: int weight} per column pair (a, b), over one den
    weights, den = normal_form([{(i - 1) * wk + (j - 1) * wl: form.gram[a][b] * wv
                                 for (i, j), wv in w.items()} for a, b in pairs])
    bases = slot_codes([[0] if slot in (k, l) else [d * N ** (n - slot) for d in range(N)]
                        for slot in range(1, n + 1)])
    rows: dict[int, dict[int, int]] = {}
    for (a, b), ws in zip(pairs, weights):
        shift = a * wk + b * wl
        for base in bases:
            for off, v in ws.items():
                rows.setdefault(base + off, {})[base + shift] = v
    return SparseOperator(N, n, rows, den)


def act(a: GroupAlgebraElement, N: int) -> SparseOperator:
    """Operator realization of a group-algebra element by permuting factors.

    Σ_s c_s·perm_op(s), accumulated into one set of int rows over the
    element's den from each term's ``_perm_targets``.
    """
    rows: list[dict[int, int]] = [{} for _ in range(N ** a.n)]
    for s, c in a.terms.items():
        for code, tgt in enumerate(_perm_targets(s, N)):
            row = rows[tgt]
            row[code] = row.get(code, 0) + c
    return SparseOperator(N, a.n, dict(enumerate(rows)), a.den)


# ---------------------------------------------------------------------------
# monomial isometries of the form and their column orbits
#
# A signed permutation g = (perm, signs) of the basis sends e_i to
# signs[i]·e_{perm[i]} (0-based letters).  When g preserves the Gram,
# g^{⊗n} commutes with every perm_op and q_op, since the pairing and the
# invariant two-tensor are g-invariant.


def preserves_gram(form: BilinearForm, g: tuple[tuple[int, ...], tuple[int, ...]]) -> bool:
    """Whether <g e_i, g e_j> = <e_i, e_j> for all i, j, exactly."""
    perm, signs = g
    G = form.gram
    return all(signs[i] * signs[j] * G[perm[i]][perm[j]] == G[i][j]
               for i in range(form.N) for j in range(form.N))


def _candidates(form: BilinearForm):
    """Single sign flips, signed transpositions, then signed pairs of
    disjoint transpositions (a b)(c d) where the Gram links each letter of
    one pair to a letter of the other (a-c and b-d, or a-d and b-c)."""
    N = form.N
    G = form.gram
    ident = tuple(range(N))

    def signed(swaps, letters):
        perm = list(ident)
        for i, j in swaps:
            perm[i], perm[j] = j, i
        for choice in range(2 ** len(letters)):
            signs = [1] * N
            for bit, i in enumerate(letters):
                if choice >> bit & 1:
                    signs[i] = -1
            yield tuple(perm), tuple(signs)

    for i in range(N):
        yield ident, tuple(-1 if k == i else 1 for k in range(N))
    for i, j in combinations(range(N), 2):
        yield from signed([(i, j)], [i, j])
    for a, b in combinations(range(N), 2):
        for c, d in combinations(range(N), 2):
            if a < c and not {a, b} & {c, d} and (G[a][c] and G[b][d] or G[a][d] and G[b][c]):
                yield from signed([(a, b), (c, d)], [a, b, c, d])


@lru_cache(maxsize=None)
def monomial_isometries(form: BilinearForm) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """A small generating set of signed permutations that preserve the Gram.

    Derived from the Gram alone: a candidate of ``_candidates`` is kept
    when it preserves the Gram exactly and joins two classes of signed
    letters ±e_i under the generators kept so far (a union-find over the
    2N signed letters).  So at most 2N - 1 generators are kept, the cost is
    polynomial in N, and the group is never enumerated.  Empty when only
    the identity qualifies.
    """
    parent = {(i, s): (i, s) for i in range(form.N) for s in (1, -1)}

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    kept = []
    for g in _candidates(form):
        perm, signs = g
        moves = [(find((i, s)), find((perm[i], s * signs[i])))
                 for i in range(form.N) for s in (1, -1)]
        if all(x == y for x, y in moves) or not preserves_gram(form, g):
            continue
        kept.append(g)
        for x, y in moves:
            parent[find(x)] = find(y)
    return tuple(kept)


def code_table(g, N: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(π_g, s_g) on codes: g^{⊗n}·e_code = s_g(code)·e_{π_g(code)}; letter
    d of slot k lands at perm[d]·N^(n-k) (``slot_codes``)."""
    perm, signs = g
    targets = slot_codes([[perm[d] * N ** (n - k) for d in range(N)] for k in range(1, n + 1)])
    sgn = [1]
    for _ in range(n):
        sgn = [s * signs[i] for s in sgn for i in range(N)]
    return tuple(targets), tuple(sgn)


class ColumnOrbits(NamedTuple):
    """The orbits of the codes of the n-fold tensor power under the
    generators of ``monomial_isometries``.

    ``tables`` holds each generator's ``code_table``; ``representatives``
    holds the least code of each orbit, in increasing order; ``steps``
    lists every other code as (code, parent, t) with
    code = tables[t][0][parent], orbit by orbit in the order of the
    representatives and breadth-first inside each orbit.  So the steps of
    one orbit are contiguous, the first of them has the representative as
    its parent, and each parent comes before its children.
    """

    tables: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    representatives: tuple[int, ...]
    steps: tuple[tuple[int, int, int], ...]


@lru_cache(maxsize=None)
def column_orbits(form: BilinearForm, n: int) -> ColumnOrbits:
    """Orbits by one breadth-first search per orbit over the code tables."""
    dim = form.N ** n
    tables = tuple(code_table(g, form.N, n) for g in monomial_isometries(form))
    seen = bytearray(dim)
    reps, steps = [], []
    for start in range(dim):
        if seen[start]:
            continue
        seen[start] = 1
        reps.append(start)
        queue = [start]
        for x in queue:
            for t, (targets, _) in enumerate(tables):
                y = targets[x]
                if not seen[y]:
                    seen[y] = 1
                    steps.append((y, x, t))
                    queue.append(y)
    return ColumnOrbits(tables, tuple(reps), tuple(steps))


def commutes_with(A: SparseOperator, table) -> bool:
    """A·g^{⊗n} == g^{⊗n}·A exactly, i.e. A[π r][π c] = s(r)·s(c)·A[r][c]
    for every stored entry; π is a bijection, so this also covers the
    positions where A is zero.

    The check at row r reads only the row object there, the row object at
    π r and s(r), so it is made once per triple (row object, image row
    object, s(r)): rows that share objects (``SparseOperator``) repeat no
    work, and the verdict is the same as with every row checked."""
    targets, signs = table
    rows = A.rows
    checked: set[tuple[int, int, int]] = set()
    for r, row in rows.items():
        image = rows.get(targets[r])
        if image is None:
            return False
        sr = signs[r]
        key = (id(row), id(image), sr)
        if key in checked:
            continue
        if len(image) != len(row):
            return False
        for c, v in row.items():
            if image.get(targets[c]) != sr * signs[c] * v:
                return False
        checked.add(key)
    return True


# ---------------------------------------------------------------------------
# operator products applied to unit columns
#
# A set of columns of a matrix on the tensor power is one integer vector
# with keys row·dim + col, the layout the limit engine's start vector uses.
#
# A move applies the integer numerators X of an operator to such a vector:
# move(vec, scale=1, into=None) adds scale·X·vec into the dict ``into``
# and returns it, or returns a new dict of scale·X·vec when ``into`` is
# None.  A new dict may hold zeros.  Each move does only its operator's
# work: a permutation relabels keys (``_relabel``), a rank-one unit
# operator pairs then inserts (``_pair_insert``), and any other operator
# takes each row object once (``_object_move``).


def left_multiplication(op: SparseOperator, dim: int | None = None):
    """The move u ↦ op.rows·u by op's integer numerators (the den is the
    caller's), on vectors with keys row·dim + col: entry (k, c) moves to
    (r, c) with weight op.rows[r][k].

    ``dim`` defaults to op.dim.  A multiple N^m·op.dim stands for
    1^{⊗m} ⊗ op, which moves row a·op.dim + k to a·op.dim + r for every
    a, so the lifted operator is never built.

    A permutation matrix (``_permutation``), such as ``perm_op`` or the
    identity, relabels keys by one shift per code.  Any other operator
    sums each entry into its row objects and writes each sum once at every
    row index that holds the object (``_object_move``), so rows that share
    an object (``SparseOperator``) share the work.  Codes with equal
    shifts or (shift, weight) pairs share one object, so the move holds a
    few objects and one list slot per code.
    """
    dim = dim or op.dim
    targets = _permutation(op)
    if targets is None:
        return _object_move(op, dim)
    patterns: dict[int, int] = {}
    shifts = [patterns.setdefault(s, s) for s in ((t - k) * dim for k, t in enumerate(targets))]
    return _relabel(shifts * (dim // op.dim), dim)


def _permutation(op: SparseOperator) -> list[int] | None:
    """The row of each column's entry when op is a permutation matrix, every
    column holding one entry 1 in a row of its own; else None."""
    if op.den != 1 or len(op.rows) != op.dim:
        return None
    targets: list[int | None] = [None] * op.dim
    for r, row in op.rows.items():
        if len(row) != 1:
            return None
        ((c, v),) = row.items()
        if v != 1 or targets[c] is not None:
            return None
        targets[c] = r
    return targets


def _object_move(op: SparseOperator, dim: int):
    """The move of op's rows, each row object taken once: entry key =
    k·dim + c adds op[r][k]·x to one sum per row object and base, the key
    of row 0 of k's block a·op.dim at column c, and each nonzero sum is
    written at base + r·dim for every row index r that holds the object.
    A sum is keyed i·dim² + base for the object's index i."""
    sub, span = op.dim, dim * dim
    offsets: list[list[int]] = []  # per object, r·dim for each row index r holding it
    lists: dict[int, list[tuple[int, int]]] = {}
    for i, (row, indices) in enumerate(op.row_objects()):
        offsets.append([r * dim for r in indices])
        for k, v in row.items():
            lists.setdefault(k, []).append((i * span, v))
    patterns: dict[tuple, tuple] = {}
    table = [patterns.setdefault(t, t) for t in (tuple(lists.get(k, ())) for k in range(sub))]
    table *= dim // sub

    def move(vec: dict[int, int], scale: int = 1, into: dict | None = None) -> dict[int, int]:
        sums: dict[int, int] = {}
        get = sums.get
        for key, x in vec.items():
            k = key // dim
            base = key - k % sub * dim
            for shift, v in table[k]:
                s = shift + base
                sums[s] = get(s, 0) + v * x
        out: dict[int, int] = {} if into is None else into
        get = out.get
        for s, total in sums.items():
            if total:
                i, base = divmod(s, span)
                total *= scale
                for off in offsets[i]:
                    nk = base + off
                    out[nk] = get(nk, 0) + total
        return out
    return move


def _relabel(shifts: list[int], dim: int):
    """The move of a permutation matrix: entry key = row·dim + col goes to
    key + shifts[row] with weight 1.  The new keys are distinct, so a new
    dict is one comprehension."""
    def move(vec: dict[int, int], scale: int = 1, into: dict | None = None) -> dict[int, int]:
        if into is None:
            if scale == 1:
                return {key + shifts[key // dim]: x for key, x in vec.items()}
            return {key + shifts[key // dim]: scale * x for key, x in vec.items()}
        get = into.get
        for key, x in vec.items():
            nk = key + shifts[key // dim]
            into[nk] = get(nk, 0) + scale * x
        return into
    return move


def _pair_insert(pairing: list, inserts: list[tuple[int, int]], dim: int):
    """The move of a rank-one operator u·vᵀ that keeps the slots outside
    its own: pairing[row] is (shift, v_row) or None where v is 0, and
    key + shift is the key's base, its two slots cleared; inserts holds
    (offset, u_i) for the nonzero u_i.  Each entry's pairing is summed into
    its base, and u is inserted once at every nonzero base."""
    def move(vec: dict[int, int], scale: int = 1, into: dict | None = None) -> dict[int, int]:
        sums: dict[int, int] = {}
        get = sums.get
        for key, x in vec.items():
            p = pairing[key // dim]
            if p is not None:
                shift, w = p
                base = key + shift
                sums[base] = get(base, 0) + w * x
        if scale != 1:
            sums = {base: s * scale for base, s in sums.items()}
        if into is None:
            return {base + off: u * s for base, s in sums.items() if s for off, u in inserts}
        get = into.get
        for base, s in sums.items():
            if s:
                for off, u in inserts:
                    nk = base + off
                    into[nk] = get(nk, 0) + u * s
        return into
    return move


def _check_name(name: tuple, n: int):
    """Raise on a name that names no unit operator on n slots."""
    kind, k, l = name
    if not (1 <= k <= n and 1 <= l <= n) or k == l:
        raise IndexError(f"slots must be distinct and within 1..{n}: {name!r}")
    if kind not in ("P", "Q"):
        raise ValueError(f"unknown unit operator {name!r}: the kinds are P and Q")


def unit_operator(name: tuple, N: int, n: int, form: BilinearForm) -> SparseOperator:
    """The unit operator that ``name`` names on n slots of C^N: ("P", i, j)
    the exchange P_ij of slots i and j, ("Q", k, l) the contraction Q_kl of
    ``form``.  Built anew on every call; ``unit_move`` calls this once per
    kind, N and form, on two slots."""
    _check_name(name, n)
    kind, k, l = name
    if kind == "P":
        return perm_op(Permutation.transposition(n, k, l), N)
    return q_op(k, l, form, n)


def unit_move(name: tuple, N: int, n: int, form: BilinearForm) -> tuple:
    """(move, den, commutes) of a named unit operator X on n slots: its
    ``left_multiplication`` move, its den, and whether it commutes exactly
    with every generator of ``column_orbits(form, n)``.  A name that names
    no unit operator raises before anything is built.

    X is X₂ on its two slots k < l and the identity elsewhere, with X₂ the
    operator of its kind on C^N ⊗ C^N (P_12, or Q_12 of ``form``; P_lk = P_kl
    and Q_lk = Q_kl).  So X₂ is built and checked once per kind, N and
    form (``_pair_entry``), and each name's move is lifted from X₂'s
    columns and checked against them (``_check_lift``).  An exchange
    relabels keys, and a contraction, rank one on its slots, pairs each
    entry into its base and then inserts w once per base.  The verdict is
    exact: [X, g^{⊗n}] = [X₂, g^{⊗2}] ⊗ g^{⊗(n−2)}
    on the slots, which is zero exactly when [X₂, g^{⊗2}] is.  No operator
    on n slots is built, and none is reachable, so none can be mutated.
    An exchange is keyed and checked on the identity Gram for every form:
    its generators generate all signed letter permutations, so one P
    entry per (name, N, n) serves all forms."""
    _check_name(name, n)
    if name[0] == "P":
        form = standard_form("symmetric", N)
    return _unit_entry(name, N, n, form)


def _rank_one(X: SparseOperator) -> tuple[dict[int, int], dict[int, int]] | None:
    """(pairing, inserts), integer vectors v over the columns and u over
    the rows with X.rows[r][c] = u_r·v_c for every entry, when X's
    numerators have rank one; else None.  v is the first row divided by
    its content, so every row is an integer multiple of it."""
    if not X.rows:
        return None
    first = next(iter(X.rows.values()))
    g = math.gcd(*first.values())
    pairing = {c: v // g for c, v in first.items()}
    c0, v0 = next(iter(pairing.items()))
    inserts = {}
    for r, row in X.rows.items():
        u, rest = divmod(row.get(c0, 0), v0)
        if rest or len(row) != len(pairing) or any(row.get(c) != u * v
                                                   for c, v in pairing.items()):
            return None
        inserts[r] = u
    return pairing, inserts


@lru_cache(maxsize=16)
def _pair_entry(kind: str, N: int, form: BilinearForm) -> tuple:
    """(table, columns, den, commutes) of X₂ = ``unit_operator((kind, 1, 2),
    N, 2, form)``, with commutes X₂'s exact verdict against every generator
    of ``column_orbits(form, 2)``, columns[a·N + b] the entries of X₂'s
    column a·N + b as (a' − a, b' − b, weight) for row a'·N + b', and table
    the one move table that X₂'s shape needs:

    - ("relabel", offsets) for a permutation matrix, such as P_12:
      offsets[a·N + b] = (a' − a, b' − b) for its entry in row a'·N + b';
    - ("pair", pairing, inserts) for rank one, such as Q_12, whose entry
      is <e_a, e_b>·w_ij: pairing[a·N + b] is the column's weight and
      inserts lists (i, j, weight) for each nonzero row i·N + j
      (``_rank_one``).

    Every unit operator is one of these two; any other X₂ raises
    ArithmeticError."""
    X = unit_operator((kind, 1, 2), N, 2, form)
    commutes = all(commutes_with(X, t) for t in column_orbits(form, 2).tables)
    columns: list[list[tuple[int, int, int]]] = [[] for _ in range(N * N)]
    for r, row in X.rows.items():
        for c, v in row.items():
            columns[c].append((r // N - c // N, r % N - c % N, v))
    targets = _permutation(X)
    if targets is not None:
        table = ("relabel", tuple((t // N - c // N, t % N - c % N) for c, t in enumerate(targets)))
    elif (factors := _rank_one(X)) is not None:
        pairing, inserts = factors
        table = ("pair", tuple(pairing.get(c, 0) for c in range(N * N)),
                 tuple((r // N, r % N, u) for r, u in inserts.items()))
    else:
        raise ArithmeticError(f"{kind}_12 on C^{N} ⊗ C^{N} is neither a permutation "
                              "nor rank one")
    return table, tuple(map(tuple, columns)), X.den, commutes


@lru_cache(maxsize=256)
def _unit_entry(name: tuple, N: int, n: int, form: BilinearForm) -> tuple:
    """unit_move's cached entry: the move of ``_pair_entry``'s table lifted
    from X₂'s columns to slots k < l.  A code's letters a, b in those
    slots pick X₂'s column a·N + b (one ``slot_codes`` index), and a row
    offset (a' − a, b' − b) there moves the code by
    (a' − a)·N^(n−k) + (b' − b)·N^(n−l).  So an exchange keeps one shift
    per code, and a contraction one pairing (shift to the code's base,
    weight) per code and one insert list of N^2 offsets at most; codes
    share the lifted objects of their column.  The lifted move is checked
    against X₂'s columns before it is kept (``_check_lift``)."""
    kind, k, l = name
    k, l = min(k, l), max(k, l)
    (how, *table), columns, den, commutes = _pair_entry(kind, N, form)
    dim = N ** n
    wk, wl = N ** (n - k) * dim, N ** (n - l) * dim
    pair = _column_index(N, n, k, l)
    if how == "relabel":
        lifted = [da * wk + db * wl for da, db in table[0]]
        move = _relabel([lifted[c] for c in pair], dim)
    else:
        pairing, inserts = table
        lifted = [(-(c // N * wk + c % N * wl), v) if v else None for c, v in enumerate(pairing)]
        move = _pair_insert([lifted[c] for c in pair],
                            [(i * wk + j * wl, u) for i, j, u in inserts], dim)
    _check_lift(move, columns, k, l, N, n)
    return move, den, commutes


def _column_index(N: int, n: int, k: int, l: int) -> list[int]:
    """a·N + b for each code on n slots, with a and b its letters on slots
    k and l: the column of X₂ that the code's lifted entry comes from."""
    return slot_codes([[d * N for d in range(N)] if s == k else range(N) if s == l
                       else [0] * N for s in range(1, n + 1)])


def _check_lift(move, columns, k: int, l: int, N: int, n: int):
    """Raise ArithmeticError unless ``move`` is X₂ on slots k < l and the
    identity elsewhere at the unit columns of the codes that hold a letter
    pair on those slots and one letter on every other slot (N^3 codes,
    N^2 at n = 2).  The
    move at a code is its column's lifted entry, picked by the code's
    ``_column_index``, so these codes read every lifted entry, each on N
    backgrounds, which an index that mixes in another slot's letter
    misplaces.  The reference writes each code's letters, places X₂'s
    column there (``columns``, read off X₂'s rows) and encodes the
    result, so it shares no table, shift or index with the move.  Each
    code is moved and compared alone, so the check holds a few small
    dicts at a time."""
    dim = N ** n
    backgrounds = range(1, N + 1) if n > 2 else (1,)
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            for e in backgrounds:
                letters = [a if s == k else b if s == l else e for s in range(1, n + 1)]
                c = encode(letters, N)
                want = {}
                for da, db, v in columns[(a - 1) * N + b - 1]:
                    letters[k - 1], letters[l - 1] = a + da, b + db
                    want[encode(letters, N) * dim + c] = v
                if {key: x for key, x in move({c * dim + c: 1}).items() if x} != want:
                    raise ArithmeticError(f"the move lifted to slots {k}, {l} of C^{N}^⊗{n} "
                                          f"is not its two-slot operator at column {c}")


def _clear_units(caches=(_unit_entry, _pair_entry)):
    for cache in caches:
        cache.cache_clear()


# the cache's statistics and reset, as an lru_cache function carries them;
# the reset empties the two-slot entries too, bound here so that it reaches
# the caches themselves while a test wraps either function
unit_move.cache_info = _unit_entry.cache_info
unit_move.cache_clear = _clear_units


@dataclass(frozen=True)
class SubspaceBasis:
    """Exact basis of a subspace of the tensor power, in canonical form.

    Each vector is a sorted tuple of (code, int) pairs, and together they
    are the integer RREF of ``kernels.echelon``: primitive rows with a
    positive pivot, sorted by pivot.  A subspace has exactly one such
    basis, so equal subspaces have equal ``vectors``.
    """

    ambient: int
    vectors: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)


def _blocks(rows):
    """Connected blocks of sparse int rows {col: value}: two rows share a
    block when they share a column.  An operator's callers pass each row
    object once (``SparseOperator.row_objects``).  The rows are grouped by
    their column support, as the tuple of their keys, and one union-find
    pass runs over the distinct supports.  Two rows on one support that
    list it in different orders fall in two groups, which the union-find
    joins; a tuple key takes a fraction of a frozenset's memory.  Yields
    (sorted block columns, the block's distinct rows densified over those
    columns, as tuples); empty rows are skipped, and a row that repeats
    another is yielded once, since it changes no span, kernel or rank."""
    supports: dict[tuple[int, ...], list[dict[int, int]]] = {}
    for row in rows:
        if row:
            supports.setdefault(tuple(row), []).append(row)
    parent: dict[int, int] = {}  # column -> parent column; roots map to themselves

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    for support in supports:
        root = None
        for c in support:
            c = find(parent.setdefault(c, c))
            if root is None:
                root = c
            elif c != root:
                parent[c] = root
    blocks: dict[int, list[tuple[int, ...]]] = {}
    for support in supports:
        blocks.setdefault(find(support[0]), []).append(support)
    for block in blocks.values():
        cols = sorted(frozenset().union(*block))
        dense = dict.fromkeys(tuple(map(row.get, cols, repeat(0)))
                              for support in block for row in supports[support])
        yield cols, list(dense)


def _span(ambient: int, rows) -> SubspaceBasis:
    """Canonical basis of the span of sparse int rows, eliminated per block.

    The rows of different blocks have disjoint supports, so the union of
    the blocks' canonical rows, sorted by pivot, is the canonical form of
    the whole span.  Each block's distinct rows are eliminated once; the
    canonical form depends only on the span, so repeats would not change
    it."""
    vectors = []
    for cols, dense in _blocks(rows):
        _, reduced = kernels.echelon(dense, len(cols))
        vectors.extend(tuple((cols[j], v) for j, v in enumerate(row) if v) for row in reduced)
    vectors.sort()
    return SubspaceBasis(ambient, tuple(vectors))


def _null_space(rows, ncols: int) -> list[dict[int, int]]:
    """Integer basis of {x : row·x = 0 for every sparse int row}, one vector
    per free column of the echelon form of each block's distinct rows,
    plus one unit vector per column that no row touches.  Every column of
    a block stays an unknown, repeated or not."""
    untouched = set(range(ncols))
    vectors = []
    for cols, dense in _blocks(rows):
        untouched.difference_update(cols)
        pivots, reduced = kernels.echelon(dense, len(cols))
        pivot_set = set(pivots)
        for f in range(len(cols)):
            if f in pivot_set:
                continue
            hits = [(p, row) for p, row in zip(pivots, reduced) if row[f]]
            scale = math.lcm(*(row[p] for p, row in hits))
            vec = {cols[f]: scale}
            for p, row in hits:
                vec[cols[p]] = -row[f] * (scale // row[p])
            vectors.append(vec)
    vectors.extend({c: 1} for c in sorted(untouched))
    return vectors


def image_basis(A: SparseOperator) -> SubspaceBasis:
    """Column space of the numerators (the den does not change it),
    eliminated over classes of rows.

    The row indices that hold one row object (``SparseOperator``) form a
    class K, and every column c of A is constant on it, so column c is
    Σ_K row_K[c]·1_K with 1_K the indicator vector of K.  The columns are
    thus the images, under y ↦ Σ_K y_K·1_K, of the columns of the class
    matrix, which has one row per class: only one row per object is
    transposed.  That map is injective and copies coordinates, so it keeps
    zeros and gcds; with the classes ordered by their least row index, the
    first nonzero coordinate of an image is the least row of the first
    nonzero class, so it keeps pivots too.  So the class matrix's canonical
    basis, each vector expanded over its classes, is image(A)'s canonical
    basis, byte for byte."""
    classes = A.row_objects()
    columns: dict[int, dict[int, int]] = {}
    for k, (row, _) in enumerate(classes):
        for c, v in row.items():
            columns.setdefault(c, {})[k] = v
    reduced = _span(len(classes), columns.values())
    members = [indices for _, indices in classes]
    return SubspaceBasis(A.dim, tuple(tuple(sorted((r, v) for k, v in vec for r in members[k]))
                                      for vec in reduced.vectors))


def _distinct_rows(A: SparseOperator) -> list[dict[int, int]]:
    return [row for row, _ in A.row_objects()]


def row_basis(A: SparseOperator) -> SubspaceBasis:
    """Row space of the numerators."""
    return _span(A.dim, _distinct_rows(A))


def kernel_basis(A: SparseOperator) -> SubspaceBasis:
    return _span(A.dim, _null_space(_distinct_rows(A), A.dim))


def rank(A: SparseOperator) -> int:
    """Exact rank, summed over the connected blocks of A's nonzero pattern.

    Permuting rows and columns makes A block-diagonal over the blocks that
    ``_blocks`` finds, so rank(A) is the sum of the block ranks.  A
    repeated row or column leaves a rank unchanged, so each block's rank
    is the pivot count of ``kernels.echelon`` on its distinct columns,
    taken as the rows of the transpose of its distinct rows' integer
    numerators.  The common denominator does not change the rank.
    """
    total = 0
    for _, dense in _blocks(_distinct_rows(A)):
        columns = list(dict.fromkeys(zip(*dense)))
        total += len(kernels.echelon(columns, len(dense))[0])
    return total


def acts_as_scalar(A: SparseOperator, basis: SubspaceBasis, sigma,
                   on_rows: bool = False) -> bool:
    """Whether A·b = σ·b for every vector b of ``basis``, or b·A = σ·b with
    ``on_rows``, exactly.

    One pass over A's entries moves every vector at once: entry (r, c)
    adds A[r][c]·b[c] to (A·b)[r], or with ``on_rows`` b[r]·A[r][c] to
    (b·A)[c].  The sums (A·b)[r] are taken once per row object and written
    at every row index that holds it (``SparseOperator``).  The results,
    over A.den, are compared with σ·b cross-multiplied.  Neither A nor the
    basis needs any symmetry."""
    if basis.ambient != A.dim:
        raise AmbientMismatch(f"a subspace of C^{basis.ambient} under an operator on C^{A.dim}")
    sigma = Fraction(sigma)
    at: dict[int, list[tuple[int, int]]] = {}  # code -> (vector, its entry there)
    for j, vec in enumerate(basis.vectors):
        for code, x in vec:
            at.setdefault(code, []).append((j, x))
    moved: list[dict[int, int]] = [{} for _ in basis.vectors]
    if on_rows:
        for r, row in A.rows.items():
            for j, x in at.get(r, ()):
                out = moved[j]
                for c, v in row.items():
                    out[c] = out.get(c, 0) + x * v
    else:
        for row, indices in A.row_objects():
            sums: dict[int, int] = {}  # j -> (A·b_j) at the object's rows
            for c, v in row.items():
                for j, x in at.get(c, ()):
                    sums[j] = sums.get(j, 0) + v * x
            for j, total in sums.items():
                out = moved[j]
                for r in indices:
                    out[r] = total
    p, q = sigma.numerator * A.den, sigma.denominator
    for out, vec in zip(moved, basis.vectors):
        want = {code: p * x for code, x in vec}
        if any(out.get(k, 0) * q != want.get(k, 0) for k in out.keys() | want.keys()):
            return False
    return True


@lru_cache(maxsize=None)
def traceless_basis(N: int, n: int, form: BilinearForm) -> SubspaceBasis:
    """Joint kernel of all pairwise contraction operators, i.e. the kernel
    of their stacked rows.

    Valid as the traceless subspace because inserting the invariant
    two-tensor is injective, so the (k,l)-contraction of a tensor
    vanishes exactly when the corresponding contraction-insertion does.
    """
    stacked = [row for k, l in combinations(range(1, n + 1), 2)
               for row in q_op(k, l, form, n).rows.values()]
    return _span(N ** n, _null_space(stacked, N ** n))


def subspace_equal(A: SubspaceBasis, B: SubspaceBasis) -> bool:
    if A.ambient != B.ambient:
        raise AmbientMismatch(f"ambient dimensions {A.ambient} and {B.ambient} differ")
    return A.vectors == B.vectors  # both are in the canonical form


def intersect(A: SubspaceBasis, B: SubspaceBasis) -> SubspaceBasis:
    """Exact intersection via the kernel of the stacked coefficient system."""
    if A.ambient != B.ambient:
        raise AmbientMismatch(f"ambient dimensions {A.ambient} and {B.ambient} differ")
    # Solve Σ x_i·A_i - Σ y_j·B_j = 0: one equation per ambient coordinate
    # over the unknowns (x, y); the bases are independent, so each solution
    # gives a nonzero Σ x_i·A_i.
    system: dict[int, dict[int, int]] = {}
    for i, vec in enumerate(A.vectors):
        for c, v in vec:
            system.setdefault(c, {})[i] = v
    for j, vec in enumerate(B.vectors, A.dim):
        for c, v in vec:
            system.setdefault(c, {})[j] = -v
    return _combinations(A, _null_space(system.values(), A.dim + B.dim))


def _combinations(basis: SubspaceBasis, coefficients) -> SubspaceBasis:
    """Span of Σ y_j·b_j over the vectors b_j of ``basis``, one sum per
    coefficient vector y = {j: y_j}; indices j past basis.dim are skipped."""
    sums = []
    for y in coefficients:
        vec: dict[int, int] = {}
        for j, x in y.items():
            if j < basis.dim:
                for c, v in basis.vectors[j]:
                    vec[c] = vec.get(c, 0) + x * v
        sums.append({c: v for c, v in vec.items() if v})
    return _span(basis.ambient, sums)


def kernel_within(basis: SubspaceBasis, moves) -> SubspaceBasis:
    """{x in the span of ``basis`` : move(x) = 0 for every move}, with each
    move a ``left_multiplication`` of an operator on C^basis.ambient.

    The basis vectors are the columns of one start vector keyed
    row·dim + j; entry (r, j) of each moved vector is coordinate r of the
    image of vector j.  So x = Σ y_j·b_j is in the kernel exactly when y
    solves every such row, and the null space is taken over basis.dim
    unknowns, not over the ambient space."""
    dim = basis.ambient
    start = {code * dim + j: v for j, vec in enumerate(basis.vectors) for code, v in vec}
    equations = []
    for move in moves:
        rows: dict[int, dict[int, int]] = {}
        for key, v in move(start).items():
            if v:
                r, j = divmod(key, dim)
                rows.setdefault(r, {})[j] = v
        equations.extend(rows.values())
    return _combinations(basis, _null_space(equations, basis.dim))
