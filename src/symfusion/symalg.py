"""The symmetric group algebra and the fusion procedure inside it.

Composition convention, used everywhere and load-bearing for the
recursion and ordering conventions below: (s∘t)(i) = s(t(i)), i.e. the
right factor acts first.  Products of algebra elements append factors on
the right, so an ordered product f1·f2·…·fT is built left to right.

The hot loops run on permutation ranks, not tuples.  S_n is listed once
per n in lexicographic order of its image tuples (``_perms``), so rank 0
is the identity, and each rank move is a table built the first time a
step needs it: right multiplication by (i j) swaps positions i and j
(``_position_swap``), and left multiplication swaps values, which is a
position swap conjugated by the inverse-rank table.  Tuples appear only
at the ``GroupAlgebraElement`` boundary, and they are the shared tuples
of the one table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, cycle, permutations, product, repeat
from math import factorial, gcd, lcm, prod
from operator import add, floordiv, getitem, itemgetter
from typing import NamedTuple

from . import kernels
from .exactnum import format_rational, limit_at_zero, normal_form
from .shapes import Partition, SkewShape, StandardTableau


class DegreeMismatch(ValueError):
    """Operands live in symmetric groups of different degrees."""


class SkewShapeError(ValueError):
    """A non-skew tableau is required."""


class WrongTableau(ValueError):
    """The tableau is not the row (resp. column) tableau of its shape."""


class Permutation(tuple):
    """One-line notation on {1..n}: self[i-1] is the image of i."""

    def __new__(cls, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(images)}: {images}")
        return super().__new__(cls, images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(images)

    @classmethod
    def reversal(cls, n: int) -> "Permutation":
        return cls(range(n, 0, -1))

    @property
    def n(self) -> int:
        return len(self)

    def __call__(self, i: int) -> int:
        return self[i - 1]

    def sign(self) -> int:
        seen = [False] * len(self)
        sign = 1
        for i in range(len(self)):
            if seen[i]:
                continue
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = self[j] - 1
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    def cycles(self) -> str:
        """Cycle notation, e.g. "(1 2)(3 5 4)"; identity prints as "()"."""
        seen = [False] * len(self)
        parts = []
        for i in range(len(self)):
            if seen[i] or self[i] == i + 1:
                seen[i] = True
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j + 1)
                j = self[j] - 1
            parts.append("(" + " ".join(str(v) for v in cyc) + ")")
        return "".join(parts) if parts else "()"


def compose(s: Permutation, t: Permutation) -> Permutation:
    if len(s) != len(t):
        raise DegreeMismatch(f"degrees {len(s)} and {len(t)} differ")
    return Permutation(kernels.compose(tuple(s), tuple(t)))


class GroupAlgebraElement:
    """Formal combination of permutations of a fixed degree.

    The coefficient of s is ``terms[s] / den``.  The constructor takes
    rational coefficients (repeated keys add up) and brings them to
    ``exactnum.normal_form``: nonzero int numerators over one positive
    ``den`` with no common factor, den 1 for zero.  So equality compares
    the stored fields.  Term keys are raw image tuples for kernel speed: a
    dict whose keys are all plain tuples cannot repeat one and goes to
    ``normal_form`` as it is; any other input is summed key by key.
    """

    __slots__ = ("n", "terms", "den")

    def __init__(self, n: int, terms=None, den: int = 1):
        if isinstance(terms, dict) and set(map(type, terms)) <= {tuple}:
            acc = terms  # normal_form copies it
        else:
            acc = {}
            for s, c in (terms.items() if isinstance(terms, dict) else terms or ()):
                key = tuple(s)
                acc[key] = acc.get(key, 0) + c
        self.n = n
        (self.terms,), self.den = normal_form([acc], den)

    def _check(self, other: "GroupAlgebraElement"):
        if self.n != other.n:
            raise DegreeMismatch(f"degrees {self.n} and {other.n} differ")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, GroupAlgebraElement)
                and (self.n, self.den) == (other.n, other.den) and self.terms == other.terms)

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        out = {s: c * fa for s, c in self.terms.items()}
        for s, c in other.terms.items():
            out[s] = out.get(s, 0) + c * fb
        return GroupAlgebraElement(self.n, out, den)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + other.scaled(-1)

    def scaled(self, c) -> "GroupAlgebraElement":
        c = Fraction(c)
        return GroupAlgebraElement(self.n, {s: v * c.numerator for s, v in self.terms.items()},
                                   self.den * c.denominator)

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(other)
        return GroupAlgebraElement(self.n, kernels.ga_mul(self.terms, other.terms),
                                   self.den * other.den)

    def coeff(self, s) -> Fraction:
        return Fraction(self.terms.get(tuple(s), 0), self.den)

    def identity_coeff(self) -> Fraction:
        return self.coeff(range(1, self.n + 1))

    def to_json(self) -> list[dict]:
        return [{"cycles": Permutation(s).cycles(), "coeff": format_rational(self.coeff(s))}
                for s in sorted(self.terms)]

    def __repr__(self):
        parts = [f"{self.coeff(s)!r}*{Permutation(s).cycles()}" for s in sorted(self.terms)]
        return f"GA{self.n}[" + " + ".join(parts) + "]"


# ---------------------------------------------------------------------------
# S_n indexed by rank


@lru_cache(maxsize=None)
def _perms(n: int) -> tuple[tuple[int, ...], ...]:
    """S_n in lexicographic order of the image tuples; rank 0 is the identity.

    The permutations that fix 1..m come first, and their tails, shifted
    down by m, are S_{n-m} in its own order: the rank of such a
    permutation is the rank of its tail."""
    return tuple(permutations(range(1, n + 1)))


@lru_cache(maxsize=None)
def _rank(n: int) -> dict[tuple[int, ...], int]:
    """{image tuple: rank} for S_n; callers must not change it."""
    perms = _perms(n)
    return dict(zip(perms, range(len(perms))))


@lru_cache(maxsize=256)
def _position_swap(n: int, i: int, j: int) -> tuple[int, ...]:
    """table[r] = rank of τ∘(i j) for τ of rank r: swaps positions i and j.

    The permutations that agree before position i fill a block of
    (n - i + 1)! consecutive ranks, ordered as their tails are in
    S_{n-i+1}, so for i > 1 each block moves as S_{n-i+1} under
    (1 j-i+1)."""
    if i > 1:
        inner = _position_swap(n - i + 1, 1, j - i + 1)
        starts = range(0, factorial(n), len(inner))
        return tuple(map(add, chain.from_iterable(map(repeat, starts, repeat(len(inner)))),
                         cycle(inner)))
    order = list(range(n))
    order[i - 1], order[j - 1] = j - 1, i - 1
    return tuple(map(_rank(n).__getitem__, map(itemgetter(*order), _perms(n))))


@lru_cache(maxsize=None)
def _inverse_ranks(n: int) -> tuple[int, ...]:
    """table[r] = rank of τ⁻¹ for τ of rank r.  bytes.maketrans(τ, 1..n)
    maps each value to its position, so its bytes 1..n spell τ⁻¹."""
    values = bytes(range(1, n + 1))
    tables = map(bytes.maketrans, map(bytes, _perms(n)), repeat(values))
    inverses = map(tuple, map(getitem, tables, repeat(slice(1, n + 1))))
    return tuple(map(_rank(n).__getitem__, inverses))


@lru_cache(maxsize=256)
def _exchange_tables(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The ranks of s∘τ, τ∘s and s∘τ∘s for s = (k k+1) and every τ.

    s∘τ swaps the values k and k+1, so it is the position swap on τ⁻¹:
    s∘τ = (τ⁻¹∘s)⁻¹."""
    inv = _inverse_ranks(n)
    right = _position_swap(n, k, k + 1)
    left = tuple(map(inv.__getitem__, map(right.__getitem__, inv)))
    return left, right, tuple(map(left.__getitem__, right))


def _terms(n: int, nums) -> dict[tuple[int, ...], int]:
    """{image tuple: numerator} for the nonzero numerators by rank; ``nums``
    may be longer than n!, and only its first n! entries are read."""
    return dict(compress(zip(_perms(n), nums), nums))


# ---------------------------------------------------------------------------
# Young symmetrizers and diagonal matrix elements


def _require_non_skew(T: StandardTableau) -> None:
    if T.shape.is_skew:
        raise SkewShapeError(f"non-skew tableau required, got shape {T.shape}")


def _stabilizer_terms(T: StandardTableau, by_rows: bool, signed: bool) -> dict[tuple, int]:
    """{image tuple: ±1} of the sum over the row (or column) stabilizer of T.

    A term picks one arrangement of each block (row or column), so its
    sign is the product of the arrangements' signs, each computed once."""
    groups: dict[int, list[int]] = {}
    for (i, j), k in zip(T.shape.cells, T.entries):
        groups.setdefault(i if by_rows else j, []).append(k)
    blocks = [sorted(v) for _, v in sorted(groups.items())]
    # an image of v sits at slot[v - 1] of the blocks' images laid end to end
    slot = sorted(range(T.n), key=list(chain.from_iterable(blocks)).__getitem__)
    flats = map(tuple, map(chain.from_iterable, product(*map(permutations, blocks))))
    keys = (tuple(map(flat.__getitem__, slot)) for flat in flats)
    if not signed:
        return dict.fromkeys(keys, 1)
    # permutations(b) runs in the order of _perms(len(b)), with the same signs
    signs = [list(map(Permutation.sign, _perms(len(b)))) for b in blocks]
    return dict(zip(keys, map(prod, product(*signs))))


def young_p(T: StandardTableau) -> GroupAlgebraElement:
    """Sum over the row stabilizer of T."""
    _require_non_skew(T)
    return GroupAlgebraElement(T.n, _stabilizer_terms(T, by_rows=True, signed=False))


def young_q(T: StandardTableau) -> GroupAlgebraElement:
    """Signed sum over the column stabilizer of T."""
    _require_non_skew(T)
    return GroupAlgebraElement(T.n, _stabilizer_terms(T, by_rows=False, signed=True))


def _row_numerator(T: StandardTableau) -> tuple[list[int], int]:
    """Integer numerators of p·q·p by rank, for the row tableau T, and
    λ1!·λ2!·…, which is its identity coefficient.

    p·q·p = Σ sign(c)·r∘c∘r' over r, r' in the row group R and c in the
    column group C.  The pairs (r, r') with r∘c∘r' = σ ∈ RcR number
    |R ∩ cRc⁻¹|, which is |R| over the number of cosets σR in RcR, so
    the coefficient of σ is that number times Σ sign(c) over the c in
    RσR.  The rows of T hold consecutive entries, and the double coset
    of σ is fixed by the pairs (row of i, row of σ(i)).  So no product
    is formed: each double coset with a nonzero sum is split into its
    cosets (r∘c)R, each named by its member sorted within rows, and the
    value is written to the ranks of their members.
    """
    n = T.n
    denom = prod(map(factorial, T.shape.lam.parts))
    C = _stabilizer_terms(T, by_rows=False, signed=True)
    rank = _rank(n)
    nums = [0] * factorial(n)
    if denom == 1:  # one box per row: R = 1, so p·q·p = q
        for c, sign in C.items():
            nums[rank[c]] = sign
        return nums, denom
    row_of = [None]  # row_of[v]: the row of position or value v
    long_rows = []
    for k, part in enumerate(T.shape.lam.parts):
        if part > 1:
            long_rows.append(slice(len(row_of) - 1, len(row_of) - 1 + part))
        row_of += [k] * part
    # the pair (row of i, row of σ(i)) as one int, listed in order
    pair_base = [len(T.shape.lam.parts) * k for k in row_of[1:]]
    totals: dict[tuple, int] = {}
    reps: dict[tuple, tuple] = {}
    for c, sign in C.items():
        key = tuple(sorted(map(add, pair_base, map(row_of.__getitem__, c))))
        totals[key] = totals.get(key, 0) + sign
        reps.setdefault(key, c)

    def coset_of(t):  # the member of tR sorted within rows
        t = list(t)
        for row in long_rows:
            t[row] = sorted(t[row])
        return tuple(t)

    R = list(_stabilizer_terms(T, by_rows=True, signed=False))
    members = [itemgetter(*[i - 1 for i in r]) for r in R]  # σ ↦ σ∘r
    for key, total in totals.items():
        if not total:
            continue
        r_of_c = map(itemgetter(*[v - 1 for v in reps[key]]), R)  # r∘c for r in R
        cosets = set(map(coset_of, r_of_c))
        total *= len(R) // len(cosets)  # |R ∩ cRc⁻¹|
        for rep in cosets:
            for r in map(rank.__getitem__, map(itemgetter.__call__, members, repeat(rep))):
                nums[r] = total
    return nums, denom


class _Diagonal(NamedTuple):
    """A cached diagonal element: nums[r]/den is the coefficient of the
    permutation of rank r, nums holds all n! of them, gcd(den, nums) = 1."""

    n: int
    nums: tuple[int, ...]
    den: int

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """{image tuple: numerator}, keyed by the shared tuples of ``_perms``."""
        return _terms(self.n, self.nums)

    def element(self) -> GroupAlgebraElement:
        """A new element, which the caller may change.  The entry is in
        normal form, so its terms are not brought there a second time."""
        e = object.__new__(GroupAlgebraElement)
        e.n, e.terms, e.den = self.n, self.terms, self.den
        return e


def _from_numerators(n: int, nums, den: int) -> _Diagonal:
    """The element Σ nums[r]/den · (rank r); its identity coefficient must be 1."""
    if den < 1 or nums[0] != den:
        raise ArithmeticError("diagonal matrix element lost its unit identity coefficient")
    g = gcd(den, *nums)
    nums = tuple(map(floordiv, nums, repeat(g)) if g > 1 else nums)
    return _Diagonal(n, nums, den // g)


def e_row(T: StandardTableau) -> GroupAlgebraElement:
    """Diagonal matrix element for the row tableau: p·q·p / (λ1!·λ2!·…)."""
    _require_non_skew(T)
    if not T.is_row_tableau():
        raise WrongTableau(f"{T} is not the row tableau of its shape")
    return _from_numerators(T.n, *_row_numerator(T)).element()


def e_col(T: StandardTableau) -> GroupAlgebraElement:
    """Diagonal matrix element for the column tableau: q·p·q / (λ'1!·λ'2!·…)."""
    from .shapes import column_tableau, conjugate

    _require_non_skew(T)
    if T != column_tableau(T.shape):
        raise WrongTableau(f"{T} is not the column tableau of its shape")
    p = young_p(T)
    q = young_q(T)
    denom = 1
    for part in conjugate(T.shape.lam).parts:
        denom *= factorial(part)
    e = (q * p * q).scaled(Fraction(1, denom))
    if e.identity_coeff() != 1:
        raise ArithmeticError("q·p·q lost its unit identity coefficient")
    return e


def _check_greedy(greedy: str) -> None:
    if greedy not in ("smallest", "largest"):
        raise ValueError(f"greedy must be 'smallest' or 'largest', got {greedy!r}")


def _walk_step(T: StandardTableau, greedy: str) -> int:
    """The descent k (the box of k lies strictly below the box of k+1)
    that the backward walk from T exchanges first: the smallest or the
    largest, per ``greedy``."""
    rows = T.rows()
    descents = [k for k in range(1, T.n) if rows[k - 1] > rows[k]]
    return min(descents) if greedy == "smallest" else max(descents)


def chain_from_row(T: StandardTableau, greedy: str = "smallest") -> list[int]:
    """Adjacent transpositions turning the row tableau into T.

    Every intermediate tableau along the chain is standard.  Walks from T
    back to the row tableau by repeatedly exchanging the descent
    ``_walk_step`` picks, then reverses the walk.  ``greedy`` is
    "smallest" or "largest"; any valid chain yields the same matrix
    element, which the tests exercise.
    """
    _check_greedy(greedy)
    ks = []
    cur = T
    while not cur.is_row_tableau():
        k = _walk_step(cur, greedy)
        ks.append(k)
        cur = cur.swap_adjacent(k)
    return ks[::-1]


def e_tableau(T: StandardTableau, greedy: str = "smallest") -> GroupAlgebraElement:
    """Diagonal matrix element e for an arbitrary standard tableau.

    Built from the row tableau along ``chain_from_row(T, greedy)``: with
    h = 1/d, d = c_{k+1} - c_k taken on the current tableau, each
    exchange maps e to (s_k - h)·e·(s_k - h)/(1 - h²).  The walk is
    deterministic, so chain(T) = chain(T') + [k] for its first step k and
    T' = T.swap_adjacent(k): each element is one exchange from its chain
    parent's, which a bounded cache keeps as numerators by rank, and the
    row tableau's element is p·q·p.  So the f^λ tableaux of a shape cost
    f^λ - 1 exchanges and one row numerator; an evicted parent is
    rebuilt.  Each call returns a new element keyed by the shared tuples
    of S_n's table, which the caller may change.  ``greedy`` is
    "smallest" or "largest"; both give the same e.
    """
    _require_non_skew(T)
    _check_greedy(greedy)
    return _diagonal_element(T, greedy).element()


@lru_cache(maxsize=256)
def _diagonal_element(T: StandardTableau, greedy: str) -> _Diagonal:
    """e_tableau's cached element: n, the numerators of all n! ranks as a
    tuple, and the den."""
    if T.is_row_tableau():
        return _from_numerators(T.n, *_row_numerator(T))
    k = _walk_step(T, greedy)
    parent = T.swap_adjacent(k)  # raises unless the exchange is admissible
    if parent.swap_adjacent(k) != T:
        raise ArithmeticError(f"exchange from {parent} ended elsewhere, not at {T}")
    e = _diagonal_element(parent, greedy)
    c = parent.contents
    d = c[k] - c[k - 1]
    return _from_numerators(T.n, _exchange(e.n, e.nums, k, d), e.den * (d * d - 1))


# the cache's statistics and reset, as an lru_cache function carries them
e_tableau.cache_info = _diagonal_element.cache_info
e_tableau.cache_clear = _diagonal_element.cache_clear


def _exchange(n: int, nums: tuple[int, ...], k: int, d: int) -> list[int]:
    """Numerators by rank of d²·(s - 1/d)·e·(s - 1/d) for s = s_k:
    new[τ] = d²·e[sτs] - d·e[sτ] - d·e[τs] + e[τ], each read through the
    rank tables of ``_exchange_tables``."""
    d2 = d * d
    left, right, both = _exchange_tables(n, k)
    return [d2 * nums[c] - d * (nums[a] + nums[b]) + x
            for x, a, b, c in zip(nums, left, right, both)]


def _times_transposition(n: int, i: int, j: int):
    """Right multiplication by (i j) on a vector keyed by rank."""
    table = _position_swap(n, i, j)
    return lambda vec: {table[r]: x for r, x in vec.items()}


def _fusion_limit(n: int, contents, slopes) -> GroupAlgebraElement:
    """Value at ε = 0 of the ordered product of
    1 - (i j)/(c_i - c_j + (g_i - g_j)·ε) over lexicographic pairs, where
    g are the slopes of the substitution line.  The engine runs on ranks
    from the identity, rank 0; the value's keys become tuples once, at
    the end."""
    factors = [(_times_transposition(n, i, j), contents[i - 1] - contents[j - 1],
                slopes[i - 1] - slopes[j - 1])
               for i in range(1, n) for j in range(i + 1, n + 1)]
    vec, den = limit_at_zero({0: 1}, factors, "fusion product")
    perms = _perms(n)
    return GroupAlgebraElement(n, {perms[r]: x for r, x in vec.items()}, den)


def fusion_e_skew(T: StandardTableau, mode: str = "row") -> GroupAlgebraElement:
    """Value of the fusion product at the diagonal limit, for any (skew)
    standard tableau T.

    The constrained variables are substituted along the line t_k = g_k·ε
    where g_k is the row (mode "row") or column (mode "column") index of
    the box of k; regularity makes the value line-independent.
    """
    if mode not in ("row", "column"):
        raise ValueError(f"mode must be 'row' or 'column', got {mode!r}")
    groups = T.rows() if mode == "row" else T.columns()
    return _fusion_limit(T.n, T.contents, groups)


def iota(a: GroupAlgebraElement, m: int) -> GroupAlgebraElement:
    """Embed a degree-n element into degree m+n, acting on {m+1..m+n}."""
    prefix = tuple(range(1, m + 1))
    return GroupAlgebraElement(m + a.n, {prefix + tuple(v + m for v in s): c
                                         for s, c in a.terms.items()}, a.den)


def theta(a: GroupAlgebraElement, m: int) -> GroupAlgebraElement:
    """Keep the terms whose permutation preserves {1..m} as a set."""
    if not 0 <= m < max(a.n, 1):
        raise ValueError(f"need 0 <= m < {a.n}, got {m}")
    return GroupAlgebraElement(a.n, {s: c for s, c in a.terms.items()
                                     if all(s[i] <= m for i in range(m))}, a.den)


def e_skew_extract(L: StandardTableau, m: int) -> GroupAlgebraElement:
    """Element of the skew block recovered from θ_m of the full element.

    θ_m(e) factors as (element for the first m entries)·(embedded skew
    element); reading the terms whose action on {1..m} is the identity is
    valid because the first factor has identity coefficient 1.  Those
    terms are read straight from the cached numerators of
    e = e_tableau(L): θ_m keeps them all, and the normal form is unique,
    so no θ_m(e) is built.  In rank order they are the first (n - m)!
    ranks, and their tails shifted down by m are S_{n-m} in its own
    order, so the prefix is the skew element's numerators by rank.
    """
    _require_non_skew(L)
    if not 0 <= m < L.n:
        raise ValueError(f"need 0 <= m < {L.n}, got {m}")
    e = _diagonal_element(L, "smallest")
    return GroupAlgebraElement(L.n - m, _terms(L.n - m, e.nums), e.den)


def _inner_shape(L: StandardTableau, m: int) -> Partition:
    """The partition formed by the boxes of L holding 1..m."""
    mu_rows: dict[int, int] = {}
    for (i, j), k in zip(L.shape.cells, L.entries):
        if k <= m:
            mu_rows[i] = max(mu_rows.get(i, 0), j)
    return Partition(tuple(mu_rows.get(i, 0) for i in range(1, len(L.shape.lam.parts) + 1)))


def inner_tableau_of(L: StandardTableau, m: int) -> StandardTableau:
    """The (non-skew) tableau formed by the boxes of L holding 1..m."""
    shape = SkewShape(_inner_shape(L, m), Partition())
    return StandardTableau(shape, [L.entries[L.shape.cells.index(c)] for c in shape.cells])


def skew_tableau_of(L: StandardTableau, m: int) -> StandardTableau:
    """The skew tableau formed by the boxes of L holding m+1..n."""
    shape = SkewShape(L.shape.lam, _inner_shape(L, m))
    return StandardTableau(shape, [L.entries[L.shape.cells.index(c)] - m for c in shape.cells])


def extend_tableau(O: StandardTableau, U: StandardTableau) -> StandardTableau:
    """Standard tableau on the full diagram: U fills mu with 1..m, the
    skew tableau O fills the rest shifted up by m."""
    from .shapes import SkewShape

    if U.shape.lam != O.shape.mu or U.shape.is_skew:
        raise ValueError("inner tableau must fill the inner shape of the skew one")
    m = U.n
    full = SkewShape(O.shape.lam, type(O.shape.mu)())
    entries = []
    for cell in full.cells:
        if cell in U.shape.cells:
            entries.append(U.entries[U.shape.cells.index(cell)])
        else:
            entries.append(O.entries[O.shape.cells.index(cell)] + m)
    return StandardTableau(full, entries)
