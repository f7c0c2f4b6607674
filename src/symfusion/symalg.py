"""The symmetric group algebra and the fusion procedure inside it.

Composition convention, used everywhere and load-bearing for the
recursion and ordering conventions below: (s∘t)(i) = s(t(i)), i.e. the
right factor acts first.  Products of algebra elements append factors on
the right, so an ordered product f1·f2·…·fT is built left to right.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

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


def _require_non_skew(T: StandardTableau) -> None:
    if T.shape.is_skew:
        raise SkewShapeError(f"non-skew tableau required, got shape {T.shape}")


def _stabilizer_sum(T: StandardTableau, by_rows: bool, signed: bool) -> GroupAlgebraElement:
    n = T.n
    groups: dict[int, list[int]] = {}
    for (i, j), k in zip(T.shape.cells, T.entries):
        groups.setdefault(i if by_rows else j, []).append(k)
    blocks = [sorted(v) for _, v in sorted(groups.items())]
    terms = {}
    for assignment in itertools.product(*[itertools.permutations(b) for b in blocks]):
        images = list(range(1, n + 1))
        for block, perm in zip(blocks, assignment):
            for src, dst in zip(block, perm):
                images[src - 1] = dst
        s = Permutation(images)
        terms[tuple(s)] = s.sign() if signed else 1
    return GroupAlgebraElement(n, terms)


def young_p(T: StandardTableau) -> GroupAlgebraElement:
    """Sum over the row stabilizer of T."""
    _require_non_skew(T)
    return _stabilizer_sum(T, by_rows=True, signed=False)


def young_q(T: StandardTableau) -> GroupAlgebraElement:
    """Signed sum over the column stabilizer of T."""
    _require_non_skew(T)
    return _stabilizer_sum(T, by_rows=False, signed=True)


def _row_numerator(T: StandardTableau) -> tuple[dict[tuple, int], int]:
    """Integer terms of p·q·p for the row tableau T, and λ1!·λ2!·…, which
    is its identity coefficient.

    x = p·q is a plain product; x·p is read off from coset sums, because
    (x·p)[σ] = Σ_{τ ∈ σR} x[τ] for the row group R.  A coset σR is fixed
    by which row block each value comes from, so this costs O(n!) rather
    than |x|·|p| products.
    """
    p = young_p(T)
    q = young_q(T)
    x = kernels.ga_mul(p.terms, q.terms)  # both over den 1
    block_of = [0] * T.n
    for (i, _), k in zip(T.shape.cells, T.entries):
        block_of[k - 1] = i
    sums: dict[tuple, int] = {}
    reps: dict[tuple, tuple] = {}
    for t, c in x.items():
        label = [0] * T.n
        for pos, v in enumerate(t):
            label[v - 1] = block_of[pos]
        key = tuple(label)
        sums[key] = sums.get(key, 0) + c
        reps.setdefault(key, t)
    terms = {}
    for key, c in sums.items():
        if c:
            rep = reps[key]
            for r in p.terms:
                terms[tuple(rep[i - 1] for i in r)] = c
    denom = 1
    for part in T.shape.lam.parts:
        denom *= factorial(part)
    return terms, denom


def _from_numerators(n: int, terms: dict[tuple, int], denom: int) -> GroupAlgebraElement:
    """The element Σ terms[s]/denom · s; its identity coefficient must be 1."""
    if terms.get(tuple(range(1, n + 1))) != denom:
        raise ArithmeticError("diagonal matrix element lost its unit identity coefficient")
    return GroupAlgebraElement(n, terms, denom)


def e_row(T: StandardTableau) -> GroupAlgebraElement:
    """Diagonal matrix element for the row tableau: p·q·p / (λ1!·λ2!·…)."""
    _require_non_skew(T)
    if not T.is_row_tableau():
        raise WrongTableau(f"{T} is not the row tableau of its shape")
    return _from_numerators(T.n, *_row_numerator(T))


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
    parent's, which a bounded cache keeps, and the row tableau's element
    is p·q·p.  So the f^λ tableaux of a shape cost f^λ - 1 exchanges and
    one row numerator; an evicted parent is rebuilt.  The cache is
    read-only: each call returns a new element, which the caller may
    change.  ``greedy`` is "smallest" or "largest"; both give the same e.
    """
    _require_non_skew(T)
    _check_greedy(greedy)
    e = _diagonal_element(T, greedy)
    return GroupAlgebraElement(e.n, e.terms, e.den)


@lru_cache(maxsize=256)
def _diagonal_element(T: StandardTableau, greedy: str) -> GroupAlgebraElement:
    """e_tableau's cached element; callers must not change it."""
    if T.is_row_tableau():
        return _from_numerators(T.n, *_row_numerator(T))
    k = _walk_step(T, greedy)
    parent = T.swap_adjacent(k)  # raises unless the exchange is admissible
    if parent.swap_adjacent(k) != T:
        raise ArithmeticError(f"exchange from {parent} ended elsewhere, not at {T}")
    e = _diagonal_element(parent, greedy)
    c = parent.contents
    d = c[k] - c[k - 1]
    return _from_numerators(T.n, _exchange(e.terms, k, d), e.den * (d * d - 1))


# the cache's statistics and reset, as an lru_cache function carries them
e_tableau.cache_info = _diagonal_element.cache_info
e_tableau.cache_clear = _diagonal_element.cache_clear


def _exchange(terms: dict[tuple, int], k: int, d: int) -> dict[tuple, int]:
    """Numerators of d²·(s - 1/d)·e·(s - 1/d) for s = s_k:
    new[τ] = d²·e[sτs] - d·e[sτ] - d·e[τs] + e[τ].  s∘τ swaps the values
    k and k+1 of τ, τ∘s swaps its positions k and k+1.  Each of τ, sτ, τs
    and sτs (two of them when sτ = τs) takes its new numerator from the
    four old ones, so each such orbit is read once and written at once.
    The output is seeded with the keys of ``terms``, so it reuses their
    tuples wherever a key recurs: the elements built from one another
    share their permutation tuples."""
    d2 = d * d
    out = dict.fromkeys(terms)
    for t, a in terms.items():
        if out[t] is not None:  # its orbit is written
            continue
        st = list(t)
        st[t.index(k)], st[t.index(k + 1)] = k + 1, k
        ts, sts = list(t), st[:]
        ts[k - 1], ts[k] = t[k], t[k - 1]
        sts[k - 1], sts[k] = st[k], st[k - 1]
        st, ts, sts = tuple(st), tuple(ts), tuple(sts)
        b, c, e = terms.get(st, 0), terms.get(ts, 0), terms.get(sts, 0)
        out[t] = d2 * e - d * (b + c) + a
        out[st] = d2 * c - d * (a + e) + b
        out[ts] = d2 * b - d * (a + e) + c
        out[sts] = d2 * a - d * (b + c) + e
    return {key: c for key, c in out.items() if c}


def _times_transposition(i: int, j: int):
    """Right multiplication by (i j): swaps positions i and j of every key."""
    def move(vec):
        out = {}
        for s, x in vec.items():
            t = list(s)
            t[i - 1], t[j - 1] = t[j - 1], t[i - 1]
            out[tuple(t)] = x
        return out
    return move


def _fusion_limit(n: int, contents, slopes) -> GroupAlgebraElement:
    """Value at ε = 0 of the ordered product of
    1 - (i j)/(c_i - c_j + (g_i - g_j)·ε) over lexicographic pairs, where
    g are the slopes of the substitution line."""
    factors = [(_times_transposition(i, j), contents[i - 1] - contents[j - 1],
                slopes[i - 1] - slopes[j - 1])
               for i in range(1, n) for j in range(i + 1, n + 1)]
    return GroupAlgebraElement(n, *limit_at_zero({tuple(range(1, n + 1)): 1}, factors,
                                                 "fusion product"))


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
    terms are read straight from e = e_tableau(L): θ_m keeps them all, and
    the normal form is unique, so no θ_m(e) is built.
    """
    _require_non_skew(L)
    if not 0 <= m < L.n:
        raise ValueError(f"need 0 <= m < {L.n}, got {m}")
    e = _diagonal_element(L, "smallest")
    ident = tuple(range(1, m + 1))
    return GroupAlgebraElement(L.n - m, {tuple(v - m for v in s[m:]): c
                                         for s, c in e.terms.items() if s[:m] == ident},
                               e.den)


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
