"""Partitions, skew diagrams and standard tableaux.

Coordinates are matrix style and 1-based: the first index is the row and
grows downward, the second is the column and grows to the right.  All
values are immutable; partitions are stored normalized (no trailing
zeros) and compare on the normalized form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial


class ContainmentError(ValueError):
    """mu is not contained in lambda."""


class ParityError(ValueError):
    """Odd dimension requested for a symplectic group."""


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        object.__setattr__(self, "parts", parts)

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        text = text.strip()
        if not text:
            return cls()
        return cls(int(p) for p in text.split(","))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        # 0-based; parts beyond the length are zero
        return self.parts[i] if 0 <= i < len(self.parts) else 0

    @property
    def size(self) -> int:
        return sum(self.parts)

    def contains(self, other: "Partition") -> bool:
        return all(other[i] <= self[i] for i in range(len(other.parts)))


def conjugate(p: Partition) -> Partition:
    if not p.parts:
        return Partition()
    return Partition(sum(1 for q in p.parts if q >= j) for j in range(1, p.parts[0] + 1))


@dataclass(frozen=True)
class SkewShape:
    lam: Partition
    mu: Partition
    cells: tuple[tuple[int, int], ...]  # sorted by (row, column)
    n: int

    def __init__(self, lam: Partition, mu: Partition):
        if not lam.contains(mu):
            raise ContainmentError(f"{mu} is not contained in {lam}")
        cells = tuple((i + 1, j + 1)
                      for i in range(len(lam.parts))
                      for j in range(mu[i], lam[i]))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "n", len(cells))

    @property
    def is_skew(self) -> bool:
        return bool(self.mu.parts)

    def __str__(self) -> str:
        return f"{self.lam}/{self.mu}" if self.mu.parts else str(self.lam)


def skew(lam: Partition, mu: Partition = Partition()) -> SkewShape:
    return SkewShape(lam, mu)


@dataclass(frozen=True)
class StandardTableau:
    """A bijection cells -> 1..n increasing along rows and down columns."""

    shape: SkewShape
    entries: tuple[int, ...]  # entries listed in cell order of shape.cells

    def __init__(self, shape: SkewShape, entries):
        entries = tuple(entries)
        if sorted(entries) != list(range(1, shape.n + 1)):
            raise ValueError("entries must be a bijection onto 1..n")
        pos = dict(zip(shape.cells, entries))
        for (i, j), k in pos.items():
            right = pos.get((i, j + 1))
            below = pos.get((i + 1, j))
            if right is not None and right <= k:
                raise ValueError("entries must increase along rows")
            if below is not None and below <= k:
                raise ValueError("entries must increase down columns")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def contents(self) -> tuple[int, ...]:
        """c_k = column - row of the box holding k, for k = 1..n."""
        out = [0] * self.n
        for (i, j), k in zip(self.shape.cells, self.entries):
            out[k - 1] = j - i
        return tuple(out)

    def rows(self) -> tuple[int, ...]:
        """Row index of the box holding k, for k = 1..n."""
        out = [0] * self.n
        for (i, _), k in zip(self.shape.cells, self.entries):
            out[k - 1] = i
        return tuple(out)

    def columns(self) -> tuple[int, ...]:
        out = [0] * self.n
        for (_, j), k in zip(self.shape.cells, self.entries):
            out[k - 1] = j
        return tuple(out)

    def swap_adjacent(self, k: int) -> "StandardTableau":
        """Exchange the entries k and k+1 (result must still be standard)."""
        entries = tuple(k + 1 if e == k else k if e == k + 1 else e
                        for e in self.entries)
        return StandardTableau(self.shape, entries)

    def is_row_tableau(self) -> bool:
        return self.entries == tuple(range(1, self.n + 1))

    def __str__(self) -> str:
        return f"{self.shape}[{','.join(str(e) for e in self.entries)}]"


def row_tableau(s: SkewShape) -> StandardTableau:
    return StandardTableau(s, range(1, s.n + 1))


def column_tableau(s: SkewShape) -> StandardTableau:
    order = sorted(range(s.n), key=lambda idx: (s.cells[idx][1], s.cells[idx][0]))
    entries = [0] * s.n
    for k, idx in enumerate(order, start=1):
        entries[idx] = k
    return StandardTableau(s, entries)


def standard_tableaux(s: SkewShape) -> list[StandardTableau]:
    """All standard tableaux, lexicographic on the entry sequence."""
    cells = s.cells
    n = s.n
    index = {c: i for i, c in enumerate(cells)}
    results = []
    entries = [0] * n

    def place(k: int):
        if k > n:
            results.append(StandardTableau(s, tuple(entries)))
            return
        for i, (r, c) in enumerate(cells):
            if entries[i]:
                continue
            left = index.get((r, c - 1))
            up = index.get((r - 1, c))
            if left is not None and not entries[left]:
                continue
            if up is not None and not entries[up]:
                continue
            entries[i] = k
            place(k + 1)
            entries[i] = 0

    place(1)
    results.sort(key=lambda t: t.entries)
    return results


def _hook_length_count(p: Partition) -> int:
    n = p.size
    if n == 0:
        return 1
    conj = conjugate(p)
    dim = factorial(n)
    for i, row in enumerate(p.parts):
        for j in range(row):
            dim //= row - j + conj[j] - i - 1
    return dim


@lru_cache(maxsize=None)
def dim_sym_irrep(p: Partition) -> int:
    """Number of standard tableaux of shape p; hook lengths cross-checked
    against exhaustive enumeration at small sizes."""
    dim = _hook_length_count(p)
    if p.size <= 6 and dim != len(standard_tableaux(skew(p))):
        raise ArithmeticError(f"hook-length count {dim} disagrees with enumeration for {p}")
    return dim


def validate_label(p: Partition, group: str, dim: int) -> bool:
    """Whether p labels a polynomial irreducible of the group of rank dim.

    group is one of "GL", "O", "Sp"; for "Sp" the dimension must be even.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    conj = conjugate(p)
    if group == "GL":
        return conj[0] <= dim
    if group == "O":
        return conj[0] + conj[1] <= dim
    if group == "Sp":
        if dim % 2:
            raise ParityError(f"symplectic group needs even dimension, got {dim}")
        return 2 * conj[0] <= dim
    raise ValueError(f"unknown group {group!r}")


def count_semistandard(s: SkewShape, N: int, content=None) -> int:
    """Fillings with entries 1..N weakly increasing along rows, strictly
    increasing down columns, counted by backtracking.

    With ``content`` = (α_1..α_N), only fillings in which value v occurs
    α_v times count (the skew Kostka number).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    cells = s.cells
    if content is None:
        left_over = [len(cells)] * N
    else:
        left_over = list(content)
        if len(left_over) != N or any(a < 0 for a in left_over):
            raise ValueError(f"content must be {N} nonnegative counts, got {content!r}")
        if sum(left_over) != len(cells):
            return 0
    index = {c: i for i, c in enumerate(cells)}
    values = [0] * len(cells)
    count = 0

    def fill(i: int):
        nonlocal count
        if i == len(cells):
            count += 1
            return
        r, c = cells[i]
        left = index.get((r, c - 1))
        up = index.get((r - 1, c))
        lo = 1
        if left is not None:
            lo = max(lo, values[left])
        if up is not None:
            lo = max(lo, values[up] + 1)
        for v in range(lo, N + 1):
            if left_over[v - 1]:
                left_over[v - 1] -= 1
                values[i] = v
                fill(i + 1)
                left_over[v - 1] += 1
        values[i] = 0

    fill(0)
    return count


def partitions_of(n: int, max_part: int | None = None) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [Partition()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append(Partition((first,) + rest.parts))
    return out
