"""The hot inner loops, on plain Python objects.

Permutations are 1-based image tuples; ``echelon``, the one
elimination, takes dense int rows.  No product of two operators or of
two group-algebra elements lives here: an operator product runs as a
``tensorop.left_multiplication`` move on vectors, and a group-algebra
product by a fusion element as the limit engine started at the other
factor (``symalg.times_fusion``).
"""

from __future__ import annotations

import math


def compose(s, t):
    """Composition s∘t acting as (s∘t)(i) = s(t(i)); right factor first."""
    return tuple(s[i - 1] for i in t)


def echelon(rows, ncols):
    """Canonical integer reduced row echelon form (integer Gauss–Jordan).

    ``rows`` holds dense int sequences of length ``ncols``, lists or
    tuples; they are not mutated.  Returns (pivot columns, rows as new
    lists), sorted by pivot: zero rows are dropped, every row is primitive
    (its entries have gcd 1) with a positive pivot, and each pivot column
    is zero in every other row.  That form depends only on the row space,
    so two spanning sets of one space give equal output.  Each row is
    reduced against the pivots so far, then clears its own pivot from
    them; gcd divisions keep the entries primitive, and no Fraction is
    built.
    """
    pivots: list[int] = []
    reduced: list[list[int]] = []
    for row in rows:
        # the reduced rows vanish on each other's pivots, so one scale serves all
        hits = [(p, prow) for p, prow in zip(pivots, reduced) if row[p]]
        if hits:
            scale = math.lcm(*(prow[p] for p, prow in hits))
            row = [x * scale for x in row]
            for p, prow in hits:
                c = row[p] // prow[p]
                row = [x - c * y for x, y in zip(row, prow)]
        g = math.gcd(*row)
        if not g:
            continue
        col = next(j for j, x in enumerate(row) if x)
        if row[col] < 0:
            g = -g
        row = [x // g for x in row] if g != 1 else list(row)
        d = row[col]
        for i, prow in enumerate(reduced):
            h = prow[col]
            if h:
                prow = [d * x - h * y for x, y in zip(prow, row)]
                g = math.gcd(*prow)  # the pivot of prow stays positive
                reduced[i] = [x // g for x in prow] if g != 1 else prow
        pivots.append(col)
        reduced.append(row)
        if len(pivots) == ncols:
            break
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [pivots[i] for i in order], [reduced[i] for i in order]
