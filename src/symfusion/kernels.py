"""The hot inner loops, on plain Python objects.

Permutations are 1-based image tuples; ``ga_mul`` sees the int
numerators of two group-algebra elements and needs only ring arithmetic
on them; ``echelon``, the one elimination, takes dense int rows.
No operator product lives here: every one runs as a
``tensorop.left_multiplication`` move on vectors.
"""

from __future__ import annotations

import math


def compose(s, t):
    """Composition s∘t acting as (s∘t)(i) = s(t(i)); right factor first."""
    return tuple(s[i - 1] for i in t)


def ga_mul(a, b):
    """Convolution of two {perm tuple: coeff} maps, zero terms dropped."""
    out = {}
    for sa, ca in a.items():
        for sb, cb in b.items():
            key = tuple(sa[i - 1] for i in sb)
            c = ca * cb
            prev = out.get(key)
            if prev is None:
                out[key] = c
            else:
                c = prev + c
                if c:
                    out[key] = c
                else:
                    del out[key]
    return out


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
