"""The hot inner loops, on plain Python objects.

Permutations are 1-based image tuples; ``ga_mul`` sees Fraction
coefficients, ``sparse_mm`` the int numerators of two operators; matrices
are sparse {row: {col: coeff}} dicts, except in the two eliminations.
"""

from __future__ import annotations

from fractions import Fraction


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


def sparse_mm(arows, brows):
    """Product of two sparse matrices stored as {row: {col: coeff}}."""
    out = {}
    for r, arow in arows.items():
        acc = {}
        for k, av in arow.items():
            brow = brows.get(k)
            if brow is None:
                continue
            for c, bv in brow.items():
                v = av * bv
                prev = acc.get(c)
                if prev is None:
                    acc[c] = v
                else:
                    v = prev + v
                    if v:
                        acc[c] = v
                    else:
                        del acc[c]
        if acc:
            out[r] = acc
    return out


def bareiss_rank(rows, ncols):
    """Rank of an integer matrix via fraction-free Gaussian elimination.

    ``rows`` is a list of lists of Python ints; it is consumed (mutated).
    """
    m = [r for r in rows if any(r)]
    nrows = len(m)
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = -1
        for i in range(rank, nrows):
            if m[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, nrows):
            head = m[i][col]
            if head == 0 and pivot == prev:
                continue
            mi = m[i]
            mr = m[rank]
            for j in range(col, ncols):
                mi[j] = (pivot * mi[j] - head * mr[j]) // prev
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank


def frac_rref(rows, ncols):
    """Reduced row echelon form over the rationals, in place.

    ``rows`` is a list of dense lists of ints and Fractions.  Returns
    (pivot column list, row list); zero rows are dropped.  The pivot
    inverse is a Fraction, so int input never turns into floats.
    """
    m = [r for r in rows if any(r)]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = -1
        for i in range(rank, len(m)):
            if m[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        row = m[rank]
        if row[col] != 1:
            inv = Fraction(1, row[col])
            for j in range(col, ncols):
                if row[j]:
                    row[j] = row[j] * inv
        for i in range(len(m)):
            if i == rank:
                continue
            head = m[i][col]
            if head:
                mi = m[i]
                for j in range(col, ncols):
                    if row[j]:
                        mi[j] = mi[j] - head * row[j]
        pivots.append(col)
        rank += 1
        if rank == len(m):
            break
    return pivots, [r for r in m if any(r)]
