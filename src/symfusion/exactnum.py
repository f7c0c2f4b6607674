"""Exact scalars, their one normal form and the one diagonal-limit engine.

Every rational container of the library (group-algebra elements and
operators) stores int numerators over one denominator, brought to the
normal form of ``normal_form``.  ``fractions.Fraction`` is the scalar at
the public boundary: single entries, coefficients and parsed input.

The limit engine evaluates at ε = 0 an ordered product of factors
((a_t + b_t·ε)·1 − X_t)/(a_t + b_t·ε) applied to a start vector, for
integers a_t, b_t and an integer linear map X_t.  The numerator is kept
as a power series in ε with integer coefficients, truncated mod
ε^(v+1) where v = #{t : a_t = 0} is the order of the denominator's zero
at ε = 0.  Only the coefficients up to ε^v decide the value and the
pole test, so the truncation is exact: the value is p_v divided by
Π_t (a_t if a_t else b_t), and a nonzero p_i with i < v is a genuine
pole.  The value is returned unreduced, as (±p_v, |Π|).  No factor is
ever evaluated early and nothing is reduced along the way.  One step
takes X_t·u − (a_t + b_t·ε)·u, a single pass into the move's output, so
the series kept is (−1)^T times the numerator after T factors; that sign
enters once, at the end, as the den Π_t −(a_t + b_t·ε).  Callers
supply only how X_t moves the keys of a vector.  Both routes move int
keys through precomputed tables: the group-algebra route relabels
permutation ranks, the operator route combines basis codes.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable, Sequence
from fractions import Fraction
from itertools import chain


class DivisionByZero(ZeroDivisionError):
    """A denominator that must not vanish is zero."""


class PoleAtLimit(ArithmeticError):
    """The reduced denominator vanishes at the evaluation point."""


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def normal_form(parts: Sequence[dict], den: int = 1) -> tuple[list[dict], int]:
    """Bring rational values ``value / den`` to int numerators over one den.

    ``parts`` is a list of {key: rational} dicts that share ``den`` (an
    operator passes its rows, an element its one terms dict).  Returns new
    dicts, in the same order, and the new den: only nonzero ints are kept,
    den > 0 and gcd(den, all numerators) = 1, so a value has exactly one
    stored form; when no value is left, den is 1.
    """
    if type(den) is not int or den < 1:
        raise ValueError(f"den must be a positive int, got {den!r}")
    # the zero and type scans run in C; a Python pass is made only where needed
    if 0 in chain.from_iterable(map(dict.values, parts)):
        parts = [{k: v for k, v in part.items() if v} for part in parts]
    else:
        parts = list(map(dict, parts))
    if set(map(type, chain.from_iterable(map(dict.values, parts)))) - {int}:
        scale = math.lcm(*(v.denominator for part in parts for v in part.values()))
        parts = [{k: v.numerator * (scale // v.denominator) for k, v in part.items()}
                 for part in parts]
        den *= scale
    g = den
    for part in parts:
        g = math.gcd(g, *part.values())
        if g == 1:
            return parts, den
    return [{k: v // g for k, v in part.items()} for part in parts], den // g


# ---------------------------------------------------------------------------
# the diagonal-limit engine
#
# A vector is a dict {key: int} with no zero values.  A truncated series
# of vectors is the list of its ε-coefficients [p_0, …, p_v].

IntVector = dict[Hashable, int]
Move = Callable[[IntVector], IntVector]


def limit_at_zero(start: IntVector, factors: Sequence[tuple[Move, int, int]],
                  what: str = "product") -> tuple[IntVector, int]:
    """(int numerators, den > 0) of the ordered product at ε = 0 on ``start``.

    Each factor is (move, a, b) and maps a vector u to
    ((a + b·ε)·u − move(u))/(a + b·ε); ``move`` applies X to one integer
    vector and returns a new dict, which the engine then owns.  Factors
    apply in sequence order.  Raises PoleAtLimit when the product has a
    pole at ε = 0.
    """
    den = [(a, b) for _, a, b in factors]
    for a, b in den:
        if a == 0 and b == 0:
            raise DivisionByZero("factor denominator a + b·ε is identically zero")
    v = sum(1 for a, _ in den if a == 0)
    series = [{k: x for k, x in start.items() if x}] + [{} for _ in range(v)]
    for move, a, b in factors:
        series = _apply_factor(series, move, a, b)
    # each step took X·u − (a + b·ε)·u, the numerator over −(a + b·ε)
    return value_at_zero(series, [(-a, -b) for a, b in den], what)


def _apply_factor(series: list[IntVector], move: Move, a: int, b: int) -> list[IntVector]:
    """X·u − (a + b·ε)·u, coefficient by coefficient, truncated to
    len(series): a·u and b·(the previous coefficient) are subtracted in
    place from the move's fresh output, and one pass drops the zeros."""
    out = []
    prev: IntVector = {}
    for cur in series:
        acc = move(cur)
        get = acc.get
        if a:
            for k, x in cur.items():
                acc[k] = get(k, 0) - a * x
        if b:
            for k, x in prev.items():
                acc[k] = get(k, 0) - b * x
        out.append({k: x for k, x in acc.items() if x})
        prev = cur
    return out


def value_at_zero(series: list[IntVector], den: Sequence[tuple[int, int]],
                  what: str = "product") -> tuple[IntVector, int]:
    """Read off num/Π(a_t + b_t·ε) at ε = 0 from the truncated numerator.

    ``series`` holds the coefficients p_0..p_v of the numerator, with v
    the number of factors whose a_t is 0.  A nonzero p_i with i < v is a
    genuine pole; otherwise the value is (±p_v, |Π_t (a_t if a_t else b_t)|).
    """
    v = sum(1 for a, _ in den if a == 0)
    if len(series) != v + 1:
        raise ValueError(f"need the {v + 1} coefficients up to ε^{v}, got {len(series)}")
    if any(series[:v]):
        raise PoleAtLimit(f"{what} has a genuine pole at ε = 0; "
                          "this falsifies the regularity claim")
    scale = 1
    for a, b in den:
        scale *= a if a else b
    return ({k: -x for k, x in series[v].items()} if scale < 0 else series[v]), abs(scale)
