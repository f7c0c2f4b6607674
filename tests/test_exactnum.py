import random
from fractions import Fraction

import pytest
from operator_reference import three_pass_factor, three_pass_limit

from symfusion.exactnum import (DivisionByZero, PoleAtLimit, _apply_factor,
                                format_rational, limit_at_zero)


def test_rational_text_roundtrip():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(5)) == "5"


def _times(m):
    """X = m·1 on scalar vectors."""
    return lambda vec: {k: m * x for k, x in vec.items()}


def test_limit_engine_pole_and_removable_singularity():
    # (ε/(2+ε))·((3ε+1)/(3ε)) -> 1/6, through a numerator divisible by ε;
    # the value comes back as (integer numerators, positive denominator)
    value = limit_at_zero({0: 1}, [(_times(2), 2, 1), (_times(-1), 0, 3)])
    assert value == ({0: 1}, 6)
    # ((-2+ε) - 1)/(-2+ε) -> 3/2: the negative scale's sign moves to the numerators
    assert limit_at_zero({0: 1}, [(_times(1), -2, 1)]) == ({0: 3}, 2)
    # (1 + 1/ε) has a genuine pole
    with pytest.raises(PoleAtLimit):
        limit_at_zero({0: 1}, [(_times(-1), 0, 1)])
    with pytest.raises(DivisionByZero):
        limit_at_zero({0: 1}, [(_times(1), 0, 0)])


def _matrix_move(cols: dict):
    """The move of the integer matrix with columns {key: [(row, weight)]};
    a sum that cancels stays in its output as a 0."""
    def move(vec):
        out = {}
        for k, x in vec.items():
            for r, w in cols.get(k, ()):
                out[r] = out.get(r, 0) + w * x
        return out
    return move


def _limit_or_pole(limit, start, factors):
    try:
        return limit(start, factors)
    except PoleAtLimit:
        return "pole"


def test_one_pass_step_matches_the_three_pass_reference():
    """The one-pass step gives (−1)^T times the three-pass numerator after T
    factors, and the engine the reference's value or pole, on seeded random
    integer moves with odd and even factor counts.  The seed gives 156 poles
    and 34 finite values of products with a factor whose a is 0."""
    rng = random.Random(1729)
    keys = range(5)
    outcomes = set()
    for _ in range(300):
        count = rng.choice((1, 2, 3, 4, 5))
        factors = []
        for _ in range(count):
            a = rng.choice((0, 0, 1, -1, 2, -3))
            b = rng.choice((-2, -1, 1, 2)) if a == 0 else rng.choice((0, -1, 1, 2))
            # X of rank at most 2 at a pole, so that p_0 often cancels there
            cols = {k: [(rng.choice(keys), rng.choice((-2, -1, 1, 2, 3)))
                        for _ in range(rng.randrange(3))]
                    for k in (keys if a else rng.sample(keys, 2))}
            factors.append((_matrix_move(cols), a, b))
        start = {k: rng.choice((-1, 1, 2)) for k in rng.sample(keys, 3)}
        v = sum(1 for _, a, _ in factors if a == 0)
        one = three = [start] + [{} for _ in range(v)]
        for t, (move, a, b) in enumerate(factors, 1):
            one, three = _apply_factor(one, move, a, b), three_pass_factor(three, move, a, b)
            assert one == [{k: (-1) ** t * x for k, x in c.items()} for c in three]
        value = _limit_or_pole(limit_at_zero, start, factors)
        assert value == _limit_or_pole(three_pass_limit, start, factors)
        outcomes.add((value == "pole", v > 0, count % 2))
    assert len(outcomes) == 6  # no pole without a factor whose a is 0


def test_one_pass_step_drops_cancelled_entries():
    """An entry that cancels mid-product leaves the series, and a p_0 that
    cancels exactly is no pole: (2 − diag(2, 5))/2 after (3ε − 0)/(3ε)."""
    diag = _matrix_move({0: [(0, 2)], 1: [(1, 5)]})
    assert _apply_factor([{0: 1, 1: 1}], diag, 2, 0) == [{1: 3}]
    zero = _matrix_move({0: [(0, 1), (0, -1)]})  # X·e_0 = 0·e_0, kept as a 0
    assert _apply_factor([{0: 1}, {}], zero, 0, 3) == [{}, {0: -3}]
    factors = [(zero, 0, 3), (diag, 2, 0)]
    assert limit_at_zero({0: 1, 1: 1}, factors) == ({1: -9}, 6)  # unreduced -3/2
    assert three_pass_limit({0: 1, 1: 1}, factors) == ({1: -9}, 6)
