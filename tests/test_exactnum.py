from fractions import Fraction

import pytest

from symfusion.exactnum import (DivisionByZero, PoleAtLimit, format_rational,
                                limit_at_zero)


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
