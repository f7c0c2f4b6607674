from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

# The rational-function tests exercise the test-only reference route in
# rf_reference.py, which the limit engine is checked against.
from rf_reference import (Polynomial, RationalFunction, eval_at_zero,
                          poly_gcd, rf_arith)
from symfusion.exactnum import (DivisionByZero, PoleAtLimit, format_rational,
                                limit_at_zero)


def rf(num_coeffs, den_coeffs=(1,)):
    return RationalFunction(Polynomial(num_coeffs), Polynomial(den_coeffs))


X = RationalFunction.x()


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


def test_polynomial_normalization():
    assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert Polynomial((0,)).is_zero()
    assert Polynomial((1, 1)).degree == 1


def test_polynomial_divmod():
    num = Polynomial((-1, 0, 1))  # x^2 - 1
    den = Polynomial((1, 1))      # x + 1
    q, r = num.divmod(den)
    assert q == Polynomial((-1, 1))
    assert r.is_zero()
    with pytest.raises(DivisionByZero):
        num.divmod(Polynomial())


def test_poly_gcd_monic():
    a = Polynomial((-1, 0, 1)) * Polynomial((2, 2))
    b = Polynomial((1, 1)) * Polynomial((3,))
    assert poly_gcd(a, b) == Polynomial((1, 1))


def test_rf_cancellation():
    one_over_x = rf((1,), (0, 1))
    x = rf((0, 1))
    assert rf_arith(one_over_x, x, "*") == RationalFunction.const(1)


def test_rf_sum_of_geometric_pair():
    a = rf((1,), (1, -1))   # 1/(1-e)
    b = rf((1,), (1, 1))    # 1/(1+e)
    total = rf_arith(a, b, "+")
    assert total == rf((2,), (1, 0, -1))  # 2/(1-e^2)


def test_rf_division_by_zero():
    with pytest.raises(DivisionByZero):
        rf_arith(X, RationalFunction.const(0), "/")


def test_eval_at_zero_examples():
    assert eval_at_zero(rf((2, 1), (1, 1))) == 2          # (2+e)/(1+e)
    assert eval_at_zero(rf((0, 1), (0, 1))) == 1          # e/e reduces first
    with pytest.raises(PoleAtLimit):
        eval_at_zero(rf((1,), (0, 1)))                    # 1/e


def test_reduction_is_idempotent():
    f = rf((0, 2, 2), (0, 4))  # (2e + 2e^2)/(4e) -> (1+e)/2
    again = RationalFunction(f.num, f.den)
    assert f == again
    assert f.den.coeffs[-1] == 1  # monic denominator


fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def rf_st(draw):
    num = draw(st.lists(fractions_st, min_size=1, max_size=3))
    den = draw(st.lists(fractions_st, min_size=1, max_size=3)
               .filter(lambda cs: any(cs)))
    return RationalFunction(Polynomial(num), Polynomial(den))


@settings(max_examples=1000, deadline=None)
@given(rf_st(), rf_st(), rf_st())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=200, deadline=None)
@given(rf_st(), rf_st())
def test_eval_at_zero_multiplicative(a, b):
    try:
        va, vb = a.eval_at_zero(), b.eval_at_zero()
    except PoleAtLimit:
        return
    assert (a * b).eval_at_zero() == va * vb
