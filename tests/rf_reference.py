"""Test-only reference route: reduced univariate rational functions.

``Polynomial`` and ``RationalFunction`` are univariate in one formal
variable, written ε in reports; rational functions are reduced after
every arithmetic step and keep a monic denominator, so ``eval_at_zero``
raising ``PoleAtLimit`` always signals a genuine pole.

``rf_fusion_e_skew`` is the fusion product carried with these
coefficients, gcd-reduced after every factor, and evaluated at ε = 0.
It is an independent check on the integer limit engine of the library
and is practical up to about five boxes.
"""

from __future__ import annotations

from fractions import Fraction

from symfusion.exactnum import DivisionByZero, PoleAtLimit, format_rational
from symfusion.kernels import ga_mul
from symfusion.symalg import GroupAlgebraElement, Permutation

ZERO = Fraction(0)
ONE = Fraction(1)


class Polynomial:
    """Dense univariate polynomial over Fraction, ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "Polynomial":
        return cls((Fraction(c),))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((ZERO, ONE))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (Fraction, int)):
            if not other:
                return Polynomial()
            return Polynomial(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out = [ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def divmod(self, other: "Polynomial"):
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        num = list(self.coeffs)
        den = other.coeffs
        dd = len(den) - 1
        lead = den[-1]
        if len(num) - 1 < dd:
            return Polynomial(), self
        q = [ZERO] * (len(num) - dd)
        for i in range(len(num) - 1, dd - 1, -1):
            c = num[i]
            if c:
                f = c / lead
                q[i - dd] = f
                for j, dc in enumerate(den):
                    num[i - dd + j] -= f * dc
        return Polynomial(q), Polynomial(num)

    def monic(self) -> "Polynomial":
        if not self.coeffs or self.coeffs[-1] == 1:
            return self
        lead = self.coeffs[-1]
        return Polynomial(tuple(c / lead for c in self.coeffs))

    def __call__(self, x: Fraction) -> Fraction:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if not self.coeffs:
            return "Polynomial(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{format_rational(c)}*e^{i}" if i else format_rational(c))
        return "Polynomial(" + " + ".join(parts) + ")"


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd via the Euclidean algorithm over the rationals."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()


_P_ONE = Polynomial.const(1)


class RationalFunction:
    """Reduced ratio num/den of polynomials; den monic and coprime to num."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = _P_ONE, *, _reduced=False):
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        if not _reduced:
            if num.is_zero():
                den = _P_ONE
            else:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num = num.divmod(g)[0]
                    den = den.divmod(g)[0]
                lead = den.coeffs[-1]
                if lead != 1:
                    num = num * (ONE / lead)
                    den = den.monic()
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c) -> "RationalFunction":
        return cls(Polynomial.const(c), _P_ONE, _reduced=True)

    @classmethod
    def x(cls) -> "RationalFunction":
        return cls(Polynomial.x(), _P_ONE, _reduced=True)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.const(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    @staticmethod
    def _coerce(v) -> "RationalFunction":
        if isinstance(v, RationalFunction):
            return v
        if isinstance(v, (int, Fraction)):
            return RationalFunction.const(v)
        raise TypeError(f"cannot coerce {type(v).__name__} to RationalFunction")

    def __add__(self, other):
        other = self._coerce(other)
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def eval_at_zero(self) -> Fraction:
        """Value at ε = 0; PoleAtLimit when the reduced denominator vanishes."""
        d0 = self.den(ZERO)
        if d0 == 0:
            raise PoleAtLimit(f"pole at 0 of order ≥ 1 in {self!r}")
        return self.num(ZERO) / d0

    def __repr__(self):
        return f"RF({self.num!r} / {self.den!r})"


def rf_arith(a: RationalFunction, b: RationalFunction, op: str) -> RationalFunction:
    """Named arithmetic entry point: op in {'+', '-', '*', '/'}."""
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    raise ValueError(f"unknown op {op!r}")


def eval_at_zero(f: RationalFunction) -> Fraction:
    return f.eval_at_zero()


def rf_fusion_limit(n: int, contents, slopes) -> GroupAlgebraElement:
    """Value at ε = 0 of the ordered product of
    1 - (i j)/(c_i - c_j + (g_i - g_j)·ε) over lexicographic pairs."""
    eps = RationalFunction.x()
    ident = tuple(Permutation.identity(n))
    terms = {ident: RationalFunction.const(1)}
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            den = (contents[i - 1] - contents[j - 1]) + (slopes[i - 1] - slopes[j - 1]) * eps
            terms = ga_mul(terms, {
                ident: RationalFunction.const(1),
                tuple(Permutation.transposition(n, i, j)): -(ONE / den),
            })
    return GroupAlgebraElement(n, {s: eval_at_zero(c) for s, c in terms.items()})


def rf_fusion_e_skew(T, mode: str = "row") -> GroupAlgebraElement:
    groups = T.rows() if mode == "row" else T.columns()
    return rf_fusion_limit(T.n, T.contents, groups)
