"""Exact multivariate polynomials and rational functions over Q.

Transition probabilities of parametric chains live here.  A polynomial is a
sorted tuple of (monomial, coefficient) pairs with Fraction coefficients and
no zero terms, so structural equality is semantic equality.  A rational
function is a pair of polynomials normalized by the scalar content (the gcd
of all coefficients of numerator and denominator together) and by the sign
of the denominator's leading term; no polynomial gcd is computed, so two
representations of the same function may differ structurally — equality is
decided by cross-multiplication.  The content is divided out by scaling each
coefficient (``Polynomial.scale``), which keeps the monomials and their order,
and not at all when it is already 1.

Evaluation is numeric and total: ``evaluate`` needs a value for every
variable and returns a Fraction, building no polynomial on the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

Monomial = tuple[tuple[str, int], ...]  # sorted by variable name, exponents >= 1


class RatFuncError(Exception):
    pass


class ZeroDenominatorError(RatFuncError):
    pass


def _merge(a: Monomial, b: Monomial) -> Monomial:
    exps: dict[str, int] = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


@dataclass(frozen=True)
class Polynomial:
    terms: tuple[tuple[Monomial, Fraction], ...]

    @staticmethod
    def _from_dict(d: dict[Monomial, Fraction]) -> "Polynomial":
        return Polynomial(tuple(sorted((m, c) for m, c in d.items() if c != 0)))

    @staticmethod
    def const(value) -> "Polynomial":
        c = Fraction(value)
        return Polynomial((((), c),)) if c else Polynomial(())

    @staticmethod
    def var(name: str) -> "Polynomial":
        return Polynomial(((((name, 1),), Fraction(1)),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == ())

    def const_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_const:
            raise RatFuncError(f"polynomial {self} is not constant")
        return self.terms[0][1]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        d = dict(self.terms)
        for m, c in other.terms:
            d[m] = d.get(m, Fraction(0)) + c
        return Polynomial._from_dict(d)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c: Fraction) -> "Polynomial":
        """Every coefficient times c; the monomials and their order stay."""
        if not c:
            return P_ZERO
        return Polynomial(tuple((m, a * c) for m, a in self.terms))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if len(self.terms) == 1 and self.terms[0][0] == ():
            return other.scale(self.terms[0][1])
        if len(other.terms) == 1 and other.terms[0][0] == ():
            return self.scale(other.terms[0][1])
        d: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = _merge(m1, m2)
                d[m] = d.get(m, Fraction(0)) + c1 * c2
        return Polynomial._from_dict(d)

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        """The value under an assignment of every variable.  The values are
        multiplied as given, so they must be Fractions or ints."""
        total = Fraction(0)
        for m, c in self.terms:
            for name, e in m:
                try:
                    v = assignment[name]
                except KeyError:
                    raise RatFuncError(f"no value for variable {name!r}") from None
                c *= v if e == 1 else v ** e
            total += c
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            factors = ["*".join(f"{n}^{e}" if e > 1 else n for n, e in m)] if m else []
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = factors[0]
            else:
                body = f"{abs(c)}*{factors[0]}"
            parts.append(("- " if c < 0 else "+ ") + body)
        head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([head] + parts[1:])


P_ZERO = Polynomial(())
P_ONE = Polynomial.const(1)


@dataclass(frozen=True, eq=False)
class RationalFunction:
    num: Polynomial
    den: Polynomial

    @staticmethod
    def make(num: Polynomial, den: Polynomial = P_ONE) -> "RationalFunction":
        """num/den with the joint content divided out and den's leading
        coefficient positive; both are scaled coefficient by coefficient, and
        returned as given when that factor is already 1."""
        if den.is_zero:
            raise ZeroDenominatorError("rational function with zero denominator")
        if num.is_zero:
            return RationalFunction(P_ZERO, P_ONE)
        coeffs = [c for _, c in num.terms] + [c for _, c in den.terms]
        # the joint content is top/bottom, in lowest terms since every
        # coefficient is
        top = gcd(*(c.numerator for c in coeffs))
        bottom = lcm(*(c.denominator for c in coeffs))
        if den.terms[0][1] < 0:
            bottom = -bottom
        if top == 1 and bottom == 1:
            return RationalFunction(num, den)
        inv = Fraction(bottom, top)
        return RationalFunction(num.scale(inv), den.scale(inv))

    @staticmethod
    def const(value) -> "RationalFunction":
        return RationalFunction.make(Polynomial.const(value))

    @staticmethod
    def var(name: str) -> "RationalFunction":
        return RationalFunction.make(Polynomial.var(name))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_const(self) -> bool:
        return self.num.is_const and self.den.is_const

    def variables(self) -> set[str]:
        """The names of the variables that occur in num or den."""
        return {name for p in (self.num, self.den) for m, _ in p.terms for name, _ in m}

    def value(self) -> Fraction:
        if not self.is_const:
            raise RatFuncError(f"rational function {self} is not constant")
        return self.num.const_value() / self.den.const_value()

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction.make(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction.make(-self.num, self.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction.make(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero:
            raise ZeroDenominatorError("division by the zero rational function")
        return RationalFunction.make(self.num * other.den, self.den * other.num)

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        """The value under an assignment of every variable."""
        if self.den == P_ONE:  # every entry of an interval chain, and 1 - p
            return self.num.evaluate(assignment)
        den = self.den.evaluate(assignment)
        if not den:
            raise ZeroDenominatorError(
                f"denominator of {self} vanishes under {dict(assignment)}"
            )
        return self.num.evaluate(assignment) / den

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None  # semantic equality is not hash-compatible; keyed containers must not hold these

    def __str__(self) -> str:
        if self.den == P_ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"


RF_ZERO = RationalFunction(P_ZERO, P_ONE)
RF_ONE = RationalFunction.make(P_ONE)
