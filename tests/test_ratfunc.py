from fractions import Fraction
from functools import reduce
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmcsynth.ratfunc import (
    P_ONE,
    P_ZERO,
    RF_ONE,
    RF_ZERO,
    Polynomial,
    RationalFunction,
    RatFuncError,
    ZeroDenominatorError,
    _merge,
)


def test_polynomial_construction():
    x, y = Polynomial.var("x"), Polynomial.var("y")
    p = x * x + Polynomial.const(2) * x * y + y * y
    q = (x + y) * (x + y)
    assert p == q
    assert (p - q).is_zero


def test_polynomial_const_value():
    assert Polynomial.const(Fraction(3, 7)).const_value() == Fraction(3, 7)
    assert P_ZERO.const_value() == 0
    with pytest.raises(RatFuncError):
        Polynomial.var("x").const_value()


def test_polynomial_evaluate():
    x, y = Polynomial.var("x"), Polynomial.var("y")
    p = x * y + y
    got = p.evaluate({"x": 2, "y": Fraction(1, 3)})
    assert got == 1 and type(got) is Fraction
    assert type(P_ZERO.evaluate({})) is Fraction
    with pytest.raises(RatFuncError, match="'y'"):
        p.evaluate({"x": Fraction(2)})


def test_ratfunc_normalization():
    x = Polynomial.var("x")
    # 2x / 4 normalizes with positive leading denominator coefficient
    r = RationalFunction.make(Polynomial.const(2) * x, Polynomial.const(4))
    s = RationalFunction.make(x, Polynomial.const(2))
    assert r.num == s.num and r.den == s.den
    # zero numerator collapses the denominator
    z = RationalFunction.make(P_ZERO, x + P_ONE)
    assert z.num == P_ZERO and z.den == P_ONE


def test_ratfunc_zero_denominator():
    with pytest.raises(ZeroDenominatorError):
        RationalFunction.make(P_ONE, P_ZERO)
    with pytest.raises(ZeroDenominatorError):
        RF_ONE / RF_ZERO
    x = RationalFunction.var("x")
    one = RationalFunction.const(1)
    with pytest.raises(ZeroDenominatorError):
        (one / (x - one)).evaluate({"x": Fraction(1)})


def test_ratfunc_semantic_equality():
    x = RationalFunction.var("x")
    one = RationalFunction.const(1)
    # (x^2 - 1)/(x - 1) == x + 1 by cross-multiplication, without cancelling
    assert (x * x - one) / (x - one) == x + one
    assert x / x == one
    assert x != x + one


def test_ratfunc_value():
    assert RationalFunction.const(Fraction(5, 8)).value() == Fraction(5, 8)
    half = RationalFunction.const(1) / RationalFunction.const(2)
    assert half.value() == Fraction(1, 2)
    with pytest.raises(RatFuncError):
        RationalFunction.var("x").value()


def test_ratfunc_evaluate():
    p = RationalFunction.var("p")
    f = p / (RationalFunction.const(1) + p)
    got = f.evaluate({"p": Fraction(1, 3)})
    assert got == Fraction(1, 4) and type(got) is Fraction
    got = f.evaluate({"p": 1})
    assert got == Fraction(1, 2) and type(got) is Fraction
    with pytest.raises(RatFuncError, match="'p'"):
        f.evaluate({})
    assert RationalFunction.const(Fraction(2, 3)).evaluate({}) == Fraction(2, 3)


def _rf(data) -> RationalFunction:
    """Small random rational function over x with a nonzero denominator."""
    consts = st.integers(-3, 3).map(lambda n: RationalFunction.const(n))
    x = RationalFunction.var("x")
    num = data.draw(consts) + data.draw(consts) * x
    den = data.draw(consts) + data.draw(consts) * x * x + RationalFunction.const(1)
    if den.is_zero:
        den = RF_ONE
    return num / den


@given(st.data())
def test_field_laws(data):
    a, b, c = _rf(data), _rf(data), _rf(data)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + RF_ZERO == a
    assert a * RF_ONE == a
    assert a - a == RF_ZERO
    if not a.is_zero:
        assert a / a == RF_ONE


@given(st.integers(-5, 5), st.integers(-5, 5))
def test_constants_agree_with_fractions(n, d):
    if d == 0:
        return
    r = RationalFunction.const(n) / RationalFunction.const(d)
    assert r.value() == Fraction(n, d)


def test_str_forms():
    x = Polynomial.var("x")
    assert str(P_ZERO) == "0"
    assert str(x * x - P_ONE) == "-1 + x^2"
    r = RationalFunction.make(P_ONE, x)
    assert str(r) == "(1)/(x)"


def _reference_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """The general dict/merge/sort product, with no constant shortcut."""
    d = {}
    for m1, c1 in p.terms:
        for m2, c2 in q.terms:
            m = _merge(m1, m2)
            d[m] = d.get(m, Fraction(0)) + c1 * c2
    return Polynomial(tuple(sorted((m, c) for m, c in d.items() if c != 0)))


def _reference_content(p: Polynomial) -> Fraction:
    """gcd of |coefficients| as a positive rational, polynomial by polynomial."""
    top = reduce(gcd, (c.numerator for _, c in p.terms))
    bottom = reduce(lcm, (c.denominator for _, c in p.terms))
    return Fraction(abs(top), bottom)


def _reference_make(num: Polynomial, den: Polynomial) -> RationalFunction:
    """Normalisation by multiplying both sides with the constant 1/g."""
    if num.is_zero:
        return RationalFunction(P_ZERO, P_ONE)
    cn, cd = _reference_content(num), _reference_content(den)
    g = Fraction(gcd(cn.numerator, cd.numerator), lcm(cn.denominator, cd.denominator))
    if den.terms[0][1] < 0:
        g = -g
    inv = Polynomial.const(1 / g)
    return RationalFunction(_reference_mul(num, inv), _reference_mul(den, inv))


def _structure(p: Polynomial):
    assert all(type(c) is Fraction for _, c in p.terms)
    return p.terms


_SCALES = st.fractions(min_value=-6, max_value=6, max_denominator=12)
_Y = Polynomial.var("y")


@given(st.data())
def test_make_matches_reference_normalisation(data):
    f, g = _rf(data), _rf(data)
    a, b = data.draw(_SCALES), data.draw(_SCALES.filter(bool))
    num = _reference_mul(_reference_mul(f.num, g.num + _Y), Polynomial.const(a))
    den = _reference_mul(_reference_mul(f.den, g.den), Polynomial.const(b))
    got, want = RationalFunction.make(num, den), _reference_make(num, den)
    assert _structure(got.num) == _structure(want.num)
    assert _structure(got.den) == _structure(want.den)


@given(st.data())
def test_product_matches_reference(data):
    f, g = _rf(data), _rf(data)
    c = Polynomial.const(data.draw(_SCALES))
    pairs = ((f.num, g.den + _Y), (f.den, g.num), (c, f.den + _Y), (g.num, c), (c, c))
    for p, q in pairs:
        assert _structure(p * q) == _structure(_reference_mul(p, q))


def _reference_poly_substitute(p: Polynomial, assignment) -> Polynomial:
    """Symbolic substitution: assigned variables are replaced, the rest stay."""
    d = {}
    for m, c in p.terms:
        kept = []
        for name, e in m:
            if name in assignment:
                c = c * Fraction(assignment[name]) ** e
            else:
                kept.append((name, e))
        if c != 0:
            key = tuple(kept)
            d[key] = d.get(key, Fraction(0)) + c
    return Polynomial._from_dict(d)


def _reference_evaluate(f: RationalFunction, assignment) -> Fraction:
    """The symbolic round trip that numeric evaluation replaced: substitute,
    normalise with ``make``, then read the constant back."""
    den = _reference_poly_substitute(f.den, assignment)
    if den.is_zero:
        raise ZeroDenominatorError("denominator vanishes")
    return RationalFunction.make(_reference_poly_substitute(f.num, assignment), den).value()


_POINTS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(st.data())
def test_evaluate_matches_symbolic_reference(data):
    f, g = _rf(data), _rf(data)
    y = RationalFunction.var("y")
    c = RationalFunction.const(data.draw(_SCALES))
    h = f * (g + y) - c * y * y
    if not g.is_zero:
        h = h / (g - y)  # a denominator that vanishes where y = g(x)
    assignment = {"x": data.draw(_POINTS), "y": data.draw(_POINTS)}
    try:
        want = _reference_evaluate(h, assignment)
    except ZeroDenominatorError:
        with pytest.raises(ZeroDenominatorError):
            h.evaluate(assignment)
        return
    got = h.evaluate(assignment)
    assert type(got) is Fraction
    assert got == want


def _reference_poly_evaluate(p: Polynomial, assignment) -> Fraction:
    """The evaluation loop before it skipped coefficients of 1: every sum
    starts at Fraction(0) and every factor is multiplied in."""
    total = Fraction(0)
    for m, c in p.terms:
        for name, e in m:
            v = assignment[name]
            c *= v if e == 1 else v ** e
        total += c
    return total


@given(st.data())
def test_polynomial_evaluate_matches_reference_loop(data):
    f, g = _rf(data), _rf(data)
    y = RationalFunction.var("y")
    h = f * (g + y) - RationalFunction.const(data.draw(_SCALES)) * y * y
    values = st.one_of(_POINTS, st.integers(-3, 3))
    assignment = {"x": data.draw(values), "y": data.draw(values)}
    for p in (f.num, f.den, h.num, h.den, y.num, P_ZERO):
        got = p.evaluate(assignment)
        assert type(got) is Fraction
        assert got == _reference_poly_evaluate(p, assignment)


_OPS = st.sampled_from(["+", "-", "*", "/"])


@given(st.data())
def test_evaluate_is_numerator_over_denominator(data):
    f, g = _rf(data), _rf(data)
    p = RationalFunction.var("x")
    op = data.draw(_OPS)
    if op == "+":
        h = f + g
    elif op == "-":
        h = RationalFunction.const(1) - p if data.draw(st.booleans()) else f - g
    elif op == "*":
        h = f * g
    else:
        h = f / g if not g.is_zero else f
    assignment = {"x": data.draw(_POINTS)}
    den = h.den.evaluate(assignment)
    if not den:
        with pytest.raises(ZeroDenominatorError):
            h.evaluate(assignment)
        return
    got = h.evaluate(assignment)
    assert type(got) is Fraction
    assert got == h.num.evaluate(assignment) / den


def test_evaluate_over_a_constant_one_denominator():
    p = RationalFunction.var("p")
    f = RationalFunction.const(1) - p
    assert f.den == P_ONE and f.den is not P_ONE  # equal by value only
    got = f.evaluate({"p": Fraction(1, 3)})
    assert got == Fraction(2, 3) and type(got) is Fraction
    with pytest.raises(RatFuncError, match="'p'"):
        f.evaluate({})
    g = p / (p - RationalFunction.const(Fraction(1, 2)))
    with pytest.raises(ZeroDenominatorError):
        g.evaluate({"p": Fraction(1, 2)})
