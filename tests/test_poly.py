"""Exact sparse polynomial arithmetic and the tiny ASCII parser."""

import sys
from fractions import Fraction
from math import gcd
from random import Random

import pytest

from sforge import ParseError, Polynomial, parse_polynomial
from sforge.poly import monomial_text

from oracles import parse_polynomial_by_arithmetic

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(text, variables=XYZ):
    return parse_polynomial(text, variables)


def test_product_of_conjugates():
    x = Polynomial(XY, {(1, 0): 1})
    y = Polynomial(XY, {(0, 1): 1})
    x_minus_y = Polynomial(XY, {(1, 0): 1, (0, 1): -1})
    assert (x + y) * x_minus_y == x * x + Polynomial(XY, {(0, 2): -1})


def test_no_zero_terms_stored():
    p = Polynomial(XY, {(1, 0): 1}) + Polynomial(XY, {(1, 0): -1})
    assert p.terms == {}
    assert p == Polynomial.zero(XY)


def test_fraction_coefficients_stay_exact():
    p = Polynomial(XY, {(1, 0): Fraction(1, 3)}) + Polynomial(
        XY, {(1, 0): Fraction(1, 6)})
    assert p == Polynomial(XY, {(1, 0): Fraction(1, 2)})


def test_ring_operations_take_two_polynomials_over_one_ring():
    x = Polynomial(XY, {(1, 0): 1})
    for other in (2, Fraction(1, 2), "x"):
        for op in (lambda a, b: a + b, lambda a, b: a * b):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)
    u = Polynomial(("u", "v"), {(1, 0): 1})
    with pytest.raises(ValueError, match="variable sets differ"):
        x + u
    with pytest.raises(ValueError, match="variable sets differ"):
        x * u


def test_weighted_degree_paper_weights():
    p = parse_polynomial("z1^2 + z2^3 + z3*z4", ("z1", "z2", "z3", "z4"))
    assert p.weighted_degree({"z1": 21, "z2": 14, "z3": 12, "z4": 30}) == 42


def test_weighted_degree_rejects_inhomogeneous():
    p = P("x^2 + y")
    with pytest.raises(ValueError, match="homogeneous"):
        p.weighted_degree({"x": 1, "y": 1, "z": 1})
    assert p.weighted_degree({"x": 1, "y": 2, "z": 1}) == 2
    assert not hasattr(p, "is_weighted_homogeneous")


def test_rendering_sorted_and_signed():
    assert str(P("y^3 + x^2 + z^4")) == "x^2 + y^3 + z^4"
    assert str(P("-x + 2*y")) == "-x + 2*y"
    assert str(P("x - 3/2*z")) == "x - 3/2*z"
    assert str(Polynomial.zero(XYZ)) == "0"


def test_parser_roundtrip():
    for text in ("x^2 + y^3 + z^4", "x^2*z^2 + y^3*z^2 + z^6", "1", "-x"):
        p = P(text)
        assert P(str(p)) == p


def test_parser_rejects_unknown_variable_and_junk():
    with pytest.raises(ParseError):
        P("x + w")
    with pytest.raises(ParseError):
        P("x ? y")
    with pytest.raises(ParseError):
        P("(x + y)")


def test_parser_rejects_fractional_exponent():
    with pytest.raises(ParseError):
        P("x^2/3")
    assert P("2/3*x^2") == Polynomial(XYZ, {(2, 0, 0): Fraction(2, 3)})


def test_parser_rejects_zero_denominator():
    for text in ("1/0", "3/0*x", "x + 0/0"):
        with pytest.raises(ParseError):
            P(text)
    assert P("0/5") == P("0")


@pytest.mark.parametrize("template", ["x^%s", "%s*y", "1/%s*z", "%s/7"])
def test_parser_reports_an_integer_too_long_to_convert(template):
    """An exponent, coefficient, numerator or denominator of more digits
    than int() converts is a ParseError in the graph parser's words."""
    digits = "1" * 5000
    with pytest.raises(ParseError) as err:
        P(template % digits)
    assert str(err.value) == (
        "integer has 5000 digits, more than the limit of %d"
        % sys.get_int_max_str_digits()
    )
    short = template % "11"
    assert P(short) == parse_polynomial_by_arithmetic(short, XYZ)


def test_monomials_and_support_maps():
    p = P("x^2 + y^3 + z^4")
    assert p.monomials() == [(2, 0, 0), (0, 3, 0), (0, 0, 4)]
    assert p.support_maps() == [{"x": 2}, {"y": 3}, {"z": 4}]


@pytest.mark.parametrize(
    "text",
    ["x y", "2 3 x", "* * x", "*x", "x*", "x**y", "x +", "-", "",
     "+x", "--x", "x - -y", "x^", "x^y", "2^3", "x^2^3", "3/"],
)
def test_parser_rejects_outside_grammar(text):
    with pytest.raises(ParseError):
        P(text)


def test_parser_grammar_accepts():
    assert P("-x") == Polynomial(XYZ, {(1, 0, 0): -1})
    assert P(" - 2 * x ^ 3 * y + 1/2 ") == Polynomial(
        XYZ, {(3, 1, 0): -2, (0, 0, 0): Fraction(1, 2)}
    )
    assert P("x*y*z - 3") == P("x") * P("y") * P("z") + Polynomial(
        XYZ, {(0, 0, 0): -3})
    assert P("0") == Polynomial.zero(XYZ)
    assert P("x^0") == P("1")
    assert P("x - y + z") == P("x") + P("-y") + P("z")


def test_monomial_text():
    assert monomial_text(XYZ, (2, 0, 1)) == "x^2*z"
    assert monomial_text(XYZ, (0, 1, 0)) == "y"
    assert monomial_text(XYZ, (0, 0, 0)) == ""


def test_constructors_validate_outside_input():
    with pytest.raises(ValueError, match="duplicate"):
        Polynomial(("x", "x"), {})
    with pytest.raises(ValueError, match="duplicate"):
        Polynomial.zero(("x", "x"))
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial(XY, {(0, -1): 1})
    with pytest.raises(ValueError, match="wrong length"):
        Polynomial(XY, {(1,): 1})
    with pytest.raises(ValueError, match="duplicate"):
        parse_polynomial("x", ("x", "x"))
    assert Polynomial(XY, {(2, 0): 0}) == Polynomial.zero(XY)
    p = Polynomial(XY, {(1, 0): Fraction(4, 2), (0, 1): "1/2", (2, 2): 0})
    assert p.terms == {(1, 0): 2, (0, 1): Fraction(1, 2)}
    assert_term_invariant(p)


@pytest.mark.parametrize(
    "terms",
    [{(1.5, 0): 1}, {(1.0, 0): 1}, {(True, 0): 1}, {("2", 0): 1},
     {(1, 0): 2.5}, {(1, 0): 2.0}],
    ids=["float-exponent", "integral-float-exponent", "bool-exponent",
         "str-exponent", "float-coefficient", "integral-float-coefficient"],
)
def test_constructor_refuses_non_integer_exponents_and_float_coefficients(
        terms):
    with pytest.raises(ValueError, match="non-integer exponent|floating"):
        Polynomial(XY, terms)


# -- the term invariant, against sympy and the arithmetic parser ----------------


def assert_term_invariant(p):
    """Each key a tuple of len(variables) nonnegative ints; each value
    nonzero, an int when integral and otherwise a Fraction in lowest
    terms."""
    n = len(p.variables)
    for exps, c in p.terms.items():
        assert type(exps) is tuple and len(exps) == n, exps
        assert all(type(e) is int and e >= 0 for e in exps), exps
        assert c != 0
        if type(c) is Fraction:
            assert c.denominator > 1 and gcd(c.numerator, c.denominator) == 1
        else:
            assert type(c) is int, c


def _random_coefficient(rng):
    if rng.random() < 0.5:
        return rng.randint(-6, 6)
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))  # 4/2 included


def _random_polynomial(rng, variables, cancel=None):
    """Up to five terms of degree <= 3 in each variable; with cancel
    given, about half its terms negated as well, so that a sum with it
    cancels."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        exps = tuple(rng.randint(0, 3) for _ in variables)
        terms[exps] = _random_coefficient(rng)
    if cancel is not None:
        for exps, c in cancel.terms.items():
            if rng.random() < 0.5:
                terms[exps] = -c
    return Polynomial(variables, terms)


def _random_pairs(seed, count):
    rng = Random(seed)
    for _ in range(count):
        variables = ("x", "y", "z", "u", "v")[: rng.randint(1, 5)]
        a = _random_polynomial(rng, variables)
        yield rng, a, _random_polynomial(rng, variables, cancel=a)


def test_ring_operations_agree_with_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(p, syms):
        return sum(
            (
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(s ** e for s, e in zip(syms, exps)))
                for exps, c in p.terms.items()
            ),
            sympy.Integer(0),
        )

    def terms_of(expr, syms):
        return {
            exps: Fraction(int(c.p), int(c.q))
            for exps, c in sympy.Poly(expr, *syms).as_dict().items()
        }

    cancelled = 0
    for rng, a, b in _random_pairs(41, 150):
        syms = sympy.symbols(a.variables)
        sa, sb = to_sympy(a, syms), to_sympy(b, syms)
        c = _random_coefficient(rng)
        const = Polynomial(a.variables, {(0,) * len(a.variables): c})
        cases = [
            (a + b, sa + sb),
            (a * b, sa * sb),
            (const * a + const,
             sympy.Rational(c.numerator, c.denominator) * (sa + 1)),
        ]
        for ours, theirs in cases:
            assert_term_invariant(ours)
            assert ours.terms == terms_of(theirs, syms), (a, b)
        cancelled += len(a.terms) + len(b.terms) > len((a + b).terms)
    assert cancelled >= 50, cancelled


def test_parse_of_str_round_trips_and_agrees_with_the_arithmetic_parser():
    for rng, a, b in _random_pairs(43, 300):
        for p in (a, b, a * b, a + b):
            text = str(p)
            parsed = parse_polynomial(text, p.variables)
            assert parsed == p, text
            assert_term_invariant(parsed)
            assert parse_polynomial_by_arithmetic(text, p.variables) == p
