"""Exact sparse polynomial arithmetic and the tiny ASCII parser."""

from fractions import Fraction

import pytest

from sforge import ParseError, Polynomial, parse_polynomial

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(text, variables=XYZ):
    return parse_polynomial(text, variables)


def test_product_of_conjugates():
    x = Polynomial.variable(XY, "x")
    y = Polynomial.variable(XY, "y")
    assert (x + y) * (x - y) == x * x - y * y


def test_no_zero_terms_stored():
    x = Polynomial.variable(XY, "x")
    assert (x - x).terms == {}
    assert (x - x).is_zero()


def test_pow_and_scalars():
    x = Polynomial.variable(XY, "x")
    assert (2 * x) ** 3 == 8 * x * x * x
    assert x ** 0 == Polynomial.constant(XY, 1)
    with pytest.raises(ValueError):
        x ** -1


def test_fraction_coefficients_stay_exact():
    x = Polynomial.variable(XY, "x")
    p = Fraction(1, 3) * x + Fraction(1, 6) * x
    assert p == Fraction(1, 2) * x


def test_substitute_example_4_2():
    # AC - B^2 collapses after substituting the E7 invariants
    names = ("A", "B", "C", "D")
    rel = parse_polynomial("A*C - B^2", names)
    image = rel.substitute(
        {
            "A": P("x^2"),
            "B": P("x*z"),
            "C": P("z^2"),
            "D": P("y"),
        }
    )
    assert image.is_zero()


def test_substitute_requires_common_target():
    p = parse_polynomial("A", ("A", "B"))
    with pytest.raises(ValueError):
        p.substitute({"A": P("x"), "B": parse_polynomial("u", ("u",))})


def test_weighted_degree_paper_weights():
    p = parse_polynomial("z1^2 + z2^3 + z3*z4", ("z1", "z2", "z3", "z4"))
    assert p.weighted_degree({"z1": 21, "z2": 14, "z3": 12, "z4": 30}) == 42


def test_weighted_degree_rejects_inhomogeneous():
    p = P("x^2 + y")
    with pytest.raises(ValueError, match="homogeneous"):
        p.weighted_degree({"x": 1, "y": 1, "z": 1})
    assert not p.is_weighted_homogeneous({"x": 1, "y": 1, "z": 1})
    assert p.is_weighted_homogeneous({"x": 1, "y": 2, "z": 1})


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
    assert P("2/3*x^2") == Fraction(2, 3) * P("x^2")


def test_parser_rejects_zero_denominator():
    for text in ("1/0", "3/0*x", "x + 0/0"):
        with pytest.raises(ParseError):
            P(text)
    assert P("0/5") == P("0")


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
    assert P("-x") == -P("x")
    assert P(" - 2 * x ^ 3 * y + 1/2 ") == (
        Fraction(-2) * P("x^3") * P("y") + Fraction(1, 2)
    )
    assert P("x*y*z - 3") == P("x") * P("y") * P("z") - 3
    assert P("0").is_zero()
    assert P("x^0") == P("1")
    assert P("x - y + z") == P("x") - P("y") + P("z")
