"""Sparse multivariate polynomials over exact rationals.

A Polynomial is a fixed, ordered tuple of distinct variable names and
a term map `terms` from exponent tuples to coefficients. Every
Polynomial keeps one invariant for its terms:

- each key is a tuple of len(variables) nonnegative ints;
- each value is nonzero, and an int when integral, otherwise a Fraction
  in lowest terms.

Validation happens where input enters: the public constructor
Polynomial(variables, terms) checks its arguments (int exponents, no
float coefficients), converts every coefficient with Fraction and
normalises the result to the invariant. The ring operations, + and *
of two Polynomials over the same variables, build their term maps under
the invariant and hand them to Polynomial._from_terms, which does not
validate again; so do parse_polynomial and the sforge modules that
build equations and certificates as term maps. Polynomials are
immutable; all arithmetic is exact.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress
from operator import add

from .errors import ParseError, parse_int

__all__ = ["Polynomial", "monomial_text", "parse_polynomial"]


def _canonical(c):
    """An int or Fraction as the invariant stores it: an int when
    integral."""
    if type(c) is int or c.denominator != 1:
        return c
    return c.numerator


def _checked_variables(variables):
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise ValueError("duplicate variable names")
    return variables


def monomial_text(names, exponents):
    """The monomial with these exponents over these variable names, as
    Polynomial prints it: x^2*y; the empty string for exponents all
    zero."""
    return "*".join(
        names[i] if exponents[i] == 1 else "%s^%d" % (names[i], exponents[i])
        for i in compress(range(len(names)), exponents)
    )


class Polynomial:
    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = _checked_variables(variables)
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(self.variables):
                raise ValueError("exponent tuple has wrong length")
            if any(not isinstance(e, int) or isinstance(e, bool)
                   for e in exps):
                raise ValueError("non-integer exponent in %r" % (exps,))
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            if isinstance(coeff, float):
                raise ValueError("floating point coefficient %r rejected"
                                 % coeff)
            coeff = Fraction(coeff)
            if coeff:
                clean[exps] = clean.get(exps, 0) + coeff
        self.terms = {e: _canonical(c) for e, c in clean.items() if c}

    @classmethod
    def _from_terms(cls, variables, terms):
        """The Polynomial with these terms, taken as they are: variables
        a tuple of distinct names and terms a dict that keeps the term
        invariant of the module docstring. Nothing is checked."""
        p = object.__new__(cls)
        p.variables = variables
        p.terms = terms
        return p

    @classmethod
    def zero(cls, variables):
        return cls._from_terms(_checked_variables(variables), {})

    # -- ring operations ------------------------------------------------

    def _same_ring(self, other):
        """Whether other is a Polynomial, which must then be over the
        same variables (ValueError if not)."""
        if not isinstance(other, Polynomial):
            return False
        if other.variables != self.variables:
            raise ValueError("variable sets differ")
        return True

    def __add__(self, other):
        if not self._same_ring(other):
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            c += terms.get(e, 0)
            if c:
                terms[e] = _canonical(c)
            else:
                del terms[e]  # c cancelled a term of self
        return Polynomial._from_terms(self.variables, terms)

    def __mul__(self, other):
        if not self._same_ring(other):
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Polynomial._from_terms(
            self.variables,
            {e: _canonical(c) for e, c in terms.items() if c},
        )

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- structure ------------------------------------------------------

    def weighted_degree(self, weights):
        """Common weight of all monomials under weights (a map variable
        name -> weight); raises ValueError when inhomogeneous."""
        if not self.terms:
            raise ValueError("weighted degree of the zero polynomial")
        wvec = [weights[name] for name in self.variables]
        degs = {sum(w * e for w, e in zip(wvec, exps)) for exps in self.terms}
        if len(degs) != 1:
            raise ValueError(
                "polynomial is not weighted-homogeneous: weights %s"
                % sorted(degs)
            )
        return degs.pop()

    def monomials(self):
        """Exponent tuples, sorted descending lexicographically."""
        return sorted(self.terms, reverse=True)

    def support_maps(self):
        """Monomials as {variable: exponent} dicts, zeros omitted."""
        return [
            {
                name: e
                for name, e in zip(self.variables, exps)
                if e
            }
            for exps in self.monomials()
        ]

    # -- rendering ------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.variables
        out = []
        for exps in self.monomials():
            coeff = self.terms[exps]
            num, den = coeff.numerator, coeff.denominator
            factors = monomial_text(names, exps)
            if den != 1:
                scale = "%d/%d" % (abs(num), den)
            elif abs(num) != 1 or not factors:
                scale = str(abs(num))
            else:
                scale = ""
            out.append(" - " if num < 0 else " + ")
            out.append(scale + "*" + factors if scale and factors
                       else scale or factors)
        out[0] = "-" if out[0] == " - " else ""
        return "".join(out)

    def __repr__(self):
        return "Polynomial(%s)" % self


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()]))"
)


def _tokens(text):
    """(kind, text) pairs, kind one of num / name / op, then (None, None)."""
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError("bad character %r in polynomial" % text[pos])
            break
        pos = m.end()
        out.append((m.lastgroup, m.group(m.lastgroup)))
    out.append((None, None))
    return out


def _unexpected(token):
    kind, value = token
    if kind is None:
        return ParseError("unexpected end of polynomial")
    return ParseError("unexpected %r in polynomial" % value)


def parse_polynomial(text, variables):
    """Parse ASCII math like '2*x^2*y - 3/2*z + 1' over the given
    variables. The grammar, with whitespace between tokens ignored:

        poly   := ['-'] term (('+' | '-') term)*
        term   := factor ('*' factor)*
        factor := number | name ['^' integer]

    A number is a nonnegative integer or a fraction p/q with q > 0, an
    exponent a nonnegative integer, and a name one of the variables.
    Anything else (juxtaposed factors, a stray or doubled operator,
    parentheses, a zero denominator, an empty text, an integer longer
    than int converts) raises ParseError."""
    variables = _checked_variables(variables)
    position = {name: j for j, name in enumerate(variables)}
    tokens = _tokens(text)
    terms = {}  # exponent tuple -> summed coefficient, zeros not yet dropped
    i = 0

    def term(sign):
        """Read one term and add it to terms with the given sign."""
        nonlocal i
        coeff = sign
        exps = [0] * len(variables)
        while True:
            kind, value = tokens[i]
            i += 1
            if kind == "num":
                num, _, den = value.partition("/")
                coeff *= parse_int(num)
                if den:
                    den = parse_int(den)
                    if not den:
                        raise ParseError("zero denominator in %r" % value)
                    coeff = Fraction(coeff, den)
            elif kind != "name":
                raise _unexpected((kind, value))
            elif value not in position:
                raise ParseError("unknown variable %r" % value)
            elif tokens[i] == ("op", "^"):
                kind, digits = tokens[i + 1]
                if kind != "num":
                    raise ParseError("expected exponent after '^'")
                if "/" in digits:
                    raise ParseError(
                        "exponent %r is not a nonnegative integer" % digits
                    )
                exps[position[value]] += parse_int(digits)
                i += 2
            else:
                exps[position[value]] += 1
            if tokens[i] != ("op", "*"):
                break
            i += 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff

    if tokens[0] == ("op", "-"):
        i = 1
        term(-1)
    else:
        term(1)
    while tokens[i] in (("op", "+"), ("op", "-")):
        sign = 1 if tokens[i][1] == "+" else -1
        i += 1
        term(sign)
    if tokens[i] != (None, None):
        raise _unexpected(tokens[i])
    return Polynomial._from_terms(
        variables, {e: _canonical(c) for e, c in terms.items() if c}
    )
