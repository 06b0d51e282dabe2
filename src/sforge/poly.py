"""Sparse multivariate polynomials over exact rationals.

Terms are a map from exponent tuples (aligned with a fixed, ordered
variable tuple) to nonzero Fractions. Polynomials are immutable; all
arithmetic is exact.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

__all__ = ["Polynomial", "parse_polynomial"]


class Polynomial:
    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.variables):
                raise ValueError("exponent tuple has wrong length")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            coeff = Fraction(coeff)
            if coeff:
                clean[exps] = clean.get(exps, Fraction(0)) + coeff
        self.terms = {e: c for e, c in clean.items() if c}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables)

    @classmethod
    def constant(cls, variables, value):
        value = Fraction(value)
        if not value:
            return cls(variables)
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls(variables, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, variables, exponents, coeff=1):
        """exponents: map variable name -> exponent (zeros omitted)."""
        variables = tuple(variables)
        exps = [0] * len(variables)
        for name, e in exponents.items():
            exps[variables.index(name)] = int(e)
        return cls(variables, {tuple(exps): Fraction(coeff)})

    # -- ring operations ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.variables != self.variables:
                raise ValueError("variable sets differ")
            return other
        return Polynomial.constant(self.variables, other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return Polynomial(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(
            self.variables, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return Polynomial(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Polynomial.constant(self.variables, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    # -- structure ------------------------------------------------------

    def substitute(self, mapping):
        """Replace each variable by a Polynomial (all sharing one target
        variable set); variables not in the mapping must not occur."""
        targets = {p.variables for p in mapping.values()}
        if len(targets) != 1:
            raise ValueError("substitution images must share one variable set")
        (tvars,) = targets
        out = Polynomial.zero(tvars)
        for exps, coeff in self.terms.items():
            term = Polynomial.constant(tvars, coeff)
            for name, e in zip(self.variables, exps):
                if e == 0:
                    continue
                if name not in mapping:
                    raise ValueError("no image for variable %r" % name)
                term = term * mapping[name] ** e
            out = out + term
        return out

    def total_degree(self):
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

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

    def is_weighted_homogeneous(self, weights):
        try:
            self.weighted_degree(weights)
        except ValueError:
            return False
        return True

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
        parts = []
        for exps in self.monomials():
            coeff = self.terms[exps]
            factors = [
                name if e == 1 else "%s^%d" % (name, e)
                for name, e in zip(self.variables, exps)
                if e
            ]
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(coeff))] + factors)
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += " %s %s" % (sign, body)
        return out

    def __repr__(self):
        return "Polynomial(%s)" % self


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()]))"
)


def parse_polynomial(text, variables):
    """Parse ASCII math like '2*x^2*y - 3/2*z + 1' over the given
    variables. Supports +, -, rational coefficients, ^ powers and *
    products; no parentheses."""
    variables = tuple(variables)
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError("bad character %r in polynomial" % text[pos])
            break
        pos = m.end()
        tokens.append(m)
    result = Polynomial.zero(variables)
    sign = 1
    term = None  # current term under construction

    def flush():
        nonlocal result, term, sign
        if term is not None:
            result = result + sign * term
        term = None
        sign = 1

    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.group("op") in ("+", "-"):
            if term is None and tok.group("op") == "-":
                sign = -sign
            else:
                flush()
                if tok.group("op") == "-":
                    sign = -1
            i += 1
            continue
        if tok.group("op") == "*":
            i += 1
            continue
        if tok.group("op") in ("(", ")", "^"):
            raise ParseError("unexpected %r in polynomial" % tok.group("op"))
        factor = None
        if tok.group("num"):
            factor = Polynomial.constant(variables, Fraction(tok.group("num")))
            i += 1
        elif tok.group("name"):
            name = tok.group("name")
            if name not in variables:
                raise ParseError("unknown variable %r" % name)
            exp = 1
            i += 1
            if i < len(tokens) and tokens[i].group("op") == "^":
                i += 1
                if i >= len(tokens) or not tokens[i].group("num"):
                    raise ParseError("expected exponent after '^'")
                if "/" in tokens[i].group("num"):
                    raise ParseError(
                        "exponent %r is not a nonnegative integer"
                        % tokens[i].group("num")
                    )
                exp = int(tokens[i].group("num"))
                i += 1
            factor = Polynomial.variable(variables, name) ** exp
        term = factor if term is None else term * factor
    flush()
    return result
