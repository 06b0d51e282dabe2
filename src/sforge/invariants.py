"""Invariant theory of the diagonal discriminant-group action.

Minimal invariant-monomial generators up to the classical degree bound
|G|, binomial relations between them found by bounded search, and
bounded-degree ideal membership by exact linear algebra. This is the
verification side of the quotient computation: relations are checked,
not derived by elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .discgroup import CharacterAssignment
from .poly import Polynomial

__all__ = [
    "InvariantBasis",
    "MembershipCertificate",
    "invariant_generators",
    "toric_relations",
    "membership_bounded",
    "ORDER_CAP",
    "check_order_cap",
]

ORDER_CAP = 2000


def check_order_cap(order: int) -> None:
    """Refuse a group order above ORDER_CAP with a ValueError, before any
    work that grows with the order."""
    if order > ORDER_CAP:
        raise ValueError(
            "group order %d above the desk-scale cap %d" % (order, ORDER_CAP)
        )


@dataclass(frozen=True)
class InvariantBasis:
    variables: tuple  # the leaf variables
    exponents: tuple  # generator exponent tuples, lexicographic order
    names: tuple  # fresh names A, B, C, ... matching `exponents`

    def monomial(self, i):
        exps = {
            v: e for v, e in zip(self.variables, self.exponents[i]) if e
        }
        return Polynomial.monomial(self.variables, exps)

    def monomials(self):
        return [self.monomial(i) for i in range(len(self.exponents))]

    def name_for(self, exponent_map):
        """Name of the generator with the given {variable: exp} map."""
        key = tuple(exponent_map.get(v, 0) for v in self.variables)
        return self.names[self.exponents.index(key)]


@dataclass(frozen=True)
class MembershipCertificate:
    cofactors: tuple  # q_i with target = sum q_i * g_i
    degree_bound: int


def _names(k):
    out = []
    for i in range(k):
        name = ""
        j = i
        while True:
            name = chr(ord("A") + j % 26) + name
            j = j // 26 - 1
            if j < 0:
                break
        out.append(name)
    return tuple(out)


def invariant_generators(
    chars: CharacterAssignment, order: int
) -> InvariantBasis:
    """Minimal generating monomials of the invariant ring.

    Searches total degrees 1..order (the Noether bound for a group of
    that order) breadth-first, pruning every monomial divisible by a
    generator already found; what survives with trivial character is a
    new generator. For the trivial group this returns the variables.
    """
    check_order_cap(order)
    variables = chars.leaf_ids
    t = len(variables)
    zero_char = (Fraction(0),) * len(chars.generator_orders)

    def char_of(exps):
        return chars.monomial_character(
            {v: e for v, e in zip(variables, exps) if e}
        )

    gens = []
    frontier = [(0,) * t]
    for _degree in range(1, order + 1):
        candidates = set()
        for exps in frontier:
            for i in range(t):
                cand = exps[:i] + (exps[i] + 1,) + exps[i + 1:]
                candidates.add(cand)
        frontier = []
        for exps in sorted(candidates):
            if any(all(a >= b for a, b in zip(exps, g)) for g in gens):
                continue
            if char_of(exps) == zero_char:
                gens.append(exps)
            else:
                frontier.append(exps)
        if not frontier:
            break
    gens.sort()
    return InvariantBasis(
        variables=variables, exponents=tuple(gens), names=_names(len(gens))
    )


def toric_relations(basis: InvariantBasis, degree_bound: int):
    """All binomials G^a - G^b (disjoint supports, total degrees <=
    degree_bound) whose images under the generator parametrization
    agree. One binomial per unordered pair, deterministic order."""
    k = len(basis.exponents)
    images = {}
    for degree in range(1, degree_bound + 1):
        for combo in combinations_with_replacement(range(k), degree):
            exps = [0] * k
            for i in combo:
                exps[i] += 1
            image = [0] * len(basis.variables)
            for i, e in enumerate(exps):
                if e:
                    for j, x in enumerate(basis.exponents[i]):
                        image[j] += e * x
            images.setdefault(tuple(image), []).append(tuple(exps))
    relations = []
    for image in sorted(images):
        group = images[image]
        for a, b in combinations(sorted(group), 2):
            if any(x and y for x, y in zip(a, b)):
                continue  # shared support reduces to a smaller relation
            hi, lo = max(a, b), min(a, b)
            p = Polynomial.monomial(
                basis.names, {n: e for n, e in zip(basis.names, hi) if e}
            ) - Polynomial.monomial(
                basis.names, {n: e for n, e in zip(basis.names, lo) if e}
            )
            relations.append(p)
    return relations


def _monomials_up_to(variables, bound):
    """Exponent tuples of every monomial of total degree <= bound."""
    t = len(variables)
    out = [(0,) * t]
    for degree in range(1, bound + 1):
        for combo in combinations_with_replacement(range(t), degree):
            exps = [0] * t
            for i in combo:
                exps[i] += 1
            out.append(tuple(exps))
    return out


def membership_bounded(target: Polynomial, ideal_gens, bound: int):
    """Search for cofactors q_i of degree <= bound with
    target = sum q_i * g_i; exact linear algebra over the finite
    monomial basis. Returns a verified MembershipCertificate, or None
    when no cofactors exist at this bound (which proves nothing about
    higher bounds)."""
    if not ideal_gens:
        return None
    variables = target.variables
    for gpoly in ideal_gens:
        if gpoly.variables != variables:
            raise ValueError("all polynomials must share one variable set")
    cof_monomials = _monomials_up_to(variables, bound)
    columns = []  # (gen index, cofactor monomial) per unknown
    col_terms = []  # dict monomial -> coefficient for that unknown
    for gi, gpoly in enumerate(ideal_gens):
        for cm in cof_monomials:
            prod = {}
            for exps, coeff in gpoly.terms.items():
                key = tuple(a + b for a, b in zip(exps, cm))
                prod[key] = prod.get(key, Fraction(0)) + coeff
            columns.append((gi, cm))
            col_terms.append(prod)
    row_index = {}
    for prod in col_terms:
        for key in prod:
            row_index.setdefault(key, len(row_index))
    for key in target.terms:
        row_index.setdefault(key, len(row_index))
    nrows, ncols = len(row_index), len(columns)
    a = [[Fraction(0)] * (ncols + 1) for _ in range(nrows)]
    for ci, prod in enumerate(col_terms):
        for key, coeff in prod.items():
            a[row_index[key]][ci] = coeff
    for key, coeff in target.terms.items():
        a[row_index[key]][ncols] = coeff
    solution = _solve_underdetermined(a, nrows, ncols)
    if solution is None:
        return None
    cofactors = []
    for gi in range(len(ideal_gens)):
        terms = {}
        for ci, (gj, cm) in enumerate(columns):
            if gj == gi and solution[ci]:
                terms[cm] = solution[ci]
        cofactors.append(Polynomial(variables, terms))
    check = Polynomial.zero(variables)
    for q, gpoly in zip(cofactors, ideal_gens):
        check = check + q * gpoly
    if check != target:
        raise AssertionError("membership certificate failed verification")
    return MembershipCertificate(cofactors=tuple(cofactors), degree_bound=bound)


def _solve_underdetermined(a, nrows, ncols):
    """Gaussian elimination on [A | b]; one solution with free unknowns
    set to zero, or None when inconsistent."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if a[i][ncols]:
            return None
    solution = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        solution[c] = a[i][ncols]
    return solution
