"""Invariant theory of the diagonal discriminant-group action.

The group acts on the leaf variables z_w through characters chi_w,
carried as integer residue vectors modulo one common modulus e (see
CharacterAssignment). An invariant monomial is an exponent vector a
with sum a_w chi_w = 0 mod e, and the minimal ones, the Hilbert basis
of that monoid, generate the invariant ring; they are found by a
breadth-first search up to the Noether bound |G| with each character
updated incrementally. Binomial relations between the generators are
found by grouping their products of bounded degree by image, and
bounded-degree ideal membership is decided by exact linear algebra.
This is the verification side of the quotient computation: relations
are checked, not derived by elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

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
    """Minimal generating monomials of the invariant ring: the Hilbert
    basis of {a in N^t : sum a_w chi_w = 0}, with chi_w the character of
    leaf w as an integer residue vector mod e (Sturmfels, Algorithms in
    Invariant Theory, 1993).

    Searches total degrees 1..order (the Noether bound for a group of
    that order) breadth-first. The frontier maps each monomial of the
    previous degree that no generator divides to its residue vector; a
    child's residue is its parent's plus chi_w, mod e. A candidate is
    divisible by a generator iff one of its predecessors cand - e_j
    (cand_j > 0) is missing from the frontier, so it survives iff it was
    reached from as many frontier monomials as it has nonzero exponents.
    A survivor with residue zero is a new generator. For the trivial
    group this returns the variables.
    """
    check_order_cap(order)
    variables = chars.leaf_ids
    t = len(variables)
    e = chars.modulus
    steps = chars.leaf_residues
    zero = (0,) * len(chars.generator_orders)
    gens = []
    frontier = {(0,) * t: zero}
    for _degree in range(1, order + 1):
        reached = {}  # candidate -> [predecessors seen, parent residue, leaf]
        for exps, residue in frontier.items():
            for i in range(t):
                cand = exps[:i] + (exps[i] + 1,) + exps[i + 1:]
                seen = reached.get(cand)
                if seen is None:
                    reached[cand] = [1, residue, i]
                else:
                    seen[0] += 1
        frontier = {}
        for cand, (count, residue, i) in reached.items():
            if count != t - cand.count(0):
                continue  # a generator divides some predecessor
            residue = tuple((a + b) % e for a, b in zip(residue, steps[i]))
            if residue == zero:
                gens.append(cand)
            else:
                frontier[cand] = residue
        if not frontier:
            break
    gens.sort()
    return InvariantBasis(
        variables=variables, exponents=tuple(gens), names=_names(len(gens))
    )


def toric_relations(basis: InvariantBasis, degree_bound: int):
    """All binomials G^b - G^a (disjoint supports, total degrees <=
    degree_bound) whose images under the generator parametrization
    agree. One binomial per unordered pair, deterministic order: fibers
    by image vector ascending, and within a fiber the pairs a < b in
    lexicographic order of the exponent vectors over the generators.

    A product of generators is a nondecreasing tuple of generator
    indices. Its image is packed into one integer whose base-B digits
    are the image coordinates, so no sum of degree_bound generators
    carries and integer order is lexicographic order; its support is a
    bitmask. The products are enumerated depth-first with the last
    index descending, which is ascending lexicographic order of their
    exponent vectors, so every fiber comes out sorted. Each binomial is
    built straight from its two exponent vectors."""
    k = len(basis.exponents)
    if not k or degree_bound < 1:
        return []
    t = len(basis.variables)
    base = degree_bound * max(max(g) for g in basis.exponents) + 1
    packed = [
        sum(x * base ** (t - 1 - j) for j, x in enumerate(g))
        for g in basis.exponents
    ]
    fibers = {}
    stack = [((i,), packed[i], 1 << i) for i in range(k)]
    while stack:
        combo, image, mask = stack.pop()
        fiber = fibers.get(image)
        if fiber is None:
            fibers[image] = [(combo, mask)]
        else:
            fiber.append((combo, mask))
        if len(combo) < degree_bound:
            stack.extend(
                (combo + (j,), image + packed[j], mask | 1 << j)
                for j in range(combo[-1], k)
            )

    def vector(combo):
        counts = [0] * k
        for i in combo:
            counts[i] += 1
        return tuple(counts)

    one, minus_one = Fraction(1), Fraction(-1)
    names = tuple(basis.names)
    relations = []
    for image in sorted(img for img, grp in fibers.items() if len(grp) > 1):
        group = fibers[image]
        vectors = [None] * len(group)  # built only for products in a relation
        for x, (lo, lo_mask) in enumerate(group):
            for y in range(x + 1, len(group)):
                hi, hi_mask = group[y]
                if lo_mask & hi_mask:
                    continue  # shared support reduces to a smaller relation
                if vectors[x] is None:
                    vectors[x] = vector(lo)
                if vectors[y] is None:
                    vectors[y] = vector(hi)
                relations.append(Polynomial._trusted(
                    names, {vectors[y]: one, vectors[x]: minus_one}
                ))
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
