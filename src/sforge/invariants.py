"""Invariant theory of the diagonal discriminant-group action.

The group acts on the leaf variables z_w through characters chi_w,
carried as integer residue vectors modulo one common modulus e (see
CharacterAssignment). An invariant monomial is an exponent vector a
with sum a_w chi_w = 0 mod e, and the minimal ones, the Hilbert basis
of that monoid, generate the invariant ring; they are found by a
breadth-first search up to the Noether bound |G| on plain integers:
the characters the search reaches are numbered, with a table of leaf
steps between the numbers filled in on demand, and each exponent
vector is packed into one integer whose digits are the exponents, so
that integer order is lexicographic order. Binomial relations
between the generators are found by grouping their products of
bounded degree by image, and are kept only as texts ("A^2*C - B*D"):
each product's text is written once, in one pass over its tuple of
generator indices. A caller that wants a relation as a Polynomial
parses its text with parse_polynomial(text, basis.names).

Bounded-degree ideal membership is a linear system in the cofactor
coefficients, one sparse integer row per monomial (denominators
cleared row by row), solved by fraction-free elimination of the
columns in order (intmat.solve_sparse). Its pivot columns are the first
independent columns, whichever rows are picked, and with the free
unknowns zero the pivot unknowns are determined; so the cofactors are
the ones reduced row echelon form gives, as they were when a dense
Fraction Gauss-Jordan solve did this. Every certificate is verified by
Polynomial arithmetic. This is the verification side of the quotient
computation: relations are checked, not derived by elimination.
"""

from __future__ import annotations

import sys
from itertools import combinations_with_replacement, count
from math import comb, lcm
from operator import add
from typing import NamedTuple

from .discgroup import CharacterAssignment
from .errors import CapExceededError
from .intmat import solve_sparse
from .poly import Polynomial

__all__ = [
    "InvariantBasis",
    "MembershipCertificate",
    "invariant_generators",
    "toric_relations",
    "membership_bounded",
    "ORDER_CAP",
    "PRODUCT_CAP",
    "FACTOR_CAP",
    "RELATION_CAP",
    "check_order_cap",
]

ORDER_CAP = 2000
# Most products of generators, up to the degree bound, that
# toric_relations enumerates; invariant_generators, given the bound,
# stops its search once the generators it has found pass it. The
# seed-17 random tree's 453 generators give 103,284 at bound 2 (about a
# second); seed 56's give 300,699 and 8.7M relations.
PRODUCT_CAP = 200_000
# Most generator factors, summed over those products, that
# toric_relations keeps: each product is a tuple of its factors, so one
# generator under PRODUCT_CAP still holds D(D+1)/2 of them at bound D.
# Every product has degree <= D, so no bound <= 10 reaches this cap.
FACTOR_CAP = 10 * PRODUCT_CAP
# Most relations toric_relations writes. Under PRODUCT_CAP one fiber can
# still hold most products: a 5-vertex tree with |G| = 56 has 165,024
# products and 9,224,016 relations (183 MB of text).
RELATION_CAP = 1_000_000


def _shown(n: int) -> str:
    """n as text, or its length when int cannot turn it into text
    (sys.get_int_max_str_digits)."""
    try:
        return str(n)
    except ValueError:
        return "with more than %d digits" % sys.get_int_max_str_digits()


def check_order_cap(order: int) -> None:
    """Refuse a group order above ORDER_CAP with a CapExceededError,
    before any work that grows with the order. The refusal names the
    cap, and the order when int can turn it into text."""
    if order > ORDER_CAP:
        raise CapExceededError(
            "group order %s above the desk-scale cap %d"
            % (_shown(order), ORDER_CAP)
        )


class InvariantBasis(NamedTuple):
    variables: tuple  # the leaf variables
    exponents: tuple  # generator exponent tuples, lexicographic order
    names: tuple  # fresh names A, B, C, ... matching `exponents`


class MembershipCertificate(NamedTuple):
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


def _check_product_cap(k, degree_bound, least=None):
    """Refuse k generators with more than PRODUCT_CAP products up to
    degree_bound, or with more than FACTOR_CAP factors in them, k *
    C(k + d, d - 1) for d = degree_bound; with least, lower bounds from
    those of that degree."""
    n = comb(k + degree_bound, degree_bound) - 1
    if n > PRODUCT_CAP:
        what, cap = "products", "product cap %d" % PRODUCT_CAP
    else:
        n = k * comb(k + degree_bound, degree_bound - 1)
        if n <= FACTOR_CAP:
            return
        what, cap = "factors in the products", "factor cap %d" % FACTOR_CAP
    raise CapExceededError(
        "%s%d %s of %d invariant generators%s up to degree %d above the "
        "desk-scale %s"
        % ("" if least is None else "at least ", n, what, k,
           "" if least is None else " (those of the least degree %d)"
           % least, degree_bound, cap)
    )


def _least_degree_count(chars):
    """(d0, N): the least degree d0 >= 1 of an invariant monomial, and
    the number N of them of degree d0, each a minimal generator since
    an invariant proper divisor would have lower degree. rows[i] maps
    each character to the number of monomials of the current degree in
    leaves 0..i with it: those without leaf i, and z_i times those of
    one degree less. d0 is at most the least leaf character order, so
    this takes O(d0 * t * |G|) steps."""
    e = chars.modulus
    zero = (0,) * len(chars.generator_orders)
    rows = [{zero: 1} for _ in chars.leaf_ids]
    for degree in count(1):
        acc = {}
        for i, leaf in enumerate(chars.leaf_residues):
            acc = dict(acc)
            for h, n in rows[i].items():
                r = tuple((a + b) % e for a, b in zip(h, leaf))
                acc[r] = acc.get(r, 0) + n
            rows[i] = acc
        if acc.get(zero):
            return degree, acc[zero]


def invariant_generators(
    chars: CharacterAssignment, order: int, *, degree_bound: int = None
) -> InvariantBasis:
    """Minimal generating monomials of the invariant ring: the Hilbert
    basis of {a in N^t : sum a_w chi_w = 0}, with chi_w the character of
    leaf w as an integer residue vector mod e (Sturmfels, Algorithms in
    Invariant Theory, 1993).

    Searches total degrees 1..order (the Noether bound for a group of
    that order) breadth-first, on plain integers:
    - The characters reached from 0 by the leaf characters are numbered
      as they first appear, 0 for the trivial one. step[i][h] is the
      number of character h plus chi_i, filled in when the search first
      asks for it, so the table never costs more than the search.
    - An exponent vector is one integer with base order + 1 digits, the
      first leaf most significant; exponents stay below the base, so
      adding a leaf is adding its place value and integer order is
      lexicographic order.
    The frontier maps each monomial of the previous degree that no
    generator divides to its character number and its support, the
    nonzero positions in increasing order. A monomial is divisible by a
    generator iff one of its predecessors cand - e_j (cand_j > 0) is
    missing from the frontier. Each candidate is built once, from the
    predecessor that drops its last nonzero position, and kept iff its
    other predecessors are all in the frontier. A kept candidate of
    character 0 is a new generator. Only the generators are unpacked
    into exponent tuples. For the trivial group this returns the
    variables.

    With degree_bound given, raises the CapExceededError of toric_relations
    as soon as the generators found so far have more than PRODUCT_CAP
    products up to that degree, before the search runs on; and once it
    has walked PRODUCT_CAP monomials with no generator found, if the
    invariants of the least degree (_least_degree_count), all
    generators, alone have too many products.

    order must be |G| = chars.order: a smaller one would cut the search
    short of the Hilbert basis, so any other raises ValueError.
    """
    check_order_cap(order)
    if order != chars.order:
        raise ValueError("order %s is not the group order %s of the "
                         "characters" % (_shown(order), _shown(chars.order)))
    variables = chars.leaf_ids
    t = len(variables)
    e = chars.modulus
    leaf = chars.leaf_residues
    residues = [(0,) * len(chars.generator_orders)]
    numbers = {residues[0]: 0}
    step = [[-1] for _ in range(t)]

    def follow(i, h):
        r = tuple((a + b) % e for a, b in zip(residues[h], leaf[i]))
        n = numbers.get(r)
        if n is None:
            n = numbers[r] = len(residues)
            residues.append(r)
            for row in step:
                row.append(-1)
        step[i][h] = n
        return n

    capped = degree_bound is not None and degree_bound >= 1
    base = order + 1
    place = [base ** (t - 1 - i) for i in range(t)]
    gens = []
    walked = 0  # monomials reached with no generator found, until counted
    frontier = {0: (0, ())}  # packed exponents -> (character, support)
    for _degree in range(1, order + 1):
        reached = {}
        for exps, (h, support) in frontier.items():
            for i in range(support[-1] if support else 0, t):
                cand = exps + place[i]
                for j in support:
                    if j != i and cand - place[j] not in frontier:
                        break  # a generator divides that predecessor
                else:
                    n = step[i][h]
                    if n < 0:
                        n = follow(i, h)
                    if n:
                        if support and support[-1] == i:
                            reached[cand] = (n, support)
                        else:
                            reached[cand] = (n, support + (i,))
                    else:
                        gens.append(cand)
                        if capped:
                            _check_product_cap(len(gens), degree_bound)
        frontier = reached
        if not frontier:
            break
        if capped and not gens and walked <= PRODUCT_CAP:
            walked += len(frontier)
            if walked > PRODUCT_CAP:
                least, n = _least_degree_count(chars)
                _check_product_cap(n, degree_bound, least)
    gens.sort()
    exponents = []
    for packed in gens:
        digits = [0] * t
        for j in range(t - 1, -1, -1):
            packed, digits[j] = divmod(packed, base)
        exponents.append(tuple(digits))
    return InvariantBasis(
        variables=variables,
        exponents=tuple(exponents),
        names=_names(len(exponents)),
    )


def _product_text(combo, names):
    """The text of a product of generators, given as a nondecreasing
    tuple of generator indices: A^2*C for (0, 0, 2). One pass counts
    the runs of equal indices."""
    factors = []
    prev, run = combo[0], 0
    for i in combo + (None,):
        if i == prev:
            run += 1
            continue
        name = names[prev]
        factors.append(name if run == 1 else "%s^%d" % (name, run))
        prev, run = i, 1
    return "*".join(factors)


def toric_relations(basis: InvariantBasis, degree_bound: int) -> list:
    """All binomials G^b - G^a (disjoint supports, total degrees <=
    degree_bound) whose images under the generator parametrization
    agree, as texts. One binomial per unordered pair, deterministic
    order: fibers by image vector ascending, and within a fiber the
    pairs a < b in lexicographic order of the exponent vectors over the
    generators.

    Raises CapExceededError, before any product is built, when the products
    of the k generators up to degree d = degree_bound, C(k + d, d) - 1
    of them, exceed PRODUCT_CAP; and, before any text is built, when
    the pairs of products of one image, the sum of C(|fiber|, 2) over
    the fibers, exceed RELATION_CAP. Up to degree 2 that sum is the
    number of relations: two distinct products of one image share no
    generator, for cancelling a shared one would leave two equal
    generators or a zero one, which a minimal generating set excludes.
    Above degree 2 it is an upper bound.

    A product of generators is a nondecreasing tuple of generator
    indices. Its image is packed into one integer whose base-B digits
    are the image coordinates, so no sum of degree_bound generators
    carries and integer order is lexicographic order; its support is a
    bitmask. The products are enumerated depth-first with the last
    index descending, which is ascending lexicographic order of their
    exponent vectors, so every fiber comes out sorted.

    Returns a list of str, one per binomial, written as the Polynomial
    G^b - G^a would print: b above a in lexicographic order, unit
    coefficients. Each product's text (A^2*C) is made from its index
    tuple once, the first time it enters a relation, and each
    relation's text is that of b, " - ", that of a. The texts are the
    representation; parse_polynomial(text, basis.names) gives a
    relation as a Polynomial."""
    k = len(basis.exponents)
    if not k or degree_bound < 1:
        return []
    _check_product_cap(k, degree_bound)
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
    pairs = sum(n * (n - 1) // 2 for n in map(len, fibers.values()))
    if pairs > RELATION_CAP:
        raise CapExceededError(
            "%s%d relations of %d invariant generators up to degree %d "
            "above the desk-scale relation cap %d"
            % ("" if degree_bound <= 2 else "at most ", pairs, k,
               degree_bound, RELATION_CAP)
        )
    names = tuple(basis.names)
    relations = []
    for image in sorted(img for img, grp in fibers.items() if len(grp) > 1):
        group = fibers[image]
        words = [None] * len(group)  # made only for products in a relation
        for x, (lo, lo_mask) in enumerate(group):
            for y in range(x + 1, len(group)):
                hi, hi_mask = group[y]
                if lo_mask & hi_mask:
                    continue  # shared support reduces to a smaller relation
                if words[x] is None:
                    words[x] = _product_text(lo, names)
                if words[y] is None:
                    words[y] = _product_text(hi, names)
                relations.append(words[y] + " - " + words[x])
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


def _integer_row(row):
    """A sparse row of Fractions scaled by the lcm of its denominators."""
    scale = lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (scale // x.denominator) for j, x in row.items()}


def membership_bounded(target: Polynomial, ideal_gens, bound: int):
    """Search for cofactors q_i of degree <= bound with
    target = sum q_i * g_i; exact linear algebra over the finite
    monomial basis. Returns a verified MembershipCertificate, or None
    when no cofactors exist at this bound (which proves nothing about
    higher bounds). Raises ValueError for a negative bound.

    The unknowns are the coefficients of the q_i, one column per (i,
    cofactor monomial), and there is one equation per monomial of the
    products and the target. Each equation is built straight as a
    sparse integer row of [A | b], its denominators cleared, and
    intmat.solve_sparse eliminates them fraction-free. Its pivot
    columns are the first independent columns of A, and with the free
    unknowns zero the pivot unknowns are determined, so the cofactors
    are those that Gauss-Jordan elimination to reduced row echelon
    form gives. The certificate is checked by Polynomial arithmetic
    before it is returned."""
    if bound < 0:
        raise ValueError("degree bound must be >= 0, got %d" % bound)
    if not ideal_gens:
        return None
    variables = target.variables
    for gpoly in ideal_gens:
        if gpoly.variables != variables:
            raise ValueError("all polynomials must share one variable set")
    cof_monomials = _monomials_up_to(variables, bound)
    rows = {}  # monomial -> {unknown: coefficient}
    ci = 0  # unknown (gen index, cofactor monomial), gens outermost
    for gpoly in ideal_gens:
        for cm in cof_monomials:
            for exps, coeff in gpoly.terms.items():
                rows.setdefault(tuple(map(add, exps, cm)), {})[ci] = coeff
            ci += 1
    for key, coeff in target.terms.items():
        rows.setdefault(key, {})[ci] = coeff
    solution = solve_sparse([_integer_row(row) for row in rows.values()], ci)
    if solution is None:
        return None
    m = len(cof_monomials)
    cofactors = [
        Polynomial._from_terms(variables, {
            cm: x.numerator if x.denominator == 1 else x
            for cm, x in zip(cof_monomials, solution[gi * m:])
            if x
        })
        for gi in range(len(ideal_gens))
    ]
    check = Polynomial.zero(variables)
    for q, gpoly in zip(cofactors, ideal_gens):
        check = check + q * gpoly
    if check != target:
        raise AssertionError("membership certificate failed verification")
    return MembershipCertificate(cofactors=tuple(cofactors), degree_bound=bound)
