"""Acceptance suite: one test per criterion, each printing a pass/fail
line (visible with `pytest -s`). Every assertion is exact; there are no
tolerances anywhere.

Run: pytest tests/test_acceptance.py -v -s
"""

import functools
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from random import Random

from sforge import (
    IntMatrix,
    Polynomial,
    build_splice_equations,
    canonical_cycle,
    check_equivariance,
    classify,
    congruence_condition,
    determinant,
    discriminant_group,
    edge_determinant,
    fundamental_cycle,
    intersection_matrix,
    invariant_generators,
    is_zhs,
    leaf_characters,
    linking_number,
    membership_bounded,
    node_weight,
    parse_polynomial,
    semigroup_condition,
    to_splice_diagram,
)
from sforge.corpus import (
    a_n,
    builtin_corpus,
    d_n,
    e6,
    e7,
    e8,
    quotient_cusp,
    random_negative_definite_tree,
)
from sforge.errors import (
    ConditionsNotMetError,
    NoNodesError,
    NotQhsTreeError,
)

from oracles import generator_monomial, group_elements, random_rational_tree

from test_equations import brieskorn_exponents
from test_properties import TREE_COUNT, check_tree, seeded_trees
from test_splice import PAPER_WITNESSES, solutions_by_direction


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print("[acceptance] criterion %d (%s): FAIL" % (number, title))
                raise
            print("[acceptance] criterion %d (%s): PASS" % (number, title))

        return run

    return wrap


@criterion(1, "E7 end-to-end, Example 4.2")
def test_criterion_1_e7_end_to_end():
    g = e7()

    dg = discriminant_group(g)
    assert dg.order == 2

    assert brieskorn_exponents(g) == (2, 3, 4)

    ch = leaf_characters(g)
    assert ch.leaf_ids == ("x", "y", "z")
    nontrivial_actions = {
        ph for coeffs, ph in group_elements(ch).items() if any(coeffs)
    }
    assert nontrivial_actions == {(Fraction(1, 2), Fraction(0), Fraction(1, 2))}

    # the phases mean exactly (x, y, z) -> (-x, y, -z); the splice
    # equation is literally invariant under that sign change
    pkg = build_splice_equations(g)
    (eq,) = pkg.equations
    assert str(eq) == "x^2 + y^3 + z^4"
    assert pkg.variables == ("x", "y", "z")
    flipped = {(a, b, c): (-1) ** (a + c) * coeff
               for (a, b, c), coeff in eq.terms.items()}
    assert flipped == eq.terms

    basis = invariant_generators(ch, dg.order)
    assert set(basis.exponents) == {
        (2, 0, 0),
        (1, 0, 1),
        (0, 0, 2),
        (0, 1, 0),
    }
    # pin the paper's names A=x^2, B=xz, C=z^2, D=y onto the canonical
    # generators by exponent content
    assert basis.variables == ("x", "y", "z")
    paper = {
        name: basis.names[basis.exponents.index(exps)]
        for name, exps in (("A", (2, 0, 0)), ("B", (1, 0, 1)),
                           ("C", (0, 0, 2)), ("D", (0, 1, 0)))
    }

    from sforge.invariants import toric_relations

    rels = toric_relations(basis, 2)
    assert len(rels) == 1
    # AC - B^2 in the paper's names
    names = basis.names
    ac = tuple(int(n in (paper["A"], paper["C"])) for n in names)
    b2 = tuple(2 * (n == paper["B"]) for n in names)
    assert parse_polynomial(rels[0], names) in (
        Polynomial(names, {ac: 1, b2: -1}), Polynomial(names, {ac: -1, b2: 1})
    )

    # B^2 + C(C^2 + D^3) lies in (x^2 + y^3 + z^4) with cofactor z^2
    b, c, d = (generator_monomial(basis, names.index(paper[nm]))
               for nm in "BCD")
    target = b * b + c * (c * c + d * d * d)
    cert = membership_bounded(target, [eq], 2)
    assert cert is not None
    assert [str(q) for q in cert.cofactors] == ["z^2"]
    total = Polynomial.zero(pkg.variables)
    for q, gen in zip(cert.cofactors, [eq]):
        total = total + q * gen
    assert total == target


@criterion(2, "section-5 worked example")
def test_criterion_2_two_node_example():
    g = builtin_corpus()["two-node"]
    d = to_splice_diagram(g)

    def weights(v):
        return {
            d.direction_label(v, e): d.weight(v, e)
            for e in d.incident_edges(v)
        }

    assert weights("n1") == {"toward z1": 2, "toward z2": 3, "toward m": 7}
    assert weights("n2") == {"toward z4": 2, "toward g": 5, "toward m": 11}

    internal = next(
        e for e in d.edges if d.is_node(e.a) and d.is_node(e.b)
    )
    assert edge_determinant(d, internal) == 17

    assert [linking_number(d, "n1", w) for w in d.leaves] == [21, 14, 12, 30]
    assert node_weight(d, "n1") == 42

    wit = semigroup_condition(d)
    assert wit.holds
    assert solutions_by_direction(d, wit) == PAPER_WITNESSES

    pkg = build_splice_equations(g)
    supports = [
        {tuple(sorted(m.items())) for m in eq.support_maps()}
        for eq in pkg.equations
    ]
    assert supports == [
        {(("z1", 2),), (("z2", 3),), (("z3", 1), ("z4", 1))},
        {(("z1", 1), ("z2", 4)), (("z3", 5),), (("z4", 2),)},
    ]


@criterion(3, "ZHS detection for the section-5 graph")
def test_criterion_3_zhs():
    g = builtin_corpus()["two-node"]
    m = intersection_matrix(g)
    assert abs(determinant(m)) == 1
    # is_zhs asserts the three weight conditions internally; re-check
    # them here explicitly
    d = to_splice_diagram(g)
    assert is_zhs(g)
    from math import gcd

    for v in d.nodes:
        ws = [d.weight(v, e) for e in d.incident_edges(v)]
        assert all(
            gcd(a, b) == 1 for a, b in combinations(ws, 2)
        )
        for e in d.incident_edges(v):
            if d.is_leaf(e.other(v)):
                assert d.weight(v, e) > 1
    for e in d.edges:
        if d.is_node(e.a) and d.is_node(e.b):
            assert edge_determinant(d, e) > 0


@criterion(4, "classification and discriminant suite")
def test_criterion_4_classification():
    ade = {
        "a1": a_n(1),
        "a2": a_n(2),
        "a3": a_n(3),
        "a5": a_n(5),
        "d4": d_n(4),
        "e6": e6(),
        "e7": e7(),
        "e8": e8(),
    }
    for name, g in ade.items():
        c = classify(g)
        assert c.kind == "rational", name
        k = canonical_cycle(g)
        assert all(x == 0 for x in k.coefficients), name
        z = fundamental_cycle(g)
        m = intersection_matrix(g)
        zz = sum(
            z.coefficients[i] * m[i, j] * z.coefficients[j]
            for i in range(g.n)
            for j in range(g.n)
        )
        zk = sum(
            z.coefficients[i] * (2 * v.genus - 2 - v.weight)
            for i, v in enumerate(g.vertices)
        )
        assert zz + zk == -2, name

    orders = {
        "d4": 4,
        "e6": 3,
        "e7": 2,
        "e8": 1,
    }
    for n in (1, 2, 3, 5):
        assert discriminant_group(a_n(n)).order == n + 1
    for name, order in orders.items():
        assert discriminant_group(ade[name]).order == order, name

    qc = quotient_cusp(2, [2, 3])
    assert classify(qc).kind == "rational"
    wit = semigroup_condition(to_splice_diagram(qc))
    assert wit.holds
    assert congruence_condition(qc).holds


@criterion(5, "oracle equivalence on %d seeded random trees" % TREE_COUNT)
def test_criterion_5_random_oracles():
    count = 0
    for seed, g in seeded_trees():
        assert g.n <= 10
        check_tree(g)  # asserts SNF, det, cycle, semigroup, edge dets
        count += 1
    assert count == TREE_COUNT


def _check_equation_invariants(pkg, name):
    """Criterion 6 on one package: equivariance, each equation weighted
    homogeneous of its node's weight, every monomial of a node of the
    node's character, the Fractions of the group's generators, as
    monomial_character reads it off the leaf phases, and every maximal
    minor of the generic coefficients nonzero."""
    assert check_equivariance(pkg), name
    for ns in pkg.nodes:
        for eq in ns.equations:
            assert eq.weighted_degree(ns.variable_weights) == ns.weight, name
        chars = {
            pkg.characters.monomial_character(m)
            for eq in ns.equations
            for m in eq.support_maps()
        }
        assert chars == {ns.character}, name
        rows = ns.coefficients.rows
        delta = ns.coefficients.cols
        for cols in combinations(range(delta), rows):
            minor = IntMatrix(
                [[ns.coefficients[i, j] for j in cols] for i in range(rows)]
            )
            assert determinant(minor) != 0, name


def _equations_or_none(g):
    try:
        return build_splice_equations(g)
    except (NotQhsTreeError, NoNodesError, ConditionsNotMetError):
        return None


@criterion(6, "equation invariants across the corpus")
def test_criterion_6_equation_invariants():
    built = 0
    for name, g in builtin_corpus().items():
        pkg = _equations_or_none(g)
        if pkg is not None:
            built += 1
            _check_equation_invariants(pkg, name)
    assert built >= 6  # the corpus genuinely exercises this


@criterion(6, "equation invariants on seeded random trees")
def test_criterion_6_on_seeded_trees():
    """The first 200 draws of Random(6) (max_vertices 12) that have
    equations, about 300 draws, and 20 rational trees of 4-12 vertices
    with a node, which have equations by Okuma's theorem."""
    rng = Random(6)
    draws = built = 0
    while built < 200:
        draws += 1
        assert draws <= 1000, built
        pkg = _equations_or_none(
            random_negative_definite_tree(rng, max_vertices=12))
        if pkg is not None:
            built += 1
            _check_equation_invariants(pkg, "Random(6) draw %d" % draws)
    rng = Random(60)
    rational = 0
    while rational < 20:
        g = random_rational_tree(rng, 4, 12)
        if any(g.valency(v) >= 3 for v in g.vertex_ids):
            rational += 1
            _check_equation_invariants(build_splice_equations(g), g)


def _check_completeness(g, name):
    """Criterion 7 on one QHS tree: every invariant monomial of degree
    at most |G| (the Noether bound) is a product of the generators."""
    order = discriminant_group(g).order
    ch = leaf_characters(g)
    gens = list(invariant_generators(ch, order).exponents)
    zero = (Fraction(0),) * len(ch.generator_orders)
    t = len(ch.leaf_ids)

    def factors(exps):
        if all(e == 0 for e in exps):
            return True
        return any(
            all(a >= b for a, b in zip(exps, g0))
            and factors(tuple(a - b for a, b in zip(exps, g0)))
            for g0 in gens
        )

    for degree in range(1, order + 1):
        for combo in combinations_with_replacement(range(t), degree):
            exps = [0] * t
            for i in combo:
                exps[i] += 1
            mono = {v: e for v, e in zip(ch.leaf_ids, exps) if e}
            if ch.monomial_character(mono) == zero:
                assert factors(tuple(exps)), (name, exps)


@criterion(7, "invariant-ring completeness at the Noether bound")
def test_criterion_7_invariant_completeness():
    checked = 0
    for name, g in builtin_corpus().items():
        if g.is_qhs_tree() and discriminant_group(g).order <= 200:
            _check_completeness(g, name)
            checked += 1
    assert checked >= 8


@criterion(7, "invariant-ring completeness on seeded random trees")
def test_criterion_7_on_seeded_trees():
    """The first 20 draws of Random(7) (max_vertices 10) that are QHS
    trees with 1 < |G| <= 20 and at most 4 leaves, about 60 draws."""
    rng = Random(7)
    draws = checked = 0
    while checked < 20:
        draws += 1
        assert draws <= 500, checked
        g = random_negative_definite_tree(rng, max_vertices=10)
        if (g.is_qhs_tree() and len(g.leaf_ids) <= 4
                and 1 < discriminant_group(g).order <= 20):
            _check_completeness(g, "Random(7) draw %d" % draws)
            checked += 1


@criterion(8, "excluded analytic statements (documented)")
def test_criterion_8_exclusions_documented():
    # isolated-singularity property of X(Delta), freeness of the action,
    # geometric genus and the Casson invariant are analytic statements
    # outside this artifact; the property suites above (criteria 5-7)
    # stand in for them. Nothing to compute: the criterion records the
    # exclusion.
    assert True