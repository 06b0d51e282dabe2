"""Randomized oracle-agreement suite on seeded negative-definite trees.

This is the library-level version of the acceptance criterion on 200
random trees; the helpers here are reused by test_acceptance.
"""

from random import Random

from sforge import (
    blow_down_minimal,
    build_splice_equations,
    classify,
    congruence_condition,
    determinant,
    edge_determinant,
    fundamental_cycle,
    intersection_matrix,
    is_negative_definite,
    linking_number,
    node_weight,
    semigroup_condition,
    smith_normal_form,
    to_splice_diagram,
)
from sforge.corpus import random_negative_definite_tree

from oracles import (
    coin_membership_dp,
    fundamental_cycle_bruteforce,
    random_rational_tree,
    smith_normal_form_dense,
    snf_is_certified,
)

TREE_COUNT = 200


def seeded_trees(count=TREE_COUNT):
    for seed in range(count):
        yield seed, random_negative_definite_tree(Random(seed))


def check_tree(g):
    """All criterion-5 properties for one tree; returns counters."""
    stats = {"snf": 0, "det": 0, "cycle": 0, "semigroup": 0, "edgedet": 0}
    m = intersection_matrix(g)
    assert is_negative_definite(m)

    snf = smith_normal_form(m)
    assert snf_is_certified(m, snf)
    dense = smith_normal_form_dense(m)
    assert (snf.d, snf.u_inv) == (dense.d, dense.u_inv)
    diag = snf.diagonal
    for a, b in zip(diag, diag[1:]):
        assert a > 0 and b % a == 0
    stats["snf"] = 1

    prod = 1
    for f in diag:
        prod *= f
    assert prod == abs(determinant(m))
    stats["det"] = 1

    if g.n <= 6:
        z = fundamental_cycle(g)
        oracle = fundamental_cycle_bruteforce(g)
        if oracle is None:
            assert max(z.coefficients) > 10
        else:
            assert z.coefficients == oracle
        stats["cycle"] = 1

    d = to_splice_diagram(g)
    wit = semigroup_condition(d) if d.has_nodes else None
    if wit is not None:
        for (v, ei), sols in wit.solutions.items():
            e = next(x for x in d.edges if x.index == ei)
            outer = d.leaves_beyond(v, e)
            coins = [linking_number(d, v, w) for w in outer]
            assert coin_membership_dp(node_weight(d, v), coins) == bool(sols)
        stats["semigroup"] = 1

    for e in d.edges:
        if d.is_node(e.a) and d.is_node(e.b):
            assert edge_determinant(d, e) > 0
            stats["edgedet"] += 1
    return stats


def test_random_tree_suite():
    totals = {"snf": 0, "det": 0, "cycle": 0, "semigroup": 0, "edgedet": 0}
    count = 0
    for seed, g in seeded_trees():
        assert g.n <= 10
        stats = check_tree(g)
        for k, v in stats.items():
            totals[k] += v
        count += 1
    assert count == TREE_COUNT
    # the suite actually exercised every property
    assert totals["snf"] == totals["det"] == TREE_COUNT
    assert totals["cycle"] >= 50
    assert totals["semigroup"] >= 30
    assert totals["edgedet"] >= 1


def test_okuma_rational_and_minimally_elliptic_trees_have_splice_equations():
    """Okuma: a rational or minimally elliptic QHS link with a node
    satisfies the semigroup and congruence conditions, so its splice
    equations exist; trees of kind 'other' can fail either."""
    kinds = {"rational": 0, "minimally_elliptic": 0}
    other_fails = {"semigroup": 0, "congruence": 0}
    for seed in range(2000):
        g = random_negative_definite_tree(Random(seed), max_vertices=12)
        h = blow_down_minimal(g)
        if not (h.is_qhs_tree() and h.is_negative_definite()):
            continue
        d = to_splice_diagram(h)
        if not d.has_nodes:
            continue
        kind = classify(h).kind
        semigroup = semigroup_condition(d).holds
        if kind in kinds:
            kinds[kind] += 1
            assert semigroup, seed
            assert congruence_condition(h).holds, seed
            build_splice_equations(h)
        elif not semigroup:
            other_fails["semigroup"] += 1
        elif not congruence_condition(h).holds:
            other_fails["congruence"] += 1
    assert kinds["rational"] >= 100 and kinds["minimally_elliptic"] >= 1
    assert other_fails["semigroup"] >= 1 and other_fails["congruence"] >= 1


def test_okuma_on_seeded_rational_trees():
    """Okuma at the size the witness search reaches: 40 seeded rational
    trees of 4-14 vertices with a node (random_rational_tree) classify
    as rational, are minimal, pass both conditions and have splice
    equations. Larger trees wait for exact membership from the splice
    structure: of five 20-vertex trees drawn from Random(5), 4 have
    their equations within 5 s (2 without residue stepping), and of
    five 40-vertex trees none does."""
    rng = Random(2024)
    trees = 0
    while trees < 40:
        g = random_rational_tree(rng, 4, 14)
        if not any(g.valency(v) >= 3 for v in g.vertex_ids):
            continue  # a chain: no node, no equations
        trees += 1
        assert classify(g).kind == "rational"
        assert blow_down_minimal(g) is g
        assert semigroup_condition(to_splice_diagram(g)).holds
        assert congruence_condition(g).holds
        build_splice_equations(g)


def test_generator_is_reproducible():
    a = random_negative_definite_tree(Random(123))
    b = random_negative_definite_tree(Random(123))
    assert a == b
