"""Splice diagram derivation and the semigroup machinery."""

from itertools import islice
from math import gcd
from random import Random

import pytest

from sforge import (
    NotQhsTreeError,
    ResolutionGraph,
    Vertex,
    adjugate,
    determinant,
    edge_determinant,
    intersection_matrix,
    invert_rational,
    is_negative_definite,
    is_zhs,
    linking_number,
    linking_numbers,
    node_weight,
    semigroup_condition,
    to_splice_diagram,
    witnesses,
)
from sforge.corpus import (
    a_n,
    chain,
    e7,
    e8,
    quotient_cusp,
    random_negative_definite_tree,
    star,
    two_node_example,
)

from oracles import _bounded_representations, coin_membership_dp


def weights_at(d, v):
    return {
        d.direction_label(v, e): d.weight(v, e) for e in d.incident_edges(v)
    }


# -- derivation ---------------------------------------------------------------


def test_star_center_minus_one_237_is_one_node():
    g = star(-1, [[-2], [-3], [-7]], leaf_ids=["x", "y", "z"])
    d = to_splice_diagram(g)
    assert d.nodes == ("c",)
    assert weights_at(d, "c") == {
        "toward x": 2,
        "toward y": 3,
        "toward z": 7,
    }


def test_star_center_minus_one_with_234_arms_is_indefinite():
    # a -1 center with arms (-2), (-2,-2), (-2,-2,-2) has orbifold Euler
    # number -1 + 1/2 + 2/3 + 3/4 > 0: not a resolution graph at all;
    # the (2,3,4) one-node diagram comes from the E7 Dynkin tree instead
    g = star(-1, [[-2], [-2, -2], [-2, -2, -2]], leaf_ids=["x", "y", "z"])
    assert not is_negative_definite(intersection_matrix(g))
    with pytest.raises(NotQhsTreeError):
        to_splice_diagram(g)


def test_e7_dynkin_gives_one_node_2_3_4():
    d = to_splice_diagram(e7())
    assert len(d.nodes) == 1
    assert sorted(weights_at(d, d.nodes[0]).values()) == [2, 3, 4]
    assert d.leaves == ("x", "y", "z")


def test_two_node_example_weights():
    d = to_splice_diagram(two_node_example())
    assert d.nodes == ("n1", "n2")
    assert weights_at(d, "n1") == {
        "toward z1": 2,
        "toward z2": 3,
        "toward m": 7,
    }
    assert weights_at(d, "n2") == {
        "toward z4": 2,
        "toward g": 5,
        "toward m": 11,
    }


def test_chain_has_no_nodes():
    d = to_splice_diagram(chain([-2, -3, -2]))
    assert not d.has_nodes
    assert d.leaves == ("v0", "v2")
    assert len(d.edges) == 1


def test_single_vertex_degenerate_diagram():
    d = to_splice_diagram(ResolutionGraph([Vertex("a", -3)], []))
    assert not d.has_nodes
    assert d.vertices == ("a",)
    assert d.edges == ()


def test_rejects_positive_genus_and_non_tree_and_indefinite():
    with pytest.raises(NotQhsTreeError):
        to_splice_diagram(ResolutionGraph([Vertex("a", -1, genus=3)], []))
    with pytest.raises(NotQhsTreeError):
        to_splice_diagram(
            ResolutionGraph(
                [Vertex("a", -3), Vertex("b", -3)],
                [("a", "b"), ("a", "b")],
            )
        )
    with pytest.raises(NotQhsTreeError):
        to_splice_diagram(chain([-1, -1]))


def test_relabeling_invariance():
    g = two_node_example()
    rng = Random(3)
    order = list(range(g.n))
    rng.shuffle(order)
    rename = {v.id: "w_" + v.id for v in g.vertices}
    permuted = ResolutionGraph(
        [
            Vertex(rename[g.vertices[i].id], g.vertices[i].weight)
            for i in order
        ],
        [(rename[a], rename[b]) for a, b in g.edges],
    )
    d1 = to_splice_diagram(g)
    d2 = to_splice_diagram(permuted)
    assert set(d2.nodes) == {rename[v] for v in d1.nodes}
    for v in d1.nodes:
        assert sorted(weights_at(d1, v).values()) == sorted(
            weights_at(d2, rename[v]).values()
        )
    for w in d1.leaves:
        for v in d1.nodes:
            assert linking_number(d1, v, w) == linking_number(
                d2, rename[v], rename[w]
            )


# -- edge determinant, node weight, linking ------------------------------------


def test_paper_edge_determinant_17():
    d = to_splice_diagram(two_node_example())
    internal = [
        e for e in d.edges if d.is_node(e.a) and d.is_node(e.b)
    ]
    assert len(internal) == 1
    assert edge_determinant(d, internal[0]) == 7 * 11 - (2 * 3) * (2 * 5) == 17


def test_edge_determinant_formula_instance():
    # two nodes with outer weights (1,1) and edge weights (a,b): ab - 1
    from sforge.splice import SpliceDiagram, SpliceEdge

    gamma = ResolutionGraph(
        [
            Vertex("p", -2),
            Vertex("q", -2),
            Vertex("c", -2),
            Vertex("c2", -2),
            Vertex("r", -2),
            Vertex("s", -2),
        ],
        [("p", "c"), ("q", "c"), ("c", "c2"), ("r", "c2"), ("s", "c2")],
    )
    edges = [
        SpliceEdge(0, "p", "c", ("p", "c")),
        SpliceEdge(1, "q", "c", ("q", "c")),
        SpliceEdge(2, "c", "c2", ("c", "c2")),
        SpliceEdge(3, "c2", "r", ("c2", "r")),
        SpliceEdge(4, "c2", "s", ("c2", "s")),
    ]
    for a, b in [(5, 4), (3, 11)]:
        d = SpliceDiagram(
            gamma.index_of,
            vertices=("p", "q", "c", "c2", "r", "s"),
            leaves=("p", "q", "r", "s"),
            nodes=("c", "c2"),
            edges=edges,
            weights={
                ("c", 0): 1,
                ("c", 1): 1,
                ("c", 2): a,
                ("c2", 2): b,
                ("c2", 3): 1,
                ("c2", 4): 1,
            },
        )
        assert edge_determinant(d, edges[2]) == a * b - 1


def test_edge_determinant_rejects_leaf_edges():
    d = to_splice_diagram(two_node_example())
    leaf_edge = next(e for e in d.edges if d.is_leaf(e.a) or d.is_leaf(e.b))
    with pytest.raises(ValueError):
        edge_determinant(d, leaf_edge)


def test_node_weight_paper_and_product_rule():
    d = to_splice_diagram(two_node_example())
    assert node_weight(d, "n1") == 42
    assert node_weight(d, "n2") == 110
    de7 = to_splice_diagram(e7())
    assert node_weight(de7, de7.nodes[0]) == 24
    with pytest.raises(ValueError):
        node_weight(d, "z1")


def test_linking_numbers_paper_values():
    d = to_splice_diagram(two_node_example())
    assert [linking_number(d, "n1", w) for w in d.leaves] == [21, 14, 12, 30]
    assert linking_number(d, "n1", "n1") == 42
    with pytest.raises(ValueError):
        linking_number(d, "z1", "z1")


def test_linking_numbers_walk_matches_per_pair_definition():
    """Every linking number read off the per-node walks equals
    |det M| * (-M^-1)_xy = -sign(det M) * adj(M)_xy, from the dense
    Bareiss adjugate (which checks M @ adj(M) = det(M) * I itself, and
    uses neither the walk nor the tree pass), on 300 seeded random
    trees: node-leaf, node-node and leaf-leaf pairs, and l_vv = d_v at
    every node."""
    kinds = {"node-leaf": 0, "node-node": 0, "leaf-leaf": 0}
    for seed in range(300):
        g = random_negative_definite_tree(Random(seed), max_vertices=30)
        d = to_splice_diagram(g)
        if not d.has_nodes:
            continue
        det, adj = adjugate(intersection_matrix(g))
        sign = 1 if det > 0 else -1

        def expected(x, y):
            return -sign * adj[g.index_of(x), g.index_of(y)]

        for v in d.nodes:
            assert node_weight(d, v) == linking_number(d, v, v)
            assert node_weight(d, v) == expected(v, v)
            links = linking_numbers(d, v)
            assert list(links) == list(d.leaves)
            assert links == {w: expected(v, w) for w in d.leaves}
        for i, x in enumerate(d.vertices):
            for y in d.vertices[i + 1 :]:
                got = linking_number(d, x, y)
                assert got == linking_number(d, y, x) == expected(x, y)
                kind = sorted("node" if d.is_node(z) else "leaf"
                              for z in (x, y))
                kinds["%s-%s" % (kind[1], kind[0])] += 1
    assert min(kinds.values()) >= 1000, kinds
    d = to_splice_diagram(two_node_example())
    assert list(linking_numbers(d, "n1").values()) == [21, 14, 12, 30]
    with pytest.raises(ValueError):
        linking_numbers(d, d.leaves[0])


def test_linking_one_node_diagram_is_product_of_other_weights():
    d = to_splice_diagram(e7())
    v = d.nodes[0]
    w = weights_at(d, v)
    assert linking_number(d, v, "x") == 3 * 4
    assert linking_number(d, v, "y") == 2 * 4
    assert linking_number(d, v, "z") == 2 * 3
    assert w["toward x"] == 2


def test_leaf_leaf_linking_matches_inverse_matrix_on_zhs():
    for g in (two_node_example(), e8()):
        m = intersection_matrix(g)
        assert abs(determinant(m)) == 1
        inv = invert_rational(m)
        d = to_splice_diagram(g)
        for i, v in enumerate(d.leaves):
            for w in d.leaves[i + 1 :]:
                expected = -inv[g.index_of(v)][g.index_of(w)]
                assert expected.denominator == 1
                assert linking_number(d, v, w) == expected


# -- ZHS test -------------------------------------------------------------------


def test_is_zhs():
    assert is_zhs(two_node_example())
    assert is_zhs(e8())
    assert not is_zhs(e7())
    assert not is_zhs(a_n(1))


# -- semigroup condition ----------------------------------------------------------


def solutions_by_direction(d, wit):
    """{(node, direction label): witness list} of a SemigroupWitness."""
    return {(v, d.direction_label(v, e)): wit.solutions[(v, e.index)]
            for v in d.nodes for e in d.incident_edges(v)}


# The witnesses of every direction of the section-5 two-node example.
PAPER_WITNESSES = {
    ("n1", "toward z1"): [{"z1": 2}],
    ("n1", "toward z2"): [{"z2": 3}],
    ("n1", "toward m"): [{"z3": 1, "z4": 1}],
    ("n2", "toward g"): [{"z3": 5}],
    ("n2", "toward z4"): [{"z4": 2}],
    ("n2", "toward m"): [{"z1": 1, "z2": 4}, {"z1": 3, "z2": 1}],
}


def test_semigroup_paper_witnesses():
    d = to_splice_diagram(two_node_example())
    wit = semigroup_condition(d)
    assert wit.holds
    assert solutions_by_direction(d, wit) == PAPER_WITNESSES


def test_semigroup_one_node_always_holds():
    rng = Random(9)
    for _ in range(20):
        g = random_negative_definite_tree(rng)
        d = to_splice_diagram(g)
        if len(d.nodes) != 1:
            continue
        wit = semigroup_condition(d)
        assert wit.holds
        v = d.nodes[0]
        for e in d.incident_edges(v):
            if d.is_leaf(e.other(v)):
                assert {e.other(v): d.weight(v, e)} in wit.solutions[
                    (v, e.index)
                ]


def test_semigroup_counterexample_named():
    # found by exhaustive search over small two-node trees; n2 has
    # weight 6 but the leaves across the neck link with 12 and 18
    g = engineered_failing_graph()
    assert is_zhs(g)  # even a ZHS link can fail the condition
    d = to_splice_diagram(g)
    wit = semigroup_condition(d)
    assert not wit.holds
    assert wit.failures == (("n2", "toward k"),)
    by_direction = solutions_by_direction(d, wit)
    assert by_direction["n2", "toward k"] == []
    assert by_direction["n1", "toward p"] == [{"p": 3}]
    # confirm every verdict with the independent membership oracle
    for (v, ei), sols in wit.solutions.items():
        e = next(x for x in d.edges if x.index == ei)
        outer = d.leaves_beyond(v, e)
        coins = [linking_number(d, v, w) for w in outer]
        assert coin_membership_dp(node_weight(d, v), coins) == bool(sols)


def engineered_failing_graph():
    """Negative-definite two-node tree failing the semigroup condition
    at the right node, in the direction of the neck."""
    return ResolutionGraph(
        [
            Vertex("p", -3),
            Vertex("q", -2),
            Vertex("n1", -1),
            Vertex("k", -7),
            Vertex("n2", -2),
            Vertex("r", -3),
            Vertex("s", -2),
        ],
        [
            ("p", "n1"),
            ("q", "n1"),
            ("n1", "k"),
            ("k", "n2"),
            ("n2", "r"),
            ("n2", "s"),
        ],
    )


def test_witness_support_and_weight_identity_on_corpus(corpus):
    for name, g in corpus.items():
        try:
            d = to_splice_diagram(g)
        except NotQhsTreeError:
            continue
        if not d.has_nodes:
            continue
        wit = semigroup_condition(d)
        for (v, ei), sols in wit.solutions.items():
            e = next(x for x in d.edges if x.index == ei)
            outer = set(d.leaves_beyond(v, e))
            dv = node_weight(d, v)
            for alpha in sols:
                assert set(alpha) <= outer, (name, v)
                assert all(x >= 1 for x in alpha.values())
                total = sum(
                    exp * linking_number(d, v, w)
                    for w, exp in alpha.items()
                )
                assert total == dv, (name, v)


def test_witness_enumeration_cap_truncates(monkeypatch):
    """A cap cuts the list semigroup_condition keeps, not the stream:
    on the quotient cusp k = 4, the 27 witnesses across each inner
    edge are cut to the first 7 of the stream, which are the capped
    oracle's, and the direction is listed as truncated."""
    monkeypatch.setattr("sforge.splice.WITNESS_CAP", 7)
    d = to_splice_diagram(quotient_cusp(4, [3] * 4))
    wit = semigroup_condition(d)
    assert wit.holds
    assert wit.truncated == (("n1", "toward n2"), ("n4", "toward n3"))
    for v, step in (("n1", "n2"), ("n4", "n3")):
        (e,) = (e for e in d.incident_edges(v) if e.first_step(v) == step)
        links = d.walk(v)[0]
        outer = d.leaves_beyond(v, e)
        coins = [links[w] for w in outer]
        sols = wit.solutions[(v, e.index)]
        assert len(sols) == 7  # cut off at the cap
        assert sols == list(islice(witnesses(d, v, e), 7))
        assert sols == _bounded_representations(links[v], outer, coins, 7)
        full = _bounded_representations(links[v], outer, coins, 10_000)
        assert len(full) == 27
        assert list(witnesses(d, v, e)) == full


def test_capped_witnesses_are_a_prefix_of_the_full_list(corpus):
    """The first `cap` of a direction's witness stream are the capped
    oracle's list, at every cap; an empty stream is exactly a node
    weight outside the semigroup of the links (the coin DP). On the
    corpus, the quotient cusps k = 3..6 and 100 seeded trees."""
    rng = Random(77)
    graphs = list(corpus.values())
    graphs += [quotient_cusp(k, [3] * k) for k in range(3, 7)]
    graphs += [random_negative_definite_tree(rng, max_vertices=12)
               for _ in range(100)]
    checked = empty = 0
    for g in graphs:
        if not g.is_qhs_tree():
            continue
        d = to_splice_diagram(g)
        for v in d.nodes:
            links = d.walk(v)[0]
            for e in d.incident_edges(v):
                outer = d.leaves_beyond(v, e)
                coins = [links[w] for w in outer]
                full = _bounded_representations(links[v], outer, coins,
                                                10_000)
                assert len(full) < 10_000
                for cap in (1, 2, 3, 5, 8, 13):
                    capped = list(islice(witnesses(d, v, e), cap))
                    assert capped == _bounded_representations(
                        links[v], outer, coins, cap), (v, coins, cap)
                    checked += len(full) > cap
                none = next(witnesses(d, v, e), None) is None
                assert none == (not coin_membership_dp(links[v], coins))
                empty += none
    assert checked > 100 and empty >= 5, (checked, empty)


def test_semigroup_verdicts_match_dp_oracle_on_corpus(corpus):
    for name, g in corpus.items():
        m = intersection_matrix(g)
        try:
            d = to_splice_diagram(g)
        except NotQhsTreeError:
            continue
        if not d.has_nodes:
            continue
        wit = semigroup_condition(d)
        for (v, ei), sols in wit.solutions.items():
            e = next(x for x in d.edges if x.index == ei)
            outer = d.leaves_beyond(v, e)
            coins = [linking_number(d, v, w) for w in outer]
            assert coin_membership_dp(node_weight(d, v), coins) == bool(
                sols
            ), (name, v)


def test_edge_determinants_positive_on_corpus(corpus):
    for name, g in corpus.items():
        try:
            d = to_splice_diagram(g)
        except NotQhsTreeError:
            continue
        for e in d.edges:
            if d.is_node(e.a) and d.is_node(e.b):
                assert edge_determinant(d, e) > 0, name


def test_residue_stepped_stream_matches_the_plain_recursion():
    """Residue stepping drops only dead branches: on 30 seeded trees of
    up to 16 vertices, the first 200 witnesses of every direction are
    the plain recursion's (the capped oracle). Many directions have
    links that share a factor, where stepping skips exponents."""
    rng = Random(11)
    trees = stepped = 0
    while trees < 30:
        g = random_negative_definite_tree(rng, max_vertices=16)
        if not g.is_qhs_tree() or not to_splice_diagram(g).has_nodes:
            continue
        trees += 1
        d = to_splice_diagram(g)
        for v in d.nodes:
            links = d.walk(v)[0]
            for e in d.incident_edges(v):
                outer = d.leaves_beyond(v, e)
                coins = [links[w] for w in outer]
                assert list(islice(witnesses(d, v, e), 200)) == (
                    _bounded_representations(links[v], outer, coins, 200)
                ), (v, coins)
                stepped += any(gcd(*coins[i + 1:]) > gcd(*coins[i:])
                               for i in range(len(coins) - 1))
    assert stepped > 50, stepped


def test_a_stream_outrun_past_the_kept_prefix_searches_by_itself(
        monkeypatch):
    """Streams of one direction share its search. With a cap of 3, a
    stream left at the kept prefix while another has read on starts a
    search of its own, and every stream still reads the full list."""
    import sforge.splice

    monkeypatch.setattr(sforge.splice, "WITNESS_CAP", 3)
    real = sforge.splice._search
    started = []

    def counting(plan, idx, *args):
        if idx == 0:  # a search starts; deeper calls are its recursion
            started.append(plan)
        return real(plan, idx, *args)

    monkeypatch.setattr(sforge.splice, "_search", counting)
    d = to_splice_diagram(quotient_cusp(4, [3] * 4))
    (e,) = (e for e in d.incident_edges("n1") if e.first_step("n1") == "n2")
    links = d.walk("n1")[0]
    outer = d.leaves_beyond("n1", e)
    full = _bounded_representations(
        links["n1"], outer, [links[w] for w in outer], 100)
    assert len(full) == 27
    ahead, behind = witnesses(d, "n1", e), witnesses(d, "n1", e)
    assert list(islice(ahead, 10)) == full[:10]
    assert list(islice(behind, 3)) == full[:3] and len(started) == 1
    assert list(behind) == full[3:] and len(started) == 2
    assert list(ahead) == full[10:] and len(started) == 2
    assert list(witnesses(d, "n1", e)) == full and len(started) == 3
