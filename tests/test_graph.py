"""Resolution graph parsing, cycles, classification, blow-down."""

from fractions import Fraction
from random import Random

import pytest

from sforge import (
    IntMatrix,
    NonMinimalRepresentableError,
    NotNegativeDefiniteError,
    ParseError,
    ResolutionGraph,
    Vertex,
    blow_down_minimal,
    canonical_cycle,
    classify,
    determinant,
    fundamental_cycle,
    intersection_matrix,
    is_negative_definite,
    parse_graph,
    serialize_graph,
)
from sforge.corpus import (
    a_n,
    chain,
    e7,
    genus3_cone,
    quotient_cusp,
    random_negative_definite_tree,
    star,
)

from oracles import (
    blow_down_minimal_by_rescans,
    det_cofactor,
    fundamental_cycle_bruteforce,
    solve_rational_fraction_gauss,
)


# -- parsing ------------------------------------------------------------------


def test_parse_single_vertex_defaults_genus_zero():
    g = parse_graph("vertex a weight=-2\n")
    assert g.vertices == (Vertex("a", -2, 0),)
    assert g.edges == ()


def test_parse_e7_file():
    text = serialize_graph(e7())
    g = parse_graph(text)
    assert g.n == 7
    assert g.is_tree()
    assert all(v.weight == -2 for v in g.vertices)


def test_parse_undeclared_edge_endpoint_names_it():
    with pytest.raises(ParseError) as err:
        parse_graph("vertex a weight=-2\nedge a z\n")
    assert "'z'" in str(err.value)
    assert err.value.line == 2


def test_parse_errors_carry_line_numbers():
    cases = [
        ("vertex a weight=-2\nvertex a weight=-3\n", 2, "duplicate"),
        ("vertex a weight=0\n", 1, "weight"),
        ("vertex a weight=x\n", 1, "integer"),
        ("vertex a weight=-2\nedge a a\n", 2, "self-loop"),
        ("frob a\n", 1, "directive"),
        ("vertex a weight=-2 genus=-1\n", 1, "genus"),
    ]
    for text, line, needle in cases:
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert err.value.line == line
        assert needle in str(err.value)


_A, _B = Vertex("a", -2), Vertex("b", -3)

# (vertices, edges, message, line of the file text), line None for an
# input no graph file can hold
BAD_INPUTS = [
    ([_A, Vertex("a", -3)], [], "duplicate vertex id 'a'", 2),
    ([_A, Vertex("b", -3, -1)], [("a", "b")],
     "vertex 'b' has negative genus", 2),
    ([_A, Vertex("b", 0)], [("a", "b")], "vertex 'b' has weight 0 >= 0", 2),
    ([_A, _B], [("a", "b"), ("b", "z")], "edge endpoint 'z' is not declared",
     4),
    ([_A, _B], [("a", "b"), ("b", "b")], "self-loop at 'b'", 4),
    ([_A, Vertex("b", -2.5)], [("a", "b")],
     "vertex 'b' has non-integer weight -2.5", None),
]


@pytest.mark.parametrize(
    "vertices, edges, message, line", BAD_INPUTS,
    ids=["duplicate-id", "negative-genus", "weight-0", "undeclared-endpoint",
         "self-loop", "non-integer-weight"])
def test_both_entry_points_refuse_bad_input_alike(vertices, edges, message,
                                                  line):
    """The constructor raises ValueError, and parse_graph, on the same
    graph written as text, ParseError with the same message and the
    line of the offending declaration."""
    with pytest.raises(ValueError) as err:
        ResolutionGraph(vertices, edges)
    assert str(err.value) == message
    if line is None:
        return
    text = "".join("vertex %s weight=%d genus=%d\n" % v for v in vertices)
    text += "".join("edge %s %s\n" % e for e in edges)
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert err.value.line == line
    assert str(err.value) == "line %d: %s" % (line, message)


@pytest.mark.parametrize("sign", ["", "-", "+"])
def test_parse_reports_an_integer_too_long_to_convert(sign):
    """A literal of more digits than int() converts is named by its
    length, with its line number, not echoed in full."""
    digits = "1" * 5000
    text = "vertex a weight=-2\nvertex b weight=%s%s\n" % (sign, digits)
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert err.value.line == 2
    message = str(err.value)
    assert "5000 digits" in message and digits not in message
    assert len(message) < 100


def test_parse_long_non_integer_is_not_called_too_long():
    for value in ["x" + "1" * 5000, "1__" + "1" * 5000, "\u00b2" * 5000]:
        with pytest.raises(ParseError, match="not an integer"):
            parse_graph("vertex a weight=%s\n" % value)


def test_parse_rejects_disconnected_and_empty():
    with pytest.raises(ParseError, match="connected"):
        parse_graph("vertex a weight=-2\nvertex b weight=-2\n")
    with pytest.raises(ParseError, match="no vertices"):
        parse_graph("# nothing here\n")


def test_parse_comments_and_genus():
    g = parse_graph("# comment\nvertex a weight=-1 genus=3  # trailing\n")
    assert g.vertices[0].genus == 3


def test_roundtrip_on_corpus(corpus):
    for name, g in corpus.items():
        assert parse_graph(serialize_graph(g)) == g, name


# -- intersection matrix -------------------------------------------------------


def test_matrix_single_vertex():
    g = parse_graph("vertex a weight=-3\n")
    assert intersection_matrix(g) == IntMatrix([[-3]])


def test_matrix_two_vertices_joined():
    g = chain([-2, -3])
    assert intersection_matrix(g) == IntMatrix([[-2, 1], [1, -3]])


def test_matrix_two_node_graph_unimodular(corpus):
    m = intersection_matrix(corpus["two-node"])
    assert m.rows == 8
    assert abs(determinant(m)) == 1


def test_matrix_counts_multi_edges():
    g = ResolutionGraph(
        [Vertex("a", -3), Vertex("b", -3)], [("a", "b"), ("a", "b")]
    )
    assert intersection_matrix(g) == IntMatrix([[-3, 2], [2, -3]])


# -- canonical cycle ------------------------------------------------------------


def test_canonical_cycle_vanishes_on_ade(corpus):
    for name in ("a1", "a3", "d4", "e6", "e7", "e8"):
        k = canonical_cycle(corpus[name])
        assert all(c == 0 for c in k.coefficients), name


def test_canonical_cycle_genus3_vertex():
    k = canonical_cycle(genus3_cone())
    assert k.coefficients == (Fraction(-5),)


def test_canonical_cycle_satisfies_adjunction_on_corpus(corpus):
    for name, g in corpus.items():
        m = intersection_matrix(g)
        if not is_negative_definite(m):
            continue
        k = canonical_cycle(g)
        for i, v in enumerate(g.vertices):
            lhs = sum(
                k.coefficients[j] * m[j, i] for j in range(g.n)
            )
            assert lhs == 2 * v.genus - 2 - v.weight, (name, v.id)


def test_numerically_gorenstein():
    """K integral, which is what classify reports."""
    for g, gorenstein in ((a_n(3), True), (e7(), True),
                          (chain([-2, -3]), False)):
        assert canonical_cycle(g).is_integral() is gorenstein
        assert classify(g).numerically_gorenstein is gorenstein


def test_canonical_cycle_requires_negative_definite():
    g = ResolutionGraph(
        [Vertex("a", -1), Vertex("b", -1)], [("a", "b")]
    )
    with pytest.raises(NotNegativeDefiniteError):
        canonical_cycle(g)


# -- fundamental cycle -----------------------------------------------------------


def test_fundamental_cycle_single_vertex():
    for w in (-1, -2, -5):
        g = ResolutionGraph([Vertex("a", w)], [])
        assert fundamental_cycle(g).coefficients == (1,)


def test_fundamental_cycle_an_chain_is_reduced():
    for n in (1, 2, 5, 9):
        z = fundamental_cycle(a_n(n))
        assert z.coefficients == (1,) * n


def test_fundamental_cycle_e7_highest_root():
    g = e7()
    z = fundamental_cycle(g)
    oracle = fundamental_cycle_bruteforce(g, bound=6)
    assert z.coefficients == oracle
    assert sorted(z.coefficients) == [1, 2, 2, 2, 3, 3, 4]


def test_fundamental_cycle_antinef_and_minimal_on_corpus(corpus):
    for name, g in corpus.items():
        m = intersection_matrix(g)
        if not is_negative_definite(m):
            continue
        z = fundamental_cycle(g)
        assert all(c >= 1 for c in z.coefficients), name
        prods = m.mul_vector(z.coefficients)
        assert all(p <= 0 for p in prods), name
        if g.n <= 6:
            assert z.coefficients == fundamental_cycle_bruteforce(g), name


# -- classification ---------------------------------------------------------------


def test_classify_e7_rational_double_point():
    c = classify(e7())
    assert c.kind == "rational"
    assert c.zsq == -2
    assert c.multiplicity == 2
    assert c.embedding_dimension == 3
    assert c.numerically_gorenstein


def test_classify_quotient_cusp_rational():
    c = classify(quotient_cusp(2, [2, 3]))
    assert c.kind == "rational"


def test_classify_minimally_elliptic_vertex():
    g = ResolutionGraph([Vertex("e", -1, genus=1)], [])
    c = classify(g)
    assert c.kind == "minimally_elliptic"
    assert c.zsq == -1
    assert c.multiplicity == 2
    assert c.embedding_dimension == 3


def test_classify_minimally_elliptic_matches_minus_k():
    # on minimally elliptic graphs -K equals the fundamental cycle
    g = ResolutionGraph([Vertex("e", -2, genus=1)], [])
    c = classify(g)
    assert c.kind == "minimally_elliptic"
    z = fundamental_cycle(g)
    k = canonical_cycle(g)
    assert tuple(-x for x in k.coefficients) == tuple(
        Fraction(x) for x in z.coefficients
    )


def test_classify_cusp_cycle_minimally_elliptic():
    # cusp singularities have a cycle of rational curves as dual graph;
    # classify accepts them (splice operations reject non-trees)
    g = ResolutionGraph(
        [Vertex("a", -3), Vertex("b", -3), Vertex("c", -3)],
        [("a", "b"), ("b", "c"), ("c", "a")],
    )
    cls = classify(g)
    assert cls.kind == "minimally_elliptic"
    assert cls.numerically_gorenstein
    from sforge import NotQhsTreeError, to_splice_diagram

    with pytest.raises(NotQhsTreeError):
        to_splice_diagram(g)


def test_classify_zsq_is_the_dense_pairing(corpus):
    """Z.Z summed over vertices and edges equals z^T M z."""
    cycle = ResolutionGraph(
        [Vertex("a", -3), Vertex("b", -3), Vertex("c", -3)],
        [("a", "b"), ("b", "c"), ("c", "a")],
    )
    rng = Random(5)
    graphs = list(corpus.values()) + [cycle] + [
        random_negative_definite_tree(rng, max_vertices=14) for _ in range(40)
    ]
    for g in graphs:
        z = fundamental_cycle(g).coefficients
        m = intersection_matrix(g)
        zsq = sum(a * b for a, b in zip(z, m.mul_vector(z)))
        assert classify(g).zsq == zsq


def test_graphs_with_cycles_match_the_oracles():
    """Seeded trees plus one or two extra edges (a parallel edge now
    and then). Each extra edge a--b lowers the weights of a and b by 1:
    that adds -(x_a - x_b)^2 to the form, so it stays negative
    definite. The determinant (Bareiss) agrees with cofactor expansion,
    and the canonical cycle (solve_sparse) with Fraction Gauss-Jordan."""
    rng = Random(61)
    kinds = set()
    for _ in range(300):
        tree = random_negative_definite_tree(rng, max_vertices=10)
        while tree.n < 2:
            tree = random_negative_definite_tree(rng, max_vertices=10)
        weights = {v.id: v.weight for v in tree.vertices}
        extra = [tuple(rng.sample(tree.vertex_ids, 2))
                 for _ in range(rng.randint(1, 2))]
        for a, b in extra:
            weights[a] -= 1
            weights[b] -= 1
        g = ResolutionGraph([Vertex(v, weights[v]) for v in weights],
                            tree.edges + tuple(extra))
        m = intersection_matrix(g)
        assert not g.is_tree() and g.is_negative_definite()
        assert g.determinant() == det_cofactor(m.to_lists())
        rhs = [-2 - v.weight for v in g.vertices]
        assert (canonical_cycle(g).coefficients
                == solve_rational_fraction_gauss(m, rhs))
        kinds.add(classify(g).kind)
    assert kinds == {"minimally_elliptic", "other"}, kinds


def test_shipped_corpus_files_match_builders(corpus, graphs_dir):
    for name, g in corpus.items():
        text = (graphs_dir / (name + ".graph")).read_text()
        assert parse_graph(text) == g, name


def test_classify_genus3_cone_is_other():
    assert classify(genus3_cone()).kind == "other"
    assert classify(genus3_cone()).numerically_gorenstein


def test_rational_does_not_force_numerically_gorenstein(corpus):
    kinds = {}
    for name, g in corpus.items():
        if not is_negative_definite(intersection_matrix(g)):
            continue
        c = classify(g)
        if c.kind == "rational":
            kinds[name] = c.numerically_gorenstein
    assert True in kinds.values() and False in kinds.values()


# -- blow-down ---------------------------------------------------------------------


def test_blow_down_identity_without_minus_ones():
    g = chain([-2, -3, -2])
    assert blow_down_minimal(g) == g


def test_blow_down_chain_2_1_2_to_single_vertex():
    g = chain([-2, -1, -2])
    before = abs(determinant(intersection_matrix(g)))
    h = blow_down_minimal(g)
    assert h.n == 1
    assert abs(determinant(intersection_matrix(h))) == before == 0


def test_blow_down_star_center():
    # star with -1 center and chain arms contracts the center last
    g = star(-1, [[-2], [-2], [-3]])
    h = blow_down_minimal(g)
    assert h == g  # center has valency 3: nothing contractible


def test_blow_down_preserves_det_and_definiteness():
    rng = Random(17)
    for _ in range(40):
        g = random_negative_definite_tree(rng)
        m = intersection_matrix(g)
        h = blow_down_minimal(g)
        mh = intersection_matrix(h)
        assert abs(determinant(m)) == abs(determinant(mh))
        assert is_negative_definite(mh)
        assert not any(
            v.genus == 0 and v.weight == -1 and h.valency(v.id) <= 2
            for v in h.vertices
        ) or h.n == 1


def test_blow_down_preserves_det_on_corpus(corpus):
    for name, g in corpus.items():
        if not g.is_tree():
            continue
        m = intersection_matrix(g)
        h = blow_down_minimal(g)
        assert abs(determinant(m)) == abs(
            determinant(intersection_matrix(h))
        ), name
        if is_negative_definite(m):
            assert is_negative_definite(intersection_matrix(h)), name


def test_blow_down_stuck_weight_zero_raises():
    # (-1)-leaf hanging next to another (-1) off a rigid center: after
    # contracting the leaf, its neighbor sits at weight 0 with the rest
    # of the graph unable to absorb it
    g = star(-5, [[-2], [-2], [-2], [-1, -1]])
    with pytest.raises(NonMinimalRepresentableError):
        blow_down_minimal(g)


def test_blow_down_requires_tree():
    g = ResolutionGraph(
        [Vertex("a", -3), Vertex("b", -3)], [("a", "b"), ("a", "b")]
    )
    with pytest.raises(ValueError):
        blow_down_minimal(g)


def _blow_down_outcome(blow_down, g):
    try:
        return blow_down(g)
    except NonMinimalRepresentableError:
        return None


def test_blow_down_of_a_negative_definite_tree_never_raises():
    """What analyze relies on, reporting the blow-down with no fallback:
    on 2,000 seeded negative definite trees (max_vertices 12 and 30 in
    turn) blow_down_minimal never raises, and each result is negative
    definite with every weight <= -1. At Random(2024), 1,865 contract."""
    rng = Random(2024)
    contracted = 0
    for i in range(2000):
        g = random_negative_definite_tree(rng, max_vertices=(12, 30)[i % 2])
        assert g.is_negative_definite()
        h = blow_down_minimal(g)
        assert h.is_negative_definite(), i
        assert all(v.weight <= -1 for v in h.vertices), i
        contracted += h is not g
    assert contracted >= 1500, contracted


def test_blow_down_matches_the_rescanning_reference():
    """2,000 seeded trees: the even draws from the random negative
    definite trees (max_vertices 12 and 30 in turn), whose weights are
    raised toward -1, so that most contract; the odd ones random trees
    of 1-20 vertices with weights -1..-3 and now and then genus 1, so
    that many get stuck at a weight >= 0. The blow-down returns the
    reference's graph (vertex order, weights, edge order with joined
    edges last), g itself when nothing contracts, or raises where it
    raises."""
    rng = Random(2024)
    contracted = [0, 0]
    stuck = joined = 0
    for i in range(2000):
        if i % 2 == 0:
            g = random_negative_definite_tree(
                rng, max_vertices=(12, 30)[i // 2 % 2])
        else:
            ids = ["v%d" % k for k in range(rng.randint(1, 20))]
            g = ResolutionGraph(
                [Vertex(v, rng.randint(-3, -1), int(rng.random() < 0.05))
                 for v in ids],
                [(ids[rng.randrange(k)], ids[k]) for k in range(1, len(ids))],
            )
        expected = _blow_down_outcome(blow_down_minimal_by_rescans, g)
        h = _blow_down_outcome(blow_down_minimal, g)
        if expected is None:
            assert h is None
            stuck += 1
            continue
        assert (h.vertices, h.edges) == (expected.vertices, expected.edges)
        assert (h is g) == (expected is g)
        contracted[i % 2] += h is not g
        joined += not set(h.edges) <= set(g.edges)
    assert contracted[0] >= 900 and contracted[1] >= 150, contracted
    assert stuck >= 400 and joined >= 300, (stuck, joined)
