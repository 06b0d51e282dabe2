"""Graphs the package builds itself: ResolutionGraph._from_parts against
the validating constructor, and the random-tree generator against its
former graph-by-graph implementation."""

from random import Random

import pytest

from sforge import (
    NotQhsTreeError,
    ResolutionGraph,
    Vertex,
    intersection_matrix,
    to_splice_diagram,
)
from sforge.corpus import random_negative_definite_tree

from oracles import random_negative_definite_tree_by_graphs
from test_cli import run


def _same_draws(rng_new, rng_old, max_vertices):
    g = random_negative_definite_tree(rng_new, max_vertices=max_vertices)
    h = random_negative_definite_tree_by_graphs(rng_old,
                                                max_vertices=max_vertices)
    assert g.vertices == h.vertices
    assert g.edges == h.edges
    assert rng_new.getstate() == rng_old.getstate()
    return g


@pytest.mark.parametrize(
    "seeds, max_vertices",
    [(range(2000), 12), (range(300), 30), (range(50), 100)],
    ids=["12", "30", "100"],
)
def test_generator_matches_the_graph_by_graph_oracle(seeds, max_vertices):
    """Same vertices (order, weights), same edges (order, endpoints) and
    the same state of the Random after every draw."""
    sizes = set()
    for seed in seeds:
        sizes.add(_same_draws(Random(seed), Random(seed), max_vertices).n)
    assert max(sizes) > max_vertices * 3 // 4, sizes


def test_generator_matches_the_oracle_on_the_ci_draws():
    """The draws the CI steps make: 216 from one Random(3) cycling
    12/20/30 vertices, seeds 17, 74 and 81 at the default size, and
    Random(1) at 100 vertices until a tree has at least 80."""
    new, old = Random(3), Random(3)
    for i in range(216):
        _same_draws(new, old, [12, 20, 30][i % 3])
    for seed in (17, 74, 81):
        _same_draws(Random(seed), Random(seed), 10)
    new, old = Random(1), Random(1)
    while _same_draws(new, old, 100).n < 80:
        pass


def _trees():
    rng = Random(91)
    return [random_negative_definite_tree(rng, max_vertices=(8, 16, 40)[i % 3])
            for i in range(500)]


def _diagram_parts(d):
    return (d.vertices, d.leaves, d.nodes, d.edges, d.weights, d._incident)


def test_from_parts_agrees_with_the_constructor(corpus):
    """On the corpus and 500 seeded trees, the graph _from_parts builds
    and the one the validating constructor builds from the same vertices
    and edges have the same structure and give the same tree pass,
    intersection matrix and splice diagram."""
    graphs = list(corpus.values()) + _trees()
    diagrams = 0
    for g in graphs:
        parts = ResolutionGraph._from_parts(list(g.vertices), list(g.edges))
        checked = ResolutionGraph(g.vertices, g.edges)
        for a in (parts, g):
            assert a.vertices == checked.vertices
            assert a.edges == checked.edges
            assert a._adj == checked._adj
            assert a._index == checked._index
            assert intersection_matrix(a) == intersection_matrix(checked)
        if not g.is_tree():
            continue
        fa, fb = parts.tree_form(), checked.tree_form()
        assert (fa.determinant, fa.negative_definite, fa._down,
                fa._below, fa._order) == (fb.determinant,
                                          fb.negative_definite, fb._down,
                                          fb._below, fb._order)
        if fa.negative_definite:
            assert fa._branches_up() == fb._branches_up()
        try:
            da = to_splice_diagram(parts)
        except NotQhsTreeError:
            with pytest.raises(NotQhsTreeError):
                to_splice_diagram(checked)
            continue
        db = to_splice_diagram(checked)
        assert _diagram_parts(da) == _diagram_parts(db)
        diagrams += 1
    assert diagrams >= 400, diagrams


def test_from_parts_refuses_disconnected_parts():
    vertices = [Vertex("a", -2), Vertex("b", -2), Vertex("c", -2)]
    with pytest.raises(ValueError, match="graph is not connected"):
        ResolutionGraph._from_parts(vertices, [("a", "b")])
    with pytest.raises(ValueError, match="graph is not connected"):
        ResolutionGraph(vertices, [("a", "b")])
    joined = ResolutionGraph._from_parts(vertices, [("a", "b"), ("c", "b")])
    assert joined.n == 3


def test_constructor_keeps_every_check_for_caller_input():
    good = [Vertex("a", -2), Vertex("b", -3)]
    cases = [
        ([], [], "at least one vertex"),
        ([Vertex("a", -2), Vertex("a", -3)], [], "duplicate vertex id"),
        ([Vertex("a", -2, genus=-1)], [], "negative genus"),
        ([("a", -2, 1.5)], [], "non-integer genus 1.5"),
        ([Vertex("a", -2, genus=True)], [], "non-integer genus True"),
        ([Vertex("a", -2, genus="x")], [], "non-integer genus 'x'"),
        ([Vertex("a", 0)], [], "weight 0 >= 0"),
        ([Vertex("a", -2.0)], [], "non-integer weight"),
        ([Vertex("a", True)], [], "non-integer weight"),
        (good, [("a", "c")], "'c' is not declared"),
        (good, [("a", "a")], "self-loop"),
        (good, [], "not connected"),
    ]
    for vertices, edges, message in cases:
        with pytest.raises(ValueError, match=message):
            ResolutionGraph(vertices, edges)
    # weights >= 0 are the business of the package's own builders only
    g = ResolutionGraph._from_parts([Vertex("a", 1), Vertex("b", -1)],
                                    [("a", "b")])
    assert intersection_matrix(g).entries == ((1, 1), (1, -1))


def test_disconnected_graph_file_exits_2(capsys, tmp_path):
    path = tmp_path / "two-parts.graph"
    path.write_text("vertex a weight=-2\nvertex b weight=-2\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == "sforge: %s: graph is not connected\n" % path
