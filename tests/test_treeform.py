"""The leaf-first tree pass (TreeForm) against the dense oracles."""

import sys
from fractions import Fraction
from random import Random

import pytest

import sforge.intmat
from sforge import (
    ResolutionGraph,
    SingularMatrixError,
    Vertex,
    determinant,
    discriminant_group,
    intersection_matrix,
    invert_rational,
    is_negative_definite,
    solve_rational,
)
from sforge.cli import main
from sforge.corpus import chain, random_negative_definite_tree
from sforge.graph import serialize_graph

from oracles import (
    RatMatrix,
    det_cofactor,
    induced_subgraph,
    is_negative_definite_minors,
    solve_rational_fraction_gauss,
)


def random_tree(rng, n, weights):
    """A random tree on n vertices, declared in a shuffled order with
    edges in random orientation, each weight drawn from `weights`."""
    ids = ["v%d" % i for i in range(n)]
    edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n)]
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    rng.shuffle(edges)
    rng.shuffle(ids)
    return ResolutionGraph._from_parts(
        [Vertex(i, rng.choice(weights)) for i in ids], edges
    )


def component(g, removed, start):
    """Vertex ids of the component of g - removed that holds start."""
    seen = {removed, start}
    stack = [start]
    while stack:
        for nxt in g.neighbors(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    seen.discard(removed)
    return seen


def test_tree_pass_matches_dense_oracles_on_random_trees():
    rng = Random(2024)
    verdicts = {"definite": 0, "indefinite": 0, "singular": 0}
    zero_subtrees = 0
    for trial in range(400):
        n = rng.randint(1, 9)
        weights = range(-5, 0) if trial % 4 else range(-3, 2)
        g = random_tree(rng, n, weights)
        form = g.tree_form()
        m = intersection_matrix(g)
        det = form.determinant
        assert det == det_cofactor(m.to_lists()) == determinant(m)
        definite = is_negative_definite_minors(m)
        assert form.negative_definite == definite == is_negative_definite(m)
        verdicts["singular" if det == 0 else
                 "definite" if definite else "indefinite"] += 1
        # the branch pass divides by every subtree determinant below the
        # root (vertex 0); with one of them 0 it refuses, and only the
        # branches toward a child, that child's subtree, are defined
        divides_by_zero = 0 in form._down[1:]
        zero_subtrees += divides_by_zero
        for v in g.vertex_ids:
            for u in g.neighbors(v):
                to_parent = form._parent[g.index_of(v)] == g.index_of(u)
                if divides_by_zero and to_parent:
                    with pytest.raises(ValueError):
                        form.branch_determinant(v, u)
                    continue
                side = induced_subgraph(g, component(g, v, u))
                assert form.branch_determinant(v, u) == determinant(
                    intersection_matrix(side)
                ), (trial, v, u)
        b = [rng.randint(-4, 4) for _ in range(n)]
        if det != 0 and 0 not in form._down:
            (y,) = form.solve([b])
            x = solve_rational_fraction_gauss(m, b)
            assert tuple(Fraction(c, det) for c in y) == x
            assert x == solve_rational(m, b)
        elif det == 0:
            with pytest.raises(SingularMatrixError):
                form.solve([b])
    assert min(verdicts.values()) >= 10, verdicts
    assert zero_subtrees >= 10, zero_subtrees


def test_negative_pivot_rule_near_the_boundary_on_larger_trees():
    """Negative definite trees of up to 60 vertices, and on two draws
    of three the same tree with one weight raised by 1, which often
    leaves the definite cone: the tree pass's determinant and verdict
    agree with Bareiss and with the leading minors one by one."""
    rng = Random(32)
    verdicts = {True: 0, False: 0}
    for trial in range(36):
        g = random_negative_definite_tree(rng, max_vertices=60)
        if trial % 3:
            i = rng.randrange(g.n)
            vertices = list(g.vertices)
            vertices[i] = vertices[i]._replace(weight=vertices[i].weight + 1)
            g = ResolutionGraph._from_parts(vertices, g.edges)
        form = g.tree_form()
        m = intersection_matrix(g)
        assert form.determinant == determinant(m), trial
        definite = form.negative_definite
        assert definite == is_negative_definite(m), trial
        assert definite == is_negative_definite_minors(m), trial
        verdicts[definite] += 1
    assert min(verdicts.values()) >= 10, verdicts


def test_solve_several_columns_and_rejects_zero_pivot():
    g = random_negative_definite_tree(Random(7), max_vertices=12)
    m = intersection_matrix(g)
    form = g.tree_form()
    cols = [[(i * 7 + j) % 5 - 2 for i in range(g.n)] for j in range(3)]
    for b, y in zip(cols, form.solve(cols)):
        assert tuple(Fraction(c, form.determinant) for c in y) == (
            solve_rational_fraction_gauss(m, b)
        )
    # rooted at a, the subtree b -- c has D = 1 - 1 = 0 while det = 1
    bad = ResolutionGraph(
        [Vertex("a", -2), Vertex("b", -1), Vertex("c", -1)],
        [("a", "b"), ("b", "c")],
    )
    assert bad.tree_form().determinant == determinant(intersection_matrix(bad))
    assert bad.tree_form().determinant != 0
    with pytest.raises(ValueError):
        bad.tree_form().solve([[1, 0, 0]])
    with pytest.raises(ValueError):  # the branch pass divides by it too
        bad.tree_form().branch_determinant("b", "a")


def test_tree_form_rejects_non_trees_and_non_neighbours():
    cycle = ResolutionGraph(
        [Vertex("a", -3), Vertex("b", -3), Vertex("c", -3)],
        [("a", "b"), ("b", "c"), ("c", "a")],
    )
    with pytest.raises(ValueError):
        cycle.tree_form()
    # graphs with cycles keep the dense path
    assert cycle.determinant() == determinant(intersection_matrix(cycle))
    assert cycle.is_negative_definite()
    with pytest.raises(ValueError):
        chain([-2, -2, -2]).tree_form().branch_determinant("v0", "v2")


def test_tree_form_is_built_once_per_graph():
    g = chain([-2, -3, -2])
    assert g.tree_form() is g.tree_form()


def test_self_checks_fire_on_corrupted_tables():
    form = chain([-2, -3, -2, -2]).tree_form()
    form._below[1] += 1  # breaks back substitution at v1
    with pytest.raises(AssertionError):
        form.solve([[1, 0, 0, 0]])
    form = chain([-2, -3, -2, -2]).tree_form()
    form._down[3] += 1  # the branch v3 no longer agrees with det(M)
    with pytest.raises(AssertionError):
        form.branch_determinant("v3", "v2")


@pytest.mark.parametrize("shape", ["chain", "comb"])
def test_large_trees_without_recursion(shape):
    """5,000 vertices under the default recursion limit: the pass,
    every branch determinant along a path, and one solve."""
    n = 5000
    if shape == "chain":
        weights = [-2] * n
        edges = [(i, i + 1) for i in range(n - 1)]
    else:
        # spine of -3 with one -1 tooth each: D stays small
        half = n // 2
        weights = [-3] * half + [-1] * half
        edges = [(i, i + 1) for i in range(half - 1)]
        edges += [(i, half + i) for i in range(half)]
    g = ResolutionGraph(
        [Vertex("v%d" % i, w) for i, w in enumerate(weights)],
        [("v%d" % a, "v%d" % b) for a, b in edges],
    )
    assert sys.getrecursionlimit() < n  # recursion over the tree would fail
    form = g.tree_form()
    assert form.negative_definite
    # both shapes are (-2)-chains up to sign: |det| = number of spine
    # vertices + 1
    spine = n if shape == "chain" else n // 2
    assert abs(form.determinant) == spine + 1
    assert abs(form.branch_determinant("v1", "v0")) == 2
    assert abs(form.branch_determinant("v0", "v1")) == spine
    (y,) = form.solve([[1] + [0] * (n - 1)])
    assert y[0] == form.determinant * Fraction(-spine, spine + 1)


def _count_dense(monkeypatch, name):
    """Count calls of intmat's `name` wherever sforge holds it."""
    real = getattr(sforge.intmat, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for modname, module in list(sys.modules.items()):
        if modname == "sforge" or modname.startswith("sforge."):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    return calls


def test_splice_and_analyze_on_trees_skip_dense_elimination(
    capsys, tmp_path, monkeypatch
):
    dets = _count_dense(monkeypatch, "determinant")
    definite = _count_dense(monkeypatch, "is_negative_definite")
    rng = Random(1)
    path = tmp_path / "t.graph"
    for _ in range(5):
        g = random_negative_definite_tree(rng, max_vertices=30)
        path.write_text(serialize_graph(g))
        dets.clear()
        assert main(["splice", str(path)]) == 0
        assert (len(dets), len(definite)) == (0, 0)
        assert main(["analyze", str(path)]) == 0
        assert len(definite) == 0
    capsys.readouterr()
    # a graph with a cycle still takes the dense path
    path.write_text(
        "vertex a weight=-3\nvertex b weight=-3\nvertex c weight=-3\n"
        "edge a b\nedge b c\nedge c a\n"
    )
    assert main(["analyze", str(path)]) == 0
    assert len(definite) > 0


def test_discriminant_data_defers_dual_basis_and_pairing():
    """The group holds no dual basis, pairing or matrix: a caller who
    wants M^{-1} (whose entries mod 1 are the pairing) forms it with
    invert_rational."""
    g = random_negative_definite_tree(Random(3), max_vertices=12)
    d = discriminant_group(g)
    for name in ("dual_basis", "pairing", "matrix"):
        assert not hasattr(d, name), name
    m = intersection_matrix(g)
    assert RatMatrix(invert_rational(m)) @ m == RatMatrix.identity(g.n)
