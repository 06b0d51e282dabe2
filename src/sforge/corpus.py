"""Builders for the bundled graph corpus and seeded random trees.

The handcrafted graphs cover the ADE family, the two-node eight-vertex
example, the quotient-cusp family, cyclic-quotient chains, the genus-3
cone and a couple of star shapes. random_negative_definite_tree gives
reproducible negative-definite test trees from a seeded Random.
"""

from __future__ import annotations

import os
from random import Random

from .graph import ResolutionGraph, TreeForm, Vertex, serialize_graph

__all__ = [
    "chain",
    "star",
    "a_n",
    "d_n",
    "e6",
    "e7",
    "e8",
    "two_node_example",
    "quotient_cusp",
    "genus3_cone",
    "builtin_corpus",
    "random_negative_definite_tree",
]


def chain(weights):
    ids = ["v%d" % i for i in range(len(weights))]
    vertices = [Vertex(i, w) for i, w in zip(ids, weights)]
    edges = [(ids[i], ids[i + 1]) for i in range(len(ids) - 1)]
    return ResolutionGraph(vertices, edges)


def star(center_weight, arms, leaf_ids=None):
    """Center vertex c with chains hanging off it; arms is a list of
    weight lists, read from the center outward. leaf_ids optionally
    names the outermost vertex of each arm."""
    vertices = [Vertex("c", center_weight)]
    edges = []
    for ai, arm in enumerate(arms):
        prev = "c"
        for vi, w in enumerate(arm):
            is_leaf = vi == len(arm) - 1
            if is_leaf and leaf_ids:
                vid = leaf_ids[ai]
            else:
                vid = "a%d_%d" % (ai, vi)
            vertices.append(Vertex(vid, w))
            edges.append((prev, vid))
            prev = vid
    return ResolutionGraph(vertices, edges)


def a_n(n):
    """A_n chain: n vertices of weight -2."""
    return chain([-2] * n)


def d_n(n):
    """D_n tree: a -2 chain of n-2 with two -2 leaves on the last vertex."""
    if n < 4:
        raise ValueError("D_n needs n >= 4")
    ids = ["v%d" % i for i in range(n - 2)]
    vertices = [Vertex(i, -2) for i in ids]
    edges = [(ids[i], ids[i + 1]) for i in range(n - 3)]
    vertices += [Vertex("p", -2), Vertex("q", -2)]
    edges += [(ids[-1], "p"), (ids[-1], "q")]
    return ResolutionGraph(vertices, edges)


def _dynkin_star(arm_lengths, leaf_ids):
    return star(-2, [[-2] * k for k in arm_lengths], leaf_ids=leaf_ids)


def e6():
    """E6 Dynkin tree (arms 1, 2, 2), leaves named x, y, z."""
    return _dynkin_star([1, 2, 2], ["x", "y", "z"])


def e7():
    """E7 Dynkin tree (arms 1, 2, 3), leaves named x, y, z so that the
    splice weights come out (2, 3, 4) in variable order."""
    return _dynkin_star([1, 2, 3], ["x", "y", "z"])


def e8():
    """E8 Dynkin tree (arms 1, 2, 4), leaves named x, y, z."""
    return _dynkin_star([1, 2, 4], ["x", "y", "z"])


def two_node_example():
    """The eight-vertex two-node graph whose splice diagram has node
    weights (2,3,7) and (11,2,5) and edge determinant 17. Leaves are
    declared z1..z4 so they become the variables in that order."""
    vertices = [
        Vertex("z1", -2),
        Vertex("z2", -3),
        Vertex("z3", -2),
        Vertex("z4", -2),
        Vertex("n1", -1),
        Vertex("m", -17),
        Vertex("n2", -1),
        Vertex("g", -3),
    ]
    edges = [
        ("z1", "n1"),
        ("z2", "n1"),
        ("n1", "m"),
        ("m", "n2"),
        ("n2", "z4"),
        ("n2", "g"),
        ("g", "z3"),
    ]
    return ResolutionGraph(vertices, edges)


def quotient_cusp(k, es):
    """Quotient-cusp graph: a chain of weights -e_1..-e_k with two -2
    leaves at each end; needs k >= 2, all e_i >= 2, some e_j > 2."""
    if k < 2 or len(es) != k or any(e < 2 for e in es) or max(es) <= 2:
        raise ValueError("need k >= 2, e_i >= 2 and some e_j > 2")
    ids = ["n%d" % (i + 1) for i in range(k)]
    vertices = [Vertex("a", -2), Vertex("b", -2)]
    vertices += [Vertex(i, -e) for i, e in zip(ids, es)]
    vertices += [Vertex("c", -2), Vertex("d", -2)]
    edges = [("a", ids[0]), ("b", ids[0])]
    edges += [(ids[i], ids[i + 1]) for i in range(k - 1)]
    edges += [(ids[-1], "c"), (ids[-1], "d")]
    return ResolutionGraph._from_parts(vertices, edges)


def genus3_cone():
    """Single vertex of weight -1 and genus 3 (two distinct Brieskorn
    singularities share this link)."""
    return ResolutionGraph([Vertex("e", -1, genus=3)], [])


def builtin_corpus():
    """The named handcrafted corpus, id -> graph."""
    return {
        "a1": a_n(1),
        "a2": a_n(2),
        "a3": a_n(3),
        "a5": a_n(5),
        "d4": d_n(4),
        "d5": d_n(5),
        "e6": e6(),
        "e7": e7(),
        "e8": e8(),
        "two-node": two_node_example(),
        "quotient-cusp-2-3": quotient_cusp(2, [2, 3]),
        "quotient-cusp-3": quotient_cusp(3, [2, 3, 2]),
        "star-237": star(-1, [[-2], [-3], [-7]], leaf_ids=["x", "y", "z"]),
        "chain-2-3": chain([-2, -3]),
        "genus3": genus3_cone(),
    }


def write_corpus(directory):
    """Write the handcrafted corpus plus the random trees of seeds 0-9
    as .graph files; deterministic."""
    os.makedirs(directory, exist_ok=True)
    written = []
    named = dict(builtin_corpus())
    # an indefinite star: not a resolution graph; exercises exit code 3
    named["indefinite-star"] = star(
        -1, [[-2], [-2, -2], [-2, -2, -2]], leaf_ids=["x", "y", "z"]
    )
    for name, g in named.items():
        path = os.path.join(directory, name + ".graph")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# %s\n" % name)
            fh.write(serialize_graph(g))
        written.append(path)
    for i in range(10):
        g = random_negative_definite_tree(Random(i))
        path = os.path.join(directory, "random-%02d.graph" % i)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# seeded random negative-definite tree (seed %d)\n" % i)
            fh.write(serialize_graph(g))
        written.append(path)
    return written


def random_negative_definite_tree(rng: Random, max_vertices=10):
    """Random negative-definite tree with 1..max_vertices vertices.

    Starts from a diagonally dominant weighting (weight = -valency -
    extra, dominance strict somewhere), which is always negative
    definite, then greedily raises some weights toward -1 while the
    form stays negative definite, so that non-dominant shapes (like -1
    star centers) also occur. The tree's adjacency is built once; each
    weighting is tested by the tree pass (TreeForm) on its weight list,
    and one graph is built at the end. The draws from rng, and so the
    trees, do not depend on how the weightings are tested.
    """
    n = rng.randint(1, max_vertices)
    ids = ["v%d" % i for i in range(n)]
    parents = [rng.randrange(i) for i in range(1, n)]
    edges = [(ids[p], ids[i]) for i, p in enumerate(parents, start=1)]
    adj = [[] for _ in ids]
    for i, p in enumerate(parents, start=1):
        adj[p].append(i)
        adj[i].append(p)
    adj = tuple(tuple(sorted(x)) for x in adj)
    index = {v: i for i, v in enumerate(ids)}
    weights = [
        -len(nbrs) - rng.choice([0, 1, 1, 2, 3]) for nbrs in adj
    ]
    worst = min(range(n), key=weights.__getitem__)
    if weights[worst] == -len(adj[worst]):
        weights[worst] -= 1
    if any(w > -1 for w in weights):  # isolated vertex, valency 0
        weights = [min(w, -1) for w in weights]

    def definite():
        return TreeForm(adj, weights, index).negative_definite

    assert definite()
    for _ in range(n):
        i = index[rng.choice(ids)]
        old = weights[i]
        if old >= -1:
            continue
        weights[i] += rng.randint(1, -old - 1) if old < -2 else 1
        if not definite():
            weights[i] = old
    return ResolutionGraph._from_parts(
        [Vertex(v, w) for v, w in zip(ids, weights)], edges
    )
