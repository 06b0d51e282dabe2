"""Splice diagrams derived from resolution graphs.

The diagram keeps the valency != 2 vertices of the graph (leaves and
nodes); every maximal valency-2 chain becomes a single edge. A node v
carries one weight per incident edge e: the absolute determinant of the
intersection matrix of the component of the graph minus v in the
direction of e, a branch determinant.

All of these come from the graph's TreeForm (see sforge.graph), one
exact integer pass with no dense elimination. Rooted at the first
vertex, the subtree determinants satisfy

    D(v) = w_v * prod_i D(c_i)
           - sum_i (prod_{g child of c_i} D(g)) * prod_{j != i} D(c_j)

over the children c_i of v; the graph is negative definite iff every
D(v) is nonzero with the sign (-1)^|subtree(v)|. A branch toward a
child c is the subtree of c; the branch toward the parent comes from a
second pass from the root.

The rest of the paper's weight calculus is read off one walk per node,
built for every node on first use and kept by the diagram. The node
weights d_v (the product of the weights at v) are formed once. The walk
out of a node v records, for every diagram vertex x, the linking number
l_vx (the product of the weights adjacent to, but not on, the path from
v to x; l_vv = d_v) and the edge at v whose branch holds x. Node
weights, linking numbers, the leaves beyond an edge and edge
determinants are lookups in it; the ZHS test and the lazy streams of
monomial witnesses (witnesses: every stream of a direction reads its
one kept, residue-stepped search) build on those.
"""

from __future__ import annotations

from itertools import accumulate, islice
from math import gcd, prod
from typing import NamedTuple

from .graph import (
    ResolutionGraph,
    blow_down_minimal,
    memoized,
    require_qhs_tree,
)

__all__ = [
    "SpliceEdge",
    "SpliceDiagram",
    "SemigroupWitness",
    "to_splice_diagram",
    "edge_determinant",
    "linking_number",
    "linking_numbers",
    "node_weight",
    "is_zhs",
    "semigroup_condition",
    "witnesses",
]

WITNESS_CAP = 10_000


class SpliceEdge(NamedTuple):
    index: int
    a: str  # endpoint with the lower declaration index
    b: str
    path: tuple  # gamma vertex ids from a to b, inclusive

    def other(self, vid):
        if vid == self.a:
            return self.b
        if vid == self.b:
            return self.a
        raise ValueError("%r is not an endpoint of this edge" % vid)

    def first_step(self, vid):
        """The gamma vertex one step along the edge, seen from vid."""
        if vid == self.a:
            return self.path[1]
        if vid == self.b:
            return self.path[-2]
        raise ValueError("%r is not an endpoint of this edge" % vid)


class SpliceDiagram:
    """Tree with leaves (valency <= 1) and nodes (valency >= 3) and a
    weight for each (node, incident edge) pair. Built from a graph via
    to_splice_diagram; keeps provenance to the graph's vertex ids, but
    no reference to the graph. index_of gives a graph vertex id's
    declaration index; it orders the edges at each vertex."""

    __slots__ = (
        "vertices", "leaves", "nodes", "edges", "weights", "_incident",
        "_memo",
    )

    def __init__(self, index_of, vertices, leaves, nodes, edges, weights):
        self.vertices = tuple(vertices)
        self.leaves = tuple(leaves)
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self.weights = dict(weights)
        incident = {w: [] for w in self.vertices}
        for e in self.edges:
            incident[e.a].append(e)
            incident[e.b].append(e)
        self._incident = {}
        for w, inc in incident.items():
            inc.sort(key=lambda e: index_of(e.first_step(w)))
            self._incident[w] = tuple(inc)
        self._memo = {}  # see sforge.graph.memoized
        for (vid, _), d in self.weights.items():
            if d < 1:
                raise AssertionError(
                    "splice weight %d < 1 at node %r" % (d, vid)
                )

    @property
    def has_nodes(self):
        return bool(self.nodes)

    def is_node(self, vid):
        return vid in self.nodes

    def is_leaf(self, vid):
        return vid in self.leaves

    def incident_edges(self, vid):
        """Edges at vid, ordered by the declaration index of their
        first gamma vertex seen from vid (deterministic)."""
        return self._incident.get(vid, ())

    def weight(self, vid, edge):
        return self.weights[(vid, edge.index)]

    def direction_label(self, vid, edge):
        return "toward %s" % edge.first_step(vid)

    def walk(self, v):
        """(links, toward) from the node v: links[x] is the linking
        number l_vx and toward[x] the index of the edge at v whose
        branch holds x, for every diagram vertex x (toward[v] is None).

        Every node's walk is built on the first call and kept."""
        walks = self._walks()
        if v not in walks:
            raise ValueError("%r is not a node" % v)
        return walks[v]

    @memoized
    def _walks(self):
        """The walks of all nodes, by node. Leaving a node x by the edge
        f, having entered by e, multiplies the running product by the
        weights at x on neither e nor f: d_x / (d_{x,e} * d_{x,f}), an
        exact division."""
        weight = self.weights
        dv = {
            x: prod(weight[(x, e.index)] for e in self._incident[x])
            for x in self.nodes
        }
        walks = {}
        for root in self.nodes:
            links = {}
            toward = {}
            stack = [(root, None, 1, None)]
            while stack:
                x, via, acc, branch = stack.pop()
                toward[x] = branch
                if x not in dv:
                    links[x] = acc  # a leaf ends the path
                    continue
                rest = dv[x]
                if via is not None:
                    rest //= weight[(x, via.index)]
                links[x] = acc * rest
                for f in self._incident[x]:
                    if f is not via:
                        stack.append((
                            f.other(x), f,
                            acc * (rest // weight[(x, f.index)]),
                            f.index if branch is None else branch,
                        ))
            walks[root] = (links, toward)
        return walks

    def leaves_beyond(self, vid, edge):
        """Diagram leaves in the branch of `edge` at the node `vid`, in
        gamma declaration order."""
        toward = self.walk(vid)[1]
        return tuple(w for w in self.leaves if toward[w] == edge.index)

    def render_text(self):
        """Indented text form: one node per line, weights in
        parentheses, leaves named by graph ids."""
        if not self.has_nodes:
            if len(self.vertices) == 1:
                return "leaf %s (no nodes)\n" % self.vertices[0]
            return "chain %s -- %s (no nodes)\n" % (
                self.vertices[0],
                self.vertices[-1],
            )
        lines = []
        for v in self.nodes:
            parts = []
            for e in self.incident_edges(v):
                other = e.other(v)
                kind = "node" if self.is_node(other) else "leaf"
                parts.append("(%d) %s %s" % (self.weight(v, e), kind, other))
            lines.append("node %s: %s" % (v, ", ".join(parts)))
        return "\n".join(lines) + "\n"


class SemigroupWitness(NamedTuple):
    """Per (node, direction) exponent vectors alpha over the leaves in
    that branch with sum alpha(w) * l_vw = d_v: the admissible
    monomials at (v, e) are solutions[(v, e.index)], for e among
    diagram.incident_edges(v). `truncated` lists the directions whose
    enumeration hit the solution cap.

    Each list is the first WITNESS_CAP of the direction's witnesses
    stream, so it is in lexicographic order of the exponent vectors
    over diagram.leaves (zero for a leaf outside the branch), and a cut
    list is a prefix of the full one."""

    holds: bool
    solutions: dict  # (node_id, edge_index) -> list of {leaf_id: exp}
    failures: tuple  # (node_id, direction label) pairs with no solution
    truncated: tuple = ()


@memoized
def to_splice_diagram(g: ResolutionGraph) -> SpliceDiagram:
    """Collapse valency-2 vertices; weight each (node, edge) pair with
    the |det| of the branch on that side, read from the tree pass."""
    form = require_qhs_tree(g)
    dverts = [v.id for v in g.vertices if g.valency(v.id) != 2]
    dset = set(dverts)
    leaves = g.leaf_ids
    nodes = tuple(v for v in dverts if g.valency(v) >= 3)

    edges = []
    for vid in dverts:
        for u in g.neighbors(vid):
            path = [vid, u]
            prev, cur = vid, u
            while cur not in dset:
                nxt = next(w for w in g.neighbors(cur) if w != prev)
                path.append(nxt)
                prev, cur = cur, nxt
            a, b = path[0], path[-1]
            if g.index_of(a) > g.index_of(b):
                continue  # recorded from the other end
            e = SpliceEdge(index=len(edges), a=a, b=b, path=tuple(path))
            edges.append(e)

    weights = {
        (vid, e.index): abs(form.branch_determinant(vid, e.first_step(vid)))
        for e in edges for vid in (e.a, e.b) if vid in nodes
    }
    return SpliceDiagram(g.index_of, dverts, leaves, nodes, edges, weights)


def edge_determinant(d: SpliceDiagram, e: SpliceEdge) -> int:
    """Product of the two weights on the edge minus the product of the
    weights adjacent to it (around both endpoint nodes), which is the
    linking number of its endpoints."""
    if not (d.is_node(e.a) and d.is_node(e.b)):
        raise ValueError("edge determinant needs an edge between two nodes")
    return d.weight(e.a, e) * d.weight(e.b, e) - d.walk(e.a)[0][e.b]


def node_weight(d: SpliceDiagram, v: str) -> int:
    """Product of all weights on the edges at the node v."""
    return d.walk(v)[0][v]


def linking_number(d: SpliceDiagram, v: str, w: str) -> int:
    """Product of the weights adjacent to, but not on, the path from v
    to w (including the weights around the endpoint nodes). For a node
    v, linking_number(v, v) is the node weight. Between two leaves it is
    the link from the node next to v, less that node's weight toward v;
    with no nodes on the path it is 1."""
    if d.is_node(v):
        return d.walk(v)[0][w]
    if v == w:
        raise ValueError("self-linking is undefined for a leaf")
    if d.is_node(w):
        return d.walk(w)[0][v]
    if not d.has_nodes:
        return 1
    (e,) = d.incident_edges(v)
    u = e.other(v)
    return d.walk(u)[0][w] // d.weight(u, e)


def linking_numbers(d: SpliceDiagram, v: str) -> dict:
    """{w: linking_number(d, v, w)} for every leaf w, in the order of
    d.leaves, read off the walk from the node v."""
    links = d.walk(v)[0]
    return {w: links[w] for w in d.leaves}


@memoized
def is_zhs(g: ResolutionGraph) -> bool:
    """|det| = 1 test, plus the three weight conditions asserted as a
    cross-check when it holds: pairwise coprime weights at each node,
    leaf-edge weights > 1, positive edge determinants. These hold for
    the minimal good resolution only (a (-1)-leaf has weight 1 at its
    node), so they are checked on the diagram of blow_down_minimal(g),
    which is g's own diagram when the blow-down changes nothing.

    Memoized, so the blown-down graph and its diagram are built once
    per g. blow_down_minimal itself is not: it may return g, which its
    own memo would then hold."""
    if abs(g.determinant()) != 1:
        return False
    require_qhs_tree(g)
    d = to_splice_diagram(blow_down_minimal(g))
    for v in d.nodes:
        inc = d.incident_edges(v)
        ws = [d.weight(v, e) for e in inc]
        for i in range(len(ws)):
            for j in range(i + 1, len(ws)):
                if gcd(ws[i], ws[j]) != 1:
                    raise AssertionError(
                        "ZHS cross-check failed: weights at %r not coprime" % v
                    )
        for e in inc:
            if d.is_leaf(e.other(v)) and d.weight(v, e) <= 1:
                raise AssertionError(
                    "ZHS cross-check failed: leaf-edge weight <= 1 at %r" % v
                )
    for e in d.edges:
        if d.is_node(e.a) and d.is_node(e.b) and edge_determinant(d, e) <= 0:
            raise AssertionError(
                "ZHS cross-check failed: nonpositive edge determinant"
            )
    return True


@memoized
def semigroup_condition(d: SpliceDiagram) -> SemigroupWitness:
    """Does every node weight lie in the numerical semigroup of the
    linking numbers of the leaves beyond each incident edge?

    Each direction keeps the first WITNESS_CAP witnesses of its stream
    (see witnesses), each as a map leaf id -> exponent; the cap bounds
    what is kept for display, not the verdict.
    """
    if not d.has_nodes:
        raise ValueError("semigroup condition needs at least one node")
    solutions = {}
    failures = []
    truncated = []
    for v in d.nodes:
        for e in d.incident_edges(v):
            sols = _search_at(d, v, e).prefix()  # final: see prefix
            solutions[(v, e.index)] = sols
            if len(sols) >= WITNESS_CAP:
                truncated.append((v, d.direction_label(v, e)))
            if not sols:
                failures.append((v, d.direction_label(v, e)))
    return SemigroupWitness(
        holds=not failures,
        solutions=solutions,
        failures=tuple(failures),
        truncated=tuple(truncated),
    )


def witnesses(d: SpliceDiagram, v: str, e: SpliceEdge):
    """Every alpha >= 0 over d.leaves_beyond(v, e) with
    sum alpha_w * l_vw = d_v, lazily, as dicts keyed by leaf id (zero
    exponents omitted) in lexicographic order: leaves in the order of
    d.leaves, each exponent ascending. The stream has no cap. It reads
    the direction's one search, kept in d's memo (see _Search), which
    holds plain lists only; the dicts are shared: do not mutate them."""
    return _search_at(d, v, e).read()


def _search_at(d, v, e):
    """The direction's one witness search, kept in d's memo."""
    key, searches = (v, e.index), d._memo.setdefault("witnesses", {})
    if key not in searches:
        links, leaves = d.walk(v)[0], d.leaves_beyond(v, e)
        searches[key] = _Search(leaves, [links[w] for w in leaves], links[v])
    return searches[key]


class _Search:
    """A direction's witness search and the first WITNESS_CAP witnesses
    it found. Streams read those, then the search at its front; the
    first stream past the cap takes it, a later one searches anew.

    Residue stepping (Ramirez Alfonsin, The Diophantine Frobenius
    Problem, 2005): the exponents from i on can meet what remains only
    if h_i = gcd(coins[i:]) divides it, so alpha_i steps through the one
    class mod m_i = h_{i+1}/h_i (0 at the last, forced exponent) that
    leaves a multiple of h_{i+1}, skipping only dead branches."""

    __slots__ = ("args", "live", "kept")

    def __init__(self, leaves, coins, target):
        h = [*accumulate(reversed(coins), gcd)][::-1] + [0]
        plan = [(w, l, a, b // a, pow(l // a, -1, b // a) if b else 0)
                for w, l, a, b in zip(leaves, coins, h, h[1:])]
        self.args, self.kept = (plan, 0, target, ()), []
        self.live = _search(*self.args)

    def prefix(self):
        """The kept witnesses, the search first read on to the cap; the
        list is final then, as the cap is reached or the search over."""
        if len(self.kept) < WITNESS_CAP:
            self.kept += islice(self.live, WITNESS_CAP - len(self.kept))
        return self.kept

    def read(self):
        kept, i = self.kept, 0
        while i < len(kept) or len(kept) < WITNESS_CAP:
            if i == len(kept):
                if (a := next(self.live, None)) is None:
                    return
                kept.append(a)
            yield kept[i]
            i += 1
        live, self.live = self.live, None
        yield from live or islice(_search(*self.args), i, None)


def _search(plan, idx, remaining, acc):
    w, l, h, m, inverse = plan[idx]
    if remaining % h:  # only at idx 0: stepping keeps the rest divisible
        return
    if not m:
        yield dict(acc + ((w, remaining // l),) if remaining else acc)
        return
    for a in range(remaining // h * inverse % m, remaining // l + 1, m):
        yield from _search(plan, idx + 1, remaining - a * l,
                           acc + ((w, a),) if a else acc)
