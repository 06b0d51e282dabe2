"""Resolution dual graphs and their graph-level invariants.

A ResolutionGraph is a connected weighted graph: vertices carry a
self-intersection weight (negative) and a genus (nonnegative); edges
are an unordered multiset of vertex pairs. From it we compute the
intersection matrix, the canonical cycle (adjunction), the fundamental
cycle (Laufer's algorithm), the rational / minimally elliptic
classification, and (-1)-curve blow-downs.

On a tree the intersection form is handled by one exact integer pass,
TreeForm, with no dense elimination (leaf-first elimination on a tree
causes no fill-in; Rose, J. Math. Anal. Appl. 32, 1970). Rooted at the
first vertex, with children c_i of v, the determinant D(v) of the
subtree of v is

    D(v) = w_v * prod_i D(c_i)
           - sum_i (prod_{g child of c_i} D(g)) * prod_{j != i} D(c_j),

folded over the children without division, so a zero D never breaks
this pass, which decides definiteness. det(M) = D(root). M is negative
definite iff every D(v) is nonzero with the sign (-1)^|subtree(v)|:
these are principal minors, and the pivots D(v) / prod_i D(c_i) of the
leaf-first elimination are then all negative. The passes back from the
root divide exactly by the D(v) below the root, so they need these
nonzero, as on a negative definite tree. One gives the determinant of
every branch, the component of the tree minus v that contains a
neighbour u; the splice weights are these. Back substitution solves
M x = b exactly. A graph with cycles goes to sforge.intmat:
Bareiss for its determinant and definiteness, solve_sparse for its
canonical cycle.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import wraps
from typing import NamedTuple, Optional

from .errors import (
    NonMinimalRepresentableError,
    NotNegativeDefiniteError,
    NotQhsTreeError,
    ParseError,
    SingularMatrixError,
    parse_int,
)
from .intmat import (
    IntMatrix,
    determinant,
    is_negative_definite,
    solve_sparse,
)

__all__ = [
    "Vertex",
    "ResolutionGraph",
    "TreeForm",
    "Cycle",
    "RationalCycle",
    "Classification",
    "parse_graph",
    "serialize_graph",
    "intersection_matrix",
    "canonical_cycle",
    "fundamental_cycle",
    "classify",
    "blow_down_minimal",
    "memoized",
    "require_qhs_tree",
]


def memoized(fn):
    """Compute fn(x) once per x: the result is kept in x._memo under
    fn's name and returned as is on every later call, so it is shared
    and must not be mutated. A raised exception is not kept; a failed
    self-check (AssertionError) is noted "in <name>" by the innermost
    stage. A result must not refer back to x, or x and its memo would
    form a reference cycle that only the cyclic garbage collector frees."""
    name = fn.__name__

    @wraps(fn)
    def wrapper(x):
        memo = x._memo
        if name not in memo:
            try:
                memo[name] = fn(x)
            except AssertionError as exc:
                if not getattr(exc, "__notes__", None):  # add_note is 3.11+
                    exc.__notes__ = ["in " + name]
                raise
        return memo[name]

    return wrapper


class Vertex(NamedTuple):
    id: str
    weight: int
    genus: int = 0


def _check_vertex(v, ids):
    """Add v's id to ids if it is new, with an integer genus >= 0 and an
    integer weight <= -1; raise ValueError if not."""
    if v.id in ids:
        raise ValueError("duplicate vertex id %r" % v.id)
    if not isinstance(v.genus, int) or isinstance(v.genus, bool):
        raise ValueError("vertex %r has non-integer genus %r"
                         % (v.id, v.genus))
    if v.genus < 0:
        raise ValueError("vertex %r has negative genus" % v.id)
    if not isinstance(v.weight, int) or isinstance(v.weight, bool):
        raise ValueError("vertex %r has non-integer weight %r"
                         % (v.id, v.weight))
    if v.weight > -1:
        raise ValueError("vertex %r has weight %d >= 0" % (v.id, v.weight))
    ids.add(v.id)


def _check_edge(a, b, ids):
    """Raise ValueError unless a--b joins two distinct declared ids."""
    for end in (a, b):
        if end not in ids:
            raise ValueError("edge endpoint %r is not declared" % end)
    if a == b:
        raise ValueError("self-loop at %r" % a)


class ResolutionGraph:
    """Immutable resolution dual graph.

    Vertices keep declaration order; edges keep declaration order with
    endpoints as written. The constructor validates caller input:
    nonempty, unique ids, integer weights <= -1, nonnegative genera,
    edge endpoints declared, no self-loops, connected. Graphs the
    package makes itself (parsed files, generated trees, blow-downs)
    come from _from_parts, which checks connectivity only.
    """

    __slots__ = ("vertices", "edges", "_index", "_adj", "_memo")

    def __init__(self, vertices, edges):
        vs = tuple(
            v if isinstance(v, Vertex) else Vertex(*v) for v in vertices
        )
        es = tuple((str(a), str(b)) for a, b in edges)
        if not vs:
            raise ValueError("graph must have at least one vertex")
        ids = set()
        for v in vs:
            _check_vertex(v, ids)
        for a, b in es:
            _check_edge(a, b, ids)
        self._build(vs, es)

    @classmethod
    def _from_parts(cls, vertices, edges):
        """The graph on Vertex objects with unique ids and integer
        weights (any sign) and (id, id) edges between distinct declared
        vertices, as the package's own builders make them; only
        connectivity is checked."""
        g = cls.__new__(cls)
        g._build(tuple(vertices), tuple(edges))
        return g

    def _build(self, vs, es):
        index = {v.id: i for i, v in enumerate(vs)}
        adj = [[] for _ in vs]
        for a, b in es:
            i, j = index[a], index[b]
            adj[i].append(j)
            adj[j].append(i)
        self.vertices = vs
        self.edges = es
        self._index = index
        # neighbour indices per vertex, ascending, repeated per multi-edge
        self._adj = tuple(tuple(sorted(x)) for x in adj)
        self._memo = {}  # stage results, see memoized
        reached = {0}
        stack = [0]
        while stack:
            for j in self._adj[stack.pop()]:
                if j not in reached:
                    reached.add(j)
                    stack.append(j)
        if len(reached) != len(vs):
            raise ValueError("graph is not connected")

    # -- basic structure -------------------------------------------------

    @property
    def n(self):
        return len(self.vertices)

    @property
    def vertex_ids(self):
        return tuple(v.id for v in self.vertices)

    @property
    def leaf_ids(self):
        """Ids of the vertices of valency <= 1, in declaration order:
        the leaves of a splice diagram, the end-curve variables."""
        return tuple(v.id for v, nb in zip(self.vertices, self._adj)
                     if len(nb) <= 1)

    def index_of(self, vid):
        return self._index[vid]

    def neighbors(self, vid):
        """Neighbor ids in declaration order, repeated per multi-edge."""
        vs = self.vertices
        return tuple(vs[j].id for j in self._adj[self._index[vid]])

    def valency(self, vid):
        return len(self._adj[self._index[vid]])

    def is_tree(self):
        return len(self.edges) == self.n - 1

    def is_qhs_tree(self):
        """Tree of genus-0 curves: the link is a rational homology sphere."""
        return self.is_tree() and all(v.genus == 0 for v in self.vertices)

    @memoized
    def tree_form(self):
        """The TreeForm of a tree's intersection form."""
        if not self.is_tree():
            raise ValueError("the tree pass needs a tree")
        return TreeForm(
            self._adj, [v.weight for v in self.vertices], self._index
        )

    @memoized
    def determinant(self):
        """det of the intersection matrix: the tree pass on a tree,
        dense Bareiss on a graph with cycles."""
        if self.is_tree():
            return self.tree_form().determinant
        return determinant(intersection_matrix(self))

    @memoized
    def is_negative_definite(self):
        """Is the intersection form negative definite? The tree pass on
        a tree, dense Bareiss on a graph with cycles."""
        if self.is_tree():
            return self.tree_form().negative_definite
        return is_negative_definite(intersection_matrix(self))

    def __eq__(self, other):
        return (
            isinstance(other, ResolutionGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __repr__(self):
        return "ResolutionGraph(%d vertices, %d edges)" % (
            self.n,
            len(self.edges),
        )


class TreeForm:
    """The intersection form of a tree, from one leaf-first pass.

    Built from the parts of a tree, not from a ResolutionGraph: adj
    holds the neighbour indices of each vertex (as
    ResolutionGraph._adj), weights the self-intersections and index the
    map id -> position, all in declaration order. So
    ResolutionGraph.tree_form and the random-tree generator, which
    tries weight lists on one fixed tree, share this one recurrence.

    Rooted at the first vertex and walked breadth-first, with no
    recursion. Per vertex v it keeps D(v), the determinant of the
    subtree of v, and prod_i D(c_i) over the children c_i (see the
    module docstring). `determinant` is D(root); `negative_definite`
    applies the sign rule. Branch determinants and solves are computed
    on request. Vertices are named by id; vectors are in declaration
    order.
    """

    __slots__ = (
        "_index", "_weights", "_order", "_parent", "_children",
        "_down", "_below", "_memo", "determinant", "negative_definite",
    )

    def __init__(self, adj, weights, index):
        n = len(weights)
        parent = [-1] * n
        children = [()] * n
        order = [0]  # breadth-first: every parent before its children
        for v in order:
            kids = tuple(u for u in adj[v] if u != parent[v])
            for u in kids:
                parent[u] = v
            children[v] = kids
            order.extend(kids)
        down = [0] * n  # D(v)
        below = [1] * n  # prod of D(c) over the children c of v
        odd = [True] * n  # the subtree of v has an odd number of vertices
        for v in reversed(order):
            p, s = 1, 0
            for c in children[v]:
                s = s * down[c] + below[c] * p
                p *= down[c]
                odd[v] ^= odd[c]
            down[v] = weights[v] * p - s
            below[v] = p
        self._index = index
        self._weights = weights
        self._order = order
        self._parent = parent
        self._children = children
        self._down = down
        self._below = below
        self._memo = {}
        self.determinant = down[0]
        self.negative_definite = all(
            d != 0 and (d < 0) == o for d, o in zip(down, odd)
        )

    @memoized
    def _branches_up(self):
        """Per non-root v, (det of the tree minus the subtree of v, det
        of that minus the parent of v). One pass from the root: at each
        vertex, the neighbours' pairs fold once into (P, S), and each
        child c is left out by two exact divisions by D(c), so every
        non-root D must be nonzero, as on a negative definite tree.
        Every vertex also re-derives det(M) from all its branches, an
        exact check of the pass."""
        w, det = self._weights, self.determinant
        down, below, children = self._down, self._below, self._children
        if 0 in down[1:]:  # the root is vertex 0
            raise ValueError("branch pass needs nonzero subtree determinants")
        up = [(1, 0)] * len(w)  # the root keeps (1, 0), the empty fold
        for v in self._order:
            # fold (D_i, E_i) into (prod D_i, sum E_i prod_{j != i} D_j)
            p, s = up[v]
            for c in children[v]:
                p, s = p * down[c], s * down[c] + below[c] * p
            if w[v] * p - s != det:
                raise AssertionError("tree pass verification failed")
            for c in children[v]:
                q = p // down[c]
                r = (s - below[c] * q) // down[c]
                up[c] = (w[v] * q - r, q)
        return up

    def branch_determinant(self, vid, uid):
        """det of the component of the tree minus vid that contains its
        neighbour uid."""
        v, u = self._index[vid], self._index[uid]
        if self._parent[u] == v:
            return self._down[u]
        if self._parent[v] == u:
            return self._branches_up()[v][0]
        raise ValueError("%r and %r are not adjacent" % (vid, uid))

    def solve(self, columns):
        """For each integer column b, the integer vector y = adj(M) b,
        so that M y = det(M) b.

        Leaf-first elimination scaled by the subtree determinants, then
        back substitution from the root: y(root) is the eliminated right
        side there, and y(v) = (det * beta(v) - y(parent) *
        prod_i D(c_i)) / D(v), an exact division. Needs every D(v)
        nonzero, as on a negative definite tree. Each y is verified by
        the residual M y = det(M) b, summed over vertices and edges.
        """
        det, down, below = self.determinant, self._down, self._below
        if det == 0:
            raise SingularMatrixError("matrix is singular")
        if 0 in down:
            raise ValueError("tree solve needs nonzero subtree determinants")
        w, order, parent = self._weights, self._order, self._parent
        out = []
        for b in columns:
            beta = [0] * len(w)
            for v in reversed(order):
                p, s = 1, 0
                for c in self._children[v]:
                    s = s * down[c] + beta[c] * p
                    p *= down[c]
                beta[v] = b[v] * p - s
            y = [0] * len(w)
            y[0] = beta[0]  # the root
            for v in order[1:]:
                y[v] = (det * beta[v] - y[parent[v]] * below[v]) // down[v]
            residual = [x * c for x, c in zip(w, y)]
            for v in order[1:]:
                residual[v] += y[parent[v]]
                residual[parent[v]] += y[v]
            if residual != [det * c for c in b]:
                raise AssertionError("tree solve verification failed")
            out.append(tuple(y))
        return out


class Cycle(NamedTuple):
    """Integer divisor supported on the exceptional curves."""

    vertex_ids: tuple
    coefficients: tuple

    def __getitem__(self, vid):
        return self.coefficients[self.vertex_ids.index(vid)]


class RationalCycle(NamedTuple):
    """Rational divisor supported on the exceptional curves."""

    vertex_ids: tuple
    coefficients: tuple

    def __getitem__(self, vid):
        return self.coefficients[self.vertex_ids.index(vid)]

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coefficients)


class Classification(NamedTuple):
    kind: str  # 'rational' | 'minimally_elliptic' | 'other'
    zsq: int
    multiplicity: Optional[int]
    embedding_dimension: Optional[int]
    numerically_gorenstein: bool


# -- file grammar ---------------------------------------------------------


def parse_graph(text: str) -> ResolutionGraph:
    """Parse the line-oriented graph grammar.

        vertex <id> weight=<int> [genus=<uint>]
        edge <id> <id>

    '#' starts a comment. Diagnostics carry the 1-based line number.
    """
    vertices = []
    edges = []
    ids = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) < 3:
                raise ParseError("vertex needs an id and a weight", lineno)
            vid = parts[1]
            weight = None
            genus = 0
            for field in parts[2:]:
                key, sep, value = field.partition("=")
                if not sep:
                    raise ParseError("expected key=value, got %r" % field, lineno)
                if key == "weight":
                    weight = parse_int(value, lineno)
                elif key == "genus":
                    genus = parse_int(value, lineno)
                else:
                    raise ParseError("unknown field %r" % key, lineno)
            if weight is None:
                raise ParseError("vertex %r has no weight" % vid, lineno)
            vertices.append(Vertex(vid, weight, genus))
            try:  # the constructor's checks, with the line number
                _check_vertex(vertices[-1], ids)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise ParseError("edge needs exactly two endpoints", lineno)
            edges.append((parts[1], parts[2]))
            try:
                _check_edge(*edges[-1], ids)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
        else:
            raise ParseError("unknown directive %r" % parts[0], lineno)
    if not vertices:
        raise ParseError("no vertices declared")
    try:  # connectivity is the one check left
        return ResolutionGraph._from_parts(vertices, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_graph(g: ResolutionGraph) -> str:
    """Inverse of parse_graph up to graph equality (vertices and edges
    in declaration order; genus written only when positive)."""
    lines = []
    for v in g.vertices:
        line = "vertex %s weight=%d" % (v.id, v.weight)
        if v.genus:
            line += " genus=%d" % v.genus
        lines.append(line)
    for a, b in g.edges:
        lines.append("edge %s %s" % (a, b))
    return "\n".join(lines) + "\n"


# -- invariants -----------------------------------------------------------


@memoized
def intersection_matrix(g: ResolutionGraph) -> IntMatrix:
    """Symmetric matrix: diagonal = weights, off-diagonal = edge
    multiplicities, vertex order = declaration order."""
    rows = [{i: v.weight} for i, v in enumerate(g.vertices)]
    for row, nbrs in zip(rows, g._adj):
        for j in nbrs:
            row[j] = row.get(j, 0) + 1
    return IntMatrix._from_sparse_rows(rows, g.n)


_NOT_NEGATIVE_DEFINITE = "intersection matrix is not negative definite"


def _require_negative_definite(g):
    if not g.is_negative_definite():
        raise NotNegativeDefiniteError(_NOT_NEGATIVE_DEFINITE)


def require_qhs_tree(g: ResolutionGraph) -> TreeForm:
    """g's TreeForm, once g is known to be a negative definite tree of
    genus-0 curves (the link is a rational homology sphere); raises
    NotQhsTreeError otherwise."""
    if not g.is_qhs_tree():
        raise NotQhsTreeError(
            "not a QHS tree: graph must be a tree of genus-0 curves"
        )
    form = g.tree_form()
    if not form.negative_definite:
        raise NotQhsTreeError("not a QHS tree: " + _NOT_NEGATIVE_DEFINITE)
    return form


def _adjunction_rhs(g):
    # K.E_i = 2g_i - 2 - E_i.E_i for every i
    return [2 * v.genus - 2 - v.weight for v in g.vertices]


@memoized
def canonical_cycle(g: ResolutionGraph) -> RationalCycle:
    """Solve the adjunction system M K = rhs for the canonical cycle K,
    exactly: by the tree pass on a tree, by intmat.solve_sparse on [M |
    rhs] otherwise (M is negative definite, so nonsingular), checked."""
    _require_negative_definite(g)
    rhs = _adjunction_rhs(g)
    if g.is_tree():
        form = g.tree_form()
        (y,) = form.solve([rhs])
        k = tuple(Fraction(c, form.determinant) for c in y)
    else:
        m = intersection_matrix(g)
        k = solve_sparse([{j: x for j, x in enumerate(row + (c,)) if x}
                          for row, c in zip(m.entries, rhs)], g.n)
        if m.mul_vector(k) != tuple(rhs):
            raise AssertionError("canonical cycle verification failed")
    return RationalCycle(g.vertex_ids, tuple(k))


@memoized
def fundamental_cycle(g: ResolutionGraph) -> Cycle:
    """Laufer's computation sequence, started at the reduced cycle.

    Z := sum of all E_i; while some Z.E_i > 0, add E_i for the
    lowest-index violating vertex. Terminates on negative-definite
    graphs and yields the componentwise-minimal cycle Z >= (1,..,1)
    with Z.E_i <= 0 for all i. Adding E_i changes Z.E_i by w_i and
    Z.E_j by 1 for each edge i--j.
    """
    _require_negative_definite(g)
    n = g.n
    weights = [v.weight for v in g.vertices]
    z = [1] * n
    prods = [w + len(nbrs) for w, nbrs in zip(weights, g._adj)]
    while True:
        i = next((i for i in range(n) if prods[i] > 0), None)
        if i is None:
            break
        z[i] += 1
        prods[i] += weights[i]
        for j in g._adj[i]:
            prods[j] += 1
    return Cycle(g.vertex_ids, tuple(z))


@memoized
def classify(g: ResolutionGraph) -> Classification:
    """Rational / minimally elliptic / other, from Z_o and K.

    Rational means Z_o.(Z_o+K) = -2; minimally elliptic means Z_o = -K
    exactly (the caller is responsible for passing the minimal good
    resolution for that test to be meaningful). Multiplicity and
    embedding dimension follow the Artin/Laufer rules, with the
    hypersurface floor of 3 on small cases.
    """
    z, k = fundamental_cycle(g), canonical_cycle(g)
    # Z.Z = sum w_v z_v^2 + 2 sum over edges z_a z_b, in integers
    zmap = dict(zip(z.vertex_ids, z.coefficients))
    zsq = sum(v.weight * zmap[v.id] ** 2 for v in g.vertices) + 2 * sum(
        zmap[a] * zmap[b] for a, b in g.edges
    )
    # Z.K = sum z_i (K.E_i); the adjunction right-hand side keeps this exact
    # and integral without touching K itself.
    zk = sum(zi * ri for zi, ri in zip(z.coefficients, _adjunction_rhs(g)))
    if zsq + zk == -2:
        kind, mult = "rational", -zsq
        embdim = max(3, mult + 1)
    elif all(zi == -ki for zi, ki in zip(z.coefficients, k.coefficients)):
        kind, mzo = "minimally_elliptic", -zsq
        mult = mzo if mzo >= 4 else (2 if mzo <= 2 else 3)
        embdim = max(3, mzo)
    else:
        kind, mult, embdim = "other", None, None
    return Classification(kind, zsq, mult, embdim, k.is_integral())


# -- blow-down ------------------------------------------------------------


def blow_down_minimal(g: ResolutionGraph) -> ResolutionGraph:
    """Contract genus-0 (-1)-vertices of valency <= 2 until none remain.

    Plumbing rules: valency 0 -> delete; valency 1 -> delete and add +1
    to the neighbor; valency 2 -> delete, join the neighbors, add +1 to
    each. Each step preserves |det| of the intersection matrix and
    negative definiteness. A lone final vertex is never deleted. If a
    weight >= 0 vertex survives in a multi-vertex end state (possible
    only for inputs that were not negative definite), the graph has no
    minimal representative under these moves alone. When nothing
    contracts, the result is g itself.
    """
    if not g.is_tree():
        raise ValueError("blow-down is implemented for trees only")
    weights = {v.id: v.weight for v in g.vertices}  # the vertices left
    edges = list(g.edges)
    while len(weights) > 1:
        valency = Counter(end for edge in edges for end in edge)
        vid = next((v.id for v in g.vertices if v.genus == 0
                    and weights.get(v.id) == -1 and valency[v.id] <= 2),
                   None)
        if vid is None:
            break
        del weights[vid]
        nbrs = [b if a == vid else a for a, b in edges if vid in (a, b)]
        edges = [e for e in edges if vid not in e]
        for u in nbrs:
            weights[u] += 1
        if len(nbrs) == 2:
            edges.append(tuple(nbrs))
    if len(weights) > 1 and any(w >= 0 for w in weights.values()):
        raise NonMinimalRepresentableError(
            "blow-down left a weight >= 0 vertex; graph has no minimal "
            "representative under (-1)-contractions"
        )
    if len(weights) == g.n:
        return g  # nothing contracted: g keeps its memoized stages
    return ResolutionGraph._from_parts(
        [v._replace(weight=weights[v.id]) for v in g.vertices
         if v.id in weights],
        edges,
    )
