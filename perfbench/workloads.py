"""Seeded inputs for the sforge benchmark workloads.

Each workload draws its graph and polynomial files from a finite pool
that is defined here, independently of the run seed. The seed picks
variants that change the inputs but not their cost: corpus only orders
its calls, long-trees arranges each tree's weights, and big-groups
renames the vertices of each graph and picks its membership targets.
Structure stays fixed because a call's cost follows it. With
``everything=True`` a workload function returns the whole pool instead,
which is what ``record.py`` runs to build the reference table, so every
call any seed can produce has a reference.

Where the program has a generator for a graph, the input comes from
it: quotient cusps from ``sforge.corpus.quotient_cusp``, seeded random
trees from ``sforge.corpus.random_negative_definite_tree``, and |G| and
the splice equations that membership targets are built on from the
program's own functions. Only the families the program has no generator
for (chains, three-arm stars, combs) and the malformed corpus files are
written here.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from dataclasses import dataclass
from random import Random

COMMANDS = ("analyze", "splice", "conditions", "equations", "invariants")

# README example: invariants on e7 with a membership target.
README_TARGET = "x^2*z^2 + y^3*z^2 + z^6\n"
# Malformed inputs for the exit-2 paths: a graph that declares a vertex
# twice, and a membership target cut off after a caret.
MALFORMED_GRAPH = "vertex a weight=-2\nvertex a weight=-3\n"
MALFORMED_TARGET = "x^2*z^2 + y^3*z^2 + z^\n"

# big-groups. ORDER_CAP is sforge.invariants.ORDER_CAP at the commit
# that recorded the references; above it `invariants` refuses with exit 3
# after the O(|G|) group enumeration, and those calls stay.
ORDER_CAP = 2000
QC_LENGTHS = range(4, 10)  # k, the number of chain vertices e_1..e_k
# One |G| per bit length 6..14: the most common order of that length.
QC_ORDERS = (48, 64, 176, 464, 592, 1264, 2304, 6032, 8336)
QC_INVARIANTS_MAX_ORDER = 64
RANDOM_SEEDS = range(240)
RANDOM_MAX_VERTICES = 12
RANDOM_MIN_ORDER = 5
RANDOM_TREES = 12  # one from each |G| stratum
RANDOM_INVARIANTS_BOUND = 36  # invariants only when |G|**(t-2) <= this
RANDOM_VERIFY_GRAPHS = 4
VERIFY_POWERS = (1, 2)

VARIANTS = 4  # seeded variants of each input, see the module docstring

# long-trees: one call per (family, command, n) slot and pass.
LONG_SIZES = {"analyze": range(10, 27, 2), "splice": range(16, 41, 3)}


def sha256_hex(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Call:
    """One CLI call: a command on a graph file, with options and an
    optional --verify-identity polynomial file (both are file names
    inside the input directory)."""

    command: str
    graph: str
    options: tuple = ()
    poly: str | None = None

    def argv(self, directory):
        argv = [self.command, "%s/%s" % (directory, self.graph)]
        argv.append("--format=structured")
        argv.extend(self.options)
        if self.poly is not None:
            argv.append("--verify-identity=%s/%s" % (directory, self.poly))
        return argv

    def key(self, files):
        """Reference-table key: the call's meaning, not its file paths."""
        poly = sha256_hex(files[self.poly]) if self.poly else "-"
        parts = [self.command, " ".join(self.options),
                 sha256_hex(files[self.graph]), poly]
        return sha256_hex("\n".join(parts))[:20]

    def label(self):
        extra = " --verify-identity=%s" % self.poly if self.poly else ""
        return "%s %s%s%s" % (self.command, self.graph,
                              "".join(" " + o for o in self.options), extra)


@dataclass
class Inputs:
    files: dict  # file name -> text
    calls: list  # Call, in run order
    excluded: dict  # bound name -> pool members it excludes


# -- graphs -----------------------------------------------------------------


@dataclass(frozen=True)
class Tree:
    vertices: tuple  # (id, weight) in declaration order
    edges: tuple  # (id, id)

    def text(self, comment):
        lines = ["# " + comment]
        lines += ["vertex %s weight=%d" % v for v in self.vertices]
        lines += ["edge %s %s" % e for e in self.edges]
        return "\n".join(lines) + "\n"

    def leaves(self):
        degree = {v: 0 for v, _ in self.vertices}
        for a, b in self.edges:
            degree[a] += 1
            degree[b] += 1
        return [v for v, _ in self.vertices if degree[v] <= 1]


def _from_graph(g):
    return Tree(tuple((v.id, v.weight) for v in g.vertices), tuple(g.edges))


def _order(sforge, g):
    """|G| = |det| of the intersection matrix, as the program computes it."""
    return abs(sforge.intmat.determinant(sforge.graph.intersection_matrix(g)))


def _arm(vertices, edges, start, prefix, length, rng):
    prev = start
    for j in range(length):
        vid = "%s%d" % (prefix, j)
        vertices.append((vid, -rng.randint(2, 4)))
        edges.append((prev, vid))
        prev = vid


# Every family is diagonally dominant (weight <= -valency everywhere,
# strictly at the leaves) and connected, hence negative definite.


def chain(n, rng):
    vertices = [("v0", -rng.randint(2, 4))]
    edges = []
    _arm(vertices, edges, "v0", "w", n - 1, rng)
    return Tree(tuple(vertices), tuple(edges))


def star(n, rng):
    """Three long arms around a valency-3 node."""
    vertices = [("c", -rng.randint(3, 4))]
    edges = []
    for a in range(3):
        length = (n - 1) // 3 + (1 if a < (n - 1) % 3 else 0)
        _arm(vertices, edges, "c", "a%d_" % a, length, rng)
    return Tree(tuple(vertices), tuple(edges))


def comb(n, rng):
    """A spine of valency-3 nodes, each with a tooth of two or more
    vertices, and one extra leg at each end of the spine."""
    spine = (n - 2) // 3
    spare = n - 2 - 3 * spine
    vertices, edges = [], []
    for i in range(spine):
        node = "s%d" % i
        vertices.append((node, -rng.randint(3, 4)))
        if i:
            edges.append(("s%d" % (i - 1), node))
        _arm(vertices, edges, node, "t%d_" % i, 2 + (i < spare), rng)
    _arm(vertices, edges, "s0", "l", 1, rng)
    _arm(vertices, edges, "s%d" % (spine - 1), "r", 1, rng)
    return Tree(tuple(vertices), tuple(edges))


# -- workloads --------------------------------------------------------------


def build_corpus(root, rng, sforge, everything=False):
    """Every graphs/*.graph file under the five commands, the README's
    membership example, `splice` on random tree 15, the other known
    splice crash besides graphs/random-07.graph, and one malformed graph
    file and one malformed target, which exit 2."""
    files = {p.name: p.read_text(encoding="utf-8")
             for p in sorted((root / "graphs").glob("*.graph"))}
    if not files:
        raise FileNotFoundError("no graph files in %s" % (root / "graphs"))
    calls = [Call(cmd, name) for name in files for cmd in COMMANDS]
    files["target.poly"] = README_TARGET
    calls.append(Call("invariants", "e7.graph", ("--degree-bound=2",),
                      "target.poly"))
    tree = _from_graph(sforge.corpus.random_negative_definite_tree(Random(15)))
    files["random-15.graph"] = tree.text("seeded random tree (seed 15)")
    calls.append(Call("splice", "random-15.graph"))
    files["malformed.graph"] = MALFORMED_GRAPH
    calls.append(Call("analyze", "malformed.graph"))
    files["malformed.poly"] = MALFORMED_TARGET
    calls.append(Call("invariants", "e7.graph", ("--degree-bound=2",),
                      "malformed.poly"))
    if not everything:
        rng.shuffle(calls)
    return Inputs(files, calls, {})


def _permuted(tree, rng):
    """The same tree with its weights shuffled among vertices of equal
    valency: a variant with the same weight multiset, so that variants
    of one slot cost about the same."""
    valency = {v: 0 for v, _ in tree.vertices}
    for a, b in tree.edges:
        valency[a] += 1
        valency[b] += 1
    pools = {}
    for v, w in tree.vertices:
        pools.setdefault(valency[v], []).append(w)
    for weights in pools.values():
        rng.shuffle(weights)
    vertices = tuple((v, pools[valency[v]].pop()) for v, _ in tree.vertices)
    return Tree(vertices, tree.edges)


def build_long_trees(root, rng, sforge, everything=False):
    """analyze on chains, three-arm stars and combs of 10..26 vertices
    and splice on 16..40 vertices, so that the cheap splice calls do not
    leave a gap at the median; one seeded weight arrangement per slot."""
    files, calls = {}, []
    for family in (chain, star, comb):
        for command, sizes in LONG_SIZES.items():
            for n in sizes:
                base = family(n, Random("%s/%d" % (family.__name__, n)))
                variants = range(VARIANTS)
                if not everything:
                    variants = [rng.randrange(VARIANTS)]
                for v in variants:
                    name = "%s-%d-%d.graph" % (family.__name__, n, v)
                    tree = _permuted(base, Random(name))
                    files[name] = tree.text(name)
                    calls.append(Call(command, name))
    if not everything:
        rng.shuffle(calls)
    return Inputs(files, calls, {})


def _qc_pool(sforge):
    """Quotient cusps with e_i in {2, 3} and k in QC_LENGTHS, one of
    each mirror pair, as (name, tree, |G|)."""
    out = []
    for k in QC_LENGTHS:
        for es in itertools.product((2, 3), repeat=k):
            if 3 in es and es <= es[::-1]:
                g = sforge.corpus.quotient_cusp(k, es)
                name = "qc-%s.graph" % "".join(map(str, es))
                out.append((name, _from_graph(g), _order(sforge, g)))
    return out


def qc_invariants_allowed(order):
    return order <= QC_INVARIANTS_MAX_ORDER or order > ORDER_CAP


def random_invariants_allowed(order, leaves):
    return order ** max(leaves - 2, 0) <= RANDOM_INVARIANTS_BOUND


def _membership_targets(equation, leaf):
    """(b, kind, text): leaf^b * equation, which lies in the splice ideal
    with a degree-b cofactor, and the same plus leaf, which does not,
    since the equations have no linear part."""
    out = []
    terms = re.split(r" ([+-]) ", equation)
    for b in VERIFY_POWERS:
        factor = "*%s^%d" % (leaf, b)
        member = terms[0] + factor
        for sign, term in zip(terms[1::2], terms[2::2]):
            member += " %s %s%s" % (sign, term, factor)
        out.append((b, "member", member + "\n"))
        out.append((b, "nonmember", "%s + %s\n" % (member, leaf)))
    return out


def _strata(items, k):
    """items cut into k contiguous groups of near-equal size."""
    return [items[i * len(items) // k:(i + 1) * len(items) // k]
            for i in range(k)]


def _renamed(tree, rng):
    """The tree with its vertices renamed v0..v(n-1) in a seeded order,
    and the renaming. Declaration order stays, and with it the cost."""
    names = ["v%d" % i for i in range(len(tree.vertices))]
    rng.shuffle(names)
    new = {v: name for (v, _), name in zip(tree.vertices, names)}
    renamed = Tree(tuple((new[v], w) for v, w in tree.vertices),
                   tuple((new[a], new[b]) for a, b in tree.edges))
    return renamed, new


def build_big_groups(root, rng, sforge, everything=False):
    """conditions, equations and invariants --degree-bound=2 on quotient
    cusps and seeded random trees with a large |G|, and membership
    targets on graphs that pass the conditions. `invariants` runs only
    where qc_invariants_allowed or random_invariants_allowed holds.

    The graphs are fixed by the rules below; the seed picks one of
    VARIANTS renamings of each, the membership targets and the call
    order. A call's cost follows the graph's structure (cusps of one |G|
    differ 4x in cost with their length), so structure is not seeded."""
    excluded = {}
    # (file stem, tree, run conditions and equations, run invariants,
    # first splice equation when the graph takes membership targets)
    graphs = []

    # One cusp per order: the shortest, then lexicographically first.
    cusps = _qc_pool(sforge)
    excluded["qc_other_orders"] = sum(o not in QC_ORDERS for *_, o in cusps)
    excluded["qc_invariants"] = sum(
        not qc_invariants_allowed(o) for *_, o in cusps)
    for order in QC_ORDERS:
        name, tree, _ = next(c for c in cusps if c[2] == order)
        equation = None
        if order <= QC_INVARIANTS_MAX_ORDER:
            equation = _first_equation(sforge, tree)
        graphs.append((name[:-6], tree, True, qc_invariants_allowed(order),
                       equation))

    # Random trees: sorted by |G| and cut into RANDOM_TREES equal strata;
    # the middle tree of each stratum runs. Membership targets go on the
    # first tree that passes the conditions in each of RANDOM_VERIFY_GRAPHS
    # strata of the trees within the invariants bound.
    trees = []
    excluded["random_filter"] = excluded["random_invariants"] = 0
    for seed in RANDOM_SEEDS:
        g = sforge.corpus.random_negative_definite_tree(
            Random(seed), max_vertices=RANDOM_MAX_VERTICES)
        tree = _from_graph(g)
        leaves, order = len(tree.leaves()), _order(sforge, g)
        if leaves < 3 or order < RANDOM_MIN_ORDER:
            excluded["random_filter"] += 1
            continue
        allowed = random_invariants_allowed(order, leaves)
        excluded["random_invariants"] += not allowed
        trees.append((order, seed, tree, allowed))
    trees.sort(key=lambda t: t[:2])
    for stratum in _strata(trees, RANDOM_TREES):
        _, seed, tree, allowed = stratum[len(stratum) // 2]
        graphs.append(("random-%03d" % seed, tree, True, allowed, None))
    for stratum in _strata([t for t in trees if t[3]], RANDOM_VERIFY_GRAPHS):
        for _, seed, tree, _ in stratum:
            equation = _first_equation(sforge, tree)
            if equation is not None:
                graphs.append(("random-%03d" % seed, tree, False, False,
                               equation))
                break

    files, calls = {}, []
    degree = ("--degree-bound=2",)
    for stem, tree, basic, invariants, equation in graphs:
        variants = range(VARIANTS)
        if not everything:
            variants = [rng.randrange(VARIANTS)]
        for v in variants:
            name = "%s-r%d.graph" % (stem, v)
            renamed, new = _renamed(tree, Random(name))
            files[name] = renamed.text(name)
            if basic:
                calls.append(Call("conditions", name))
                calls.append(Call("equations", name))
            if invariants:
                calls.append(Call("invariants", name, degree))
            if equation is None:
                continue
            equation_here = re.sub(r"[A-Za-z_]\w*",
                                   lambda m: new[m.group()], equation)
            leaves = renamed.leaves()
            if not everything:
                leaves = [rng.choice(leaves)]
            power = None if everything else rng.choice(VERIFY_POWERS)
            for leaf in leaves:
                for b, kind, text in _membership_targets(equation_here, leaf):
                    if power in (None, b):
                        poly = "%s-%s-b%d-%s.poly" % (name[:-6], leaf, b, kind)
                        files[poly] = text
                        calls.append(Call("invariants", name, degree, poly))
    if not everything:
        rng.shuffle(calls)
    return Inputs(files, calls, excluded if everything else {})


def _first_equation(sforge, tree):
    """The first splice equation as text, or None when the program
    refuses to emit equations for the tree."""
    g = sforge.graph.parse_graph(tree.text("equations"))
    try:
        return str(sforge.equations.build_splice_equations(g).equations[0])
    except sforge.errors.PreconditionError:
        return None


WORKLOADS = {
    "corpus": build_corpus,
    "long-trees": build_long_trees,
    "big-groups": build_big_groups,
}
