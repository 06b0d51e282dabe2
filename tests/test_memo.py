"""One memo per graph: every memoized stage is built once per object,
whatever mix of public calls reads it, and no memo refers back to its
owner."""

import gc
import types
from itertools import islice
from random import Random

import pytest

from sforge import (
    PreconditionError,
    blow_down_minimal,
    build_splice_equations,
    canonical_cycle,
    classify,
    congruence_condition,
    discriminant_group,
    dual_class_order,
    edge_determinant,
    fundamental_cycle,
    intersection_matrix,
    invariant_factors,
    is_zhs,
    leaf_characters,
    linking_numbers,
    semigroup_condition,
    to_splice_diagram,
    witnesses,
)
from sforge.corpus import (
    builtin_corpus,
    quotient_cusp,
    random_negative_definite_tree,
)
from sforge.graph import parse_graph

from conftest import MEMOIZED


def _diagram_reads(g):
    d = to_splice_diagram(g)
    linking_numbers(d, d.nodes[0])
    for e in d.edges:
        if d.is_node(e.a) and d.is_node(e.b):
            edge_determinant(d, e)


# Public calls that read memoized stages, each on a graph.
CALLS = (
    intersection_matrix,
    lambda g: g.tree_form().branch_determinant(  # toward the root
        g.neighbors(g.vertex_ids[0])[0], g.vertex_ids[0]),
    lambda g: g.determinant(),
    lambda g: g.is_negative_definite(),
    fundamental_cycle,
    canonical_cycle,
    classify,
    lambda g: classify(blow_down_minimal(g)),
    to_splice_diagram,
    lambda g: semigroup_condition(to_splice_diagram(g)),
    is_zhs,
    discriminant_group,
    invariant_factors,
    leaf_characters,
    lambda g: dual_class_order(g, g.vertex_ids[-1]),
    _diagram_reads,
    congruence_condition,
    build_splice_equations,
)


def _graphs():
    rng = Random(53)
    graphs = [random_negative_definite_tree(rng, max_vertices=12)
              for _ in range(30)]
    graphs += [quotient_cusp(k, [3] * k) for k in (3, 4)]
    return graphs + list(builtin_corpus().values())


def test_each_stage_is_built_once_per_object(builds):
    """Seeded: on each of 30 random trees, two quotient cusps and the
    corpus, 40 public calls drawn at random from CALLS, so most stages
    are read many times and in many orders. Every stage is built at
    most once per object it is memoized on, every stage is built
    somewhere, and a later read returns the very object that was
    built."""
    rng = Random(7)
    graphs = _graphs()
    for g in graphs:
        for _ in range(40):
            try:
                rng.choice(CALLS)(g)
            except (PreconditionError, ValueError, IndexError):
                pass  # outside the call's domain; nothing is memoized
    counts = {}
    for name, args in builds.items():
        for x in args:
            key = (name, id(x))  # builds keeps x alive: ids stay unique
            counts[key] = counts.get(key, 0) + 1
    assert counts and max(counts.values()) == 1
    stages = {name for name, _ in counts}
    assert stages == set(MEMOIZED), set(MEMOIZED) - stages
    for name, args in builds.items():
        stage = MEMOIZED[name]
        for x in args:
            assert x._memo[name] is stage(x), name


def _reachable(root):
    """ids of the objects reachable from root through containers and
    instances, not through types, modules or code."""
    skip = (type, types.ModuleType, types.FunctionType, types.CodeType,
            types.BuiltinFunctionType)
    seen = {id(root)}
    stack = [root]
    while stack:
        for r in gc.get_referents(stack.pop()):
            if id(r) not in seen and not isinstance(r, skip):
                seen.add(id(r))
                stack.append(r)
    return seen


@pytest.mark.parametrize("name", ["two-node", "e7", "quotient-cusp-2-3",
                                  "star-237", "d5"])
def test_no_memo_refers_back_to_its_owner(name):
    """Nothing reachable from g._memo is g, and likewise for the memos
    of g's diagram and tree form: freeing g needs no cyclic collection."""
    g = builtin_corpus()[name]
    for call in CALLS:
        try:
            call(g)
        except (PreconditionError, ValueError, IndexError):
            pass
    owners = [g, g.tree_form(), to_splice_diagram(g)]
    assert {"tree_form", "intersection_matrix", "classify",
            "to_splice_diagram", "discriminant_group",
            "invariant_factors", "leaf_characters"} <= set(g._memo)
    for owner in owners:
        assert owner._memo, owner
        assert id(owner) not in _reachable(owner._memo), owner


@pytest.mark.parametrize("name", ["random-04", "random-07", "random-08"])
def test_is_zhs_blows_down_once_per_graph(builds, graphs_dir, name):
    """On these graphs the blow-down contracts something, so is_zhs
    checks the diagram of a new graph: a second and third call build
    no further diagram, as the verdict is kept in g's memo."""
    g = parse_graph((graphs_dir / (name + ".graph")).read_text())
    assert blow_down_minimal(g) is not g
    assert is_zhs(g) is True
    diagrams = list(builds["to_splice_diagram"])
    assert len(diagrams) == 1 and diagrams[0] is not g
    assert is_zhs(g) is True and is_zhs(g) is True
    assert builds["to_splice_diagram"] == diagrams
    assert builds["is_zhs"] == [g]


def test_witness_streams_leave_no_cyclic_garbage():
    """Reading witness streams and dropping them frees everything by
    reference counting: neither a stream nor the search kept in the
    diagram's memo is in a reference cycle. On the quotient cusp k = 4,
    every direction is read for one, two and 30 witnesses (past the
    27 of an inner edge, so a stream also ends), then again after
    semigroup_condition has read every search on to the cap."""
    d = to_splice_diagram(quotient_cusp(4, [3] * 4))
    for v in d.nodes:
        d.walk(v)

    def read(count):
        for v in d.nodes:
            for e in d.incident_edges(v):
                assert list(islice(witnesses(d, v, e), count))

    gc.collect()
    gc.disable()
    try:
        for count in (1, 2, 30):
            read(count)
        semigroup_condition(d)
        read(30)
        assert gc.collect() == 0
    finally:
        gc.enable()
