"""Spans and counters around sforge's public functions, from outside.

``Tracer.install`` replaces each listed function with a wrapper in
every ``sforge`` module that holds it by name (``sforge.cli.determinant``
as well as ``sforge.intmat.determinant``), and each listed method on
its class; ``restore`` on the returned patch puts the originals back.
A span records name, start, end, parent span and the id of the CLI
call it belongs to. Spans stay in memory until the run writes them
out. A layer's self time is its span minus the spans directly under it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from math import comb

from workloads import ORDER_CAP

MAX_SPANS = 1_000_000

# (metric prefix, module, attribute path) of every spanned callable.
SPANNED = (
    ("intmat.determinant", "sforge.intmat", "determinant"),
    ("intmat.is_negative_definite", "sforge.intmat", "is_negative_definite"),
    ("intmat.smith_normal_form", "sforge.intmat", "smith_normal_form"),
    ("intmat.invert_rational", "sforge.intmat", "invert_rational"),
    ("intmat.solve_rational", "sforge.intmat", "solve_rational"),
    ("graph.parse_graph", "sforge.graph", "parse_graph"),
    ("graph.fundamental_cycle", "sforge.graph", "fundamental_cycle"),
    ("graph.canonical_cycle", "sforge.graph", "canonical_cycle"),
    ("graph.classify", "sforge.graph", "classify"),
    ("graph.blow_down_minimal", "sforge.graph", "blow_down_minimal"),
    ("splice.to_splice_diagram", "sforge.splice", "to_splice_diagram"),
    ("splice.semigroup_condition", "sforge.splice", "semigroup_condition"),
    ("discgroup.discriminant_group", "sforge.discgroup", "discriminant_group"),
    ("discgroup.leaf_characters", "sforge.discgroup", "leaf_characters"),
    ("discgroup.is_faithful", "sforge.discgroup",
     "CharacterAssignment.is_faithful"),
    ("equations.congruence_condition", "sforge.equations",
     "congruence_condition"),
    ("equations.build_splice_equations", "sforge.equations",
     "build_splice_equations"),
    ("equations.generic_coefficients", "sforge.equations",
     "generic_coefficients"),
    ("equations.check_equivariance", "sforge.equations", "check_equivariance"),
    ("invariants.invariant_generators", "sforge.invariants",
     "invariant_generators"),
    ("invariants.toric_relations", "sforge.invariants", "toric_relations"),
    ("invariants.membership_bounded", "sforge.invariants",
     "membership_bounded"),
    ("poly.Polynomial.__mul__", "sforge.poly", "Polynomial.__mul__"),
    ("poly.Polynomial.__add__", "sforge.poly", "Polynomial.__add__"),
    ("poly.parse_polynomial", "sforge.poly", "parse_polynomial"),
    ("cli.main", "sforge.cli", "main"),
    ("cli.envelope", "sforge.cli", "_envelope"),
)

# Callables that are only counted: they are called too often, or too
# cheaply, for a span to be worth its cost.
COUNTED = (
    ("graph.intersection_matrix", "sforge.graph", "intersection_matrix"),
    ("splice.linking_number", "sforge.splice", "linking_number"),
    ("discgroup.monomial_character", "sforge.discgroup",
     "CharacterAssignment.monomial_character"),
    ("poly.polynomials_built", "sforge.poly", "Polynomial.__init__"),
)

# Metrics that count distinct arguments per CLI call.
REPEATED = ("intmat.is_negative_definite", "graph.intersection_matrix",
            "discgroup.discriminant_group", "discgroup.leaf_characters")

# Every per-layer metric, by layer. Units follow from the suffix.
_NAMES = """
intmat.determinant.calls intmat.determinant.self_s
intmat.is_negative_definite.calls intmat.is_negative_definite.self_s
intmat.smith_normal_form.calls intmat.smith_normal_form.self_s
intmat.invert_rational.calls intmat.invert_rational.self_s
intmat.solve_rational.calls intmat.solve_rational.self_s
intmat.max_dim intmat.is_negative_definite.repeat_ratio
graph.parse_graph.self_s graph.fundamental_cycle.self_s
graph.canonical_cycle.self_s graph.classify.self_s
graph.blow_down_minimal.self_s
graph.intersection_matrix.calls graph.intersection_matrix.repeat_ratio
splice.to_splice_diagram.calls splice.to_splice_diagram.self_s
splice.semigroup_condition.calls splice.semigroup_condition.self_s
splice.linking_number.calls splice.witnesses splice.witnesses_truncated
splice.witness_use_ratio
discgroup.discriminant_group.calls discgroup.discriminant_group.self_s
discgroup.discriminant_group.repeat_ratio
discgroup.leaf_characters.calls discgroup.leaf_characters.self_s
discgroup.leaf_characters.repeat_ratio
discgroup.is_faithful.self_s discgroup.elements_enumerated
discgroup.monomial_character.calls
equations.congruence_condition.calls equations.congruence_condition.self_s
equations.build_splice_equations.calls
equations.build_splice_equations.self_s
equations.generic_coefficients.calls equations.generic_coefficients.self_s
equations.check_equivariance.calls equations.check_equivariance.self_s
invariants.invariant_generators.self_s invariants.toric_relations.self_s
invariants.membership_bounded.self_s
invariants.generators invariants.relations invariants.membership_unknowns
invariants.order_cap_refusals
poly.Polynomial.__mul__.calls poly.Polynomial.__mul__.self_s
poly.Polynomial.__add__.calls poly.Polynomial.__add__.self_s
poly.parse_polynomial.calls poly.parse_polynomial.self_s
poly.polynomials_built
cli.render.self_s cli.envelope.self_s cli.main.self_s
trace.overhead_ratio
""".split()


def _unit(name):
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "rows" if name == "intmat.max_dim" else "count"


# (name, unit, better); only the share of witnesses used is better high.
PER_LAYER = tuple(
    (name, _unit(name),
     "higher" if name == "splice.witness_use_ratio" else "lower")
    for name in _NAMES)


def _graph_key(g):
    return (g.vertices, g.edges)


# Notes: per-callable hooks that turn arguments and results into
# counters. Each gets (tracer, args, result, exc).


def _note_intmat(t, args, result, exc):
    t.max_dim = max(t.max_dim, args[0].rows)


def _note_definite(t, args, result, exc):
    _note_intmat(t, args, result, exc)
    t.distinct["intmat.is_negative_definite"].add(args[0])


def _note_graph(name):
    def note(t, args, result, exc):
        t.distinct[name].add(_graph_key(args[0]))
    return note


def _note_semigroup(t, args, result, exc):
    if result is not None:
        t.counters["splice.witnesses"] += sum(
            len(s) for s in result.solutions.values())
        t.counters["splice.witnesses_truncated"] += len(result.truncated)


def _note_congruence(t, args, result, exc):
    if result is not None:
        t.counters["splice.monomials_used"] += sum(
            len(m) for m in result.node_monomials.values())


def _note_equations(t, args, result, exc):
    if result is not None:
        t.counters["splice.monomials_used"] += sum(
            len(ns.monomials) for ns in result.nodes)


def _note_faithful(t, args, result, exc):
    t.counters["discgroup.elements_enumerated"] += args[0].order


def _note_generators(t, args, result, exc):
    if result is not None:
        t.counters["invariants.generators"] += len(result.exponents)
    elif isinstance(exc, ValueError) and args[1] > ORDER_CAP:
        t.counters["invariants.order_cap_refusals"] += 1


def _note_relations(t, args, result, exc):
    if result is not None:
        t.counters["invariants.relations"] += len(result)


def _note_membership(t, args, result, exc):
    target, gens, bound = args[0], args[1], args[2]
    t.counters["invariants.membership_unknowns"] += len(gens) * comb(
        len(target.variables) + bound, bound)


NOTES = {
    "intmat.determinant": _note_intmat,
    "intmat.is_negative_definite": _note_definite,
    "intmat.smith_normal_form": _note_intmat,
    "intmat.invert_rational": _note_intmat,
    "intmat.solve_rational": _note_intmat,
    "splice.semigroup_condition": _note_semigroup,
    "discgroup.discriminant_group":
        _note_graph("discgroup.discriminant_group"),
    "discgroup.leaf_characters": _note_graph("discgroup.leaf_characters"),
    "discgroup.is_faithful": _note_faithful,
    "equations.congruence_condition": _note_congruence,
    "equations.build_splice_equations": _note_equations,
    "invariants.invariant_generators": _note_generators,
    "invariants.toric_relations": _note_relations,
    "invariants.membership_bounded": _note_membership,
    "graph.intersection_matrix": _note_graph("graph.intersection_matrix"),
}


class _Patch:
    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class _JsonProxy:
    """Stands in for the json module inside sforge.cli, so that the
    structured rendering is timed as cli.render. Every benchmark call
    uses --format=structured, so the text renderers never run."""

    def __init__(self, real, dumps):
        self._real = real
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        # (id, parent id or 0, call id, name, start ns, end ns)
        self.spans = []
        self.dropped = 0
        self.call_id = 0
        self._next_id = 1
        self._stack = []  # [span id, ns covered by child spans]
        self.reset()

    def reset(self):
        """Clear the counters (not the spans) before a traced pass."""
        self.calls = Counter()
        self.self_ns = Counter()
        self.counters = Counter()
        self.max_dim = 0
        self.distinct = {name: set() for name in REPEATED}
        self.distinct_total = Counter()

    def begin_call(self):
        self.call_id += 1
        self._fold_distinct()

    def _fold_distinct(self):
        for name, seen in self.distinct.items():
            self.distinct_total[name] += len(seen)
            seen.clear()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, orig):
        note = NOTES.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0]
            self._next_id += 1
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = orig(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                took = end - start
                self.self_ns[name] += took - frame[1]
                self.calls[name] += 1
                if parent is not None:
                    parent[1] += took
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((frame[0], parent[0] if parent else 0,
                                       self.call_id, name, start, end))
                else:
                    self.dropped += 1
                if note is not None:
                    note(self, args, result, exc)

        return wrapper

    def _count(self, name, orig):
        note = NOTES.get(name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if note is not None:
                note(self, args, None, None)
            return orig(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every listed callable wherever sforge holds it; returns
        the patch to restore."""
        patch = _Patch()
        modules = [m for n, m in sys.modules.items()
                   if n == "sforge" or n.startswith("sforge.")]
        for table, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for name, module, path in table:
                owner = sys.modules[module]
                *cls, attr = path.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                orig = owner.__dict__[attr]
                wrapper = make(name, orig)
                # A class attribute reaches every importer; a function is
                # replaced in each module that imported it by name, and
                # aliases such as Polynomial.__rmul__ go with it.
                holders = [owner] if cls else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            patch.replace(holder, key, wrapper)
        cli = sys.modules["sforge.cli"]
        render = self._span("cli.render", cli.json.dumps)
        patch.replace(cli, "json", _JsonProxy(cli.json, render))
        return patch

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer values of the pass since the last reset(), except
        trace.overhead_ratio, which the caller measures."""
        self._fold_distinct()
        out = {}
        for name in list(self.calls) + list(self.self_ns):
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_ns[name] / 1e9
        for name in REPEATED:
            distinct = self.distinct_total[name]
            out[name + ".repeat_ratio"] = (
                self.calls[name] / distinct if distinct else 0.0)
        out.update(self.counters)
        out["poly.polynomials_built"] = self.calls["poly.polynomials_built"]
        out["intmat.max_dim"] = self.max_dim
        witnesses = self.counters["splice.witnesses"]
        out["splice.witness_use_ratio"] = (
            self.counters["splice.monomials_used"] / witnesses
            if witnesses else 0.0)
        return {name: out.get(name, 0) for name, _, _ in PER_LAYER
                if name != "trace.overhead_ratio"}

    def write(self, path):
        """Spans as JSON lines: id, parent, call, name, start, end (ns)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans),
                                 "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
