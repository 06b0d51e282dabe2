"""Command-line front end.

    sforge <analyze|splice|conditions|equations|invariants> <file> [options]

Exit codes: 0 success (negative mathematical verdicts included), 1
stdout closed before the output was written (a pipe into head, say), 2
malformed input, 3 precondition violation, 4 a failed self-check.
Structured output is byte-stable for a fixed input and version; the
text rendering is derived from the same document, never recomputed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from .discgroup import invariant_factors, leaf_characters
from .equations import build_splice_equations, congruence_condition
from .errors import ParseError, PreconditionError
from .graph import (
    blow_down_minimal,
    canonical_cycle,
    classify,
    fundamental_cycle,
    intersection_matrix,
    parse_graph,
    require_qhs_tree,
)
from .invariants import (
    check_order_cap,
    invariant_generators,
    membership_bounded,
    toric_relations,
)
from .poly import monomial_text, parse_polynomial
from .splice import (
    edge_determinant,
    is_zhs,
    linking_numbers,
    node_weight,
    semigroup_condition,
    to_splice_diagram,
)

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _frac(x):
    return "%d/%d" % (x.numerator, x.denominator)


def _fracs(xs):
    return [_frac(x) for x in xs]


def _graph_doc(g):
    return {
        "vertices": [v._asdict() for v in g.vertices],
        "edges": [[a, b] for a, b in g.edges],
    }


def _group_doc(order, factors):
    return {"order": order, "invariant_factors": list(factors)}


def _group_line(group):
    """The text line of an {"order", "invariant_factors"} document."""
    desc = " x ".join("Z/%d" % f for f in group["invariant_factors"])
    desc = desc or "trivial"
    return "discriminant group: order %d (%s)" % (group["order"], desc)


def _read(path):
    """The bytes of the file at path, read once, and their UTF-8 text;
    both parsers take LF, CRLF and a lone CR alike as line ends. A file
    that cannot be read, or is not UTF-8, is malformed input: ParseError."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return raw, raw.decode("utf-8")
    except (OSError, ValueError) as exc:  # a NUL in the path, or not UTF-8
        raise ParseError("cannot read %s: %s" % (path, exc)) from None


def _parse(path, text):
    """The graph in text, or its ParseError named by the file at path."""
    try:
        return parse_graph(text)
    except ParseError as exc:
        raise ParseError("%s: %s" % (path, exc)) from None


def _envelope(command, path, digest, data):
    return {
        "tool": "sforge",
        "version": __version__,
        "command": command,
        "input": path,
        "input_sha256": digest,
        "result": data,
    }


# -- analyze ----------------------------------------------------------------


def _analyze(g, args):
    m = intersection_matrix(g)
    data = {
        "graph": _graph_doc(g),
        "matrix": m.to_lists(),
        "negative_definite": g.is_negative_definite(),
    }
    det = g.determinant()
    z = fundamental_cycle(g)  # refuses a form that is not negative definite
    k = canonical_cycle(g)
    data["abs_det"] = abs(det)
    data["fundamental_cycle"] = dict(zip(z.vertex_ids, z.coefficients))
    data["canonical_cycle"] = dict(
        zip(k.vertex_ids, _fracs(k.coefficients))
    )
    data["numerically_gorenstein"] = k.is_integral()
    data["classification"] = classify(g)._asdict()
    data["blown_down"] = None
    if g.is_tree():  # contracting keeps the form negative definite
        h = blow_down_minimal(g)
        data["blown_down"] = {
            "changed": h is not g,
            "graph": _graph_doc(h),
            "classification": classify(h)._asdict(),
        }
    if g.is_qhs_tree():
        data["discriminant"] = _group_doc(abs(det), invariant_factors(g))
        data["discriminant_note"] = None
    else:
        data["discriminant"] = None
        data["discriminant_note"] = (
            "discriminant data needs a QHS tree (genus-0 tree)"
        )
    return data


def _render_analyze(data):
    out = []
    g = data["graph"]
    out.append(
        "graph: %d vertices, %d edges"
        % (len(g["vertices"]), len(g["edges"]))
    )
    out.append("negative definite: %s" % data["negative_definite"])
    out.append("|det| = %d" % data["abs_det"])
    ids = [v["id"] for v in g["vertices"]]
    for name in ("fundamental", "canonical"):  # int, "p/q" coefficients
        cycle = data[name + "_cycle"]
        pairs = " ".join("%s:%s" % (i, cycle[i]) for i in ids)
        out.append("%s cycle: %s" % (name, pairs))
    out.append(
        "numerically Gorenstein: %s" % data["numerically_gorenstein"]
    )
    c = data["classification"]
    line = "classification: %s (Z.Z = %d" % (c["kind"], c["zsq"])
    if c["multiplicity"] is not None:
        line += ", multiplicity %d, embdim %d" % (
            c["multiplicity"],
            c["embedding_dimension"],
        )
    out.append(line + ")")
    blown = data["blown_down"]
    if blown and blown["changed"]:
        out.append(
            "after blow-down: %d vertices, classification %s"
            % (len(blown["graph"]["vertices"]),
               blown["classification"]["kind"])
        )
    if data["discriminant"] is not None:
        out.append(_group_line(data["discriminant"]))
    else:
        out.append("discriminant group: n/a (%s)" % data["discriminant_note"])
    return "\n".join(out)


# -- splice -----------------------------------------------------------------


def _by_direction(d, value):
    """{node: {direction label: value(node, edge)}} over the diagram's
    nodes and the edges at each, in their order."""
    return {
        v: {d.direction_label(v, e): value(v, e) for e in d.incident_edges(v)}
        for v in d.nodes
    }


def _splice(g, args):
    d = to_splice_diagram(g)
    data = {
        "no_nodes": not d.has_nodes,
        "leaves": list(d.leaves),
        "nodes": list(d.nodes),
        "edges": [
            {
                "a": e.a,
                "b": e.b,
                "path": list(e.path),
                "internal": d.is_node(e.a) and d.is_node(e.b),
            }
            for e in d.edges
        ],
        "weights": _by_direction(d, d.weight),
        "node_weights": {v: node_weight(d, v) for v in d.nodes},
        "linking_numbers": {v: linking_numbers(d, v) for v in d.nodes},
        "edge_determinants": [
            {"a": e.a, "b": e.b, "value": edge_determinant(d, e)}
            for e in d.edges
            if d.is_node(e.a) and d.is_node(e.b)
        ],
        "zhs": is_zhs(g),
        "diagram": d.render_text(),
    }
    if data["no_nodes"]:
        data["note"] = "no nodes: cyclic quotient case"
    return data


def _weights_line(weights, names):
    """The text line of a node's variable weights, in the order of names."""
    pairs = ", ".join("%s:%d" % (w, weights[w]) for w in names)
    return "  variable weights: " + pairs


def _render_splice(data):
    out = []
    if data["no_nodes"]:
        out.append(data["note"])
    out.append(data["diagram"].rstrip("\n"))
    for ed in data["edge_determinants"]:
        out.append(
            "edge determinant %s--%s: %d" % (ed["a"], ed["b"], ed["value"])
        )
    for v in data["nodes"]:
        out.append("node weight %s: %d" % (v, data["node_weights"][v]))
        out.append(_weights_line(data["linking_numbers"][v], data["leaves"]))
    out.append("integral homology sphere: %s" % data["zhs"])
    return "\n".join(out)


# -- conditions ---------------------------------------------------------------


def _monomial_str(exps):
    names = sorted(exps)
    return monomial_text(names, [exps[w] for w in names])


def _conditions(g, args):
    d = to_splice_diagram(g)
    if not d.has_nodes:
        return {
            "no_nodes": True,
            "note": "no nodes: cyclic quotient case",
            "semigroup": None,
            "congruence": None,
        }
    wit = semigroup_condition(d)
    sem = {
        "holds": wit.holds,
        "witnesses": _by_direction(
            d, lambda v, e: wit.solutions[(v, e.index)]
        ),
        "failures": [list(f) for f in wit.failures],
        "truncated": [list(t) for t in wit.truncated],
    }
    if not wit.holds:
        return {"no_nodes": False, "semigroup": sem, "congruence": None}
    cong = congruence_condition(g)
    return {
        "no_nodes": False,
        "semigroup": sem,
        "congruence": {
            "holds": cong.holds,
            "characters": {
                v: _fracs(c) for v, c in cong.node_characters.items()
            },
            "monomials": cong.node_monomials,
            "failures": list(cong.failures),
        },
    }


def _render_conditions(data):
    if data["no_nodes"]:
        return data["note"]
    sem = data["semigroup"]
    out = ["semigroup condition: %s" % sem["holds"]]
    for v, dirs in sem["witnesses"].items():
        for label, sols in dirs.items():
            shown = ", ".join(_monomial_str(a) for a in sols[:8])
            if len(sols) > 8:
                shown += ", ... (%d total)" % len(sols)
            out.append("  %s %s: %s" % (v, label, shown or "(none)"))
    for v, label in sem["failures"]:
        out.append("  FAILS at node %s %s" % (v, label))
    cong = data["congruence"]
    if cong is None:
        out.append("congruence condition: not evaluated")
    else:
        out.append("congruence condition: %s" % cong["holds"])
        for v, mm in cong["monomials"].items():
            out.append(
                "  node %s: character (%s), monomials %s"
                % (
                    v,
                    ", ".join(cong["characters"][v]),
                    ", ".join(
                        "%s: %s" % (label, _monomial_str(a))
                        for label, a in mm.items()
                    ),
                )
            )
        for v in cong["failures"]:
            out.append("  FAILS at node %s" % v)
    return "\n".join(out)


# -- equations ----------------------------------------------------------------


def _equations(g, args):
    pkg = build_splice_equations(g)
    chars = pkg.characters
    nodes = [
        {
            "node": ns.node_id,
            "weight": ns.weight,
            "variable_weights": ns.variable_weights,
            "directions": list(ns.directions),
            "monomials": list(ns.monomials),
            "coefficients": ns.coefficients.to_lists(),
            "character": _fracs(ns.character),
            "equations": [str(eq) for eq in ns.equations],
        }
        for ns in pkg.nodes
    ]
    return {
        "variables": list(pkg.variables),
        # pkg.equations is the node equations in node order
        "equations": [eq for ns in nodes for eq in ns["equations"]],
        "nodes": nodes,
        "group": _group_doc(chars.order, chars.generator_orders),
        "characters": {
            w: _fracs([row[i] for row in chars.phases])
            for i, w in enumerate(chars.leaf_ids)
        },
        "action_table": [
            {
                "generator": j,
                "order": chars.generator_orders[j],
                "phases": {
                    w: _frac(chars.phases[j][i])
                    for i, w in enumerate(chars.leaf_ids)
                },
            }
            for j in range(len(chars.generator_orders))
        ],
    }


def _render_equations(data):
    out = ["variables: " + ", ".join(data["variables"])]
    for ns in data["nodes"]:
        out.append(
            "node %s (weight %d, character (%s)):"
            % (ns["node"], ns["weight"], ", ".join(ns["character"]))
        )
        out.append(_weights_line(ns["variable_weights"], data["variables"]))
        for eq in ns["equations"]:
            out.append("  %s = 0" % eq)
    out.append(_group_line(data["group"]))
    for row in data["action_table"]:
        out.append(
            "generator %d (order %d) acts by phases: %s"
            % (
                row["generator"],
                row["order"],
                ", ".join(
                    "%s:%s" % (w, row["phases"][w]) for w in data["variables"]
                ),
            )
        )
    return "\n".join(out)


# -- invariants ---------------------------------------------------------------


def _invariants(g, args):
    degree_bound = args.degree_bound
    if degree_bound < 1:
        raise ParseError("--degree-bound must be >= 1")
    order = abs(require_qhs_tree(g).determinant)
    check_order_cap(order)
    chars = leaf_characters(g)
    basis = invariant_generators(chars, order, degree_bound=degree_bound)
    relations = toric_relations(basis, degree_bound)
    data = {
        "group": _group_doc(order, chars.generator_orders),
        "degree_bound": degree_bound,
        "generators": [
            {
                "name": basis.names[i],
                "exponents": {
                    v: e
                    for v, e in zip(basis.variables, basis.exponents[i])
                    if e
                },
                "monomial": monomial_text(
                    basis.variables, basis.exponents[i]
                ),
            }
            for i in range(len(basis.exponents))
        ],
        "relations": relations,
        "certificate": None,
    }
    if args.verify_identity is not None:
        text = _read(args.verify_identity)[1]
        target = parse_polynomial(text, basis.variables)
        pkg = build_splice_equations(g)
        cert = membership_bounded(target, list(pkg.equations), degree_bound)
        data["certificate"] = {
            "target": str(target),
            "ideal": [str(eq) for eq in pkg.equations],
            "degree_bound": degree_bound,
            "found": cert is not None,
            "cofactors": [str(q) for q in cert.cofactors] if cert else None,
        }
    return data


def _render_invariants(data):
    out = [_group_line(data["group"])]
    out.append("invariant generators:")
    for gen in data["generators"]:
        out.append("  %s = %s" % (gen["name"], gen["monomial"]))
    out.append(
        "relations up to degree %d:%s"
        % (data["degree_bound"], "" if data["relations"] else " (none)")
    )
    for r in data["relations"]:
        out.append("  %s = 0" % r)
    cert = data["certificate"]
    if cert is not None:
        out.append("membership check: target %s" % cert["target"])
        out.append("  ideal: %s" % "; ".join(cert["ideal"]))
        if cert["found"]:
            out.append(
                "  certificate cofactors: %s" % "; ".join(cert["cofactors"])
            )
        else:
            out.append(
                "  no cofactors of degree <= %d (not a proof of"
                " non-membership)" % cert["degree_bound"]
            )
    return "\n".join(out)


# -- structured rendering -----------------------------------------------------


_ESCAPE = json.encoder.encode_basestring_ascii
_SCALAR = {  # the text of a scalar, by its exact type: a bool is no int
    str: _ESCAPE,
    int: int.__repr__,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


class _StructuredWriter:
    """What main hands json.dumps as cls. The document has one format:
    the settings json.dumps passes are dropped, and encode writes what
    json.dumps(o, indent=2, sort_keys=True) does."""

    def __init__(self, **settings):
        pass

    def encode(self, o):
        parts = []
        _write(o, parts, "\n")
        return "".join(parts)


def _write(o, parts, outer):
    """Append the text of o, whose lines after the first start with
    `outer`. o holds dicts with str keys, lists, str, int, bool and
    None; anything else raises TypeError. A list of one scalar type is
    one str.join, and a scalar item is written with its key or comma."""
    t = type(o)
    inner = outer + "  "
    sep = "," + inner
    if t is dict:
        keys, ends = sorted(o), "{}"
    elif t is list:
        kinds = set(map(type, o))
        text = _SCALAR.get(kinds.pop()) if len(kinds) == 1 else None
        if text is not None:
            parts.append("[" + inner + sep.join(map(text, o)) + outer + "]")
            return
        keys, ends = range(len(o)), "[]"
    elif t in _SCALAR:
        parts.append(_SCALAR[t](o))
        return
    else:
        raise TypeError("a structured document holds no %s" % t.__name__)
    lead = ends[0] + inner
    for key in keys:
        if t is dict:
            lead += _ESCAPE(key) + ": "  # a TypeError for a key not a str
        value = o[key]
        text = _SCALAR.get(type(value))
        if text is None:
            parts.append(lead)
            _write(value, parts, inner)
        else:
            parts.append(lead + text(value))
        lead = sep
    parts.append(outer + ends[1] if o else ends)


# -- driver -------------------------------------------------------------------


# name: (help text, result builder of (graph, args), text renderer). main
# writes the last newline of the text, as of the structured document.
_COMMANDS = {
    "analyze": ("graph invariants, classification, discriminant group",
                _analyze, _render_analyze),
    "splice": ("splice diagram, edge determinants, ZHS test",
               _splice, _render_splice),
    "conditions": ("semigroup and congruence conditions with witnesses",
                   _conditions, _render_conditions),
    "equations": ("splice equations and the group action table",
                  _equations, _render_equations),
    "invariants": ("invariant generators, relations, membership checks",
                   _invariants, _render_invariants),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sforge",
        description="resolution-graph calculator for surface singularity "
        "links: invariants, splice diagrams, splice equations and "
        "discriminant-group invariant theory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="graph file")
        p.add_argument(
            "--format",
            choices=["text", "structured"],
            default="text",
            help="output rendering (structured = stable JSON)",
        )
        if name == "invariants":
            p.add_argument(
                "--degree-bound",
                type=int,
                default=2,
                metavar="N",
                help="degree bound for relations and membership cofactors",
            )
            p.add_argument(
                "--verify-identity",
                metavar="POLYFILE",
                default=None,
                help="polynomial (in the leaf variables) to test for "
                "membership in the splice-equation ideal",
            )
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    _, build, render = _COMMANDS[args.command]
    try:
        raw, text = _read(args.file)
        digest = hashlib.sha256(raw).hexdigest()
        data = build(_parse(args.file, text), args)
        if args.format == "structured":
            doc = _envelope(args.command, args.file, digest, data)
            # a json.dumps call: perfbench's tracer times it as cli.render
            body = json.dumps(
                doc, indent=2, sort_keys=True, cls=_StructuredWriter
            )
        else:
            body = render(data)
    except ParseError as exc:  # the graph file, options, polynomial files
        print("sforge: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:  # the caps' CapExceededError too
        print("sforge: %s" % exc, file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError:  # int refuses to print so long an integer, in a
        # builder (_frac, the text of a Polynomial or diagram) or the writer;
        # sforge's other ValueErrors guard misuse the CLI cannot commit, or
        # parse_graph (to ParseError) and check_equivariance catch them
        print("sforge: the answer has an integer of more than %d digits, "
              "too long to print" % sys.get_int_max_str_digits(),
              file=sys.stderr)
        return EXIT_PRECONDITION
    except AssertionError as exc:  # named by a memoized stage's note
        stage = (getattr(exc, "__notes__", None) or ["in " + args.command])[0]
        print("sforge: internal check failed %s: %s (input sha256 %s)"
              % (stage, exc, digest), file=sys.stderr)
        return EXIT_INTERNAL
    try:
        # io's buffered writer reports a pipe closed mid-write only on the
        # next write, so the last newline is written apart, as print did.
        sys.stdout.writelines((body, "\n"))
        sys.stdout.flush()
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_CLOSED_STDOUT
    return EXIT_OK


def _discard_stdout():
    """Point stdout's file descriptor, if it has one, at os.devnull, so
    that the flush at interpreter shutdown finds no closed pipe and
    prints nothing (as in the Python docs' note on SIGPIPE)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # an in-memory stream: nothing is flushed to a pipe
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
