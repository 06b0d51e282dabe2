"""CLI contract: exit codes, stable structured output, report content."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import count
from math import comb
from pathlib import Path
from random import Random

import pytest

from sforge import cli
from sforge.cli import main
from sforge.corpus import random_negative_definite_tree
from sforge.graph import serialize_graph
from sforge.invariants import FACTOR_CAP, PRODUCT_CAP, RELATION_CAP

from test_golden import _cases as _golden_cases


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "structured")
    assert code == 0, err
    return json.loads(out)


def graph_path(graphs_dir, name):
    return str(graphs_dir / (name + ".graph"))


# -- analyze ---------------------------------------------------------------


def test_analyze_e7(capsys, graphs_dir):
    doc = run_json(capsys, "analyze", graph_path(graphs_dir, "e7"))
    res = doc["result"]
    assert res["classification"]["kind"] == "rational"
    assert res["classification"]["multiplicity"] == 2
    assert res["discriminant"]["order"] == 2
    assert res["discriminant"]["invariant_factors"] == [2]
    assert doc["tool"] == "sforge"
    assert len(doc["input_sha256"]) == 64


def test_analyze_e8_trivial_group(capsys, graphs_dir):
    doc = run_json(capsys, "analyze", graph_path(graphs_dir, "e8"))
    assert doc["result"]["discriminant"]["order"] == 1
    assert doc["result"]["discriminant"]["invariant_factors"] == []


def test_analyze_genus3_reports_without_discriminant(capsys, graphs_dir):
    doc = run_json(capsys, "analyze", graph_path(graphs_dir, "genus3"))
    res = doc["result"]
    assert res["discriminant"] is None
    assert "QHS" in res["discriminant_note"]
    assert res["classification"]["kind"] == "other"
    assert res["canonical_cycle"] == {"e": "-5/1"}


def test_analyze_malformed_file_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("vertex a weight=-2\nedge a z\n")
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "line 2" in err and "'z'" in err


def test_analyze_missing_file_exit_2(capsys):
    """Also a path with a NUL byte, which open refuses with a ValueError
    (only an in-process call can pass one)."""
    code, out, err = run(capsys, "analyze", "/nonexistent/x.graph")
    assert code == 2
    code, out, err = run(capsys, "analyze", "x\0.graph")
    assert (code, out) == (2, "")
    assert err.startswith("sforge: cannot read x\0.graph: ")


def test_analyze_graph_file_not_utf8_exit_2(capsys, tmp_path):
    """Also with the bad byte past the first 8 KB: the file is decoded
    whole, not only its first buffer."""
    bad = tmp_path / "bad.graph"
    for padding in (b"", b"# padding\n" * 1000):
        bad.write_bytes(padding + b"vertex a weight=-2\n\xff\n")
        code, out, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert err.startswith("sforge: cannot read %s: " % bad)
        assert "utf-8" in err and out == ""


ENDINGS = {"lf": b"\n", "crlf": b"\r\n", "cr": b"\r"}


@pytest.mark.parametrize(
    "command", ["analyze", "splice", "conditions", "equations", "invariants"]
)
def test_line_endings_give_the_same_output(capsys, graphs_dir, tmp_path,
                                           command):
    """two-node.graph, and for invariants a --verify-identity polynomial
    broken over lines, written with LF, CRLF and lone-CR line endings:
    the same exit code, stderr and stdout for each. Structured documents
    differ only in the input's path and digest."""
    graph = (graphs_dir / "two-node.graph").read_bytes()
    target = b"z1^2*z2\n - 3*z3^2\n + z4\n"
    results = []
    for name, ending in ENDINGS.items():
        path = tmp_path / ("two-node-%s.graph" % name)
        path.write_bytes(graph.replace(b"\n", ending))
        options = []
        if command == "invariants":
            poly = tmp_path / ("target-%s.poly" % name)
            poly.write_bytes(target.replace(b"\n", ending))
            options = ["--verify-identity=%s" % poly]
        text = run(capsys, command, str(path), *options)
        code, out, err = run(capsys, command, str(path), *options,
                             "--format", "structured")
        doc = json.loads(out)
        del doc["input"], doc["input_sha256"]
        results.append((text, (code, doc, err)))
    assert results[0][0][0] == 0
    assert results[1] == results[0] and results[2] == results[0]


CUSP_CYCLE = ("vertex a weight=-3\nvertex b weight=-3\nvertex c weight=-3\n"
              "edge a b\nedge b c\nedge c a\n")


def test_analyze_cusp_cycle(capsys, tmp_path):
    """The (-3, -3, -3) cusp cycle, minimally elliptic (Laufer, Amer. J.
    Math. 99, 1977): no graph file has a cycle, so this pins what
    analyze reports through the dense path."""
    path = tmp_path / "cusp.graph"
    path.write_text(CUSP_CYCLE)
    res = run_json(capsys, "analyze", str(path))["result"]
    assert res["negative_definite"] is True
    assert res["abs_det"] == 16
    assert res["fundamental_cycle"] == {"a": 1, "b": 1, "c": 1}
    assert res["canonical_cycle"] == {"a": "-1/1", "b": "-1/1", "c": "-1/1"}
    assert res["numerically_gorenstein"] is True
    assert res["classification"] == {
        "kind": "minimally_elliptic", "zsq": -3, "multiplicity": 3,
        "embedding_dimension": 3, "numerically_gorenstein": True}
    assert res["discriminant"] is None
    assert res["discriminant_note"] == (
        "discriminant data needs a QHS tree (genus-0 tree)")
    assert res["blown_down"] is None


def test_analyze_tests_definiteness_of_a_cycle_once(capsys, tmp_path,
                                                    monkeypatch):
    """The report, the fundamental cycle and the canonical cycle all
    read the graph's one verdict: the dense test runs once."""
    import sforge.graph

    real = sforge.graph.is_negative_definite
    calls = []

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(sforge.graph, "is_negative_definite", counting)
    path = tmp_path / "cusp.graph"
    path.write_text(CUSP_CYCLE)
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, err) == (0, "")
    assert "minimally_elliptic" in out
    assert len(calls) == 1


def test_analyze_on_a_cycle_computes_the_determinant_once(
    capsys, tmp_path, monkeypatch
):
    """The canonical cycle of the cusp cycle is solved by solve_sparse,
    not by a solver that finds the determinant again: the graph's one
    memoized determinant is the only Bareiss determinant of the call."""
    import sforge.graph
    import sforge.intmat

    real = sforge.intmat.determinant
    calls = []

    def counting(m):
        calls.append(m)
        return real(m)

    for module in (sforge.graph, sforge.intmat):
        monkeypatch.setattr(module, "determinant", counting)
    path = tmp_path / "cusp.graph"
    path.write_text(CUSP_CYCLE)
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, err) == (0, "")
    assert "|det| = 16" in out
    assert len(calls) == 1


def test_analyze_indefinite_exit_3(capsys, graphs_dir):
    """The refusal is the fundamental cycle's, in the words analyze
    always used: one stderr line, exit 3 and nothing on stdout."""
    for fmt in ("text", "structured"):
        code, out, err = run(
            capsys, "analyze", graph_path(graphs_dir, "indefinite-star"),
            "--format", fmt,
        )
        assert (code, out) == (3, "")
        assert err == "sforge: intersection matrix is not negative definite\n"


@pytest.mark.parametrize("command, graph, fmt", [
    pytest.param(command, graph, fmt, id="-".join(
        (graph, command, fmt) if graph != "det" else (fmt,)
    ))
    for command, graph in (
        ("analyze", "det"), ("analyze", "star"), ("splice", "star"),
        ("conditions", "star"), ("equations", "star"), ("invariants", "e7"),
    )
    for fmt in ("text", "structured")
])
def test_result_integer_too_long_to_print_exits_3(
    capsys, tmp_path, graphs_dir, command, graph, fmt
):
    """An answer with an integer of more than int's digit limit fails
    like any other precondition, with no output and one line that says
    so in the user's terms, not the interpreter's, wherever int refuses
    it: |det| = 10^6000 - 1 of two (-10^3000)-vertices while rendering;
    a star with three arms of three (-10^1500)-vertices while building
    analyze's canonical cycle, the splice diagram's text and the leaf
    characters of conditions and equations; and the certificate of
    7...7*7...7*x (two 3,000-digit factors) in the E7 ideal while
    building its text."""
    path = tmp_path / (graph + ".graph")
    extra = ()
    if graph == "det":
        w = -(10**3000)
        path.write_text(
            "vertex a weight=%d\nvertex b weight=%d\nedge a b\n" % (w, w)
        )
    elif graph == "star":
        lines = ["vertex c weight=-3"]
        for i in range(3):
            prev = "c"
            for j in range(3):
                v = "a%d_%d" % (i, j)
                lines += ["vertex %s weight=%d" % (v, -(10**1500)),
                          "edge %s %s" % (prev, v)]
                prev = v
        path.write_text("\n".join(lines) + "\n")
    else:
        path = graph_path(graphs_dir, "e7")
        target = tmp_path / "target.poly"
        target.write_text("%s*%s*x\n" % ("7" * 3000, "7" * 3000))
        extra = ("--verify-identity=%s" % target,)
    code, out, err = run(capsys, command, str(path), *extra, "--format", fmt)
    assert code == 3
    assert out == ""
    assert err == (
        "sforge: the answer has an integer of more than %d digits, too "
        "long to print\n" % sys.get_int_max_str_digits()
    )


def _fail(*args):
    raise AssertionError("emitted equations are not equivariant")


@pytest.mark.parametrize("command, fmt, stage, message", [
    ("equations", "text", "equations", "emitted equations are not equivariant"),
    ("equations", "structured", "equations",
     "emitted equations are not equivariant"),
    ("splice", "text", "to_splice_diagram", "splice weight 0 < 1 at node 'c'"),
    ("splice", "structured", "to_splice_diagram",
     "splice weight 0 < 1 at node 'c'"),
    ("conditions", "text", "conditions",
     "emitted equations are not equivariant"),
], ids=["equations-text", "equations-structured", "splice-text",
        "splice-structured", "conditions-render"])
def test_failed_self_check_exits_4(capsys, graphs_dir, monkeypatch, command,
                                   fmt, stage, message):
    """A failed self-check (an AssertionError) while building or
    rendering exits 4 with nothing on stdout and one stderr line naming
    the innermost memoized stage it ran in, else the command, and the
    input's sha256. Here _verify_package fails outside every memoized
    stage; zero branch determinants fail the splice weight check inside
    to_splice_diagram; and the text renderer of conditions fails."""
    import hashlib

    if command == "equations":
        monkeypatch.setattr("sforge.equations._verify_package", _fail)
    elif command == "splice":
        monkeypatch.setattr("sforge.graph.TreeForm.branch_determinant",
                            lambda *args: 0)
    else:
        help_text, build, _ = cli._COMMANDS[command]
        monkeypatch.setitem(cli._COMMANDS, command, (help_text, build, _fail))
    path = graph_path(graphs_dir, "e7")
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    code, out, err = run(capsys, command, path, "--format", fmt)
    assert (code, out) == (4, "")
    assert err == ("sforge: internal check failed in %s: %s (input sha256 "
                   "%s)\n" % (stage, message, digest))


def test_memoized_notes_the_innermost_stage_of_a_failed_check():
    """A failed check that passes through nested memoized stages is
    noted once, by the stage it was raised in; other errors get no
    note, and nothing is kept."""
    from sforge.graph import memoized

    class Box:
        def __init__(self, error):
            self._memo = {}
            self.error = error

    @memoized
    def inner(box):
        raise box.error

    @memoized
    def outer(box):
        return inner(box)

    box = Box(AssertionError("inner check"))
    with pytest.raises(AssertionError) as info:
        outer(box)
    assert info.value.__notes__ == ["in inner"]
    box = Box(ValueError("not a check"))
    with pytest.raises(ValueError) as info:
        outer(box)
    assert not hasattr(info.value, "__notes__") and box._memo == {}


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze",),
        ("splice",),
        ("conditions",),
        ("equations",),
        ("invariants", "--verify-identity"),
    ],
    ids=lambda argv: argv[0],
)
def test_each_call_reads_the_graph_file_once(
    capsys, graphs_dir, monkeypatch, tmp_path, argv
):
    """The envelope's input_sha256 is the digest of the bytes parsed,
    from the one open of the graph file."""
    import builtins
    import hashlib

    path = graph_path(graphs_dir, "e7")
    command, *options = argv
    if options:
        target = tmp_path / "target.poly"
        target.write_text("x^2*z^2 + y^3*z^2 + z^6\n")
        options[-1] += "=%s" % target
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    code, out, err = run(
        capsys, command, path, *options, "--format", "structured"
    )
    monkeypatch.undo()
    assert code == 0, err
    assert opened.count(path) == 1
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert json.loads(out)["input_sha256"] == digest


# -- splice ----------------------------------------------------------------


def test_splice_two_node(capsys, graphs_dir):
    doc = run_json(capsys, "splice", graph_path(graphs_dir, "two-node"))
    res = doc["result"]
    assert res["weights"]["n1"] == {
        "toward z1": 2,
        "toward z2": 3,
        "toward m": 7,
    }
    assert res["weights"]["n2"] == {
        "toward z4": 2,
        "toward g": 5,
        "toward m": 11,
    }
    assert res["edge_determinants"] == [{"a": "n1", "b": "n2", "value": 17}]
    assert res["zhs"] is True


def test_splice_e7_one_node(capsys, graphs_dir):
    doc = run_json(capsys, "splice", graph_path(graphs_dir, "e7"))
    res = doc["result"]
    assert sorted(res["weights"]["c"].values()) == [2, 3, 4]
    assert res["zhs"] is False


def test_splice_chain_no_nodes_exit_0(capsys, graphs_dir):
    code, out, err = run(
        capsys, "splice", graph_path(graphs_dir, "chain-2-3")
    )
    assert code == 0
    assert "no nodes: cyclic quotient case" in out


def test_splice_non_minimal_zhs_exit_0(capsys, graphs_dir):
    # random-07 has (-1)-vertices; the ZHS cross-checks run on its
    # minimal good resolution, where they hold
    doc = run_json(capsys, "splice", graph_path(graphs_dir, "random-07"))
    assert doc["result"]["zhs"] is True


# -- conditions --------------------------------------------------------------


def test_conditions_two_node_witnesses(capsys, graphs_dir):
    doc = run_json(capsys, "conditions", graph_path(graphs_dir, "two-node"))
    res = doc["result"]
    assert res["semigroup"]["holds"] is True
    w = res["semigroup"]["witnesses"]
    assert w["n1"]["toward z1"] == [{"z1": 2}]
    assert w["n1"]["toward z2"] == [{"z2": 3}]
    assert w["n1"]["toward m"] == [{"z3": 1, "z4": 1}]
    assert w["n2"]["toward m"] == [{"z1": 1, "z2": 4}, {"z1": 3, "z2": 1}]
    assert res["congruence"]["holds"] is True


def test_conditions_quotient_cusp_both_true(capsys, graphs_dir):
    doc = run_json(
        capsys, "conditions", graph_path(graphs_dir, "quotient-cusp-2-3")
    )
    res = doc["result"]
    assert res["semigroup"]["holds"] is True
    assert res["congruence"]["holds"] is True


def test_conditions_failing_graph_exit_0_names_direction(capsys, tmp_path):
    from sforge import serialize_graph
    from test_splice import engineered_failing_graph

    p = tmp_path / "failing.graph"
    p.write_text(serialize_graph(engineered_failing_graph()))
    code, out, err = run(capsys, "conditions", str(p))
    assert code == 0
    assert "semigroup condition: False" in out
    assert "FAILS at node n2 toward k" in out


def _tree_with_a_late_congruence_witness():
    """The last of 216 seeded trees, 16 vertices: at v4 toward v1 the
    first witness with the residue of [e_v*] is at index 23,235 of
    28,741, past the 10,000 witnesses `conditions` prints."""
    r = Random(3)
    for i in range(216):
        g = random_negative_definite_tree(r, max_vertices=[12, 20, 30][i % 3])
    return g


def test_congruence_reads_past_the_witness_cap(capsys, tmp_path):
    from sforge import congruence_condition

    g = _tree_with_a_late_congruence_witness()
    assert len(g.vertices) == 16
    assert congruence_condition(g).holds
    p = tmp_path / "late-witness.graph"
    p.write_text(serialize_graph(g))
    code, out, err = run(capsys, "equations", str(p))
    assert code == 0, err
    res = run_json(capsys, "conditions", str(p))["result"]
    assert ["v4", "toward v1"] in res["semigroup"]["truncated"]
    assert res["congruence"]["holds"] is True


def test_conditions_chain_no_nodes(capsys, graphs_dir):
    doc = run_json(capsys, "conditions", graph_path(graphs_dir, "a3"))
    assert doc["result"]["no_nodes"] is True
    assert doc["result"]["semigroup"] is None


# -- equations ----------------------------------------------------------------


def test_equations_e7_text(capsys, graphs_dir):
    code, out, err = run(capsys, "equations", graph_path(graphs_dir, "e7"))
    assert code == 0
    assert "x^2 + y^3 + z^4 = 0" in out
    assert "x:1/2" in out and "y:0/1" in out and "z:1/2" in out


def test_equations_two_node_structured(capsys, graphs_dir):
    doc = run_json(capsys, "equations", graph_path(graphs_dir, "two-node"))
    res = doc["result"]
    assert res["equations"] == [
        "z1^2 + z2^3 + z3*z4",
        "z1*z2^4 + z3^5 + z4^2",
    ]
    assert res["nodes"][0]["weight"] == 42
    assert res["nodes"][0]["variable_weights"] == {
        "z1": 21,
        "z2": 14,
        "z3": 12,
        "z4": 30,
    }


def test_equations_chain_exit_3(capsys, graphs_dir):
    code, out, err = run(
        capsys, "equations", graph_path(graphs_dir, "chain-2-3")
    )
    assert code == 3
    assert "no nodes" in err


def test_equations_failing_conditions_exit_3(capsys, tmp_path):
    from sforge import serialize_graph
    from test_splice import engineered_failing_graph

    p = tmp_path / "failing.graph"
    p.write_text(serialize_graph(engineered_failing_graph()))
    code, out, err = run(capsys, "equations", str(p))
    assert code == 3
    assert "n2" in err


# -- invariants ------------------------------------------------------------------


def test_invariants_e7_full_pipeline(capsys, graphs_dir, tmp_path):
    target = tmp_path / "target.poly"
    target.write_text("x^2*z^2 + y^3*z^2 + z^6\n")
    doc = run_json(
        capsys,
        "invariants",
        graph_path(graphs_dir, "e7"),
        "--degree-bound",
        "2",
        "--verify-identity",
        str(target),
    )
    res = doc["result"]
    gens = {g["name"]: g["monomial"] for g in res["generators"]}
    assert gens == {"A": "z^2", "B": "y", "C": "x*z", "D": "x^2"}
    assert res["relations"] == ["A*D - C^2"]
    assert res["certificate"]["found"] is True
    assert res["certificate"]["cofactors"] == ["z^2"]
    assert res["certificate"]["ideal"] == ["x^2 + y^3 + z^4"]


def test_invariants_fractional_exponent_in_target_exit_2(
    capsys, graphs_dir, tmp_path
):
    target = tmp_path / "target.poly"
    target.write_text("x^2/3 + z^6\n")
    code, out, err = run(
        capsys,
        "invariants",
        graph_path(graphs_dir, "e7"),
        "--verify-identity",
        str(target),
    )
    assert code == 2
    assert "2/3" in err and "Traceback" not in err


def test_invariants_juxtaposed_factors_in_target_exit_2(
    capsys, graphs_dir, tmp_path
):
    target = tmp_path / "target.poly"
    target.write_text("x y + z^6\n")
    code, out, err = run(
        capsys,
        "invariants",
        graph_path(graphs_dir, "e7"),
        "--verify-identity",
        str(target),
    )
    assert code == 2 and out == ""
    assert "'y'" in err and "Traceback" not in err


@pytest.mark.parametrize("template", ["x^%s", "%s*y", "1/%s*z"])
def test_invariants_target_integer_too_long_exit_2(
    capsys, graphs_dir, tmp_path, template
):
    """A 5,000-digit exponent, coefficient or denominator is malformed
    input, named as parse_graph names it, not a precondition."""
    target = tmp_path / "target.poly"
    target.write_text(template % ("1" * 5000))
    code, out, err = run(
        capsys, "invariants", graph_path(graphs_dir, "e7"),
        "--verify-identity=%s" % target,
    )
    assert (code, out) == (2, "")
    assert err == (
        "sforge: integer has 5000 digits, more than the limit of %d\n"
        % sys.get_int_max_str_digits()
    )


def test_invariants_missing_target_file_exit_2(capsys, graphs_dir, tmp_path):
    missing = tmp_path / "missing.poly"
    code, out, err = run(
        capsys, "invariants", graph_path(graphs_dir, "e7"),
        "--verify-identity=%s" % missing,
    )
    assert code == 2
    assert err.startswith("sforge: cannot read %s: " % missing)
    assert out == ""


def test_invariants_target_file_not_utf8_exit_2(
    capsys, graphs_dir, tmp_path
):
    target = tmp_path / "target.poly"
    target.write_bytes(b"x^2*z^2 + \xff\n")
    code, out, err = run(
        capsys, "invariants", graph_path(graphs_dir, "e7"),
        "--verify-identity=%s" % target,
    )
    assert code == 2
    assert err.startswith("sforge: cannot read %s: " % target)
    assert "utf-8" in err and out == ""


def test_invariants_trivial_group_variables_only(capsys, graphs_dir):
    doc = run_json(capsys, "invariants", graph_path(graphs_dir, "e8"))
    res = doc["result"]
    assert {g["monomial"] for g in res["generators"]} == {"x", "y", "z"}
    assert res["relations"] == []


def test_invariants_non_qhs_exit_3(capsys, graphs_dir):
    code, out, err = run(
        capsys, "invariants", graph_path(graphs_dir, "genus3")
    )
    assert code == 3
    assert "QHS" in err


def test_invariants_order_cap_before_characters(
    capsys, tmp_path, monkeypatch, builds
):
    """The cap reads |det| from the tree pass: a group above it is
    refused before the group (its Smith normal form and generators) or
    the characters are built."""
    def no_characters(*args):
        raise AssertionError("leaf characters built above the cap")

    monkeypatch.setattr("sforge.cli.leaf_characters", no_characters)
    big = tmp_path / "big.graph"
    big.write_text("vertex a weight=-2001\n")
    code, out, err = run(capsys, "invariants", str(big))
    assert (code, out) == (3, "")
    assert err == "sforge: group order 2001 above the desk-scale cap 2000\n"
    assert "discriminant_group" not in builds


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("w", [-2001, -(10**3000)], ids=["short", "huge"])
def test_invariants_order_cap_refusal_names_the_cap(capsys, tmp_path, fmt, w):
    """|G| = w^2 - 1 is refused by the order cap, whose message names
    the cap and prints the order, or its length when the order has more
    digits than int() turns into text."""
    path = tmp_path / "two.graph"
    path.write_text("vertex a weight=%d\nvertex b weight=%d\nedge a b\n"
                    % (w, w))
    code, out, err = run(capsys, "invariants", str(path), "--format", fmt)
    assert (code, out) == (3, "")
    if w == -2001:
        shown = "4004000"
    else:
        shown = "with more than %d digits" % sys.get_int_max_str_digits()
    assert err == (
        "sforge: group order %s above the desk-scale cap 2000\n" % shown
    )


def test_invariants_product_cap_exit_3(capsys, tmp_path):
    """Seed 81 has 4,780 generators, so 11,431,370 products of degree <=
    2: refused before they are built."""
    path = tmp_path / "random-81.graph"
    path.write_text(serialize_graph(random_negative_definite_tree(Random(81))))
    code, out, err = run(capsys, "invariants", str(path))
    assert code == 3 and out == ""
    assert "product cap %d" % PRODUCT_CAP in err
    assert "Traceback" not in err


def test_invariants_product_cap_stops_the_generator_search(capsys, tmp_path):
    """Seed 74 has 29,568 generators. The search stops as soon as the
    generators found so far have more products of degree <= 2 than the
    cap allows, so the refusal names that count and comes in seconds."""
    path = tmp_path / "random-74.graph"
    path.write_text(serialize_graph(random_negative_definite_tree(Random(74))))
    start = time.perf_counter()
    code, out, err = run(capsys, "invariants", str(path))
    took = time.perf_counter() - start
    assert code == 3 and out == ""
    k = next(k for k in count(1) if comb(k + 2, 2) - 1 > PRODUCT_CAP)
    assert "of %d invariant generators" % k in err
    assert "product cap %d" % PRODUCT_CAP in err
    assert "Traceback" not in err
    assert took < 10, took


def test_invariants_factor_cap_refuses_a1_at_degree_200000(
    capsys, graphs_dir
):
    """a1 has one generator: 200,000 products up to degree 200,000, at
    the product cap, but 20,000,100,000 factors in them. Refused before
    any product is built, whose index tuples grow as D(D + 1)/2."""
    start = time.perf_counter()
    code, out, err = run(capsys, "invariants", graph_path(graphs_dir, "a1"),
                         "--degree-bound=200000")
    took = time.perf_counter() - start
    assert (code, out) == (3, "")
    assert err == (
        "sforge: 20000100000 factors in the products of 1 invariant "
        "generators up to degree 200000 above the desk-scale factor cap "
        "%d\n" % FACTOR_CAP
    )
    assert took < 1, took


SIX_LEAF_STAR = "vertex c weight=-51\n" + "".join(
    "vertex a%d weight=-1\nedge c a%d\n" % (i, i) for i in range(1, 7)
)


def test_invariants_least_degree_preflight_refuses_the_star(capsys, tmp_path):
    """A star with centre -51 and six (-1) leaves: |G| = 45, and every
    leaf has one character of order 45, so every invariant monomial has
    degree 45. The search walks PRODUCT_CAP monomials with no generator
    found, then counts the 2,118,760 invariants of degree 45, all
    generators, and refuses at once; it used to walk every monomial of
    degree below 45 (27-44 s) before the in-search cap stopped it."""
    path = tmp_path / "star.graph"
    path.write_text(SIX_LEAF_STAR)
    for fmt in ("text", "structured"):
        start = time.perf_counter()
        code, out, err = run(capsys, "invariants", str(path), "--format", fmt)
        took = time.perf_counter() - start
        assert (code, out) == (3, "")
        assert err == (
            "sforge: at least 2244575146940 products of 2118760 invariant "
            "generators (those of the least degree 45) up to degree 2 above "
            "the desk-scale product cap %d\n" % PRODUCT_CAP
        )
        assert took < 1, took


@pytest.mark.parametrize("seed, code, digest", [
    (17, 0, "16676e83d6c607da"),
    (40, 0, "2fdae797f77db269"),
    (99, 0, "92a02c1ded603d25"),
    (74, 3, None),
    (95, 3, None),
])
def test_invariants_least_degree_count_is_not_reached_on_seeded_trees(
    capsys, tmp_path, monkeypatch, seed, code, digest
):
    """The least-degree count runs only after PRODUCT_CAP monomials
    walked with no generator found, which none of these trees reaches:
    seeds 17, 40 and 99 print what they printed before the count
    existed (sha256 prefix of the text output), and seeds 74 and 95
    still stop at the in-search cap."""
    def no_count(chars):
        raise AssertionError("least-degree count reached")

    monkeypatch.setattr("sforge.invariants._least_degree_count", no_count)
    path = tmp_path / "random.graph"
    path.write_text(serialize_graph(random_negative_definite_tree(Random(seed))))
    got, out, err = run(capsys, "invariants", str(path))
    assert got == code, err
    if digest is None:
        assert out == ""
        assert err == (
            "sforge: 200027 products of 631 invariant generators up to "
            "degree 2 above the desk-scale product cap %d\n" % PRODUCT_CAP
        )
    else:
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_invariants_relation_cap_exit_3(capsys, tmp_path, monkeypatch):
    """A 5-vertex tree with |G| = 56 has 573 generators and 165,024
    products of degree <= 2, under the product cap, but 9,224,016
    relations: refused by the relation cap, counted before any relation
    text is built."""
    def no_text(*args):
        raise AssertionError("relation text built above the cap")

    monkeypatch.setattr("sforge.invariants._product_text", no_text)
    path = tmp_path / "relations.graph"
    path.write_text(
        "vertex v0 weight=-2\nvertex v1 weight=-1\nvertex v2 weight=-59\n"
        "vertex v3 weight=-2\nvertex v4 weight=-2\n"
        "edge v0 v1\nedge v0 v2\nedge v0 v3\nedge v3 v4\n"
    )
    for fmt in ("text", "structured"):
        start = time.perf_counter()
        code, out, err = run(capsys, "invariants", str(path), "--format", fmt)
        took = time.perf_counter() - start
        assert (code, out) == (3, "")
        assert err == (
            "sforge: 9224016 relations of 573 invariant generators up to "
            "degree 2 above the desk-scale relation cap %d\n" % RELATION_CAP
        )
        assert took < 5, took


def test_invariants_bound_1_no_relations(capsys, graphs_dir):
    doc = run_json(
        capsys,
        "invariants",
        graph_path(graphs_dir, "e7"),
        "--degree-bound",
        "1",
    )
    assert doc["result"]["relations"] == []


# -- stability ---------------------------------------------------------------------


def test_structured_output_byte_stable(capsys, graphs_dir):
    outs = []
    for _ in range(2):
        code, out, err = run(
            capsys,
            "analyze",
            graph_path(graphs_dir, "e7"),
            "--format",
            "structured",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "name",
    ["a1", "a5", "d4", "e6", "e7", "e8", "two-node", "quotient-cusp-2-3",
     "star-237", "random-03"],
)
def test_every_command_runs_on_corpus_members(capsys, graphs_dir, name):
    path = str(graphs_dir / (name + ".graph"))
    for cmd in ("analyze", "splice", "conditions"):
        code, out, err = run(capsys, cmd, path)
        assert code == 0, (cmd, name, err)


def test_seeded_random_trees_exit_cleanly(capsys, tmp_path):
    """100 seeded random trees x five commands: every call returns 0, 2
    or 3 within 5 s; an exception escaping main fails the test. The
    slowest are invariants on seeds 40 and 99, with 700,912 and 991,668
    relations (about 1 s each); seeds 74 and 95 meet the product cap."""
    path = tmp_path / "t.graph"
    for seed in range(100):
        g = random_negative_definite_tree(Random(seed))
        path.write_text(serialize_graph(g))
        for cmd in ("analyze", "splice", "conditions", "equations",
                    "invariants"):
            start = time.perf_counter()
            code, out, err = run(capsys, cmd, str(path))
            took = time.perf_counter() - start
            assert code in (0, 2, 3), (seed, cmd, code, err)
            assert took < 5, (seed, cmd, took)


def test_calls_in_one_process_match_separate_processes(
    capsys, graphs_dir, tmp_path
):
    """Options given to one main() call must not leak into the next."""
    target = tmp_path / "target.poly"
    target.write_text("x^2*z^2 + y^3*z^2 + z^6\n")
    e7_path = graph_path(graphs_dir, "e7")
    calls = [
        ("analyze", e7_path, "--format=structured"),
        ("invariants", e7_path, "--degree-bound=3",
         "--verify-identity=%s" % target, "--format=structured"),
        ("invariants", e7_path, "--format=structured"),
        ("invariants", e7_path, "--degree-bound=1"),
        ("invariants", e7_path),
        ("splice", graph_path(graphs_dir, "two-node")),
        ("invariants", e7_path, "--degree-bound=0"),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for argv in calls:
        code, out, err = run(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "sforge.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        assert (code, out, err) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        ), argv


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("equations", "quotient-cusp-2-3"), id="equations"),
        pytest.param(("invariants", "quotient-cusp-2-3"), id="invariants"),
        # the README call: the identity check reuses the characters
        pytest.param(
            ("invariants", "e7", "--degree-bound=2", "--verify-identity"),
            id="invariants-verify-identity",
        ),
    ],
)
def test_discriminant_group_built_once_per_call(
    capsys, graphs_dir, builds, tmp_path, argv
):
    from sforge.discgroup import discriminant_group

    command, name, *options = argv
    if options and options[-1] == "--verify-identity":
        target = tmp_path / "target.poly"
        target.write_text("x^2*z^2 + y^3*z^2 + z^6\n")
        options[-1] += "=%s" % target
    doc = run_json(capsys, command, graph_path(graphs_dir, name), *options)
    assert len(builds["discriminant_group"]) == 1
    assert len(builds["leaf_characters"]) == 1
    dg = discriminant_group(builds["discriminant_group"][0])
    assert dg.order > 1
    assert doc["result"]["group"] == {
        "order": dg.order,
        "invariant_factors": list(dg.invariant_factors),
    }


def test_analyze_builds_the_intersection_matrix_once(
    capsys, graphs_dir, monkeypatch
):
    """The matrix is kept by the graph: the report, and the Smith normal
    form of a non-cyclic discriminant group, read the same IntMatrix,
    built once per analyze call."""
    import sforge.graph

    real = sforge.graph.IntMatrix
    built = []

    class Counting(real):  # counts the matrices graph builds, either way
        def __init__(self, rows):
            built.append(len(rows))
            super().__init__(rows)

        @classmethod
        def _from_sparse_rows(cls, rows, ncols):
            built.append(len(rows))
            return real._from_sparse_rows(rows, ncols)

    monkeypatch.setattr(sforge.graph, "IntMatrix", Counting)
    groups = 0
    for path in sorted(graphs_dir.glob("*.graph")):
        built.clear()
        code, out, err = run(capsys, "analyze", str(path), "--format",
                             "structured")
        if code == 0:
            doc = json.loads(out)["result"]
            assert built == [len(doc["matrix"])], path.name
            groups += doc["discriminant"] is not None
        else:
            assert built == [7], path.name  # indefinite-star, exit 3
    assert groups >= 20, groups


@pytest.mark.parametrize(
    "graph, snf_count", [("e7", 0), ("chain-2-3", 0), ("d4", 1)]
)
def test_analyze_builds_the_group_only_when_not_cyclic(
    capsys, graphs_dir, builds, monkeypatch, graph, snf_count
):
    """analyze reads a cyclic group's structure off the leaf dual
    classes, with no Smith normal form; Z/2 x Z/2 (d4) reads the
    diagonal of one certified Smith normal form. Neither builds
    discriminant_group's generators."""
    import sforge.discgroup

    real = sforge.discgroup.smith_normal_form
    snfs = []

    def recording(m, **kwargs):
        snfs.append(m)
        return real(m, **kwargs)

    monkeypatch.setattr(sforge.discgroup, "smith_normal_form", recording)
    doc = run_json(capsys, "analyze", graph_path(graphs_dir, graph))
    assert len(builds["invariant_factors"]) == 1
    assert "discriminant_group" not in builds
    assert len(snfs) == snf_count
    factors = doc["result"]["discriminant"]["invariant_factors"]
    assert len(factors) == 1 + snf_count


def test_analyze_on_non_cyclic_groups_builds_no_discriminant_group(
    capsys, graphs_dir, tmp_path, builds
):
    """d4 and seeded random trees with a non-cyclic group: analyze
    prints the invariant factors of discriminant_group without building
    it."""
    from sforge.discgroup import discriminant_group
    from sforge.graph import parse_graph

    def factors(path):
        doc = run_json(capsys, "analyze", str(path))
        return doc["result"]["discriminant"]["invariant_factors"]

    d4 = graph_path(graphs_dir, "d4")
    seen = [(d4, factors(d4))]
    rng = Random(11)
    while len(seen) < 6:
        path = tmp_path / ("tree-%d.graph" % len(seen))
        path.write_text(
            serialize_graph(random_negative_definite_tree(rng, max_vertices=12))
        )
        printed = factors(path)
        if len(printed) >= 2:
            seen.append((path, printed))
    assert "discriminant_group" not in builds
    for path, printed in seen:
        g = parse_graph(Path(path).read_text())
        assert printed == list(discriminant_group(g).invariant_factors)
        assert len(printed) >= 2


def test_conditions_builds_diagram_and_witness_once(
    capsys, graphs_dir, builds
):
    """conditions and the congruence search read one diagram and one
    witness per graph."""
    for graph in ("two-node", "quotient-cusp-2-3", "e7"):
        doc = run_json(capsys, "conditions", graph_path(graphs_dir, graph))
        assert doc["result"]["congruence"]["holds"]
    assert len(builds["to_splice_diagram"]) == 3
    assert len(builds["semigroup_condition"]) == 3


@pytest.mark.parametrize("graph, changed", [("e7", False), ("random-00", True)])
def test_analyze_computes_cycles_once_per_graph(
    capsys, graphs_dir, builds, graph, changed
):
    """analyze classifies from the Z and K it reports, and reuses the
    classification when the blow-down changes nothing."""
    doc = run_json(capsys, "analyze", graph_path(graphs_dir, graph))
    assert doc["result"]["blown_down"]["changed"] is changed
    for name in ("fundamental_cycle", "canonical_cycle", "classify"):
        seen = [serialize_graph(g) for g in builds[name]]
        assert len(seen) == 1 + changed
        assert len(set(seen)) == len(seen)


# -- structured renderer ------------------------------------------------------


class _CaptureJson:
    """Stands in for the json module inside sforge.cli and keeps every
    document the CLI renders, with the keyword arguments it passed."""

    def __init__(self):
        self.calls = []

    def dumps(self, doc, **kwargs):
        self.calls.append((doc, kwargs))
        return json.dumps(doc, **kwargs)

    def __getattr__(self, name):
        return getattr(json, name)


@pytest.fixture(scope="module")
def golden_documents(tmp_path_factory):
    """(document, json.dumps keyword arguments) of every golden call, the
    document as the CLI builders made it, not read back through
    json.loads."""
    capture = _CaptureJson()
    workdir = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "json", capture)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            for key, argv in _golden_cases(workdir):
                main(argv + ["--format=structured"])
    assert len(capture.calls) >= 100
    return capture.calls


WRITER_TYPES = {dict, list, str, int, bool, type(None)}


def _other_types(doc):
    """The types in doc that the structured writer does not take: any
    but its six, by exact type, and dict keys that are not str."""
    other, stack = set(), [doc]
    while stack:
        x = stack.pop()
        if type(x) is dict:
            other.update(type(k) for k in x if type(k) is not str)
            stack.extend(x.values())
        elif type(x) is list:
            stack.extend(x)
        elif type(x) not in WRITER_TYPES:
            other.add(type(x))
    return other


def test_structured_renderer_matches_json_on_golden_documents(
    golden_documents,
):
    """Every golden document renders through the writer to the bytes
    the standard library writes."""
    for doc, kwargs in golden_documents:
        assert kwargs == {
            "indent": 2, "sort_keys": True, "cls": cli._StructuredWriter
        }
        assert json.dumps(doc, **kwargs) == json.dumps(
            doc, indent=2, sort_keys=True
        )


def test_golden_documents_hold_only_the_writers_types(golden_documents):
    """A builder that emits a tuple, a float or a non-str key fails here
    rather than in a user's run."""
    for doc, _ in golden_documents:
        assert not _other_types(doc), doc["command"]


def test_structured_renderer_matches_json_on_generated_documents():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(), st.text(max_size=12)
    )
    documents = st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=5),
            st.dictionaries(st.text(max_size=6), inner, max_size=5),
        ),
        max_leaves=30,
    )
    # lists of one scalar type take the writer's str.join path
    documents |= st.one_of(
        st.lists(st.integers()), st.lists(st.text()), st.lists(st.booleans())
    )

    @settings(max_examples=400, deadline=None, database=None,
              derandomize=True)
    @given(documents)
    def run(doc):
        assert json.dumps(
            doc, indent=2, sort_keys=True, cls=cli._StructuredWriter
        ) == json.dumps(doc, indent=2, sort_keys=True)

    run()


class _Str(str):
    pass


class _Int(int):
    pass


def test_structured_renderer_refuses_other_types():
    """Any type but the six raises TypeError: alone, in a list, as a
    dict value, and (a str subclass apart, written as the str it is) as
    a dict key."""
    for value in [(1, 2), 1.5, float("nan"), {1}, b"x", Fraction(1, 2),
                  object(), _Str("a"), _Int(3)]:
        docs = [value, [value], [1, value], {"a": value},
                {"a": [{"b": value}]}]
        if not isinstance(value, (str, set)):
            docs += [{value: 2}, {"a": 1, value: 2}]
        for doc in docs:
            with pytest.raises(TypeError):
                json.dumps(
                    doc, indent=2, sort_keys=True, cls=cli._StructuredWriter
                )


EDGE_DOCUMENTS = [
    {},
    [],
    "",
    0,
    None,
    True,
    {"a": {}, "b": [], "c": [[], {}], "d": {"e": {"f": []}}},
    [[]],
    [{}],
    {"s": "café ☃ \U0001f600 \x00\x1f\x7f\"\\/\n\t"},
    ["é", "\x01", "a\"b", ""],
    {"é\x02": 1, "b\n": "x"},
    [True, False, None],
    {"t": True, "f": False, "n": None},
    [1, True],
    [0, -1, 10 ** 60, -(2 ** 200)],
    {"big": 10 ** 100, "neg": -7},
    ["a", 1],
    [1, "a"],
    [["a", "b"], [1, 2], [[True]]],
    {"b": 1, "a": 2, "aa": 3, "B": 4, "": 5},
    # these hold other types
    (1, 2),
    {"t": (1, "a"), "l": [(), ()]},
    {1: "a", 2: "b"},
    {"x": {3: 4}},
    [1.5, float("inf"), -0.0],
    {"f": 2.0},
    [1, 2.5],
]


@pytest.mark.parametrize("doc", EDGE_DOCUMENTS)
@pytest.mark.parametrize(
    "settings",
    [
        {"indent": 2, "sort_keys": True},
        {"indent": 0, "sort_keys": False},
        {"indent": "\t", "sort_keys": True},
        {"indent": None, "sort_keys": True},
        {"indent": 2, "sort_keys": True, "ensure_ascii": False},
    ],
)
def test_structured_renderer_edge_cases(doc, settings):
    """The writer has one format, whatever settings json.dumps passes
    on: a document of its six types comes out as json.dumps(doc,
    indent=2, sort_keys=True) writes it, and any other raises
    TypeError."""
    if _other_types(doc):
        with pytest.raises(TypeError):
            json.dumps(doc, cls=cli._StructuredWriter, **settings)
    else:
        assert json.dumps(doc, cls=cli._StructuredWriter, **settings) == (
            json.dumps(doc, indent=2, sort_keys=True)
        )


def test_structured_renderer_deep_nesting():
    doc = leaf = []
    for _ in range(100):
        leaf.append({"a": []})
        leaf = leaf[0]["a"]
    assert json.dumps(
        doc, indent=2, sort_keys=True, cls=cli._StructuredWriter
    ) == json.dumps(doc, indent=2, sort_keys=True)


# -- closed stdout ------------------------------------------------------------


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_closed_stdout_exits_1_without_a_traceback(
    capsys, graphs_dir, monkeypatch, fmt
):
    """A stdout closed early (sforge ... | head -n 1) ends the call with
    exit status 1 and nothing on stderr. The stream has no file
    descriptor, as in perfbench, so none is redirected."""
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["analyze", graph_path(graphs_dir, "e7"), "--format", fmt])
    monkeypatch.undo()
    assert code == 1
    assert capsys.readouterr().err == ""


def _read_first_line_and_close(argv):
    """Run sforge with argv in a subprocess, read one line of its stdout,
    close the pipe, and return (first line, stderr bytes, exit status)."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sforge.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return first, err, proc.wait(timeout=60)


def test_closed_stdout_in_a_pipe_prints_nothing_on_stderr(tmp_path):
    """The analyze document of an 80-vertex (-2)-chain is far larger
    than a pipe holds, so the writer sees the reader close."""
    from sforge.corpus import chain

    path = tmp_path / "chain-80.graph"
    path.write_text(serialize_graph(chain([-2] * 80)))
    first, err, code = _read_first_line_and_close(
        ["analyze", str(path), "--format=structured"]
    )
    assert code == 1
    assert first == b"{\n" and err == b""


def test_closed_stdout_in_a_pipe_exits_1_for_text_output(tmp_path):
    """The text rendering of invariants on the seed-17 random tree is
    megabytes long. Written in one piece, the pipe's close went
    unreported and the call exited 0 with its output cut; the last
    newline, written apart, sees it."""
    path = tmp_path / "random-17.graph"
    tree = random_negative_definite_tree(Random(17), max_vertices=12)
    path.write_text(serialize_graph(tree))
    first, err, code = _read_first_line_and_close(
        ["invariants", str(path), "--format=text"]
    )
    assert code == 1
    assert first.startswith(b"discriminant group: ") and err == b""
