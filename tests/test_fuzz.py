"""Grammar fuzzing of polynomial files: `invariants --verify-identity`
on any target text exits 0, 2 or 3 and never raises, and the term-map
parser agrees with the arithmetic one on every text. The invariants
options together, targets with integers of thousands of digits and
degree bounds up to 10^6, end likewise within a per-call alarm. Graph
files are fuzzed likewise: every command on any graph file exits 0, 2
or 3, never raises, and ends within a per-call alarm."""

import signal
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from sforge import ParseError, parse_polynomial  # noqa: E402
from sforge.cli import main  # noqa: E402

from oracles import parse_polynomial_by_arithmetic  # noqa: E402

# The polynomial token grammar: numbers, fractions (zero denominators
# included), the leaf names of e7, names that are not variables, the
# operators and parentheses, and whitespace.
TOKENS = st.one_of(
    st.integers(min_value=0, max_value=10 ** 6).map(str),
    st.tuples(
        st.integers(min_value=0, max_value=999),
        st.integers(min_value=0, max_value=99),
    ).map(lambda pq: "%d/%d" % pq),
    st.sampled_from(["x", "y", "z"]),
    st.sampled_from(["w", "c", "a1_0", "X", "_", "x1"]),
    st.sampled_from(list("+-*^()")),
    st.sampled_from([" ", "  ", "\t", "\n"]),
)
GRAMMAR_TEXTS = st.lists(TOKENS, max_size=25).map("".join)
ANY_TEXTS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60
)


def test_fuzz_verify_identity_targets(graphs_dir, tmp_path):
    graph = str(graphs_dir / "e7.graph")
    target = tmp_path / "target.poly"

    @settings(max_examples=200, deadline=None, database=None,
              derandomize=True)
    @given(st.one_of(GRAMMAR_TEXTS, ANY_TEXTS))
    def run(text):
        target.write_text(text, encoding="utf-8")
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            code = main([
                "invariants", graph, "--degree-bound=2",
                "--verify-identity=%s" % target, "--format=structured",
            ])
        assert code in (0, 2, 3), (text, code)

    run()


class _Slow(Exception):
    pass


def _alarm(signum, frame):
    raise _Slow


def _timed_main(argv, err):
    """main(argv) under a CALL_SECONDS alarm, stdout dropped and stderr
    written to err: its exit code, or a text saying it ran over."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
    try:
        with redirect_stdout(StringIO()), redirect_stderr(err):
            return main(argv)
    except _Slow:
        return "over %d s" % CALL_SECONDS
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Options of invariants: target texts over the leaf names of a1, e7 and
# quotient-cusp-3 and some that are no variable, with digit runs up to
# 6,000 long (int converts at most 4,300), and degree bounds to 10^6.
OPTION_TOKENS = st.one_of(
    st.tuples(st.integers(min_value=1, max_value=6000),
              st.sampled_from("0179")).map(lambda nd: nd[1] * nd[0]),
    st.integers(min_value=0, max_value=10 ** 6).map(str),
    st.sampled_from(["v0", "x", "y", "z", "a", "b", "c", "d", "w", "n1"]),
    st.sampled_from(list("+-*^/() ")),
)
OPTION_GRAPHS = {"a1": ("v0",), "e7": ("x", "y", "z"),
                 "quotient-cusp-3": ("a", "b", "c", "d")}  # leaf variables
CALL_SECONDS = 5


def test_fuzz_invariants_options(graphs_dir, tmp_path):
    """Each call exits 0, 2 or 3, prints no traceback and ends within
    CALL_SECONDS, and the parser refuses a target only by ParseError.
    The examples are a 5,000-digit exponent (it escaped the parser as
    int's ValueError, exit 3) and a1 at degree 200,000 (its one
    generator's products grew until the process was killed)."""
    target = tmp_path / "target.poly"

    @settings(max_examples=150, deadline=None, database=None,
              derandomize=True)
    @given(st.sampled_from(sorted(OPTION_GRAPHS)),
           st.lists(OPTION_TOKENS, max_size=12).map("".join),
           st.integers(min_value=1, max_value=10 ** 6))
    @example("e7", "x^" + "1" * 5000, 2)
    @example("a1", "v0", 200_000)
    def run(name, text, bound):
        target.write_text(text, encoding="utf-8")
        err = StringIO()
        code = _timed_main([
            "invariants", str(graphs_dir / (name + ".graph")),
            "--degree-bound=%d" % bound, "--verify-identity=%s" % target,
            "--format=structured",
        ], err)
        assert code in (0, 2, 3), (name, text[:80], bound, code)
        assert "Traceback" not in err.getvalue()
        try:
            parse_polynomial(text, OPTION_GRAPHS[name])
        except ParseError:
            pass

    run()


def _outcome(parse, text):
    try:
        return parse(text, ("x", "y", "z"))
    except ParseError as exc:
        return "ParseError: %s" % exc


def test_fuzz_parser_agrees_with_the_arithmetic_parser():
    """The same Polynomial, or a ParseError with the same text."""

    @settings(max_examples=500, deadline=None, database=None,
              derandomize=True)
    @given(st.one_of(GRAMMAR_TEXTS, ANY_TEXTS))
    def run(text):
        assert _outcome(parse_polynomial, text) == _outcome(
            parse_polynomial_by_arithmetic, text
        ), text

    run()


# -- graph files ------------------------------------------------------------------

COMMANDS = ("analyze", "splice", "conditions", "equations", "invariants")


@st.composite
def tree_texts(draw):
    """A tree of 1-8 vertices with weights -1..-60, now and then a
    genus, and 0-2 extra edges (which may close a cycle, repeat an edge
    or be a self-loop)."""
    n = draw(st.integers(min_value=1, max_value=8))
    lines = []
    for i in range(n):
        line = "vertex v%d weight=%d" % (
            i, draw(st.integers(min_value=-60, max_value=-1)))
        genus = draw(st.sampled_from([0] * 6 + [1, 2]))
        if genus:
            line += " genus=%d" % genus
        lines.append(line)
    ends = st.integers(min_value=0, max_value=n - 1)
    edges = [(draw(st.integers(min_value=0, max_value=i - 1)), i)
             for i in range(1, n)]
    edges += draw(st.lists(st.tuples(ends, ends), max_size=2))
    lines += ["edge v%d v%d" % e for e in edges]
    return "\n".join(lines) + "\n"


IDS = st.sampled_from(["a", "b", "c", "v0", "a#b"])
INTEGERS = st.one_of(
    st.integers(min_value=-70, max_value=3).map(str),
    st.sampled_from(["", "-", "abc", "1e5", "-2.0", "0x10", "-1_0", "--3"]),
    st.sampled_from(["-" + "9" * 5000, "9" * 4301, "-1_" + "0" * 4300,
                     "-" + "1" * 40]),
)
FIELDS = st.one_of(
    INTEGERS.map("weight=".__add__),
    INTEGERS.map("genus=".__add__),
    st.sampled_from(["weight", "colour=red", "=", "genus=1=2"]),
)
LINES = st.one_of(
    st.tuples(IDS, st.lists(FIELDS, min_size=1, max_size=3)).map(
        lambda x: " ".join(("vertex", x[0], *x[1]))),
    st.lists(IDS, max_size=4).map(lambda ids: " ".join(["edge", *ids])),
    st.sampled_from(["vertex", "node a", "Vertex a weight=-2", "# note",
                     "", "   ", "\t", "edge"]),
)


@st.composite
def line_soups(draw):
    """Malformed graph files: a well-formed tree with 1-3 of its lines
    replaced by, or joined by, known and unknown directives with
    missing, duplicate, unknown or junk fields and huge integers; joined
    by LF or CRLF, and now and then with a byte that is not UTF-8."""
    lines = draw(tree_texts()).splitlines()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(lines)))
        lines[at:at + draw(st.integers(min_value=0, max_value=1))] = [
            draw(LINES)
        ]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    data = newline.join(lines).encode()
    if draw(st.sampled_from([False] * 7 + [True])):
        at = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def test_fuzz_graph_files(tmp_path):
    """Every command, structured, on well-formed trees and on malformed
    line soups: each call returns 0, 2 or 3, and within CALL_SECONDS."""
    path = tmp_path / "fuzz.graph"

    @settings(max_examples=1000, deadline=None, database=None,
              derandomize=True)
    @given(st.one_of(tree_texts().map(str.encode), line_soups()))
    def run(data):
        path.write_bytes(data)
        for command in COMMANDS:
            code = _timed_main([command, str(path), "--format=structured"],
                               StringIO())
            assert code in (0, 2, 3), (data, command, code)

    run()
