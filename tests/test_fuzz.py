"""Grammar fuzzing of polynomial files: `invariants --verify-identity`
on any target text exits 0, 2 or 3 and never raises, and the term-map
parser agrees with the arithmetic one on every text."""

from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
