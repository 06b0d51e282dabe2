import sys
from collections import defaultdict
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for oracles.py

from sforge.corpus import builtin_corpus
from sforge.discgroup import (
    discriminant_group,
    invariant_factors,
    leaf_characters,
)
from sforge.graph import (
    ResolutionGraph,
    TreeForm,
    canonical_cycle,
    classify,
    fundamental_cycle,
    intersection_matrix,
)
from sforge.splice import (
    SpliceDiagram,
    is_zhs,
    semigroup_condition,
    to_splice_diagram,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
GRAPHS_DIR = REPO_ROOT / "graphs"

# Every stage kept in a _memo, by the name it is kept under.
MEMOIZED = {
    f.__name__: f
    for f in (
        ResolutionGraph.tree_form,
        ResolutionGraph.determinant,
        ResolutionGraph.is_negative_definite,
        TreeForm._branches_up,
        intersection_matrix,
        fundamental_cycle,
        canonical_cycle,
        classify,
        to_splice_diagram,
        SpliceDiagram._walks,
        semigroup_condition,
        is_zhs,
        discriminant_group,
        invariant_factors,
        leaf_characters,
    )
}


@pytest.fixture(scope="session")
def corpus():
    return builtin_corpus()


@pytest.fixture
def fresh_corpus():
    """The corpus built anew, for a test that changes what a memoized
    stage computes (a patched cap or kernel): the session corpus would
    hand it results memoized by earlier tests."""
    return builtin_corpus()


@pytest.fixture
def builds():
    """builds[name] lists the argument of every run of the body of the
    memoized stage `name` that returned a result while the test runs. A
    memo hit runs no body and adds nothing; a body that raises is not a
    build. A profile hook watches the bodies' code objects, so nothing
    is patched."""
    codes = {f.__wrapped__.__code__: name for name, f in MEMOIZED.items()}
    seen = defaultdict(list)

    def hook(frame, event, arg):
        # a stage never returns None, and a raising frame returns None
        if event == "return" and arg is not None:
            name = codes.get(frame.f_code)
            if name is not None:
                first = frame.f_code.co_varnames[0]
                seen[name].append(frame.f_locals[first])

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield seen
    finally:
        sys.setprofile(previous)


@pytest.fixture(scope="session")
def graphs_dir():
    assert GRAPHS_DIR.is_dir(), "run sforge.corpus.write_corpus('graphs')"
    return GRAPHS_DIR
