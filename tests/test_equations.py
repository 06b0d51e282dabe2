"""Splice equation emission, congruence condition, genericity."""

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from sforge import (
    ConditionsNotMetError,
    IntMatrix,
    NoNodesError,
    SemigroupConditionError,
    build_splice_equations,
    check_equivariance,
    congruence_condition,
    determinant,
    discriminant_group,
    generic_coefficients,
    leaf_characters,
    parse_polynomial,
    semigroup_condition,
    to_splice_diagram,
)
from sforge.equations import _verify_package
from sforge.poly import Polynomial
from sforge.corpus import (
    a_n,
    builtin_corpus,
    chain,
    e7,
    e8,
    quotient_cusp,
    random_negative_definite_tree,
    star,
    two_node_example,
)
from sforge.errors import NotQhsTreeError

from oracles import (
    congruence_by_fractions,
    exponent_key,
    monomial_character_by_fractions,
)
from test_poly import assert_term_invariant
from test_splice import engineered_failing_graph


def admissible(d, v, first_step):
    """The admissible monomials at v toward the gamma vertex first_step:
    that direction's semigroup witnesses."""
    (e,) = [e for e in d.incident_edges(v) if e.first_step(v) == first_step]
    return semigroup_condition(d).solutions[(v, e.index)]


def brieskorn_exponents(g):
    """The splice weights of a one-node diagram, in leaf order."""
    d = to_splice_diagram(g)
    (v,) = d.nodes
    weight = {e.other(v): d.weight(v, e) for e in d.incident_edges(v)}
    return tuple(weight[w] for w in d.leaves)


# -- admissible monomials -------------------------------------------------------


def test_admissible_monomials_paper_left_node():
    d = to_splice_diagram(two_node_example())
    assert admissible(d, "n1", "z1") == [{"z1": 2}]
    assert admissible(d, "n2", "m") == [{"z1": 1, "z2": 4}, {"z1": 3, "z2": 1}]


def test_admissible_monomials_character_filter():
    """On E7 the one admissible monomial toward x, x^2, has the trivial
    character; none has the character of phase 1/2."""
    g = e7()
    d = to_splice_diagram(g)
    chars = leaf_characters(g)
    monomials = admissible(d, d.nodes[0], "x")

    def of_character(character):
        target = chars.residues(character)
        return [a for a in monomials if chars.monomial_residue(a) == target]

    assert of_character((Fraction(0),)) == [{"x": 2}]
    assert of_character((Fraction(1, 2),)) == []


# -- congruence condition ---------------------------------------------------------


def test_congruence_e7_trivial_character():
    res = congruence_condition(e7())
    assert res.holds
    (chi,) = res.node_characters.values()
    assert chi == (Fraction(0),)


def test_congruence_trivial_group_zhs():
    res = congruence_condition(two_node_example())
    assert res.holds
    assert all(chi == () for chi in res.node_characters.values())


def test_congruence_quotient_cusp():
    res = congruence_condition(quotient_cusp(2, [2, 3]))
    assert res.holds
    assert set(res.node_monomials) == {"n1", "n2"}


def test_congruence_requires_semigroup():
    with pytest.raises(SemigroupConditionError):
        congruence_condition(engineered_failing_graph())


def test_congruence_refuses_no_node_graphs():
    with pytest.raises(NoNodesError):
        congruence_condition(a_n(3))


# -- generic coefficients ----------------------------------------------------------


def test_generic_coefficients_small():
    assert generic_coefficients(3) == IntMatrix([[1, 1, 1]])
    assert generic_coefficients(4) == IntMatrix(
        [[1, 1, 1, 1], [1, 2, 3, 4]]
    )


@pytest.mark.parametrize("delta", [3, 4, 5, 6])
def test_generic_coefficients_minors_nonzero(delta):
    m = generic_coefficients(delta)
    rows = delta - 2
    for cols in combinations(range(delta), rows):
        minor = IntMatrix([[m[i, j] for j in cols] for i in range(rows)])
        assert determinant(minor) != 0


def test_generic_coefficients_rejects_small_valency():
    with pytest.raises(ValueError):
        generic_coefficients(2)


def _draw(rng, index, **kwargs):
    """Draw number index (from 0) of random_negative_definite_tree."""
    for _ in range(index):
        random_negative_definite_tree(rng, **kwargs)
    return random_negative_definite_tree(rng, **kwargs)


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(quotient_cusp(6, [3] * 6), id="quotient-cusp-6"),
        pytest.param(two_node_example(), id="two-node"),
        # nodes of valencies 3, 3 and 4
        pytest.param(_draw(Random(0), 19, max_vertices=10), id="random-0-19"),
    ],
)
def test_generic_coefficients_built_once_per_valency(monkeypatch, g):
    """Nodes of one valency share one generic matrix: each build
    re-verifies every maximal minor."""
    import sforge.equations

    built = []

    def counting(delta):
        built.append(delta)
        return generic_coefficients(delta)

    monkeypatch.setattr(sforge.equations, "generic_coefficients", counting)
    pkg = build_splice_equations(g)
    diagram = to_splice_diagram(g)
    valencies = [len(diagram.incident_edges(v)) for v in diagram.nodes]
    assert len(valencies) > len(set(valencies))
    assert sorted(built) == sorted(set(valencies))
    for ns, delta in zip(pkg.nodes, valencies):
        assert ns.coefficients == generic_coefficients(delta)


# -- equation emission --------------------------------------------------------------


def test_paper_system_supports_and_unit_coefficients():
    pkg = build_splice_equations(two_node_example())
    assert pkg.variables == ("z1", "z2", "z3", "z4")
    assert [str(e) for e in pkg.equations] == [
        "z1^2 + z2^3 + z3*z4",
        "z1*z2^4 + z3^5 + z4^2",
    ]
    # both nodes have valency 3: generic rows are all ones, so setting
    # coefficients to 1 reproduces the paper system verbatim
    for ns in pkg.nodes:
        assert ns.coefficients == IntMatrix([[1, 1, 1]])


def test_e7_single_equation():
    pkg = build_splice_equations(e7())
    assert [str(e) for e in pkg.equations] == ["x^2 + y^3 + z^4"]
    ns = pkg.nodes[0]
    assert ns.weight == 24
    assert ns.variable_weights == {"x": 12, "y": 8, "z": 6}
    assert ns.character == (Fraction(0),)


def test_e8_single_equation():
    pkg = build_splice_equations(e8())
    assert [str(e) for e in pkg.equations] == ["x^2 + y^3 + z^5"]


def test_refusals():
    with pytest.raises(NoNodesError):
        build_splice_equations(chain([-2, -3]))
    with pytest.raises(ConditionsNotMetError) as err:
        build_splice_equations(engineered_failing_graph())
    assert type(err.value) is ConditionsNotMetError
    assert "n2" in str(err.value)
    assert "toward k" in str(err.value)


def late_witness_tree():
    """Draw 215 of Random(3), as CI draws it: 16 vertices, and the
    congruence witness at v4 lies past the witness cap."""
    rng = Random(3)
    for i in range(216):
        g = random_negative_definite_tree(
            rng, max_vertices=[12, 20, 30][i % 3])
    return g


@pytest.mark.parametrize("make", [lambda: quotient_cusp(3, [3] * 3),
                                  lambda: quotient_cusp(4, [3] * 4),
                                  late_witness_tree],
                         ids=["cusp-3", "cusp-4", "late-witness"])
def test_one_witness_search_per_direction(monkeypatch, make):
    """The conditions path (semigroup_condition, then
    congruence_condition) and build_splice_equations each start exactly
    one witness search per direction: the congruence reads on from the
    searches the semigroup check started, past the kept prefix too."""
    import sforge.splice

    real = sforge.splice._search
    started = []

    def counting(plan, idx, remaining, acc):
        if idx == 0:  # a search starts; deeper calls are its recursion
            started.append(tuple(step[0] for step in plan))
        return real(plan, idx, remaining, acc)

    monkeypatch.setattr(sforge.splice, "_search", counting)
    for run in ("conditions", "equations"):
        g = make()
        d = to_splice_diagram(g)
        if run == "conditions":
            assert semigroup_condition(d).holds
            assert congruence_condition(g).holds
        else:
            build_splice_equations(g)
        assert started == [d.leaves_beyond(v, e) for v in d.nodes
                           for e in d.incident_edges(v)], run
        started.clear()


def test_equation_count_is_t_minus_2():
    for g in (two_node_example(), e7(), quotient_cusp(3, [2, 3, 2])):
        pkg = build_splice_equations(g)
        assert len(pkg.equations) == len(pkg.variables) - 2


# -- BCI exponents -------------------------------------------------------------------


def test_bci_exponents_examples():
    assert brieskorn_exponents(e7()) == (2, 3, 4)
    assert brieskorn_exponents(e8()) == (2, 3, 5)
    g = star(-1, [[-2], [-3], [-7]], leaf_ids=["x", "y", "z"])
    assert brieskorn_exponents(g) == (2, 3, 7)


def test_one_node_support_is_pure_powers():
    rng = Random(77)
    checked = 0
    while checked < 10:
        g = random_negative_definite_tree(rng)
        try:
            d = to_splice_diagram(g)
        except NotQhsTreeError:
            continue
        if len(d.nodes) != 1:
            continue
        try:
            pkg = build_splice_equations(g)
        except ConditionsNotMetError:
            continue
        exps = brieskorn_exponents(g)
        supports = set()
        for eq in pkg.equations:
            for m in eq.support_maps():
                supports.add(tuple(sorted(m.items())))
        assert supports == {
            ((w, p),) for w, p in zip(pkg.variables, exps)
        }
        checked += 1


# -- equivariance ---------------------------------------------------------------------


def test_built_packages_are_equivariant_by_independent_check():
    for g in (e7(), e8(), two_node_example(), quotient_cusp(2, [2, 3])):
        pkg = build_splice_equations(g)
        assert check_equivariance(pkg)


def test_each_equation_is_weighed_once(monkeypatch):
    """Building the two equations of the two-node example computes
    each one's weighted degree once, in check_equivariance."""
    calls = []
    weighted_degree = Polynomial.weighted_degree

    def counted(self, weights):
        calls.append(self)
        return weighted_degree(self, weights)

    monkeypatch.setattr(Polynomial, "weighted_degree", counted)
    pkg = build_splice_equations(two_node_example())
    assert len(pkg.equations) == 2
    assert calls == list(pkg.equations)


def test_tampered_e7_equation_fails():
    pkg = build_splice_equations(e7())
    bad = parse_polynomial("x^2 + y^2 + z^4", pkg.variables)
    node = pkg.nodes[0]._replace(equations=(bad,))
    tampered = pkg._replace(nodes=(node,), equations=(bad,))
    assert not check_equivariance(tampered)


@pytest.mark.parametrize("shift", ["one monomial", "every monomial"])
def test_verify_package_catches_a_monomial_of_the_wrong_weight(shift):
    """Raising an exponent of one monomial, or of every monomial, takes
    the equation off the node weight; either is an AssertionError."""
    pkg = build_splice_equations(e7())
    node = pkg.nodes[0]
    (eq,) = node.equations
    monomials = eq.monomials()
    moved = monomials[:1] if shift == "one monomial" else monomials
    bad = Polynomial(pkg.variables, {
        (exps[0] + 1,) + exps[1:] if exps in moved else exps: c
        for exps, c in eq.terms.items()
    })
    tampered = pkg._replace(
        nodes=(node._replace(equations=(bad,)),), equations=(bad,)
    )
    with pytest.raises(AssertionError, match="node weight"):
        _verify_package(tampered)


def test_node_equations_match_sums_of_scaled_monomials():
    """On 200 seeded random trees with splice equations, each node
    equation equals the sum, built by Polynomial arithmetic, of its
    coefficients times its monomials, with int coefficients."""
    rng = Random(31)
    checked = 0
    while checked < 200:
        g = random_negative_definite_tree(rng, max_vertices=12)
        try:
            pkg = build_splice_equations(g)
        except (NotQhsTreeError, NoNodesError, ConditionsNotMetError):
            continue
        for ns in pkg.nodes:
            expected = []
            for i in range(len(ns.directions) - 2):
                eq = Polynomial.zero(pkg.variables)
                for pos, a in enumerate(ns.monomials):
                    exps = tuple(a.get(v, 0) for v in pkg.variables)
                    eq = eq + Polynomial(
                        pkg.variables, {exps: ns.coefficients[i, pos]}
                    )
                expected.append(eq)
            assert ns.equations == tuple(expected)
            for eq in ns.equations:
                assert_term_invariant(eq)
                assert all(type(c) is int for c in eq.terms.values())
        assert pkg.equations == tuple(
            eq for ns in pkg.nodes for eq in ns.equations
        )
        checked += 1


def test_hand_built_equivariant_equation_passes():
    pkg = build_splice_equations(e7())
    ok = parse_polynomial("x^2 - z^4", pkg.variables)
    node = pkg.nodes[0]._replace(equations=(ok,))
    assert check_equivariance(pkg._replace(nodes=(node,), equations=(ok,)))


def test_equivariance_and_homogeneity_across_corpus(corpus):
    for name, g in corpus.items():
        try:
            pkg = build_splice_equations(g)
        except (NotQhsTreeError, NoNodesError, ConditionsNotMetError):
            continue
        assert check_equivariance(pkg), name
        for ns in pkg.nodes:
            for eq in ns.equations:
                assert eq.weighted_degree(ns.variable_weights) == ns.weight
            chars = {
                pkg.characters.monomial_character(m)
                for eq in ns.equations
                for m in eq.support_maps()
            }
            assert chars == {ns.character}, name


def test_zhs_semigroup_implies_congruence_on_corpus(corpus):
    from sforge import is_zhs

    seen = 0
    for name, g in corpus.items():
        try:
            d = to_splice_diagram(g)
        except NotQhsTreeError:
            continue
        if not d.has_nodes or not is_zhs(g):
            continue
        if not semigroup_condition(d).holds:
            continue
        assert congruence_condition(g).holds, name
        seen += 1
    assert seen >= 1


def _congruence_cases(corpus):
    """QHS trees with nodes that pass the semigroup condition: the
    corpus, then 60 seeded random trees."""
    rng = Random(29)
    graphs = list(corpus.items())
    graphs += [("random%d" % i, random_negative_definite_tree(rng))
               for i in range(60)]
    for name, g in graphs:
        if not g.is_qhs_tree():
            continue
        d = to_splice_diagram(g)
        if not d.has_nodes:
            continue
        witness = semigroup_condition(d)
        if witness.holds:
            yield name, g, d, witness


def test_congruence_matches_fraction_oracle(corpus):
    seen = corpus_seen = 0
    for name, g, d, witness in _congruence_cases(corpus):
        res = congruence_condition(g)
        characters, monomials, failures = congruence_by_fractions(
            d, witness, leaf_characters(g)
        )
        assert res.node_characters == characters, name
        assert all(
            type(x) is Fraction
            for chi in res.node_characters.values() for x in chi
        )
        assert res.node_monomials == monomials, name
        assert res.failures == failures, name
        assert res.holds == (not failures), name
        seen += 1
        corpus_seen += name in corpus
    assert corpus_seen >= 9 and seen >= 40, (corpus_seen, seen)


def test_common_character_is_the_dual_class(corpus):
    """At every node v, the characters shared by admissible monomials of
    all directions are exactly {[e_v*]} when any are shared, and [e_v*]
    is missing from some direction when none are; congruence_condition
    agrees with the Fraction oracle. On 1,000 seeded trees, the corpus
    and the quotient cusps k = 3..8."""
    graphs = [("seed%d" % seed,
               random_negative_definite_tree(Random(seed), max_vertices=12))
              for seed in range(1000)]
    graphs += list(corpus.items())
    graphs += [("qc%d" % k, quotient_cusp(k, [3] * k)) for k in range(3, 9)]
    shared = unshared = 0
    for name, g in graphs:
        if not g.is_qhs_tree() or not g.is_negative_definite():
            continue
        d = to_splice_diagram(g)
        if not d.has_nodes:
            continue
        witness = semigroup_condition(d)
        if not witness.holds:
            continue
        group = discriminant_group(g)
        chars = leaf_characters(g)
        for v in d.nodes:
            p = g.index_of(v)
            dual = tuple(gen[p] % 1 for gen in group.generators)
            per_edge = [
                {monomial_character_by_fractions(chars, a)
                 for a in witness.solutions[(v, e.index)]}
                for e in d.incident_edges(v)
            ]
            common = set.intersection(*per_edge)
            if common:
                assert common == {dual}, (name, v)
                shared += 1
            else:
                assert any(dual not in chis for chis in per_edge), (name, v)
                unshared += 1
        res = congruence_condition(g)
        characters, monomials, failures = congruence_by_fractions(
            d, witness, chars
        )
        assert res.node_characters == characters, name
        assert res.node_monomials == monomials, name
        assert res.failures == failures, name
    assert shared >= 1000 and unshared >= 10, (shared, unshared)


@pytest.mark.parametrize("cap", [None, 1, 2, 5])
def test_witnesses_come_in_lexicographic_order(
    fresh_corpus, monkeypatch, cap
):
    """Every witness list is strictly increasing in exponent_key order,
    also when cut at a small WITNESS_CAP. The cap trims only those
    lists: the congruence reads the uncut streams, so it agrees with
    the Fraction oracle fed the complete lists, which are built on
    other fresh graphs under the default cap before the cap is patched.
    The graphs are built anew, so that no witness memoized under
    another cap is reused."""
    oracle = {}
    for name, g, d, witness in _congruence_cases(builtin_corpus()):
        assert not witness.truncated, name
        oracle[name] = congruence_by_fractions(d, witness, leaf_characters(g))
    corpus = fresh_corpus
    if cap is not None:
        monkeypatch.setattr("sforge.splice.WITNESS_CAP", cap)
    rng = Random(31)
    graphs = list(corpus.items())
    graphs += [("random%d" % i, random_negative_definite_tree(rng))
               for i in range(60)]
    lists = truncated = 0
    for name, g in graphs:
        if not g.is_qhs_tree():
            continue
        d = to_splice_diagram(g)
        if not d.has_nodes:
            continue
        witness = semigroup_condition(d)
        for sols in witness.solutions.values():
            keys = [exponent_key(d, a) for a in sols]
            assert keys == sorted(set(keys)), name
            lists += 1
        truncated += len(witness.truncated)
    assert lists >= 200, lists
    assert bool(truncated) == (cap is not None), truncated
    seen = 0
    for name, g, d, witness in _congruence_cases(corpus):
        res = congruence_condition(g)
        characters, monomials, failures = oracle[name]
        assert res.node_characters == characters, name
        assert res.node_monomials == monomials, name
        assert res.failures == failures, name
        seen += 1
    assert seen >= 40 and seen == len(oracle), seen
