"""Discriminant group, dual basis, leaf characters."""

from fractions import Fraction
from math import lcm, prod
from random import Random

import pytest

from sforge import (
    CharacterAssignment,
    IntMatrix,
    NotQhsTreeError,
    determinant,
    discriminant_group,
    dual_class_order,
    intersection_matrix,
    invariant_factors,
    invert_rational,
    leaf_characters,
    smith_normal_form,
)
from sforge.corpus import (
    a_n,
    builtin_corpus,
    d_n,
    e6,
    e7,
    e8,
    genus3_cone,
    quotient_cusp,
    random_negative_definite_tree,
)
from sforge.graph import ResolutionGraph

from oracles import (
    RatMatrix,
    group_elements,
    invariant_factors_minor_gcd,
    invert_rational_fraction_gauss,
    is_faithful_by_enumeration,
    smith_normal_form_dense,
    snf_is_certified,
)
from test_invariants import char_assignment


def brute_force_class_order(minv, i, order_cap):
    """Order of [e_i] by repeated addition in E*/E: least n with n*e_i
    integral."""
    col = [row[i] for row in minv]
    acc = [Fraction(0)] * len(col)
    for n in range(1, order_cap + 1):
        acc = [a + c for a, c in zip(acc, col)]
        if all(x.denominator == 1 for x in acc):
            return n
    raise AssertionError("order exceeds |D|")


# -- group structure -----------------------------------------------------------


def test_e7_group_is_z2():
    d = discriminant_group(e7())
    assert d.order == 2
    assert d.invariant_factors == (2,)
    assert d.generator_orders == (2,)


def test_e8_group_trivial():
    d = discriminant_group(e8())
    assert d.order == 1
    assert d.invariant_factors == ()
    assert d.generators == ()
    assert invariant_factors(e8()) == ()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_an_group_is_cyclic(n):
    d = discriminant_group(a_n(n))
    assert d.order == n + 1
    assert d.invariant_factors == ((n + 1,) if n else (n + 1,))


def test_d4_group_is_z2_squared():
    d = discriminant_group(d_n(4))
    assert d.order == 4
    assert d.invariant_factors == (2, 2)


def test_e6_group_is_z3():
    d = discriminant_group(e6())
    assert d.order == 3
    assert d.invariant_factors == (3,)


def test_rejects_non_qhs():
    with pytest.raises(NotQhsTreeError):
        discriminant_group(genus3_cone())


def test_dual_basis_inverts_matrix_on_corpus(corpus):
    for name, g in corpus.items():
        if not g.is_qhs_tree():
            continue
        m = intersection_matrix(g)
        inv = RatMatrix(invert_rational(m))
        assert inv @ m == RatMatrix.identity(g.n), name


def test_order_equals_product_of_factors_random():
    rng = Random(41)
    for _ in range(60):
        g = random_negative_definite_tree(rng)
        d = discriminant_group(g)
        prod = 1
        for f in d.invariant_factors:
            prod *= f
        assert prod == d.order == abs(determinant(intersection_matrix(g)))


def test_order_equals_product_of_factors_corpus(corpus):
    for name, g in corpus.items():
        if not g.is_qhs_tree():
            continue
        d = discriminant_group(g)
        prod = 1
        for f in d.invariant_factors:
            prod *= f
        assert prod == d.order == abs(
            determinant(intersection_matrix(g))
        ), name


def test_pairing_denominators_divide_order():
    """(e_i . e_j) mod 1, read off M^{-1}, has denominators dividing
    |G|."""
    for g in (e7(), a_n(4), d_n(5)):
        d = discriminant_group(g)
        for row in invert_rational(intersection_matrix(g)):
            for x in row:
                assert d.order % (x % 1).denominator == 0


def test_generators_have_stated_orders():
    for g in (e7(), a_n(5), d_n(4), builtin_corpus()["quotient-cusp-2-3"]):
        d = discriminant_group(g)
        for coords, order in zip(d.generators, d.generator_orders):
            for n in range(1, order):
                assert any((n * x).denominator != 1 for x in coords)
            assert all((order * x).denominator == 1 for x in coords)


# -- leaf characters -------------------------------------------------------------


def test_e7_action_phase_set_matches_paper():
    ch = leaf_characters(e7())
    assert ch.leaf_ids == ("x", "y", "z")
    nontrivial = [
        ph for coeffs, ph in group_elements(ch).items() if any(coeffs)
    ]
    assert nontrivial == [(Fraction(1, 2), Fraction(0), Fraction(1, 2))]


def test_e8_trivial_action():
    ch = leaf_characters(e8())
    assert ch.generator_orders == ()
    assert group_elements(ch) == {(): (Fraction(0),) * 3}


def test_a2_generator_acts_by_thirds():
    ch = leaf_characters(a_n(2))
    assert ch.generator_orders == (3,)
    phases = set(ch.phases[0])
    assert phases in ({Fraction(1, 3), Fraction(2, 3)},)


def test_faithful_on_corpus(corpus):
    for name, g in corpus.items():
        if not g.is_qhs_tree():
            continue
        ch = leaf_characters(g)
        assert ch.is_faithful(), name
        # only the identity has all phases zero
        zeros = [
            coeffs
            for coeffs, ph in group_elements(ch).items()
            if all(x == 0 for x in ph)
        ]
        assert zeros == [tuple(0 for _ in ch.generator_orders)], name


def _variants(ch):
    """The assignment itself, its projection onto each single leaf and
    onto all leaves but one, and its generators listed twice."""
    t = len(ch.leaf_ids)
    keeps = [[i] for i in range(t)]
    if t > 1:
        keeps += [[i for i in range(t) if i != j] for j in range(t)]
    out = [ch]
    for keep in keeps:
        out.append(CharacterAssignment(
            leaf_ids=tuple(ch.leaf_ids[i] for i in keep),
            generator_orders=ch.generator_orders,
            phases=tuple(tuple(row[i] for i in keep) for row in ch.phases),
        ))
    out.append(CharacterAssignment(
        leaf_ids=ch.leaf_ids,
        generator_orders=ch.generator_orders * 2,
        phases=ch.phases * 2,
    ))
    return out


def test_faithful_index_matches_enumeration_on_random_trees():
    rng = Random(43)
    checked = faithful = unfaithful = 0
    while checked < 60:
        g = random_negative_definite_tree(rng)
        if discriminant_group(g).order > 1000:
            continue
        checked += 1
        for ch in _variants(leaf_characters(g)):
            if ch.order > 1000:
                continue
            verdict = ch.is_faithful()
            assert verdict == is_faithful_by_enumeration(ch), ch
            faithful += verdict
            unfaithful += not verdict
    # the sweep must reach both branches of the index test
    assert faithful >= 300 and unfaithful >= 50, (faithful, unfaithful)


@pytest.mark.parametrize(
    "leaves, orders, phases, faithful",
    [
        # trivial group, with and without leaves
        (("x", "y"), (), (), True),
        ((), (), (), True),
        # no leaves: only the trivial group acts faithfully
        ((), (2,), ((),), False),
        # Z/4 acting through its quotient Z/2
        (("x",), (4,), ((Fraction(1, 2),),), False),
        # Z/2 x Z/2 with both generators acting alike
        (("x", "y"), (2, 2), ((Fraction(1, 2), 0), (Fraction(1, 2), 0)),
         False),
        # Z/2 x Z/2 with distinct phases on two leaves
        (("x", "y"), (2, 2), ((Fraction(1, 2), 0), (0, Fraction(1, 2))),
         True),
        # Z/6 = Z/2 x Z/3 acting on one leaf
        (("x",), (2, 3), ((Fraction(1, 2),), (Fraction(1, 3),)), True),
        # a generator acting trivially
        (("x", "y"), (3,), ((0, 0),), False),
    ],
)
def test_faithful_constructed_cases(leaves, orders, phases, faithful):
    ch = char_assignment(leaves, orders, phases)
    assert ch.is_faithful() is faithful
    assert is_faithful_by_enumeration(ch) is faithful


def test_leaf_characters_raises_when_not_faithful(monkeypatch):
    monkeypatch.setattr(CharacterAssignment, "is_faithful", lambda self: False)
    with pytest.raises(AssertionError, match="not faithful"):
        leaf_characters(e7())


def test_monomial_character_is_additive():
    ch = leaf_characters(e7())
    a = {"x": 1, "z": 1}
    b = {"x": 1, "y": 2, "z": 3}
    ab = {"x": 2, "y": 2, "z": 4}
    sum_ab = tuple(
        (p + q) % 1
        for p, q in zip(ch.monomial_character(a), ch.monomial_character(b))
    )
    assert ch.monomial_character(ab) == sum_ab


# -- dual class orders -------------------------------------------------------------


def test_e8_dual_orders_all_one():
    g = e8()
    for v in g.vertex_ids:
        assert dual_class_order(g, v) == 1


def test_e7_short_arm_end_has_order_two():
    assert dual_class_order(e7(), "x") == 2


def test_dual_orders_divide_group_order_and_match_bruteforce(corpus):
    for name, g in corpus.items():
        if not g.is_qhs_tree():
            continue
        d = discriminant_group(g)
        minv = invert_rational(intersection_matrix(g))
        for v in g.vertex_ids:
            n = dual_class_order(g, v)
            assert d.order % n == 0, (name, v)
            assert n == brute_force_class_order(
                minv, g.index_of(v), d.order
            ), (name, v)


def test_dual_class_order_matches_inverse_denominators(corpus):
    """The adjugate formula against the former definition: the lcm of
    the denominators in column i of the Fraction inverse."""
    for name, g in corpus.items():
        if not g.is_qhs_tree():
            continue
        minv = invert_rational_fraction_gauss(intersection_matrix(g))
        for v in g.vertex_ids:
            old = lcm(*(x.denominator for x in minv.column(g.index_of(v))))
            assert dual_class_order(g, v) == old, (name, v)


def test_generators_match_inverse_times_inverted_u(corpus):
    """Generators from adj(M) and the tracked U^{-1} equal the columns of
    M^{-1} (inverse of U), both inverses by Fraction Gauss-Jordan, with
    U from the dense oracle's elimination."""
    for name, g in corpus.items():
        if not g.is_qhs_tree():
            continue
        m = intersection_matrix(g)
        snf = smith_normal_form_dense(m)
        coords = invert_rational_fraction_gauss(m) @ (
            invert_rational_fraction_gauss(snf.u)
        )
        d = discriminant_group(g)
        expected = tuple(
            coords.column(i) for i in range(m.rows) if snf.d[i, i] > 1
        )
        assert d.generators == expected, name
        gauss = invert_rational_fraction_gauss(m)
        assert invert_rational(m) == gauss.entries, name


def test_group_snf_is_certified_by_the_tree_determinant(
    fresh_corpus, monkeypatch
):
    """discriminant_group hands its Smith normal form the tree pass's
    determinant; is_faithful's stack, built for two or more generators,
    has no determinant, and its transforms are certified unimodular
    instead. Both give M = U^-1 D V^-1. One generator takes the closed
    form and builds no stack. The graphs are built anew, so that their
    groups are not memoized already."""
    corpus = fresh_corpus
    import sforge.discgroup

    real = sforge.discgroup.smith_normal_form
    calls = []

    def recording(m, **kwargs):
        result = real(m, **kwargs)
        calls.append((m, kwargs, result))
        return result

    monkeypatch.setattr(sforge.discgroup, "smith_normal_form", recording)
    stacks = closed = 0
    for name, g in corpus.items():
        if not g.is_qhs_tree():
            continue
        calls.clear()
        chars = leaf_characters(g)
        (m, kwargs, group_snf), *rest = calls
        assert m is intersection_matrix(g), name
        assert kwargs == {"det": g.tree_form().determinant}, name
        assert snf_is_certified(m, group_snf), name
        if len(chars.generator_orders) >= 2:
            ((stack, kwargs, snf),) = rest
            assert not stack.is_square and kwargs == {}, name
            assert snf_is_certified(stack, snf), name
            stacks += 1
        else:
            assert rest == [], name
            closed += len(chars.generator_orders)
    assert stacks >= 3 and closed >= 8, (stacks, closed)


def test_character_orders_are_the_invariant_factors(corpus):
    """The CLI reads |G| and the invariant factors off the leaf
    characters, so generator_orders must equal invariant_factors."""
    rng = Random(61)
    graphs = [g for g in corpus.values() if g.is_qhs_tree()]
    while len(graphs) < 214:
        g = random_negative_definite_tree(rng)
        if g.is_qhs_tree():
            graphs.append(g)
    for g in graphs:
        dg = discriminant_group(g)
        ch = leaf_characters(g)
        assert ch.generator_orders == dg.invariant_factors
        assert ch.order == dg.order


def test_residues_of_leaf_characters():
    ch = char_assignment(
        ("x", "y", "z"), (4,), [[Fraction(1, 6), Fraction(1, 4), 0]]
    )
    assert ch.modulus == 12
    assert ch.leaf_residues == ((2,), (3,), (0,))
    assert ch.monomial_residue({"x": 3, "y": 2}) == (0,)
    assert ch.monomial_residue({"x": 7}) == (2,)
    assert ch.monomial_character({"x": 7}) == (Fraction(1, 6),)
    trivial = char_assignment(("x",), (), ())
    assert trivial.modulus == 1
    assert trivial.monomial_residue({"x": 5}) == ()


def test_residues_refuse_a_phase_off_the_modulus_grid():
    """On E7 (e = 2) the phase 1/2 is the residue 1; a phase of 1/3 is
    no character of the group, and residues says so."""
    ch = leaf_characters(e7())
    assert ch.modulus == 2
    assert ch.residues((Fraction(1, 2),)) == (1,)
    assert ch.residues((Fraction(0),)) == (0,)
    with pytest.raises(ValueError, match="1/2"):
        ch.residues((Fraction(1, 3),))


# -- the group's structure from the leaf dual classes ---------------------------


def _fresh(g):
    """g built anew, with an empty memo."""
    return ResolutionGraph(g.vertices, g.edges)


def test_invariant_factors_match_the_smith_normal_form(corpus):
    """Seeded: 300 random trees at each of 4 sizes, the quotient cusps
    k = 2..9 and the corpus. invariant_factors, which reads a cyclic
    group off the leaf dual classes, equals the certified Smith normal
    form of discriminant_group on the same graph built anew, and, on
    graphs of at most 5 vertices, the minor-gcd oracle. The sweep must
    reach both the cyclic shortcut and the fallback."""
    rng = Random(11)
    graphs = [
        random_negative_definite_tree(rng, max_vertices=size)
        for size in (6, 12, 30, 60)
        for _ in range(300)
    ]
    graphs += [
        quotient_cusp(k, [rng.randint(2, 5) for _ in range(k - 1)] + [3])
        for k in range(2, 10)
    ]
    graphs += [g for g in corpus.values() if g.is_qhs_tree()]
    cyclic = non_cyclic = 0
    for g in graphs:
        g = _fresh(g)
        factors = invariant_factors(g)
        assert factors == discriminant_group(_fresh(g)).invariant_factors
        if g.n <= 5:
            rows = intersection_matrix(g).to_lists()
            expected = tuple(
                f for f in invariant_factors_minor_gcd(rows) if f > 1
            )
            assert factors == expected
        cyclic += len(factors) == 1
        non_cyclic += len(factors) >= 2
    assert cyclic >= 500 and non_cyclic >= 200, (cyclic, non_cyclic)


def test_invariant_factors_need_no_group_when_cyclic(fresh_corpus, builds):
    """On a cyclic group the answer is (|det|,) with no Smith normal
    form; Z/2 x Z/2 reads the diagonal of one, and neither builds
    discriminant_group."""
    assert invariant_factors(fresh_corpus["e7"]) == (2,)
    assert invariant_factors(a_n(9)) == (10,)
    assert invariant_factors(fresh_corpus["e8"]) == ()
    assert invariant_factors(fresh_corpus["d4"]) == (2, 2)
    assert "discriminant_group" not in builds


def test_invariant_factors_rejects_non_qhs():
    with pytest.raises(NotQhsTreeError):
        invariant_factors(genus3_cone())


def _faithful_by_stack(ch):
    """The order of the image from the Smith normal form of the stack
    [e * phases; e * I_t], as is_faithful computes it for two or more
    generators."""
    e, t = ch.modulus, len(ch.leaf_ids)
    rows = [list(row) for row in zip(*ch.leaf_residues)]
    rows += [[e if i == j else 0 for j in range(t)] for i in range(t)]
    diag = smith_normal_form(IntMatrix(rows)).diagonal
    return e**t == ch.order * prod(diag)


def _prime_divisors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def test_one_generator_faithfulness_closed_form():
    """Seeded one-generator characters: the closed form e / gcd(e, r)
    = |G| agrees with the stack's Smith normal form and with a walk
    over the group, on the leaf characters, on their projections, and
    with the phases scaled by a prime p dividing |G|, which makes the
    action factor through Z/(|G|/p): not faithful."""
    rng = Random(29)
    checked = scaled = 0
    while scaled < 100:
        g = random_negative_definite_tree(rng, max_vertices=12)
        factors = invariant_factors(g)
        if len(factors) != 1 or factors[0] > 500:
            continue
        ch = leaf_characters(g)
        for v in _variants(ch)[:-1]:  # the last one has two generators
            verdict = v.is_faithful()
            assert verdict == _faithful_by_stack(v), v
            assert verdict == is_faithful_by_enumeration(v), v
            checked += 1
        for p in _prime_divisors(ch.order):
            bad = CharacterAssignment(
                leaf_ids=ch.leaf_ids,
                generator_orders=ch.generator_orders,
                phases=tuple(tuple(x * p % 1 for x in row)
                             for row in ch.phases),
            )
            assert not bad.is_faithful(), bad
            assert not _faithful_by_stack(bad), bad
            assert not is_faithful_by_enumeration(bad), bad
            scaled += 1
    assert checked >= 600, checked
