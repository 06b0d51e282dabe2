"""Invariant generators, toric relations, bounded membership."""

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import mul
from random import Random

import pytest

from sforge import (
    CapExceededError,
    CharacterAssignment,
    InvariantBasis,
    Polynomial,
    build_splice_equations,
    discriminant_group,
    invariant_generators,
    leaf_characters,
    membership_bounded,
    parse_polynomial,
    toric_relations,
)
from sforge.corpus import (
    builtin_corpus,
    e7,
    e8,
    quotient_cusp,
    random_negative_definite_tree,
)
from sforge.errors import PreconditionError
from sforge.intmat import solve_sparse
from sforge.invariants import (
    FACTOR_CAP,
    ORDER_CAP,
    PRODUCT_CAP,
    RELATION_CAP,
    _least_degree_count,
    _monomials_up_to,
)

from oracles import (
    invariant_generators_by_search,
    monomial_character_by_fractions,
    toric_relations_by_polynomials,
)

XYZ = ("x", "y", "z")


def char_assignment(leaves, orders, phases):
    return CharacterAssignment(
        leaf_ids=tuple(leaves),
        generator_orders=tuple(orders),
        phases=tuple(tuple(Fraction(p) for p in row) for row in phases),
    )


def exponent_set(basis):
    return set(basis.exponents)


# -- generators -------------------------------------------------------------------


def test_e7_generators_match_paper_set():
    ch = leaf_characters(e7())
    basis = invariant_generators(ch, 2)
    assert exponent_set(basis) == {
        (2, 0, 0),  # x^2
        (1, 0, 1),  # xz
        (0, 0, 2),  # z^2
        (0, 1, 0),  # y
    }
    assert basis.names == ("A", "B", "C", "D")
    assert basis.exponents == ((0, 0, 2), (0, 1, 0), (1, 0, 1), (2, 0, 0))


def test_trivial_group_generators_are_variables():
    ch = leaf_characters(e8())
    basis = invariant_generators(ch, 1)
    assert exponent_set(basis) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_z3_generators():
    ch = char_assignment(
        ("x", "y"), (3,), [[Fraction(1, 3), Fraction(1, 3)]]
    )
    basis = invariant_generators(ch, 3)
    assert exponent_set(basis) == {(3, 0), (2, 1), (1, 2), (0, 3)}


def test_generators_are_invariant_and_minimal():
    for g in (e7(), builtin_corpus()["quotient-cusp-2-3"]):
        ch = leaf_characters(g)
        order = discriminant_group(g).order
        basis = invariant_generators(ch, order)
        zero = (Fraction(0),) * len(ch.generator_orders)
        for exps in basis.exponents:
            mono = {v: e for v, e in zip(basis.variables, exps) if e}
            assert ch.monomial_character(mono) == zero
            # minimality: no other generator divides it
            for other in basis.exponents:
                if other != exps:
                    assert not all(a >= b for a, b in zip(exps, other))


def brute_force_minimal_invariants(ch, order):
    t = len(ch.leaf_ids)
    zero = (Fraction(0),) * len(ch.generator_orders)
    invariant = []
    for degree in range(1, order + 1):
        for combo in combinations_with_replacement(range(t), degree):
            exps = [0] * t
            for i in combo:
                exps[i] += 1
            mono = {v: e for v, e in zip(ch.leaf_ids, exps) if e}
            if ch.monomial_character(mono) == zero:
                invariant.append(tuple(exps))
    minimal = []
    for exps in invariant:
        if not any(
            other != exps and all(a >= b for a, b in zip(exps, other))
            for other in invariant
        ):
            minimal.append(exps)
    return set(minimal)


def test_generators_match_bruteforce_on_small_groups():
    cases = [
        char_assignment(("x", "y"), (4,), [[Fraction(1, 4), Fraction(3, 4)]]),
        char_assignment(
            ("x", "y", "z"),
            (2, 2),
            [
                [Fraction(1, 2), Fraction(0), Fraction(1, 2)],
                [Fraction(0), Fraction(1, 2), Fraction(1, 2)],
            ],
        ),
        char_assignment(("x", "y"), (5,), [[Fraction(1, 5), Fraction(2, 5)]]),
    ]
    for ch in cases:
        order = ch.order
        basis = invariant_generators(ch, order)
        assert exponent_set(basis) == brute_force_minimal_invariants(
            ch, order
        )


def test_completeness_every_invariant_monomial_factors(corpus):
    """Invariant monomials of degree <= |D| factor over the generators."""
    for name, g in corpus.items():
        if not g.is_qhs_tree():
            continue
        order = discriminant_group(g).order
        if order > 200:
            continue
        ch = leaf_characters(g)
        basis = invariant_generators(ch, order)
        gens = list(basis.exponents)
        zero = (Fraction(0),) * len(ch.generator_orders)
        t = len(ch.leaf_ids)

        def factors_over_gens(exps):
            if all(e == 0 for e in exps):
                return True
            return any(
                all(a >= b for a, b in zip(exps, g0))
                and factors_over_gens(
                    tuple(a - b for a, b in zip(exps, g0))
                )
                for g0 in gens
            )

        for degree in range(1, order + 1):
            for combo in combinations_with_replacement(range(t), degree):
                exps = [0] * t
                for i in combo:
                    exps[i] += 1
                mono = {v: e for v, e in zip(ch.leaf_ids, exps) if e}
                if ch.monomial_character(mono) == zero:
                    assert factors_over_gens(tuple(exps)), (name, exps)


def test_order_cap_refusal():
    ch = char_assignment(("x",), (2,), [[Fraction(1, 2)]])
    with pytest.raises(ValueError, match="cap"):
        invariant_generators(ch, ORDER_CAP + 1)


def test_order_must_be_the_group_order():
    """An order other than |G| would cut the search short of the Hilbert
    basis (E7 with order 1 kept only y; the k = 3 cusp of order 16 with
    order 3 kept none of its 15 generators), so it is refused."""
    e7_chars = leaf_characters(e7())
    cusp = leaf_characters(quotient_cusp(3, (2, 3, 2)))
    assert (e7_chars.order, cusp.order) == (2, 16)
    assert len(invariant_generators(cusp, 16).exponents) == 15
    for ch, order in ((e7_chars, 1), (e7_chars, 3), (cusp, 3), (cusp, 15)):
        with pytest.raises(
            ValueError,
            match="^order %d is not the group order %d of the characters$"
            % (order, ch.order),
        ):
            invariant_generators(ch, order)
    huge = 10 ** 5000
    many = CharacterAssignment(("x",), (huge,), ((Fraction(1, huge),),))
    with pytest.raises(ValueError, match="^order 2 is not the group order "
                       "with more than \\d+ digits"):
        invariant_generators(many, 2)


# -- toric relations ------------------------------------------------------------------


def test_e7_relation_is_the_paper_one():
    ch = leaf_characters(e7())
    basis = invariant_generators(ch, 2)
    rels = toric_relations(basis, 2)
    assert len(rels) == 1
    # A=z^2, B=y, C=xz, D=x^2 in canonical naming: AD - C^2 is the
    # paper's AC - B^2 after its renaming
    assert rels == ["A*D - C^2"]
    assert str(parse_polynomial(rels[0], basis.names)) == "A*D - C^2"


def test_trivial_group_has_no_relations():
    ch = leaf_characters(e8())
    basis = invariant_generators(ch, 1)
    assert toric_relations(basis, 3) == []


def test_z3_relations():
    ch = char_assignment(
        ("x", "y"), (3,), [[Fraction(1, 3), Fraction(1, 3)]]
    )
    basis = invariant_generators(ch, 3)
    rels = {
        str(parse_polynomial(r, basis.names))
        for r in toric_relations(basis, 2)
    }
    assert rels == {"A*C - B^2", "A*D - B*C", "B*D - C^2"}


def test_relations_vanish_under_parametrization(corpus):
    for name, g in corpus.items():
        if not g.is_qhs_tree():
            continue
        order = discriminant_group(g).order
        if order > 200:
            continue
        ch = leaf_characters(g)
        basis = invariant_generators(ch, order)
        for text in toric_relations(basis, 2):
            rel = parse_polynomial(text, basis.names)
            # a monomial in the generators maps to the monomial with the
            # summed exponents; the coefficients of each image cancel
            images = {}
            for a, c in rel.terms.items():
                image = tuple(
                    sum(map(mul, a, column)) for column in zip(*basis.exponents)
                )
                images[image] = images.get(image, 0) + c
            assert set(images.values()) == {0}, name


def test_product_cap_refuses_before_enumerating(monkeypatch):
    """C(k + d, d) - 1 products above PRODUCT_CAP raise ValueError; at
    the cap they are enumerated."""
    k = 1000  # 500,500 products of degree <= 2, far above the cap
    basis = InvariantBasis(
        variables=tuple("x%d" % i for i in range(k)),
        exponents=tuple(
            tuple(int(i == j) for j in range(k)) for i in range(k)
        ),
        names=tuple("G%d" % i for i in range(k)),
    )
    with pytest.raises(ValueError, match="product cap %d" % PRODUCT_CAP):
        toric_relations(basis, 2)
    ch = char_assignment(
        ("x", "y"), (3,), [[Fraction(1, 3), Fraction(1, 3)]]
    )
    small = invariant_generators(ch, 3)  # 4 generators, 14 products
    monkeypatch.setattr("sforge.invariants.PRODUCT_CAP", 14)
    assert len(toric_relations(small, 2)) == 3
    monkeypatch.setattr("sforge.invariants.PRODUCT_CAP", 13)
    with pytest.raises(ValueError, match="14 products .* cap 13"):
        toric_relations(small, 2)


def test_generator_search_refuses_at_the_product_cap(monkeypatch):
    """With a degree bound, the search raises the product-cap ValueError
    once the generators found so far have more than PRODUCT_CAP
    products; at the cap, or with no products to build, it runs on."""
    ch = char_assignment(
        ("x", "y"), (3,), [[Fraction(1, 3), Fraction(1, 3)]]
    )
    full = invariant_generators(ch, 3)  # 4 generators, 14 products
    monkeypatch.setattr("sforge.invariants.PRODUCT_CAP", 14)
    assert invariant_generators(ch, 3, degree_bound=2) == full
    monkeypatch.setattr("sforge.invariants.PRODUCT_CAP", 13)
    with pytest.raises(
        ValueError,
        match="14 products of 4 invariant generators up to degree 2 above "
        "the desk-scale product cap 13",
    ):
        invariant_generators(ch, 3, degree_bound=2)
    monkeypatch.setattr("sforge.invariants.PRODUCT_CAP", 8)
    with pytest.raises(ValueError, match="9 products of 3 .* cap 8"):
        invariant_generators(ch, 3, degree_bound=2)
    monkeypatch.setattr("sforge.invariants.PRODUCT_CAP", 3)
    with pytest.raises(ValueError, match="4 products of 4 .* degree 1 "):
        invariant_generators(ch, 3, degree_bound=1)
    for bound in (None, 0, -1):
        assert invariant_generators(ch, 3, degree_bound=bound) == full


def test_factor_cap_refuses_one_generator_at_a_high_degree(corpus):
    """One generator has D products up to degree D, under PRODUCT_CAP
    for every D <= 200,000, but D(D + 1)/2 factors in them: above
    FACTOR_CAP, the search and toric_relations refuse before any
    product is built; at the cap, the products are built."""
    chars = leaf_characters(corpus["a1"])
    basis = invariant_generators(chars, 2)
    assert len(basis.exponents) == 1
    for bound in (2000, 200_000):
        message = ("%d factors in the products of 1 invariant generators "
                   "up to degree %d above the desk-scale factor cap %d"
                   % (bound * (bound + 1) // 2, bound, FACTOR_CAP))
        with pytest.raises(ValueError) as err:
            invariant_generators(chars, 2, degree_bound=bound)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            toric_relations(basis, bound)
        assert str(err.value) == message
    assert toric_relations(basis, 1999) == []
    assert invariant_generators(chars, 2, degree_bound=1999) == basis


@pytest.mark.parametrize("cap", ["order", "products", "factors",
                                 "relations"])
def test_caps_raise_cap_exceeded_error(corpus, monkeypatch, cap):
    """Each desk-scale cap raises CapExceededError, which is both a
    PreconditionError, as the CLI reads it, and a ValueError, as
    library callers caught the caps' refusals before it existed."""
    ch = char_assignment(
        ("x", "y"), (3,), [[Fraction(1, 3), Fraction(1, 3)]]
    )
    small = invariant_generators(ch, 3)  # 4 generators, 14 products
    if cap == "order":
        call, args = invariant_generators, (ch, ORDER_CAP + 1)
    elif cap == "products":
        monkeypatch.setattr("sforge.invariants.PRODUCT_CAP", 13)
        call, args = toric_relations, (small, 2)
    elif cap == "factors":  # 2000 * 2001 / 2 factors of one generator
        a1 = invariant_generators(leaf_characters(corpus["a1"]), 2)
        call, args = toric_relations, (a1, 2000)
    else:  # 3 relations up to degree 2
        monkeypatch.setattr("sforge.invariants.RELATION_CAP", 2)
        call, args = toric_relations, (small, 2)
    with pytest.raises(CapExceededError, match=" cap ") as info:
        call(*args)
    assert isinstance(info.value, PreconditionError)
    assert isinstance(info.value, ValueError)


def test_least_degree_count_matches_the_generators(corpus):
    """_least_degree_count gives the least degree d0 of an invariant
    monomial and their number there: the generators of degree d0, and
    the invariant monomials of degree d0 counted one by one."""
    cases = [
        char_assignment(("x", "y", "z"), (5,), [[Fraction(1, 5)] * 3]),
        char_assignment(("x", "y"), (4,), [[Fraction(1, 4), Fraction(3, 4)]]),
        char_assignment(("x", "y"), (6,), [[Fraction(0), Fraction(1, 6)]]),
    ]
    for g in corpus.values():
        if g.is_qhs_tree() and 1 < discriminant_group(g).order <= 200:
            cases.append(leaf_characters(g))
    assert len(cases) >= 10
    for ch in cases:
        least, n = _least_degree_count(ch)
        degrees = [sum(e) for e in invariant_generators(ch, ch.order).exponents]
        assert (least, n) == (min(degrees), degrees.count(min(degrees)))
        zero = (0,) * len(ch.generator_orders)
        assert n == sum(
            ch.monomial_residue(Counter(combo)) == zero
            for combo in combinations_with_replacement(ch.leaf_ids, least)
        )


def test_generator_search_refuses_on_the_least_degree_count(monkeypatch):
    """Three leaves of one character of order 5: no invariant below
    degree 5, and 21 of degree 5, all generators. Once the search has
    walked more than PRODUCT_CAP monomials (34 below degree 5) with no
    generator, it counts those 21 and refuses if their products alone
    pass the cap, saying the count is a lower bound; otherwise it runs
    on to the same basis."""
    ch = char_assignment(("x", "y", "z"), (5,), [[Fraction(1, 5)] * 3])
    full = invariant_generators(ch, 5)
    assert len(full.exponents) == 21
    counted = []
    monkeypatch.setattr(
        "sforge.invariants._least_degree_count",
        lambda c: counted.append(c) or _least_degree_count(c),
    )
    monkeypatch.setattr("sforge.invariants.PRODUCT_CAP", 20)
    with pytest.raises(
        ValueError,
        match=r"^at least 21 products of 21 invariant generators \(those "
        r"of the least degree 5\) up to degree 1 above the desk-scale "
        r"product cap 20$",
    ):
        invariant_generators(ch, 5, degree_bound=1)
    assert counted == [ch]
    monkeypatch.setattr("sforge.invariants.PRODUCT_CAP", 30)
    assert invariant_generators(ch, 5, degree_bound=1) == full
    assert counted == [ch, ch]
    monkeypatch.setattr("sforge.invariants.PRODUCT_CAP", 34)
    assert invariant_generators(ch, 5, degree_bound=1) == full
    assert counted == [ch, ch]  # walked 34, not more: no count


def test_relation_cap_counts_the_relations(corpus, monkeypatch):
    """Up to degree 2 the pairs of products of one image are exactly the
    relations: a cap one below their number refuses with that number, a
    cap at it lets them through. Above degree 2 the pairs bound the
    relations from above, and the refusal says "at most"."""
    cap = "sforge.invariants.RELATION_CAP"
    graphs = list(corpus.values()) + [
        random_negative_definite_tree(Random(seed)) for seed in range(30)
    ]
    checked = 0
    for g in graphs:
        try:
            order = discriminant_group(g).order
        except PreconditionError:
            continue
        ch = leaf_characters(g)
        if order > 200 or order ** max(len(ch.leaf_ids) - 2, 0) > 36:
            continue
        basis = invariant_generators(ch, order)
        k = len(basis.exponents)
        for bound in (1, 2):
            monkeypatch.setattr(cap, RELATION_CAP)
            n = len(toric_relations(basis, bound))
            monkeypatch.setattr(cap, n)
            assert len(toric_relations(basis, bound)) == n
            if n:
                monkeypatch.setattr(cap, n - 1)
                with pytest.raises(ValueError) as info:
                    toric_relations(basis, bound)
                assert str(info.value) == (
                    "%d relations of %d invariant generators up to degree "
                    "%d above the desk-scale relation cap %d"
                    % (n, k, bound, n - 1)
                )
                checked += 1
        monkeypatch.setattr(cap, RELATION_CAP)
        n = len(toric_relations(basis, 3))
        monkeypatch.setattr(cap, 0)
        if n:
            with pytest.raises(ValueError, match="^at most ") as info:
                toric_relations(basis, 3)
            assert int(str(info.value).split()[2]) >= n
    assert checked >= 10, checked


def test_bound_one_gives_no_relations():
    ch = leaf_characters(e7())
    basis = invariant_generators(ch, 2)
    assert toric_relations(basis, 1) == []


# -- membership -----------------------------------------------------------------------


def test_e7_membership_certificate_cofactor_z2():
    target = parse_polynomial("x^2*z^2 + y^3*z^2 + z^6", XYZ)
    gen = parse_polynomial("x^2 + y^3 + z^4", XYZ)
    cert = membership_bounded(target, [gen], 2)
    assert cert is not None
    assert [str(q) for q in cert.cofactors] == ["z^2"]
    check = Polynomial.zero(XYZ)
    for q, g0 in zip(cert.cofactors, [gen]):
        check = check + q * g0
    assert check == target


def test_generator_is_member_with_unit_cofactor():
    gen = parse_polynomial("x^2 + y^3 + z^4", XYZ)
    cert = membership_bounded(gen, [gen], 0)
    assert cert is not None
    assert [str(q) for q in cert.cofactors] == ["1"]


def test_low_degree_target_absent_at_small_bounds():
    gen = parse_polynomial("x^2 + y^3 + z^4", XYZ)
    x = parse_polynomial("x", XYZ)
    for bound in range(6):
        assert membership_bounded(x, [gen], bound) is None


def test_membership_with_two_generators():
    g1 = parse_polynomial("x^2 + y", XYZ)
    g2 = parse_polynomial("y^2 - z", XYZ)
    target = (
        parse_polynomial("z", XYZ) * g1
        + parse_polynomial("x + 1", XYZ) * g2
    )
    cert = membership_bounded(target, [g1, g2], 1)
    assert cert is not None
    total = Polynomial.zero(XYZ)
    for q, g0 in zip(cert.cofactors, [g1, g2]):
        total = total + q * g0
    assert total == target


def test_membership_via_splice_ideal_of_e7():
    pkg = build_splice_equations(e7())
    target = parse_polynomial("x^2*z^2 + y^3*z^2 + z^6", pkg.variables)
    cert = membership_bounded(target, list(pkg.equations), 2)
    assert cert is not None
    assert [str(q) for q in cert.cofactors] == ["z^2"]


def test_corrupted_cofactor_fails_verification(monkeypatch):
    """A solve that returns a wrong cofactor coefficient must not give
    a certificate: the Polynomial check raises."""
    import sforge.invariants as inv

    def corrupted(rows, ncols):
        x = solve_sparse(rows, ncols)
        return [x[0] + 1] + x[1:]

    monkeypatch.setattr(inv, "solve_sparse", corrupted)
    target = parse_polynomial("x^2*z^2 + y^3*z^2 + z^6", XYZ)
    gen = parse_polynomial("x^2 + y^3 + z^4", XYZ)
    with pytest.raises(AssertionError, match="failed verification"):
        membership_bounded(target, [gen], 2)


def test_negative_degree_bound_raises():
    gen = parse_polynomial("x^2 + y^3 + z^4", XYZ)
    for bound in (-1, -5):
        with pytest.raises(ValueError):
            membership_bounded(gen, [gen], bound)


def _random_cofactor(rng, variables, bound):
    """A random polynomial of degree <= bound, zero about one time in
    five."""
    monomials = _monomials_up_to(variables, bound)
    terms = {}
    if rng.random() >= 0.2:
        for exps in rng.sample(monomials, rng.randint(1, 3)):
            terms[exps] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Polynomial(variables, terms)


def test_membership_finds_every_bounded_combination():
    """Completeness at the bound: any sum q_i * g_i of the splice
    equations with deg q_i <= bound gets a (verified) certificate, on
    the corpus and on seeded random trees."""
    rng = Random(23)
    graphs = list(builtin_corpus().values())
    for seed in range(300):
        graphs.append(
            random_negative_definite_tree(Random(seed), max_vertices=9)
        )
    systems = 0
    for g in graphs:
        try:
            pkg = build_splice_equations(g)
        except PreconditionError:
            continue
        gens = list(pkg.equations)
        if len(pkg.variables) > 6:
            continue
        systems += 1
        for bound in (1, 2):
            cofactors = [
                _random_cofactor(rng, pkg.variables, bound) for _ in gens
            ]
            target = Polynomial.zero(pkg.variables)
            for q, gen in zip(cofactors, gens):
                target = target + q * gen
            cert = membership_bounded(target, gens, bound)
            assert cert is not None, (g, bound)
            assert cert.degree_bound == bound
            assert all(sum(exps) <= bound
                       for q in cert.cofactors for exps in q.terms)
    assert systems >= 100, systems


def test_relation_texts_are_the_polynomial_strings(corpus):
    """toric_relations writes each relation's text from its index tuples;
    it must be str() of the oracle's Polynomial at the same position."""
    checked = 0
    graphs = list(corpus.values()) + [
        random_negative_definite_tree(Random(seed)) for seed in range(60)
    ]
    for g in graphs:
        try:
            order = discriminant_group(g).order
        except PreconditionError:
            continue
        ch = leaf_characters(g)
        if order > 200 or order ** max(len(ch.leaf_ids) - 2, 0) > 36:
            continue
        basis = invariant_generators(ch, order)
        for bound in (0, 1, 2, 3):
            rels = toric_relations(basis, bound)
            assert type(rels) is list
            assert all(type(r) is str for r in rels)
            oracle = toric_relations_by_polynomials(basis, bound)
            assert rels == [str(r) for r in oracle]
            checked += len(rels)
    assert checked >= 10000, checked


# -- cross-checks of the residue layer against the Fraction oracles ---------------


def _same_basis_and_relations(ch, order, bounds=(2,)):
    basis = invariant_generators(ch, order)
    expected = invariant_generators_by_search(ch, order)
    assert basis.exponents == expected.exponents
    assert basis.names == expected.names
    assert basis.variables == expected.variables
    for bound in bounds:
        rels = toric_relations(basis, bound)
        oracle = toric_relations_by_polynomials(expected, bound)
        assert rels == [str(r) for r in oracle]
        assert [parse_polynomial(r, basis.names) for r in rels] == oracle
    return basis


def test_residue_search_matches_oracle_on_random_trees():
    """Seeded random trees with |G| <= 500 whose invariant rings stay
    small (|G|^(t-2) <= 36, the bound the benchmark also uses)."""
    rng = Random(11)
    checked = nontrivial = 0
    for _ in range(200):
        g = random_negative_definite_tree(rng)
        order = discriminant_group(g).order
        ch = leaf_characters(g)
        t = len(ch.leaf_ids)
        if order > 500 or order ** max(t - 2, 0) > 36:
            continue
        basis = _same_basis_and_relations(ch, order)
        checked += 1
        nontrivial += order > 1 and len(basis.exponents) > t
    assert checked >= 100 and nontrivial >= 40, (checked, nontrivial)


@pytest.mark.parametrize(
    "leaves, orders, phases",
    [
        # trivial group
        (("x", "y", "z"), (), ()),
        # phase denominators that do not divide the generator order
        (("x", "y"), (2,), [[Fraction(1, 3), Fraction(1, 6)]]),
        (("x", "y", "z"), (4,),
         [[Fraction(1, 6), Fraction(1, 4), Fraction(5, 12)]]),
        # not faithful: Z/4 acting through Z/2
        (("x", "y"), (4,), [[Fraction(1, 2), Fraction(1, 2)]]),
        # not faithful: a generator acting trivially
        (("x", "y"), (2, 3), [[Fraction(1, 2), Fraction(1, 2)], [0, 0]]),
        # Z/2 x Z/3 and Z/2 x Z/2 on three leaves
        (("x", "y", "z"), (2, 3),
         [[Fraction(1, 2), 0, Fraction(1, 2)],
          [Fraction(1, 3), Fraction(2, 3), 0]]),
        (("x", "y", "z"), (2, 2),
         [[Fraction(1, 2), 0, Fraction(1, 2)],
          [0, Fraction(1, 2), Fraction(1, 2)]]),
    ],
)
def test_residue_search_matches_oracle_on_constructed(leaves, orders, phases):
    ch = char_assignment(leaves, orders, phases)
    _same_basis_and_relations(ch, ch.order, bounds=(0, 1, 2, 3))


def test_monomial_residue_scales_to_oracle_character():
    rng = Random(5)
    cases = [leaf_characters(g) for g in builtin_corpus().values()
             if g.is_qhs_tree()]
    cases.append(char_assignment(
        ("x", "y"), (2,), [[Fraction(1, 3), Fraction(1, 6)]]))
    for ch in cases:
        e = ch.modulus
        for _ in range(20):
            exps = {w: rng.randrange(0, 12) for w in ch.leaf_ids
                    if rng.random() < 0.7}
            residue = ch.monomial_residue(exps)
            expected = monomial_character_by_fractions(ch, exps)
            assert all(0 <= r < e for r in residue)
            assert tuple(Fraction(r, e) for r in residue) == expected
            assert ch.monomial_character(exps) == expected
