"""Exact linear algebra against independent oracles."""

from fractions import Fraction
from random import Random

import pytest

from sforge import (
    IntMatrix,
    ResolutionGraph,
    SingularMatrixError,
    Vertex,
    adjugate,
    determinant,
    invert_rational,
    is_negative_definite,
    smith_normal_form,
    solve_rational,
)
from sforge.corpus import chain, e7, random_negative_definite_tree, star
from sforge.graph import intersection_matrix, parse_graph
from sforge.intmat import (
    SnfResult,
    _bareiss,
    _is_unimodular,
    _sparse_rows,
    _verify_snf,
    solve_sparse,
)
from sforge.invariants import _integer_row

from oracles import (
    RatMatrix,
    det_cofactor,
    invariant_factors_minor_gcd,
    invert_rational_fraction_gauss,
    is_negative_definite_charpoly,
    is_negative_definite_minors,
    quadratic_form_refutes_negdef,
    smith_normal_form_dense,
    snf_is_certified,
    solve_rational_fraction_gauss,
    solve_underdetermined_fraction_gauss,
)

E7 = intersection_matrix(e7())


def random_matrix(rng, n, lo=-9, hi=9):
    return IntMatrix(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    )


def _check_snf(m, result, det=None):
    """Verify an SnfResult of m as smith_normal_form does."""
    _verify_snf(*(_sparse_rows(x) for x in (m, *result)), det=det)


# -- determinant -----------------------------------------------------------


def test_determinant_1x1():
    assert determinant(IntMatrix([[-2]])) == -2


def test_determinant_e7_order_two():
    assert abs(determinant(E7)) == 2


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        determinant(IntMatrix([[1, 2, 3], [4, 5, 6]]))


def test_determinant_matches_cofactor_oracle():
    rng = Random(4)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 5))
        assert determinant(m) == det_cofactor(m.to_lists())
    for _ in range(200):  # sparse, so that row pivoting is exercised
        n = rng.randint(1, 6)
        m = IntMatrix(
            [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)]
             for _ in range(n)]
        )
        assert determinant(m) == det_cofactor(m.to_lists())


def _det_fraction_gauss(rows):
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def test_determinant_no_overflow_on_larger_matrices():
    rng = Random(7)
    m = random_matrix(rng, 12, -50, 50)
    d = determinant(m)
    assert isinstance(d, int)
    assert Fraction(d) == _det_fraction_gauss(m.to_lists())


def _leading_minors(rows, det):
    return [det([row[:k] for row in rows[:k]])
            for k in range(1, len(rows) + 1)]


def _assert_kernel_matches_oracles(rows, rng, det=det_cofactor, minors=None):
    """determinant, is_negative_definite (on a symmetric matrix) and
    solve_rational against the determinant oracle det, the leading
    minors it gives (or minors, when given) and the Fraction
    Gauss-Jordan solve; the pivots of the pass without pivoting are the
    leading minors up to the first zero. Returns (det, minors)."""
    m = IntMatrix(rows)
    d = det(rows)
    assert determinant(m) == d
    if minors is None:
        minors = _leading_minors(rows, det)
    cut = next((k + 1 for k, x in enumerate(minors) if x == 0), len(minors))
    assert [s[0] for s in _bareiss(m.entries, pivoting=False)] == minors[:cut]
    if m.is_symmetric():
        assert is_negative_definite(m) == all(
            (-1) ** k * x > 0 for k, x in enumerate(minors, start=1))
    b = [rng.randint(-5, 5) for _ in rows]
    if d:
        assert solve_rational(m, b) == solve_rational_fraction_gauss(m, b)
    else:
        for f in (solve_rational, solve_rational_fraction_gauss):
            with pytest.raises(SingularMatrixError):
                f(m, b)
    return d, minors


def test_kernel_on_sparse_tree_matrices():
    """Intersection matrices of seeded trees, declared in shuffled order
    with weights -4..1: most rows have a zero lead at every step."""
    rng = Random(77)
    seen = {"definite": 0, "indefinite": 0, "singular": 0}
    for _ in range(300):
        n = rng.randint(1, 10)
        ids = ["v%d" % i for i in range(n)]
        edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n)]
        rng.shuffle(ids)
        weights = range(-4, 2) if rng.random() < 0.5 else range(-4, -1)
        g = ResolutionGraph._from_parts(
            [Vertex(i, rng.choice(weights)) for i in ids], edges)
        rows = intersection_matrix(g).to_lists()
        d, minors = _assert_kernel_matches_oracles(rows, rng)
        assert d == g.tree_form().determinant
        definite = all((-1) ** k * x > 0 for k, x in enumerate(minors, 1))
        seen["singular" if d == 0 else
             "definite" if definite else "indefinite"] += 1
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("n", [40, 80])
def test_kernel_on_minus_two_chains(n):
    """det of the (-2)-chain on k vertices is (-1)^k (k + 1); the
    Fraction elimination agrees, and so does the tree pass."""
    rows = intersection_matrix(chain([-2] * n)).to_lists()
    minors = [(-1) ** k * (k + 1) for k in range(1, n + 1)]
    assert Fraction(minors[-1]) == _det_fraction_gauss(rows)
    d, _ = _assert_kernel_matches_oracles(
        rows, Random(n), det=lambda r: minors[len(r) - 1], minors=minors)
    assert d == chain([-2] * n).tree_form().determinant
    assert is_negative_definite(IntMatrix(rows))


def test_kernel_on_dense_matrices_with_zero_leads_and_pivots():
    """Seeded matrices up to 7 x 7 with many zeros, half of them
    symmetric: rows with a zero lead at the first step, leading minors
    that vanish (a zero pivot: a row swap with pivoting, the end of the
    pass without), and singular matrices."""
    rng = Random(515)
    zero_pivots = singular = symmetric = 0
    for trial in range(600):
        n = rng.randint(2, 7)
        rows = [[rng.choice((0, 0, 0, 0, 1, -1, 2, -3)) for _ in range(n)]
                for _ in range(n)]
        if trial % 2:
            rows = [[rows[min(i, j)][max(i, j)] for j in range(n)]
                    for i in range(n)]
            symmetric += 1
        if trial % 3 == 0:
            rows[0][0] = 0
        d, minors = _assert_kernel_matches_oracles(rows, rng)
        zero_pivots += 0 in minors[:-1]
        singular += d == 0
    assert zero_pivots >= 300 and 100 <= singular <= 400, (
        zero_pivots, singular)


# -- smith normal form -------------------------------------------------------


def test_snf_identity():
    r = smith_normal_form(IntMatrix.identity(3))
    assert r.d == IntMatrix.identity(3)


def test_snf_diag_2_3():
    r = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    assert r.diagonal == (1, 6)


def test_snf_e7_invariant_factors():
    r = smith_normal_form(E7)
    assert r.diagonal == (1, 1, 1, 1, 1, 1, 2)


@pytest.mark.parametrize("seed", range(10))
def test_snf_random_against_minor_gcd_oracle(seed):
    rng = Random(seed)
    nr, nc = rng.randint(1, 4), rng.randint(1, 4)
    m = IntMatrix(
        [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
    )
    r = smith_normal_form(m)
    assert snf_is_certified(m, r)
    assert r.diagonal == invariant_factors_minor_gcd(m.to_lists())


def test_snf_rank_deficient():
    m = IntMatrix([[2, 4], [1, 2]])
    r = smith_normal_form(m)
    assert r.diagonal == (1, 0)
    assert snf_is_certified(m, r)


def test_snf_non_square_tracks_u_inverse():
    """U and V are det * adj of U^-1 and V^-1, integer matrices since
    both determinants are +-1, and U @ m @ V = D."""
    for m in (IntMatrix([[2, 4, 6], [3, 9, 1]]),
              IntMatrix([[4], [6], [-10]])):
        r = smith_normal_form(m)
        assert snf_is_certified(m, r)
        u, v = (IntMatrix([[det * x for x in row] for row in adj.entries])
                for det, adj in map(adjugate, (r.u_inv, r.v_inv)))
        assert u @ r.u_inv == IntMatrix.identity(m.rows)
        assert r.u_inv @ u == IntMatrix.identity(m.rows)
        assert v @ r.v_inv == IntMatrix.identity(m.cols)
        assert u @ m @ v == r.d


def test_snf_check_rejects_corrupted_u_inverse():
    m = IntMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    r = smith_normal_form(m)
    bad = r.u_inv.to_lists()
    bad[0][0] += 1
    with pytest.raises(AssertionError):
        _check_snf(m, r._replace(u_inv=IntMatrix(bad)))


@pytest.mark.parametrize("field", ["d", "u_inv", "v_inv"])
def test_snf_check_rejects_any_corrupted_matrix(field):
    """The certificate with and without the determinant; both modes
    give the same result."""
    m = IntMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    det = determinant(m)
    r = smith_normal_form(m)
    assert smith_normal_form(m, det=det) == r
    _check_snf(m, r)
    _check_snf(m, r, det=det)
    _check_snf(m, r, det=-det)  # only |det| is read
    for i, j in ((0, 0), (2, 1), (1, 2), (2, 2)):
        bad = getattr(r, field).to_lists()
        bad[i][j] += 1
        bad = r._replace(**{field: IntMatrix(bad)})
        with pytest.raises(AssertionError):
            _check_snf(m, bad)
        with pytest.raises(AssertionError):
            _check_snf(m, bad, det=det)


def test_snf_check_without_det_refuses_a_transform_of_det_2():
    """m = U^-1 @ D @ V^-1 holds, but U^-1 = [[2]] has no integer
    inverse: only the unimodularity check can refuse it."""
    m = IntMatrix([[2]])
    forged = SnfResult(d=IntMatrix([[1]]), u_inv=IntMatrix([[2]]),
                       v_inv=IntMatrix([[1]]))
    assert forged.u_inv @ forged.d @ forged.v_inv == m
    with pytest.raises(AssertionError, match="unimodular"):
        _check_snf(m, forged)
    # the same forgery with U^-1 and V^-1 swapped, and inside a larger
    # matrix whose other rows have one entry each
    with pytest.raises(AssertionError, match="unimodular"):
        _check_snf(m, forged._replace(u_inv=forged.v_inv,
                                      v_inv=forged.u_inv))
    m = IntMatrix([[2, 0], [0, 1]])
    forged = SnfResult(d=IntMatrix.identity(2),
                       u_inv=IntMatrix([[2, 0], [0, 1]]),
                       v_inv=IntMatrix.identity(2))
    with pytest.raises(AssertionError, match="unimodular"):
        _check_snf(m, forged)


def test_snf_det_check_rejects_a_wrong_or_zero_determinant():
    m = IntMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    r = smith_normal_form(m, det=determinant(m))
    for det in (0, determinant(m) + 1, 1, 2 * determinant(m)):
        with pytest.raises(AssertionError):
            _check_snf(m, r, det=det)
        with pytest.raises(AssertionError):
            smith_normal_form(m, det=det)
    singular = IntMatrix([[2, 4], [1, 2]])
    with pytest.raises(AssertionError):
        smith_normal_form(singular, det=0)


def test_snf_det_mode_requires_a_square_matrix():
    m = IntMatrix([[2, 4, 6], [3, 9, 1]])
    with pytest.raises(ValueError):
        smith_normal_form(m, det=1)
    with pytest.raises(ValueError):
        _check_snf(m, smith_normal_form(m), det=1)


def test_snf_check_rejects_corrupted_non_square_transforms():
    m = IntMatrix([[2, 4, 6], [3, 9, 1]])
    r = smith_normal_form(m)
    for field in ("u_inv", "v_inv"):
        bad = getattr(r, field).to_lists()
        bad[-1][0] -= 1
        with pytest.raises(AssertionError):
            _check_snf(m, r._replace(**{field: IntMatrix(bad)}))


def test_unimodularity_check_agrees_with_the_determinant():
    """_is_unimodular strikes off rows and columns with one entry before
    Bareiss; it must say |det| = 1 exactly when determinant does, on
    sparse random matrices and on unimodular ones built from elementary
    operations, permuted or not."""
    rng = Random(7)
    seen = {True: 0, False: 0}
    for _ in range(1500):
        n = rng.randint(1, 7)
        if rng.random() < 0.5:
            m = [[rng.choice([0, 0, 0, 1, -1, 2, 3]) for _ in range(n)]
                 for _ in range(n)]
        else:
            m = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(rng.randint(0, 3 * n)):
                i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
                if i != j:
                    c = rng.choice([-2, -1, 1, 3])
                    m[i] = [x + c * y for x, y in zip(m[i], m[j])]
            rng.shuffle(m)
            if rng.random() < 0.3:
                m[rng.randrange(n)][rng.randrange(n)] += 1
        m = IntMatrix(m)
        expected = abs(determinant(m)) == 1
        assert _is_unimodular(_sparse_rows(m)) == expected, m
        seen[expected] += 1
    assert min(seen.values()) >= 300, seen


def assert_snf_matches_dense(m, det=None):
    """Same pivots and same elementary operations as the dense oracle:
    d and u_inv agree entry for entry, and v_inv is the inverse of the
    oracle's V. With det, the determinant mode runs too and must give
    the same d, u_inv and v_inv."""
    r = smith_normal_form(m)
    dense = smith_normal_form_dense(m)
    assert (r.d, r.u_inv) == (dense.d, dense.u_inv)
    assert dense.v @ r.v_inv == IntMatrix.identity(m.cols)
    if det is not None:
        assert smith_normal_form(m, det=det) == r
    return r


def assert_graph_snf_matches_dense(g):
    """assert_snf_matches_dense on the intersection matrix of g, with
    the tree pass's determinant on a nondegenerate tree."""
    det = g.tree_form().determinant if g.is_tree() else 0
    return assert_snf_matches_dense(intersection_matrix(g), det or None)


def comb(spine, rng):
    """A path of valency-3 nodes, each with a tooth of two vertices,
    plus one leg at each end of the path."""
    vertices, edges = [], []
    for i in range(spine):
        node = "s%d" % i
        vertices.append(Vertex(node, -rng.randint(3, 4)))
        if i:
            edges.append(("s%d" % (i - 1), node))
        prev = node
        for j in range(2):
            vertices.append(Vertex("t%d_%d" % (i, j), -rng.randint(2, 4)))
            edges.append((prev, "t%d_%d" % (i, j)))
            prev = "t%d_%d" % (i, j)
    for leg, end in (("l", "s0"), ("r", "s%d" % (spine - 1))):
        vertices.append(Vertex(leg, -rng.randint(2, 4)))
        edges.append((end, leg))
    return ResolutionGraph(vertices, edges)


def test_snf_matches_dense_oracle_on_corpus(corpus, graphs_dir):
    graphs = list(corpus.values()) + [
        parse_graph(p.read_text(encoding="utf-8"))
        for p in sorted(graphs_dir.glob("*.graph"))
    ]
    trees = 0
    for g in graphs:
        assert_graph_snf_matches_dense(g)
        trees += g.is_tree() and g.tree_form().determinant != 0
    assert trees >= 30, trees


def test_snf_matches_dense_oracle_on_random_trees():
    sizes = []
    for seed in range(200):
        g = random_negative_definite_tree(Random(seed), max_vertices=100)
        assert_graph_snf_matches_dense(g)
        sizes.append(g.n)
    assert max(sizes) >= 95 and min(sizes) <= 5
    # the 96-vertex tree of the analyze target: the first draw from
    # Random(1) with at least 80 vertices
    rng = Random(1)
    g = random_negative_definite_tree(rng, max_vertices=100)
    while g.n < 80:
        g = random_negative_definite_tree(rng, max_vertices=100)
    assert g.n == 96
    assert_graph_snf_matches_dense(g)


def test_snf_matches_dense_oracle_on_chain_star_comb_families():
    rng = Random(2101)
    for n in (10, 17, 26, 40):
        assert_graph_snf_matches_dense(chain([-2] * n))
        assert_graph_snf_matches_dense(
            chain([-rng.randint(2, 4) for _ in range(n)])
        )
        arms = [[-rng.randint(2, 4) for _ in range((n - 1) // 3)]
                for _ in range(3)]
        assert_graph_snf_matches_dense(star(-3, arms))
        assert_graph_snf_matches_dense(comb(n // 3, rng))


def test_snf_matches_dense_oracle_on_random_matrices():
    rng = Random(2024)
    for _ in range(2000):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        bound = rng.choice([1, 2, 5, 30, 10**6])
        density = rng.choice([0.2, 0.5, 1.0])
        r = assert_snf_matches_dense(IntMatrix([
            [rng.randint(-bound, bound) if rng.random() < density else 0
             for _ in range(nc)]
            for _ in range(nr)
        ]))
        assert abs(determinant(r.v_inv)) == 1
    # [e * phases; e * I] over t leaves, as is_faithful stacks them
    for _ in range(300):
        k, t = rng.randint(1, 3), rng.randint(1, 6)
        e = rng.choice([2, 6, 12, 35, 360])
        rows = [[rng.randrange(e) for _ in range(t)] for _ in range(k)]
        rows += [[e if i == j else 0 for j in range(t)] for i in range(t)]
        assert_snf_matches_dense(IntMatrix(rows))


def test_abs_det_is_product_of_invariant_factors():
    rng = Random(11)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 5))
        prod = 1
        for x in smith_normal_form(m).diagonal:
            prod *= x
        d = determinant(m)
        if d != 0:
            assert abs(d) == prod


# -- rational inverse / solve -------------------------------------------------


def test_invert_identity():
    inv = RatMatrix(invert_rational(IntMatrix.identity(4)))
    assert inv == RatMatrix.identity(4)


def test_invert_minus_two():
    assert invert_rational(IntMatrix([[-2]])) == ((Fraction(-1, 2),),)


def test_invert_e7_denominators_divide_det():
    inv = invert_rational(E7)
    assert all(2 % x.denominator == 0 for row in inv for x in row)
    assert RatMatrix(inv) @ E7 == RatMatrix.identity(7)


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        invert_rational(IntMatrix([[1, 2], [2, 4]]))


def test_invert_random_roundtrip():
    rng = Random(23)
    done = 0
    while done < 15:
        m = random_matrix(rng, rng.randint(1, 5))
        if determinant(m) == 0:
            continue
        assert RatMatrix(invert_rational(m)) @ m == RatMatrix.identity(m.rows)
        done += 1


def test_solve_identity_and_1x1():
    assert solve_rational(IntMatrix.identity(3), [5, -7, 0]) == (
        Fraction(5),
        Fraction(-7),
        Fraction(0),
    )
    assert solve_rational(IntMatrix([[-2]]), [-2]) == (Fraction(1),)


def test_solve_random_multiply_back():
    rng = Random(31)
    done = 0
    while done < 15:
        n = rng.randint(1, 4)
        m = random_matrix(rng, n)
        if determinant(m) == 0:
            continue
        b = [rng.randint(-9, 9) for _ in range(n)]
        x = solve_rational(m, b)
        assert m.mul_vector(x) == tuple(Fraction(v) for v in b)
        done += 1


def test_solve_fraction_right_hand_side():
    m = IntMatrix([[-2, 1], [1, -3]])
    b = [Fraction(1, 3), Fraction(-5, 2)]
    x = solve_rational(m, b)
    assert m.mul_vector(x) == tuple(b)
    assert x == solve_rational_fraction_gauss(m, b)
    assert solve_rational(IntMatrix([[3]]), [Fraction(2, 7)]) == (
        Fraction(2, 21),
    )


def test_adjugate_of_e7():
    det, adj = adjugate(E7)
    assert abs(det) == 2
    assert E7 @ adj == IntMatrix(
        [[det if i == j else 0 for j in range(7)] for i in range(7)]
    )


def random_symmetric(rng, n, lo=-6, hi=6):
    half = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    return [
        [half[i][j] if i <= j else half[j][i] for j in range(n)]
        for i in range(n)
    ]


def random_singular_symmetric(rng, n):
    """Symmetric and singular: a random symmetric matrix whose last row
    and column repeat the first, or A^T D A with A of rank < n."""
    if n > 1 and rng.random() < 0.5:
        m = random_symmetric(rng, n)
        m[-1] = list(m[0])
        for row in m:
            row[-1] = row[0]
        return m
    rank = rng.randint(0, n - 1)
    a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
    dd = [rng.choice((-2, -1, 1, 2)) for _ in range(rank)]
    return [
        [sum(a[k][i] * dd[k] * a[k][j] for k in range(rank))
         for j in range(n)]
        for i in range(n)
    ]


def random_negative_definite(rng, n):
    """-(A^T A + I), so negative definite."""
    a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    return [
        [-sum(a[k][i] * a[k][j] for k in range(n)) - (i == j)
         for j in range(n)]
        for i in range(n)
    ]


def test_kernel_matches_fraction_oracles_on_symmetric_matrices():
    rng = Random(2024)
    seen = {"definite": 0, "indefinite": 0, "singular": 0}
    for _ in range(240):
        n = rng.randint(1, 8)
        kind = rng.choice(("definite", "random", "singular"))
        if kind == "definite":
            rows = random_negative_definite(rng, n)
        elif kind == "singular":
            rows = random_singular_symmetric(rng, n)
        else:
            rows = random_symmetric(rng, n)
        m = IntMatrix(rows)
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(n)]
        verdict = is_negative_definite(m)
        assert verdict == is_negative_definite_minors(m)
        if determinant(m) == 0:
            seen["singular"] += 1
            for f in (invert_rational, invert_rational_fraction_gauss,
                      adjugate):
                with pytest.raises(SingularMatrixError):
                    f(m)
            for f in (solve_rational, solve_rational_fraction_gauss):
                with pytest.raises(SingularMatrixError):
                    f(m, b)
            assert not verdict
            continue
        seen["definite" if verdict else "indefinite"] += 1
        assert invert_rational(m) == invert_rational_fraction_gauss(m).entries
        assert solve_rational(m, b) == solve_rational_fraction_gauss(m, b)
    assert min(seen.values()) >= 30, seen


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        solve_rational(IntMatrix([[1, 1], [1, 1]]), [1, 2])


# -- negative definiteness ----------------------------------------------------


def test_no_floating_point_entries():
    with pytest.raises(ValueError):
        IntMatrix([[1.5]])
    with pytest.raises(ValueError):
        RatMatrix([[0.1]])
    assert RatMatrix([["1/3"]])[0, 0] == Fraction(1, 3)


def test_negative_definite_basics():
    assert is_negative_definite(IntMatrix([[-2]]))
    assert is_negative_definite(E7)
    assert not is_negative_definite(IntMatrix([[-1, 2], [2, -1]]))


def test_negative_definite_rejects_non_symmetric():
    with pytest.raises(ValueError):
        is_negative_definite(IntMatrix([[1, 2], [0, 1]]))


def test_negative_definite_against_charpoly_and_sampling_oracles():
    rng = Random(5)
    agree_true = agree_false = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        half = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        sym = [
            [half[i][j] if i <= j else half[j][i] for j in range(n)]
            for i in range(n)
        ]
        m = IntMatrix(sym)
        got = is_negative_definite(m)
        assert got == is_negative_definite_charpoly(sym)
        if got:
            assert not quadratic_form_refutes_negdef(sym, rng)
            agree_true += 1
        else:
            agree_false += 1
    assert agree_true > 5 and agree_false > 5  # suite saw both outcomes


# -- sparse solve of underdetermined systems -------------------------------


def _random_system(rng):
    """A dense [A | b] of Fractions: wide or tall, sparse, sometimes
    rank-deficient (a row or column a combination of others), with zero
    rows and columns, and b either A @ x0 (consistent) or random."""
    nrows, ncols = rng.randint(0, 9), rng.randint(0, 9)
    density = rng.choice((0.15, 0.3, 0.6))

    def entry():
        if rng.random() >= density:
            return Fraction(0)
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 7)))

    a = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 3 and rng.random() < 0.3:
        i, j, k = rng.sample(range(nrows), 3)
        f, g = Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3))
        a[k] = [f * x + g * y for x, y in zip(a[i], a[j])]
    if ncols >= 2 and rng.random() < 0.3:
        j, k = rng.sample(range(ncols), 2)
        f = Fraction(rng.randint(-3, 3), rng.choice((1, 5)))
        for row in a:
            row[k] = f * row[j]
    if nrows and rng.random() < 0.2:
        a[rng.randrange(nrows)] = [Fraction(0)] * ncols
    if ncols and rng.random() < 0.2:
        k = rng.randrange(ncols)
        for row in a:
            row[k] = Fraction(0)
    if rng.random() < 0.6:
        x0 = [entry() for _ in range(ncols)]
        b = [sum((x * y for x, y in zip(row, x0)), Fraction(0)) for row in a]
    else:
        b = [entry() for _ in range(nrows)]
    return [row + [c] for row, c in zip(a, b)], nrows, ncols


def test_solve_sparse_matches_fraction_gauss_jordan():
    """The same solution vector (free unknowns zero), or None on exactly
    the systems the former dense Gauss-Jordan solve rejects."""
    rng = Random(41)
    solved = rejected = wide = tall = 0
    for _ in range(3000):
        a, nrows, ncols = _random_system(rng)
        rows = [
            _integer_row({j: x for j, x in enumerate(row) if x}) for row in a
        ]
        frozen = [dict(row) for row in rows]
        got = solve_sparse(rows, ncols)
        assert rows == frozen  # the input rows are not modified
        expected = solve_underdetermined_fraction_gauss(
            [list(row) for row in a], nrows, ncols
        )
        assert got == expected, (a, nrows, ncols)
        if got is None:
            rejected += 1
        else:
            solved += 1
            assert all(type(x) is Fraction for x in got)
        wide += ncols > nrows
        tall += nrows > ncols
    assert solved >= 1000 and rejected >= 500, (solved, rejected)
    assert wide >= 500 and tall >= 500, (wide, tall)


def test_solve_sparse_edge_cases():
    assert solve_sparse([], 3) == [0, 0, 0]
    assert solve_sparse([], 0) == []
    assert solve_sparse([{0: 5}], 0) is None  # 0 = 5
    assert solve_sparse([{}, {1: 2, 2: 3}], 2) == [0, Fraction(3, 2)]
    # x + y = 1 and 2x + 2y = 3 are inconsistent
    assert solve_sparse([{0: 1, 1: 1, 2: 1}, {0: 2, 1: 2, 2: 3}], 2) is None
    # the first independent column is the pivot: x + y = 1 gives x = 1
    assert solve_sparse([{0: 1, 1: 1, 2: 1}, {0: 2, 1: 2, 2: 2}], 2) == [1, 0]
