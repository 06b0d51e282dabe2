"""Independent oracles the test suite checks the library against.

Each oracle recomputes a quantity by a different method than the
implementation under test: cofactor expansion for determinants, minor
gcds for invariant factors, the characteristic polynomial for
definiteness, exhaustive box search for fundamental cycles, and a
coin-problem DP for semigroup membership, and a walk over every group
element for the faithfulness of the leaf action. The dense Fraction
Gauss-Jordan inverse and solve, and the n-determinant leading-minor
definiteness test, are the library's former implementations, kept
verbatim to cross-check the fraction-free kernel that replaced them.
Likewise the Fraction-valued characters, the breadth-first generator
search, the Polynomial-built relations and the Fraction-keyed
congruence search cross-check the integer-residue invariant layer.
The dense Smith normal form, with its dense U*M*V = D and Bareiss
|det V| = 1 self-check, is the library's former implementation, kept
verbatim: the sparse one must make the same pivot choices and the same
elementary operations, so its transforms agree entry for entry.
The dense Fraction Gauss-Jordan solve of bounded ideal membership is
the library's former implementation, kept verbatim: the sparse
fraction-free solve must return the same solution vector, and fail on
the same systems.
The capped recursive witness search is the library's former
implementation, kept verbatim: a prefix of the lazy witness stream must
equal its list at every cap.
The polynomial parser that builds its result by Polynomial arithmetic
(a constant or a variable power per factor, products and sums) is the
library's former implementation, kept verbatim: the term-map parser
must return the same Polynomial, or raise the same ParseError.
The random-tree generator that builds and validates a ResolutionGraph
for every weighting it tries is the library's former implementation,
kept verbatim: the generator that tries weight lists on one adjacency
must draw the same trees with the same calls on its Random.
The (-1)-blow-down that rescans every edge for the valency of every
candidate is the library's former implementation, kept verbatim: the
one that counts valencies once per contraction must return the same
graph, or raise the same error.
The rational-tree generator draws inputs whose answer is known without
sforge: every weight at most -max(2, valency) makes a rational, minimal
tree, so by Okuma's theorem its splice equations exist.
The induced subgraph and a generator's monomial as a Polynomial were
library methods that only the tests called: branch determinants are
checked against the dense determinant of the branch's own graph, and
relations by substituting the generators' monomials.
RatMatrix, a dense matrix of Fractions, was the library's second matrix
type, and IntMatrix / d built one: it carries the Fraction Gauss-Jordan
inverse, and checks invert_rational's rows by M^-1 @ M = I.
"""

from fractions import Fraction
from math import gcd
from itertools import combinations, combinations_with_replacement, product
from operator import mul
from random import Random
from typing import NamedTuple

import numpy as np

from sforge import (
    IntMatrix,
    NonMinimalRepresentableError,
    Polynomial,
    ResolutionGraph,
    SingularMatrixError,
    Vertex,
    determinant,
)
from sforge.graph import intersection_matrix
from sforge.errors import ParseError
from sforge.invariants import InvariantBasis, _names, check_order_cap
from sforge.poly import _tokens, _unexpected


class RatMatrix:
    """Immutable dense matrix of exact rationals (lowest terms); float
    entries are refused."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(tuple(map(self._cast, row)) for row in entries)

    @staticmethod
    def _cast(x):
        if isinstance(x, float):
            raise ValueError("floating point entry %r rejected" % x)
        return Fraction(x)

    @classmethod
    def identity(cls, n):
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return type(self) is type(other) and self.entries == other.entries

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def __matmul__(self, other):
        """The product with a RatMatrix or an IntMatrix on the right."""
        if len(self.entries[0]) != len(other.entries):
            raise ValueError("shape mismatch")
        cols = list(zip(*other.entries))
        return RatMatrix([[sum(map(mul, row, col)) for col in cols]
                          for row in self.entries])


def det_cofactor(rows):
    """Determinant by first-row cofactor expansion (exponential)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j, a in enumerate(rows[0]):
        if a == 0:
            continue
        minor = [
            [row[k] for k in range(n) if k != j] for row in rows[1:]
        ]
        total += (-1) ** j * a * det_cofactor(minor)
    return total


def invariant_factors_minor_gcd(rows):
    """Invariant factors via gcds of k x k minors: d_k = gcd of all
    k-minors, factor_k = d_k / d_{k-1}; zeros once the rank is passed."""
    nr, nc = len(rows), len(rows[0])
    r = min(nr, nc)
    dk = [1]
    for k in range(1, r + 1):
        g = 0
        for ri in combinations(range(nr), k):
            for ci in combinations(range(nc), k):
                minor = det_cofactor(
                    [[rows[i][j] for j in ci] for i in ri]
                )
                g = gcd(g, abs(minor))
        dk.append(g)
        if g == 0:
            break
    factors = []
    for k in range(1, len(dk)):
        if dk[k] == 0:
            factors.append(0)
        else:
            factors.append(dk[k] // dk[k - 1])
    factors += [0] * (r - len(factors))
    return tuple(factors)


def charpoly_coefficients(rows):
    """Coefficients (c_1..c_n) with det(xI - M) = x^n + sum c_k x^{n-k},
    by the Faddeev-LeVerrier recursion, exact."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    ak = [row[:] for row in m]
    coeffs = []
    for k in range(1, n + 1):
        ck = -sum(ak[i][i] for i in range(n)) / k
        coeffs.append(ck)
        if k == n:
            break
        for i in range(n):
            ak[i][i] += ck
        ak = [
            [
                sum(m[i][l] * ak[l][j] for l in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def is_negative_definite_charpoly(rows):
    """Symmetric M is negative definite iff det(xI - M) has all
    coefficients positive (all roots then lie in x < 0)."""
    return all(c > 0 for c in charpoly_coefficients(rows))


def quadratic_form_refutes_negdef(rows, rng, samples=50):
    """Random integer vectors x with x^T M x >= 0 disprove negative
    definiteness; returns True if a refutation was found."""
    n = len(rows)
    for _ in range(samples):
        x = [rng.randint(-4, 4) for _ in range(n)]
        if all(v == 0 for v in x):
            continue
        q = sum(rows[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if q >= 0:
            return True
    return False


_BOX_CACHE = {}


def _box(n, bound):
    key = (n, bound)
    if key not in _BOX_CACHE:
        grids = np.meshgrid(*([np.arange(1, bound + 1)] * n), indexing="ij")
        _BOX_CACHE[key] = np.stack(grids).reshape(n, -1).T
    return _BOX_CACHE[key]


def fundamental_cycle_bruteforce(g, bound=10):
    """Componentwise-minimal z in [1, bound]^n with M z <= 0, or None
    when no such cycle fits in the box. Entries stay far inside int64."""
    m = np.array(intersection_matrix(g).to_lists(), dtype=np.int64)
    n = m.shape[0]
    box = _box(n, bound)
    ok = box[(box @ m.T <= 0).all(axis=1)]
    if len(ok) == 0:
        return None
    least = ok.min(axis=0)
    # the anti-nef cycles >= (1,..,1) are closed under componentwise
    # minimum, so the minimum vector must itself be a candidate
    assert (least @ m.T <= 0).all()
    return tuple(int(v) for v in least)


def coin_membership_dp(target, coins):
    """Is target a nonnegative integer combination of the coins?"""
    reachable = [False] * (target + 1)
    reachable[0] = True
    for c in coins:
        for s in range(c, target + 1):
            if reachable[s - c]:
                reachable[s] = True
    return reachable[target]


def _bounded_representations(target, leaves, links, cap):
    """All alpha >= 0 with sum alpha_i * links_i == target, as dicts
    keyed by leaf id (zero exponents omitted), lexicographic order."""
    sols = []

    def rec(idx, remaining, acc):
        if len(sols) >= cap:
            return
        if idx == len(leaves):
            if remaining == 0 and acc:
                sols.append(dict(acc))
            return
        if idx == len(leaves) - 1:
            # last coordinate is forced
            l = links[idx]
            if remaining == 0:
                rec(idx + 1, 0, acc)
            elif remaining % l == 0:
                acc.append((leaves[idx], remaining // l))
                rec(idx + 1, 0, acc)
                acc.pop()
            return
        l = links[idx]
        for a in range(remaining // l + 1):
            if a:
                acc.append((leaves[idx], a))
            rec(idx + 1, remaining - a * l, acc)
            if a:
                acc.pop()
            if len(sols) >= cap:
                return  # later alpha only extend the list past the cap

    rec(0, target, [])
    return sols


def invert_rational_fraction_gauss(m: IntMatrix) -> RatMatrix:
    """Exact inverse of a nonsingular integer matrix."""
    if not m.is_square:
        raise ValueError("inverse requires a square matrix")
    n = m.rows
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m.entries)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        a[k], a[pivot] = a[pivot], a[k]
        p = a[k][k]
        a[k] = [x / p for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                c = a[i][k]
                a[i] = [x - c * y for x, y in zip(a[i], a[k])]
    inv = RatMatrix([row[n:] for row in a])
    if (inv @ m) != RatMatrix.identity(n):
        raise AssertionError("inverse verification failed")
    return inv


def is_negative_definite_minors(m: IntMatrix) -> bool:
    """Leading-principal-minor test: (-1)^k * minor_k > 0 for all k."""
    if not m.is_square:
        raise ValueError("definiteness requires a square matrix")
    if not m.is_symmetric():
        raise ValueError("definiteness requires a symmetric matrix")
    for k in range(1, m.rows + 1):
        minor = determinant(IntMatrix([row[:k] for row in m.entries[:k]]))
        if (-1) ** k * minor <= 0:
            return False
    return True


def solve_rational_fraction_gauss(m: IntMatrix, b) -> tuple:
    """Exact solution x of m @ x = b for nonsingular square m."""
    if not m.is_square:
        raise ValueError("solve requires a square matrix")
    if len(b) != m.rows:
        raise ValueError("right-hand side has wrong length")
    n = m.rows
    a = [[Fraction(x) for x in row] + [Fraction(b[i])]
         for i, row in enumerate(m.entries)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        a[k], a[pivot] = a[pivot], a[k]
        p = a[k][k]
        a[k] = [x / p for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                c = a[i][k]
                a[i] = [x - c * y for x, y in zip(a[i], a[k])]
    x = tuple(a[i][n] for i in range(n))
    if m.mul_vector(x) != tuple(Fraction(c) for c in b):
        raise AssertionError("solve verification failed")
    return x


def solve_underdetermined_fraction_gauss(a, nrows, ncols):
    """Gaussian elimination on [A | b]; one solution with free unknowns
    set to zero, or None when inconsistent."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if a[i][ncols]:
            return None
    solution = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        solution[c] = a[i][ncols]
    return solution


def group_elements(chars) -> dict:
    """Phase vector on the leaves of every element of the group of a
    CharacterAssignment, keyed by the exponent tuple over the
    generators (|G| entries)."""
    out = {}
    ranges = [range(d) for d in chars.generator_orders]
    for coeffs in product(*ranges):
        phases = []
        for w in range(len(chars.leaf_ids)):
            total = Fraction(0)
            for c, row in zip(coeffs, chars.phases):
                total += c * row[w]
            phases.append(total % 1)
        out[coeffs] = tuple(phases)
    return out


def is_faithful_by_enumeration(chars) -> bool:
    """Faithfulness as distinct phase vectors for distinct elements."""
    seen = set()
    for phases in group_elements(chars).values():
        if phases in seen:
            return False
        seen.add(phases)
    return True


def monomial_character_by_fractions(chars, exponents) -> tuple:
    """Character of prod z_w^alpha(w) as Fractions in [0,1), summed
    from the phases."""
    out = []
    for row in chars.phases:
        total = Fraction(0)
        for vid, alpha in exponents.items():
            total += alpha * row[chars.leaf_ids.index(vid)]
        out.append(total % 1)
    return tuple(out)


def generator_monomial(basis, i) -> Polynomial:
    """Generator i of an InvariantBasis as a monomial in its variables."""
    return Polynomial(basis.variables, {basis.exponents[i]: 1})


def invariant_generators_by_search(chars, order) -> InvariantBasis:
    """Breadth-first search over degrees 1..order with Fraction
    characters, pruning every monomial divisible by a generator found
    so far by a scan over all of them."""
    check_order_cap(order)
    variables = chars.leaf_ids
    t = len(variables)
    zero_char = (Fraction(0),) * len(chars.generator_orders)

    def char_of(exps):
        return monomial_character_by_fractions(
            chars, {v: e for v, e in zip(variables, exps) if e}
        )

    gens = []
    frontier = [(0,) * t]
    for _degree in range(1, order + 1):
        candidates = set()
        for exps in frontier:
            for i in range(t):
                cand = exps[:i] + (exps[i] + 1,) + exps[i + 1:]
                candidates.add(cand)
        frontier = []
        for exps in sorted(candidates):
            if any(all(a >= b for a, b in zip(exps, g)) for g in gens):
                continue
            if char_of(exps) == zero_char:
                gens.append(exps)
            else:
                frontier.append(exps)
        if not frontier:
            break
    gens.sort()
    return InvariantBasis(
        variables=variables, exponents=tuple(gens), names=_names(len(gens))
    )


def toric_relations_by_polynomials(basis, degree_bound) -> list:
    """All binomials G^a - G^b with disjoint supports and equal images,
    from dense exponent vectors and Polynomial arithmetic."""
    k = len(basis.exponents)
    images = {}
    for degree in range(1, degree_bound + 1):
        for combo in combinations_with_replacement(range(k), degree):
            exps = [0] * k
            for i in combo:
                exps[i] += 1
            image = [0] * len(basis.variables)
            for i, e in enumerate(exps):
                if e:
                    for j, x in enumerate(basis.exponents[i]):
                        image[j] += e * x
            images.setdefault(tuple(image), []).append(tuple(exps))
    relations = []
    for image in sorted(images):
        group = images[image]
        for a, b in combinations(sorted(group), 2):
            if any(x and y for x, y in zip(a, b)):
                continue
            hi, lo = max(a, b), min(a, b)
            relations.append(Polynomial(basis.names, {hi: 1, lo: -1}))
    return relations


def exponent_key(diagram, exponents):
    """An exponent map as a tuple over diagram.leaves, zero where the
    map has no entry: lexicographic order of witnesses."""
    return tuple(exponents.get(w, 0) for w in diagram.leaves)


def congruence_by_fractions(diagram, witness, chars):
    """(node_characters, node_monomials, failures) of the congruence
    condition, with the characters compared as Fraction tuples."""
    node_characters, node_monomials, failures = {}, {}, []
    for v in diagram.nodes:
        edges = diagram.incident_edges(v)
        per_edge = []
        for e in edges:
            sols = sorted(
                witness.solutions[(v, e.index)],
                key=lambda a: exponent_key(diagram, a),
            )
            char_map = {}
            for a in sols:
                char_map.setdefault(
                    monomial_character_by_fractions(chars, a), a
                )
            per_edge.append(char_map)
        common = set(per_edge[0])
        for cm in per_edge[1:]:
            common &= set(cm)
        if not common:
            failures.append(v)
            continue
        chosen = min(common)
        node_characters[v] = chosen
        node_monomials[v] = {
            diagram.direction_label(v, e): cm[chosen]
            for e, cm in zip(edges, per_edge)
        }
    return node_characters, node_monomials, tuple(failures)


class DenseSnf(NamedTuple):
    """U @ m @ V = D with U^-1, as the dense oracle returns them."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix

    @property
    def diagonal(self):
        return tuple(
            self.d[i, i] for i in range(min(self.d.rows, self.d.cols))
        )


def snf_is_certified(m, r):
    """Does the SnfResult r give m = U^-1 @ D @ V^-1 with |det U^-1| =
    |det V^-1| = 1, by dense products and Bareiss? Then U and V are
    integer matrices and U @ m @ V = D."""
    return (r.u_inv @ r.d @ r.v_inv == m
            and abs(determinant(r.u_inv)) == abs(determinant(r.v_inv)) == 1)


def smith_normal_form_dense(m: IntMatrix) -> DenseSnf:
    """Smith normal form with transforms, U @ m @ V = D.

    Pivot selection: smallest nonzero absolute value in the remaining
    block, ties broken by lowest (row, col) index, so outputs are
    deterministic. U^{-1} is tracked beside U: each row operation on U
    is undone by the inverse column operation on U^{-1}. The returned
    result is verified by multiplication before it leaves this function.
    """
    a = m.to_lists()
    nr, nc = m.rows, m.cols
    u = IntMatrix.identity(nr).to_lists()
    u_inv = IntMatrix.identity(nr).to_lists()
    v = IntMatrix.identity(nc).to_lists()

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]
            for row in u_inv:
                row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row_dst += c * row_src
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]
        for row in u_inv:
            row[src] -= c * row[dst]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for row in u_inv:
            row[i] = -row[i]

    def find_pivot(t):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(nr, nc):
        pos = find_pivot(t)
        if pos is None:
            break
        while True:
            swap_rows(t, pos[0])
            swap_cols(t, pos[1])
            if a[t][t] < 0:
                negate_row(t)
            p = a[t][t]
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    add_row(t, i, -(a[i][t] // p))
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    add_col(t, j, -(a[t][j] // p))
                    if a[t][j] != 0:
                        dirty = True
            if dirty:
                pos = find_pivot(t)
                continue
            # enforce the divisibility chain: fold any bad entry into row t
            bad = next(
                ((i, j) for i in range(t + 1, nr) for j in range(t + 1, nc)
                 if a[i][j] % p != 0),
                None,
            )
            if bad is None:
                break
            add_row(bad[0], t, 1)
            pos = find_pivot(t)
        t += 1

    d = [[a[i][j] if i == j else 0 for j in range(nc)] for i in range(nr)]
    result = DenseSnf(
        IntMatrix(u), IntMatrix(d), IntMatrix(v), IntMatrix(u_inv)
    )
    _check_snf_dense(m, result)
    return result


def _check_snf_dense(m, result):
    if (result.u @ m @ result.v).entries != result.d.entries:
        raise AssertionError("SNF verification failed: U*M*V != D")
    # an integer U with an integer inverse is unimodular
    if result.u @ result.u_inv != IntMatrix.identity(m.rows):
        raise AssertionError("SNF verification failed: U*U^-1 != I")
    if abs(determinant(result.v)) != 1:
        raise AssertionError("SNF transform not unimodular")
    diag = result.diagonal
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            raise AssertionError("zero invariant factor before a nonzero one")
        if x != 0 and y % x != 0:
            raise AssertionError("divisibility chain broken")
    if any(x < 0 for x in diag):
        raise AssertionError("negative diagonal in SNF")


def parse_polynomial_by_arithmetic(text, variables):
    """Parse ASCII math like '2*x^2*y - 3/2*z + 1' over the given
    variables, one Polynomial per factor, multiplied and added; a sign
    is a constant factor."""
    variables = tuple(variables)
    constant = (0,) * len(variables)
    tokens = _tokens(text)
    i = 0

    def factor():
        nonlocal i
        kind, value = tokens[i]
        i += 1
        if kind == "num":
            try:
                return Polynomial(variables, {constant: Fraction(value)})
            except ZeroDivisionError:
                raise ParseError("zero denominator in %r" % value) from None
        if kind != "name":
            raise _unexpected((kind, value))
        if value not in variables:
            raise ParseError("unknown variable %r" % value)
        exp = 1
        if tokens[i] == ("op", "^"):
            kind, digits = tokens[i + 1]
            if kind != "num":
                raise ParseError("expected exponent after '^'")
            if "/" in digits:
                raise ParseError(
                    "exponent %r is not a nonnegative integer" % digits
                )
            exp = int(digits)
            i += 2
        exps = list(constant)
        exps[variables.index(value)] = exp
        return Polynomial(variables, {tuple(exps): 1})

    def term():
        nonlocal i
        out = factor()
        while tokens[i] == ("op", "*"):
            i += 1
            out = out * factor()
        return out

    sign = 1
    if tokens[0] == ("op", "-"):
        sign = -1
        i = 1
    result = Polynomial(variables, {constant: sign}) * term()
    while tokens[i] in (("op", "+"), ("op", "-")):
        sign = 1 if tokens[i][1] == "+" else -1
        i += 1
        result = result + Polynomial(variables, {constant: sign}) * term()
    if tokens[i] != (None, None):
        raise _unexpected(tokens[i])
    return result


def random_negative_definite_tree_by_graphs(rng: Random, max_vertices=10):
    """Random negative-definite tree with 1..max_vertices vertices.

    Starts from a diagonally dominant weighting (weight = -valency -
    extra, dominance strict somewhere), which is always negative
    definite, then greedily raises some weights toward -1 while the
    form stays negative definite (by the tree pass), so that
    non-dominant shapes (like -1 star centers) also occur.
    """
    n = rng.randint(1, max_vertices)
    ids = ["v%d" % i for i in range(n)]
    edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n)]
    valency = {i: 0 for i in ids}
    for a, b in edges:
        valency[a] += 1
        valency[b] += 1
    weights = {
        i: -valency[i] - rng.choice([0, 1, 1, 2, 3]) for i in ids
    }
    worst = min(weights, key=lambda i: weights[i])
    if weights[worst] == -valency[worst]:
        weights[worst] -= 1
    if any(w > -1 for w in weights.values()):  # isolated vertex, valency 0
        for i in ids:
            weights[i] = min(weights[i], -1)

    def graph():
        return ResolutionGraph(
            [Vertex(i, weights[i]) for i in ids], edges
        )

    g = graph()
    assert g.is_negative_definite()
    for _ in range(n):
        i = rng.choice(ids)
        if weights[i] >= -1:
            continue
        weights[i] += rng.randint(1, -weights[i] - 1) if weights[i] < -2 else 1
        candidate = graph()
        if candidate.is_negative_definite():
            g = candidate
        else:
            weights[i] = g.vertices[g.index_of(i)].weight
    return g


def random_rational_tree(rng: Random, min_vertices, max_vertices):
    """Random tree of min_vertices..max_vertices vertices, each of
    weight -max(2, valency) - rng.choice([0, 0, 1]). A tree with every
    weight at most -max(2, valency) is rational (Artin's criterion;
    Laufer, Amer. J. Math. 94, 1972) and minimal, with no (-1)-curve."""
    n = rng.randint(min_vertices, max_vertices)
    ids = ["v%d" % i for i in range(n)]
    edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n)]
    valency = {i: 0 for i in ids}
    for a, b in edges:
        valency[a] += 1
        valency[b] += 1
    return ResolutionGraph(
        [Vertex(i, -max(2, valency[i]) - rng.choice([0, 0, 1]))
         for i in ids],
        edges,
    )


def induced_subgraph(g: ResolutionGraph, vertex_ids) -> ResolutionGraph:
    """The subgraph of g on the given vertex ids, which must stay
    connected; weights are taken as they are, of any sign."""
    keep = set(vertex_ids)
    return ResolutionGraph._from_parts(
        [v for v in g.vertices if v.id in keep],
        [(a, b) for a, b in g.edges if a in keep and b in keep],
    )


def blow_down_minimal_by_rescans(g: ResolutionGraph) -> ResolutionGraph:
    """Contract genus-0 (-1)-vertices of valency <= 2 until none remain.

    Plumbing rules: valency 0 -> delete; valency 1 -> delete and add +1
    to the neighbor; valency 2 -> delete, join the neighbors, add +1 to
    each. Each step preserves |det| of the intersection matrix and
    negative definiteness. A lone final vertex is never deleted. If a
    weight >= 0 vertex survives in a multi-vertex end state (possible
    only for inputs that were not negative definite), the graph has no
    minimal representative under these moves alone. When nothing
    contracts, the result is g itself.
    """
    if not g.is_tree():
        raise ValueError("blow-down is implemented for trees only")
    verts = [
        {"id": v.id, "weight": v.weight, "genus": v.genus} for v in g.vertices
    ]
    edges = [list(e) for e in g.edges]

    def valency(vid):
        return sum(1 for a, b in edges if vid in (a, b))

    while len(verts) > 1:
        target = next(
            (
                v
                for v in verts
                if v["genus"] == 0 and v["weight"] == -1 and valency(v["id"]) <= 2
            ),
            None,
        )
        if target is None:
            break
        vid = target["id"]
        nbrs = [b if a == vid else a for a, b in edges if vid in (a, b)]
        verts = [v for v in verts if v["id"] != vid]
        edges = [e for e in edges if vid not in e]
        for v in verts:
            if v["id"] in nbrs:
                v["weight"] += 1
        if len(nbrs) == 2:
            edges.append(nbrs)
    if len(verts) > 1 and any(v["weight"] >= 0 for v in verts):
        raise NonMinimalRepresentableError(
            "blow-down left a weight >= 0 vertex; graph has no minimal "
            "representative under (-1)-contractions"
        )
    if len(verts) == g.n:
        return g  # nothing contracted: g keeps its memoized stages
    return ResolutionGraph._from_parts(
        [Vertex(v["id"], v["weight"], v["genus"]) for v in verts],
        [tuple(e) for e in edges],
    )
