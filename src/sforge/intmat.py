"""Exact integer and rational dense matrices.

Everything here is exact: IntMatrix holds arbitrary-precision Python
ints, RatMatrix holds fractions.Fraction in lowest terms. No floating
point is used anywhere in the package. Matrices are immutable after
construction and safe to share between threads.

All elimination runs in integers through one fraction-free kernel,
Bareiss forward elimination (Math. Comp. 22, 1968): every intermediate
entry is a minor of the input, so each division is exact and entries
grow only as fast as the minors do.

- determinant: the last pivot of a pass with row pivoting.
- is_negative_definite: the pivots of a pass without pivoting, which
  are the leading principal minors.
- adjugate, invert_rational, solve_rational: a pass over [M | RHS] and
  an exact back substitution give det(M) and R with
  M @ R = det(M) * RHS; fractions are formed only at the end.
- smith_normal_form: elementary row/column reduction with
  smallest-pivot selection, tracking U, its inverse and V.

Every result is verified by an exact integer multiplication before it
is returned.

Resolution graphs that are trees do not come here: sforge.graph's
TreeForm gives their determinant, definiteness, branch determinants and
solves in one leaf-first pass. Dense elimination serves only graphs with
cycles (in `analyze`), the Smith normal form and its self-check, and the
generic-coefficient minors of sforge.equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import SingularMatrixError

__all__ = [
    "IntMatrix",
    "RatMatrix",
    "SnfResult",
    "adjugate",
    "determinant",
    "smith_normal_form",
    "invert_rational",
    "is_negative_definite",
    "solve_rational",
]


class _Matrix:
    __slots__ = ("entries",)

    def __init__(self, entries, cast):
        rows = tuple(tuple(map(cast, row)) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self.entries = rows

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0])

    @property
    def is_square(self):
        return self.rows == self.cols

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return type(self) is type(other) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return "%s[%s]" % (type(self).__name__, body)

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def to_lists(self):
        return [list(row) for row in self.entries]


class IntMatrix(_Matrix):
    """Immutable dense matrix of arbitrary-precision integers."""

    def __init__(self, entries):
        super().__init__(entries, self._cast)

    @staticmethod
    def _cast(x):
        if type(x) is int:
            return x
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError("non-integer entry %s" % x)
            return int(x)
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError("non-integer entry %r" % (x,))
        return x

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def transpose(self):
        return IntMatrix(list(zip(*self.entries)))

    def is_symmetric(self):
        return self.is_square and self.entries == tuple(zip(*self.entries))

    def is_diagonal(self):
        return all(
            x == 0
            for i, row in enumerate(self.entries)
            for j, x in enumerate(row)
            if i != j
        )

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            cols = list(zip(*other.entries))
            return IntMatrix(
                [[sum(map(mul, row, col)) for col in cols]
                 for row in self.entries]
            )
        return NotImplemented

    def mul_vector(self, v):
        """Matrix times column vector, exact."""
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(sum(map(mul, row, v)) for row in self.entries)

    def to_rational(self):
        return RatMatrix(self.entries)

    def __truediv__(self, d):
        """Exact quotient by a nonzero integer, as a RatMatrix."""
        return RatMatrix(
            [[Fraction(x, d) for x in row] for row in self.entries]
        )


class RatMatrix(_Matrix):
    """Immutable dense matrix of exact rationals (lowest terms)."""

    def __init__(self, entries):
        super().__init__(entries, self._cast)

    @staticmethod
    def _cast(x):
        if type(x) is Fraction:
            return x
        if isinstance(x, float):
            raise ValueError("floating point entry %r rejected" % x)
        return Fraction(x)

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __matmul__(self, other):
        if isinstance(other, (RatMatrix, IntMatrix)):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            cols = list(zip(*other.entries))
            return RatMatrix(
                [[sum((Fraction(a) * b for a, b in zip(row, col)), Fraction(0))
                  for col in cols]
                 for row in self.entries]
            )
        return NotImplemented

    def is_integral(self):
        return all(x.denominator == 1 for row in self.entries for x in row)

    def to_int(self):
        if not self.is_integral():
            raise ValueError("matrix has non-integer entries")
        return IntMatrix([[int(x) for x in row] for row in self.entries])

    def mul_vector(self, v):
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(
            sum((a * Fraction(b) for a, b in zip(row, v)), Fraction(0))
            for row in self.entries
        )


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form U @ m @ V = D.

    U, V are unimodular and u_inv is the inverse of U; D is diagonal
    with nonnegative entries, each dividing the next, zeros (if any)
    last.
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix

    @property
    def diagonal(self):
        return tuple(
            self.d[i, i] for i in range(min(self.d.rows, self.d.cols))
        )

    @property
    def invariant_factors(self):
        """The nonzero diagonal entries, in divisibility order."""
        return tuple(x for x in self.diagonal if x != 0)


def _bareiss(rows, pivoting):
    """Fraction-free forward elimination (Bareiss) of integer rows.

    Yields the pivot row of each step, cut to start at its pivot; one
    step per row. Every entry of the working block is a minor of the
    input, so each division is exact.

    Without pivoting, the pivot of step k is the k-th leading principal
    minor. With pivoting, a zero pivot is replaced by the first row
    below with a nonzero lead, negated, which keeps every minor's sign:
    the pivot of the last step of a square matrix is its determinant.
    A zero pivot (no row left to swap in) ends the pass.
    """
    a = [list(row) for row in rows]
    prev = 1
    while a:
        if pivoting and a[0][0] == 0:
            i = next((i for i, row in enumerate(a) if row[0] != 0), None)
            if i is not None:
                a[0], a[i] = [-x for x in a[i]], a[0]
        top = a[0]
        yield top
        p = top[0]
        if p == 0:
            return
        rest = top[1:]
        a = [
            [(p * x - row[0] * y) // prev for x, y in zip(row[1:], rest)]
            for row in a[1:]
        ]
        prev = p


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not m.is_square:
        raise ValueError("determinant requires a square matrix")
    *_, last = _bareiss(m.entries, pivoting=True)
    return last[0]


def smith_normal_form(m: IntMatrix) -> SnfResult:
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
    result = SnfResult(
        IntMatrix(u), IntMatrix(d), IntMatrix(v), IntMatrix(u_inv)
    )
    _check_snf(m, result)
    return result


def _check_snf(m, result):
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


def _solve_scaled(m, rhs):
    """(det(m), y) with m @ y = det(m) * rhs, all in integers.

    rhs is a sequence of integer rows, one per row of m. Bareiss
    elimination of [m | rhs] followed by back substitution: y = adj(m) @
    rhs is integral, so each back-substitution division is exact.
    Raises SingularMatrixError when det(m) = 0.
    """
    n = m.rows
    steps = list(
        _bareiss([row + tuple(b) for row, b in zip(m.entries, rhs)], True)
    )
    det = steps[-1][0]
    if det == 0:  # a zero pivot ends the pass
        raise SingularMatrixError("matrix is singular")
    y = []  # rows k+1.. of the solution, nearest first
    for k in range(n - 1, -1, -1):
        step = steps[k]
        acc = [det * c for c in step[n - k:]]
        for u, yj in zip(step[1:n - k], y):
            if u:
                acc = [s - u * t for s, t in zip(acc, yj)]
        y.insert(0, [s // step[0] for s in acc])
    return det, y


def adjugate(m: IntMatrix) -> tuple:
    """(det(m), adj(m)) of a nonsingular square integer matrix, so that
    m @ adj(m) = det(m) * I, verified by that product."""
    if not m.is_square:
        raise ValueError("adjugate requires a square matrix")
    n = m.rows
    identity = IntMatrix.identity(n)
    det, adj = _solve_scaled(m, identity.entries)
    adj = IntMatrix(adj)
    if (m @ adj).entries != tuple(
        tuple(det * x for x in row) for row in identity.entries
    ):
        raise AssertionError("inverse verification failed")
    return det, adj


def invert_rational(m: IntMatrix) -> RatMatrix:
    """Exact inverse of a nonsingular integer matrix, adj(m) / det(m)."""
    if not m.is_square:
        raise ValueError("inverse requires a square matrix")
    det, adj = adjugate(m)
    return adj / det


def is_negative_definite(m: IntMatrix) -> bool:
    """Leading-principal-minor test: (-1)^k * minor_k > 0 for all k.

    One Bareiss pass without pivoting: the pivot of step k is the k-th
    leading principal minor, so the pass reads all n minors and stops
    at the first one that is zero or has the wrong sign.
    """
    if not m.is_square:
        raise ValueError("definiteness requires a square matrix")
    if not m.is_symmetric():
        raise ValueError("definiteness requires a symmetric matrix")
    negative = True  # the sign minor_k must have
    for step in _bareiss(m.entries, pivoting=False):
        if step[0] == 0 or (step[0] < 0) != negative:
            return False
        negative = not negative
    return True


def solve_rational(m: IntMatrix, b) -> tuple:
    """Exact solution x of m @ x = b for nonsingular square m; b may
    hold ints or Fractions."""
    if not m.is_square:
        raise ValueError("solve requires a square matrix")
    if len(b) != m.rows:
        raise ValueError("right-hand side has wrong length")
    b = [Fraction(c) for c in b]
    scale = lcm(*(c.denominator for c in b))
    rhs = [c.numerator * (scale // c.denominator) for c in b]
    det, y = _solve_scaled(m, [(c,) for c in rhs])
    y = [row[0] for row in y]
    if m.mul_vector(y) != tuple(det * c for c in rhs):
        raise AssertionError("solve verification failed")
    return tuple(Fraction(c, det * scale) for c in y)
