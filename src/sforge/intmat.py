"""Exact integer matrices.

IntMatrix, the one matrix type, holds arbitrary-precision Python ints;
the rational answers (solve_rational, invert_rational) are tuples of
fractions.Fraction. No floating point is used anywhere in the package.
Matrices are immutable after construction and safe to share between
threads.

Determinants and definiteness run in integers through one
fraction-free kernel, Bareiss forward elimination (Math. Comp. 22,
1968): every intermediate entry is a minor of the input, so each
division is exact and entries grow only as fast as the minors do.

- determinant: the last pivot of a pass with row pivoting.
- is_negative_definite: the pivots of a pass without pivoting, which
  are the leading principal minors.

Two routines work on sparse rows:

- smith_normal_form: elementary row/column reduction with
  smallest-pivot selection, tracking only U^-1 and V^-1, certified by
  m = U^-1 @ D @ V^-1 with both unimodular. U, which fills in on long
  (-2)-chains, is det * adj for det, adj = adjugate(u_inv).
- solve_sparse: every exact solve, from integer dict rows: the often
  underdetermined systems of bounded ideal membership
  (sforge.invariants), the adjunction system of the canonical cycle of
  a graph with cycles (sforge.graph, nonsingular as negative
  definite), and the nonsingular square ones of solve_rational and
  adjugate, once determinant has found det != 0.
  Fraction-free elimination of the columns in order, each updated row
  divided by its content, then back substitution over the pivot
  unknowns give the solution of the reduced row echelon form, free
  unknowns zero. Each caller verifies it: m @ x = b, m @ adj = det * I,
  M K = rhs.

Resolution graphs that are trees do not come here for anything but
their Smith normal form: sforge.graph's TreeForm gives their
determinant, definiteness, branch determinants and solves in one
leaf-first pass. Bareiss serves the determinant and definiteness of
graphs with cycles (in `analyze`), the generic-coefficient minors of
sforge.equations, and what _is_unimodular cannot strike off.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple

from .errors import SingularMatrixError

__all__ = [
    "IntMatrix",
    "SnfResult",
    "adjugate",
    "determinant",
    "smith_normal_form",
    "solve_sparse",
    "invert_rational",
    "is_negative_definite",
    "solve_rational",
]


class IntMatrix:
    """Immutable dense matrix of arbitrary-precision integers."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(map(self._cast, row)) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self.entries = rows

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

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

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def to_lists(self):
        return [list(row) for row in self.entries]

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
    def _from_sparse_rows(cls, rows, ncols):
        """The matrix whose row i has the entries of the dict rows[i]
        (column -> int), zeros elsewhere; entries are not re-cast."""
        dense = []
        for row in rows:
            r = [0] * ncols
            for j, x in row.items():
                r[j] = x
            dense.append(tuple(r))
        out = cls.__new__(cls)
        out.entries = tuple(dense)
        return out

    def is_symmetric(self):
        return self.is_square and self.entries == tuple(zip(*self.entries))

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


class SnfResult(NamedTuple):
    """Smith normal form U @ m @ V = D, as m = u_inv @ D @ v_inv with D
    and the unimodular u_inv and v_inv of smith_normal_form. U is det *
    adj for det, adj = adjugate(u_inv), and V likewise from v_inv."""

    d: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix

    @property
    def diagonal(self):
        return tuple(
            self.d[i, i] for i in range(min(self.d.rows, self.d.cols))
        )


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

    A step maps a row with lead a to (p * x - a * y) / prev over the
    pivot row's entries y, p its pivot and prev the one before. A row
    with a zero lead has no cross term, so the step only scales it by
    p / prev. Such an idle row (most rows of a sparse matrix) is not
    touched: a[i] keeps the entries row i had when last written, and
    since[i] the pivot of that step, so its working entries are a[i] *
    prev / since[i], exact divisions since they are minors. They are
    formed only when the row is next written or becomes the pivot row:
    the same minors as scaling every row at every step.
    """
    a = [list(row) for row in rows]
    since = [1] * len(a)
    width = len(a[0]) if a else 0
    prev = 1
    for k in range(len(a)):
        m = width - k  # columns k.. are the last m entries of every row
        if pivoting and a[k][-m] == 0:
            i = next((i for i in range(k + 1, len(a)) if a[i][-m]), None)
            if i is not None:
                a[k], a[i] = [-x for x in a[i]], a[k]
                since[k], since[i] = since[i], since[k]
        top = a[k][-m:]
        if since[k] != prev:
            top = [x * prev // since[k] for x in top]
        yield top
        p = top[0]
        if p == 0:
            return
        rest = top[1:]
        for i in range(k + 1, len(a)):
            row = a[i]
            lead = row[-m]
            if not lead:
                continue
            s = since[i]
            if s != prev:
                row = [x * prev // s for x in row[-m:]]
                lead = row[0]
            a[i] = [(p * x - lead * y) // prev
                    for x, y in zip(row[1 - m:], rest)]
            since[i] = p
        prev = p


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not m.is_square:
        raise ValueError("determinant requires a square matrix")
    *_, last = _bareiss(m.entries, pivoting=True)
    return last[0]


def _add_multiple(dst, src, c):
    """dst += c * src for sparse vectors (dicts index -> nonzero)."""
    for k, y in src.items():
        x = dst.get(k, 0) + c * y
        if x:
            dst[k] = x
        else:
            del dst[k]


def solve_sparse(rows, ncols):
    """One solution x of A @ x = b, as a list of ncols Fractions, or
    None when the system has none.

    rows are the sparse rows of the augmented integer matrix [A | b]:
    dicts column -> nonzero int, with the entry of b under key ncols.
    They are not modified.

    The columns of A are eliminated in order by fraction-free row
    operations. With p the pivot and a a row's entry in the pivot
    column, the row becomes (p * row - a * pivot_row) / g, g = gcd(p, a),
    and is then divided by its content, the gcd of its entries, so
    entries stay as small as the row's own ratios allow. The pivot row
    of a column is any row, not yet a pivot row, with an entry there;
    the one with the fewest nonzeros keeps fill-in low. An index
    column -> rows finds them, as in smith_normal_form.

    Column c becomes a pivot column iff, once the earlier columns are
    eliminated, a row that is not a pivot row has an entry there: iff
    column c of A is not in the span of the columns before it. So
    whichever rows are picked, the pivot columns are the first
    independent columns, the ones Gauss-Jordan elimination finds. With
    the free unknowns set to zero, the pivot unknowns solve a system of
    full column rank, so the solution is unique: it is the one the
    reduced row echelon form of [A | b] reads off. The system is
    inconsistent iff a row left over keeps an entry of b. Only the back
    substitution over the pivot unknowns uses Fractions.

    Every exact solve in sforge, square or underdetermined, comes here:
    the canonical cycle of a graph with cycles, solve_rational and
    adjugate solve through it too.
    """
    work = {i: dict(row) for i, row in enumerate(rows) if row}
    index = {}  # column -> rows, not yet pivot rows, with an entry there
    for i, row in work.items():
        for j in row:
            index.setdefault(j, set()).add(i)
    pivots = []  # (column, pivot row), columns ascending
    for c in range(ncols):
        live = index.get(c)
        if not live:
            continue
        p = min(live, key=lambda i: (len(work[i]), i))
        top = work.pop(p)
        for j in top:
            index[j].discard(p)
        pivots.append((c, top))
        pc = top[c]
        for i in list(live):
            row = work[i]
            g = gcd(pc, row[c])
            s, t = pc // g, row[c] // g
            new = {j: s * x for j, x in row.items()}
            _add_multiple(new, top, -t)
            content = gcd(*new.values()) if new else 1
            if content != 1:
                new = {j: x // content for j, x in new.items()}
            for j in row.keys() - new.keys():
                index[j].discard(i)
            for j in new.keys() - row.keys():
                index.setdefault(j, set()).add(i)
            work[i] = new
    if any(work.values()):
        return None  # a row 0 = b_i with b_i nonzero
    x = [Fraction(0)] * ncols
    for c, top in reversed(pivots):
        acc = Fraction(top.get(ncols, 0))
        for j, y in top.items():
            if j != c and j != ncols and x[j]:
                acc -= y * x[j]
        x[c] = acc / top[c]
    return x


def smith_normal_form(m: IntMatrix, *, det=None) -> SnfResult:
    """Smith normal form U @ m @ V = D, returned as D, U^-1 and V^-1.

    The working matrix is held as dict rows col -> nonzero entry, with
    an index col -> rows; U^-1 as dict columns and V^-1 as dict rows,
    since a row (column) operation on m is the inverse column (row)
    operation on U^-1 (V^-1). Each costs the nonzeros it touches.

    Pivot: smallest nonzero absolute value in the remaining block,
    lowest (row, col) on ties. The search stops at the first +-1 in
    row-major order, the entry a full scan would pick, and the
    divisibility scan is skipped for a pivot of 1.

    Certified before it returns (_verify_snf): m = U^-1 @ (D @ V^-1) by
    one sparse product; D diagonal and nonnegative, each entry dividing
    the next, zeros last; U^-1 and V^-1 unimodular, one of two ways:
    - det given, the caller's determinant of the square m, computed
      independently (sforge.discgroup passes the tree pass's):
      prod(d_i) = |det| != 0. det m = det U^-1 * prod(d_i) * det V^-1
      gives |det U^-1 * det V^-1| = 1, and both are integers.
    - det None: |det U^-1| = |det V^-1| = 1 (_is_unimodular).
    Either way U and V are integer matrices and U @ m @ V = D. Raises
    ValueError, after the elimination, for det and a non-square m.
    """
    nr, nc = m.rows, m.cols
    m_rows = _sparse_rows(m)
    a = [dict(row) for row in m_rows]
    cols = [set() for _ in range(nc)]
    for i, row in enumerate(a):
        for j in row:
            cols[j].add(i)
    u_inv = [{i: 1} for i in range(nr)]  # columns
    v_inv = [{j: 1} for j in range(nc)]  # rows

    def swap_rows(i, j):
        if i != j:
            for k in a[i]:
                cols[k].discard(i)
            for k in a[j]:
                cols[k].discard(j)
            a[i], a[j] = a[j], a[i]
            for k in a[i]:
                cols[k].add(i)
            for k in a[j]:
                cols[k].add(j)
            u_inv[i], u_inv[j] = u_inv[j], u_inv[i]

    def swap_cols(i, j):
        if i != j:
            for r in cols[i] | cols[j]:
                row = a[r]
                x, y = row.pop(i, 0), row.pop(j, 0)
                if x:
                    row[j] = x
                if y:
                    row[i] = y
            cols[i], cols[j] = cols[j], cols[i]
            v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(src, dst, c):
        # row_dst += c * row_src
        row = a[dst]
        for j, y in a[src].items():
            x = row.get(j, 0) + c * y
            if x:
                if j not in row:
                    cols[j].add(dst)
                row[j] = x
            else:
                del row[j]
                cols[j].discard(dst)
        _add_multiple(u_inv[src], u_inv[dst], -c)

    def add_col(src, dst, c):
        # col_dst += c * col_src
        col = cols[dst]
        for i in cols[src]:
            row = a[i]
            x = row.get(dst, 0) + c * row[src]
            if x:
                if dst not in row:
                    col.add(i)
                row[dst] = x
            else:
                del row[dst]
                col.discard(i)
        _add_multiple(v_inv[src], v_inv[dst], -c)

    def negate_row(i):
        for row in (a[i], u_inv[i]):
            for k in row:
                row[k] = -row[k]

    def find_pivot(t):
        # rows t.. hold entries in columns t.. only
        best = None
        for i in range(t, nr):
            for j, x in a[i].items():
                key = (abs(x), i, j)
                if best is None or key < best:
                    best = key
            if best is not None and best[0] == 1:
                break
        return None if best is None else best[1:]

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
            # the operations of one pass commute: each reads only what
            # the pass leaves unchanged, and their updates of U^-1
            # (V^-1) are sums into its column (row) t
            for i in [i for i in cols[t] if i != t]:
                c = -(a[i][t] // p)
                if c:
                    add_row(t, i, c)
                if t in a[i]:
                    dirty = True
            for j in [j for j in a[t] if j != t]:
                c = -(a[t][j] // p)
                if c:
                    add_col(t, j, c)
                if j in a[t]:
                    dirty = True
            if dirty:
                pos = find_pivot(t)
                continue
            if p == 1:
                break
            # enforce the divisibility chain: fold the first row with a
            # bad entry into row t
            bad = next(
                (i for i in range(t + 1, nr)
                 if any(x % p for x in a[i].values())),
                None,
            )
            if bad is None:
                break
            add_row(bad, t, 1)
            pos = find_pivot(t)
        t += 1

    d = [{i: a[i][i]} if i in a[i] else {} for i in range(min(nr, nc))]
    d += [{} for _ in range(nr - len(d))]
    u_inv = _transpose(u_inv, nr)
    _verify_snf(m_rows, d, u_inv, v_inv, det)
    return SnfResult(*(
        IntMatrix._from_sparse_rows(rows, n)
        for rows, n in ((d, nc), (u_inv, nr), (v_inv, nc))
    ))


def _sparse_rows(mat):
    """The rows of an IntMatrix as dicts column -> nonzero entry."""
    return [{j: x for j, x in enumerate(row) if x} for row in mat.entries]


def _transpose(vectors, n):
    """The sparse columns of a matrix from its sparse rows (or the rows
    from the columns); n is the number of vectors returned."""
    out = [{} for _ in range(n)]
    for i, vec in enumerate(vectors):
        for k, x in vec.items():
            out[k][i] = x
    return out


def _sparse_product(left, right):
    """Sparse rows of A @ B, from the sparse rows of A and of B."""
    out = []
    for row in left:
        acc = {}
        for k, x in row.items():
            for j, y in right[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: x for j, x in acc.items() if x})
    return out


def _verify_snf(m, d, u_inv, v_inv, det=None):
    """The certificate of smith_normal_form (its docstring says why it
    suffices), from the sparse rows of every matrix."""
    if det is not None and len(m) != len(v_inv):
        raise ValueError("det is defined only for a square matrix")
    if any(row.keys() - {i} for i, row in enumerate(d)):
        raise AssertionError("SNF verification failed: D is not diagonal")
    scaled = [
        {j: x * row[i] for j, x in v_inv[i].items()} if row else {}
        for i, row in enumerate(d)
    ]
    if _sparse_product(u_inv, scaled) != m:
        raise AssertionError("SNF verification failed: M != U^-1*D*V^-1")
    diag = [row.get(i, 0) for i, row in enumerate(d[:len(v_inv)])]
    if det is None:
        if not (_is_unimodular(u_inv) and _is_unimodular(v_inv)):
            raise AssertionError("SNF transform not unimodular: |det| != 1")
    elif det == 0 or prod(diag) != abs(det):
        raise AssertionError("SNF verification failed: prod(d_i) != |det|")
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            raise AssertionError("zero invariant factor before a nonzero one")
        if x != 0 and y % x != 0:
            raise AssertionError("divisibility chain broken")
    if any(x < 0 for x in diag):
        raise AssertionError("negative diagonal in SNF")


def _is_unimodular(rows):
    """Is |det| = 1 for the square matrix with these sparse rows? A row
    or column with one nonzero entry x gives |det| = |x| * |det| of the
    minor without its row and column (Laplace): such rows, then such
    columns (rows of the transpose), and so on, are struck off until
    determinant takes a minor with neither. is_faithful's stacks need
    no Bareiss pass."""
    stuck = 0
    while True:
        work = dict(enumerate(rows))
        ones = [i for i, row in work.items() if len(row) == 1]
        gone = set()
        while ones:
            row = work.pop(ones.pop())
            if len(row) != 1 or abs(*row.values()) != 1:
                return False  # a zero row, or |x| != 1
            (j,) = row
            gone.add(j)
            for i, row in work.items():
                if j in row:
                    row = work[i] = {k: y for k, y in row.items() if k != j}
                    if len(row) == 1:
                        ones.append(i)
        if not work:
            return True
        cols = [j for j in range(len(rows)) if j not in gone]
        stuck = 0 if gone else stuck + 1
        if stuck == 2:
            minor = [[row.get(j, 0) for j in cols] for row in work.values()]
            return abs(determinant(IntMatrix(minor))) == 1
        turned = _transpose(list(work.values()), len(rows))
        rows = [turned[j] for j in cols]


def _adjugate_times(m, columns):
    """(det(m), [adj(m) @ b for each integer column b]): det(m) * x for
    the x that solve_sparse gives for m @ x = b. Unverified."""
    det = determinant(m)
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    rows, n = _sparse_rows(m), m.rows
    out = []
    for b in columns:
        x = solve_sparse([{**row, n: c} if c else row
                          for row, c in zip(rows, b)], n)
        out.append([det * c.numerator // c.denominator for c in x])
    return det, out


def adjugate(m: IntMatrix) -> tuple:
    """(det(m), adj(m)) of a nonsingular square integer matrix, so that
    m @ adj(m) = det(m) * I, verified by that product."""
    if not m.is_square:
        raise ValueError("adjugate requires a square matrix")
    identity = IntMatrix.identity(m.rows)
    det, columns = _adjugate_times(m, identity.entries)
    adj = IntMatrix(zip(*columns))
    if (m @ adj).entries != tuple(tuple(det * x for x in row)
                                  for row in identity.entries):
        raise AssertionError("inverse verification failed")
    return det, adj


def invert_rational(m: IntMatrix) -> tuple:
    """Exact inverse of a nonsingular square integer matrix, adj(m) /
    det(m), as a tuple of rows of Fractions; adjugate verifies adj."""
    det, adj = adjugate(m)
    return tuple(tuple(Fraction(x, det) for x in row) for row in adj.entries)


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
    det, (y,) = _adjugate_times(m, [rhs])
    if m.mul_vector(y) != tuple(det * c for c in rhs):
        raise AssertionError("solve verification failed")
    return tuple(Fraction(c, det * scale) for c in y)
