"""Dense exact matrices and fraction-free linear solving.

Dimensions stay small (<= ~8 throughout), so everything is dense row-major.
Elimination is Bareiss-style (fraction-free cross-multiplication with exact
division by the previous pivot), which keeps intermediate entries bounded by
minors of the input.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .errors import FieldMismatch, ShapeMismatch, Singular
from .fields import FieldSpec, RawScalar

Vector = Tuple[RawScalar, ...]


def vec_add(f: FieldSpec, a: Sequence, b: Sequence) -> Vector:
    return tuple(f.add(x, y) for x, y in zip(a, b))


def vec_sub(f: FieldSpec, a: Sequence, b: Sequence) -> Vector:
    return tuple(f.sub(x, y) for x, y in zip(a, b))


def vec_scale(f: FieldSpec, s: RawScalar, a: Sequence) -> Vector:
    return tuple(f.mul(s, x) for x in a)


def vec_zero(f: FieldSpec, n: int) -> Vector:
    return (f.zero(),) * n


def vec_is_zero(f: FieldSpec, a: Sequence) -> bool:
    return all(f.is_zero(x) for x in a)


def basis_vec(f: FieldSpec, n: int, i: int) -> Vector:
    return tuple(f.one() if j == i else f.zero() for j in range(n))


class Matrix:
    """Immutable exact matrix; rows are tuples of normalized raw values."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldSpec, entries: Sequence[Sequence]):
        rows = tuple(tuple(field.normalize(v) for v in row) for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ShapeMismatch("ragged rows")
        self.field = field
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        self.entries = rows

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return Matrix(field, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        o, z = field.one(), field.zero()
        return Matrix(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def from_cols(field: FieldSpec, cols: Sequence[Sequence]) -> "Matrix":
        return Matrix(field, list(zip(*cols))) if cols else Matrix(field, [])

    # -- basics ----------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(self.field.format(v) for v in row) for row in self.entries)
        return f"Matrix({self.field}, [{body}])"

    def _join(self, other: "Matrix") -> FieldSpec:
        if not isinstance(other, Matrix):
            raise TypeError("expected Matrix")
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        return self.field

    def __add__(self, other: "Matrix") -> "Matrix":
        f = self._join(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(f"{self.rows}x{self.cols} + {other.rows}x{other.cols}")
        return Matrix(f, [vec_add(f, a, b) for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        f = self._join(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(f"{self.rows}x{self.cols} - {other.rows}x{other.cols}")
        return Matrix(f, [vec_sub(f, a, b) for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Matrix":
        f = self.field
        return Matrix(f, [tuple(f.neg(v) for v in row) for row in self.entries])

    def __mul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def scale(self, s) -> "Matrix":
        f = self.field
        s = f.of(s)
        return Matrix(f, [vec_scale(f, s, row) for row in self.entries])

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.entries)) if self.entries else [])

    def apply(self, vec: Sequence) -> Vector:
        """Matrix times coordinate column, returned as a tuple."""
        if len(vec) != self.cols:
            raise ShapeMismatch(f"{self.rows}x{self.cols} applied to length-{len(vec)} vector")
        f = self.field
        out = []
        for row in self.entries:
            acc = 0
            for a, x in zip(row, vec):
                acc += a * x
            out.append(f.normalize(acc))
        return tuple(out)

    def col(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def is_zero(self) -> bool:
        f = self.field
        return all(f.is_zero(v) for row in self.entries for v in row)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == Matrix.identity(self.field, self.rows)

    def commutator(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other) - mat_mul(other, self)


def _flat(m: Matrix) -> Tuple:
    return tuple(v for row in m.entries for v in row)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    f = a._join(b)
    if a.cols != b.rows:
        raise ShapeMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    bt = b.transpose().entries
    out = []
    for row in a.entries:
        out_row = []
        for col in bt:
            acc = 0
            for x, y in zip(row, col):
                acc += x * y
            out_row.append(f.normalize(acc))
        out.append(out_row)
    return Matrix(f, out)


def transpose_dual(m: Matrix) -> Matrix:
    """Matrix of the dual map in dual bases (= transpose)."""
    return m.transpose()


def _forward_eliminate(f: FieldSpec, m: list) -> Tuple[list, list]:
    """Bareiss forward elimination in place; returns (matrix, pivot (row,col) list)."""
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots = []
    prev = f.one()
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if not f.is_zero(m[i][c])), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        piv = m[r][c]
        for i in range(r + 1, n_rows):
            fac = m[i][c]
            row_i, row_r = m[i], m[r]
            m[i] = [f.div(f.sub(f.mul(piv, row_i[j]), f.mul(fac, row_r[j])), prev)
                    for j in range(n_cols)]
        pivots.append((r, c))
        prev = piv
        r += 1
        if r == n_rows:
            break
    return m, pivots


class LinearSolution:
    """Particular solution plus nullspace basis; ``particular is None`` means no solution."""

    __slots__ = ("particular", "nullspace")

    def __init__(self, particular: Optional[Vector], nullspace: Tuple[Vector, ...]):
        self.particular = particular
        self.nullspace = nullspace

    @property
    def has_solution(self) -> bool:
        return self.particular is not None

    def __repr__(self):
        if not self.has_solution:
            return "LinearSolution(no solution)"
        return f"LinearSolution(particular={self.particular}, nullspace dim {len(self.nullspace)})"


def solve_linear(a: Matrix, rhs: Sequence) -> LinearSolution:
    """Solve a x = rhs exactly; rhs is a vector of length a.rows."""
    if isinstance(rhs, Matrix):
        if rhs.cols != 1:
            raise ShapeMismatch("rhs must be a vector or a single-column matrix")
        rhs = rhs.col(0)
    if len(rhs) != a.rows:
        raise ShapeMismatch(f"{a.rows} rows vs rhs length {len(rhs)}")
    f = a.field
    n = a.cols
    aug = [list(row) + [f.normalize(v)] for row, v in zip(a.entries, rhs)]
    if a.rows == 0:
        aug = []
    m, pivots = _forward_eliminate(f, aug) if aug else ([], [])
    pivot_cols = [c for (_, c) in pivots if c < n]
    # a pivot landing in the rhs column means an inconsistent row
    if any(c == n for (_, c) in pivots):
        return LinearSolution(None, ())
    free_cols = [c for c in range(n) if c not in pivot_cols]

    def back_substitute(rhs_col: int, fixed: dict) -> Vector:
        x = [f.zero()] * n
        for c, v in fixed.items():
            x[c] = v
        for (r, c) in reversed(pivots):
            acc = m[r][rhs_col] if rhs_col >= 0 else f.zero()
            row = m[r]
            for j in range(c + 1, n):
                if not f.is_zero(row[j]):
                    acc = f.sub(acc, f.mul(row[j], x[j]))
            x[c] = f.div(acc, row[c])
        return tuple(x)

    particular = back_substitute(n, {c: f.zero() for c in free_cols})
    nullspace = []
    for free in free_cols:
        xh = [f.zero()] * n
        xh[free] = f.one()
        for (r, c) in reversed(pivots):
            acc = f.zero()
            row = m[r]
            for j in range(c + 1, n):
                if not f.is_zero(row[j]):
                    acc = f.sub(acc, f.mul(row[j], xh[j]))
            xh[c] = f.div(acc, row[c])
        nullspace.append(tuple(xh))
    return LinearSolution(particular, tuple(nullspace))


def mat_inverse(a: Matrix) -> Matrix:
    if a.rows != a.cols:
        raise ShapeMismatch(f"inverse of {a.rows}x{a.cols}")
    f = a.field
    n = a.rows
    aug = [list(row) + list(Matrix.identity(f, n).entries[i]) for i, row in enumerate(a.entries)]
    m, pivots = _forward_eliminate(f, aug)
    if len(pivots) < n or any(c >= n for (_, c) in pivots):
        raise Singular(f"matrix of rank {sum(1 for (_, c) in pivots if c < n)} < {n}")
    cols = []
    for k in range(n):
        x = [f.zero()] * n
        for (r, c) in reversed(pivots):
            acc = m[r][n + k]
            row = m[r]
            for j in range(c + 1, n):
                if not f.is_zero(row[j]):
                    acc = f.sub(acc, f.mul(row[j], x[j]))
            x[c] = f.div(acc, row[c])
        cols.append(x)
    return Matrix.from_cols(f, cols)


def rank(a: Matrix) -> int:
    m = [list(row) for row in a.entries]
    if not m:
        return 0
    _, pivots = _forward_eliminate(a.field, m)
    return len(pivots)


def is_invertible(a: Matrix) -> bool:
    return a.rows == a.cols and rank(a) == a.rows
