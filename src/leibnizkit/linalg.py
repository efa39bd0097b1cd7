"""Dense exact matrices and fraction-free linear solving.

Dimensions stay small (<= ~8 throughout), so everything is dense row-major.
Elimination is Bareiss-style (fraction-free cross-multiplication with exact
division by the previous pivot), which keeps intermediate entries bounded by
minors of the input.

Invariant: a ``Matrix`` holds normalized raw values only (see ``fields``).
The public constructor ``Matrix(field, entries)`` normalizes every entry.
``Matrix._trusted`` skips that and is reserved for producers inside the
package whose values are already normalized: each result entry is computed
from normalized entries and normalized once, and nothing else is stored.
The one exception is ``search``'s matrix of polynomial unknowns, which it
passes only to the raw-sides kernels and never returns.

``LinearOperator`` is a matrix tagged with its domain and codomain.  It lives
here, beside ``Matrix``, so that reading a file's operators and resolving a
check's objects do not load the operator checks of ``operators``.
"""

from __future__ import annotations

from operator import add, mul, neg, sub
from typing import Optional, Sequence, Tuple

from .errors import FieldMismatch, ShapeMismatch, Singular
from .fields import FieldSpec, RawScalar
from .reports import _Record

Vector = Tuple[RawScalar, ...]


class Matrix:
    """Immutable exact matrix; rows are tuples of normalized raw values."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldSpec, entries: Sequence[Sequence]):
        norm_all = field.normalize_all
        rows = tuple(tuple(norm_all(row)) for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ShapeMismatch("ragged rows")
        self.field = field
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        self.entries = rows

    @classmethod
    def _trusted(cls, field: FieldSpec, rows: Tuple[Vector, ...]) -> "Matrix":
        """Wrap a tuple of equal-length tuples of normalized values as is."""
        m = object.__new__(cls)
        m.field = field
        m.rows = len(rows)
        m.cols = len(rows[0]) if rows else 0
        m.entries = rows
        return m

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix._trusted(field, ((field.zero(),) * cols,) * rows)

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        o, z = field.one(), field.zero()
        return Matrix._trusted(field, tuple(tuple(o if i == j else z for j in range(n))
                                            for i in range(n)))

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
        norm_all = f.normalize_all
        return Matrix._trusted(f, tuple(tuple(norm_all(map(add, a, b)))
                                        for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        f = self._join(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(f"{self.rows}x{self.cols} - {other.rows}x{other.cols}")
        norm_all = f.normalize_all
        return Matrix._trusted(f, tuple(tuple(norm_all(map(sub, a, b)))
                                        for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        f = self.field
        return Matrix._trusted(f, tuple(tuple(f.normalize_all(map(neg, r))) for r in self.entries))

    def __mul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def scale(self, s) -> "Matrix":
        return lin_comb(self.field, (self.field.of(s),), (self,), self.rows, self.cols)

    def transpose(self) -> "Matrix":
        return Matrix._trusted(self.field, tuple(zip(*self.entries)))

    def apply(self, vec: Sequence) -> Vector:
        """Matrix times coordinate column, returned as a tuple.  Kept as the
        dense reference that the tests compare the flat kernels against."""
        if len(vec) != self.cols:
            raise ShapeMismatch(f"{self.rows}x{self.cols} applied to length-{len(vec)} vector")
        return tuple(self.field.normalize_all([sum(map(mul, row, vec)) for row in self.entries]))

    def col(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def is_zero(self) -> bool:
        f = self.field
        return all(f.is_zero(v) for row in self.entries for v in row)


class LinearOperator(_Record):
    """A matrix with domain/codomain tags so maps between different spaces
    cannot be silently confused (module->algebra vs algebra->algebra);
    immutable."""

    __slots__ = ("matrix", "domain", "codomain")

    def __init__(self, matrix: Matrix, domain: str = "", codomain: str = ""):
        self.matrix = matrix
        self.domain = domain
        self.codomain = codomain

    @property
    def field(self) -> FieldSpec:
        return self.matrix.field


def _flat(m: Matrix) -> Tuple:
    return tuple(v for row in m.entries for v in row)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    f = a._join(b)
    if a.cols != b.rows:
        raise ShapeMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    norm_all = f.normalize_all
    bcols = tuple(zip(*b.entries))
    return Matrix._trusted(f, tuple(tuple(norm_all([sum(map(mul, row, col)) for col in bcols]))
                                    for row in a.entries))


def lin_comb(f: FieldSpec, coeffs: Sequence, mats: Sequence[Matrix], rows: int,
             cols: int) -> Matrix:
    """The rows x cols matrix sum of coeffs[i] * mats[i], normalized once per entry."""
    if len(coeffs) != len(mats):
        raise ShapeMismatch(f"{len(coeffs)} coefficients for {len(mats)} matrices")
    norm_all = f.normalize_all
    xs, terms = [], []
    for x, m in zip(norm_all(coeffs), mats):
        if x != 0:
            xs.append(x)
            terms.append(m.entries)
    if not xs:
        return Matrix.zeros(f, rows, cols)
    return Matrix._trusted(f, tuple(tuple(norm_all([sum(map(mul, xs, entry)) for entry in zip(*row)]))
                                    for row in zip(*terms)))


def _forward_eliminate(f: FieldSpec, m: list) -> Tuple[list, list]:
    """Bareiss forward elimination in place on rows of normalized values;
    returns (matrix, pivot (row,col) list).  Each new row is cross-multiplied
    on raw values, times the inverse of the previous pivot (an exact division
    in Bareiss's scheme; over Q a ``Fraction`` unless the pivot is 1 or -1),
    and normalized once."""
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots = []
    inv_prev = f.one()
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        piv, row_r = m[r][c], m[r]
        for i in range(r + 1, n_rows):
            fac, row_i = m[i][c], m[i]
            m[i] = f.normalize_all([(piv * a - fac * b) * inv_prev
                                    for a, b in zip(row_i, row_r)])
        pivots.append((r, c))
        inv_prev = f.inv(piv)
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
    m, pivots = _forward_eliminate(f, aug)
    pivot_cols = [c for (_, c) in pivots if c < n]
    # a pivot landing in the rhs column means an inconsistent row
    if any(c == n for (_, c) in pivots):
        return LinearSolution(None, ())
    free_cols = [c for c in range(n) if c not in pivot_cols]
    particular = _back_substitute(f, m, pivots, n, n, [f.zero()] * n)
    nullspace = []
    for free in free_cols:
        xh = [f.zero()] * n
        xh[free] = f.one()
        nullspace.append(_back_substitute(f, m, pivots, n, None, xh))
    return LinearSolution(particular, tuple(nullspace))


def _back_substitute(f: FieldSpec, m: list, pivots: list, n: int, rhs_col: Optional[int],
                     x: list) -> Vector:
    """Solve the echelon rows of m for the pivot coordinates of x (free ones
    preset); the right-hand side is column rhs_col of m, or zero if None."""
    for (r, c) in reversed(pivots):
        row = m[r]
        acc = row[rhs_col] if rhs_col is not None else f.zero()
        for j in range(c + 1, n):
            if not f.is_zero(row[j]):
                acc = f.sub(acc, f.mul(row[j], x[j]))
        x[c] = f.div(acc, row[c])
    return tuple(x)


def mat_inverse(a: Matrix) -> Matrix:
    if a.rows != a.cols:
        raise ShapeMismatch(f"inverse of {a.rows}x{a.cols}")
    f = a.field
    n = a.rows
    ident = Matrix.identity(f, n).entries
    m, pivots = _forward_eliminate(f, [list(row + e) for row, e in zip(a.entries, ident)])
    if len(pivots) < n or any(c >= n for (_, c) in pivots):
        raise Singular(f"matrix of rank {sum(1 for (_, c) in pivots if c < n)} < {n}")
    cols = [_back_substitute(f, m, pivots, n, n + k, [f.zero()] * n) for k in range(n)]
    return Matrix._trusted(f, tuple(zip(*cols)))


def rank(a: Matrix) -> int:
    _, pivots = _forward_eliminate(a.field, [list(row) for row in a.entries])
    return len(pivots)


def is_invertible(a: Matrix) -> bool:
    return a.rows == a.cols and rank(a) == a.rows
