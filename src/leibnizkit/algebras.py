"""Leibniz algebras as structure-constant tensors, their representations, and
the dual / regular / semidirect / matched-pair constructions.

Conventions used throughout the package:

* ``c[i][j]`` is the coordinate vector of the bracket of basis elements
  ``(e_i, e_j)``; so ``c[i][j][k]`` is the coefficient of ``e_k``.
* matrices act on coordinate columns; ``rhoL[i]`` is the action of ``e_i``
  from the left, ``rhoR[i]`` the action from the right.
* in a direct-sum algebra built from a representation the module block comes
  first (indices ``0..m-1``), the algebra block second.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .errors import FieldMismatch, NotLeibniz, NotRepresentation, ShapeMismatch
from .fields import FieldSpec
from .linalg import Matrix, Vector, _flat, lin_comb, vec_zero
from .reports import CheckReport, Violation


class LeibnizAlgebra:
    """A finite-dimensional algebra given by its structure-constant tensor."""

    __slots__ = ("field", "dim", "c", "_leibniz_report")

    def __init__(self, field: FieldSpec, c: Sequence[Sequence[Sequence]]):
        n = len(c)
        c_norm = tuple(
            tuple(tuple(field.normalize(v) for v in vec) for vec in row) for row in c
        )
        if any(len(row) != n for row in c_norm) or any(
            len(vec) != n for row in c_norm for vec in row
        ):
            raise ShapeMismatch("structure tensor must be n x n x n")
        self.field = field
        self.dim = n
        self.c = c_norm
        self._leibniz_report: Optional[CheckReport] = None

    @staticmethod
    def abelian(field: FieldSpec, dim: int) -> "LeibnizAlgebra":
        z = field.zero()
        return LeibnizAlgebra(field, [[[z] * dim for _ in range(dim)] for _ in range(dim)])

    @staticmethod
    def from_brackets(field: FieldSpec, dim: int, brackets) -> "LeibnizAlgebra":
        """Build from a {(i, j): coefficient vector} mapping; missing pairs are zero."""
        z = field.zero()
        c = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), vec in brackets.items():
            c[i][j] = [field.of(v) for v in vec]
        return LeibnizAlgebra(field, c)

    def bracket_basis(self, i: int, j: int) -> Vector:
        return self.c[i][j]

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        """Bilinear extension of the structure constants to coordinate vectors."""
        f = self.field
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ShapeMismatch("vector length does not match algebra dimension")
        acc = [0] * n
        for i, xi in enumerate(x):
            if f.is_zero(xi):
                continue
            row = self.c[i]
            for j, yj in enumerate(y):
                if f.is_zero(yj):
                    continue
                coef = xi * yj
                vec = row[j]
                for k in range(n):
                    acc[k] += coef * vec[k]
        return tuple(f.normalize(v) for v in acc)

    def left_mult(self, i: int) -> Matrix:
        """Matrix of x -> [e_i, x]."""
        return Matrix._trusted(self.field, tuple(zip(*self.c[i])))

    def right_mult(self, j: int) -> Matrix:
        """Matrix of x -> [x, e_j]."""
        return Matrix._trusted(self.field, tuple(zip(*(row[j] for row in self.c))))

    @property
    def is_leibniz(self) -> bool:
        if self._leibniz_report is None:
            self._leibniz_report = check_leibniz(self)
        return self._leibniz_report.ok

    def require_leibniz(self):
        if not self.is_leibniz:
            raise NotLeibniz(self._leibniz_report.summary())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LeibnizAlgebra)
            and self.field == other.field
            and self.c == other.c
        )

    def __hash__(self):
        return hash((self.field, self.c))

    def __repr__(self):
        return f"LeibnizAlgebra(dim={self.dim}, field={self.field})"


def check_leibniz(alg: LeibnizAlgebra) -> CheckReport:
    """Left Leibniz identity [a,[b,c]] = [[a,b],c] + [b,[a,c]] on all basis triples."""
    f = alg.field
    n = alg.dim
    c = alg.c
    violations = []
    for a in range(n):
        for b in range(n):
            ca_b = c[a][b]
            for d in range(n):
                lhs = [0] * n
                inner = c[b][d]
                for m in range(n):
                    if not f.is_zero(inner[m]):
                        cm = c[a][m]
                        coef = inner[m]
                        for k in range(n):
                            lhs[k] += coef * cm[k]
                rhs = [0] * n
                for m in range(n):
                    if not f.is_zero(ca_b[m]):
                        cm = c[m][d]
                        coef = ca_b[m]
                        for k in range(n):
                            rhs[k] += coef * cm[k]
                inner2 = c[a][d]
                for m in range(n):
                    if not f.is_zero(inner2[m]):
                        cm = c[b][m]
                        coef = inner2[m]
                        for k in range(n):
                            rhs[k] += coef * cm[k]
                lhs_t = tuple(f.normalize(v) for v in lhs)
                rhs_t = tuple(f.normalize(v) for v in rhs)
                if lhs_t != rhs_t:
                    violations.append(Violation("leibniz", (a, b, d), lhs_t, rhs_t))
    return CheckReport.build(violations)


class Representation:
    """A pair of matrix families (rhoL, rhoR) acting on an m-dimensional module."""

    __slots__ = ("algebra", "mdim", "rhoL", "rhoR", "_rep_report")

    def __init__(
        self,
        algebra: LeibnizAlgebra,
        rhoL: Sequence[Matrix],
        rhoR: Sequence[Matrix],
    ):
        n = algebra.dim
        if len(rhoL) != n or len(rhoR) != n:
            raise ShapeMismatch("need one action matrix per basis element")
        mdims = {m.rows for m in rhoL} | {m.cols for m in rhoL}
        mdims |= {m.rows for m in rhoR} | {m.cols for m in rhoR}
        if len(mdims) > 1:
            raise ShapeMismatch("action matrices must be square of one size")
        if any(m.field != algebra.field for m in list(rhoL) + list(rhoR)):
            raise FieldMismatch("action matrices must share the algebra's field")
        self.algebra = algebra
        self.mdim = mdims.pop() if mdims else 0
        self.rhoL = tuple(rhoL)
        self.rhoR = tuple(rhoR)
        self._rep_report: Optional[CheckReport] = None

    @staticmethod
    def zero(algebra: LeibnizAlgebra, mdim: int) -> "Representation":
        z = Matrix.zeros(algebra.field, mdim, mdim)
        return Representation(algebra, [z] * algebra.dim, [z] * algebra.dim)

    def actL(self, x: Sequence) -> Matrix:
        """Action matrix of the algebra vector x from the left."""
        return lin_comb(self.algebra.field, x, self.rhoL, self.mdim, self.mdim)

    def actR(self, x: Sequence) -> Matrix:
        return lin_comb(self.algebra.field, x, self.rhoR, self.mdim, self.mdim)

    @property
    def is_representation(self) -> bool:
        if self._rep_report is None:
            self._rep_report = check_representation(self)
        return self._rep_report.ok

    def require_representation(self):
        if not self.is_representation:
            raise NotRepresentation(self._rep_report.summary())

    def __repr__(self):
        return f"Representation(algebra dim {self.algebra.dim}, module dim {self.mdim})"


def check_representation(rep: Representation) -> CheckReport:
    """The three action axioms, as matrix identities over all basis pairs:

    rhoL([e_i,e_j]) = [rhoL(e_i), rhoL(e_j)]
    rhoR([e_i,e_j]) = [rhoL(e_i), rhoR(e_j)]
    rhoR(e_j) rhoL(e_i) = -rhoR(e_j) rhoR(e_i)
    """
    alg = rep.algebra
    n = alg.dim
    violations = []
    for i in range(n):
        for j in range(n):
            cij = alg.c[i][j]
            lhs1 = rep.actL(cij)
            rhs1 = rep.rhoL[i].commutator(rep.rhoL[j])
            if lhs1 != rhs1:
                violations.append(Violation("rep-left", (i, j), _flat(lhs1), _flat(rhs1)))
            lhs2 = rep.actR(cij)
            rhs2 = rep.rhoL[i].commutator(rep.rhoR[j])
            if lhs2 != rhs2:
                violations.append(Violation("rep-right", (i, j), _flat(lhs2), _flat(rhs2)))
            lhs3 = rep.rhoR[j] * rep.rhoL[i]
            rhs3 = -(rep.rhoR[j] * rep.rhoR[i])
            if lhs3 != rhs3:
                violations.append(Violation("rep-swap", (i, j), _flat(lhs3), _flat(rhs3)))
    return CheckReport.build(violations)


def regular_representation(alg: LeibnizAlgebra) -> Representation:
    """Left/right multiplication operators acting on the algebra itself."""
    alg.require_leibniz()
    rep = Representation(
        alg,
        [alg.left_mult(i) for i in range(alg.dim)],
        [alg.right_mult(j) for j in range(alg.dim)],
    )
    rep.require_representation()
    return rep


def dual_representation(rep: Representation) -> Representation:
    """The contragredient pair on the dual module.

    The dual of an action family carries the usual minus sign (the dual of a
    single linear map is the plain transpose, but an action must be negated
    to stay a morphism), giving (-rhoL^T, rhoL^T + rhoR^T).
    """
    rep.require_representation()
    dualL = [-m.transpose() for m in rep.rhoL]
    dualR = [l.transpose() + r.transpose() for l, r in zip(rep.rhoL, rep.rhoR)]
    out = Representation(rep.algebra, dualL, dualR)
    out.require_representation()
    return out


def semidirect_sum(rep: Representation) -> LeibnizAlgebra:
    """Leibniz structure on module (+) algebra, module coordinates first:

    [w0+x0, w1+x1] = rhoR(x1) w0 + rhoL(x0) w1  (+)  [x0, x1]
    """
    rep.require_representation()
    alg = rep.algebra
    f = alg.field
    n, m = alg.dim, rep.mdim
    total = m + n

    def basis_bracket(i: int, j: int) -> Vector:
        mod = vec_zero(f, m)
        ag = vec_zero(f, n)
        if i >= m and j >= m:
            ag = alg.bracket_basis(i - m, j - m)
        elif i >= m and j < m:
            mod = rep.rhoL[i - m].col(j)
        elif i < m and j >= m:
            mod = rep.rhoR[j - m].col(i)
        return tuple(mod) + tuple(ag)

    c = [[basis_bracket(i, j) for j in range(total)] for i in range(total)]
    out = LeibnizAlgebra(f, c)
    out.require_leibniz()
    return out


def check_matched_pair(
    g1: LeibnizAlgebra,
    g2: LeibnizAlgebra,
    rho1: Representation,
    rho2: Representation,
) -> Tuple[CheckReport, Optional[LeibnizAlgebra]]:
    """Assemble the candidate bracket on g1 (+) g2 from both brackets and both
    mutual actions, and test the Leibniz identity on the sum.

    ``rho1`` is the action of g1 on g2's space, ``rho2`` the action of g2 on
    g1's space.  Block order is g1 first.  On success the twilled algebra is
    returned.
    """
    if rho1.algebra is not g1 and rho1.algebra != g1:
        raise ShapeMismatch("rho1 must be a representation of g1")
    if rho2.algebra is not g2 and rho2.algebra != g2:
        raise ShapeMismatch("rho2 must be a representation of g2")
    if rho1.mdim != g2.dim or rho2.mdim != g1.dim:
        raise ShapeMismatch("action module dimensions must match the partner algebra")
    if g1.field != g2.field:
        raise FieldMismatch("summands must share a field")
    f = g1.field
    n1, n2 = g1.dim, g2.dim
    total = n1 + n2

    def basis_bracket(i: int, j: int) -> Vector:
        p1 = vec_zero(f, n1)
        p2 = vec_zero(f, n2)
        if i < n1 and j < n1:
            p1 = g1.bracket_basis(i, j)
        elif i >= n1 and j >= n1:
            p2 = g2.bracket_basis(i - n1, j - n1)
        elif i < n1:  # [x, a] = rho1L(x) a  (+)  rho2R(a) x
            p2 = rho1.rhoL[i].col(j - n1)
            p1 = rho2.rhoR[j - n1].col(i)
        else:  # [a, x] = rho2L(a) x  (+)  rho1R(x) a
            p1 = rho2.rhoL[i - n1].col(j)
            p2 = rho1.rhoR[j].col(i - n1)
        return tuple(p1) + tuple(p2)

    c = [[basis_bracket(i, j) for j in range(total)] for i in range(total)]
    cand = LeibnizAlgebra(f, c)
    report = check_leibniz(cand)
    return report, (cand if report.ok else None)
