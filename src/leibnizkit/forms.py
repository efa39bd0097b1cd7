"""Leibniz r-matrices (classical Yang-Baxter solutions), sharp maps from
2-tensors and bilinear forms, quadratic algebras, and the coupled structures
tying a Nijenhuis operator to an r-matrix, a Rota-Baxter operator, or a closed
symmetric form.

Dual-side brackets are always formed over the contragredient of the regular
representation; the sharp map of a symmetric 2-tensor has the tensor's own
matrix in dual bases, and the inverse sharp of a form is the matrix of
x -> form(x, .), i.e. the transpose of the form's matrix.

The form identities read the nonzero structure constants ``alg._entries``.
``_pairing_table`` is the one kernel of the invariance of a skew form and
the closedness of a form: the raw table form(e_a, [e_b, e_c]); for a skew
form, form([e_b, e_c], e_a) is minus that table.  ``_invariance_sides``,
``_closedness_sides`` and ``_coupling_sides`` (B(Nx, y) = B(x, Ny)) return
the raw sides of their identities, which the checks hand to
``reports._sides_violations`` on basis triples (pairs for the coupling) and
``search`` evaluates over polynomials for its residues.  ``check_ybe``
adds its four terms from the same entries and the nonzero entries of the
2-tensor into one flat accumulator, compared against zero.  The coupled
structures reuse the operator identities of ``operators`` and the KN core of
``pairs``.
"""

from __future__ import annotations

from itertools import product
from operator import mul

from .algebras import (
    LeibnizAlgebra,
    Representation,
    dual_representation,
    regular_representation,
)
from .errors import (
    Degenerate,
    FieldMismatch,
    HypothesisFailed,
    NotNijenhuis,
    NotRMatrix,
    NotRotaBaxter,
    NotSkew,
    NotSymmetric,
    ShapeMismatch,
)
from .linalg import LinearOperator, Matrix, _flat, is_invertible, mat_inverse
from .operators import (
    as_operator,
    check_compatible,
    check_kupershmidt,
    check_nijenhuis,
    check_rota_baxter,
)
from .reports import CheckReport, Violation, _Record, _sides_violations

# ``pairs`` is imported in the three couplings that run its KN kernel, so a
# Yang-Baxter or quadratic check does not load it.


class Tensor2(_Record):
    """An element of algebra (x) algebra: matrix[i][j] is the coefficient of
    e_i (x) e_j; immutable."""

    __slots__ = ("algebra", "matrix")

    def __init__(self, algebra: LeibnizAlgebra, matrix: Matrix):
        n = algebra.dim
        if matrix.rows != n or matrix.cols != n:
            raise ShapeMismatch("tensor matrix must be dim x dim")
        if matrix.field != algebra.field:
            raise FieldMismatch("tensor matrix must share the algebra's field")
        self.algebra = algebra
        self.matrix = matrix

    @property
    def symmetric(self) -> bool:
        return self.matrix == self.matrix.transpose()


class BilinearForm(_Record):
    """matrix[i][j] = form(e_i, e_j); symmetry is 'symmetric' or 'skew';
    immutable."""

    __slots__ = ("algebra", "matrix", "symmetry")

    def __init__(self, algebra: LeibnizAlgebra, matrix: Matrix, symmetry: str = "symmetric"):
        n = algebra.dim
        if matrix.rows != n or matrix.cols != n:
            raise ShapeMismatch("form matrix must be dim x dim")
        if matrix.field != algebra.field:
            raise FieldMismatch("form matrix must share the algebra's field")
        if symmetry not in ("symmetric", "skew"):
            raise ShapeMismatch(f"unknown symmetry tag {symmetry!r}")
        self.algebra = algebra
        self.matrix = matrix
        self.symmetry = symmetry

    def matches_symmetry(self) -> bool:
        t = self.matrix.transpose()
        return t == self.matrix if self.symmetry == "symmetric" else t == -self.matrix

    @property
    def nondegenerate(self) -> bool:
        return is_invertible(self.matrix)


def _require_on(alg: LeibnizAlgebra, x, what: str) -> None:
    """Raise ShapeMismatch unless the tensor or form ``x`` is on ``alg``."""
    if x.algebra is not alg and x.algebra != alg:
        raise ShapeMismatch(f"{what} belongs to a different algebra")


def check_ybe(alg: LeibnizAlgebra, pi: Tensor2) -> CheckReport:
    """Classical Yang-Baxter equation in the triple tensor power.

    For pi = sum a_u (x) b_u the checked tensor is

        sum_{u,v}  b_u (x) b_v (x) [a_u, a_v]
                 + b_u (x) [a_u, a_v] (x) b_v
                 - ([a_u, a_v] + [a_v, a_u]) (x) b_u (x) b_v  = 0.

    The slot-1 bracket is symmetrized: a left Leibniz bracket is not
    antisymmetric, and this is the component expansion under which symmetric
    solutions are exactly the 2-tensors whose sharp map satisfies the
    module-to-algebra intertwining identity for the contragredient of the
    regular representation (pinned against the quadratic-algebra transfer
    suite; a plain one-order-per-slot reading breaks it).
    """
    alg.require_leibniz()
    _require_on(alg, pi, "tensor")
    f, n = alg.field, alg.dim
    legs = [[(i, a) for i, a in enumerate(row) if a] for row in pi.matrix.entries]
    acc = [0] * n ** 3  # coordinate (i, j, k) at (i * n + j) * n + k
    for p, r, t, v in alg._entries:  # [e_p, e_r] = ... + v e_t
        for i, a in legs[p]:
            for j, b in legs[r]:
                w = a * b * v
                acc[(i * n + j) * n + t] += w  # bracket in slot 3
                acc[(i * n + t) * n + j] += w  # bracket in slot 2
                acc[(t * n + i) * n + j] -= w  # bracket in slot 1
                acc[(t * n + j) * n + i] -= w  # and its other argument order
    return CheckReport.build(_sides_violations("yang-baxter", f, acc, [0] * n ** 3, n, 3))


def sharp_map(pi: Tensor2) -> LinearOperator:
    """The induced map dual -> algebra of a symmetric 2-tensor; its matrix in
    dual bases is the tensor's matrix.  When the tensor solves the YBE the
    result is verified to be Kupershmidt for the contragredient of the regular
    representation."""
    if not pi.symmetric:
        raise NotSymmetric("sharp map needs a symmetric tensor")
    op = LinearOperator(pi.matrix, "dual", "algebra")
    if check_ybe(pi.algebra, pi).ok:
        dual_reg = dual_representation(regular_representation(pi.algebra))
        rpt = check_kupershmidt(op, dual_reg)
        if not rpt.ok:
            raise NotRMatrix(
                f"symmetric YBE solution failed the induced-operator check: {rpt.summary()}"
            )
    return op


def dual_regular(alg: LeibnizAlgebra) -> Representation:
    return dual_representation(regular_representation(alg))


def check_rn_structure(
    alg: LeibnizAlgebra, pi: Tensor2, N: LinearOperator, consequences: bool = True
) -> CheckReport:
    """Couple an r-matrix with a Nijenhuis operator: N pi# = pi# N^T, and the
    bracket induced by N pi# on the dual equals the N^T-deformation of the
    bracket induced by pi#."""
    from .pairs import KNStructure, OperatorPair, _kn_core, check_kn_structure

    N = as_operator(N)
    ybe = check_ybe(alg, pi)
    if not ybe.ok:
        raise NotRMatrix(ybe.summary())
    nij = check_nijenhuis(N, alg)
    if not nij.ok:
        raise NotNijenhuis(nij.summary())
    if not pi.symmetric:
        raise NotSymmetric("r-n structure needs a symmetric r-matrix")
    P = pi.matrix
    Nt = N.matrix.transpose()
    dual_reg = dual_regular(alg)
    violations = _kn_core("rn", P, N.matrix, Nt, dual_reg)[0]
    report = CheckReport.build(violations)
    if report.ok and consequences:
        kn = KNStructure(
            LinearOperator(P, "dual", "algebra"),
            OperatorPair(N, as_operator(Nt)),
            "dual-kn",
        )
        report = report.merged(
            check_kn_structure(kn, dual_reg).prefixed("dual-kn-transfer")
        )
    return report


def check_rbn_structure(
    alg: LeibnizAlgebra, R: LinearOperator, N: LinearOperator
) -> CheckReport:
    """Couple a Rota-Baxter operator with a Nijenhuis operator: NR = RN and
    the bracket induced by NR equals the N-deformation of the one induced by R."""
    from .pairs import _kn_core

    R, N = as_operator(R), as_operator(N)
    rb = check_rota_baxter(R, alg)
    if not rb.ok:
        raise NotRotaBaxter(rb.summary())
    nij = check_nijenhuis(N, alg)
    if not nij.ok:
        raise NotNijenhuis(nij.summary())
    violations = _kn_core("rbn", R.matrix, N.matrix, N.matrix, regular_representation(alg))[0]
    return CheckReport.build(violations)


def form_sharp_matrix(form: BilinearForm) -> Matrix:
    """The sharp map of a nondegenerate form: the inverse of the matrix of
    x -> form(x, .), which is the transpose of the form's matrix."""
    if not form.nondegenerate:
        raise Degenerate("form is degenerate")
    return mat_inverse(form.matrix.transpose())


def check_quadratic(
    alg: LeibnizAlgebra, q: BilinearForm, consequences: bool = True
) -> CheckReport:
    """Invariance of a nondegenerate skew form:
    q(x0, [x1,x2]) = q([x0,x2] + [x2,x0], x1) on all basis triples.

    On success the inverse sharp map is verified to intertwine the regular
    representation with its contragredient."""
    alg.require_leibniz()
    _require_on(alg, q, "form")
    if q.symmetry != "skew" or not q.matches_symmetry():
        raise NotSkew("quadratic algebras need a skew-symmetric form")
    if not q.nondegenerate:
        raise Degenerate("form is degenerate")
    f, n = alg.field, alg.dim
    sides = _invariance_sides(alg, _flat(q.matrix))
    report = CheckReport.build(_sides_violations("quadratic-invariance", f, *sides, n, 3))
    if not report.ok or not consequences:
        return report
    reg = regular_representation(alg)
    dual = dual_representation(reg)
    inv_sharp = q.matrix.transpose()
    extra = []
    for side, reg_family, dual_family in (("left", reg.rhoL, dual.rhoL),
                                          ("right", reg.rhoR, dual.rhoR)):
        lhs = [v for rho in reg_family for v in _flat(inv_sharp * rho)]
        rhs = [v for rho in dual_family for v in _flat(rho * inv_sharp)]
        extra += _sides_violations(f"sharp-intertwine-{side}", f, lhs, rhs, n, 1)
    return report.merged(CheckReport.build(extra))


def rbn_rn_transfer(
    alg: LeibnizAlgebra, q: BilinearForm, R: LinearOperator, N: LinearOperator
) -> CheckReport:
    """On a quadratic algebra, with pi# = R q# and q# N^T = N q#, the
    Rota-Baxter/Nijenhuis coupling for (R, N) holds exactly when the
    r-matrix/Nijenhuis coupling holds for (pi, N).  The report records both
    verdicts and flags any disagreement."""
    R, N = as_operator(R), as_operator(N)
    quad = check_quadratic(alg, q, consequences=False)
    if not quad.ok:
        raise HypothesisFailed(f"form is not invariant: {quad.summary()}")
    nij = check_nijenhuis(N, alg)
    if not nij.ok:
        raise NotNijenhuis(nij.summary())
    qs = form_sharp_matrix(q)
    if qs * N.matrix.transpose() != N.matrix * qs:
        raise HypothesisFailed("sharp map does not intertwine N with its transpose")
    P = R.matrix * qs
    if P != P.transpose():
        raise HypothesisFailed("induced 2-tensor is not symmetric")
    pi = Tensor2(alg, P)

    rbn_ok = check_rota_baxter(R, alg).ok
    if rbn_ok:
        rbn_ok = check_rbn_structure(alg, R, N).ok
    rn_ok = check_ybe(alg, pi).ok
    if rn_ok:
        rn_ok = check_rn_structure(alg, pi, N, consequences=False).ok
    notes = {
        "rota-baxter-side": "ok" if rbn_ok else "fail",
        "r-matrix-side": "ok" if rn_ok else "fail",
    }
    violations = []
    if rbn_ok != rn_ok:
        violations.append(
            Violation("transfer-agreement", (), (1 if rbn_ok else 0,), (1 if rn_ok else 0,))
        )
    return CheckReport.build(violations, notes)


def check_bn_structure(
    alg: LeibnizAlgebra, B: BilinearForm, N: LinearOperator, consequences: bool = True
) -> CheckReport:
    """A closed symmetric nondegenerate form coupled to a Nijenhuis operator:
    the form is closed, B(N.,.) = B(.,N.), and the twisted form B(N.,.) is
    closed again.  Consequences: the sharp map with (N, N^T) is a dual
    KN-structure on the contragredient of the regular representation, and the
    sharp map is compatible with its N-composite."""
    from .pairs import KNStructure, OperatorPair, check_kn_structure

    alg.require_leibniz()
    _require_on(alg, B, "form")
    N = as_operator(N)
    if B.symmetry != "symmetric" or not B.matches_symmetry():
        raise NotSymmetric("BN-structure needs a symmetric form")
    if not B.nondegenerate:
        raise Degenerate("form is degenerate")
    nij = check_nijenhuis(N, alg)
    if not nij.ok:
        raise NotNijenhuis(nij.summary())
    f, n = alg.field, alg.dim
    violations = _sides_violations("bn-closed", f, *_closedness_sides(alg, _flat(B.matrix)), n, 3)
    nt_b, b_n = _coupling_sides(B.matrix, N.matrix)
    violations += _sides_violations("bn-compat", f, nt_b, b_n, n)
    violations += _sides_violations("bn-n-closed", f, *_closedness_sides(alg, nt_b), n, 3)
    report = CheckReport.build(violations)
    if not report.ok or not consequences:
        return report
    dual_reg = dual_regular(alg)
    sharp = form_sharp_matrix(B)
    kn = KNStructure(
        LinearOperator(sharp, "dual", "algebra"),
        OperatorPair(N, as_operator(N.matrix.transpose())),
        "dual-kn",
    )
    report = report.merged(check_kn_structure(kn, dual_reg).prefixed("dual-kn-transfer"))
    report = report.merged(
        check_compatible(
            LinearOperator(sharp, "dual", "algebra"),
            LinearOperator(N.matrix * sharp, "dual", "algebra"),
            dual_reg,
        ).prefixed("sharp-compatible")
    )
    return report


def _pairing_table(alg: LeibnizAlgebra, flat) -> list:
    """form(e_a, [e_b, e_c]) at (a * n + b) * n + c for the form with the
    row-major entries ``flat``, summed over the nonzero structure constants
    as a raw accumulator: the one kernel of the invariance and closedness
    identities."""
    n = alg.dim
    acc = [0] * n ** 3
    for b, c, l, v in alg._entries:
        for a, w in enumerate(flat[l::n]):  # column l of the form
            if w:
                acc[(a * n + b) * n + c] += w * v
    return acc


def _invariance_sides(alg: LeibnizAlgebra, flat):
    """q(x0, [x1,x2]) and q([x0,x2] + [x2,x0], x1) on basis triples, the
    second written for a skew form as -q(x1, [x0,x2]) - q(x1, [x2,x0]): the
    raw sides of the invariance of the skew form q with entries ``flat``."""
    n = alg.dim
    M = _pairing_table(alg, flat)
    return M, [-M[(j * n + i) * n + k] - M[(j * n + k) * n + i]
               for i, j, k in product(range(n), repeat=3)]


def _closedness_sides(alg: LeibnizAlgebra, flat):
    """form(x2, [x0,x1]) and -form(x1, [x0,x2]) + form(x0, [x1,x2]) +
    form(x0, [x2,x1]) on basis triples: the raw sides of the closedness of
    the form with entries ``flat``."""
    n = alg.dim
    M = _pairing_table(alg, flat)
    triples = list(product(range(n), repeat=3))
    return ([M[(k * n + i) * n + j] for i, j, k in triples],
            [M[(i * n + j) * n + k] - M[(j * n + i) * n + k] + M[(i * n + k) * n + j]
             for i, j, k in triples])


def _coupling_sides(bmat: Matrix, nmat: Matrix):
    """N^T B and B N as row-major raw accumulators, for the form matrix B and
    the operator matrix N: the sides of the coupling B(Nx, y) = B(x, Ny)."""
    b_cols, n_cols = tuple(zip(*bmat.entries)), tuple(zip(*nmat.entries))
    return ([sum(map(mul, n_col, b_col)) for n_col in n_cols for b_col in b_cols],
            [sum(map(mul, b_row, n_col)) for b_row in bmat.entries for n_col in n_cols])

