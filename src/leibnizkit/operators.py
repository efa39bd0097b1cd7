"""Kupershmidt, Rota-Baxter and Nijenhuis operators; the sub-adjacent algebra
on the module, the induced representation, and the lifted sum algebra; pairwise
compatibility of Kupershmidt operators.

A Kupershmidt operator maps the module into the algebra; its defining identity
is [K(u), K(v)] = K(rhoL(Ku) v + rhoR(Kv) u) on all basis pairs.  Rota-Baxter
(weight zero) is the special case of the regular representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .algebras import (
    LeibnizAlgebra,
    Representation,
    check_matched_pair,
)
from .errors import (
    NotCompatible,
    NotKupershmidt,
    NotNijenhuis,
    ShapeMismatch,
    Singular,
)
from .fields import FieldSpec
from .linalg import Matrix, Vector, is_invertible, mat_inverse, vec_add
from .reports import CheckReport, Violation


@dataclass(frozen=True)
class LinearOperator:
    """A matrix with domain/codomain tags so maps between different spaces
    cannot be silently confused (module->algebra vs algebra->algebra)."""

    matrix: Matrix
    domain: str = ""
    codomain: str = ""

    @property
    def field(self) -> FieldSpec:
        return self.matrix.field

    def __call__(self, vec: Sequence) -> Vector:
        return self.matrix.apply(vec)

    def compose(self, inner: "LinearOperator") -> "LinearOperator":
        return LinearOperator(self.matrix * inner.matrix, inner.domain, self.codomain)


def as_operator(m, domain: str = "", codomain: str = "") -> LinearOperator:
    if isinstance(m, LinearOperator):
        return m
    return LinearOperator(m, domain, codomain)


@dataclass(frozen=True)
class DendriformPair:
    """The two half-products on the module whose sum is the sub-adjacent bracket."""

    lhd: Tuple[Tuple[Vector, ...], ...]  # u <| v = rhoL(Ku) v
    rhd: Tuple[Tuple[Vector, ...], ...]  # u |> v = rhoR(Kv) u


def _require_module_map(K: LinearOperator, rep: Representation):
    if K.matrix.rows != rep.algebra.dim or K.matrix.cols != rep.mdim:
        raise ShapeMismatch(
            f"operator is {K.matrix.rows}x{K.matrix.cols}, expected "
            f"{rep.algebra.dim}x{rep.mdim} (module -> algebra)"
        )
    if K.field != rep.algebra.field:
        raise ShapeMismatch("operator and representation fields differ")


def module_bracket_tensor(T: Matrix, rep: Representation):
    """Bracket [u,v]^T = rhoL(Tu) v + rhoR(Tv) u on the module, for any linear
    T: module -> algebra; the sub-adjacent bracket when T is Kupershmidt."""
    f = rep.algebra.field
    m = rep.mdim
    rows = []
    for i in range(m):
        Ti = T.col(i)
        Li = rep.actL(Ti)
        row = []
        for j in range(m):
            Tj = T.col(j)
            row.append(vec_add(f, Li.col(j), rep.actR(Tj).col(i)))
        rows.append(tuple(row))
    return tuple(rows)


def twisted_tensor(c, T: Matrix, f: FieldSpec):
    """Deform a bilinear tensor by an endomorphism:
    B_T(x,y) = B(Tx,y) + B(x,Ty) - T(B(x,y)), entrywise on basis pairs."""
    n = len(c)
    if T.rows != n or T.cols != n:
        raise ShapeMismatch("twisting endomorphism must be square of the tensor's size")

    def at(i: int, j: int) -> Vector:
        acc = [0] * n
        col_i, col_j = T.col(i), T.col(j)
        for a in range(n):
            if not f.is_zero(col_i[a]):
                va = c[a][j]
                s = col_i[a]
                for k in range(n):
                    acc[k] += s * va[k]
        for b in range(n):
            if not f.is_zero(col_j[b]):
                vb = c[i][b]
                s = col_j[b]
                for k in range(n):
                    acc[k] += s * vb[k]
        tv = T.apply(c[i][j])
        return tuple(f.normalize(acc[k] - tv[k]) for k in range(n))

    return tuple(tuple(at(i, j) for j in range(n)) for i in range(n))


def check_kupershmidt(K: LinearOperator, rep: Representation) -> CheckReport:
    """[K(u),K(v)] = K(rhoL(Ku) v + rhoR(Kv) u) on all module basis pairs."""
    rep.require_representation()
    K = as_operator(K)
    _require_module_map(K, rep)
    alg = rep.algebra
    f = alg.field
    m = rep.mdim
    sub = module_bracket_tensor(K.matrix, rep)
    violations = []
    for i in range(m):
        Ki = K.matrix.col(i)
        for j in range(m):
            lhs = alg.bracket(Ki, K.matrix.col(j))
            rhs = K.matrix.apply(sub[i][j])
            if lhs != rhs:
                violations.append(Violation("kupershmidt", (i, j), lhs, rhs))
    return CheckReport.build(violations)


def subadjacent_algebra(
    K: LinearOperator, rep: Representation
) -> Tuple[DendriformPair, LeibnizAlgebra]:
    K = as_operator(K)
    report = check_kupershmidt(K, rep)
    if not report.ok:
        raise NotKupershmidt(report.summary())
    f = rep.algebra.field
    m = rep.mdim
    lhd = tuple(
        tuple(rep.actL(K.matrix.col(i)).col(j) for j in range(m)) for i in range(m)
    )
    rhd = tuple(
        tuple(rep.actR(K.matrix.col(j)).col(i) for j in range(m)) for i in range(m)
    )
    c = [[vec_add(f, lhd[i][j], rhd[i][j]) for j in range(m)] for i in range(m)]
    alg = LeibnizAlgebra(f, c)
    alg.require_leibniz()
    return DendriformPair(lhd, rhd), alg


def induced_action(T: Matrix, rep: Representation) -> Tuple[list, list]:
    """For a map T: module -> algebra, the matrices on the algebra of
    x -> [T(v_i),x] - T(rhoR(x)v_i) and x -> [x,T(v_i)] - T(rhoL(x)v_i), one
    pair per module basis vector v_i."""
    alg = rep.algebra
    f = alg.field
    n = alg.dim
    vrL, vrR = [], []
    for i in range(rep.mdim):
        Ti = T.col(i)
        # x -> rhoR(x) v_i and x -> rhoL(x) v_i as matrices in x
        MR = Matrix.from_cols(f, [rep.rhoR[j].col(i) for j in range(n)])
        ML = Matrix.from_cols(f, [rep.rhoL[j].col(i) for j in range(n)])
        left = Matrix.from_cols(f, [alg.bracket(Ti, [1 if t == j else 0 for t in range(n)]) for j in range(n)])
        right = Matrix.from_cols(f, [alg.bracket([1 if t == j else 0 for t in range(n)], Ti) for j in range(n)])
        vrL.append(left - T * MR)
        vrR.append(right - T * ML)
    return vrL, vrR


def induced_representation(K: LinearOperator, rep: Representation) -> Representation:
    """The natural action of the sub-adjacent algebra back on the original
    algebra: vrL(v) x = [K(v),x] - K(rhoR(x)v), vrR(v) x = [x,K(v)] - K(rhoL(x)v)."""
    K = as_operator(K)
    _, subalg = subadjacent_algebra(K, rep)
    f = rep.algebra.field
    m = rep.mdim
    Kmat = K.matrix
    vrL, vrR = induced_action(Kmat, rep)
    out = Representation(subalg, vrL, vrR)
    out.require_representation()
    # equivariance: K intertwines the sub-adjacent bracket with the induced action
    for i in range(m):
        for j in range(m):
            lhs = Kmat.apply(subalg.bracket_basis(i, j))
            rhs = vec_add(f, vrL[i].apply(Kmat.col(j)), vrR[j].apply(Kmat.col(i)))
            if lhs != rhs:
                raise NotKupershmidt(
                    f"induced action is not K-equivariant at basis pair ({i},{j})"
                )
    return out


def lifted_algebra(K: LinearOperator, rep: Representation) -> LeibnizAlgebra:
    """The sum algebra on algebra (+) module induced by a Kupershmidt operator;
    algebra block first.  Equals the twilled algebra of the original algebra
    with the sub-adjacent one."""
    K = as_operator(K)
    _, subalg = subadjacent_algebra(K, rep)
    induced = induced_representation(K, rep)
    report, twilled = check_matched_pair(rep.algebra, subalg, rep, induced)
    if twilled is None:
        raise NotKupershmidt(f"lifted bracket is not Leibniz: {report.summary()}")
    return twilled


def check_nijenhuis(N: LinearOperator, alg: LeibnizAlgebra) -> CheckReport:
    """[N(x),N(y)] = N([N(x),y] + [x,N(y)] - N[x,y]) on all basis pairs."""
    alg.require_leibniz()
    N = as_operator(N)
    if N.matrix.rows != alg.dim or N.matrix.cols != alg.dim:
        raise ShapeMismatch("Nijenhuis candidate must be an endomorphism of the algebra")
    f = alg.field
    n = alg.dim
    twisted = twisted_tensor(alg.c, N.matrix, f)
    violations = []
    for i in range(n):
        Ni = N.matrix.col(i)
        for j in range(n):
            lhs = alg.bracket(Ni, N.matrix.col(j))
            rhs = N.matrix.apply(twisted[i][j])
            if lhs != rhs:
                violations.append(Violation("nijenhuis", (i, j), lhs, rhs))
    return CheckReport.build(violations)


def deformed_bracket(N: LinearOperator, alg: LeibnizAlgebra) -> LeibnizAlgebra:
    """[x,y]_N = [Nx,y] + [x,Ny] - N[x,y]; a Leibniz algebra whenever N is
    Nijenhuis (the tensor itself is defined for any N)."""
    N = as_operator(N)
    if N.matrix.rows != alg.dim or N.matrix.cols != alg.dim:
        raise ShapeMismatch("deforming endomorphism must be square")
    return LeibnizAlgebra(alg.field, twisted_tensor(alg.c, N.matrix, alg.field))


def check_rota_baxter(R: LinearOperator, alg: LeibnizAlgebra) -> CheckReport:
    """Weight-zero condition [R(x),R(y)] = R([R(x),y] + [x,R(y)]) on basis pairs."""
    alg.require_leibniz()
    R = as_operator(R)
    if R.matrix.rows != alg.dim or R.matrix.cols != alg.dim:
        raise ShapeMismatch("Rota-Baxter candidate must be an endomorphism")
    f = alg.field
    n = alg.dim
    violations = []
    for i in range(n):
        Ri = R.matrix.col(i)
        for j in range(n):
            Rj = R.matrix.col(j)
            ej = [1 if t == j else 0 for t in range(n)]
            ei = [1 if t == i else 0 for t in range(n)]
            lhs = alg.bracket(Ri, Rj)
            rhs = R.matrix.apply(vec_add(f, alg.bracket(Ri, ej), alg.bracket(ei, Rj)))
            if lhs != rhs:
                violations.append(Violation("rota-baxter", (i, j), lhs, rhs))
    return CheckReport.build(violations)


_COMPAT_SAMPLES = ((1, 1), (2, -1), ("1/2", 3))


def check_compatible(
    K1: LinearOperator, K2: LinearOperator, rep: Representation
) -> CheckReport:
    """Mixed Kupershmidt identity for a pair of Kupershmidt operators:

    [K1 w, K2 v] + [K2 w, K1 v] =
        K1(rhoL(K2 w)v + rhoR(K2 v)w) + K2(rhoL(K1 w)v + rhoR(K1 v)w)

    On success, also spot-checks that sampled linear combinations are again
    Kupershmidt (samples whose coefficients do not embed in the field are
    skipped).
    """
    K1, K2 = as_operator(K1), as_operator(K2)
    for K in (K1, K2):
        r = check_kupershmidt(K, rep)
        if not r.ok:
            raise NotKupershmidt(r.summary())
    alg = rep.algebra
    f = alg.field
    m = rep.mdim
    violations = []
    for i in range(m):
        K1i, K2i = K1.matrix.col(i), K2.matrix.col(i)
        for j in range(m):
            K1j, K2j = K1.matrix.col(j), K2.matrix.col(j)
            lhs = vec_add(f, alg.bracket(K1i, K2j), alg.bracket(K2i, K1j))
            mixed1 = vec_add(f, rep.actL(K2i).col(j), rep.actR(K2j).col(i))
            mixed2 = vec_add(f, rep.actL(K1i).col(j), rep.actR(K1j).col(i))
            rhs = vec_add(f, K1.matrix.apply(mixed1), K2.matrix.apply(mixed2))
            if lhs != rhs:
                violations.append(Violation("compatible", (i, j), lhs, rhs))
    report = CheckReport.build(violations)
    if not report.ok:
        return report
    notes = {}
    for n1, n2 in _COMPAT_SAMPLES:
        try:
            a, b = f.of(n1), f.of(n2)
        except Exception:
            notes[f"sample-{n1},{n2}"] = "skipped (coefficients not in field)"
            continue
        comb = K1.matrix.scale(a) + K2.matrix.scale(b)
        sub = check_kupershmidt(LinearOperator(comb, K1.domain, K1.codomain), rep)
        if not sub.ok:
            report = report.merged(sub.prefixed(f"combination-{n1},{n2}"))
    report.notes.update(notes)
    return report


def check_nk_condition(
    N: LinearOperator, K: LinearOperator, rep: Representation
) -> CheckReport:
    """The condition equivalent to the composite NK being Kupershmidt:

    N([NKw, Ku] + [Kw, NKu]) =
        NK(rhoL(NKw)u + rhoR(NKu)w) + N^2 K(rhoL(Kw)u + rhoR(Ku)w)

    Cross-checked against check_kupershmidt(NK) directly; a mismatch between
    the two routes is reported as a defect.
    """
    N, K = as_operator(N), as_operator(K)
    alg = rep.algebra
    nij = check_nijenhuis(N, alg)
    if not nij.ok:
        raise NotNijenhuis(nij.summary())
    kup = check_kupershmidt(K, rep)
    if not kup.ok:
        raise NotKupershmidt(kup.summary())
    f = alg.field
    m = rep.mdim
    NK = N.matrix * K.matrix
    NNK = N.matrix * NK
    violations = []
    for i in range(m):
        Ki, NKi = K.matrix.col(i), NK.col(i)
        for j in range(m):
            Kj, NKj = K.matrix.col(j), NK.col(j)
            lhs = N.matrix.apply(vec_add(f, alg.bracket(NKi, Kj), alg.bracket(Ki, NKj)))
            t1 = NK.apply(vec_add(f, rep.actL(NKi).col(j), rep.actR(NKj).col(i)))
            t2 = NNK.apply(vec_add(f, rep.actL(Ki).col(j), rep.actR(Kj).col(i)))
            rhs = vec_add(f, t1, t2)
            if lhs != rhs:
                violations.append(Violation("nk-condition", (i, j), lhs, rhs))
    report = CheckReport.build(violations)
    direct = check_kupershmidt(LinearOperator(NK, K.domain, K.codomain), rep)
    if report.ok != direct.ok:
        report = report.merged(
            CheckReport.build(
                [
                    Violation(
                        "nk-condition-vs-composite",
                        (),
                        (1 if report.ok else 0,),
                        (1 if direct.ok else 0,),
                    )
                ]
            )
        )
    report.notes["composite-kupershmidt"] = "ok" if direct.ok else direct.summary()
    return report


def nijenhuis_from_compatible(
    K1: LinearOperator, K2: LinearOperator, rep: Representation
) -> LinearOperator:
    """N = K1 K2^{-1} for a compatible pair with invertible K2."""
    K1, K2 = as_operator(K1), as_operator(K2)
    comp = check_compatible(K1, K2, rep)
    if not comp.ok:
        raise NotCompatible(comp.summary())
    if not is_invertible(K2.matrix):
        raise Singular("second operator is not invertible")
    N = LinearOperator(K1.matrix * mat_inverse(K2.matrix), K1.codomain, K1.codomain)
    rpt = check_nijenhuis(N, rep.algebra)
    if not rpt.ok:
        raise NotNijenhuis(f"quotient of a compatible pair failed: {rpt.summary()}")
    return N
