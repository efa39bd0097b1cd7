"""Nijenhuis / dual-Nijenhuis pairs coupling an algebra endomorphism with a
module endomorphism, the trivial deformations they generate, the hat/tilde
representations, and KN-structures (a Kupershmidt operator interlocked with a
pair through NK = KS and the agreement of the two deformed module brackets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence, Tuple

from .algebras import (
    LeibnizAlgebra,
    Representation,
    check_leibniz,
    check_representation,
    dual_representation,
    semidirect_sum,
)
from .errors import (
    NeitherPairKind,
    NotCompatible,
    NotDualKN,
    NotKupershmidt,
    NotNijenhuisPair,
    PairCheckFailed,
    ShapeMismatch,
    Singular,
)
from .linalg import Matrix, _flat, is_invertible, mat_inverse
from .operators import (
    LinearOperator,
    as_operator,
    check_compatible,
    check_kupershmidt,
    check_nijenhuis,
    deformed_bracket,
    module_bracket_tensor,
    twisted_tensor,
)
from .reports import CheckReport, Violation
from .twilled import TwilledContext


@dataclass(frozen=True)
class OperatorPair:
    """(N, S): N an endomorphism of the algebra, S of the module."""

    N: LinearOperator
    S: LinearOperator

    def shapes_ok(self, rep: Representation) -> bool:
        n, m = rep.algebra.dim, rep.mdim
        return (
            self.N.matrix.rows == self.N.matrix.cols == n
            and self.S.matrix.rows == self.S.matrix.cols == m
        )


def make_pair(N, S) -> OperatorPair:
    return OperatorPair(as_operator(N), as_operator(S))


def _require_shapes(pair: OperatorPair, rep: Representation):
    if not pair.shapes_ok(rep):
        raise ShapeMismatch("pair shapes do not match the representation")


def _pair_report(pair: OperatorPair, rep: Representation, name: str, dual: bool) -> CheckReport:
    """N Nijenhuis plus the pair identities of ``_pair_identity``."""
    rep.require_representation()
    _require_shapes(pair, rep)
    violations = list(check_nijenhuis(pair.N, rep.algebra).violations)
    return CheckReport.build(violations + _pair_identity(pair, rep, name, dual))


def _pair_identity(pair: OperatorPair, rep: Representation, name: str, dual: bool):
    """Violations of, for every algebra basis element y = e_i and both action
    families rho, with D = rho(y)S - S rho(y):

    rho(N y) S = S rho(N y) + S D          (Nijenhuis pair)
    rho(N y) S = S rho(N y) + D S          (dual-Nijenhuis pair)
    """
    N, S = pair.N.matrix, pair.S.matrix
    violations = []
    for i in range(rep.algebra.dim):
        Ni = N.col(i)
        for side, rho_i, rho_Ni in (
            ("left", rep.rhoL[i], rep.actL(Ni)),
            ("right", rep.rhoR[i], rep.actR(Ni)),
        ):
            D = rho_i * S - S * rho_i
            lhs = rho_Ni * S
            rhs = S * rho_Ni + (D * S if dual else S * D)
            if lhs != rhs:
                violations.append(Violation(f"{name}-{side}", (i,), _flat(lhs), _flat(rhs)))
    return violations


def check_nijenhuis_pair(pair: OperatorPair, rep: Representation) -> CheckReport:
    """rho(N y) S = S rho(N y) + S rho(y) S - S^2 rho(y), with N Nijenhuis."""
    return _pair_report(pair, rep, "pair", dual=False)


def check_dual_nijenhuis_pair(pair: OperatorPair, rep: Representation) -> CheckReport:
    """rho(N y) S = S rho(N y) + rho(y) S^2 - S rho(y) S, with N Nijenhuis."""
    return _pair_report(pair, rep, "dual-pair", dual=True)


def check_perfect_pair(pair: OperatorPair, rep: Representation) -> CheckReport:
    """S^2 rho(y) + rho(y) S^2 = 2 S rho(y) S for both families, on top of the
    Nijenhuis-pair identities."""
    base = check_nijenhuis_pair(pair, rep)
    if not base.ok:
        raise NotNijenhuisPair(base.summary())
    S = pair.S.matrix
    S2 = S * S
    two = rep.algebra.field.of(2)
    violations = []
    for i in range(rep.algebra.dim):
        for name, rho_i in (("perfect-left", rep.rhoL[i]), ("perfect-right", rep.rhoR[i])):
            lhs = S2 * rho_i + rho_i * S2
            rhs = (S * rho_i * S).scale(two)
            if lhs != rhs:
                violations.append(Violation(name, (i,), _flat(lhs), _flat(rhs)))
    return CheckReport.build(violations)


def _deformed_action(
    rep: Representation, N: Matrix, S: Matrix, hat: bool
) -> Tuple[Tuple[Matrix, ...], Tuple[Matrix, ...]]:
    """The left and right families rho(N e_i) + (rho(e_i) S - S rho(e_i)) for
    the hat action, and with the commutator reversed for the tilde action."""

    def family(act, rhos):
        out = []
        for i, rho in enumerate(rhos):
            a, b = (rho, S) if hat else (S, rho)
            out.append(act(N.col(i)) + a * b - b * a)
        return tuple(out)

    return family(rep.actL, rep.rhoL), family(rep.actR, rep.rhoR)


@dataclass
class DeformationTriple:
    """First-order deformation data generated by a Nijenhuis pair, together
    with the verification report across the sampled parameter values."""

    omega: Tuple[Tuple[Tuple, ...], ...]
    varpiL: Tuple[Matrix, ...]
    varpiR: Tuple[Matrix, ...]
    report: CheckReport


def deformation_from_pair(
    pair: OperatorPair, rep: Representation, t_samples: Sequence
) -> DeformationTriple:
    """omega = the N-twisted bracket [Nx,y] + [x,Ny] - N[x,y];
    varpi(y) = rho(Ny) + rho(y)S - S rho(y).

    At every sampled t (where I+tN and I+tS are invertible) this verifies that
    the deformed bracket is Leibniz, the deformed actions form a
    representation of it, and that (I+tN, I+tS) is a morphism from the
    deformed structure onto the undeformed one.
    """
    base = check_nijenhuis_pair(pair, rep)
    if not base.ok:
        raise NotNijenhuisPair(base.summary())
    alg = rep.algebra
    f = alg.field
    n, m = alg.dim, rep.mdim
    N, S = pair.N.matrix, pair.S.matrix
    omega = twisted_tensor(alg.c, N, f)
    varpiL, varpiR = _deformed_action(rep, N, S, hat=True)
    violations = []
    notes = {}
    for t_raw in t_samples:
        t = f.of(t_raw)
        tag = f.format(t)
        ct = tuple(
            tuple(
                tuple(f.add(alg.c[i][j][k], f.mul(t, omega[i][j][k])) for k in range(n))
                for j in range(n)
            )
            for i in range(n)
        )
        alg_t = LeibnizAlgebra(f, ct)
        leib = check_leibniz(alg_t)
        violations += leib.prefixed(f"deformed-bracket-t={tag}").violations
        rhoL_t = [rep.rhoL[i] + varpiL[i].scale(t) for i in range(n)]
        rhoR_t = [rep.rhoR[i] + varpiR[i].scale(t) for i in range(n)]
        rep_t = Representation(alg_t, rhoL_t, rhoR_t)
        repr_rpt = check_representation(rep_t)
        violations += repr_rpt.prefixed(f"deformed-action-t={tag}").violations
        P = Matrix.identity(f, n) + N.scale(t)
        Q = Matrix.identity(f, m) + S.scale(t)
        if not (is_invertible(P) and is_invertible(Q)):
            notes[f"t={tag}"] = "equivalence skipped (I+tN or I+tS singular)"
            continue
        for i in range(n):
            Pi = P.col(i)
            for j in range(n):
                lhs = P.apply(ct[i][j])
                rhs = alg.bracket(Pi, P.col(j))
                if lhs != rhs:
                    violations.append(
                        Violation(f"equivalence-bracket-t={tag}", (i, j), lhs, rhs)
                    )
        for i in range(n):
            lhsL = Q * rhoL_t[i]
            rhsL = rep.actL(P.col(i)) * Q
            if lhsL != rhsL:
                violations.append(
                    Violation(f"equivalence-left-t={tag}", (i,), _flat(lhsL), _flat(rhsL))
                )
            lhsR = Q * rhoR_t[i]
            rhsR = rep.actR(P.col(i)) * Q
            if lhsR != rhsR:
                violations.append(
                    Violation(f"equivalence-right-t={tag}", (i,), _flat(lhsR), _flat(rhsR))
                )
    return DeformationTriple(omega, varpiL, varpiR, CheckReport.build(violations, notes))


def hat_tilde_representations(
    pair: OperatorPair, rep: Representation
) -> Tuple[Representation, Representation]:
    """The two candidate actions of the deformed algebra on the module:

    hat:   rho(Ny) + rho(y)S - S rho(y)
    tilde: rho(Ny) + S rho(y) - rho(y)S

    The hat family is a representation when (N,S) is a Nijenhuis pair, the
    tilde family when (N,S) is a dual-Nijenhuis pair; the applicable one is
    verified here.
    """
    is_pair = check_nijenhuis_pair(pair, rep).ok
    is_dual = check_dual_nijenhuis_pair(pair, rep).ok
    return _hat_tilde(pair, rep, is_pair, is_dual)


def _hat_tilde(
    pair: OperatorPair, rep: Representation, is_pair: bool, is_dual: bool
) -> Tuple[Representation, Representation]:
    """``hat_tilde_representations`` given the verdicts of the Nijenhuis-pair
    and dual-Nijenhuis-pair checks of ``pair`` on ``rep``."""
    if not (is_pair or is_dual):
        raise NeitherPairKind("neither the pair nor the dual-pair identities hold")
    N, S = pair.N.matrix, pair.S.matrix
    deformed = deformed_bracket(pair.N, rep.algebra)
    deformed.require_leibniz()
    hat = Representation(deformed, *_deformed_action(rep, N, S, hat=True))
    tilde = Representation(deformed, *_deformed_action(rep, N, S, hat=False))
    if is_pair:
        hat.require_representation()
    if is_dual:
        tilde.require_representation()
    return hat, tilde


Mode = Literal["kn", "dual-kn"]


@dataclass(frozen=True)
class KNStructure:
    """A Kupershmidt operator K together with a pair (N,S) satisfying NK = KS
    and the agreement of the NK-bracket with the S-deformed K-bracket."""

    K: LinearOperator
    pair: OperatorPair
    mode: Mode = "kn"

    @property
    def N(self) -> Matrix:
        return self.pair.N.matrix

    @property
    def S(self) -> Matrix:
        return self.pair.S.matrix


def make_kn(K, N, S, mode: Mode = "kn") -> KNStructure:
    return KNStructure(as_operator(K), make_pair(N, S), mode)


def _kn_core(tag: str, T: Matrix, N: Matrix, S: Matrix, rep: Representation):
    """Violations of NT = TS (``<tag>-commute``) and of
    [u,v]^{NT} = [u,v]^T twisted by S (``<tag>-bracket``, on module basis
    pairs), with the T-bracket and its S-twist for reuse.  Serves KN-structures
    (T = K), RBN (T = R, S = N, regular representation) and r-n structures
    (T = pi#, S = N^T, dual of the regular representation)."""
    NT, TS = N * T, T * S
    violations = [] if NT == TS else [Violation(f"{tag}-commute", (), _flat(NT), _flat(TS))]
    sub_T = module_bracket_tensor(T, rep)
    lhs = module_bracket_tensor(NT, rep)
    rhs = twisted_tensor(sub_T, S, rep.algebra.field)
    m = rep.mdim
    violations += [
        Violation(f"{tag}-bracket", (i, j), lhs[i][j], rhs[i][j])
        for i in range(m) for j in range(m) if lhs[i][j] != rhs[i][j]
    ]
    return violations, sub_T, rhs


def _kn_conditions(kn: KNStructure, rep: Representation):
    """``_kn_core`` with T = K, after raising on the preconditions: K
    Kupershmidt and the pair identities of the mode."""
    kup = check_kupershmidt(kn.K, rep)
    if not kup.ok:
        raise NotKupershmidt(kup.summary())
    pair_check = (
        check_nijenhuis_pair if kn.mode == "kn" else check_dual_nijenhuis_pair
    )(kn.pair, rep)
    if not pair_check.ok:
        raise PairCheckFailed(pair_check.summary())
    return _kn_core("kn", kn.K.matrix, kn.N, kn.S, rep)


def check_kn_structure(
    kn: KNStructure, rep: Representation, consequences: bool = True
) -> CheckReport:
    """Defining conditions: NK = KS and [w,u]^{NK} = [w,u]_S^K on all module
    basis pairs; the pair must satisfy the mode's coupling identities and K
    must be Kupershmidt (preconditions, raised on failure).

    With ``consequences`` enabled the theorem-level consequences are asserted
    as extra report entries: agreement of all four deformed module brackets,
    S being Nijenhuis on the sub-adjacent algebra, K being Kupershmidt for the
    hat/tilde action over the deformed algebra, and NK being Kupershmidt for
    the original representation.
    """
    violations, sub_K, s_deformed = _kn_conditions(kn, rep)
    report = CheckReport.build(violations)
    if not report.ok or not consequences:
        return report

    K, m = kn.K.matrix, rep.mdim
    # _kn_conditions established the mode's pair identities, N Nijenhuis
    # included, so the other mode's verdict is its identities alone.
    dual = kn.mode != "kn"
    other = not _pair_identity(kn.pair, rep, "", dual=not dual)
    hat, tilde = _hat_tilde(kn.pair, rep, is_pair=not dual or other, is_dual=dual or other)
    hat_bracket = module_bracket_tensor(K, hat)
    tilde_bracket = module_bracket_tensor(K, tilde)
    extra = []
    for i in range(m):
        for j in range(m):
            if s_deformed[i][j] != hat_bracket[i][j]:
                extra.append(
                    Violation("bracket-agreement-hat", (i, j), s_deformed[i][j], hat_bracket[i][j])
                )
            if s_deformed[i][j] != tilde_bracket[i][j]:
                extra.append(
                    Violation("bracket-agreement-tilde", (i, j), s_deformed[i][j], tilde_bracket[i][j])
                )
    subalg = LeibnizAlgebra(rep.algebra.field, sub_K)
    extra += check_nijenhuis(kn.pair.S, subalg).prefixed("subadjacent-nijenhuis").violations
    deformed_rep = hat if kn.mode == "kn" else tilde
    deformed_rep.require_representation()
    extra += check_kupershmidt(kn.K, deformed_rep).prefixed(
        "kupershmidt-hat" if kn.mode == "kn" else "kupershmidt-tilde"
    ).violations
    extra += check_kupershmidt(
        LinearOperator(kn.N * K, kn.K.domain, kn.K.codomain), rep
    ).prefixed("composite-kupershmidt").violations
    return report.merged(CheckReport.build(extra))


def kn_to_dual_kn(kn: KNStructure, rep: Representation) -> KNStructure:
    """An invertible-K KN-structure is automatically a dual KN-structure."""
    if kn.mode != "kn":
        raise PairCheckFailed("input must be in plain KN mode")
    base = check_kn_structure(kn, rep, consequences=False)
    if not base.ok:
        raise PairCheckFailed(base.summary())
    if not is_invertible(kn.K.matrix):
        raise Singular("K is not invertible")
    out = KNStructure(kn.K, kn.pair, "dual-kn")
    rpt = check_kn_structure(out, rep, consequences=False)
    if not rpt.ok:
        raise NotDualKN(rpt.summary())
    return out


def compatible_from_kn(kn: KNStructure, rep: Representation) -> CheckReport:
    """K and K.S are compatible Kupershmidt operators, and their sum is one."""
    base = check_kn_structure(kn, rep, consequences=False)
    if not base.ok:
        raise PairCheckFailed(base.summary())
    KS = LinearOperator(kn.K.matrix * kn.S, kn.K.domain, kn.K.codomain)
    report = check_compatible(kn.K, KS, rep)
    total = LinearOperator(kn.K.matrix + KS.matrix, kn.K.domain, kn.K.codomain)
    report = report.merged(check_kupershmidt(total, rep).prefixed("sum-kupershmidt"))
    return report


def dual_kn_from_compatible(
    K1: LinearOperator, K2: LinearOperator, rep: Representation
) -> Tuple[KNStructure, KNStructure]:
    """From a compatible pair with K1 invertible: S = K1^{-1} K2, N = K2 K1^{-1};
    both (K1, N, S) and (K2, N, S) are dual KN-structures."""
    K1, K2 = as_operator(K1), as_operator(K2)
    comp = check_compatible(K1, K2, rep)
    if not comp.ok:
        raise NotCompatible(comp.summary())
    if not is_invertible(K1.matrix):
        raise Singular("first operator is not invertible")
    K1inv = mat_inverse(K1.matrix)
    S = as_operator(K1inv * K2.matrix, K1.domain, K1.domain)
    N = as_operator(K2.matrix * K1inv, K1.codomain, K1.codomain)
    out1 = KNStructure(K1, OperatorPair(N, S), "dual-kn")
    out2 = KNStructure(K2, OperatorPair(N, S), "dual-kn")
    for out in (out1, out2):
        rpt = check_kn_structure(out, rep, consequences=False)
        if not rpt.ok:
            raise NotDualKN(rpt.summary())
    return out1, out2


def _block_diag(f, A: Matrix, B: Matrix) -> Matrix:
    n, m = A.rows, B.rows
    rows = []
    for i in range(n):
        rows.append(list(A.entries[i]) + [f.zero()] * m)
    for i in range(m):
        rows.append([f.zero()] * n + list(B.entries[i]))
    return Matrix(f, rows)


def sum_nijenhuis_on_twilled(
    pairNS: OperatorPair, pairSN: OperatorPair, ctx: TwilledContext
) -> CheckReport:
    """For a Nijenhuis pair (N,S) on g1 (module g2) and (S,N) on g2 (module
    g1), the block-diagonal sum N (+) S is Nijenhuis on the twilled algebra.

    When (N,S) is additionally perfect and the context is a semidirect sum
    (abelian g2 acting trivially back), N (+) S^T is verified to be Nijenhuis
    on the sum with the dualized module.
    """
    rpt1 = check_nijenhuis_pair(pairNS, ctx.rho1)
    if not rpt1.ok:
        raise PairCheckFailed(f"(N,S) on g1: {rpt1.summary()}")
    rpt2 = check_nijenhuis_pair(pairSN, ctx.rho2)
    if not rpt2.ok:
        raise PairCheckFailed(f"(S,N) on g2: {rpt2.summary()}")
    f = ctx.field
    N, S = pairNS.N.matrix, pairNS.S.matrix
    if pairSN.N.matrix != S or pairSN.S.matrix != N:
        raise ShapeMismatch("second pair must be the first with roles swapped")
    D = _block_diag(f, N, S)
    report = check_nijenhuis(as_operator(D), ctx.total).prefixed("sum")

    semidirect_shaped = ctx.algebra2.c == LeibnizAlgebra.abelian(f, ctx.n2).c and all(
        m.is_zero() for m in list(ctx.rho2.rhoL) + list(ctx.rho2.rhoR)
    )
    if not semidirect_shaped:
        report.notes["perfect-dual-sum"] = "skipped (context is not a semidirect sum)"
        return report
    try:
        perfect = check_perfect_pair(pairNS, ctx.rho1).ok
    except NotNijenhuisPair:
        perfect = False
    if not perfect:
        report.notes["perfect-dual-sum"] = "skipped (pair is not perfect)"
        return report
    dual_sum = semidirect_sum(dual_representation(ctx.rho1))
    # module block (dual of g2) first, then g1
    D2 = _block_diag(f, S.transpose(), N)
    report = report.merged(
        check_nijenhuis(as_operator(D2), dual_sum).prefixed("perfect-dual-sum")
    )
    return report
