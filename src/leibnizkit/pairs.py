"""Nijenhuis / dual-Nijenhuis pairs coupling an algebra endomorphism with a
module endomorphism, the trivial deformations they generate, the hat/tilde
representations, and KN-structures (a Kupershmidt operator interlocked with a
pair through NK = KS and the agreement of the two deformed module brackets).

The identities are sums X rho(W e_i) Y over the action entries, kept as two
raw accumulators, one for the rhoL family and one for the rhoR family, with
the m x m block of algebra basis element e_i at i m^2, and compared family by
family through ``reports._sides_violations`` on basis elements.
``_pair_sides`` sums both sides of the (dual) Nijenhuis-pair identities,
which every pair, KN, hat/tilde and transfer check runs, in one pass over
each family's entries, with S^2 summed raw from S and each sparse row or
column built once; it builds no matrix and touches entries only through +,
-, * and truth tests, so N and S may hold polynomial unknowns
(``dgla._Poly``).  ``_action_sums`` sums the rest from (W, X, Y) terms: the
perfect-pair identity, the equivalence of ``deformation_from_pair`` and the
hat and tilde families, which ``_deformed_action`` normalises into matrices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Literal, Sequence, Tuple

from .algebras import (
    LeibnizAlgebra,
    Representation,
    check_leibniz,
    check_representation,
    dual_representation,
)
from .errors import (
    FieldMismatch,
    NeitherPairKind,
    NotCompatible,
    NotDualKN,
    NotNijenhuisPair,
    PairCheckFailed,
    ShapeMismatch,
    Singular,
)
from .linalg import LinearOperator, Matrix, _flat, is_invertible, mat_inverse
from .operators import (
    _applied,
    _flat3,
    _images,
    _kupershmidt_core,
    _module_bracket,
    _require_kupershmidt,
    _tensor,
    as_operator,
    check_compatible,
    check_kupershmidt,
    check_nijenhuis,
    deformed_bracket,
    subadjacent_algebra,
    twisted_tensor,
)
from .reports import CheckReport, _Record, _sides_violations

# Only an annotation names the twilled context, and ``sum_nijenhuis_on_twilled``
# imports ``semidirect_sum`` when it runs, so a pair check does not load
# ``twilled``.
if TYPE_CHECKING:
    from .twilled import TwilledContext


class OperatorPair(_Record):
    """(N, S): N an endomorphism of the algebra, S of the module, over one
    field (FieldMismatch otherwise); immutable."""

    __slots__ = ("N", "S")

    def __init__(self, N: LinearOperator, S: LinearOperator):
        if N.field != S.field:
            raise FieldMismatch(f"{N.field} vs {S.field}")
        self.N = N
        self.S = S


def make_pair(N, S) -> OperatorPair:
    return OperatorPair(as_operator(N), as_operator(S))


def _pair_report(pair: OperatorPair, rep: Representation, name: str, dual: bool) -> CheckReport:
    """N Nijenhuis plus the pair identities of ``_pair_identity``."""
    rep.require_representation()
    N, S = pair.N.matrix, pair.S.matrix
    if not (N.rows == N.cols == rep.algebra.dim and S.rows == S.cols == rep.mdim):
        raise ShapeMismatch("pair shapes do not match the representation")
    if N.field != rep.field:  # the pair already holds S over N's field
        raise ShapeMismatch("operator and algebra fields differ")
    violations = list(check_nijenhuis(pair.N, rep.algebra).violations)
    return CheckReport.build(violations + _pair_identity(pair, rep, name, dual))


def _pair_identity(pair: OperatorPair, rep: Representation, name: str, dual: bool):
    """Violations of the pair identities of ``_pair_sides``, named
    ``<name>-left`` for rhoL and ``<name>-right`` for rhoR, indexed by the
    algebra basis element."""
    N, S = pair.N.matrix, pair.S.matrix
    return [v for side, sides in zip(("left", "right"), _pair_sides(N, S, rep, dual))
            for v in _sides_violations(f"{name}-{side}", S.field, *sides, rep.algebra.dim, 1)]


def _pair_sides(N: Matrix, S: Matrix, rep: Representation, dual: bool):
    """The raw sides of, for every algebra basis element y = e_i and both
    action families rho, with D = rho(y)S - S rho(y):

    rho(N y) S = S rho(N y) + S D          (Nijenhuis pair)
    rho(N y) S = S rho(N y) + D S          (dual-Nijenhuis pair)

    where rho(N e_i) = sum_k N[k][i] rho_k, S D = S rho S - S^2 rho and
    D S = rho S^2 - S rho S: one (lhs, rhs) for rhoL, then one for rhoR, the
    m x m block of e_i, row-major, at i m^2.  One pass over the action
    entries sums every term: entry (k, r, t, v) of rho_k adds N[k][i] v S[t][b]
    at (r, b) and N[k][i] S[a][r] v at (a, t) of the block of e_i, and the
    terms in S rho_k S and S^2 to the block of e_k.  S^2 is summed raw, so the
    entries of N and S may be polynomial unknowns."""
    n, m = rep.algebra.dim, rep.mdim
    mm, s = m * m, S.entries
    n_rows = [[(i, w) for i, w in enumerate(row) if w] for row in N.entries]
    s_rows = [[(b, y) for b, y in enumerate(row) if y] for row in s]
    s_cols = [[(a, x) for a, x in enumerate(col) if x] for col in zip(*s)]
    s2 = [[0] * m for _ in range(m)]
    for a, row in enumerate(s_rows):
        for c, x in row:
            for b, y in s_rows[c]:
                s2[a][b] += x * y
    # S rho_k S enters with sign +1 (pair) or -1 (dual pair); S^2 rho_k with
    # -1 through S^2's columns, or rho_k S^2 with +1 through its rows.
    sign = -1 if dual else 1
    s2_line = [[(c, z) for c, z in enumerate(line) if z] for line in (s2 if dual else zip(*s2))]
    sides = []
    for entries in rep._entries():
        lhs, rhs = [0] * (n * mm), [0] * (n * mm)
        for k, r, t, v in entries:
            for i, w in n_rows[k]:
                wv, base = w * v, i * mm
                at = base + r * m
                for b, y in s_rows[t]:
                    lhs[at + b] += wv * y
                at = base + t
                for a, x in s_cols[r]:
                    rhs[at + a * m] += wv * x
            base = k * mm
            for a, x in s_cols[r]:
                svx, at = sign * v * x, base + a * m
                for b, y in s_rows[t]:
                    rhs[at + b] += svx * y
            if dual:
                at = base + r * m
                for b, z in s2_line[t]:
                    rhs[at + b] += v * z
            else:
                for a, z in s2_line[r]:
                    rhs[base + a * m + t] -= v * z
        sides.append((lhs, rhs))
    return sides


def _diag(c, n: int):
    """The rows of c times the n x n identity."""
    return tuple(tuple(c if i == k else 0 for i in range(n)) for k in range(n))


def _action_sums(rep: Representation, terms):
    """The sums X rho(W e_i) Y over ``terms`` (W, X, Y), for W the rows of an
    endomorphism of the algebra and X, Y matrices on the module, as two raw
    accumulators, the first for rho = rhoL and the second for rhoR: the
    m x m block of algebra basis element e_i, row-major, at i m^2.  Entry
    (k, r, t, v) of rho_k adds W[k][i] v X[a][r] Y[t][b] at (a, b) of the
    block of e_i."""
    n, m = rep.algebra.dim, rep.mdim
    mm = m * m
    sums = ([0] * (n * mm), [0] * (n * mm))
    for W, X, Y in terms:
        weights = [[(i, w) for i, w in enumerate(row) if w] for row in W]
        xcols = [[(a, x) for a, x in enumerate(col) if x] for col in zip(*X.entries)]
        yrows = [[(b, y) for b, y in enumerate(row) if y] for row in Y.entries]
        for acc, entries in zip(sums, rep._entries()):
            for k, r, t, v in entries:
                for i, w in weights[k]:
                    base = i * mm
                    for a, x in xcols[r]:
                        wvx = w * v * x
                        row = base + a * m
                        for b, y in yrows[t]:
                            acc[row + b] += wvx * y
    return sums


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
    return CheckReport.build(_perfect_violations(pair, rep))


def _perfect_violations(pair: OperatorPair, rep: Representation):
    """Violations of the perfect-pair identity alone, for a pair already
    known to be a Nijenhuis pair on ``rep``."""
    S = pair.S.matrix
    n, m = rep.algebra.dim, rep.mdim
    one, S2 = Matrix.identity(S.field, m), S * S
    lhs = _action_sums(rep, [(_diag(1, n), S2, one), (_diag(1, n), one, S2)])
    rhs = _action_sums(rep, [(_diag(2, n), S, S)])
    return [v for side, lhs_f, rhs_f in zip(("left", "right"), lhs, rhs)
            for v in _sides_violations(f"perfect-{side}", S.field, lhs_f, rhs_f, n, 1)]


def _deformed_action(
    rep: Representation, N: Matrix, S: Matrix, hat: bool
) -> Tuple[Tuple[Matrix, ...], Tuple[Matrix, ...]]:
    """The left and right families rho(N e_i) + (rho(e_i) S - S rho(e_i)) for
    the hat action, and with the commutator reversed for the tilde action,
    summed from the action entries by ``_action_sums`` and normalised once
    per family."""
    n, m = rep.algebra.dim, rep.mdim
    f = S.field
    one, sign = Matrix.identity(f, m), 1 if hat else -1
    sums = _action_sums(rep, [(N.entries, one, one), (_diag(sign, n), one, S),
                              (_diag(-sign, n), S, one)])
    left, right = (tuple(Matrix._trusted(f, tuple(tuple(flat[(i * m + r) * m:(i * m + r + 1) * m])
                                                   for r in range(m)))
                         for i in range(n))
                   for flat in map(f.normalize_all, sums))
    return left, right


class DeformationTriple(_Record):
    """First-order deformation data generated by a Nijenhuis pair, together
    with the verification report across the sampled parameter values;
    unhashable, as its report is."""

    __slots__ = ("omega", "varpiL", "varpiR", "report")

    def __init__(self, omega: Tuple[Tuple[Tuple, ...], ...], varpiL: Tuple[Matrix, ...],
                 varpiR: Tuple[Matrix, ...], report: CheckReport):
        self.omega = omega
        self.varpiL = varpiL
        self.varpiR = varpiR
        self.report = report

    __hash__ = None


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
    c, w = _flat3(alg.c), _flat3(omega)
    varpiL, varpiR = _deformed_action(rep, N, S, hat=True)
    one = Matrix.identity(f, m)
    violations = []
    notes = {}
    for t_raw in t_samples:
        t = f.of(t_raw)
        tag = f.format(t)
        ct = [a + t * b for a, b in zip(c, w)]  # the deformed bracket, flat and raw
        alg_t = LeibnizAlgebra(f, _tensor(f, ct, n))
        leib = check_leibniz(alg_t)
        violations += leib.prefixed(f"deformed-bracket-t={tag}").violations
        rhoL_t = [rep.rhoL[i] + varpiL[i].scale(t) for i in range(n)]
        rhoR_t = [rep.rhoR[i] + varpiR[i].scale(t) for i in range(n)]
        rep_t = Representation(alg_t, rhoL_t, rhoR_t)
        repr_rpt = check_representation(rep_t)
        violations += repr_rpt.prefixed(f"deformed-action-t={tag}").violations
        P = Matrix.identity(f, n) + N.scale(t)
        Q = one + S.scale(t)
        if not (is_invertible(P) and is_invertible(Q)):
            notes[f"t={tag}"] = "equivalence skipped (I+tN or I+tS singular)"
            continue
        violations += _sides_violations(f"equivalence-bracket-t={tag}", f, _applied(P, ct),
                                        _images(alg, P, P), n)
        lhs = _action_sums(rep_t, [(_diag(1, n), Q, one)])  # Q rho_t(e_i)
        rhs = _action_sums(rep, [(P.entries, one, Q)])  # rho(P e_i) Q
        violations += [v for side, lhs_f, rhs_f in zip(("left", "right"), lhs, rhs)
                       for v in _sides_violations(f"equivalence-{side}-t={tag}", f,
                                                  lhs_f, rhs_f, n, 1)]
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
    and dual-Nijenhuis-pair checks of ``pair`` on ``rep``; kept on ``rep``
    per (pair, is_pair, is_dual)."""
    if not (is_pair or is_dual):
        raise NeitherPairKind("neither the pair nor the dual-pair identities hold")

    def make():
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
    return rep._derived(("hat-tilde", pair, is_pair, is_dual), make)


Mode = Literal["kn", "dual-kn"]


class KNStructure(_Record):
    """A Kupershmidt operator K together with a pair (N,S) satisfying NK = KS
    and the agreement of the NK-bracket with the S-deformed K-bracket;
    immutable."""

    __slots__ = ("K", "pair", "mode")

    def __init__(self, K: LinearOperator, pair: OperatorPair, mode: Mode = "kn"):
        if mode not in ("kn", "dual-kn"):
            raise ShapeMismatch(f"unknown KN mode {mode!r}")
        self.K = K
        self.pair = pair
        self.mode = mode

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
    pairs), with the S-twist of the T-bracket for reuse; the T- and
    NT-brackets are the ones kept on ``rep``.  Serves KN-structures (T = K),
    RBN (T = R, S = N, regular representation) and r-n structures (T = pi#,
    S = N^T, dual of the regular representation)."""
    NT, TS = N * T, T * S
    f = rep.algebra.field
    violations = _sides_violations(f"{tag}-commute", f, _flat(NT), _flat(TS), 1, arity=0)
    rhs = twisted_tensor(_tensor(f, _module_bracket(T, rep), rep.mdim), S, f)
    violations += _sides_violations(f"{tag}-bracket", f, _module_bracket(NT, rep),
                                    _flat3(rhs), rep.mdim)
    return violations, rhs


def _kn_conditions(kn: KNStructure, rep: Representation):
    """``_kn_core`` with T = K, after raising on the preconditions: K
    Kupershmidt and the pair identities of the mode."""
    _require_kupershmidt(kn.K, rep)
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
    violations, s_deformed = _kn_conditions(kn, rep)
    report = CheckReport.build(violations)
    if not report.ok or not consequences:
        return report

    K, m = kn.K.matrix, rep.mdim
    # _kn_conditions established the mode's pair identities, N Nijenhuis
    # included, so the other mode's verdict is its identities alone.
    dual = kn.mode != "kn"
    other = not _pair_identity(kn.pair, rep, "", dual=not dual)
    hat, tilde = _hat_tilde(kn.pair, rep, is_pair=not dual or other, is_dual=dual or other)
    f = rep.algebra.field
    s_flat = _flat3(s_deformed)
    extra = []
    for name, action in (("hat", hat), ("tilde", tilde)):
        extra += _sides_violations(f"bracket-agreement-{name}", f, s_flat,
                                   _module_bracket(K, action), m)
    subalg = subadjacent_algebra(kn.K, rep)
    extra += check_nijenhuis(kn.pair.S, subalg).prefixed("subadjacent-nijenhuis").violations
    # K and NK have the shape of a module map of rep, and so of the deformed
    # action too; both Kupershmidt verdicts reuse the brackets built above.
    name, deformed_rep = ("hat", hat) if kn.mode == "kn" else ("tilde", tilde)
    for label, T, action in ((f"kupershmidt-{name}", K, deformed_rep),
                             ("composite-kupershmidt", kn.N * K, rep)):
        extra += CheckReport.build(_kupershmidt_core(T, action)[0]).prefixed(label).violations
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
    # rpt1 holds, so of check_perfect_pair only the perfect identity is left.
    if _perfect_violations(pairNS, ctx.rho1):
        report.notes["perfect-dual-sum"] = "skipped (pair is not perfect)"
        return report
    from .twilled import semidirect_sum

    dual_sum = semidirect_sum(dual_representation(ctx.rho1))
    # module block (dual of g2) first, then g1
    D2 = _block_diag(f, S.transpose(), N)
    report = report.merged(
        check_nijenhuis(as_operator(D2), dual_sum).prefixed("perfect-dual-sum")
    )
    return report
