"""The graded Lie bracket on multilinear cochains, the induced differential,
Maurer-Cartan checks on twilled algebras, and the structure transfer along a
strong Maurer-Cartan solution.

A cochain of arity k is a dense map from basis k-tuples to coordinate vectors.
The insertion product sums over (k-1, n)-shuffles of the first k+n-1 inputs,
feeding the n shuffled slots plus one fixed input to the inner cochain:

    (f o_k g)(x_0..x_{m+n}) =
        sum_sigma sign(sigma) f(x_{sigma(0)}..x_{sigma(k-2)},
                                g(x_{sigma(k-1)}..x_{sigma(k+n-2)}, x_{k+n-1}),
                                x_{k+n}..x_{m+n})

with f of arity m+1, g of arity n+1.  The graded bracket is
{f,g} = f ob g - (-1)^{mn} g ob f with ob = sum_k (-1)^{(k-1)n} o_k.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Sequence, Tuple

from .algebras import LeibnizAlgebra, Representation, check_leibniz
from .errors import (
    LeibnizKitError,
    NotLeibniz,
    NotStrongMC,
    NotDualKN,
    ShapeMismatch,
    Singular,
    SpaceMismatch,
)
from .fields import FieldSpec
from .linalg import Matrix, is_invertible, mat_inverse, vec_add
from .operators import (
    LinearOperator,
    as_operator,
    check_compatible,
    check_kupershmidt,
    deformed_bracket,
    induced_action,
    induced_representation,
    module_bracket_tensor,
    subadjacent_algebra,
    lifted_algebra,
    twisted_tensor,
)
from .algebras import check_matched_pair
from .pairs import (
    KNStructure,
    OperatorPair,
    check_kn_structure,
    hat_tilde_representations,
)
from .reports import CheckReport, Violation
from .twilled import TwilledContext


@lru_cache(maxsize=None)
def _shuffles(p: int, q: int) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """(p,q)-shuffles of {0..p+q-1} as (position->index tuple, sign) pairs."""
    out = []
    universe = tuple(range(p + q))
    for first in combinations(universe, p):
        rest = tuple(i for i in universe if i not in first)
        perm = first + rest
        inv = 0
        for a in range(len(perm)):
            for b in range(a + 1, len(perm)):
                if perm[a] > perm[b]:
                    inv += 1
        out.append((perm, -1 if inv % 2 else 1))
    return tuple(out)


class Cochain:
    """Dense multilinear map from arity-many algebra slots to the algebra."""

    __slots__ = ("field", "dim", "arity", "data")

    def __init__(self, field: FieldSpec, dim: int, arity: int, data: Sequence[Sequence]):
        if arity < 1:
            raise ShapeMismatch("arity must be >= 1")
        if len(data) != dim ** arity:
            raise ShapeMismatch(f"expected {dim ** arity} entries, got {len(data)}")
        self.field = field
        self.dim = dim
        self.arity = arity
        self.data = tuple(
            tuple(field.normalize(v) for v in vec) for vec in data
        )
        if any(len(vec) != dim for vec in self.data):
            raise ShapeMismatch("output vectors must have the algebra dimension")

    @property
    def degree(self) -> int:
        return self.arity - 1

    @staticmethod
    def zero(field: FieldSpec, dim: int, arity: int) -> "Cochain":
        z = (field.zero(),) * dim
        return Cochain(field, dim, arity, [z] * (dim ** arity))

    @staticmethod
    def from_matrix(m: Matrix) -> "Cochain":
        if m.rows != m.cols:
            raise ShapeMismatch("arity-1 cochain needs a square matrix")
        return Cochain(m.field, m.rows, 1, [m.col(j) for j in range(m.cols)])

    @staticmethod
    def from_algebra(alg: LeibnizAlgebra) -> "Cochain":
        data = [alg.c[i][j] for i in range(alg.dim) for j in range(alg.dim)]
        return Cochain(alg.field, alg.dim, 2, data)

    @staticmethod
    def from_tensor(field: FieldSpec, tensor) -> "Cochain":
        dim = len(tensor)
        data = [tensor[i][j] for i in range(dim) for j in range(dim)]
        return Cochain(field, dim, 2, data)

    def to_algebra(self) -> LeibnizAlgebra:
        if self.arity != 2:
            raise ShapeMismatch("only arity-2 cochains are bracket candidates")
        n = self.dim
        c = [[self.data[i * n + j] for j in range(n)] for i in range(n)]
        return LeibnizAlgebra(self.field, c)

    def at(self, idx: Sequence[int]):
        flat = 0
        for i in idx:
            flat = flat * self.dim + i
        return self.data[flat]

    def is_zero(self) -> bool:
        f = self.field
        return all(f.is_zero(v) for vec in self.data for v in vec)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and (self.field, self.dim, self.arity) == (other.field, other.dim, other.arity)
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.dim, self.arity, self.data))

    def __add__(self, other: "Cochain") -> "Cochain":
        self._join(other)
        f = self.field
        return Cochain(
            self.field, self.dim, self.arity,
            [tuple(f.add(a, b) for a, b in zip(u, v)) for u, v in zip(self.data, other.data)],
        )

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._join(other)
        f = self.field
        return Cochain(
            self.field, self.dim, self.arity,
            [tuple(f.sub(a, b) for a, b in zip(u, v)) for u, v in zip(self.data, other.data)],
        )

    def scale(self, s) -> "Cochain":
        f = self.field
        s = f.of(s)
        return Cochain(
            self.field, self.dim, self.arity,
            [tuple(f.mul(s, v) for v in vec) for vec in self.data],
        )

    def _join(self, other: "Cochain"):
        if not isinstance(other, Cochain):
            raise TypeError("expected Cochain")
        if self.field != other.field or self.dim != other.dim:
            raise SpaceMismatch("cochains live on different spaces")
        if self.arity != other.arity:
            raise SpaceMismatch("cochain arities differ")

    def __repr__(self):
        return f"Cochain(dim={self.dim}, arity={self.arity})"


def _circ_bar(phi1: Cochain, phi2: Cochain) -> Cochain:
    """phi1 ob phi2 = sum_k (-1)^{(k-1) deg(phi2)} phi1 o_k phi2."""
    if phi1.field != phi2.field or phi1.dim != phi2.dim:
        raise SpaceMismatch("cochains live on different spaces")
    f = phi1.field
    dim = phi1.dim
    m = phi1.degree
    n = phi2.degree
    out_arity = m + n + 1
    size = dim ** out_arity
    out = [[0] * dim for _ in range(size)]
    d1 = phi1.data
    d2 = phi2.data
    is_zero = f.is_zero
    for k in range(1, m + 2):
        ksign = -1 if ((k - 1) * n) % 2 else 1
        shs = _shuffles(k - 1, n)
        fixed_inner = k + n - 1
        tail_start = k + n
        for flat in range(size):
            # decode flat index into the input tuple
            x = []
            rem = flat
            for _ in range(out_arity):
                x.append(rem % dim)
                rem //= dim
            x.reverse()
            acc = out[flat]
            tail = x[tail_start:]
            xf = x[fixed_inner]
            for perm, sign in shs:
                inner_flat = 0
                for t in range(n):
                    inner_flat = inner_flat * dim + x[perm[k - 1 + t]]
                inner_flat = inner_flat * dim + xf
                inner_vec = d2[inner_flat]
                s = ksign * sign
                prefix = [x[perm[t]] for t in range(k - 1)]
                for j in range(dim):
                    cj = inner_vec[j]
                    if is_zero(cj):
                        continue
                    outer_flat = 0
                    for t in prefix:
                        outer_flat = outer_flat * dim + t
                    outer_flat = outer_flat * dim + j
                    for t in tail:
                        outer_flat = outer_flat * dim + t
                    vec = d1[outer_flat]
                    coef = s * cj
                    for c_idx in range(dim):
                        acc[c_idx] += coef * vec[c_idx]
    norm = f.normalize
    return Cochain(f, dim, out_arity, [tuple(norm(v) for v in row) for row in out])


def bracket_square(phi: Cochain) -> Cochain:
    """phi ob phi: the quadratic refinement of {phi, phi} for odd-degree phi,
    which equals twice it in characteristic != 2."""
    return _circ_bar(phi, phi)


def balavoine_bracket(phi1: Cochain, phi2: Cochain) -> Cochain:
    """{phi1, phi2} = phi1 ob phi2 - (-1)^{deg1 deg2} phi2 ob phi1.

    For odd-degree phi the diagonal {phi, phi} = 2 (phi ob phi) vanishes
    identically in characteristic 2, so there it is defined as the square
    phi ob phi instead (the convention of a graded Lie algebra with a
    quadratic refinement); {mu, mu} = 0 then still says mu is Leibniz."""
    if phi1.degree % 2 and phi1 == phi2:
        sq = bracket_square(phi1)
        return sq if phi1.field.char == 2 else sq + sq
    a = _circ_bar(phi1, phi2)
    b = _circ_bar(phi2, phi1)
    if (phi1.degree * phi2.degree) % 2:
        return a + b
    return a - b


def coboundary(mu: Cochain, phi: Cochain) -> Cochain:
    """d(phi) = {mu, phi} for a Leibniz bracket mu; raises if mu is not one."""
    alg = mu.to_algebra()
    if not alg.is_leibniz:
        raise NotLeibniz(check_leibniz(alg).summary())
    return balavoine_bracket(mu, phi)


def dgla_bracket(mu: Cochain, phi1: Cochain, phi2: Cochain) -> Cochain:
    """[phi1, phi2]_mu = (-1)^{deg phi1} {{mu, phi1}, phi2}."""
    inner = balavoine_bracket(mu, phi1)
    out = balavoine_bracket(inner, phi2)
    if phi1.degree % 2:
        return out.scale(-1)
    return out


def check_maurer_cartan(
    ctx: TwilledContext, theta: Matrix, strong: bool = False
) -> CheckReport:
    """Elementwise Maurer-Cartan condition for theta: g1 -> g2 on a twilled
    algebra; with ``strong`` the linear equivariance part must vanish on its
    own as well."""
    if theta.rows != ctx.n2 or theta.cols != ctx.n1:
        raise ShapeMismatch(f"theta must be {ctx.n2}x{ctx.n1}")
    f = ctx.field
    g1, g2 = ctx.algebra1, ctx.algebra2
    rho1, rho2 = ctx.rho1, ctx.rho2
    violations = []
    for i in range(ctx.n1):
        ti = theta.col(i)
        for j in range(ctx.n1):
            tj = theta.col(j)
            lin_rhs = vec_add(f, rho1.rhoL[i].apply(tj), rho1.rhoR[j].apply(ti))
            lin_lhs = theta.apply(g1.bracket_basis(i, j))
            quad_lhs = vec_add(f, g2.bracket(ti, tj), lin_rhs)
            quad_rhs = vec_add(
                f,
                theta.apply(vec_add(f, rho2.actL(ti).col(j), rho2.actR(tj).col(i))),
                lin_lhs,
            )
            if quad_lhs != quad_rhs:
                violations.append(Violation("maurer-cartan", (i, j), quad_lhs, quad_rhs))
            if strong and lin_lhs != lin_rhs:
                violations.append(
                    Violation("maurer-cartan-linear", (i, j), lin_lhs, lin_rhs)
                )
    return CheckReport.build(violations)


def mc_cochain_defects(ctx: TwilledContext, theta: Matrix) -> Tuple[Cochain, Cochain]:
    """The graded-bracket formulation of the same equations: the differential
    of theta along the g1-side lift, and half the derived-bracket square along
    the g2-side lift.  Weak MC is their sum vanishing, strong MC both
    separately.  Needs characteristic != 2 for the half."""
    f = ctx.field
    if f.char == 2:
        raise LeibnizKitError("graded-bracket route needs characteristic != 2")
    mu1 = Cochain.from_tensor(f, ctx.lift1())
    mu2 = Cochain.from_tensor(f, ctx.lift2())
    th = Cochain.from_matrix(ctx.embed_map(theta))
    d_theta = balavoine_bracket(mu1, th)
    quad = balavoine_bracket(balavoine_bracket(mu2, th), th).scale(f.div(f.one(), f.of(2)))
    return d_theta, quad


def theta_twist(
    K: LinearOperator, rep: Representation, theta: Matrix
) -> Tuple[LeibnizAlgebra, Representation, LeibnizAlgebra]:
    """Transfer the structure along a strong Maurer-Cartan solution theta on
    the lifted sum: the twisted bracket on the algebra, the action of the
    twisted algebra on the module, and the total bracket on module (+) twisted
    algebra.  The transferred Kupershmidt properties of K are re-verified."""
    K = as_operator(K)
    alg = rep.algebra
    f = alg.field
    n, m = alg.dim, rep.mdim
    lifted = lifted_algebra(K, rep)
    ctx = TwilledContext(lifted, n, m)
    mc = check_maurer_cartan(ctx, theta, strong=True)
    if not mc.ok:
        raise NotStrongMC(mc.summary())
    vr = induced_representation(K, rep)
    _, subalg = subadjacent_algebra(K, rep)

    twisted = tuple(
        tuple(
            vec_add(f, vr.actL(theta.col(i)).col(j), vr.actR(theta.col(j)).col(i))
            for j in range(n)
        )
        for i in range(n)
    )
    g_theta = LeibnizAlgebra(f, twisted)
    g_theta.require_leibniz()

    rho_theta = Representation(g_theta, *induced_action(theta, vr))
    rho_theta.require_representation()

    report, total = check_matched_pair(subalg, g_theta, vr, rho_theta)
    if total is None:
        raise LeibnizKitError(f"twisted total bracket is not Leibniz: {report.summary()}")

    kup = check_kupershmidt(kn_operator(K, rep), rho_theta)
    if not kup.ok:
        raise LeibnizKitError(f"K fails Kupershmidt for the twisted action: {kup.summary()}")
    ctx2 = TwilledContext(total, m, n)
    k_mc = check_maurer_cartan(ctx2, K.matrix, strong=True)
    if not k_mc.ok:
        raise LeibnizKitError(f"K fails strong MC on the twisted sum: {k_mc.summary()}")
    return g_theta, rho_theta, total


def kn_operator(K: LinearOperator, rep: Representation) -> LinearOperator:
    return as_operator(K.matrix if isinstance(K, LinearOperator) else K, "module", "algebra")


def dual_kn_from_mc(
    K: LinearOperator, rep: Representation, theta: Matrix
) -> KNStructure:
    """A strong Maurer-Cartan solution yields the dual KN-structure
    (K, N = K theta, S = theta K); the mirrored structure over the induced
    representation and the compatibility consequences are re-verified."""
    K = as_operator(K)
    alg = rep.algebra
    f = alg.field
    lifted = lifted_algebra(K, rep)
    ctx = TwilledContext(lifted, alg.dim, rep.mdim)
    mc = check_maurer_cartan(ctx, theta, strong=True)
    if not mc.ok:
        raise NotStrongMC(mc.summary())
    N = K.matrix * theta
    S = theta * K.matrix
    kn = KNStructure(K, OperatorPair(as_operator(N), as_operator(S)), "dual-kn")
    rpt = check_kn_structure(kn, rep, consequences=False)
    if not rpt.ok:
        raise NotDualKN(rpt.summary())

    vr = induced_representation(K, rep)
    mirrored = KNStructure(
        as_operator(theta), OperatorPair(as_operator(S), as_operator(N)), "dual-kn"
    )
    rpt2 = check_kn_structure(mirrored, vr, consequences=False)
    if not rpt2.ok:
        raise NotDualKN(f"mirrored structure over the induced action: {rpt2.summary()}")

    ktk = as_operator(K.matrix * theta * K.matrix, "module", "algebra")
    kup = check_kupershmidt(ktk, rep)
    if not kup.ok:
        raise LeibnizKitError(f"K theta K fails Kupershmidt: {kup.summary()}")
    comp = check_compatible(K, ktk, rep)
    if not comp.ok:
        raise LeibnizKitError(f"K and (K theta)K are not compatible: {comp.summary()}")
    return kn


def mc_from_dual_kn(kn: KNStructure, rep: Representation) -> Matrix:
    """For a dual KN-structure with invertible K, theta = K^{-1} N = S K^{-1}
    solves the strong Maurer-Cartan equation on the lifted sum."""
    if kn.mode != "dual-kn":
        raise NotDualKN("input must be in dual KN mode")
    rpt = check_kn_structure(kn, rep, consequences=False)
    if not rpt.ok:
        raise NotDualKN(rpt.summary())
    if not is_invertible(kn.K.matrix):
        raise Singular("K is not invertible")
    Kinv = mat_inverse(kn.K.matrix)
    theta = Kinv * kn.N
    if theta != kn.S * Kinv:
        raise LeibnizKitError("K^{-1} N and S K^{-1} disagree")
    lifted = lifted_algebra(kn.K, rep)
    ctx = TwilledContext(lifted, rep.algebra.dim, rep.mdim)
    mc = check_maurer_cartan(ctx, theta, strong=True)
    if not mc.ok:
        raise NotStrongMC(mc.summary())
    return theta


def tilde_varrho_bracket(kn: KNStructure, rep: Representation) -> LeibnizAlgebra:
    """The deformed total bracket of a dual KN-structure on module (+) algebra,
    combining the S-deformed sub-adjacent bracket, the N-deformed algebra
    bracket, the twisted induced action and the tilde action."""
    if kn.mode != "dual-kn":
        raise NotDualKN("input must be in dual KN mode")
    rpt = check_kn_structure(kn, rep, consequences=False)
    if not rpt.ok:
        raise NotDualKN(rpt.summary())
    alg = rep.algebra
    f = alg.field
    n, m = alg.dim, rep.mdim
    K, N, S = kn.K.matrix, kn.N, kn.S
    vr = induced_representation(kn.K, rep)
    sub_K = module_bracket_tensor(K, rep)
    mod_alg = LeibnizAlgebra(f, twisted_tensor(sub_K, S, f))
    g_N = deformed_bracket(kn.pair.N, alg)

    tvrL = [vr.actL(S.col(i)) - (vr.rhoL[i] * N - N * vr.rhoL[i]) for i in range(m)]
    tvrR = [vr.actR(S.col(i)) - (vr.rhoR[i] * N - N * vr.rhoR[i]) for i in range(m)]
    _, tilde = hat_tilde_representations(kn.pair, rep)
    tilde.require_representation()
    kup = check_kupershmidt(kn.K, tilde)
    if not kup.ok:
        raise LeibnizKitError(
            f"K fails Kupershmidt for the tilde action over the deformed algebra: {kup.summary()}"
        )
    action_on_g = Representation(mod_alg, tvrL, tvrR)
    action_on_mod = Representation(g_N, tilde.rhoL, tilde.rhoR)
    report, total = check_matched_pair(mod_alg, g_N, action_on_g, action_on_mod)
    if total is None:
        raise LeibnizKitError(f"deformed total bracket is not Leibniz: {report.summary()}")
    return total
