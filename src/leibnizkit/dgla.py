"""The graded Lie bracket on multilinear cochains, the induced differential,
Maurer-Cartan checks on twilled algebras, and the structure transfer along a
strong Maurer-Cartan solution.

A cochain of arity k is a map from basis k-tuples to coordinate vectors.
The insertion product sums over (k-1, n)-shuffles of the first k+n-1 inputs,
feeding the n shuffled slots plus one fixed input to the inner cochain:

    (f o_k g)(x_0..x_{m+n}) =
        sum_sigma sign(sigma) f(x_{sigma(0)}..x_{sigma(k-2)},
                                g(x_{sigma(k-1)}..x_{sigma(k+n-2)}, x_{k+n-1}),
                                x_{k+n}..x_{m+n})

with f of arity m+1, g of arity n+1.  The graded bracket is
{f,g} = f ob g - (-1)^{mn} g ob f with ob = sum_k (-1)^{(k-1)n} o_k.

One kernel, ``_insertion_sum``, evaluates every such product.  It reads the
nonzero entries of each cochain (cached per ``Cochain``), pairs each entry of
g with the entries of f whose k-th input is g's output coordinate, and places
each shuffle's term at an output index given by fixed index weights.  The
grouping of f's entries by their k-th input, with the output position of
their tail inputs, does not depend on g, so each ``Cochain`` keeps it per
slot k (``_groups``).  The placements of f's entries for one shuffle, their
output positions with the shuffled prefix inputs placed, depend on g only
through its degree n, so each ``Cochain`` also keeps, per (k, n), the list
over shuffles of (sign, the index weights of g's inputs, f's placed
buckets) (``_placed``), and reuses it for every inner cochain of that
degree.  All the terms of a bracket, both f ob g and -+ g ob f, go into one
raw accumulator, a dict by output position, so only the positions some term
touched are normalised, once each; every other coordinate is zero.  The
result is built through ``Cochain._trusted``, which skips the validation the
public constructor does.  Cochain sums, differences and multiples are
normalised in one batch.

``mc_cochain_defects`` builds the two lifted cochains of a twilled context
once and keeps them on the context, so the many thetas checked on one
context share them and their groupings and placements.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import chain, combinations, product
from operator import add, mul
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

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
from .linalg import LinearOperator, Matrix, is_invertible, mat_inverse
from .operators import (
    _equivariance_sides,
    _kupershmidt_sides,
    _lift,
    as_operator,
    check_compatible,
    check_kupershmidt,
    deformed_bracket,
    induced_action,
    induced_representation,
    module_bracket_tensor,
)
from .algebras import check_matched_pair
from .reports import CheckReport, _sides_violations
from .twilled import TwilledContext

# ``pairs`` is imported in the functions that build or check KN-structures,
# so a Maurer-Cartan check does not load it.
if TYPE_CHECKING:
    from .pairs import KNStructure


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
    """Multilinear map from arity-many algebra slots to the algebra, stored
    densely; its nonzero entries are listed once, on first use, and its
    groupings per slot and placements per (slot, inner degree) as an outer
    cochain of ``_insertion_sum`` are kept for its life."""

    __slots__ = ("field", "dim", "arity", "data", "_nonzero", "_groups", "_placed")

    def __init__(self, field: FieldSpec, dim: int, arity: int, data: Sequence[Sequence]):
        if arity < 1:
            raise ShapeMismatch("arity must be >= 1")
        # For dim >= 2, dim ** arity exceeds len(data) once arity reaches its
        # bit length; the power is not formed then, so a huge arity costs no
        # time or memory.
        if dim > 1 and arity >= len(data).bit_length() or len(data) != dim ** arity:
            raise ShapeMismatch(f"expected {dim}^{arity} entries, got {len(data)}")
        self.field = field
        self.dim = dim
        self.arity = arity
        self.data = tuple(
            tuple(field.normalize(v) for v in vec) for vec in data
        )
        if any(len(vec) != dim for vec in self.data):
            raise ShapeMismatch("output vectors must have the algebra dimension")
        self._nonzero, self._groups, self._placed = None, {}, {}

    @classmethod
    def _trusted(cls, field: FieldSpec, dim: int, arity: int, data: tuple) -> "Cochain":
        """Wrap a tuple of normalised coordinate tuples of the right shape
        without checking or normalising it again."""
        self = cls.__new__(cls)
        self.field, self.dim, self.arity, self.data = field, dim, arity, data
        self._nonzero, self._groups, self._placed = None, {}, {}
        return self

    def _entries(self) -> Tuple[Tuple[Tuple[int, ...], int, object], ...]:
        """The nonzero entries (input index tuple, output coordinate, value),
        in lexicographic order."""
        if self._nonzero is None:
            self._nonzero = tuple(
                (idx, j, v)
                for idx, vec in zip(product(range(self.dim), repeat=self.arity), self.data)
                for j, v in enumerate(vec) if v
            )
        return self._nonzero

    def _by_slot(self, k: int):
        """The nonzero entries grouped by their k-th input, as (prefix inputs,
        output position of the tail inputs and the coordinate, value), kept
        per k.  Input k + s sits at output weight dim^(arity - k - s) whatever
        the inner cochain, so one grouping serves every bracket at slot k."""
        groups = self._groups.get(k)
        if groups is None:
            dim = self.dim
            tail_w = [dim ** (self.arity - t) for t in range(k, self.arity)]
            groups = [[] for _ in range(dim)]
            for idx, l, v in self._entries():
                tail = sum(a * w for a, w in zip(idx[k:], tail_w)) + l
                groups[idx[k - 1]].append((idx[:k - 1], tail, v))
            self._groups[k] = groups
        return groups

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
        return Cochain._trusted(m.field, m.rows, 1, tuple(m.col(j) for j in range(m.cols)))

    @staticmethod
    def from_algebra(alg: LeibnizAlgebra) -> "Cochain":
        return Cochain._trusted(alg.field, alg.dim, 2, tuple(vec for row in alg.c for vec in row))

    @staticmethod
    def from_tensor(field: FieldSpec, tensor) -> "Cochain":
        """The arity-2 cochain of a normalised n x n x n bracket tensor."""
        return Cochain._trusted(field, len(tensor), 2,
                                tuple(tuple(vec) for row in tensor for vec in row))

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
        return not any(map(any, self.data))

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
        return self._like(map(add, _flat(self), _flat(other)))

    def scale(self, s) -> "Cochain":
        s = self.field.of(s)
        return self._like(s * v for v in _flat(self))

    def _like(self, raw) -> "Cochain":
        """The cochain on this space with the flat raw coordinates ``raw``."""
        return _from_flat(self.field, self.dim, self.arity, raw)

    def _join(self, other: "Cochain"):
        if not isinstance(other, Cochain):
            raise TypeError("expected Cochain")
        if self.field != other.field or self.dim != other.dim:
            raise SpaceMismatch("cochains live on different spaces")
        if self.arity != other.arity:
            raise SpaceMismatch("cochain arities differ")

    def __repr__(self):
        return f"Cochain(dim={self.dim}, arity={self.arity})"


def _flat(c: Cochain):
    """The coordinates of c in one flat run."""
    return chain.from_iterable(c.data)


def _from_flat(field: FieldSpec, dim: int, arity: int, raw) -> Cochain:
    """The cochain with the flat raw coordinates ``raw``, normalised at once."""
    vals = iter(field.normalize_all(raw))
    return Cochain._trusted(field, dim, arity, tuple(zip(*[vals] * dim)))


def _ob(coef: int, f: Cochain, g: Cochain):
    """The terms of coef * (f ob g) = sum_k coef (-1)^{(k-1) deg g} f o_k g."""
    n = g.degree
    return [(-coef if (k - 1) * n % 2 else coef, f, g, k) for k in range(1, f.arity + 1)]


def _insertion_sum(terms) -> Cochain:
    """sum coef * (f o_k g) over the terms (coef, f, g, k), which share one
    space and one output arity, normalised once at the end."""
    field, dim = terms[0][1].field, terms[0][1].dim
    arity = terms[0][1].arity + terms[0][2].arity - 1
    for _, f, g, _ in terms:
        if (f.field, f.dim) != (field, dim) or (g.field, g.dim) != (field, dim):
            raise SpaceMismatch("cochains live on different spaces")
    # Flat output position of (input tuple x, coordinate l) is
    # (sum_t x_t dim^{arity-1-t}) * dim + l; weights[t] = dim^{arity-t}.
    weights = [dim ** (arity - t) for t in range(arity)]
    acc = defaultdict(int)
    for coef, f, g, k in terms:
        n = g.degree
        placed = f._placed.get((k, n))
        if placed is None:
            # per shuffle: its sign, the weights of g's n shuffled inputs and
            # its fixed input, and f's buckets with the prefix inputs placed
            placed = []
            for perm, sign in _shuffles(k - 1, n):
                w = [weights[pos] for pos in perm]
                pre_w, in_w = w[:k - 1], tuple(w[k - 1:]) + (weights[k + n - 1],)
                placed.append((sign, in_w, tuple(
                    tuple((sum(map(mul, pre, pre_w)) + tail, v) for pre, tail, v in bucket)
                    for bucket in f._by_slot(k))))
            f._placed[(k, n)] = placed = tuple(placed)
        g_entries = g._entries()
        for sign, in_w, outer in placed:
            s = coef * sign
            for idx, j, c in g_entries:
                bucket = outer[j]
                if not bucket:
                    continue
                off = sum(map(mul, idx, in_w))
                sc = s * c
                for pos, v in bucket:
                    acc[pos + off] += sc * v
    flat = [0] * (dim ** arity * dim)
    for pos, v in zip(acc, field.normalize_all(acc.values())):
        flat[pos] = v
    vals = iter(flat)
    return Cochain._trusted(field, dim, arity, tuple(zip(*[vals] * dim)))


def bracket_square(phi: Cochain) -> Cochain:
    """phi ob phi.  For odd-degree phi this is the integral half of
    {phi, phi} = 2 (phi ob phi): its quadratic refinement, defined in every
    characteristic, characteristic 2 included."""
    return _insertion_sum(_ob(1, phi, phi))


def balavoine_bracket(phi1: Cochain, phi2: Cochain) -> Cochain:
    """{phi1, phi2} = phi1 ob phi2 - (-1)^{deg1 deg2} phi2 ob phi1, both
    terms summed into one accumulator.

    For odd-degree phi the diagonal {phi, phi} = 2 (phi ob phi) vanishes
    identically in characteristic 2, so there it is defined as the integral
    half phi ob phi instead (the convention of a graded Lie algebra with a
    quadratic refinement); {mu, mu} = 0 then still says mu is Leibniz."""
    if phi1.degree % 2 and phi1 == phi2:
        return _insertion_sum(_ob(1 if phi1.field.char == 2 else 2, phi1, phi1))
    sign = 1 if (phi1.degree * phi2.degree) % 2 else -1
    return _insertion_sum(_ob(1, phi1, phi2) + _ob(sign, phi2, phi1))


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
    algebra, [theta x, theta y] + rho1(x, y) = theta([x, y]^theta) + theta[x, y]
    with rho1(x, y) = rhoL(x) theta y + rhoR(y) theta x; with ``strong`` the
    linear equivariance part theta[x, y] = rho1(x, y) must hold on its own."""
    if theta.rows != ctx.n2 or theta.cols != ctx.n1:
        raise ShapeMismatch(f"theta must be {ctx.n2}x{ctx.n1}")
    f, n1 = ctx.field, ctx.n1
    whole, linear = _mc_sides(ctx, theta)
    violations = _sides_violations("maurer-cartan", f, *whole, n1)
    if strong:
        violations += _sides_violations("maurer-cartan-linear", f, *linear, n1)
    return CheckReport.build(violations)


def _mc_sides(ctx: TwilledContext, theta: Matrix):
    """The raw sides of the Maurer-Cartan equation on g1 basis pairs, then
    those of its linear part theta[x, y] = rho1(x, y), the equivariance of
    theta for rho1.  The equation adds the linear part, its sides crossed, to
    the Kupershmidt identity of theta for rho2; the strong equation is both."""
    lin_lhs, lin_rhs = _equivariance_sides(ctx.rho1, theta)
    kup_lhs, kup_rhs = _kupershmidt_sides(theta, ctx.rho2)
    return (list(map(add, kup_lhs, lin_rhs)), list(map(add, kup_rhs, lin_lhs))), (lin_lhs, lin_rhs)


def mc_cochain_defects(ctx: TwilledContext, theta: Matrix) -> Tuple[Cochain, Cochain]:
    """The graded-bracket formulation of the same equations: the differential
    {mu1, theta} of theta along the g1-side lift mu1, and half the
    derived-bracket square (1/2){{mu2, theta}, theta} along the g2-side lift
    mu2.  Weak MC is their sum vanishing, strong MC both separately.

    The embedded theta squares to zero, so the terms of {{mu2, theta}, theta}
    come in equal pairs and the half is the integral sum

        q = (mu2 o_1 theta) o_2 theta - theta ob (mu2 ob theta),
        q(x, y) = mu2(theta x, theta y) - theta mu2(theta x, y) - theta mu2(x, theta y),

    which needs no division and holds in every characteristic.  The two
    lifted cochains are built once per context and kept on it."""
    if ctx._lift_cochains is None:
        ctx._lift_cochains = tuple(Cochain.from_tensor(ctx.field, mu) for mu in ctx._lift_pair())
    mu1, mu2 = ctx._lift_cochains
    th = Cochain.from_matrix(ctx.embed_map(theta))
    d_theta = balavoine_bracket(mu1, th)
    first = _insertion_sum([(1, mu2, th, 1)])
    quad = _insertion_sum([(1, first, th, 2)] + _ob(-1, th, _insertion_sum(_ob(1, mu2, th))))
    return d_theta, quad


def _lifted_context(K: LinearOperator, rep: Representation, theta: Optional[Matrix] = None):
    """The induced representation of (K, rep) and the twilled context of the
    lifted sum, kept on ``rep`` per K; with ``theta``, raises NotStrongMC
    unless theta solves the strong Maurer-Cartan equation there."""
    K = as_operator(K)
    vr, lifted = _lift(K, rep)
    ctx = rep._derived(("context", K.matrix),
                       lambda: TwilledContext(lifted, rep.algebra.dim, rep.mdim))
    if theta is not None:
        mc = check_maurer_cartan(ctx, theta, strong=True)
        if not mc.ok:
            raise NotStrongMC(mc.summary())
    return vr, ctx


def theta_twist(
    K: LinearOperator, rep: Representation, theta: Matrix
) -> Tuple[LeibnizAlgebra, Representation, LeibnizAlgebra]:
    """Transfer the structure along a strong Maurer-Cartan solution theta on
    the lifted sum: the twisted bracket on the algebra, the action of the
    twisted algebra on the module, and the total bracket on module (+) twisted
    algebra.  The transferred Kupershmidt properties of K are re-verified."""
    K = as_operator(K)
    f = rep.algebra.field
    n, m = rep.algebra.dim, rep.mdim
    vr, _ = _lifted_context(K, rep, theta)
    g_theta = LeibnizAlgebra(f, module_bracket_tensor(theta, vr))
    g_theta.require_leibniz()

    rho_theta = Representation(g_theta, *induced_action(theta, vr))
    rho_theta.require_representation()

    report, total = check_matched_pair(vr.algebra, g_theta, vr, rho_theta)
    if total is None:
        raise LeibnizKitError(f"twisted total bracket is not Leibniz: {report.summary()}")

    kup = check_kupershmidt(K, rho_theta)
    if not kup.ok:
        raise LeibnizKitError(f"K fails Kupershmidt for the twisted action: {kup.summary()}")
    ctx2 = TwilledContext(total, m, n)
    k_mc = check_maurer_cartan(ctx2, K.matrix, strong=True)
    if not k_mc.ok:
        raise LeibnizKitError(f"K fails strong MC on the twisted sum: {k_mc.summary()}")
    return g_theta, rho_theta, total


def dual_kn_from_mc(
    K: LinearOperator, rep: Representation, theta: Matrix
) -> KNStructure:
    """A strong Maurer-Cartan solution yields the dual KN-structure
    (K, N = K theta, S = theta K); the mirrored structure over the induced
    representation and the compatibility consequences are re-verified."""
    from .pairs import KNStructure, OperatorPair, check_kn_structure

    K = as_operator(K)
    vr, _ = _lifted_context(K, rep, theta)
    N = K.matrix * theta
    S = theta * K.matrix
    kn = KNStructure(K, OperatorPair(as_operator(N), as_operator(S)), "dual-kn")
    rpt = check_kn_structure(kn, rep, consequences=False)
    if not rpt.ok:
        raise NotDualKN(rpt.summary())

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
    from .pairs import check_kn_structure

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
    _lifted_context(kn.K, rep, theta)
    return theta


def tilde_varrho_bracket(kn: KNStructure, rep: Representation) -> LeibnizAlgebra:
    """The deformed total bracket of a dual KN-structure on module (+) algebra,
    combining the S-deformed sub-adjacent bracket, the N-deformed algebra
    bracket, the twisted induced action and the tilde action."""
    from .pairs import _deformed_action, _hat_tilde, _kn_conditions

    if kn.mode != "dual-kn":
        raise NotDualKN("input must be in dual KN mode")
    violations, s_deformed = _kn_conditions(kn, rep)
    if violations:
        raise NotDualKN(CheckReport.build(violations).summary())
    alg = rep.algebra
    N, S = kn.N, kn.S
    vr = induced_representation(kn.K, rep)
    mod_alg = LeibnizAlgebra(alg.field, s_deformed)
    g_N = deformed_bracket(kn.pair.N, alg)

    _, tilde = _hat_tilde(kn.pair, rep, False, True)
    kup = check_kupershmidt(kn.K, tilde)
    if not kup.ok:
        raise LeibnizKitError(
            f"K fails Kupershmidt for the tilde action over the deformed algebra: {kup.summary()}"
        )
    action_on_g = Representation(mod_alg, *_deformed_action(vr, S, N, hat=False))
    action_on_mod = Representation(g_N, tilde.rhoL, tilde.rhoR)
    report, total = check_matched_pair(mod_alg, g_N, action_on_g, action_on_mod)
    if total is None:
        raise LeibnizKitError(f"deformed total bracket is not Leibniz: {report.summary()}")
    return total
