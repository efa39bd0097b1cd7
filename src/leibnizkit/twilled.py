"""Sums of Leibniz algebras and twilled Leibniz algebras: the bracket on a
sum g1 (+) g2 from two brackets and two mutual actions, the semidirect sum
of a representation, matched pairs, the lift of a Kupershmidt operator (its
induced representation and the lifted sum, through which an operator
extends its algebra by the module), and the twilled context: a sum algebra
split into two subalgebras, each acting on the other.  The Maurer-Cartan
machinery of ``dgla`` builds the two structure lifts of a context (each
subalgebra's bracket with its action on the other block) by
``_sum_bracket``, once, when it compiles the context's defects, and keeps
only what it compiled (``_mc_terms``).

Block convention: the first ``n1`` coordinates are g1, the rest g2.  ``rho1``
is the action of g1 on g2's space, ``rho2`` the action of g2 on g1's space
(each indexed by the acting algebra).

Of the checks, only the Maurer-Cartan ones, which read a twilled context,
load this module: the checks of algebras, representations, operators, pairs
and forms run none of it, and ``pairs`` imports ``semidirect_sum`` inside
the one function that sums.  The induced representation and the lift of an
operator are kept on its representation, as ``operators`` keeps what it
derives (see ``Representation._derived``).
"""

from __future__ import annotations

from typing import Optional, Tuple

from .algebras import LeibnizAlgebra, Representation, check_leibniz
from .errors import FieldMismatch, NotKupershmidt, NotLeibniz, ShapeMismatch
from .fields import FieldSpec
from .linalg import LinearOperator, Matrix
from .operators import _equivariance_sides, _module_map, subadjacent_algebra
from .reports import CheckReport, _sides_violations


def _sum_bracket(f: FieldSpec, c1, c2, act1: Optional[Representation],
                 act2: Optional[Representation]):
    """Bracket tensor on g1 (+) g2, g1 block first, from the two bracket
    tensors and the two mutual actions: ``act1`` of g1 on g2's space, ``act2``
    of g2 on g1's space, None for the zero action.

    [x, a] = act2R(a) x  (+)  act1L(x) a,   [a, x] = act2L(a) x  (+)  act1R(x) a
    """
    n1, n2 = len(c1), len(c2)
    z1, z2 = (f.zero(),) * n1, (f.zero(),) * n2
    rows = []
    for i in range(n1):
        row = [c1[i][j] + z2 for j in range(n1)]
        row += [(act2.rhoR[a].col(i) if act2 else z1) + (act1.rhoL[i].col(a) if act1 else z2)
                for a in range(n2)]
        rows.append(tuple(row))
    for a in range(n2):
        row = [(act2.rhoL[a].col(j) if act2 else z1) + (act1.rhoR[j].col(a) if act1 else z2)
               for j in range(n1)]
        row += [z1 + c2[a][b] for b in range(n2)]
        rows.append(tuple(row))
    return tuple(rows)


def semidirect_sum(rep: Representation) -> LeibnizAlgebra:
    """Leibniz structure on module (+) algebra, module coordinates first:

    [w0+x0, w1+x1] = rhoR(x1) w0 + rhoL(x0) w1  (+)  [x0, x1]
    """
    rep.require_representation()
    alg = rep.algebra
    f = alg.field
    module = LeibnizAlgebra.abelian(f, rep.mdim)
    out = LeibnizAlgebra(f, _sum_bracket(f, module.c, alg.c, None, rep))
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
    cand = LeibnizAlgebra(g1.field, _sum_bracket(g1.field, g1.c, g2.c, rho1, rho2))
    report = cand._leibniz_report = check_leibniz(cand)
    return report, (cand if report.ok else None)


def induced_action(T: Matrix, rep: Representation) -> Tuple[list, list]:
    """For a map T: module -> algebra, the matrices on the algebra of
    x -> [T(v_i),x] - T(rhoR(x)v_i) and x -> [x,T(v_i)] - T(rhoL(x)v_i), one
    pair per module basis vector v_i.  Both families are summed from the
    structure constants and the action entries into one accumulator each,
    entry (r, j) of the matrix of v_i at (i * n + r) * n + j, and normalised
    once."""
    alg = rep.algebra
    f, n, m = alg.field, alg.dim, rep.mdim
    rows, cols = T.entries, tuple(zip(*T.entries))
    nn = n * n
    accL, accR = [0] * (m * nn), [0] * (m * nn)
    for a, b, l, v in alg._entries:
        for i, t in enumerate(rows[a]):  # [T v_i, e_b]
            if t:
                accL[i * nn + l * n + b] += t * v
        for i, t in enumerate(rows[b]):  # [e_a, T v_i]
            if t:
                accR[i * nn + l * n + a] += t * v
    left, right = rep._entries()
    for acc, entries in ((accL, right), (accR, left)):
        for k, s, c, v in entries:  # rho(e_k) v_c = sum_s rho_k[s][c] v_s
            for r, t in enumerate(cols[s]):
                if t:
                    acc[c * nn + r * n + k] -= t * v
    vrL, vrR = ([Matrix._trusted(f, tuple(flat[(i * n + r) * n:(i * n + r + 1) * n]
                                          for r in range(n)))
                 for i in range(m)]
                for flat in (tuple(f.normalize_all(accL)), tuple(f.normalize_all(accR))))
    return vrL, vrR


def induced_representation(K: LinearOperator, rep: Representation) -> Representation:
    """The natural action of the sub-adjacent algebra back on the original
    algebra: vrL(v) x = [K(v),x] - K(rhoR(x)v), vrR(v) x = [x,K(v)] - K(rhoL(x)v);
    kept on ``rep`` per K."""
    K = _module_map(K, rep)

    def make():
        subalg = subadjacent_algebra(K, rep)
        Kmat = K.matrix
        out = Representation(subalg, *induced_action(Kmat, rep))
        out.require_representation()
        # equivariance: K intertwines the sub-adjacent bracket with the induced action
        unequal = _sides_violations("equivariance", rep.algebra.field,
                                    *_equivariance_sides(out, Kmat), rep.mdim)
        if unequal:
            i, j = unequal[0].index
            raise NotKupershmidt(f"induced action is not K-equivariant at basis pair ({i},{j})")
        return out
    return rep._derived(("induced", K.matrix), make)


def _lift(K: LinearOperator, rep: Representation) -> Tuple[Representation, LeibnizAlgebra]:
    """The induced representation, whose algebra is the sub-adjacent one, and
    the lifted sum built from it; kept on ``rep`` per K."""
    K = _module_map(K, rep)

    def make():
        induced = induced_representation(K, rep)
        report, twilled = check_matched_pair(rep.algebra, induced.algebra, rep, induced)
        if twilled is None:
            raise NotKupershmidt(f"lifted bracket is not Leibniz: {report.summary()}")
        return induced, twilled
    return rep._derived(("lift", K.matrix), make)


def lifted_algebra(K: LinearOperator, rep: Representation) -> LeibnizAlgebra:
    """The sum algebra on algebra (+) module induced by a Kupershmidt operator;
    algebra block first.  Equals the twilled algebra of the original algebra
    with the sub-adjacent one."""
    return _lift(K, rep)[1]


class TwilledContext:
    """A verified twilled algebra with its recovered matched-pair data."""

    __slots__ = (
        "total", "n1", "n2",
        "algebra1", "algebra2", "rho1", "rho2", "_mc_terms",
    )

    def __init__(self, total: LeibnizAlgebra, n1: int, n2: int):
        if n1 + n2 != total.dim or n1 < 0 or n2 < 0:
            raise ShapeMismatch(f"split {n1}+{n2} != total dim {total.dim}")
        total.require_leibniz()
        f = total.field
        c = total.c
        # subalgebra closure
        for i in range(n1):
            for j in range(n1):
                if any(not f.is_zero(v) for v in c[i][j][n1:]):
                    raise NotLeibniz("g1 block is not a subalgebra")
        for i in range(n1, n1 + n2):
            for j in range(n1, n1 + n2):
                if any(not f.is_zero(v) for v in c[i][j][:n1]):
                    raise NotLeibniz("g2 block is not a subalgebra")
        self.total = total
        self.n1, self.n2 = n1, n2
        c1 = tuple(tuple(c[i][j][:n1] for j in range(n1)) for i in range(n1))
        c2 = tuple(
            tuple(c[n1 + i][n1 + j][n1:] for j in range(n2)) for i in range(n2)
        )
        self.algebra1 = LeibnizAlgebra(f, c1)
        self.algebra2 = LeibnizAlgebra(f, c2)
        # g1 acting on g2: L from [x, b], R from [b, x]
        rho1L = [
            Matrix.from_cols(f, [c[i][n1 + b][n1:] for b in range(n2)])
            for i in range(n1)
        ]
        rho1R = [
            Matrix.from_cols(f, [c[n1 + b][i][n1:] for b in range(n2)])
            for i in range(n1)
        ]
        # g2 acting on g1: L from [a, y], R from [y, a]
        rho2L = [
            Matrix.from_cols(f, [c[n1 + a][j][:n1] for j in range(n1)])
            for a in range(n2)
        ]
        rho2R = [
            Matrix.from_cols(f, [c[j][n1 + a][:n1] for j in range(n1)])
            for a in range(n2)
        ]
        # Both are representations: the Leibniz identity of the total
        # bracket on (g1, g1, g2) triples, projected onto g2, is the three
        # action axioms of rho1, and with the blocks swapped those of rho2.
        self.rho1 = Representation(self.algebra1, rho1L, rho1R)
        self.rho2 = Representation(self.algebra2, rho2L, rho2R)
        # the Maurer-Cartan defects, once ``dgla`` has compiled them
        self._mc_terms = None

    @property
    def field(self):
        return self.total.field

    def _require_map(self, theta: Matrix) -> None:
        """Raise ShapeMismatch unless theta is a g1 -> g2 map over the
        context's field."""
        if theta.rows != self.n2 or theta.cols != self.n1:
            raise ShapeMismatch(
                f"map must be {self.n2}x{self.n1} (g1 -> g2), got {theta.rows}x{theta.cols}"
            )
        if theta.field != self.field:
            raise ShapeMismatch("map and context fields differ")

    def __eq__(self, other) -> bool:
        return (isinstance(other, TwilledContext) and self.total == other.total
                and self.n1 == other.n1 and self.n2 == other.n2)

    def __hash__(self):
        return hash((self.total, self.n1, self.n2))

    def __repr__(self):
        return f"TwilledContext(n1={self.n1}, n2={self.n2}, field={self.field})"
