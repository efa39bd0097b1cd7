"""Leibniz algebras as structure-constant tensors, their representations, and
the dual and regular representations.  Sums of algebras (semidirect sums,
matched pairs) are in ``twilled``.

Conventions used throughout the package:

* ``c[i][j]`` is the coordinate vector of the bracket of basis elements
  ``(e_i, e_j)``; so ``c[i][j][k]`` is the coefficient of ``e_k``.
* matrices act on coordinate columns; ``rhoL[i]`` is the action of ``e_i``
  from the left, ``rhoR[i]`` the action from the right.
* in a direct-sum algebra built from a representation the module block comes
  first (indices ``0..m-1``), the algebra block second.

An algebra caches its nonzero structure constants once, as ``(i, j, k, c)``
tuples; ``bracket``, ``operators.twisted_tensor`` and ``check_leibniz``
iterate them instead of walking the dense tensor.  A representation lists the
nonzero entries ``(i, r, c, v)`` of its rhoL and rhoR matrices on first use
(``Representation._entries``); ``check_representation``, the kernels of
``operators`` and the pair identities of ``pairs`` iterate them.
``check_leibniz`` (on basis triples) and ``check_representation`` (one
axiom at a time, on basis pairs) hand their raw sides to
``reports._sides_violations``.

A structure derived from an object is built once and kept by the object
that owns it, and nothing an object keeps refers back to it, so an object
nobody holds is freed at once, with everything it keeps, and never waits for
a cyclic collection.  A representation is an algebra and an ``_Action``: the
action matrices and what is derived from them, which refers to no algebra.
The action keeps its report, its dual's action and, in a table of at most
``_DERIVED_CAP`` entries (the oldest dropped first), what ``operators``,
``twilled``, ``pairs`` and ``dgla`` derive from it and an operator or a
pair.  An algebra keeps the action of its regular representation, not the
representation, and
``regular_representation`` and ``dual_representation`` hand out a new
representation over the kept action on each call, so equal calls return
equal representations that share every kept structure.  Nothing is kept per
process: equal objects built apart share nothing.  Every function that
returns a kept structure runs its preconditions before it looks the
structure up, and a call that raises keeps nothing.
"""

from __future__ import annotations

from itertools import product
from operator import attrgetter, neg, sub
from typing import Callable, Optional, Sequence, Tuple

from .errors import FieldMismatch, NotLeibniz, NotRepresentation, ShapeMismatch
from .fields import FieldSpec
from .linalg import Matrix, Vector, lin_comb
from .reports import CheckReport, _sides_violations


def _nonzero_entries(c: Sequence[Sequence[Sequence]]) -> Tuple[tuple, ...]:
    """The nonzero entries ``(i, j, k, c[i][j][k])`` of a normalized bilinear
    tensor or family of matrices, in lexicographic order of ``(i, j, k)``."""
    return tuple((i, j, k, v) for i, row in enumerate(c) for j, vec in enumerate(row)
                 for k, v in enumerate(vec) if v)


# The most structures a representation keeps derived from it and an operator
# or a pair; the oldest is dropped to make room.
_DERIVED_CAP = 64


class LeibnizAlgebra:
    """A finite-dimensional algebra given by its structure-constant tensor.

    Kept by the algebra, built on first use: its nonzero structure constants
    (``_entries``, on construction), the report of ``check_leibniz``
    (``_leibniz_report``) and the ``_Action`` of its regular representation
    (``_regular``), which refers to no algebra, so the algebra sits in no
    reference cycle."""

    __slots__ = ("field", "dim", "c", "_entries", "_leibniz_report", "_regular")

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
        self._entries = _nonzero_entries(c_norm)
        self._leibniz_report: Optional[CheckReport] = None
        self._regular: Optional[_Action] = None

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
        """[e_i, e_j]; kept as a dense reference for the tests of the sparse kernels."""
        return self.c[i][j]

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        """Bilinear extension of the structure constants to coordinate vectors,
        normalized once per output coordinate (so the entries of x and y may be
        any values ``FieldSpec.normalize`` accepts).  Kept as the dense
        reference that the tests compare the sparse kernels against."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ShapeMismatch("vector length does not match algebra dimension")
        acc = [0] * n
        for i, j, k, c in self._entries:
            acc[k] += c * x[i] * y[j]
        return tuple(self.field.normalize_all(acc))

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
    """Left Leibniz identity [a,[b,d]] = [[a,b],d] + [b,[a,d]] on all basis
    triples, each term summed over pairs of nonzero structure constants."""
    f = alg.field
    n = alg.dim
    entries = alg._entries
    by_first = [[] for _ in range(n)]  # entries (m, j, k, v) by m
    by_second = [[] for _ in range(n)]  # entries (i, m, k, v) by m
    for e in entries:
        by_first[e[0]].append(e)
        by_second[e[1]].append(e)
    # lhs and rhs of triple (a, b, d), coordinate k, at ((a * n + b) * n + d) * n + k
    lhs = [0] * n ** 4
    rhs = [0] * n ** 4
    for x, y, m, v in entries:
        for a, _, k, w in by_second[m]:  # [a, [x, y]] with [x, y] = v e_m
            lhs[((a * n + x) * n + y) * n + k] += v * w
        for _, d, k, w in by_first[m]:  # [[x, y], d]
            rhs[((x * n + y) * n + d) * n + k] += v * w
        for b, _, k, w in by_second[m]:  # [b, [x, y]] with a = x, d = y
            rhs[((x * n + b) * n + y) * n + k] += v * w
    return CheckReport.build(_sides_violations("leibniz", f, lhs, rhs, n, 3))


class _Action:
    """What a representation is and keeps, but for its algebra: the module
    dimension, the action matrices and what is derived from them, built on
    first use: the nonzero action entries (``nonzero``), the report of
    ``check_representation`` (``report``), the action of the dual
    representation (``dual``) and the table ``kept``.  An action belongs to
    one algebra, whose representations share it, but refers to none, so
    the algebra can keep it without a reference cycle."""

    __slots__ = ("mdim", "rhoL", "rhoR", "nonzero", "report", "dual", "kept")

    def __init__(self, mdim: int, rhoL: Tuple[Matrix, ...], rhoR: Tuple[Matrix, ...]):
        self.mdim, self.rhoL, self.rhoR = mdim, rhoL, rhoR
        self.nonzero = None
        self.report: Optional[CheckReport] = None
        self.dual: Optional[_Action] = None
        self.kept: dict = {}


class Representation:
    """A pair of matrix families (rhoL, rhoR) acting on an m-dimensional module:
    an algebra and an ``_Action``, which holds the matrices and what is kept.

    Kept by the action, built on first use: the nonzero action entries
    (``_entries``), the report of ``check_representation`` and the dual
    representation's action.  The action's table ``kept`` holds what is
    derived from the representation and an operator or a pair, keyed by kind
    and operand: the module bracket of a map and the Kupershmidt verdict,
    sub-adjacent algebra, induced representation, lift and lifted twilled
    context of an operator (``operators``, ``twilled``, ``dgla``), and the
    hat and tilde representations of a pair (``pairs``).  It holds at most
    ``_DERIVED_CAP`` entries and drops the oldest to make room, so checking
    many operators on one long-lived representation keeps memory bounded; a
    dropped entry is built again when asked for.  Nothing kept refers to
    this representation, and representations over one action share all of
    it."""

    __slots__ = ("algebra", "_action")

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
        self._action = _Action(mdims.pop() if mdims else 0, tuple(rhoL), tuple(rhoR))

    @classmethod
    def _over(cls, algebra: LeibnizAlgebra, action: _Action) -> "Representation":
        """The representation of ``algebra`` by the kept ``action``, which
        must belong to ``algebra``."""
        rep = object.__new__(cls)
        rep.algebra, rep._action = algebra, action
        return rep

    mdim = property(attrgetter("_action.mdim"))
    rhoL = property(attrgetter("_action.rhoL"))
    rhoR = property(attrgetter("_action.rhoR"))

    @staticmethod
    def zero(algebra: LeibnizAlgebra, mdim: int) -> "Representation":
        z = Matrix.zeros(algebra.field, mdim, mdim)
        return Representation(algebra, [z] * algebra.dim, [z] * algebra.dim)

    def _entries(self) -> Tuple[Tuple[tuple, ...], Tuple[tuple, ...]]:
        """The nonzero entries ``(i, r, c, rho_i[r][c])`` of rhoL and of rhoR,
        each family in lexicographic order; listed on first use."""
        action = self._action
        if action.nonzero is None:
            action.nonzero = tuple(_nonzero_entries(tuple(m.entries for m in family))
                                   for family in (action.rhoL, action.rhoR))
        return action.nonzero

    def _derived(self, key: tuple, make: Callable):
        """The value kept under ``key``, made by ``make()`` and kept on first
        use; a ``make`` that raises keeps nothing.  The kept value is shared
        by every caller, so it must not be changed, and it must not refer to
        this representation or its algebra."""
        kept = self._action.kept
        if key in kept:
            return kept[key]
        value = make()
        if len(kept) >= _DERIVED_CAP:
            del kept[next(iter(kept))]
        kept[key] = value
        return value

    def actL(self, x: Sequence) -> Matrix:
        """Action matrix of the algebra vector x from the left; kept as a dense
        reference for the tests of the action kernels."""
        return lin_comb(self.algebra.field, x, self.rhoL, self.mdim, self.mdim)

    def actR(self, x: Sequence) -> Matrix:
        """Action matrix of x from the right; a dense reference like ``actL``."""
        return lin_comb(self.algebra.field, x, self.rhoR, self.mdim, self.mdim)

    @property
    def is_representation(self) -> bool:
        action = self._action
        if action.report is None:
            action.report = check_representation(self)
        return action.report.ok

    def require_representation(self):
        if not self.is_representation:
            raise NotRepresentation(self._action.report.summary())

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    def __eq__(self, other) -> bool:
        return (isinstance(other, Representation) and self.algebra == other.algebra
                and self.rhoL == other.rhoL and self.rhoR == other.rhoR)

    def __hash__(self):
        return hash((self.algebra, self.rhoL, self.rhoR))

    def __repr__(self):
        return f"Representation(algebra dim {self.algebra.dim}, module dim {self.mdim})"


def check_representation(rep: Representation) -> CheckReport:
    """The three action axioms, as matrix identities over all basis pairs:

    rhoL([e_i,e_j]) = [rhoL(e_i), rhoL(e_j)]
    rhoR([e_i,e_j]) = [rhoL(e_i), rhoR(e_j)]
    rhoR(e_j) rhoL(e_i) = -rhoR(e_j) rhoR(e_i)

    with every side summed from the nonzero structure constants and action
    entries, and each value normalised once."""
    alg = rep.algebra
    n, m = alg.dim, rep.mdim
    mm = m * m
    left, right = rep._entries()
    acted = []  # rhoL([e_i, e_j]) and rhoR([e_i, e_j]), block i * n + j
    for entries in (left, right):
        by_index = [[] for _ in range(n)]
        for k, r, s, v in entries:
            by_index[k].append((r * m + s, v))
        acc = [0] * (n * n * mm)
        for i, j, k, c in alg._entries:
            base = (i * n + j) * mm
            for rs, v in by_index[k]:
                acc[base + rs] += c * v
        acted.append(acc)
    LL, LR = _products(left, left, n, m), _products(left, right, n, m)
    RL, RR = _products(right, left, n, m), _products(right, right, n, m)
    # block i * n + j of the swapped products holds the product at j * n + i
    LLs, RLs, RRs = ([v for i, j in product(range(n), repeat=2)
                      for v in acc[(j * n + i) * mm:(j * n + i + 1) * mm]]
                     for acc in (LL, RL, RR))
    f = alg.field
    return CheckReport.build(
        _sides_violations("rep-left", f, acted[0], list(map(sub, LL, LLs)), n)
        + _sides_violations("rep-right", f, acted[1], list(map(sub, LR, RLs)), n)
        + _sides_violations("rep-swap", f, RLs, list(map(neg, RRs)), n))


def _products(first, second, n: int, m: int) -> list:
    """The raw products rho_i rho'_j of two action families given by their
    entries, as m x m blocks i * n + j, row-major: entry (i, r, t, a) of rho_i
    meets the entries (j, t, s, b) in row t of rho'_j."""
    by_row = [[] for _ in range(m)]
    for j, t, s, b in second:
        by_row[t].append((j, s, b))
    acc = [0] * (n * n * m * m)
    for i, r, t, a in first:
        for j, s, b in by_row[t]:
            acc[((i * n + j) * m + r) * m + s] += a * b
    return acc


def regular_representation(alg: LeibnizAlgebra) -> Representation:
    """Left/right multiplication operators acting on the algebra itself.  The
    algebra keeps the action, built on its first call, and each call returns
    a new representation over it: equal to every other, and sharing what
    each keeps."""
    alg.require_leibniz()
    if alg._regular is None:
        rep = Representation(
            alg,
            [alg.left_mult(i) for i in range(alg.dim)],
            [alg.right_mult(j) for j in range(alg.dim)],
        )
        rep.require_representation()
        alg._regular = rep._action
    return Representation._over(alg, alg._regular)


def dual_representation(rep: Representation) -> Representation:
    """The contragredient pair on the dual module.  The action of ``rep``
    keeps the dual's action, built on the first call, and each call returns
    a new representation over it, as ``regular_representation`` does.

    The dual of an action family carries the usual minus sign (the dual of a
    single linear map is the plain transpose, but an action must be negated
    to stay a morphism), giving (-rhoL^T, rhoL^T + rhoR^T).
    """
    rep.require_representation()
    action = rep._action
    if action.dual is None:
        dualL = [-m.transpose() for m in rep.rhoL]
        dualR = [l.transpose() + r.transpose() for l, r in zip(rep.rhoL, rep.rhoR)]
        out = Representation(rep.algebra, dualL, dualR)
        out.require_representation()
        action.dual = out._action
    return Representation._over(rep.algebra, action.dual)
