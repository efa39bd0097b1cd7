"""Twilled Leibniz algebras: a sum algebra split into two subalgebras, each
acting on the other, with the two structure lifts used by the Maurer-Cartan
machinery.

Block convention: the first ``n1`` coordinates are g1, the rest g2.  ``rho1``
is the action of g1 on g2's space, ``rho2`` the action of g2 on g1's space
(each indexed by the acting algebra).
"""

from __future__ import annotations

from typing import Tuple

from .algebras import LeibnizAlgebra, Representation, _sum_bracket
from .errors import NotLeibniz, ShapeMismatch
from .linalg import Matrix, Vector

BilinearTensor = Tuple[Tuple[Vector, ...], ...]


class TwilledContext:
    """A verified twilled algebra with its recovered matched-pair data."""

    __slots__ = (
        "total", "n1", "n2",
        "algebra1", "algebra2", "rho1", "rho2", "_lifts", "_mc_terms",
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
        # both lifts, and the Maurer-Cartan defects once ``dgla`` has compiled them
        self._lifts = self._mc_terms = None

    @property
    def field(self):
        return self.total.field

    def lift1(self) -> BilinearTensor:
        """The g1-side structure as a bracket on the whole space:
        g1's bracket plus its two actions on g2 (zero on g2 x g2)."""
        return self._lift_pair()[0]

    def lift2(self) -> BilinearTensor:
        """The g2-side structure lift (g2's bracket plus its actions on g1)."""
        return self._lift_pair()[1]

    def _lift_pair(self) -> Tuple[BilinearTensor, BilinearTensor]:
        """Both lifts, built on first use and kept."""
        if self._lifts is None:
            f = self.field
            abelian1 = LeibnizAlgebra.abelian(f, self.n1)
            abelian2 = LeibnizAlgebra.abelian(f, self.n2)
            self._lifts = (
                _sum_bracket(f, self.algebra1.c, abelian2.c, self.rho1, None),
                _sum_bracket(f, abelian1.c, self.algebra2.c, None, self.rho2),
            )
        return self._lifts

    def _require_map(self, theta: Matrix) -> None:
        """Raise ShapeMismatch unless theta has the shape of a g1 -> g2 map."""
        if theta.rows != self.n2 or theta.cols != self.n1:
            raise ShapeMismatch(
                f"map must be {self.n2}x{self.n1} (g1 -> g2), got {theta.rows}x{theta.cols}"
            )

    def embed_map(self, theta: Matrix) -> Matrix:
        """Embed a g1 -> g2 map as an endomorphism of the sum (zero elsewhere)."""
        self._require_map(theta)
        f = self.field
        n1, n2 = self.n1, self.n2
        rows = []
        for i in range(n1):
            rows.append([f.zero()] * (n1 + n2))
        for a in range(n2):
            rows.append(list(theta.entries[a]) + [f.zero()] * n2)
        return Matrix(f, rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TwilledContext) and self.total == other.total
                and self.n1 == other.n1 and self.n2 == other.n2)

    def __hash__(self):
        return hash((self.total, self.n1, self.n2))

    def __repr__(self):
        return f"TwilledContext(n1={self.n1}, n2={self.n2}, field={self.field})"
