"""Exhaustive finite-field enumeration, linear-layer solving for structure
maps, and seeded random instance generation.

Every search predicate is a system of quadratic equations in the entries of
the unknown matrix, with coefficients taken from the structure constants and
action matrices.  A search compiles that system once into sparse equations
over F_p on plain int residues, walks the candidate space in lexicographic
order of the flattened entries in the calling thread, and builds a
``Matrix`` only for the hits, each confirmed by the general ``check_*``
report before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from random import Random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .algebras import (
    LeibnizAlgebra,
    Representation,
    check_leibniz,
)
from .dgla import check_maurer_cartan
from .errors import (
    BudgetExceeded,
    NotFound,
    SearchMismatch,
    ShapeMismatch,
    UnknownIdentity,
)
from .fields import FieldSpec
from .forms import BilinearForm, check_bn_structure
from .linalg import Matrix, LinearSolution, is_invertible, solve_linear, vec_add
from .operators import (
    as_operator,
    check_kupershmidt,
    check_nijenhuis,
    check_rota_baxter,
)
from .twilled import TwilledContext

DEFAULT_BUDGET = 10 ** 6

# A space size of at most this many bits prints in decimal (under the
# interpreter's 4300-digit limit); a larger one is reported as p^k.
_DECIMAL_BITS = 14_000


@dataclass(frozen=True)
class SearchSpec:
    """What to enumerate: a predicate name, the matrix shape, the field, and
    the context objects the predicate needs."""

    field: FieldSpec
    shape: Tuple[int, int]
    predicate: str
    algebra: Optional[LeibnizAlgebra] = None
    rep: Optional[Representation] = None
    ctx: Optional[TwilledContext] = None
    budget: int = DEFAULT_BUDGET

    def space_size(self) -> int:
        """The number of candidates, p ** k for k free entries (rows*cols, or
        2*dim^2 for ``bn_pair``: form and operator).  Raises ShapeMismatch
        off a prime field and BudgetExceeded over the budget."""
        if self.predicate == "bn_pair":
            if self.algebra is None:
                raise ShapeMismatch("bn_pair search needs an algebra")
            k = 2 * self.algebra.dim ** 2
        else:
            rows, cols = self.shape
            if rows < 0 or cols < 0:
                raise ShapeMismatch(f"negative shape {rows}x{cols}")
            k = rows * cols
        if not self.field.is_prime_field:
            raise ShapeMismatch("exhaustive enumeration needs a prime field")
        p = self.field.p
        printable = k * p.bit_length() <= _DECIMAL_BITS
        # Otherwise p**k >= 2**(k*(bits(p)-1)) is over any budget of fewer bits.
        if printable or k * (p.bit_length() - 1) < self.budget.bit_length():
            total = p ** k
            if total <= self.budget:
                return total
        shown = total if printable else f"{p}^{k}"
        raise BudgetExceeded(f"{shown} candidates exceed budget {self.budget}")


PREDICATES = ("kupershmidt", "nijenhuis", "rota_baxter", "mc_strong", "bn_pair")


def _check_fn(spec: SearchSpec) -> Callable[[Matrix], bool]:
    """The predicate as the general ``check_*`` report on a matrix."""
    name = spec.predicate
    if name in ("nijenhuis", "rota_baxter"):
        alg = spec.algebra
        if alg is None:
            raise ShapeMismatch(f"{name} search needs an algebra")
        check = check_nijenhuis if name == "nijenhuis" else check_rota_baxter
        return lambda m: check(as_operator(m), alg).ok
    if name == "kupershmidt":
        rep = spec.rep
        if rep is None:
            raise ShapeMismatch("kupershmidt search needs a representation")
        return lambda m: check_kupershmidt(as_operator(m), rep).ok
    if name == "mc_strong":
        ctx = spec.ctx
        if ctx is None:
            raise ShapeMismatch("mc_strong search needs a twilled context")
        return lambda m: check_maurer_cartan(ctx, m, strong=True).ok
    raise UnknownIdentity(f"unknown search predicate {spec.predicate!r}")


def _predicate_fn(spec: SearchSpec) -> Callable[[Sequence[int]], bool]:
    """Compile the predicate into a kernel on flat residue tuples (the
    candidate's entries, row-major).  The general check runs once on the zero
    candidate first, so shape, representation, context and non-Leibniz
    errors are raised exactly as by the check, before any candidate."""
    rows, cols = spec.shape
    _check_fn(spec)(Matrix.zeros(spec.field, rows, cols))
    name = spec.predicate
    X = _unknown_matrix(rows, cols)
    if name == "kupershmidt":
        field, residues = spec.rep.algebra.field, _kupershmidt_residues(spec.rep, X)
    elif name == "mc_strong":
        field, residues = spec.ctx.field, _mc_strong_residues(spec.ctx, X)
    else:
        field = spec.algebra.field
        residues = _operator_residues(spec.algebra, X, weight=name == "nijenhuis")
    _require_field(spec, field)
    return _kernel(spec.field.p, residues)


def _require_field(spec: SearchSpec, field: FieldSpec) -> None:
    if field != spec.field:
        raise ShapeMismatch(f"search field {spec.field} differs from the structure's field {field}")


def _matrix(f: FieldSpec, rows: int, cols: int, flat: Sequence[int]) -> Matrix:
    return Matrix(f, [flat[r * cols:(r + 1) * cols] for r in range(rows)])


def enumerate_operators(spec: SearchSpec, workers: int = 1) -> List[Matrix]:
    """The complete, lexicographically ordered list of matrices over F_p
    satisfying the predicate.  The scan runs in the calling thread;
    ``workers`` is accepted for compatibility and changes nothing."""
    if spec.predicate == "bn_pair":
        return enumerate_bn_pairs(spec, workers)
    spec.space_size()  # raises off a prime field or over the budget
    confirm = _check_fn(spec)
    holds = _predicate_fn(spec)
    f = spec.field
    rows, cols = spec.shape
    hits = []
    for flat in product(range(f.p), repeat=rows * cols):
        if holds(flat):
            m = _matrix(f, rows, cols, flat)
            if not confirm(m):
                raise SearchMismatch(f"compiled {spec.predicate} kernel accepts {m!r}, "
                                     "the check rejects it")
            hits.append(m)
    return hits


def enumerate_bn_pairs(spec: SearchSpec, workers: int = 1) -> List[Tuple[Matrix, Matrix]]:
    """All (form matrix, operator) pairs over F_p forming a BN-structure:
    the form symmetric nondegenerate and closed, the operator Nijenhuis,
    coupled by the compatibility and twisted-closedness conditions.  Pairs
    come in lexicographic order of the form's then the operator's entries;
    ``workers`` is accepted for compatibility and changes nothing."""
    spec.space_size()  # raises off a prime field or over the budget
    alg = spec.algebra
    alg.require_leibniz()
    _require_field(spec, alg.field)
    f, n = spec.field, alg.dim
    form_holds, nijenhuis_holds, coupled = _bn_kernels(alg)
    operators = list(product(range(f.p), repeat=n * n))
    nijenhuis = {flat for flat in operators if nijenhuis_holds(flat)}
    hits = []
    for bflat in product(range(f.p), repeat=n * n):
        bm = _matrix(f, n, n, bflat)
        form_ok = form_holds(bflat) and is_invertible(bm)
        for nflat in operators:
            # One form per (form, operator) candidate: bench/tracer.py counts
            # bn_pair candidates by these constructions.
            form = BilinearForm(alg, bm, "symmetric")
            if not (form_ok and nflat in nijenhuis and coupled(bflat + nflat)):
                continue
            nm = as_operator(_matrix(f, n, n, nflat))
            if not (form.matches_symmetry() and form.nondegenerate
                    and check_nijenhuis(nm, alg).ok
                    and check_bn_structure(alg, form, nm, consequences=False).ok):
                raise SearchMismatch(f"compiled bn_pair kernel accepts {bm!r}, "
                                     f"{nm.matrix!r}, the check rejects it")
            hits.append((bm, nm.matrix))
    return hits


# -- compiled kernels ------------------------------------------------------------
#
# A polynomial in the unknown entries is a dict {monomial: int coefficient},
# a monomial being the sorted tuple of its variable indices (degree <= 2).
# Vectors and matrices of such polynomials mirror the check formulas term by
# term; constants are degree-0 polynomials.

Poly = Dict[Tuple[int, ...], int]


def _unknown_matrix(rows: int, cols: int, first: int = 0) -> List[List[Poly]]:
    return [[{(first + r * cols + c,): 1} for c in range(cols)] for r in range(rows)]


def _const(vec: Sequence[int]) -> List[Poly]:
    return [{(): v} if v else {} for v in vec]


def _basis(n: int, i: int) -> List[Poly]:
    return [{(): 1} if t == i else {} for t in range(n)]


def _col(X: Sequence[Sequence[Poly]], j: int) -> List[Poly]:
    return [row[j] for row in X]


def _acc(acc: Poly, coef: int, poly: Poly) -> None:
    for mono, c in poly.items():
        acc[mono] = acc.get(mono, 0) + coef * c


def _mul(u: Poly, v: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in u.items():
        for m2, c2 in v.items():
            mono = tuple(sorted(m1 + m2))
            out[mono] = out.get(mono, 0) + c1 * c2
    return out


def _lincomb(*terms: Tuple[int, Sequence[Poly]]) -> List[Poly]:
    """sum of coef * vector over the (coef, vector) terms."""
    out: List[Poly] = [{} for _ in terms[0][1]]
    for coef, vec in terms:
        for acc, poly in zip(out, vec):
            _acc(acc, coef, poly)
    return out


def _apply(M: Sequence[Sequence[Poly]], v: Sequence[Poly]) -> List[Poly]:
    out = []
    for row in M:
        acc: Poly = {}
        for m, x in zip(row, v):
            if m and x:
                _acc(acc, 1, _mul(m, x))
        out.append(acc)
    return out


def _bilinear(T, u: Sequence[Poly], v: Sequence[Poly], dim: int) -> List[Poly]:
    """out[k] = sum over a, b of T[a][b][k] u[a] v[b], for a constant tensor T."""
    out: List[Poly] = [{} for _ in range(dim)]
    for a, ua in enumerate(u):
        if not ua:
            continue
        for b, vb in enumerate(v):
            if not vb:
                continue
            uv = _mul(ua, vb)
            for k, t in enumerate(T[a][b]):
                if t:
                    _acc(out[k], t, uv)
    return out


def _action_tensor(mats: Sequence[Matrix]) -> List[List[List[int]]]:
    """T[a][s][r] = mats[a][r, s], so that _bilinear(T, x, y) = act(x) y."""
    return [[list(m.col(s)) for s in range(m.cols)] for m in mats]


def _operator_residues(alg: LeibnizAlgebra, N, weight: bool) -> List[Poly]:
    """[Nx, Ny] - N([Nx, y] + [x, Ny] - N[x, y]) on basis pairs: the Nijenhuis
    identity, or Rota-Baxter of weight zero without the last term."""
    n, c = alg.dim, alg.c
    out = []
    for i in range(n):
        Ni, ei = _col(N, i), _basis(n, i)
        for j in range(n):
            Nj, ej = _col(N, j), _basis(n, j)
            inner = [(1, _bilinear(c, Ni, ej, n)), (1, _bilinear(c, ei, Nj, n))]
            if weight:
                inner.append((-1, _apply(N, _const(c[i][j]))))
            out += _lincomb((1, _bilinear(c, Ni, Nj, n)), (-1, _apply(N, _lincomb(*inner))))
    return out


def _kupershmidt_residues(rep: Representation, K) -> List[Poly]:
    """[Ku, Kv] - K(rhoL(Ku) v + rhoR(Kv) u) on module basis pairs."""
    alg = rep.algebra
    n, m, c = alg.dim, rep.mdim, alg.c
    TL, TR = _action_tensor(rep.rhoL), _action_tensor(rep.rhoR)
    out = []
    for i in range(m):
        Ki, ei = _col(K, i), _basis(m, i)
        for j in range(m):
            Kj, ej = _col(K, j), _basis(m, j)
            sub = _lincomb((1, _bilinear(TL, Ki, ej, m)), (1, _bilinear(TR, Kj, ei, m)))
            out += _lincomb((1, _bilinear(c, Ki, Kj, n)), (-1, _apply(K, sub)))
    return out


def _mc_strong_residues(ctx: TwilledContext, theta) -> List[Poly]:
    """The quadratic and the linear Maurer-Cartan residues of check_maurer_cartan
    with ``strong``, on g1 basis pairs."""
    n1, n2 = ctx.n1, ctx.n2
    c1, c2 = ctx.algebra1.c, ctx.algebra2.c
    T1L, T1R = _action_tensor(ctx.rho1.rhoL), _action_tensor(ctx.rho1.rhoR)
    T2L, T2R = _action_tensor(ctx.rho2.rhoL), _action_tensor(ctx.rho2.rhoR)
    out = []
    for i in range(n1):
        ti, ei = _col(theta, i), _basis(n1, i)
        for j in range(n1):
            tj, ej = _col(theta, j), _basis(n1, j)
            lin_rhs = _lincomb((1, _bilinear(T1L, ei, tj, n2)), (1, _bilinear(T1R, ej, ti, n2)))
            lin_lhs = _apply(theta, _const(c1[i][j]))
            inner = _lincomb((1, _bilinear(T2L, ti, ej, n1)), (1, _bilinear(T2R, tj, ei, n1)))
            out += _lincomb((1, _bilinear(c2, ti, tj, n2)), (1, lin_rhs),
                            (-1, _apply(theta, inner)), (-1, lin_lhs))
            out += _lincomb((1, lin_lhs), (-1, lin_rhs))
    return out


def _transpose(M):
    return [list(col) for col in zip(*M)]


def _matmul(A, B):
    return _transpose([_apply(A, col) for col in _transpose(B)])


def _entry_residues(A, B) -> List[Poly]:
    """A - B entrywise: the residues of the matrix identity A = B."""
    return [poly for ra, rb in zip(A, B) for poly in _lincomb((1, ra), (-1, rb))]


def _closed_residues(alg: LeibnizAlgebra, M) -> List[Poly]:
    """M(x2, [x0,x1]) + M(x1, [x0,x2]) - M(x0, [x1,x2]) - M(x0, [x2,x1]) on
    basis triples: the closedness of a bilinear form with matrix M."""
    c = alg.c

    def pair(a: int, w) -> List[Poly]:  # M(e_a, w) for a constant vector w
        return _apply([M[a]], _const(w))

    out = []
    for i, j, k in product(range(alg.dim), repeat=3):
        out += _lincomb((1, pair(k, c[i][j])), (1, pair(j, c[i][k])),
                        (-1, pair(i, c[j][k])), (-1, pair(i, c[k][j])))
    return out


def _bn_kernels(alg: LeibnizAlgebra):
    """Kernels for the three parts of a BN-structure: the form-only conditions
    (symmetric and closed) on the form's entries, the Nijenhuis identity on the
    operator's entries, and the coupling conditions (B(N.,.) = B(.,N.) and the
    twisted form closed) on the form's entries followed by the operator's."""
    n, p = alg.dim, alg.field.p
    B = _unknown_matrix(n, n)
    form = _kernel(p, _entry_residues(B, _transpose(B)) + _closed_residues(alg, B))
    nijenhuis = _kernel(p, _operator_residues(alg, _unknown_matrix(n, n), weight=True))
    N = _unknown_matrix(n, n, first=n * n)
    NtB = _matmul(_transpose(N), B)
    coupled = _kernel(p, _entry_residues(NtB, _matmul(B, N)) + _closed_residues(alg, NtB))
    return form, nijenhuis, coupled


def _kernel(p: int, residues: Iterable[Poly]) -> Callable[[Sequence[int]], bool]:
    """Reduce the residues mod p to sparse int equations, each scaled to
    leading coefficient 1 and kept once, ordered by their highest variable.
    The closure tells whether all vanish at a flat residue tuple, stopping at
    the first nonzero residue."""
    equations = {}
    for poly in residues:
        terms = sorted((mono, c % p) for mono, c in poly.items() if c % p)
        if terms:
            scale = pow(terms[0][1], p - 2, p)
            equations[tuple((mono, c * scale % p) for mono, c in terms)] = None
    ordered = sorted(equations, key=lambda eq: max((v for mono, _ in eq for v in mono), default=-1))
    compiled = tuple(
        (
            tuple((c, mono[0], mono[1]) for mono, c in eq if len(mono) == 2),
            tuple((c, mono[0]) for mono, c in eq if len(mono) == 1),
            sum(c for mono, c in eq if not mono),
        )
        for eq in ordered
    )

    def holds(x: Sequence[int]) -> bool:
        for quadratic, linear, constant in compiled:
            s = constant
            for c, a, b in quadratic:
                s += c * x[a] * x[b]
            for c, a in linear:
                s += c * x[a]
            if s % p:
                return False
        return True

    return holds


def solve_mc_linear_layer(ctx: TwilledContext) -> LinearSolution:
    """Exactly solve the linear equivariance part of the Maurer-Cartan
    system for theta: g1 -> g2 (unknowns flattened row-major, theta[a][i] at
    a*n1 + i); the quadratic part is then a filter via check_maurer_cartan."""
    f = ctx.field
    n1, n2 = ctx.n1, ctx.n2
    unknowns = n1 * n2
    rows = []
    for i in range(n1):
        for j in range(n1):
            br = ctx.algebra1.bracket_basis(i, j)
            for a in range(n2):
                row = [f.zero()] * unknowns
                for t in range(n1):
                    if not f.is_zero(br[t]):
                        row[a * n1 + t] = f.add(row[a * n1 + t], br[t])
                # rho1L(e_i) theta(e_j): component a = sum_b rho1L[i][a][b] theta[b][j]
                for b in range(n2):
                    v = ctx.rho1.rhoL[i][a, b]
                    if not f.is_zero(v):
                        row[b * n1 + j] = f.sub(row[b * n1 + j], v)
                    w = ctx.rho1.rhoR[j][a, b]
                    if not f.is_zero(w):
                        row[b * n1 + i] = f.sub(row[b * n1 + i], w)
                rows.append(row)
    if not rows:
        rows = [[f.zero()] * unknowns]
    sol = solve_linear(Matrix(f, rows), [f.zero()] * len(rows))
    return sol


def unflatten_theta(ctx: TwilledContext, flat: Sequence) -> Matrix:
    n1, n2 = ctx.n1, ctx.n2
    return Matrix(ctx.field, [list(flat[a * n1:(a + 1) * n1]) for a in range(n2)])


def mc_solutions_from_linear_layer(
    ctx: TwilledContext, coefficients: Sequence[Sequence] = ((0,), (1,), (2,), (-1,))
) -> List[Matrix]:
    """Span small combinations of the linear-layer basis and keep the ones
    passing the full (weak) Maurer-Cartan check."""
    sol = solve_mc_linear_layer(ctx)
    basis = sol.nullspace
    f = ctx.field
    seen = set()
    out = []
    combos = [()]
    if basis:
        grid = [f.of(v) for v in (-1, 0, 1, 2)]
        stack = [[]]
        for _ in basis:
            stack = [s + [g] for s in stack for g in grid]
        combos = stack
    for combo in combos:
        flat = [f.zero()] * (ctx.n1 * ctx.n2)
        for coef, vec in zip(combo, basis):
            if f.is_zero(coef):
                continue
            flat = [f.add(x, f.mul(coef, v)) for x, v in zip(flat, vec)]
        key = tuple(flat)
        if key in seen:
            continue
        seen.add(key)
        theta = unflatten_theta(ctx, flat)
        if check_maurer_cartan(ctx, theta).ok:
            out.append(theta)
    return out


def random_instance(kind: str, dims, fieldspec: FieldSpec, seed: int, height: int = 2,
                    attempts: int = 4000):
    """Rejection-sample small random tensors/matrices until the named check
    passes; deterministic given the seed.  Raises NotFound when the attempt
    budget runs out."""
    rng = Random(seed)
    f = fieldspec

    def rand_scalar():
        if f.is_prime_field:
            return rng.randrange(f.p) if height else 0
        return rng.randint(-height, height)

    if kind == "leibniz":
        n = dims if isinstance(dims, int) else dims[0]
        for _ in range(attempts):
            c = [[[rand_scalar() for _ in range(n)] for _ in range(n)] for _ in range(n)]
            alg = LeibnizAlgebra(f, c)
            if check_leibniz(alg).ok:
                return alg
        raise NotFound(f"no Leibniz tensor found in {attempts} attempts")
    if kind in ("nijenhuis", "rota_baxter"):
        alg = dims if isinstance(dims, LeibnizAlgebra) else None
        if alg is None:
            raise ShapeMismatch("pass the algebra as `dims` for operator kinds")
        check = check_nijenhuis if kind == "nijenhuis" else check_rota_baxter
        n = alg.dim
        for _ in range(attempts):
            m = Matrix(f, [[rand_scalar() for _ in range(n)] for _ in range(n)])
            if check(as_operator(m), alg).ok:
                return as_operator(m)
        raise NotFound(f"no {kind} operator found in {attempts} attempts")
    if kind == "kupershmidt":
        rep = dims
        if not isinstance(rep, Representation):
            raise ShapeMismatch("pass the representation as `dims`")
        for _ in range(attempts):
            m = Matrix(
                f, [[rand_scalar() for _ in range(rep.mdim)] for _ in range(rep.algebra.dim)]
            )
            if check_kupershmidt(as_operator(m), rep).ok:
                return as_operator(m)
        raise NotFound(f"no kupershmidt operator found in {attempts} attempts")
    raise UnknownIdentity(f"unknown instance kind {kind!r}")


def invariant_skew_forms(alg: LeibnizAlgebra) -> List[Matrix]:
    """Basis of the space of skew bilinear forms satisfying the quadratic
    invariance condition (a linear system in the form's entries)."""
    f, n = alg.field, alg.dim
    unknowns = n * n
    rows = []
    for a in range(n):
        for b in range(a, n):
            row = [f.zero()] * unknowns
            row[a * n + b] = f.add(row[a * n + b], f.one())
            row[b * n + a] = f.add(row[b * n + a], f.one())
            rows.append(row)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [f.zero()] * unknowns
                br = alg.bracket_basis(j, k)
                for b in range(n):
                    if not f.is_zero(br[b]):
                        row[i * n + b] = f.add(row[i * n + b], br[b])
                sym = vec_add(f, alg.bracket_basis(i, k), alg.bracket_basis(k, i))
                for a in range(n):
                    if not f.is_zero(sym[a]):
                        row[a * n + j] = f.sub(row[a * n + j], sym[a])
                rows.append(row)
    sol = solve_linear(Matrix(f, rows), [f.zero()] * len(rows))
    return [
        Matrix(f, [vec[r * n:(r + 1) * n] for r in range(n)]) for vec in sol.nullspace
    ]


def closed_symmetric_forms(alg: LeibnizAlgebra) -> List[Matrix]:
    """Basis of the space of symmetric bilinear forms satisfying the
    closedness condition (linear in the form)."""
    f, n = alg.field, alg.dim
    unknowns = n * n
    rows = []
    for a in range(n):
        for b in range(a + 1, n):
            row = [f.zero()] * unknowns
            row[a * n + b] = f.one()
            row[b * n + a] = f.neg(f.one())
            rows.append(row)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [f.zero()] * unknowns
                # B(e_k, [e_i,e_j]) + B(e_j, [e_i,e_k]) - B(e_i, [e_j,e_k]) - B(e_i, [e_k,e_j]) = 0
                for b, v in enumerate(alg.bracket_basis(i, j)):
                    if not f.is_zero(v):
                        row[k * n + b] = f.add(row[k * n + b], v)
                for b, v in enumerate(alg.bracket_basis(i, k)):
                    if not f.is_zero(v):
                        row[j * n + b] = f.add(row[j * n + b], v)
                for b, v in enumerate(vec_add(f, alg.bracket_basis(j, k), alg.bracket_basis(k, j))):
                    if not f.is_zero(v):
                        row[i * n + b] = f.sub(row[i * n + b], v)
                rows.append(row)
    sol = solve_linear(Matrix(f, rows), [f.zero()] * len(rows))
    return [
        Matrix(f, [vec[r * n:(r + 1) * n] for r in range(n)]) for vec in sol.nullspace
    ]
