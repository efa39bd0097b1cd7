"""Exhaustive finite-field enumeration, linear-layer solving for structure
maps, and seeded random instance generation.

Exhaustive searches walk the candidate space in lexicographic order of the
flattened entries, so results are deterministic regardless of how the space
is partitioned across workers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from random import Random
from typing import Callable, List, Optional, Sequence, Tuple

from .algebras import (
    LeibnizAlgebra,
    Representation,
    check_leibniz,
)
from .dgla import check_maurer_cartan
from .errors import BudgetExceeded, NotFound, ShapeMismatch, UnknownIdentity
from .fields import FieldSpec
from .forms import BilinearForm, check_bn_structure
from .linalg import Matrix, LinearSolution, solve_linear, vec_add
from .operators import (
    as_operator,
    check_kupershmidt,
    check_nijenhuis,
    check_rota_baxter,
)
from .twilled import TwilledContext

DEFAULT_BUDGET = 10 ** 6


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
        if not self.field.is_prime_field:
            raise ShapeMismatch("exhaustive enumeration needs a prime field")
        rows, cols = self.shape
        return self.field.p ** (rows * cols)


PREDICATES = ("kupershmidt", "nijenhuis", "rota_baxter", "mc_strong", "bn_pair")


def _predicate_fn(spec: SearchSpec) -> Callable[[Matrix], bool]:
    name = spec.predicate
    if name == "nijenhuis":
        alg = spec.algebra
        return lambda m: check_nijenhuis(as_operator(m), alg).ok
    if name == "rota_baxter":
        alg = spec.algebra
        return lambda m: check_rota_baxter(as_operator(m), alg).ok
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


def _matrix_from_index(f: FieldSpec, rows: int, cols: int, idx: int) -> Matrix:
    p = f.p
    entries = []
    for _ in range(rows * cols):
        entries.append(idx % p)
        idx //= p
    entries.reverse()
    return Matrix(f, [entries[r * cols:(r + 1) * cols] for r in range(rows)])


def enumerate_operators(spec: SearchSpec, workers: int = 1) -> List[Matrix]:
    """The complete, lexicographically ordered list of matrices over F_p
    satisfying the predicate.  ``workers`` only partitions the scan; the
    result is identical for any worker count."""
    if spec.predicate == "bn_pair":
        return enumerate_bn_pairs(spec, workers)
    total = spec.space_size()
    if total > spec.budget:
        raise BudgetExceeded(f"{total} candidates exceed budget {spec.budget}")
    pred = _predicate_fn(spec)
    rows, cols = spec.shape
    f = spec.field

    def scan(chunk: range) -> List[int]:
        hits = []
        for idx in chunk:
            if pred(_matrix_from_index(f, rows, cols, idx)):
                hits.append(idx)
        return hits

    if workers <= 1:
        found = scan(range(total))
    else:
        step = (total + workers - 1) // workers
        chunks = [range(lo, min(lo + step, total)) for lo in range(0, total, step)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(scan, chunks))
        found = [idx for part in parts for idx in part]
    return [_matrix_from_index(f, rows, cols, idx) for idx in sorted(found)]


def enumerate_bn_pairs(spec: SearchSpec, workers: int = 1) -> List[Tuple[Matrix, Matrix]]:
    """All (form matrix, operator) pairs over F_p forming a BN-structure:
    the form symmetric nondegenerate and closed, the operator Nijenhuis,
    coupled by the compatibility and twisted-closedness conditions."""
    alg = spec.algebra
    if alg is None:
        raise ShapeMismatch("bn_pair search needs an algebra")
    f = spec.field
    n = alg.dim
    total = f.p ** (2 * n * n)
    if total > spec.budget:
        raise BudgetExceeded(f"{total} candidates exceed budget {spec.budget}")
    half = f.p ** (n * n)

    def scan(chunk: range) -> List[int]:
        hits = []
        for idx in chunk:
            bm = _matrix_from_index(f, n, n, idx // half)
            nm = _matrix_from_index(f, n, n, idx % half)
            form = BilinearForm(alg, bm, "symmetric")
            if not form.matches_symmetry() or not form.nondegenerate:
                continue
            if not check_nijenhuis(as_operator(nm), alg).ok:
                continue
            if check_bn_structure(alg, form, as_operator(nm), consequences=False).ok:
                hits.append(idx)
        return hits

    if workers <= 1:
        found = scan(range(total))
    else:
        step = (total + workers - 1) // workers
        chunks = [range(lo, min(lo + step, total)) for lo in range(0, total, step)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(scan, chunks))
        found = [idx for part in parts for idx in part]
    return [
        (_matrix_from_index(f, n, n, idx // half), _matrix_from_index(f, n, n, idx % half))
        for idx in sorted(found)
    ]


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
