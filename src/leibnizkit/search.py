"""Exhaustive finite-field enumeration, linear-layer solving for structure
maps, and seeded random instance generation.

Every search predicate is a system of quadratic equations in the entries of
the unknown matrix, stated once as residue polynomials whose coefficients are
raw field values (ints, or Fractions over Q) taken from the structure
constants and action matrices.  A search reduces that system once to sparse
equations over F_p and compiles them into one straight-line Python function,
``holds(x)``, that tests the equations in turn on the candidate's flat
residue tuple and returns False at the first that does not vanish.  It walks
the candidate space in lexicographic order of the flattened entries in the
calling thread, calls ``holds`` once per candidate, and builds a ``Matrix``
only for the hits, each confirmed by the general ``check_*`` report before
it is returned.  The linear layers (the linear Maurer-Cartan equations,
invariant skew and closed symmetric forms) are solved exactly, over any
field, from the same kind of residues.
"""

from __future__ import annotations

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
    Degenerate,
    NotFound,
    NotNijenhuis,
    NotSymmetric,
    SearchMismatch,
    ShapeMismatch,
    UnknownIdentity,
)
from .fields import FieldSpec, RawScalar
from .forms import BilinearForm, check_bn_structure
from .linalg import Matrix, LinearSolution, is_invertible, solve_linear
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


class SearchSpec:
    """What to enumerate: a predicate name, the matrix shape, the field, and
    the context objects the predicate needs; immutable."""

    __slots__ = ("field", "shape", "predicate", "algebra", "rep", "ctx", "budget")

    def __init__(self, field: FieldSpec, shape: Tuple[int, int], predicate: str,
                 algebra: Optional[LeibnizAlgebra] = None, rep: Optional[Representation] = None,
                 ctx: Optional[TwilledContext] = None, budget: int = DEFAULT_BUDGET):
        self.field = field
        self.shape = shape
        self.predicate = predicate
        self.algebra = algebra
        self.rep = rep
        self.ctx = ctx
        self.budget = budget

    def _fields(self) -> tuple:
        return (self.field, self.shape, self.predicate, self.algebra, self.rep, self.ctx,
                self.budget)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        return (f"SearchSpec(field={self.field!r}, shape={self.shape!r}, "
                f"predicate={self.predicate!r}, algebra={self.algebra!r}, rep={self.rep!r}, "
                f"ctx={self.ctx!r}, budget={self.budget!r})")

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


def _matrix(f: FieldSpec, rows: int, cols: int, flat: Sequence) -> Matrix:
    """The rows x cols matrix of the normalized values ``flat``, row-major."""
    return Matrix._trusted(f, tuple(tuple(flat[r * cols:(r + 1) * cols]) for r in range(rows)))


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
            try:
                confirmed = check_bn_structure(alg, form, nm, consequences=False).ok
            except (NotSymmetric, Degenerate, NotNijenhuis):
                confirmed = False
            if not confirmed:
                raise SearchMismatch(f"compiled bn_pair kernel accepts {bm!r}, "
                                     f"{nm.matrix!r}, the check rejects it")
            hits.append((bm, nm.matrix))
    return hits


# -- compiled kernels ------------------------------------------------------------
#
# A polynomial in the unknown entries is a dict {monomial: coefficient}, a
# monomial being the sorted tuple of its variable indices (degree <= 2) and a
# coefficient a raw field value (an int, or a Fraction over Q), not reduced.
# Vectors and matrices of such polynomials mirror the check formulas term by
# term; constants are degree-0 polynomials.  The same residues compile into
# the F_p search kernels (_kernel) and, when linear, give the exact linear
# layers (_linear_basis).

Poly = Dict[Tuple[int, ...], RawScalar]


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


def _mc_linear_residues(ctx: TwilledContext, theta) -> List[Poly]:
    """theta[x, y] - rho1L(x) theta y - rho1R(y) theta x on g1 basis pairs: the
    linear Maurer-Cartan residues of check_maurer_cartan with ``strong``."""
    n1, n2, c1 = ctx.n1, ctx.n2, ctx.algebra1.c
    T1L, T1R = _action_tensor(ctx.rho1.rhoL), _action_tensor(ctx.rho1.rhoR)
    out = []
    for i, j in product(range(n1), repeat=2):
        lin_rhs = _lincomb((1, _bilinear(T1L, _basis(n1, i), _col(theta, j), n2)),
                           (1, _bilinear(T1R, _basis(n1, j), _col(theta, i), n2)))
        out += _lincomb((1, _apply(theta, _const(c1[i][j]))), (-1, lin_rhs))
    return out


def _mc_strong_residues(ctx: TwilledContext, theta) -> List[Poly]:
    """The quadratic and the linear Maurer-Cartan residues of check_maurer_cartan
    with ``strong``, on g1 basis pairs."""
    n1, n2, c2 = ctx.n1, ctx.n2, ctx.algebra2.c
    T2L, T2R = _action_tensor(ctx.rho2.rhoL), _action_tensor(ctx.rho2.rhoR)
    linear = _mc_linear_residues(ctx, theta)
    out = []
    for i, j in product(range(n1), repeat=2):
        ti, ei, tj, ej = _col(theta, i), _basis(n1, i), _col(theta, j), _basis(n1, j)
        lin = linear[(i * n1 + j) * n2:(i * n1 + j + 1) * n2]
        inner = _lincomb((1, _bilinear(T2L, ti, ej, n1)), (1, _bilinear(T2R, tj, ei, n1)))
        out += _lincomb((1, _bilinear(c2, ti, tj, n2)), (-1, _apply(theta, inner)), (-1, lin))
        out += lin
    return out


def _transpose(M):
    return [list(col) for col in zip(*M)]


def _matmul(A, B):
    return _transpose([_apply(A, col) for col in _transpose(B)])


def _entry_residues(A, B) -> List[Poly]:
    """A - B entrywise: the residues of the matrix identity A = B."""
    return [poly for ra, rb in zip(A, B) for poly in _lincomb((1, ra), (-1, rb))]


def _invariance_residues(alg: LeibnizAlgebra, M) -> List[Poly]:
    """M(x0, [x1,x2]) - M([x0,x2] + [x2,x0], x1) on basis triples: the
    invariance of a bilinear form with matrix M, as in check_quadratic."""
    c, cols = alg.c, _transpose(M)
    out = []
    for i, j, k in product(range(alg.dim), repeat=3):
        sym = [a + b for a, b in zip(c[i][k], c[k][i])]
        out += _lincomb((1, _apply([M[i]], _const(c[j][k]))), (-1, _apply([cols[j]], _const(sym))))
    return out


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
    """The predicate "every residue vanishes mod p" on a flat residue tuple
    ``x`` (the candidate's entries), compiled once from the source that
    ``_kernel_source`` generates: one straight-line ``holds(x)`` with one
    ``if (...) % p: return False`` per equation, so a candidate stops at the
    first nonzero residue.  The source holds only integer literals, ``x[i]``,
    ``+``, ``*`` and ``%``, and runs without builtins.

    Size bound: CPython 3.11 compiles a flat sum of 2,000 terms but raises
    RecursionError at 3,000.  A Nijenhuis residue has about 3.6 n^2 terms
    (360 at n = 10, on dense tensors), so one equation reaches the bound only
    near n = 25, far past any search budget that fits in memory."""
    namespace = {"__builtins__": {}}
    exec(_kernel_source(p, residues), namespace)
    return namespace["holds"]


def _kernel_source(p: int, residues: Iterable[Poly]) -> str:
    """Reduce the residues mod p to sparse int equations, each scaled to
    leading coefficient 1 and kept once, ordered by their highest variable,
    and render them as the source of ``holds(x)``."""
    equations = {}
    for poly in residues:
        terms = sorted((mono, c % p) for mono, c in poly.items() if c % p)
        if terms:
            scale = pow(terms[0][1], p - 2, p)
            equations[tuple((mono, c * scale % p) for mono, c in terms)] = None
    ordered = sorted(equations, key=lambda eq: max((v for mono, _ in eq for v in mono), default=-1))
    lines = ["def holds(x):"]
    for eq in ordered:
        terms = []
        for mono, c in eq:
            factors = [f"x[{v}]" for v in mono]
            terms.append("*".join(factors if c == 1 and factors else [str(c)] + factors))
        lines.append(f"    if ({' + '.join(terms)}) % {p}: return False")
    lines.append("    return True")
    return "\n".join(lines) + "\n"


def _linear_basis(field: FieldSpec, residues: Iterable[Poly], unknowns: int) -> LinearSolution:
    """Exactly solve "every residue vanishes" for the unknowns 0 .. unknowns-1,
    each residue giving the row of its degree-1 coefficients.  A residue with
    a nonzero constant or quadratic term is not linear and raises."""
    rows = []
    for poly in residues:
        row = [0] * unknowns
        for mono, c in poly.items():
            if len(mono) == 1:
                row[mono[0]] = c
            elif not field.is_zero(c):
                raise ShapeMismatch(f"residue term {mono} of degree {len(mono)} in a linear layer")
        rows.append(row)
    rows = rows or [[0] * unknowns]
    return solve_linear(Matrix(field, rows), [0] * len(rows))


def solve_mc_linear_layer(ctx: TwilledContext) -> LinearSolution:
    """Exactly solve the linear equivariance part of the Maurer-Cartan
    system for theta: g1 -> g2 (unknowns flattened row-major, theta[a][i] at
    a*n1 + i); the quadratic part is then a filter via check_maurer_cartan."""
    theta = _unknown_matrix(ctx.n2, ctx.n1)
    return _linear_basis(ctx.field, _mc_linear_residues(ctx, theta), ctx.n1 * ctx.n2)


def mc_solutions_from_linear_layer(ctx: TwilledContext) -> List[Matrix]:
    """Span the combinations of the linear-layer basis with coefficients in
    (-1, 0, 1, 2) and keep the ones passing the full (weak) Maurer-Cartan
    check."""
    basis = solve_mc_linear_layer(ctx).nullspace
    f = ctx.field
    grid = [f.of(v) for v in (-1, 0, 1, 2)]
    seen = set()
    out = []
    for combo in product(grid, repeat=len(basis)):
        flat = [f.zero()] * (ctx.n1 * ctx.n2)
        for coef, vec in zip(combo, basis):
            if f.is_zero(coef):
                continue
            flat = [f.add(x, f.mul(coef, v)) for x, v in zip(flat, vec)]
        key = tuple(flat)
        if key in seen:
            continue
        seen.add(key)
        theta = _matrix(f, ctx.n2, ctx.n1, flat)
        if check_maurer_cartan(ctx, theta).ok:
            out.append(theta)
    return out


def random_instance(kind: str, dims, fieldspec: FieldSpec, seed: int, height: int = 2,
                    attempts: int = 4000):
    """Rejection-sample small random tensors/matrices until the named check
    passes; deterministic given the seed.  Raises NotFound when the attempt
    budget runs out.  Dense random Leibniz tensors are found at dim <= 2
    (though a seed can run out at dim 2); at dim 3 the default attempts find
    none."""
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
        if not isinstance(dims, LeibnizAlgebra):
            raise ShapeMismatch("pass the algebra as `dims` for operator kinds")
        rows = cols = dims.dim
        check = check_nijenhuis if kind == "nijenhuis" else check_rota_baxter
    elif kind == "kupershmidt":
        if not isinstance(dims, Representation):
            raise ShapeMismatch("pass the representation as `dims`")
        rows, cols, check = dims.algebra.dim, dims.mdim, check_kupershmidt
    else:
        raise UnknownIdentity(f"unknown instance kind {kind!r}")
    for _ in range(attempts):
        op = as_operator(Matrix(f, [[rand_scalar() for _ in range(cols)] for _ in range(rows)]))
        if check(op, dims).ok:
            return op
    raise NotFound(f"no {kind} operator found in {attempts} attempts")


def _form_basis(alg: LeibnizAlgebra, sign: int, identity: Callable) -> List[Matrix]:
    """Basis of the bilinear forms B = sign * B^T on which every residue of
    ``identity(alg, B)`` vanishes (unknowns row-major, B[a][b] at a*n + b)."""
    f, n = alg.field, alg.dim
    B = _unknown_matrix(n, n)
    signed_bt = [_lincomb((sign, row)) for row in _transpose(B)]
    sol = _linear_basis(f, _entry_residues(B, signed_bt) + identity(alg, B), n * n)
    return [_matrix(f, n, n, vec) for vec in sol.nullspace]


def invariant_skew_forms(alg: LeibnizAlgebra) -> List[Matrix]:
    """Basis of the space of skew bilinear forms satisfying the quadratic
    invariance condition (a linear system in the form's entries)."""
    return _form_basis(alg, -1, _invariance_residues)


def closed_symmetric_forms(alg: LeibnizAlgebra) -> List[Matrix]:
    """Basis of the space of symmetric bilinear forms satisfying the
    closedness condition (linear in the form)."""
    return _form_basis(alg, 1, _closed_residues)
