"""Exhaustive finite-field enumeration, and linear-layer solving for
structure maps and forms.

``PREDICATES`` is the one table of search predicates.  A row names the spec
field of the structure it needs (whose field must be the search's), its
blocks of unknowns with the shapes that structure gives them (the only
source of a search's shape), the check it runs on the zero blocks to raise
the check's precondition errors, the raw-sides function of its identities,
and the blocks that must be invertible.  A candidate is its blocks' entries,
each block row-major, in block order; a hit is its block's Matrix, or the
tuple of its block matrices.  Over polynomial unknowns (``dgla._Poly``,
which also compiles the graded Maurer-Cartan route) the raw sides (of the
kernels in ``operators``, ``dgla`` and ``forms``) give the residues lhs -
rhs, with raw field values (ints, or Fractions over Q) as coefficients;
this module reads no structure constants or action data itself.  A search
reduces them once to sparse equations over F_p: an equation that is one
monomial in one variable forces that variable to 0, and the forced zeros
are set in the other equations until no new one appears.  They compile into
one straight-line function ``holds(x)`` on the flat candidate, whose entries
are residues in [0, p): it tests each forced variable first, then the other
equations in turn, and returns False at the first that does not vanish.  It
filters the candidates through ``holds`` in lexicographic order, in the
calling thread, then through the invertible blocks, decided once per
distinct block.  Every hit is confirmed against the check's own identity
statement, up to ``_BLOCK`` hits at once: the raw sides run on blocks of
``_Lanes``, one value per hit, and a hit whose lane of some lhs - rhs is
nonzero mod p stops the search with ``SearchMismatch``; a coordinate whose
two sides are equal is skipped, and a plain constant coordinate of lhs - rhs
is tested once.  No ``_Poly`` or ``_Lanes`` operation changes an operand,
so one with the constant 0 (for + and -) or 1 or -1 (for *) returns its
operand, or its negation, instead of a copy; nearly half the operations of
the check kernels are of that kind.  The linear layers are solved
exactly, over any field, from the same kind of residues: the linear
Maurer-Cartan equations, and the invariant skew and closed symmetric forms
(``invariant_skew_forms``, ``closed_symmetric_forms``), the forms that
``check_quadratic`` and ``check_bn_structure`` take.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import islice, product, repeat
from operator import add, itemgetter, mod, mul, neg, sub
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .algebras import LeibnizAlgebra, Representation
from .dgla import _Poly, _mc_sides, check_maurer_cartan
from .errors import (
    BudgetExceeded,
    SearchMismatch,
    ShapeMismatch,
    UnknownIdentity,
)
from .fields import FieldSpec
from . import forms
from .forms import _closedness_sides, _coupling_sides, _invariance_sides
from .linalg import Matrix, LinearSolution, _flat, is_invertible, solve_linear
from .operators import (
    _equivariance_sides,
    _kupershmidt_sides,
    _twist_sides,
    check_kupershmidt,
    check_nijenhuis,
    check_rota_baxter,
)
from .reports import _Record
from .twilled import TwilledContext

DEFAULT_BUDGET = 10 ** 6

BilinearForm = forms.BilinearForm  # unused: bench/tracer.py rebinds it, KeyError without it

# The most search hits confirmed in one evaluation of the raw sides: each
# entry of a block's matrix holds one value per hit, so this bounds memory.
_BLOCK = 512

# A space size of at most this many bits prints in decimal (under the
# interpreter's 4300-digit limit); a larger one is reported as p^k.
_DECIMAL_BITS = 14_000

# A row of PREDICATES (see the module docstring): ``blocks`` holds (name,
# structure -> (rows, cols)); ``check`` and ``sides`` take the blocks, then the structure.
_Predicate = namedtuple("_Predicate", "needs blocks check sides invertible", defaults=((),))


def _square(alg: LeibnizAlgebra) -> Tuple[int, int]:
    return alg.dim, alg.dim


def _bn_sides(B: Matrix, N: Matrix, alg: LeibnizAlgebra) -> list:
    """The raw sides of the polynomial conditions of ``check_bn_structure``:
    B symmetric and closed, B(N.,.) = B(.,N.) and closed, N Nijenhuis."""
    b = _flat(B)
    nt_b, b_n = _coupling_sides(B, N)
    return [(b, _flat(B.transpose())), _closedness_sides(alg, b), (nt_b, b_n),
            _closedness_sides(alg, nt_b), _twist_sides(alg, N)]


PREDICATES = {
    "kupershmidt": _Predicate("rep", (("operator", lambda rep: (rep.algebra.dim, rep.mdim)),),
                              check_kupershmidt, lambda K, rep: [_kupershmidt_sides(K, rep)]),
    "nijenhuis": _Predicate("algebra", (("operator", _square),), check_nijenhuis,
                            lambda N, alg: [_twist_sides(alg, N)]),
    "rota_baxter": _Predicate("algebra", (("operator", _square),), check_rota_baxter,
                              lambda R, alg: [_twist_sides(alg, R, weight=False)]),
    "mc_strong": _Predicate("ctx", (("theta", lambda ctx: (ctx.n2, ctx.n1)),),
                            lambda theta, ctx: check_maurer_cartan(ctx, theta, strong=True),
                            lambda theta, ctx: _mc_sides(ctx, theta)),
    # the check refuses a zero form as degenerate, so only its Leibniz test runs first
    "bn_pair": _Predicate("algebra", (("form", _square), ("operator", _square)),
                          lambda B, N, alg: alg.require_leibniz(), _bn_sides, ("form",)),
}

# What a spec without the structure its predicate needs is told it needs.
_NEEDS = {"algebra": "an algebra", "rep": "a representation", "ctx": "a twilled context"}


def _structure_shape(predicate: str, algebra, rep, ctx) -> Optional[Tuple[int, int]]:
    """The shape the structure the predicate needs gives its first block;
    None without the structure."""
    _, shape = PREDICATES[predicate].blocks[0]
    structure = {"algebra": algebra, "rep": rep, "ctx": ctx}[PREDICATES[predicate].needs]
    return None if structure is None else shape(structure)


class SearchSpec(_Record):
    """What to enumerate: a predicate name, the shape of its first block, the
    field, and the context objects the predicate needs; immutable.  The
    structure the predicate needs gives every block its shape: a shape of
    None takes the one it gives the first block, another shape is a
    ShapeMismatch, for every predicate, and a given shape is kept as a
    tuple.  Without that structure the search raises, naming it.  A negative
    budget is a ValueError."""

    __slots__ = ("field", "shape", "predicate", "algebra", "rep", "ctx", "budget")

    def __init__(self, field: FieldSpec, shape: Optional[Tuple[int, int]], predicate: str,
                 algebra: Optional[LeibnizAlgebra] = None, rep: Optional[Representation] = None,
                 ctx: Optional[TwilledContext] = None, budget: int = DEFAULT_BUDGET):
        if budget < 0:
            raise ValueError(f"search budget must be nonnegative, got {budget}")
        fixed = _structure_shape(predicate, algebra, rep, ctx) if predicate in PREDICATES else None
        if shape is not None and fixed and tuple(shape) != fixed:
            raise ShapeMismatch(f"{predicate} searches {fixed[0]}x{fixed[1]} matrices, "
                                f"got shape {shape!r}")
        self.field = field
        self.shape = fixed if shape is None else tuple(shape)
        self.predicate = predicate
        self.algebra = algebra
        self.rep = rep
        self.ctx = ctx
        self.budget = budget

    def space_size(self) -> int:
        """The number of candidates, p ** k for the k entries of the blocks.
        Raises ShapeMismatch off a prime field, then without the structure
        the predicate needs, and BudgetExceeded over the budget."""
        if not self.field.is_prime_field:
            raise ShapeMismatch("exhaustive enumeration needs a prime field")
        k = sum(rows * cols for _, rows, cols in _blocks(self))
        p = self.field.p
        printable = k * p.bit_length() <= _DECIMAL_BITS
        # Otherwise p**k >= 2**(k*(bits(p)-1)) is over any budget of fewer bits.
        if printable or k * (p.bit_length() - 1) < self.budget.bit_length():
            total = p ** k
            if total <= self.budget:
                return total
        shown = total if printable else f"{p}^{k}"
        raise BudgetExceeded(f"{shown} candidates exceed budget {self.budget}")


def _blocks(spec: SearchSpec) -> List[Tuple[str, int, int]]:
    """(name, rows, cols) of each block of unknowns, in block order, with
    the shapes the structure the predicate needs gives them."""
    if spec.predicate not in PREDICATES:
        raise UnknownIdentity(f"unknown search predicate {spec.predicate!r}")
    structure = _structure(spec)
    return [(name, *shape(structure)) for name, shape in PREDICATES[spec.predicate].blocks]


def _structure(spec: SearchSpec):
    """The structure that the spec's predicate needs."""
    needs = PREDICATES[spec.predicate].needs
    if getattr(spec, needs) is None:
        raise ShapeMismatch(f"{spec.predicate} search needs {_NEEDS[needs]}")
    return getattr(spec, needs)


def _cuts(blocks: List[Tuple[str, int, int]]) -> List[List[slice]]:
    """For each block, the slices of a flat candidate that hold its rows."""
    cuts, at = [], 0
    for _, rows, cols in blocks:
        cuts.append([slice(at + r * cols, at + (r + 1) * cols) for r in range(rows)])
        at += rows * cols
    return cuts


def _row_getter(cut: List[slice]) -> Callable[[Sequence], tuple]:
    """The function from a flat candidate to the tuple of its block rows at
    the slices ``cut``: one ``itemgetter`` over them, in C, for a block of
    several rows.  ``itemgetter`` of one slice returns the bare row, and
    ``itemgetter()`` raises, so a block of one row or none takes its rows
    one slice at a time."""
    if len(cut) > 1:
        return itemgetter(*cut)
    return lambda flat: tuple(map(flat.__getitem__, cut))


def _block_matrices(f: FieldSpec, cuts: List[List[slice]], flats: List[tuple]) -> List[list]:
    """For each block, in block order, its matrix in each flat candidate
    tuple of ``flats``, its rows split off by ``_row_getter``: in C, by one
    ``itemgetter`` call per candidate, for a block of several rows."""
    return [list(map(Matrix._trusted, repeat(f), map(_row_getter(cut), flats))) for cut in cuts]


def _predicate_fn(spec: SearchSpec) -> Callable[[Sequence[int]], bool]:
    """Compile the predicate into a kernel on flat residue tuples (the
    candidate's entries).  A structure over another field is refused first;
    then the row's check runs once on the zero blocks, so shape,
    representation, context and non-Leibniz errors are raised exactly as by
    the check, before any candidate."""
    blocks, structure = _blocks(spec), _structure(spec)
    if structure.field != spec.field:
        raise ShapeMismatch(
            f"search field {spec.field} differs from the structure's field {structure.field}")
    PREDICATES[spec.predicate].check(
        *(Matrix.zeros(spec.field, rows, cols) for _, rows, cols in blocks), structure)
    X = tuple(_Poly({(i,): 1}) for i in range(sum(rows * cols for _, rows, cols in blocks)))
    return _kernel(spec.field.p, [r for side in _sides(spec, X) for r in _residues(*side)])


def _sides(spec: SearchSpec, X: tuple) -> list:
    """The (lhs, rhs) raw sides of the predicate's identities at the
    candidate whose flat entries are the tuple X, from the check kernels: X
    holds polynomial unknowns to compile the kernel, and ``_Lanes`` to
    confirm a group of hits."""
    blocks = [block for block, in _block_matrices(spec.field, _cuts(_blocks(spec)), [X])]
    return PREDICATES[spec.predicate].sides(*blocks, _structure(spec))


def _matrix(f: FieldSpec, rows: int, cols: int, flat: Sequence) -> Matrix:
    """The rows x cols matrix of the normalized values (or the polynomial
    unknowns) ``flat``, row-major."""
    return Matrix._trusted(f, tuple(tuple(flat[r * cols:(r + 1) * cols]) for r in range(rows)))


def enumerate_operators(spec: SearchSpec, workers: int = 1) -> List:
    """Every hit over F_p in lexicographic order, a Matrix (a tuple of them
    in block order for several blocks); the first that the check's identity
    rejects raises SearchMismatch.  ``workers`` changes nothing; it is kept
    only because the benchmark's search jobs (``bench/workloads.py``) pass it."""
    spec.space_size()  # raises off a prime field, without the structure or over the budget
    holds = _predicate_fn(spec)
    blocks = _blocks(spec)
    k = sum(rows * cols for _, rows, cols in blocks)
    candidates = filter(holds, product(range(spec.field.p), repeat=k))
    if PREDICATES[spec.predicate].invertible:
        candidates = filter(_invertible(spec), candidates)
    f, cuts, hits = spec.field, _cuts(blocks), []
    while group := list(islice(candidates, _BLOCK)):
        bad = _first_rejected(spec, group)
        if bad is not None:
            shown = ", ".join(repr(block) for block, in _block_matrices(f, cuts, [group[bad]]))
            raise SearchMismatch(f"compiled {spec.predicate} kernel accepts {shown}, "
                                 "the check rejects it")
        hits += group
    found = _block_matrices(f, cuts, hits)
    return found[0] if len(cuts) == 1 else list(zip(*found))


def _invertible(spec: SearchSpec) -> Callable[[tuple], bool]:
    """Whether the invertible blocks of a flat candidate are invertible, by
    ``is_invertible`` as in the check, decided once per distinct block."""
    blocks = _blocks(spec)
    cuts = [cut for (name, _, _), cut in zip(blocks, _cuts(blocks))
            if name in PREDICATES[spec.predicate].invertible]
    getters = list(map(_row_getter, cuts))
    decide = lru_cache(maxsize=None)(lambda rows: is_invertible(Matrix._trusted(spec.field, rows)))
    return lambda flat: all(decide(rows(flat)) for rows in getters)


def _first_rejected(spec: SearchSpec, flats: List[tuple]) -> Optional[int]:
    """The index of the first of the candidates ``flats`` (flat entry
    tuples) on which lhs = rhs fails mod p, or None: one evaluation of the
    raw sides on the blocks whose entry lanes are the candidates' entries.
    The first is the least bad lane over every coordinate, not the first bad
    lane of the first bad coordinate.  A coordinate whose raw sides are
    already equal (``l == r``, one comparison of ints or of lane lists in C)
    is skipped, with no difference built: most coordinates of a block of
    hits are.  Of the others, a plain constant difference, the same on every
    lane, is tested once, and a nonzero one rejects lane 0; a lane list is
    cut to the lanes before the least bad one only once a bad lane has been
    found."""
    if not flats:
        return None
    p, n = spec.field.p, len(flats)
    first = n
    for lhs, rhs in _sides(spec, tuple(map(_Lanes, zip(*flats)))):
        for l, r in zip(lhs, rhs):
            if l == r:
                continue
            d = l - r
            if not isinstance(d, _Lanes):
                if d % p:
                    return 0
            elif any(map(mod, d if first == n else d[:first], repeat(p))):
                first = next(i for i, v in enumerate(d) if v % p)
    return first if first < n else None


# -- compiled kernels ------------------------------------------------------------


class _Lanes(list):
    """One raw value per candidate of a block, lane i for candidate i, not
    reduced.  It has what the check kernels do to matrix entries, lane by
    lane: +, - and * with lanes and constants, in place too (where a list
    would extend or repeat), negation, and a truth test that means "any lane
    is nonzero".  As with ``_Poly``, no operation changes an operand, and one
    with the constant 0 (for + and -) or 1 or -1 (for *) returns its lanes
    operand itself, or its negation."""

    __slots__ = ()

    def __add__(self, other) -> "_Lanes":
        if isinstance(other, list):
            return _Lanes(map(add, self, other))
        return _Lanes(map(add, self, repeat(other))) if other else self

    __radd__ = __iadd__ = __add__

    def __sub__(self, other) -> "_Lanes":
        if isinstance(other, list):
            return _Lanes(map(sub, self, other))
        return _Lanes(map(sub, self, repeat(other))) if other else self

    def __rsub__(self, other) -> "_Lanes":
        return -self + other

    def __neg__(self) -> "_Lanes":
        return _Lanes(map(neg, self))

    def __mul__(self, other) -> "_Lanes":
        if isinstance(other, list):
            return _Lanes(map(mul, self, other))
        if other == 1:
            return self
        if other == -1:
            return -self
        return _Lanes(map(mul, self, repeat(other)))

    __rmul__ = __imul__ = __mul__

    def __bool__(self) -> bool:
        return any(self)


def _unknowns(f: FieldSpec, rows: int, cols: int) -> Matrix:
    """The rows x cols matrix of the unknowns 0, 1, ..., row-major."""
    return _matrix(f, rows, cols, [_Poly({(i,): 1}) for i in range(rows * cols)])


def _residues(lhs, rhs) -> List[dict]:
    """lhs - rhs entrywise, as polynomials: the residues of lhs = rhs."""
    return [d if isinstance(d, dict) else _Poly({(): d} if d else {}) for d in map(sub, lhs, rhs)]


def _kernel(p: int, residues: Iterable[dict]) -> Callable[[Sequence[int]], bool]:
    """The predicate "every residue vanishes mod p" on a flat tuple ``x`` of
    residues in [0, p) (the candidate's entries), compiled once from the
    source that ``_kernel_source`` generates: one straight-line
    ``holds(x)`` with one ``if x[v]: return False`` per forced zero, then
    one ``if (...) % p: return False`` per other equation, so a candidate
    stops at the first nonzero residue.  The source holds only integer
    literals, ``x[i]``, ``+``, ``*`` and ``%``, and runs without builtins.

    Size bound: CPython 3.11 compiles a flat sum of 2,000 terms but raises
    RecursionError at 3,000.  A Nijenhuis residue has about 3.6 n^2 terms
    (360 at n = 10, on dense tensors), so one equation reaches the bound only
    near n = 25, far past any search budget that fits in memory."""
    namespace = {"__builtins__": {}}
    exec(_kernel_source(p, residues), namespace)
    return namespace["holds"]


def _equations(p: int, residues: Iterable[dict]) -> Tuple[dict, set]:
    """The residues reduced mod p to sparse int equations, each scaled to
    leading coefficient 1 and kept once (the keys of a dict), and the
    variables that an equation of one monomial in one variable forces to 0."""
    equations, forced = {}, set()
    for poly in residues:
        terms = sorted((mono, c % p) for mono, c in poly.items() if c % p)
        if terms:
            scale = pow(terms[0][1], p - 2, p)
            equations[tuple((mono, c * scale % p) for mono, c in terms)] = None
            if len(terms) == 1 and len(set(terms[0][0])) == 1:
                forced.add(terms[0][0][0])
    return equations, forced


def _kernel_source(p: int, residues: Iterable[dict]) -> str:
    """Reduce the residues mod p to equations (``_equations``), set every
    forced variable to 0 in the others and reduce them again until no new
    one is forced, and render the source of ``holds(x)``: first one
    ``if x[v]: return False`` per forced variable, in variable order, then
    one ``if (...) % p: return False`` per other equation, ordered by its
    highest variable.  The forced test is exact on residues in [0, p),
    since F_p has no zero divisors.  A system that forces no variable
    compiles to one ``if (...) % p`` line per distinct equation."""
    equations, forced = _equations(p, residues)
    zeros = set()
    while forced:
        zeros |= forced
        equations, forced = _equations(p, ({mono: c for mono, c in eq if zeros.isdisjoint(mono)}
                                            for eq in equations))
    ordered = sorted(equations, key=lambda eq: max((v for mono, _ in eq for v in mono), default=-1))
    lines = ["def holds(x):"] + [f"    if x[{v}]: return False" for v in sorted(zeros)]
    for eq in ordered:
        terms = []
        for mono, c in eq:
            factors = [f"x[{v}]" for v in mono]
            terms.append("*".join(factors if c == 1 and factors else [str(c)] + factors))
        lines.append(f"    if ({' + '.join(terms)}) % {p}: return False")
    lines.append("    return True")
    return "\n".join(lines) + "\n"


def _linear_basis(field: FieldSpec, residues: Iterable[dict], unknowns: int) -> LinearSolution:
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
    sides = _equivariance_sides(ctx.rho1, _unknowns(ctx.field, ctx.n2, ctx.n1))
    return _linear_basis(ctx.field, _residues(*sides), ctx.n1 * ctx.n2)


def mc_solutions_from_linear_layer(ctx: TwilledContext) -> List[Matrix]:
    """Span the combinations of the linear-layer basis with coefficients in
    (-1, 0, 1, 2) and keep the ones passing the full (weak) Maurer-Cartan
    check."""
    basis = solve_mc_linear_layer(ctx).nullspace
    f = ctx.field
    grid = [f.of(v) for v in (-1, 0, 1, 2)]
    zeros = [0] * (ctx.n1 * ctx.n2)
    seen = set()
    out = []
    for combo in product(grid, repeat=len(basis)):
        key = tuple(f.normalize_all([sum(map(mul, combo, entry)) for entry in zip(*basis)] or zeros))
        if key in seen:
            continue
        seen.add(key)
        theta = _matrix(f, ctx.n2, ctx.n1, key)
        if check_maurer_cartan(ctx, theta).ok:
            out.append(theta)
    return out


def _form_residues(alg: LeibnizAlgebra, sign: int, sides: Callable) -> List[dict]:
    """The residues of B = sign * B^T and of the raw sides ``sides(alg,
    entries)`` in the entries of a form B on ``alg`` (B[a][b] at a*n + b)."""
    B = _unknowns(alg.field, alg.dim, alg.dim)
    b = _flat(B)
    return _residues(b, [sign * v for v in _flat(B.transpose())]) + _residues(*sides(alg, b))


def _form_basis(alg: LeibnizAlgebra, sign: int, sides: Callable) -> List[Matrix]:
    """Basis of the bilinear forms on which every residue of
    ``_form_residues(alg, sign, sides)`` vanishes."""
    f, n = alg.field, alg.dim
    sol = _linear_basis(f, _form_residues(alg, sign, sides), n * n)
    return [_matrix(f, n, n, vec) for vec in sol.nullspace]


def invariant_skew_forms(alg: LeibnizAlgebra) -> List[Matrix]:
    """Basis of the space of skew bilinear forms satisfying the quadratic
    invariance condition (a linear system in the form's entries)."""
    return _form_basis(alg, -1, _invariance_sides)


def closed_symmetric_forms(alg: LeibnizAlgebra) -> List[Matrix]:
    """Basis of the space of symmetric bilinear forms satisfying the
    closedness condition (linear in the form)."""
    return _form_basis(alg, 1, _closedness_sides)
