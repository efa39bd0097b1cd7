"""Kupershmidt, Rota-Baxter and Nijenhuis operators; the sub-adjacent algebra
on the module; pairwise compatibility of Kupershmidt operators.  The induced
representation and the lifted sum of a Kupershmidt operator are in
``twilled``, which no operator check loads.

The three operator identities are one image identity
[T e_i, T e_j] = T(B(e_i, e_j)) for a bilinear map B that depends on T, and
``_image_violations`` is its one kernel:

- Kupershmidt (T: module -> algebra): B is the induced module bracket
  [u,v]^T = rhoL(Tu) v + rhoR(Tv) u;
- Nijenhuis: B(x, y) = [Tx,y] + [x,Ty] - T[x,y], the ``_twist`` of the bracket;
- Rota-Baxter of weight zero: the same ``_twist`` without its last term, the
  Kupershmidt case of the regular representation.

Every identity of the package on basis pairs is summed from a few flat
primitives, each a raw accumulator with coordinate l of pair (i, j) at
(i * m + j) * w + l, w the width of one pair's block; nothing calls a bracket
or a matrix-vector product per basis pair:

- ``_images(alg, S, T)``: [S e_i, T e_j], from the structure constants;
- ``_applied(T, inner)``: T on each block of ``inner``, as ``_twist``,
  ``_dendriform`` or ``_flat3`` of a tensor leave it.

Both sides of each identity then go to ``reports._sides_violations``, the
one comparer of the package.

Each identity has one raw-sides function that returns its (lhs, rhs) as such
accumulators: ``_image_sides`` for the image identity, ``_twist_sides``
(Nijenhuis, Rota-Baxter) and ``_kupershmidt_sides`` on top of it, and
``_equivariance_sides`` for T[x, y] = rhoL(x) T y + rhoR(y) T x of a map
T: algebra -> module, summed from the action entries.  ``_image_violations``
compares the sides of the three image identities, and the Maurer-Cartan
sides of ``dgla`` add the Kupershmidt and equivariance sides; the mixed
identities of ``check_compatible`` and ``check_nk_condition`` and the
bracket identities of ``pairs`` use the primitives directly.

The primitives touch matrix entries only through ``+``, ``-``, ``*`` and
truth tests, and sum into accumulators that start at 0, so they also run
over polynomial entries: ``search`` evaluates the raw-sides functions on a
matrix of unknowns and takes lhs - rhs as the residues of its predicates.

``_module_bracket`` is the one home of the induced module bracket of a
matrix, ``module_bracket_tensor`` its tensor; its kernel ``_dendriform``
sums both action families, rhoL(Tu) v and rhoR(Tv) u, into one accumulator
in one pass over the cached action entries of the representation.
``_kupershmidt_sides`` calls the kernel itself, since it also runs over
polynomial entries.

What a check derives from (K, rep) is built once and kept on ``rep`` (see
``Representation._derived``), after the preconditions of each call have
run: the module bracket of a map (``_module_bracket``), the Kupershmidt
violations with it (``_kupershmidt_core``), the sub-adjacent algebra and
the compatibility verdict of (K1, K2).  The Nijenhuis and Rota-Baxter
violations of an operator are kept on the algebra it is checked on
(``LeibnizAlgebra._derived``).  Each check builds a fresh report from the
kept tuple.  What is kept is tuples and shared objects, which no caller
changes, and none refers to ``rep`` or an algebra, which may keep the
table.  The raw-sides functions keep nothing, since ``search`` runs them
on polynomial entries.
"""

from __future__ import annotations

from operator import add

from .algebras import LeibnizAlgebra, Representation, _nonzero_entries
from .errors import (
    NotCompatible,
    NotKupershmidt,
    NotNijenhuis,
    ParseError,
    ShapeMismatch,
    Singular,
)
from .fields import FieldSpec
from .linalg import LinearOperator, Matrix, is_invertible, mat_inverse
from .reports import CheckReport, Violation, _sides_violations


def as_operator(m, domain: str = "", codomain: str = "") -> LinearOperator:
    if isinstance(m, LinearOperator):
        return m
    return LinearOperator(m, domain, codomain)


def _require_module_map(K: LinearOperator, rep: Representation):
    if K.matrix.rows != rep.algebra.dim or K.matrix.cols != rep.mdim:
        raise ShapeMismatch(
            f"operator is {K.matrix.rows}x{K.matrix.cols}, expected "
            f"{rep.algebra.dim}x{rep.mdim} (module -> algebra)"
        )
    if K.field != rep.algebra.field:
        raise ShapeMismatch("operator and representation fields differ")


def _dendriform(T: Matrix, rep: Representation) -> list:
    """The bracket [u,v]^T = rhoL(Tu) v + rhoR(Tv) u on module basis pairs as
    one flat raw accumulator, coordinate r of pair (a, b) at (a * m + b) * m
    + r, from the action entries: entry (k, r, c, v) adds T[k][u] v to
    coordinate r of [e_u, e_c]^T when it is rhoL's, and of [e_c, e_u]^T when
    it is rhoR's."""
    m, rows = rep.mdim, T.entries
    acc = [0] * m ** 3
    for (u_step, c_step), entries in zip(((m * m, m), (m, m * m)), rep._entries()):
        for k, r, c, v in entries:
            at = c * c_step + r
            for u, t in enumerate(rows[k]):
                if t:
                    acc[u * u_step + at] += t * v
    return acc


def _module_bracket(T: Matrix, rep: Representation) -> tuple:
    """The bracket [u,v]^T of ``_dendriform`` as a flat raw tuple, built once
    per (T, rep) and kept on ``rep``."""
    return rep._derived(("bracket", T), lambda: tuple(_dendriform(T, rep)))


def module_bracket_tensor(T: Matrix, rep: Representation):
    """Bracket [u,v]^T = rhoL(Tu) v + rhoR(Tv) u on the module, for any linear
    T: module -> algebra; the sub-adjacent bracket when T is Kupershmidt."""
    return _tensor(rep.algebra.field, _module_bracket(T, rep), rep.mdim)


def twisted_tensor(c, T: Matrix, f: FieldSpec):
    """Deform a normalized bilinear tensor by an endomorphism:
    B_T(x,y) = B(Tx,y) + B(x,Ty) - T(B(x,y)), entrywise on basis pairs."""
    n = len(c)
    if T.rows != n or T.cols != n:
        raise ShapeMismatch("twisting endomorphism must be square of the tensor's size")
    return _tensor(f, _twist(n, _nonzero_entries(c), T), n)


def _twist(n: int, entries, T: Matrix, weight: bool = True) -> list:
    """``twisted_tensor`` from the nonzero entries of the tensor, as the flat
    raw accumulator that the image kernel reads as its ``inner``: coordinate k
    of B_T(e_i, e_j) at (i * n + j) * n + k.  Each entry B(e_a, e_b) = v e_l
    feeds B(Te_i, e_b), B(e_a, Te_j) and, with ``weight``, T(B(e_a, e_b)), so
    the pass costs O(nnz * n).  Without ``weight`` it is B(Tx,y) + B(x,Ty),
    the inner tensor of Rota-Baxter operators of weight zero."""
    rows = T.entries
    cols = tuple(zip(*rows))
    acc = [0] * n ** 3
    for a, b, l, v in entries:
        for i, t in enumerate(rows[a]):
            if t:
                acc[(i * n + b) * n + l] += t * v
        for j, t in enumerate(rows[b]):
            if t:
                acc[(a * n + j) * n + l] += t * v
        if weight:
            base = (a * n + b) * n
            for k, t in enumerate(cols[l]):
                if t:
                    acc[base + k] -= t * v
    return acc


def _tensor(f: FieldSpec, acc, n: int):
    """The n x n x n tensor of the flat raw accumulator ``acc``, coordinate k
    of entry (i, j) at (i * n + j) * n + k, normalised once."""
    flat = f.normalize_all(acc)
    return tuple(tuple(tuple(flat[(i * n + j) * n:(i * n + j + 1) * n]) for j in range(n))
                 for i in range(n))


def _flat3(c) -> list:
    """The tensor c[i][j][k] as a flat list, entry (i, j, k) at (i * n + j) * n + k."""
    return [v for row in c for vec in row for v in vec]


def _images(alg: LeibnizAlgebra, S: Matrix, T: Matrix) -> list:
    """[S e_i, T e_j] on basis pairs of the common domain of S and T, summed
    from the structure constants over the nonzero entries of S and T."""
    n, m = alg.dim, S.cols
    srows, trows = S.entries, T.entries
    acc = [0] * (m * m * n)
    for a, b, l, v in alg._entries:
        for j, t in enumerate(trows[b]):
            if t:
                at, tv = j * n + l, t * v
                for i, s in enumerate(srows[a]):
                    if s:
                        acc[i * m * n + at] += s * tv
    return acc


def _applied(T: Matrix, inner) -> list:
    """T on each T.cols-wide block of ``inner``: each nonzero inner value
    meets its column of T."""
    n, m = T.rows, T.cols
    if not m:  # no block of width 0 has a coordinate to apply T to
        return []
    cols = tuple(zip(*T.entries))
    acc = [0] * (len(inner) // m * n)
    for q, w in enumerate(inner):
        if w:
            at = q // m * n
            for l, t in enumerate(cols[q % m]):
                if t:
                    acc[at + l] += t * w
    return acc


def _equivariance_sides(rep: Representation, T: Matrix):
    """T[e_i, e_j] and rhoL(e_i) T e_j + rhoR(e_j) T e_i on basis pairs of the
    algebra, for T: algebra -> module: the raw sides of the equivariance of T.
    The second is summed from the action entries: entry (k, r, c, v) of rhoL_k
    meets row c of T at the pairs (k, j), and of rhoR_k at the pairs (i, k)."""
    n, m = rep.algebra.dim, rep.mdim
    rows = T.entries
    acc = [0] * (n * n * m)
    left, right = rep._entries()
    for k, r, c, v in left:
        for j, t in enumerate(rows[c]):
            if t:
                acc[(k * n + j) * m + r] += v * t
    for k, r, c, v in right:
        for i, t in enumerate(rows[c]):
            if t:
                acc[(i * n + k) * m + r] += v * t
    return _applied(T, _flat3(rep.algebra.c)), acc


def _image_sides(alg: LeibnizAlgebra, T: Matrix, inner):
    """[T e_i, T e_j] and T(inner(e_i, e_j)) on basis pairs of T's domain: the
    raw sides of the image identity.  ``inner`` is flat and raw, coordinate k
    of pair (i, j) at (i * m + j) * m + k for m = T.cols."""
    return _images(alg, T, T), _applied(T, inner)


def _image_violations(name: str, T: Matrix, sides):
    """The violations, named ``name``, of an image identity from its raw
    ``sides`` (as ``_image_sides`` returns them): the one kernel of the
    Kupershmidt, Nijenhuis and Rota-Baxter checks."""
    return _sides_violations(name, T.field, *sides, T.cols)


def _twist_sides(alg: LeibnizAlgebra, T: Matrix, weight: bool = True):
    """The raw sides of the Nijenhuis identity on basis pairs, [Tx, Ty] and
    T([Tx,y] + [x,Ty] - T[x,y]); without ``weight``, of the Rota-Baxter
    identity of weight zero."""
    return _image_sides(alg, T, _twist(alg.dim, alg._entries, T, weight))


def _kupershmidt_sides(K: Matrix, rep: Representation):
    """The raw sides of the Kupershmidt identity on module basis pairs,
    [Ku, Kv] and K(rhoL(Ku) v + rhoR(Kv) u)."""
    return _image_sides(rep.algebra, K, _dendriform(K, rep))


def _module_map(K: LinearOperator, rep: Representation) -> LinearOperator:
    """K as an operator, after the preconditions of a Kupershmidt operator:
    rep a representation and K a module map of it."""
    rep.require_representation()
    K = as_operator(K)
    _require_module_map(K, rep)
    return K


def _kupershmidt_core(K: LinearOperator, rep: Representation):
    """The violations of the Kupershmidt identity and the bracket [u,v]^K,
    as flat raw tuples, after the preconditions of ``check_kupershmidt``;
    kept on ``rep`` per K."""
    T = _module_map(K, rep).matrix

    def make():
        bracket = _module_bracket(T, rep)
        sides = _image_sides(rep.algebra, T, bracket)
        return tuple(_image_violations("kupershmidt", T, sides)), bracket
    return rep._derived(("kupershmidt", T), make)


def _require_kupershmidt(K: LinearOperator, rep: Representation) -> tuple:
    """The flat raw [u,v]^K, raising NotKupershmidt unless K is Kupershmidt."""
    violations, bracket = _kupershmidt_core(K, rep)
    if violations:
        raise NotKupershmidt(CheckReport.build(violations).summary())
    return bracket


def check_kupershmidt(K: LinearOperator, rep: Representation) -> CheckReport:
    """[K(u),K(v)] = K(rhoL(Ku) v + rhoR(Kv) u) on all module basis pairs."""
    return CheckReport.build(_kupershmidt_core(K, rep)[0])


def subadjacent_algebra(K: LinearOperator, rep: Representation) -> LeibnizAlgebra:
    """The sub-adjacent algebra of a Kupershmidt K, the module with the
    bracket [u,v]^K; kept on ``rep`` per K."""
    bracket = _require_kupershmidt(K, rep)

    def make():
        f = rep.algebra.field
        alg = LeibnizAlgebra(f, _tensor(f, bracket, rep.mdim))
        alg.require_leibniz()
        return alg
    return rep._derived(("subadjacent", as_operator(K).matrix), make)


def _endomorphism(T: LinearOperator, alg: LeibnizAlgebra, shape_error: str) -> Matrix:
    """The matrix of T, after the preconditions of a Nijenhuis or
    Rota-Baxter operator: ``alg`` Leibniz and T an endomorphism of it over
    its field."""
    alg.require_leibniz()
    T = as_operator(T).matrix
    if T.rows != alg.dim or T.cols != alg.dim:
        raise ShapeMismatch(shape_error)
    if T.field != alg.field:
        raise ShapeMismatch("operator and algebra fields differ")
    return T


def check_nijenhuis(N: LinearOperator, alg: LeibnizAlgebra) -> CheckReport:
    """[N(x),N(y)] = N([N(x),y] + [x,N(y)] - N[x,y]) on all basis pairs;
    the violations are kept on ``alg`` per N."""
    N = _endomorphism(N, alg, "Nijenhuis candidate must be an endomorphism of the algebra")
    return CheckReport.build(alg._derived(("nijenhuis", N), lambda: tuple(
        _image_violations("nijenhuis", N, _twist_sides(alg, N)))))


def deformed_bracket(N: LinearOperator, alg: LeibnizAlgebra) -> LeibnizAlgebra:
    """[x,y]_N = [Nx,y] + [x,Ny] - N[x,y]; a Leibniz algebra whenever N is
    Nijenhuis (the tensor itself is defined for any N over the algebra's
    field, Leibniz or not)."""
    N = as_operator(N)
    if N.matrix.rows != alg.dim or N.matrix.cols != alg.dim:
        raise ShapeMismatch("deforming endomorphism must be square")
    if N.field != alg.field:
        raise ShapeMismatch("operator and algebra fields differ")
    f = alg.field
    return LeibnizAlgebra(f, _tensor(f, _twist(alg.dim, alg._entries, N.matrix), alg.dim))


def check_rota_baxter(R: LinearOperator, alg: LeibnizAlgebra) -> CheckReport:
    """Weight-zero condition [R(x),R(y)] = R([R(x),y] + [x,R(y)]) on basis
    pairs; the violations are kept on ``alg`` per R."""
    R = _endomorphism(R, alg, "Rota-Baxter candidate must be an endomorphism")
    return CheckReport.build(alg._derived(("rota-baxter", R), lambda: tuple(
        _image_violations("rota-baxter", R, _twist_sides(alg, R, weight=False)))))


_COMPAT_SAMPLES = ((1, 1), (2, -1), ("1/2", 3))


def check_compatible(
    K1: LinearOperator, K2: LinearOperator, rep: Representation
) -> CheckReport:
    """Mixed Kupershmidt identity for a pair of Kupershmidt operators:

    [K1 w, K2 v] + [K2 w, K1 v] =
        K1(rhoL(K2 w)v + rhoR(K2 v)w) + K2(rhoL(K1 w)v + rhoR(K1 v)w)

    On success, also checks that sampled linear combinations are again
    Kupershmidt (samples whose coefficients do not embed in the field are
    skipped).  The samples add no evidence: the Kupershmidt residue R is
    homogeneous quadratic in K, R(aK1 + bK2) = a^2 R(K1) + b^2 R(K2) +
    ab M(K1, K2) with M the mixed identity, so once K1 and K2 are Kupershmidt
    and M vanishes every combination is Kupershmidt.  They cross-check the
    mixed-identity kernel against the Kupershmidt one.  The violations and
    notes are kept on ``rep`` per (K1, K2).
    """
    K1, K2 = as_operator(K1), as_operator(K2)
    sub1 = _require_kupershmidt(K1, rep)
    sub2 = _require_kupershmidt(K2, rep)
    A, B = K1.matrix, K2.matrix

    def make():
        alg = rep.algebra
        f = alg.field
        lhs = list(map(add, _images(alg, A, B), _images(alg, B, A)))
        rhs = list(map(add, _applied(A, sub2), _applied(B, sub1)))
        violations = _sides_violations("compatible", f, lhs, rhs, rep.mdim)
        notes = {}
        if violations:
            return tuple(violations), notes
        for n1, n2 in _COMPAT_SAMPLES:
            try:
                a, b = f.of(n1), f.of(n2)
            except ParseError:
                notes[f"sample-{n1},{n2}"] = "skipped (coefficients not in field)"
                continue
            comb = A.scale(a) + B.scale(b)
            sub = check_kupershmidt(LinearOperator(comb, K1.domain, K1.codomain), rep)
            violations += sub.prefixed(f"combination-{n1},{n2}").violations
        return tuple(violations), notes
    return CheckReport.build(*rep._derived(("compatible", A, B), make))


def check_nk_condition(
    N: LinearOperator, K: LinearOperator, rep: Representation
) -> CheckReport:
    """The condition equivalent to the composite NK being Kupershmidt:

    N([NKw, Ku] + [Kw, NKu]) =
        NK(rhoL(NKw)u + rhoR(NKu)w) + N^2 K(rhoL(Kw)u + rhoR(Ku)w)

    Cross-checked against check_kupershmidt(NK) directly; a mismatch between
    the two routes is reported as a defect.
    """
    N, K = as_operator(N), as_operator(K)
    alg = rep.algebra
    nij = check_nijenhuis(N, alg)
    if not nij.ok:
        raise NotNijenhuis(nij.summary())
    sub_K = _require_kupershmidt(K, rep)
    Nm, Km = N.matrix, K.matrix
    NK = Nm * Km
    composite = LinearOperator(NK, K.domain, K.codomain)
    direct_violations, sub_NK = _kupershmidt_core(composite, rep)
    lhs = _applied(Nm, list(map(add, _images(alg, NK, Km), _images(alg, Km, NK))))
    rhs = list(map(add, _applied(NK, sub_NK), _applied(Nm * NK, sub_K)))
    report = CheckReport.build(_sides_violations("nk-condition", alg.field, lhs, rhs, rep.mdim))
    direct = CheckReport.build(direct_violations)
    if report.ok != direct.ok:
        report = report.merged(CheckReport.build([Violation(
            "nk-condition-vs-composite", (), (int(report.ok),), (int(direct.ok),))]))
    report.notes["composite-kupershmidt"] = "ok" if direct.ok else direct.summary()
    return report


def nijenhuis_from_compatible(
    K1: LinearOperator, K2: LinearOperator, rep: Representation
) -> LinearOperator:
    """N = K1 K2^{-1} for a compatible pair with invertible K2."""
    K1, K2 = as_operator(K1), as_operator(K2)
    comp = check_compatible(K1, K2, rep)
    if not comp.ok:
        raise NotCompatible(comp.summary())
    if not is_invertible(K2.matrix):
        raise Singular("second operator is not invertible")
    N = LinearOperator(K1.matrix * mat_inverse(K2.matrix), K1.codomain, K1.codomain)
    rpt = check_nijenhuis(N, rep.algebra)
    if not rpt.ok:
        raise NotNijenhuis(f"quotient of a compatible pair failed: {rpt.summary()}")
    return N
