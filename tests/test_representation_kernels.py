"""The representation-side checks -- the action axioms, the Kupershmidt
identity, and the Nijenhuis-pair, dual-Nijenhuis-pair and perfect-pair
identities -- against the oracles over F2, F3, F5 and Q, with equal
violation tuples; and what no oracle covers against its dense formula: the
hat and tilde actions of a pair, the induced action of a map from the module
to the algebra, the locality part theta([y,z]) = rhoL(y) theta z +
rhoR(z) theta y of the Maurer-Cartan equation, and the deformation report of
a pair; and the raw pair sides over polynomial unknowns against their
numeric values.

The representations are the catalog's, carried into each field and moved by
transport of structure: for invertible P on the algebra and Q on the module,
c'(x, y) = P^-1 [Px, Py] and rho'(x) = Q^-1 rho(Px) Q, so that the action
matrices are dense.  They are l2's named representations and the regular and
dual representations of every non-abelian catalog algebra of dimension 2 or
3, each also summed with a trivial one-dimensional module (module dimension
n + 1), and zero representations on modules of dimension 0 and 1.  Operators move
along (K -> P^-1 K Q, N -> P^-1 N P, S -> Q^-1 S Q), so that some inputs
pass; perturbed action matrices and random operators make most of them
fail, so that the violations' sides are compared and not only the verdicts.
The last test keeps the six kernels on the cached action entries."""

import ast
import random
from pathlib import Path

import pytest

import leibnizkit
import leibnizkit.pairs as pairs_module
from leibnizkit import (
    CheckReport,
    LeibnizAlgebra,
    Matrix,
    RATIONALS as Q,
    Representation,
    Violation,
    as_operator,
    check_dual_nijenhuis_pair,
    check_kupershmidt,
    check_nijenhuis,
    check_nijenhuis_pair,
    check_perfect_pair,
    check_representation,
    deformation_from_pair,
    dual_representation,
    make_pair,
    regular_representation,
)
from leibnizkit.catalog import load_catalog
from leibnizkit.dgla import _Poly
from leibnizkit.errors import DivisionByZero
from leibnizkit.fields import prime_field
from leibnizkit.linalg import _flat, is_invertible, mat_inverse
from leibnizkit.oracles import (
    eval_dual_nijenhuis_pair,
    eval_kupershmidt,
    eval_leibniz,
    eval_nijenhuis_pair,
    eval_perfect_pair,
    eval_representation,
)
from leibnizkit.suites import _operator_locality
from leibnizkit.twilled import induced_action
from oracle_helpers import agree, invertible, moved, random_matrix, tally

SRC = Path(leibnizkit.__file__).resolve().parent
FIELDS = (prime_field(2), prime_field(3), prime_field(5), Q)


def block_diag(f, A: Matrix, B: Matrix) -> Matrix:
    n, m = A.rows, B.rows
    return Matrix(f, [list(row) + [0] * m for row in A.entries]
                  + [[0] * n + list(row) for row in B.entries])


def with_trivial(rep: Representation) -> Representation:
    """rep (+) a one-dimensional module on which the algebra acts by zero."""
    f = rep.algebra.field
    z = Matrix.zeros(f, 1, 1)
    return Representation(rep.algebra, [block_diag(f, m, z) for m in rep.rhoL],
                          [block_diag(f, m, z) for m in rep.rhoR])


def slanted_projection(f, m):
    """E on V (+) k, for the V of dimension m: the projection along k onto
    the graph of v -> v_1 + ... + v_m.  With rho acting on V and killing k,
    E rho (1 - E) = 0, so (c I, c I + E) is a Nijenhuis pair for every scalar
    c; it is perfect only if (1 - E) rho E = 0, which fails unless
    v_1 + ... + v_m vanishes on every rho(x) V."""
    return Matrix(f, [[int(r == c) for c in range(m)] + [0] for r in range(m)]
                  + [[1] * m + [0]])


def catalog_cases(f):
    """(representation, Kupershmidt candidates, (N, S) pair candidates) in the
    catalog's bases, carried into f: l2's named representations and the
    regular and dual representation of every catalog algebra of dimension 2
    or 3 that is still Leibniz and not abelian in f, all on a module of the
    algebra's dimension n, and each of them summed with a trivial module.
    The Kupershmidt candidates are 0, 1 and the first three square operators
    of the algebra's file that are Kupershmidt for the representation.  The
    pairs are (N, N) and (N, N^T) for the first of the file's operators
    that are Nijenhuis, and (0, 0), (1, 1) on the representation itself; on
    the sum with a trivial module S is extended by 1 on it, and the pairs
    (c, c + E) of ``slanted_projection`` take the place of the scalar ones."""
    cases, seen = [], set()
    for entry in load_catalog().values():
        spec = entry.spec
        named = [spec.rep_for(name) for name in spec.names_of("representation")]
        for name in spec.names_of("algebra"):
            base = spec.build(name)
            if not 2 <= base.dim <= 3:
                continue
            try:
                alg = LeibnizAlgebra(f, base.c)
            except DivisionByZero:
                continue
            n = alg.dim
            if not alg.is_leibniz or alg == LeibnizAlgebra.abelian(f, n):
                continue
            reps = [Representation(alg, [moved(m, f) for m in r.rhoL],
                                   [moved(m, f) for m in r.rhoR])
                    for r in named if r.algebra == base
                    and all(moved(m, f) for m in r.rhoL + r.rhoR)]
            regular = regular_representation(alg)
            reps += [regular, dual_representation(regular)]
            ops = [m for m in (moved(spec.build(o).matrix, f) for o in spec.names_of("operator"))
                   if m is not None and m.rows == m.cols == n]
            scalars = [Matrix.zeros(f, n, n), Matrix.identity(f, n)]
            nijenhuis = [N for N in ops if check_nijenhuis(as_operator(N), alg).ok][:1]
            pairs = [(N, S) for N in nijenhuis for S in (N, N.transpose())]
            one, E = Matrix.identity(f, 1), slanted_projection(f, n)
            for rep in reps:
                key = (rep.algebra.c, rep.rhoL, rep.rhoR)
                if key in seen:
                    continue
                seen.add(key)
                kup = scalars + [K for K in ops if check_kupershmidt(as_operator(K), rep).ok][:3]
                cases.append((rep, kup, pairs + [(N, N) for N in scalars]))
                cases.append((with_trivial(rep),
                              [Matrix(f, [list(row) + [0] for row in K.entries]) for K in kup],
                              [(N, block_diag(f, S, one)) for N, S in pairs]
                              + [(N, block_diag(f, N, one) + E) for N in scalars]))
    return cases


def transported(rng, rep, kup, pairs):
    """rep, its Kupershmidt candidates and its pairs moved to random bases
    P of the algebra and Q of the module."""
    f, n, m = rep.algebra.field, rep.algebra.dim, rep.mdim
    P, Qm = invertible(rng, f, n), invertible(rng, f, m)
    Pi, Qi = mat_inverse(P), mat_inverse(Qm)
    alg = LeibnizAlgebra(f, [[Pi.apply(rep.algebra.bracket(P.col(i), P.col(j)))
                              for j in range(n)] for i in range(n)])
    out = Representation(alg, [Qi * rep.actL(P.col(i)) * Qm for i in range(n)],
                         [Qi * rep.actR(P.col(i)) * Qm for i in range(n)])
    return (out, [Pi * K * Qm for K in kup],
            [(Pi * N * P, Qi * S * Qm) for N, S in pairs])


def perturbed(rng, rep):
    """rep with one action matrix plus a random one."""
    f, n, m = rep.algebra.field, rep.algebra.dim, rep.mdim
    families = [list(rep.rhoL), list(rep.rhoR)]
    fam, i = rng.choice(families), rng.randrange(n)
    fam[i] = fam[i] + random_matrix(rng, f, m, m)
    return Representation(rep.algebra, *families)


def field_cases(f, rng):
    """The transported catalog cases plus the zero representations on
    modules of dimension 0 and 1 of the first transported algebra of each
    dimension, each case with two random Kupershmidt candidates and two
    random pairs added."""
    cases = [transported(rng, *case) for case in catalog_cases(f)]
    for n in (2, 3):
        alg = next(rep.algebra for rep, _, _ in cases if rep.algebra.dim == n)
        for m in (0, 1):
            ops = [Matrix.zeros(f, n, m)]
            pairs = [(Matrix.identity(f, n), Matrix.identity(f, m))]
            cases.append((Representation.zero(alg, m), ops, pairs))
    out = []
    for rep, kup, pairs in cases:
        n, m = rep.algebra.dim, rep.mdim
        kup = kup + [random_matrix(rng, f, n, m) for _ in range(2)]
        pairs = pairs + [(random_matrix(rng, f, n, n), random_matrix(rng, f, m, m)),
                         (pairs[0][0], random_matrix(rng, f, m, m))]
        out.append((rep, kup, pairs))
    return out


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_representation_side_checks_match_oracles(f):
    """Every case's representation passes the action axioms; its perturbed
    copies mostly fail them, and each of the other checks has both verdicts
    and at least ten failing reports."""
    rng = random.Random(f"representation-{f}")
    cases = field_cases(f, rng)
    assert any(rep.mdim not in (0, rep.algebra.dim) for rep, _, _ in cases)
    verdicts = {"kup": [], "pair": [], "dual-pair": [], "perfect": []}
    perturbations = []
    for rep, kup, pairs in cases:
        assert agree(check_representation, eval_representation, rep).ok
        if rep.mdim:
            perturbations += [agree(check_representation, eval_representation,
                                    perturbed(rng, rep)) for _ in range(2)]
        for K in kup:
            verdicts["kup"].append(agree(check_kupershmidt, eval_kupershmidt, as_operator(K), rep))
        for N, S in pairs:
            pair = make_pair(N, S)
            verdicts["pair"].append(agree(check_nijenhuis_pair, eval_nijenhuis_pair, pair, rep))
            verdicts["dual-pair"].append(
                agree(check_dual_nijenhuis_pair, eval_dual_nijenhuis_pair, pair, rep))
            verdicts["perfect"].append(agree(check_perfect_pair, eval_perfect_pair, pair, rep))
    assert 2 * sum(not r.ok for r in perturbations) > len(perturbations)
    for name, reports in verdicts.items():
        tally(reports, name, 10)


def dense_deformed_action(rep, N, S, hat):
    """rho(N e_i) + (rho(e_i) S - S rho(e_i)) for both families, with the
    commutator negated unless ``hat``, from scaled and multiplied matrices."""
    f, n, m = rep.algebra.field, rep.algebra.dim, rep.mdim
    sign = f.one() if hat else f.neg(f.one())
    families = []
    for rhos in (rep.rhoL, rep.rhoR):
        out = []
        for i in range(n):
            total = Matrix.zeros(f, m, m)
            for k in range(n):
                total = total + rhos[k].scale(N[k, i])
            out.append(total + (rhos[i] * S - S * rhos[i]).scale(sign))
        families.append(tuple(out))
    return tuple(families)


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_deformed_action_matches_dense_formula(f):
    """The hat and tilde families of every case's pairs, module dimensions
    n + 1 and 0 included, against the dense formula."""
    rng = random.Random(f"deformed-action-{f}")
    cases = field_cases(f, rng)
    assert {0} < {rep.mdim for rep, _, _ in cases}
    assert any(rep.mdim == rep.algebra.dim + 1 for rep, _, _ in cases)
    for rep, _, pairs in cases:
        for N, S in pairs:
            for hat in (True, False):
                assert (pairs_module._deformed_action(rep, N, S, hat)
                        == dense_deformed_action(rep, N, S, hat))


def dense_induced_action(T, rep):
    """x -> [T v_i, x] - T rhoR(x) v_i and x -> [x, T v_i] - T rhoL(x) v_i,
    one pair per module basis vector v_i, from the multiplication matrices
    and the columns of the action matrices."""
    alg, f = rep.algebra, rep.algebra.field
    n = alg.dim
    families = ([], [])
    for i in range(rep.mdim):
        for out, mult, rho in zip(families, (alg.left_mult, alg.right_mult), (rep.rhoR, rep.rhoL)):
            total = Matrix.zeros(f, n, n)
            for k in range(n):
                total = total + mult(k).scale(T[k, i])
            out.append(total - T * Matrix.from_cols(f, [rho[j].col(i) for j in range(n)]))
    return families


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_induced_action_matches_dense_formula(f):
    """The induced action of every case's operators, random ones that are
    not Kupershmidt included, on modules of dimension 0, n and n + 1."""
    rng = random.Random(f"induced-action-{f}")
    cases = field_cases(f, rng)
    assert {0} < {rep.mdim for rep, _, _ in cases}
    for rep, kup, _ in cases:
        for T in kup:
            vrL, vrR = induced_action(T, rep)
            assert (list(vrL), list(vrR)) == dense_induced_action(T, rep)


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_operator_locality_matches_dense_formula(f):
    """theta([y, z]) = rhoL(y) theta z + rhoR(z) theta y for zero and random
    maps theta from the algebra to a nonzero module, against the identity
    evaluated basis pair by basis pair; both verdicts occur."""
    rng = random.Random(f"locality-{f}")
    verdicts = []
    for rep, _, _ in field_cases(f, rng):
        alg, n, m = rep.algebra, rep.algebra.dim, rep.mdim
        if not m:
            continue
        for theta in [Matrix.zeros(f, m, n)] + [random_matrix(rng, f, m, n) for _ in range(2)]:
            dense = all(theta.apply(alg.c[i][j])
                        == tuple(f.normalize(a + b) for a, b in zip(
                            rep.rhoL[i].apply(theta.col(j)), rep.rhoR[j].apply(theta.col(i))))
                        for i in range(n) for j in range(n))
            assert _operator_locality(rep, theta) == dense
            verdicts.append(dense)
    assert True in verdicts and False in verdicts


def dense_deformation_report(pair, rep, samples):
    """The report of ``deformation_from_pair`` from the oracles, the dense
    deformed action and the identities evaluated basis pair by basis pair."""
    alg, f = rep.algebra, rep.algebra.field
    n, m = alg.dim, rep.mdim
    N, S = pair.N.matrix, pair.S.matrix
    varpiL, varpiR = dense_deformed_action(rep, N, S, True)
    e = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    omega = tuple(tuple(tuple(f.normalize(a + b - c) for a, b, c in zip(
        alg.bracket(N.col(i), e[j]), alg.bracket(e[i], N.col(j)), N.apply(alg.c[i][j])))
                        for j in range(n)) for i in range(n))
    violations, notes = [], {}
    for t_raw in samples:
        t = f.of(t_raw)
        tag = f.format(t)
        ct = [[tuple(f.normalize(a + t * w) for a, w in zip(alg.c[i][j], omega[i][j]))
               for j in range(n)] for i in range(n)]
        alg_t = LeibnizAlgebra(f, ct)
        violations += eval_leibniz(alg_t).prefixed(f"deformed-bracket-t={tag}").violations
        rhoL_t = [rep.rhoL[i] + varpiL[i].scale(t) for i in range(n)]
        rhoR_t = [rep.rhoR[i] + varpiR[i].scale(t) for i in range(n)]
        rep_t = Representation(alg_t, rhoL_t, rhoR_t)
        violations += eval_representation(rep_t).prefixed(f"deformed-action-t={tag}").violations
        P = Matrix.identity(f, n) + N.scale(t)
        Qm = Matrix.identity(f, m) + S.scale(t)
        if not (is_invertible(P) and is_invertible(Qm)):
            notes[f"t={tag}"] = "equivalence skipped (I+tN or I+tS singular)"
            continue
        for i in range(n):
            for j in range(n):
                lhs, rhs = P.apply(ct[i][j]), alg.bracket(P.col(i), P.col(j))
                if lhs != rhs:
                    violations.append(Violation(f"equivalence-bracket-t={tag}", (i, j), lhs, rhs))
            for side, rho_t, act in (("left", rhoL_t, rep.actL), ("right", rhoR_t, rep.actR)):
                lhs, rhs = Qm * rho_t[i], act(P.col(i)) * Qm
                if lhs != rhs:
                    violations.append(Violation(f"equivalence-{side}-t={tag}", (i,),
                                                _flat(lhs), _flat(rhs)))
    return omega, CheckReport.build(violations, notes)


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_deformation_report_matches_dense_formula(f, monkeypatch):
    """The deformation data and report of every case's pairs against the
    dense evaluation.  The transported Nijenhuis pairs pass; the pair
    precondition is waived so that the random pairs reach the identities and
    fail them, and the violations' sides are compared."""
    monkeypatch.setattr(pairs_module, "check_nijenhuis_pair", lambda pair, rep: CheckReport())
    rng = random.Random(f"deformation-{f}")
    verdicts = []
    for rep, _, pairs in field_cases(f, rng):
        for N, S in pairs:
            pair = make_pair(N, S)
            triple = deformation_from_pair(pair, rep, (1, 2, -1))
            omega, report = dense_deformation_report(pair, rep, (1, 2, -1))
            assert (triple.omega, triple.report) == (omega, report)
            verdicts.append(report.ok)
    assert True in verdicts and verdicts.count(False) >= 10


def unknowns(f, rows, cols, start):
    """The rows x cols matrix of the unknowns start, start + 1, ...,
    row-major."""
    return Matrix._trusted(f, tuple(tuple(_Poly({(start + r * cols + c,): 1}) for c in range(cols))
                                    for r in range(rows)))


def evaluated(f, values, x):
    """Each raw value, a polynomial in the unknowns or a constant, at the
    point x, normalised."""
    out = []
    for v in values:
        if isinstance(v, dict):
            total = 0
            for mono, c in v.items():
                for i in mono:
                    c = c * x[i]
                total += c
            v = total
        out.append(f.normalize(v))
    return out


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_pair_sides_run_over_polynomial_unknowns(f):
    """With N and S made of polynomial unknowns, the pair and dual-pair sides
    on l2's regular and dual representations and on a transported case with
    a trivial summand are polynomials whose residues lhs - rhs, evaluated at
    20 random points, are the normalised numeric differences there; on the
    regular representation they vanish at (N23, 0) and at (I, I)."""
    rng = random.Random(f"pair-sides-{f}")
    spec = load_catalog()["l2"].spec
    regular = regular_representation(LeibnizAlgebra(f, spec.build("alg").c))
    reps = [regular, dual_representation(regular),
            next(rep for rep, _, _ in field_cases(f, rng) if rep.mdim == rep.algebra.dim + 1)]
    for rep in reps:
        n, m = rep.algebra.dim, rep.mdim
        N, S = unknowns(f, n, n, 0), unknowns(f, m, m, n * n)
        points = [(random_matrix(rng, f, n, n), random_matrix(rng, f, m, m)) for _ in range(20)]
        if rep is regular:
            points += [(Matrix(f, spec.build("N23").matrix.entries), Matrix.zeros(f, m, m)),
                       (Matrix.identity(f, n), Matrix.identity(f, m))]
        for dual in (False, True):
            residues = [a - b for lhs, rhs in pairs_module._pair_sides(N, S, rep, dual)
                        for a, b in zip(lhs, rhs)]
            assert any(isinstance(r, _Poly) and r for r in residues)
            for at, (Nx, Sx) in enumerate(points):
                numeric = [v for lhs, rhs in pairs_module._pair_sides(Nx, Sx, rep, dual)
                           for v in f.normalize_all([a - b for a, b in zip(lhs, rhs)])]
                got = evaluated(f, residues, _flat(Nx) + _flat(Sx))
                assert got == numeric
                if at >= 20:
                    assert not any(got)


_DENSE_CALLS = {"mat_mul", "lin_comb", "actL", "actR"}
_ENTRY_KERNELS = (("algebras.py", "check_representation"), ("operators.py", "_dendriform"),
                  ("twilled.py", "induced_action"), ("pairs.py", "_pair_identity"),
                  ("pairs.py", "_pair_sides"), ("pairs.py", "_deformed_action"))
# The pair identities sum their one pass themselves: no identity matrix, no
# diagonal weights and no second summation kernel.
_PAIR_KERNELS = ("_pair_identity", "_pair_sides")
_PAIR_FORBIDDEN = {"identity", "_action_sums", "_diag"}


def _called(tree):
    """The names of the functions and methods that ``tree`` calls."""
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def test_representation_kernels_read_the_action_entries():
    """check_representation, _dendriform, induced_action, _pair_identity,
    _pair_sides and _deformed_action build no action matrix or dense product
    per basis element: their bodies call none of mat_mul, lin_comb, actL and
    actR.  _pair_identity and _pair_sides call none of Matrix.identity,
    _action_sums and _diag either.  Matrix.commutator, which only the old
    check_representation called, is gone."""
    assert _called(ast.parse("rep.actL(x); mat_mul(a, b)")) >= {"actL", "mat_mul"}
    found, pair_calls = {}, {}
    for module, name in _ENTRY_KERNELS:
        tree = ast.parse((SRC / module).read_text())
        body = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == name)
        found[name] = sorted(_called(body) & _DENSE_CALLS)
        if name in _PAIR_KERNELS:
            pair_calls[name] = sorted(_called(body) & _PAIR_FORBIDDEN)
    assert found == {name: [] for _, name in _ENTRY_KERNELS}
    assert pair_calls == {name: [] for name in _PAIR_KERNELS}
    assert not hasattr(Matrix, "commutator")
