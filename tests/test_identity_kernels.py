"""The image identity [T x, T y] = T(B(x, y)) of the Kupershmidt, Nijenhuis
and Rota-Baxter checks, and the form identities -- Yang-Baxter, invariance of
a skew form, closedness of a symmetric one -- against the oracles, over F2,
F3, F5 and Q; and each identity family evaluated in one kernel.

The algebras are the catalog's, carried into each field and moved to a
random basis, c'(x, y) = P^-1 [Px, Py], so that their structure constants
are dense.  The catalog's tensors, forms and operators move along with them
(pi -> P^-1 pi P^-T, B -> P^T B P, T -> P^-1 T P), so that some inputs pass;
random ones make many of them fail, so that the violations' sides are
compared and not only the verdicts."""

import ast
import random
from pathlib import Path

import pytest

import leibnizkit
from leibnizkit import (
    BilinearForm,
    LeibnizAlgebra,
    LinearOperator,
    Matrix,
    RATIONALS as Q,
    Tensor2,
    as_operator,
    check_bn_structure,
    check_nijenhuis,
    check_quadratic,
    check_rota_baxter,
    check_ybe,
)
from leibnizkit.catalog import load_catalog
from leibnizkit.errors import DivisionByZero
from leibnizkit.fields import prime_field
from leibnizkit.linalg import mat_inverse
from leibnizkit.oracles import (
    eval_bn_structure,
    eval_nijenhuis,
    eval_quadratic,
    eval_rota_baxter,
    eval_ybe,
)
from oracle_helpers import agree, invertible, moved, random_matrix, scalar, tally

SRC = Path(leibnizkit.__file__).resolve().parent
FIELDS = (prime_field(2), prime_field(3), prime_field(5), Q)


def dense_cases(f, rng):
    """Per catalog algebra of dimension 2 to 4 that is still Leibniz and not
    abelian in f, moved to two random bases: (algebra, moved 2-tensors, moved forms, moved
    square operators).  The tensors and forms are the ones the catalog
    attaches to that algebra, the operators every square one of its file."""
    out = []
    for entry in load_catalog().values():
        spec = entry.spec
        objects = [spec.build(name) for name in spec.names()]
        for name in spec.names_of("algebra"):
            base = spec.build(name)
            if not 2 <= base.dim <= 4:
                continue
            try:
                alg = LeibnizAlgebra(f, base.c)
            except DivisionByZero:
                continue
            if not alg.is_leibniz or alg == LeibnizAlgebra.abelian(f, alg.dim):
                continue
            n = alg.dim
            tensors = [m for m in (moved(o.matrix, f) for o in objects
                                   if isinstance(o, Tensor2) and o.algebra == base) if m]
            forms = [(m, o.symmetry) for o in objects
                     if isinstance(o, BilinearForm) and o.algebra == base
                     for m in [moved(o.matrix, f)] if m]
            ops = [m for m in (moved(o.matrix, f) for o in objects
                               if isinstance(o, LinearOperator)
                               and o.matrix.rows == o.matrix.cols == n) if m]
            for _ in range(2):
                P = invertible(rng, f, n)
                Pi, Pt = mat_inverse(P), P.transpose()
                c = [[Pi.apply(alg.bracket(P.col(i), P.col(j))) for j in range(n)]
                     for i in range(n)]
                dense = LeibnizAlgebra(f, c)
                out.append((
                    dense,
                    [Pi * m * Pi.transpose() for m in tensors],
                    [(Pt * m * P, sym) for m, sym in forms],
                    [Pi * m * P for m in ops],
                ))
    return out


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_ybe_matches_oracle_on_dense_algebras(f):
    rng = random.Random(f"ybe-{f}")
    reports = []
    for alg, tensors, _, _ in dense_cases(f, rng):
        n = alg.dim
        pis = tensors + [Matrix.zeros(f, n, n)]
        for _ in range(2):
            A = random_matrix(rng, f, n, n)
            pis += [A, A + A.transpose()]
        v = [[scalar(rng, f) for _ in range(n)]]
        pis.append(Matrix(f, v).transpose() * Matrix(f, v))  # v (x) v
        for P in pis:
            reports.append(agree(check_ybe, eval_ybe, alg, Tensor2(alg, P)))
    tally(reports, "ybe", 50)


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_quadratic_matches_oracle_on_dense_algebras(f):
    """Skew nondegenerate forms only: the oracle checks neither precondition."""
    rng = random.Random(f"quadratic-{f}")
    reports = []
    for alg, _, forms, _ in dense_cases(f, rng):
        n = alg.dim
        mats = [m for m, sym in forms if sym == "skew"]
        for _ in range(4):
            A = random_matrix(rng, f, n, n)
            mats.append(A - A.transpose())
        if f.char == 2:  # skew is symmetric there, and may have a nonzero diagonal
            mats.append(A + A.transpose() + Matrix.identity(f, n))
        for B in mats:
            q = BilinearForm(alg, B, "skew")
            if q.matches_symmetry() and q.nondegenerate:
                reports.append(agree(lambda a, b: check_quadratic(a, b, consequences=False),
                                     eval_quadratic, alg, q))
    tally(reports, "quadratic", 40)


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_rota_baxter_matches_oracle_on_dense_algebras(f):
    rng = random.Random(f"rota-baxter-{f}")
    reports = []
    for alg, _, _, ops in dense_cases(f, rng):
        n = alg.dim
        mats = ops + [Matrix.zeros(f, n, n)] + [random_matrix(rng, f, n, n) for _ in range(3)]
        for R in mats:
            reports.append(agree(check_rota_baxter, eval_rota_baxter, as_operator(R), alg))
    tally(reports, "rota-baxter", 50)


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_nijenhuis_matches_oracle_on_dense_algebras(f):
    """The moved catalog operators, zero, the identity and random matrices;
    the random ones make most reports fail."""
    rng = random.Random(f"nijenhuis-{f}")
    reports = []
    for alg, _, _, ops in dense_cases(f, rng):
        n = alg.dim
        mats = ops + [Matrix.zeros(f, n, n), Matrix.identity(f, n)]
        mats += [random_matrix(rng, f, n, n) for _ in range(8)]
        for N in mats:
            reports.append(agree(check_nijenhuis, eval_nijenhuis, as_operator(N), alg))
    tally(reports, "nijenhuis", len(reports) // 2 + 1)


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_bn_closedness_matches_oracle_on_dense_algebras(f):
    """Symmetric nondegenerate forms only, as the oracle checks neither
    precondition; N runs over scalars, the moved catalog operators and random
    matrices, which mostly fail the Nijenhuis precondition on both sides."""
    rng = random.Random(f"bn-{f}")
    reports = []
    for alg, _, forms, ops in dense_cases(f, rng):
        n = alg.dim
        mats = [m for m, sym in forms if sym == "symmetric"]
        for _ in range(2):  # integral: the oracle's quintuple loop is slow on Fractions
            A = Matrix(f, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            mats.append(A + A.transpose())
        endos = [Matrix.zeros(f, n, n), Matrix.identity(f, n).scale(f.of(2) or f.one())]
        endos += ops + [random_matrix(rng, f, n, n)]
        for B in mats:
            form = BilinearForm(alg, B)
            if not form.nondegenerate:
                continue
            for N in endos:
                reports.append(agree(lambda a, b, m: check_bn_structure(a, b, m, consequences=False),
                                     eval_bn_structure, alg, form, as_operator(N)))
    tally(reports, "bn-structure", 30)


_IMAGE_IDENTITIES = {"kupershmidt", "nijenhuis", "rota-baxter"}


def _named_violations(tree):
    """The ``Violation(...)`` calls whose identity is a string literal."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Violation" and node.args
            and isinstance(node.args[0], ast.Constant)]


def test_each_identity_family_has_one_kernel():
    """Outside oracles.py, which is a deliberate second implementation, no
    code names a Kupershmidt, Nijenhuis or Rota-Baxter violation itself:
    operators._image_violations builds them all, and its three callers pass
    the names.  No module defines the dense pairing helpers the form checks
    used before they read the structure constants."""
    found, image_names = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in ("sum_pairing", "basis_vec"):
                found.append(f"{path.name}:{node.lineno}:{node.name}")
        if path.name == "oracles.py":
            continue
        for node in _named_violations(tree):
            if node.args[0].value in _IMAGE_IDENTITIES:
                found.append(f"{path.name}:{node.lineno}:{node.args[0].value}")
        image_names |= {node.args[0].value for node in ast.walk(tree)
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "_image_violations"
                        and isinstance(node.args[0], ast.Constant)}
    assert found == []
    assert image_names == _IMAGE_IDENTITIES


_FIELD_OPS = {"normalize", "add", "sub", "mul", "neg"}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _scope_nodes(node):
    """The nodes of one scope: node's descendants outside nested functions."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, _SCOPES):
            yield from _scope_nodes(child)


def _field_op_maps(tree, inherited=frozenset()):
    """The ``map(f, ...)`` calls whose f is a ``.normalize``, ``.add``,
    ``.sub``, ``.mul`` or ``.neg`` attribute, or a name bound to one in the
    same function or an enclosing one (``add = f.add`` or ``a, m = f.add,
    f.mul``).  A name bound any other way, as by ``from operator import
    add``, is not one."""
    nodes = list(_scope_nodes(tree))
    aliases = set(inherited)
    for node in nodes:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = ([(target, node.value)] if isinstance(target, ast.Name) else
                         zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else [])
                aliases.update(name.id for name, value in pairs if isinstance(name, ast.Name)
                               and isinstance(value, ast.Attribute) and value.attr in _FIELD_OPS)
    found = [node for node in nodes
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "map" and node.args
             and (isinstance(node.args[0], ast.Attribute) and node.args[0].attr in _FIELD_OPS
                  or isinstance(node.args[0], ast.Name) and node.args[0].id in aliases)]
    for node in nodes:
        if isinstance(node, _SCOPES):
            found += _field_op_maps(node, frozenset(aliases))
    return found


_GUARD_SNIPPET = """
from operator import add
norm = f.normalize
map(norm, a); map(g.normalize, b); map(add, a, b)

def scaled(f, a, b):
    plus, times = f.add, f.mul
    def inner():
        return map(times, a, b)
    return map(plus, a, b), map(f.neg, a), map(f.sub, a, b), map(add, a, b)

def plain(a, b):
    return map(add, a, b), map(mul, a, b)
"""


def test_kernels_normalise_in_batches():
    """Outside fields.py and oracles.py no code maps ``normalize`` or a
    field's single-value ``add``, ``sub``, ``mul`` or ``neg`` over an
    accumulator: raw values are combined with plain operators and normalised
    by ``FieldSpec.normalize_all``, the batch form.  The image kernel sums
    both sides itself, with no bracket or apply call."""
    flagged = [node.lineno for node in _field_op_maps(ast.parse(_GUARD_SNIPPET))]
    assert sorted(flagged) == [4, 4, 9, 10, 10, 10]
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name not in ("fields.py", "oracles.py")
             for node in _field_op_maps(ast.parse(path.read_text()))]
    assert found == []
    tree = ast.parse((SRC / "operators.py").read_text())
    kernel = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_image_violations")
    called = {node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
              for node in ast.walk(kernel) if isinstance(node, ast.Call)}
    assert called & {"bracket", "apply"} == set()


def _per_pair_calls(tree):
    """The calls of a ``.apply``, ``.bracket`` or ``.bracket_basis`` method and
    of ``vec_add``: an identity evaluated one basis pair at a time."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Attribute)
                 and node.func.attr in ("apply", "bracket", "bracket_basis")
                 or isinstance(node.func, ast.Name) and node.func.id == "vec_add")]


def test_no_identity_is_evaluated_per_basis_pair():
    """Outside algebras.py and linalg.py, which define Matrix.apply and the
    brackets, and oracles.py, no module calls them or vec_add, which is gone:
    every identity is summed flat by the primitives of operators.py."""
    snippet = "T.apply(v); alg.bracket(x, y); g.bracket_basis(i, j); vec_add(f, a, b); f.of(v)"
    assert len(_per_pair_calls(ast.parse(snippet))) == 4
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             if path.name not in ("algebras.py", "linalg.py", "oracles.py")
             for node in _per_pair_calls(ast.parse(path.read_text()))]
    assert found == []
    assert not hasattr(leibnizkit.linalg, "vec_add")


_STRUCTURE_DATA = {"c", "_entries", "rhoL", "rhoR"}


def _structure_reads(tree):
    """The attribute reads of structure constants (``.c``, ``._entries``) or
    action data (``.rhoL``, ``.rhoR``), in source order."""
    return sorted((node for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in _STRUCTURE_DATA),
                  key=lambda node: (node.lineno, node.col_offset))


def test_search_states_no_identity():
    """search.py reads no structure constants or action data: its residues
    come from the raw sides of the check kernels, so it cannot state an
    identity a second time."""
    snippet = ("alg.c[0][1]; rep._entries(); ctx.rho1.rhoL[0]; rep.rhoR\n"
               "c = alg.dim; rep.algebra.field; ctx.rho1; m.cols; entries = m.entries\n")
    assert [node.attr for node in _structure_reads(ast.parse(snippet))] == [
        "c", "_entries", "rhoL", "rhoR"]
    tree = ast.parse((SRC / "search.py").read_text())
    assert [f"search.py:{node.lineno}:{node.attr}" for node in _structure_reads(tree)] == []
