"""The linear layers: the linear Maurer-Cartan equations of a twilled Leibniz
algebra, and the invariant skew and closed symmetric bilinear forms of an
algebra.  They are pinned to literal values, counted against brute force
over small prime fields, and solved in one place."""

import ast
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leibnizkit
from leibnizkit import (
    RATIONALS as Q,
    Matrix,
    SearchSpec,
    as_operator,
    enumerate_operators,
    lifted_algebra,
    mc_solutions_from_linear_layer,
    prime_field,
    regular_representation,
    solve_mc_linear_layer,
)
from leibnizkit.catalog import load_catalog
from leibnizkit.errors import ShapeMismatch
from leibnizkit.forms import BilinearForm
from leibnizkit.linalg import rank
from leibnizkit.oracles import eval_bn_structure, eval_maurer_cartan, eval_quadratic
from leibnizkit.search import _linear_basis, closed_symmetric_forms, invariant_skew_forms
from leibnizkit.suites import _kupershmidt_cases
from leibnizkit.twilled import TwilledContext

from oracle_helpers import random_instance

SRC = Path(leibnizkit.__file__).resolve().parent


def _lifted(K, rep) -> TwilledContext:
    return TwilledContext(lifted_algebra(as_operator(K), rep), rep.algebra.dim, rep.mdim)


def _pinned_subjects():
    """(algebras, twilled contexts) by label: every catalog algebra and
    twilled context, the lifts of the Kupershmidt suite's cases, and seeded
    random algebras over F2, F3 and Q, with the lift of the last Kupershmidt
    operator on the regular representation of each F_p one."""
    catalog = load_catalog()
    algebras, contexts = {}, {}
    for name, entry in sorted(catalog.items()):
        for obj in entry.spec.names_of("algebra"):
            algebras[f"{name}/{obj}"] = entry.spec.build(obj)
        for obj in entry.spec.names_of("twilled"):
            contexts[f"{name}/{obj}"] = entry.spec.build(obj)
    for label, K, rep in _kupershmidt_cases(catalog):
        contexts[label] = _lifted(K, rep)
    for f, seed in product((prime_field(2), prime_field(3), Q), (0, 1)):
        label = f"random/{f}/{seed}"
        alg = algebras[label] = random_instance("leibniz", 2, f, seed)
        if f.is_prime_field:
            regular = regular_representation(alg)
            hits = enumerate_operators(SearchSpec(f, (2, 2), "kupershmidt", rep=regular))
            contexts[label] = _lifted(hits[-1], regular)
    return algebras, contexts


def _layer_values():
    """label -> (invariant skew form basis, closed symmetric form basis) for
    each algebra, and label -> (particular solution, nullspace basis,
    mc_solutions_from_linear_layer) for each context; matrices as rows."""
    algebras, contexts = _pinned_subjects()
    forms = {label: (tuple(m.entries for m in invariant_skew_forms(alg)),
                     tuple(m.entries for m in closed_symmetric_forms(alg)))
             for label, alg in algebras.items()}
    layers = {}
    for label, ctx in contexts.items():
        sol = solve_mc_linear_layer(ctx)
        layers[label] = (sol.particular, sol.nullspace,
                         tuple(m.entries for m in mc_solutions_from_linear_layer(ctx)))
    return forms, layers


# Literal values of the solvers when each built its coefficient rows by hand;
# solving from the residue polynomials must reproduce them exactly.
PINNED_FORMS = {
    "abelian1/alg": ((), (((1,),),)),
    "abelian2/alg": ((((0, -1), (1, 0)),), (((1, 0), (0, 0)), ((0, 1), (1, 0)), ((0, 0), (0, 1)))),
    "abelian2_f2/alg": ((((1, 0), (0, 0)), ((0, 1), (1, 0)), ((0, 0), (0, 1))),
                        (((1, 0), (0, 0)), ((0, 1), (1, 0)), ((0, 0), (0, 1)))),
    "abelian4/alg": ((((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
                      ((0, 0, -1, 0), (0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0)),
                      ((0, 0, 0, 0), (0, 0, -1, 0), (0, 1, 0, 0), (0, 0, 0, 0)),
                      ((0, 0, 0, -1), (0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0)),
                      ((0, 0, 0, 0), (0, 0, 0, -1), (0, 0, 0, 0), (0, 1, 0, 0)),
                      ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))),
                     (((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
                      ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
                      ((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
                      ((0, 0, 1, 0), (0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0)),
                      ((0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 0)),
                      ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0)),
                      ((0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0)),
                      ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0), (0, 1, 0, 0)),
                      ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
                      ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1)))),
    "heis3/alg": ((((0, -1, 0), (1, 0, 0), (0, 0, 0)),),
                  (((1, 0, 0), (0, 0, 0), (0, 0, 0)),
                   ((0, 1, 0), (1, 0, 0), (0, 0, 0)),
                   ((0, 0, 0), (0, 1, 0), (0, 0, 0)))),
    "l2/alg": ((), (((0, 1), (1, 0)), ((0, 0), (0, 1)))),
    "l2/lift": ((((0, 0, 0, 0), (0, 0, 0, -1), (0, 0, 0, 0), (0, 1, 0, 0)),),
                (((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
                 ((0, -1, 0, 1), (-1, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0)),
                 ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0), (0, 1, 0, 0)),
                 ((0, -1, 0, 0), (-1, 0, -1, 0), (0, -1, 0, 1), (0, 0, 1, 0)),
                 ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1)))),
    "l2_f2/alg": ((((0, 0), (0, 1)),), (((0, 1), (1, 0)), ((0, 0), (0, 1)))),
    "l2_single/alg": ((), (((0, 1), (1, 0)), ((0, 0), (0, 1)))),
    "leib3/alg": ((((0, 0, -1), (0, 0, 0), (1, 0, 0)),),
                  (((1, 0, 0), (0, 0, 0), (0, 0, 0)),
                   ((0, 0, 1), (0, 0, 0), (1, 0, 0)),
                   ((0, 0, 0), (0, 0, 1), (0, 1, 0)),
                   ((0, 0, 0), (0, 0, 0), (0, 0, 1)))),
    "n2/alg": ((), (((0, 1), (1, 0)), ((0, 0), (0, 1)))),
    "prod4/alg": ((((0, 0, 0, 0), (0, 0, 0, -1), (0, 0, 0, 0), (0, 1, 0, 0)),),
                  (((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
                   ((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
                   ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0), (0, 1, 0, 0)),
                   ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
                   ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1)))),
    "quad4/alg": ((((0, 0, -1, 0), (0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0)),),
                  (((0, 0, 1, 1), (0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0)),
                   ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
                   ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1)))),
    "sl3/alg": ((), (((0, Fraction(1, 2), 0), (Fraction(1, 2), 0, 0), (0, 0, 1)),)),
    "solv2/alg": ((), (((0, 0), (0, 1)),)),
    "sum4/alg": ((((0, 0, 0, 0), (0, 0, 0, -1), (0, 0, 0, 0), (0, 1, 0, 0)),),
                 (((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
                  ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
                  ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0), (0, 1, 0, 0)),
                  ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
                  ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1)))),
    "random/F2/0": ((((1, 0), (0, 0)),), (((1, 0), (0, 0)),)),
    "random/F2/1": ((((0, 0), (0, 1)),), (((0, 1), (1, 0)), ((0, 0), (0, 1)))),
    "random/F3/0": ((), (((2, 1), (1, 0)), ((2, 0), (0, 1)))),
    "random/F3/1": ((), (((1, 1), (1, 0)), ((2, 0), (0, 1)))),
    "random/Q/0": ((), (((0, 1), (1, 0)), ((0, 0), (0, 1)))),
    "random/Q/1": ((), (((1, 0), (0, 0)), ((0, 1), (1, 0)))),
}

PINNED_LAYERS = {
    "l2/tw_lift": ((0, 0, 0, 0),
                   ((1, 1, 0, 0),),
                   (((-1, -1), (0, 0)), ((0, 0), (0, 0)), ((1, 1), (0, 0)), ((2, 2), (0, 0)))),
    "prod4/tw": ((0, 0, 0, 0),
                 ((0, 1, 0, 0), (0, 0, 0, 1)),
                 (((0, -1), (0, 0)),
                  ((0, -1), (0, 1)),
                  ((0, 0), (0, 0)),
                  ((0, 1), (0, -1)),
                  ((0, 1), (0, 0)),
                  ((0, 2), (0, 0)))),
    "quad4/tw": ((0, 0, 0, 0),
                 ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
                 (((-1, -1), (-1, 0)),
                  ((-1, 0), (0, 0)),
                  ((-1, 0), (1, 0)),
                  ((-1, 1), (1, -1)),
                  ((-1, 1), (1, 0)),
                  ((-1, 2), (2, 0)),
                  ((0, -1), (-1, 0)),
                  ((0, 0), (0, 0)),
                  ((0, 1), (1, 0)),
                  ((0, 2), (2, 0)),
                  ((1, -1), (-1, 0)),
                  ((1, -1), (-1, 1)),
                  ((1, 0), (-1, 0)),
                  ((1, 0), (0, 0)),
                  ((1, 1), (1, 0)),
                  ((1, 2), (2, 0)),
                  ((2, -1), (-1, 0)),
                  ((2, 0), (0, 0)),
                  ((2, 1), (1, 0)),
                  ((2, 2), (2, 0)))),
    "sum4/tw": ((0, 0, 0, 0),
                ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
                (((0, -1), (0, 0)),
                 ((0, -1), (0, 1)),
                 ((0, 0), (0, 0)),
                 ((0, 1), (0, -1)),
                 ((0, 1), (0, 0)),
                 ((0, 2), (0, 0)))),
    "l2/R": ((0, 0, 0, 0),
             ((1, 1, 0, 0),),
             (((-1, -1), (0, 0)), ((0, 0), (0, 0)), ((1, 1), (0, 0)), ((2, 2), (0, 0)))),
    "l2/R2": ((0, 0, 0, 0),
              ((1, 1, 0, 0),),
              (((-1, -1), (0, 0)), ((0, 0), (0, 0)), ((1, 1), (0, 0)), ((2, 2), (0, 0)))),
    "l2/R32": ((0, 0, 0, 0),
               ((1, 1, 0, 0),),
               (((-1, -1), (0, 0)), ((0, 0), (0, 0)), ((1, 1), (0, 0)), ((2, 2), (0, 0)))),
    "l2/zero": ((0, 0, 0, 0),
                ((1, 1, 0, 0),),
                (((-1, -1), (0, 0)), ((0, 0), (0, 0)), ((1, 1), (0, 0)), ((2, 2), (0, 0)))),
    "l2/Bsharp": ((0, 0, 0, 0),
                  ((0, 1, 1, 0), (0, 0, 0, 1)),
                  (((0, -1), (-1, -1)),
                   ((0, -1), (-1, 0)),
                   ((0, -1), (-1, 1)),
                   ((0, -1), (-1, 2)),
                   ((0, 0), (0, -1)),
                   ((0, 0), (0, 0)),
                   ((0, 0), (0, 1)),
                   ((0, 0), (0, 2)),
                   ((0, 1), (1, -1)),
                   ((0, 1), (1, 0)),
                   ((0, 1), (1, 1)),
                   ((0, 1), (1, 2)),
                   ((0, 2), (2, -1)),
                   ((0, 2), (2, 0)),
                   ((0, 2), (2, 1)),
                   ((0, 2), (2, 2)))),
    "l2/NBsharp": ((0, 0, 0, 0),
                   ((0, 1, 1, 0), (0, 0, 0, 1)),
                   (((0, -1), (-1, -1)),
                    ((0, -1), (-1, 0)),
                    ((0, -1), (-1, 1)),
                    ((0, -1), (-1, 2)),
                    ((0, 0), (0, -1)),
                    ((0, 0), (0, 0)),
                    ((0, 0), (0, 1)),
                    ((0, 0), (0, 2)),
                    ((0, 1), (1, -1)),
                    ((0, 1), (1, 0)),
                    ((0, 1), (1, 1)),
                    ((0, 1), (1, 2)),
                    ((0, 2), (2, -1)),
                    ((0, 2), (2, 0)),
                    ((0, 2), (2, 1)),
                    ((0, 2), (2, 2)))),
    "random/F2/0": ((0, 0, 0, 0),
                    ((0, 0, 1, 0), (0, 0, 0, 1)),
                    (((0, 0), (1, 1)), ((0, 0), (1, 0)), ((0, 0), (0, 1)), ((0, 0), (0, 0)))),
    "random/F2/1": ((0, 0, 0, 0), ((1, 1, 0, 0),), (((1, 1), (0, 0)), ((0, 0), (0, 0)))),
    "random/F3/0": ((0, 0, 0, 0),
                    ((0, 2, 0, 1),),
                    (((0, 1), (0, 2)), ((0, 0), (0, 0)), ((0, 2), (0, 1)))),
    "random/F3/1": ((0, 0, 0, 0),
                    ((1, 0, 1, 0),),
                    (((2, 0), (2, 0)), ((0, 0), (0, 0)), ((1, 0), (1, 0)))),
}


def test_linear_layers_match_pinned_values():
    forms, layers = _layer_values()
    assert forms == PINNED_FORMS
    assert layers == PINNED_LAYERS


def _assert_spans_solutions(f, basis, holds, space):
    """The basis is independent, each of its members satisfies ``holds``, and
    its span is as large as the set of solutions in ``space``."""
    if basis:
        flat = [[v for row in m.entries for v in row] for m in basis]
        assert rank(Matrix(f, flat)) == len(basis)
    assert all(holds(m) for m in basis)
    assert f.p ** len(basis) == sum(map(holds, space))


def _without(report, identity: str) -> bool:
    return all(v.identity != identity for v in report.violations)


@settings(max_examples=10, deadline=None)
@given(p=st.sampled_from((2, 3)), n=st.integers(1, 2), seed=st.integers(0, 10 ** 6))
def test_linear_layers_match_brute_force(p, n, seed):
    """Each solver's basis spans exactly the solutions an independent oracle
    accepts among all n x n matrices over F_p."""
    f = prime_field(p)
    alg = random_instance("leibniz", n, f, seed)
    space = [Matrix(f, [flat[r * n:(r + 1) * n] for r in range(n)])
             for flat in product(range(p), repeat=n * n)]
    zero = Matrix.zeros(f, n, n)

    def skew_invariant(b):
        return b.transpose() == -b and eval_quadratic(alg, BilinearForm(alg, b, "skew")).ok

    def closed_symmetric(b):
        report = eval_bn_structure(alg, BilinearForm(alg, b), zero)
        return b == b.transpose() and _without(report, "bn-closed")

    _assert_spans_solutions(f, invariant_skew_forms(alg), skew_invariant, space)
    _assert_spans_solutions(f, closed_symmetric_forms(alg), closed_symmetric, space)

    regular = regular_representation(alg)
    hits = enumerate_operators(SearchSpec(f, (n, n), "kupershmidt", rep=regular))
    for K in {hits[0], hits[len(hits) // 2], hits[-1]}:
        ctx = _lifted(K, regular)
        sol = solve_mc_linear_layer(ctx)
        assert sol.particular == (0,) * (n * n)
        basis = [Matrix(f, [vec[r * n:(r + 1) * n] for r in range(n)]) for vec in sol.nullspace]
        _assert_spans_solutions(
            f, basis,
            lambda theta: _without(eval_maurer_cartan(ctx, theta, strong=True),
                                   "maurer-cartan-linear"),
            space)


def test_linear_basis_reads_degree_one_coefficients():
    F2 = prime_field(2)
    # x0 + x1 = 0 over F2; the quadratic term vanishes mod 2
    assert _linear_basis(F2, [{(0,): 1, (1,): 1, (0, 1): 2}], 2).nullspace == ((1, 1),)
    assert _linear_basis(Q, [{(0,): 2, (1,): -1}], 2).nullspace == ((Fraction(1, 2), 1),)
    empty = _linear_basis(Q, [], 2)
    assert (empty.particular, empty.nullspace) == ((0, 0), ((1, 0), (0, 1)))


@pytest.mark.parametrize("residue", [{(0,): 1, (): 1}, {(0,): 1, (0, 1): 3}, {(1, 1): -1}])
def test_linear_basis_refuses_a_nonlinear_residue(residue):
    with pytest.raises(ShapeMismatch, match="in a linear layer"):
        _linear_basis(Q, [residue], 2)


def test_search_solves_linear_systems_in_one_place():
    """Every linear layer in search.py goes through _linear_basis, the one
    caller of solve_linear."""
    tree = ast.parse((SRC / "search.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "solve_linear"]
    assert len(calls) == 1
    basis_fn = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_linear_basis")
    assert calls[0] in list(ast.walk(basis_fn))
