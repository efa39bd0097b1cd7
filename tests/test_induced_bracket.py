"""The checks that read the induced bracket [u,v]^T = rhoL(Tu) v + rhoR(Tv) u
-- Kupershmidt, compatible, nk-condition and Maurer-Cartan, weak and strong --
against the oracles, over F2, F3, F5 and Q; that bracket formed in one
kernel; and the sub-adjacent algebra built once per lift.

Operators are the l2 Kupershmidt cases carried into each field, their
scalings and dense random matrices; Maurer-Cartan elements on the lifted sums
are drawn at random and from the linear layer."""

import ast
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import leibnizkit
from leibnizkit import (
    LeibnizAlgebra,
    Matrix,
    RATIONALS as Q,
    Representation,
    as_operator,
    check_compatible,
    check_kupershmidt,
    check_maurer_cartan,
    check_nk_condition,
    dual_kn_from_mc,
    lifted_algebra,
    mc_from_dual_kn,
    mc_solutions_from_linear_layer,
    random_instance,
    theta_twist,
)
from leibnizkit.catalog import load_catalog
from leibnizkit.errors import DivisionByZero, LeibnizKitError
from leibnizkit.fields import prime_field
from leibnizkit.oracles import (
    eval_compatible,
    eval_kupershmidt,
    eval_maurer_cartan,
    eval_nk_condition,
)
from leibnizkit import operators
from leibnizkit.suites import _kupershmidt_cases, suite_mc_equivalence
from leibnizkit.twilled import TwilledContext

SRC = Path(leibnizkit.__file__).resolve().parent
FIELDS = (prime_field(2), prime_field(3), prime_field(5), Q)
ENDOMORPHISMS = ("N23", "N11", "N05", "NpIqE", "zero", "E01")


def scalar(rng, f):
    """A residue, or over Q a Fraction of height at most 3."""
    if f.is_prime_field:
        return rng.randrange(f.p)
    return f.normalize(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def random_matrix(rng, f, rows, cols):
    return Matrix(f, [[scalar(rng, f) for _ in range(cols)] for _ in range(rows)])


def moved(m: Matrix, f):
    """m carried into f, or None when a denominator vanishes there."""
    try:
        return Matrix(f, m.entries)
    except DivisionByZero:
        return None


def moved_rep(rep, f):
    alg = LeibnizAlgebra(f, rep.algebra.c)
    return Representation(alg, [moved(m, f) for m in rep.rhoL],
                          [moved(m, f) for m in rep.rhoR])


def agree(main, oracle, *args):
    """Equal verdicts and violation tuples, or the same error from both;
    returns the main report, or None when both sides raised."""
    try:
        report = main(*args)
    except LeibnizKitError as exc:
        with pytest.raises(type(exc)):
            oracle(*args)
        return None
    expected = oracle(*args)
    assert (report.ok, report.violations) == (expected.ok, expected.violations)
    return report


def field_cases(f, rng):
    """For each l2 representation, carried into f: (representation,
    Kupershmidt operators, dense random matrices), the Kupershmidt operators
    being the l2 cases with one scaling each and two dense random ones; and
    the l2 endomorphisms named in ENDOMORPHISMS with two dense random ones."""
    catalog = load_catalog()
    cases = {}
    for _, K, rep in _kupershmidt_cases(catalog):
        if rep not in cases:
            frep = moved_rep(rep, f)
            dense = [random_matrix(rng, f, frep.algebra.dim, frep.mdim) for _ in range(3)]
            cases[rep] = (frep, [], dense)
        Kf = moved(K.matrix, f)
        if Kf is not None:
            cases[rep][1].extend([Kf, Kf.scale(scalar(rng, f) or f.one())])
    for frep, kup, _ in cases.values():
        kup += [random_instance("kupershmidt", frep, f, seed).matrix for seed in (0, 1)]
    l2 = catalog["l2"].spec
    endos = [m for m in (moved(l2.build(n).matrix, f) for n in ENDOMORPHISMS) if m is not None]
    endos += [random_matrix(rng, f, 2, 2) for _ in range(2)]
    return cases, endos


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_induced_bracket_checks_match_oracles(f):
    rng = random.Random(f"induced-{f}")
    cases, endos = field_cases(f, rng)
    verdicts = {"kup": [], "compatible": [], "nk": []}
    for rep, kup, dense in cases.values():
        ops = kup + dense
        for K in ops:
            verdicts["kup"].append(agree(check_kupershmidt, eval_kupershmidt, as_operator(K), rep))
        for K1 in ops:
            for K2 in ops:
                verdicts["compatible"].append(
                    agree(check_compatible, eval_compatible, as_operator(K1), as_operator(K2), rep))
        for N in endos:
            for K in kup[:2] + kup[-2:] + dense[:1]:
                verdicts["nk"].append(
                    agree(check_nk_condition, eval_nk_condition, as_operator(N), as_operator(K), rep))
    for name, reports in verdicts.items():
        ran = [r for r in reports if r is not None]
        # both verdicts occur, and a quarter or more ran past the preconditions
        assert any(r.ok for r in ran) and any(not r.ok for r in ran), name
        assert len(ran) * 4 >= len(reports), name


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_maurer_cartan_matches_oracle_on_lifted_sums(f):
    rng = random.Random(f"mc-{f}")
    cases, _ = field_cases(f, rng)
    weak_ok = strong_ok = failed = 0
    for rep, kup, _ in cases.values():
        for K in kup[:2] + kup[-2:]:
            ctx = TwilledContext(lifted_algebra(as_operator(K), rep), rep.algebra.dim, rep.mdim)
            thetas = mc_solutions_from_linear_layer(ctx)[:4]
            thetas += [random_matrix(rng, f, ctx.n2, ctx.n1) for _ in range(4)]
            for theta in thetas:
                weak = agree(check_maurer_cartan, eval_maurer_cartan, ctx, theta)
                strong = agree(check_maurer_cartan, eval_maurer_cartan, ctx, theta, True)
                weak_ok += weak.ok
                strong_ok += strong.ok
                failed += not weak.ok
    assert weak_ok and strong_ok and failed


def _induced_sums(tree):
    """The ``.actL(...).col(...)`` and ``.actR(...).col(...)`` expressions: one
    term of the induced bracket written out by hand."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "col" and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Attribute)
            and node.func.value.func.attr in ("actL", "actR")]


def test_induced_bracket_is_formed_in_one_kernel():
    """Only module_bracket_tensor forms rhoL(Tu) v + rhoR(Tv) u; its kernel
    builds each action matrix once and reads columns of the stored matrices.
    oracles.py is a deliberate second implementation and is not scanned."""
    assert len(_induced_sums(ast.parse("rep.actL(x).col(j) + rep.actR(y).col(i)"))) == 2
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "oracles.py"
             for node in _induced_sums(ast.parse(path.read_text()))]
    assert found == []


@pytest.fixture
def subadjacent_builds(monkeypatch):
    """The argument tuples of every subadjacent_algebra call, under whatever
    module name the caller looks it up."""
    calls = []
    original = operators.subadjacent_algebra

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("leibnizkit.") and getattr(module, "subadjacent_algebra", None) is original:
            monkeypatch.setattr(module, "subadjacent_algebra", counted)
    return calls


def _l2():
    return load_catalog()["l2"].spec


@pytest.mark.parametrize("label, call", [
    ("lifted_algebra", lambda l2: lifted_algebra(l2.build("R"), l2.rep_for("regular"))),
    ("mc_from_dual_kn", lambda l2: mc_from_dual_kn(l2.build("kn_dual"), l2.rep_for("dual"))),
    ("dual_kn_from_mc", lambda l2: dual_kn_from_mc(
        l2.build("R"), l2.rep_for("regular"), l2.build("theta_strong").matrix)),
    ("theta_twist", lambda l2: theta_twist(
        l2.build("R"), l2.rep_for("regular"), l2.build("theta_strong").matrix)),
])
def test_one_lift_builds_the_subadjacent_algebra_once(subadjacent_builds, label, call):
    call(_l2())
    assert len(subadjacent_builds) == 1, label


def test_mc_equivalence_builds_each_subadjacent_algebra_once(subadjacent_builds):
    catalog = load_catalog()
    assert suite_mc_equivalence(catalog).ok
    assert len(subadjacent_builds) == len(_kupershmidt_cases(catalog)) == 6
