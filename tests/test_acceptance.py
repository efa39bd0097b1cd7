"""Acceptance gate: the eight release criteria, each timed against its
budget and reported with one pass/fail line.  All arithmetic is exact, so
every comparison is exact equality."""

import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from leibnizkit import (
    Cochain,
    LeibnizAlgebra,
    Matrix,
    RATIONALS as Q,
    SearchSpec,
    Tensor2,
    as_operator,
    balavoine_bracket,
    check_kupershmidt,
    check_leibniz,
    check_maurer_cartan,
    check_nijenhuis,
    check_rbn_structure,
    check_rota_baxter,
    coboundary,
    dual_representation,
    enumerate_operators,
    lifted_algebra,
    mc_solutions_from_linear_layer,
    oracle_eval,
    prime_field,
    regular_representation,
)
from leibnizkit.catalog import catalog_algebras, load_catalog
from leibnizkit.dgla import mc_cochain_defects
from leibnizkit.forms import BilinearForm, check_quadratic
from leibnizkit.oracles import (
    eval_kupershmidt,
    eval_leibniz,
    eval_nijenhuis,
    eval_rota_baxter,
)
from leibnizkit.pairs import make_pair
from leibnizkit.suites import run_suites
from leibnizkit.twilled import TwilledContext

from conftest import nij_matrix, rb_matrix

CATALOG_DIR = Path(__file__).resolve().parent.parent / "src" / "leibnizkit" / "catalog"


def report(number, label, started, budget):
    elapsed = time.time() - started
    print(f"\n[acceptance] criterion {number} ({label}): PASS in {elapsed:.2f}s "
          f"(budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_example_reproduction(l2, l2_single):
    started = time.time()
    a_values = (1, 2, Fraction(-3, 2))
    b_values = ((2, 3), (1, 1), (0, 5))
    for a in a_values:
        for b in b_values:
            R = as_operator(rb_matrix(a))
            N = as_operator(nij_matrix(*b))
            assert check_rota_baxter(R, l2).ok
            assert check_nijenhuis(N, l2).ok
            assert check_rbn_structure(l2, R, N).ok
    assert not check_rota_baxter(as_operator(rb_matrix(1)), l2_single).ok
    report(1, "example reproduction, nine parameter combinations", started, 1.0)


def test_criterion_2_leibniz_balavoine_equivalence():
    started = time.time()
    algebras = catalog_algebras()
    assert len(algebras) >= 10
    dims = {alg.dim for _, _, alg in algebras}
    assert dims == {1, 2, 3, 4}
    rng = random.Random(2024)
    checked = 0
    for entry, obj, alg in algebras:
        f = alg.field
        variants = [alg]
        for _ in range(20):
            c = [[[v for v in vec] for vec in row] for row in alg.c]
            i, j, k = (rng.randrange(alg.dim) for _ in range(3))
            c[i][j][k] = f.add(c[i][j][k], f.of(rng.choice((1, -1))))
            variants.append(LeibnizAlgebra(f, c))
        for variant in variants:
            is_leibniz = check_leibniz(variant).ok
            mu = Cochain.from_algebra(variant)
            assert balavoine_bracket(mu, mu).is_zero() == is_leibniz
            checked += 1
            if is_leibniz:
                phi = Cochain(
                    variant.field, variant.dim, 1,
                    [tuple(rng.randint(-1, 1) for _ in range(variant.dim))
                     for _ in range(variant.dim)],
                )
                assert coboundary(mu, coboundary(mu, phi)).is_zero()
    assert checked >= 10 * 21
    report(2, f"bracket-square equivalence on {checked} instances", started, 30.0)


def test_criterion_3_graded_lie_axioms():
    started = time.time()
    samples = [
        LeibnizAlgebra.abelian(Q, 1),
        LeibnizAlgebra.from_brackets(Q, 2, {(1, 1): [1, 0]}),
        LeibnizAlgebra.from_brackets(Q, 2, {(1, 0): [1, 0], (1, 1): [1, 0]}),
        LeibnizAlgebra.from_brackets(Q, 3, {(0, 1): [0, 0, 1], (1, 0): [0, 0, -1]}),
        LeibnizAlgebra.from_brackets(Q, 3, {
            (0, 1): [0, 0, 1], (1, 0): [0, 0, -1],
            (2, 0): [2, 0, 0], (0, 2): [-2, 0, 0],
            (2, 1): [0, -2, 0], (1, 2): [0, 2, 0],
        }),
    ]
    rng = random.Random(515)
    for alg in samples:
        dim = alg.dim
        cochains = {}
        for degree in range(3):
            arity = degree + 1
            cochains[degree] = Cochain(
                Q, dim, arity,
                [tuple(rng.randint(-2, 2) for _ in range(dim))
                 for _ in range(dim ** arity)],
            )
        for m in range(3):
            for n in range(3):
                lhs = balavoine_bracket(cochains[m], cochains[n])
                sign = -1 if (m * n) % 2 == 0 else 1
                assert lhs == balavoine_bracket(cochains[n], cochains[m]).scale(sign)
        inner = {
            (n, p): balavoine_bracket(cochains[n], cochains[p])
            for n in range(3) for p in range(3)
        }
        for m in range(3):
            for n in range(3):
                for p in range(3):
                    t1 = balavoine_bracket(cochains[m], inner[(n, p)]).scale((-1) ** (m * p))
                    t2 = balavoine_bracket(cochains[n], inner[(p, m)]).scale((-1) ** (n * m))
                    t3 = balavoine_bracket(cochains[p], inner[(m, n)]).scale((-1) ** (p * n))
                    assert (t1 + t2 + t3).is_zero(), (alg.dim, m, n, p)
    report(3, "graded antisymmetry and Jacobi, 5 algebras x 27 degree triples",
           started, 120.0)


def test_criterion_4_maurer_cartan_agreement(l2, l2_regular, l2_dual):
    started = time.time()
    f = Q
    contexts = []
    for K in (rb_matrix(1), rb_matrix(2), rb_matrix(Fraction(-3, 2)), Matrix.zeros(Q, 2, 2)):
        lift = lifted_algebra(as_operator(K), l2_regular)
        contexts.append(("regular/" + str(K.entries), TwilledContext(lift, 2, 2)))
    for K in (Matrix(Q, [[-1, 1], [1, 0]]), Matrix(Q, [[1, 0], [0, 0]])):
        lift = lifted_algebra(as_operator(K), l2_dual)
        contexts.append(("dual/" + str(K.entries), TwilledContext(lift, 2, 2)))
    assert len(contexts) >= 5
    rng = random.Random(4096)
    for label, ctx in contexts:
        z = Matrix.zeros(Q, ctx.n2, ctx.n1)
        assert check_maurer_cartan(ctx, z, strong=True).ok
        solutions = mc_solutions_from_linear_layer(ctx)
        assert solutions
        for theta in solutions:
            weak = check_maurer_cartan(ctx, theta).ok
            strong = check_maurer_cartan(ctx, theta, strong=True).ok
            assert weak
            d, q = mc_cochain_defects(ctx, theta)
            assert (d + q).is_zero() == weak
            assert (d.is_zero() and q.is_zero()) == strong
        rejected = 0
        while rejected < 50:
            theta = Matrix(Q, [[rng.randint(-3, 3) for _ in range(ctx.n1)]
                               for _ in range(ctx.n2)])
            if check_maurer_cartan(ctx, theta).ok:
                continue
            rejected += 1
            d, q = mc_cochain_defects(ctx, theta)
            assert not (d + q).is_zero()
            assert not (d.is_zero() and q.is_zero())
    report(4, f"Maurer-Cartan route agreement on {len(contexts)} contexts", started, 60.0)


def test_criterion_5_theorem_suites():
    started = time.time()
    catalog = load_catalog()
    results = run_suites(catalog)
    failures = [f"{r.name}: {r.failures[:3]}" for r in results if not r.ok]
    assert not failures, failures
    assert sum(r.passed for r in results) >= 400
    names = {r.name for r in results}
    # the biconditional suites with reverse-direction instances must be present
    assert {"pair-dualization", "nk-composition", "quadratic-transfer"} <= names
    report(5, f"{len(results)} theorem suites, {sum(r.passed for r in results)} checks",
           started, 300.0)


def test_criterion_6_enumeration_ground_truth():
    started = time.time()
    F2 = prime_field(2)
    l2f2 = LeibnizAlgebra.from_brackets(F2, 2, {(1, 0): [1, 0], (1, 1): [1, 0]})
    found = enumerate_operators(SearchSpec(F2, (2, 2), "nijenhuis", algebra=l2f2))
    assert len(found) == 6
    naive = [
        Matrix(F2, [[b >> 3 & 1, b >> 2 & 1], [b >> 1 & 1, b & 1]])
        for b in range(16)
    ]
    naive_hits = [m for m in naive if eval_nijenhuis(m, l2f2).ok]
    assert len(naive_hits) == 6
    assert sorted(m.entries for m in naive_hits) == sorted(m.entries for m in found)
    abelian = LeibnizAlgebra.abelian(F2, 2)
    rb = enumerate_operators(SearchSpec(F2, (2, 2), "rota_baxter", algebra=abelian))
    assert len(rb) == 16
    assert sum(eval_rota_baxter(m, abelian).ok for m in naive) == 16
    report(6, "finite-field enumeration ground truth", started, 1.0)


def test_criterion_7_dual_path_consistency(l2, l2_regular, l2_dual):
    started = time.time()
    from leibnizkit.forms import check_ybe as main_ybe
    from leibnizkit.operators import (
        check_kupershmidt as main_kup,
        check_nijenhuis as main_nij,
        check_rota_baxter as main_rb,
    )
    from leibnizkit.algebras import check_representation as main_rep
    from leibnizkit.pairs import check_dual_nijenhuis_pair, check_nijenhuis_pair

    rng = random.Random(500)
    algebras = [alg for _, _, alg in catalog_algebras() if alg.field == Q]
    corpus = []

    def randmat(n, h=2):
        return Matrix(Q, [[rng.randint(-h, h) for _ in range(n)] for _ in range(n)])

    for alg in algebras:
        n = alg.dim
        reg = regular_representation(alg)
        dual = dual_representation(reg)
        for _ in range(6):
            c = [[[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
                 for _ in range(n)]
            corpus.append(("leibniz", {"algebra": LeibnizAlgebra(Q, c)}))
        for _ in range(6):
            corpus.append(("nijenhuis", {"N": randmat(n), "algebra": alg}))
            corpus.append(("rota-baxter", {"R": randmat(n), "algebra": alg}))
            corpus.append(("kupershmidt", {"K": randmat(n), "rep": reg}))
            corpus.append(("kupershmidt", {"K": randmat(n), "rep": dual}))
            corpus.append(("ybe", {"algebra": alg, "pi": Tensor2(alg, randmat(n, 1))}))
        for _ in range(3):
            corpus.append(("nijenhuis-pair",
                           {"pair": make_pair(randmat(n), randmat(n)), "rep": reg}))
            corpus.append(("dual-nijenhuis-pair",
                           {"pair": make_pair(randmat(n), randmat(n)), "rep": dual}))
    # structured Maurer-Cartan instances
    ctx = TwilledContext(lifted_algebra(as_operator(rb_matrix(1)), l2_regular), 2, 2)
    for _ in range(30):
        corpus.append(("maurer-cartan-strong", {"ctx": ctx, "theta": randmat(2)}))
    assert len(corpus) >= 500

    dispatch = {
        "leibniz": lambda b: check_leibniz(b["algebra"]),
        "nijenhuis": lambda b: main_nij(as_operator(b["N"]), b["algebra"]),
        "rota-baxter": lambda b: main_rb(as_operator(b["R"]), b["algebra"]),
        "kupershmidt": lambda b: main_kup(as_operator(b["K"]), b["rep"]),
        "ybe": lambda b: main_ybe(b["algebra"], b["pi"]),
        "nijenhuis-pair": lambda b: check_nijenhuis_pair(b["pair"], b["rep"]),
        "dual-nijenhuis-pair": lambda b: check_dual_nijenhuis_pair(b["pair"], b["rep"]),
        "maurer-cartan-strong": lambda b: check_maurer_cartan(
            b["ctx"], b["theta"], strong=True),
    }
    for identity, bindings in corpus:
        main = dispatch[identity](bindings)
        naive = oracle_eval(identity, bindings)
        assert main.ok == naive.ok, identity
        assert main.violations == naive.violations, identity
    report(7, f"dual-path agreement on {len(corpus)} instances", started, 120.0)


def test_criterion_8_cli_contract(tmp_path):
    started = time.time()

    def run_cli(*args):
        return subprocess.run([sys.executable, "-m", "leibnizkit", *args],
                              capture_output=True, text=True)

    from leibnizkit.io import parse_spec, serialize_spec
    from leibnizkit.catalog import catalog_names

    # parse/serialize round trip, byte stable, on every bundled file
    for name in catalog_names():
        text = (CATALOG_DIR / f"{name}.json").read_text("utf-8")
        assert serialize_spec(parse_spec(text)) == text
    # exit code 0
    assert run_cli("check", str(CATALOG_DIR / "l2.json"), "alg", "leibniz").returncode == 0
    # exit code 1 on a mathematical failure
    assert run_cli("check", str(CATALOG_DIR / "l2_single.json"), "R",
                   "rota-baxter").returncode == 1
    # exit code 2 on input errors
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("check", str(bad), "alg", "leibniz").returncode == 2
    assert run_cli("check", str(CATALOG_DIR / "l2.json"), "alg",
                   "frobnicate").returncode == 2
    # deterministic search: two runs print the same bytes
    args = ("search", str(CATALOG_DIR / "l2.json"), "--predicate", "nijenhuis",
            "--field", "F2")
    out1, out2 = run_cli(*args), run_cli(*args)
    assert out1.returncode == out2.returncode == 0
    assert out1.stdout == out2.stdout
    report(8, "CLI contract (round-trip, exit codes, determinism)", started, 60.0)
