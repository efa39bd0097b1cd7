"""The sparse structure-constant kernels -- ``LeibnizAlgebra.bracket``,
``twisted_tensor`` and the Leibniz, Nijenhuis and Rota-Baxter checks built on
them -- against the oracles and against dense formulas written here, on
random inputs over F2, F3, F5 and Q."""

import random
from fractions import Fraction

from leibnizkit import (
    LeibnizAlgebra,
    Matrix,
    RATIONALS as Q,
    as_operator,
    check_leibniz,
    check_nijenhuis,
    check_rota_baxter,
)
from leibnizkit.catalog import load_catalog
from leibnizkit.errors import DivisionByZero, NotFound
from leibnizkit.fields import prime_field
from leibnizkit.operators import twisted_tensor
from leibnizkit.oracles import eval_leibniz, eval_nijenhuis, eval_rota_baxter
from leibnizkit.search import random_instance

FIELDS = (prime_field(2), prime_field(3), prime_field(5), Q)


def same(a, b):
    assert (a.ok, a.violations) == (b.ok, b.violations)


def scalar(rng, f):
    """A residue, or over Q a Fraction of height at most 3."""
    if f.is_prime_field:
        return rng.randrange(f.p)
    return f.normalize(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def random_tensor(rng, f, n, density):
    return [[[scalar(rng, f) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(n)] for _ in range(n)]


def random_matrix(rng, f, n):
    return Matrix(f, [[scalar(rng, f) for _ in range(n)] for _ in range(n)])


def catalog_algebras(f, dims=(3, 4)):
    """The catalog's algebras of the given dimensions, carried into f, kept
    when they are still Leibniz there."""
    out = []
    for entry in load_catalog().values():
        for name in entry.spec.names_of("algebra"):
            alg = entry.spec.build(name)
            if alg.dim not in dims:
                continue
            try:
                moved = LeibnizAlgebra(f, alg.c)
            except DivisionByZero:
                continue
            if moved.is_leibniz:
                out.append(moved)
    return out


def random_algebra(f, n, seed):
    """The first Leibniz tensor ``random_instance`` finds from this seed on:
    the sampler can run out of attempts for one seed at dim 2."""
    while True:
        try:
            return random_instance("leibniz", n, f, seed)
        except NotFound:
            seed += 100


def dense_bracket(f, c, x, y):
    """[x, y] from every structure constant, the inputs normalized first."""
    n = len(c)
    x, y = [f.normalize(v) for v in x], [f.normalize(v) for v in y]
    return tuple(f.normalize(sum(c[i][j][k] * x[i] * y[j] for i in range(n) for j in range(n)))
                 for k in range(n))


def test_check_leibniz_matches_oracle_on_random_tensors():
    rng = random.Random(20)
    rejected = 0
    for f in FIELDS:
        algs = catalog_algebras(f)
        for n in (1, 2, 3, 3, 4):
            for density in (0.2, 0.5, 1.0):
                algs.append(LeibnizAlgebra(f, random_tensor(rng, f, n, density)))
        for alg in algs:
            report = check_leibniz(alg)
            same(report, eval_leibniz(alg))
            rejected += not report.ok
    assert rejected >= 30


def test_operator_checks_match_oracles_with_dense_operators():
    rng = random.Random(21)
    hits = checked = 0
    for f in FIELDS:
        algs = catalog_algebras(f)
        algs += [random_algebra(f, n, seed) for n in (1, 2) for seed in (0, 1)]
        for alg in algs:
            for _ in range(3):
                for check, oracle in ((check_nijenhuis, eval_nijenhuis),
                                      (check_rota_baxter, eval_rota_baxter)):
                    M = random_matrix(rng, f, alg.dim)
                    report = check(as_operator(M), alg)
                    same(report, oracle(M, alg))
                    hits += report.ok
                    checked += 1
    assert hits < checked // 2  # mostly non-hits: the violations' lhs/rhs are compared


def test_bracket_on_unnormalized_inputs_matches_dense_formula():
    rng = random.Random(22)
    for f in FIELDS:
        for n in (1, 2, 3, 4):
            c = random_tensor(rng, f, n, 0.5)
            alg = LeibnizAlgebra(f, c)
            for _ in range(10):
                # negative and oversized ints, and Fractions with denominators prime to p
                x = [rng.randint(-12, 12) for _ in range(n)]
                y = [Fraction(rng.randint(-9, 9), rng.choice((1, 7, 11, 13))) for _ in range(n)]
                assert alg.bracket(x, y) == dense_bracket(f, alg.c, x, y)
                assert alg.bracket(y, x) == dense_bracket(f, alg.c, y, x)


def test_twisted_tensor_matches_dense_formula():
    """B_T(x, y) = B(Tx, y) + B(x, Ty) - T B(x, y) on basis pairs, for any
    tensor B (not only a Leibniz bracket) and any T."""
    rng = random.Random(23)
    for f in FIELDS:
        for n in (1, 2, 3, 4):
            c = LeibnizAlgebra(f, random_tensor(rng, f, n, 0.5)).c
            T = random_matrix(rng, f, n)
            twisted = twisted_tensor(c, T, f)
            for i in range(n):
                for j in range(n):
                    ei = [1 if t == i else 0 for t in range(n)]
                    ej = [1 if t == j else 0 for t in range(n)]
                    terms = (dense_bracket(f, c, T.col(i), ej), dense_bracket(f, c, ei, T.col(j)),
                             [-v for v in T.apply(c[i][j])])
                    assert twisted[i][j] == tuple(f.normalize(sum(t)) for t in zip(*terms))
