"""Shared helpers of the main-vs-oracle tests on transported instances: random
scalars and matrices over F_p and Q, the invertible basis changes that move a
catalog object to a dense basis, the comparison of a main check with its
oracle, and ``random_instance``, the seeded generator of random Leibniz
algebras and of random operators that pass a search predicate's check."""

from fractions import Fraction
from random import Random

import pytest

from leibnizkit import LeibnizAlgebra, Matrix, Representation, as_operator, check_leibniz
from leibnizkit.errors import (DivisionByZero, LeibnizKitError, NotFound, ShapeMismatch,
                               UnknownIdentity)
from leibnizkit.fields import FieldSpec
from leibnizkit.search import PREDICATES


def scalar(rng, f):
    """A residue, or over Q a Fraction of height at most 3."""
    if f.is_prime_field:
        return rng.randrange(f.p)
    return f.normalize(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def random_matrix(rng, f, rows, cols):
    return Matrix(f, [[scalar(rng, f) for _ in range(cols)] for _ in range(rows)])


def invertible(rng, f, n):
    """L U with L lower and U upper unitriangular and small integer entries:
    dense, of determinant 1, and over Q with an integral inverse, so that the
    moved structure constants stay small."""
    L = Matrix(f, [[rng.randint(-2, 2) if j < i else int(i == j) for j in range(n)]
                   for i in range(n)])
    U = Matrix(f, [[rng.randint(-2, 2) if j > i else int(i == j) for j in range(n)]
                   for i in range(n)])
    return L * U


def moved(m: Matrix, f):
    """m carried into f, or None when a denominator vanishes there."""
    try:
        return Matrix(f, m.entries)
    except DivisionByZero:
        return None


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


def tally(reports, name, least_failing):
    """Both verdicts occur among the reports that ran, and at least
    ``least_failing`` of them fail."""
    ran = [r for r in reports if r is not None]
    failing = sum(not r.ok for r in ran)
    assert any(r.ok for r in ran) and failing >= least_failing, (name, len(ran), failing)


# The ``dims`` random_instance takes for a one-block predicate, by what it needs.
_DIMS = {"algebra": (LeibnizAlgebra, "pass the algebra as `dims` for operator kinds"),
         "rep": (Representation, "pass the representation as `dims`")}


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
    row = PREDICATES.get(kind)
    if row is None or len(row.blocks) > 1 or row.needs not in _DIMS:
        raise UnknownIdentity(f"unknown instance kind {kind!r}")
    cls, message = _DIMS[row.needs]
    if not isinstance(dims, cls):
        raise ShapeMismatch(message)
    rows, cols = row.blocks[0][1](dims)
    for _ in range(attempts):
        op = as_operator(Matrix(f, [[rand_scalar() for _ in range(cols)] for _ in range(rows)]))
        if row.check(op, dims).ok:
            return op
    raise NotFound(f"no {kind} operator found in {attempts} attempts")
