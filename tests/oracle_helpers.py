"""Shared helpers of the main-vs-oracle tests on transported instances: random
scalars and matrices over F_p and Q, the invertible basis changes that move a
catalog object to a dense basis, and the comparison of a main check with its
oracle."""

from fractions import Fraction

import pytest

from leibnizkit import Matrix
from leibnizkit.errors import DivisionByZero, LeibnizKitError


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
