"""The one comparer of raw identity sides, ``reports._sides_violations``:
its index over basis tuples, its block widths, its normalisation, and that
no other module builds a violation of an identity on basis tuples."""

import ast
from fractions import Fraction
from itertools import product
from pathlib import Path

import leibnizkit.forms
import leibnizkit.pairs
from leibnizkit import (
    LeibnizAlgebra,
    Matrix,
    RATIONALS as Q,
    Representation,
    Violation,
    check_nijenhuis_pair,
    check_representation,
    make_pair,
    prime_field,
)
from leibnizkit.reports import _sides_violations

SRC = Path(leibnizkit.__file__).resolve().parent
F5 = prime_field(5)


def test_arity_zero_is_one_index():
    assert _sides_violations("x", Q, [1, 2], [1, 2], 4, 0) == []
    assert _sides_violations("x", Q, [1, 2], [1, 3], 4, 0) == [Violation("x", (), (1, 2), (1, 3))]


def test_arity_one_blocks():
    lhs, rhs = [0, 1, 2, 3, 4, 5], [0, 1, 2, 9, 4, 5]
    assert _sides_violations("x", Q, lhs, rhs, 3, 1) == [Violation("x", (1,), (2, 3), (2, 9))]


def test_arity_two_is_row_major():
    lhs, rhs = [0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 2, 0, 0]
    assert _sides_violations("x", Q, lhs, rhs, 2) == [
        Violation("x", (0, 1), (0, 0), (1, 0)), Violation("x", (1, 0), (0, 0), (0, 2))]


def test_arity_three_is_row_major():
    lhs = list(range(27))
    rhs = [v + (v % 4 == 1) for v in lhs]
    violations = _sides_violations("x", Q, lhs, rhs, 3, 3)
    expected = [t for at, t in enumerate(product(range(3), repeat=3)) if at % 4 == 1]
    assert [v.index for v in violations] == expected
    assert all(len(v.lhs) == len(v.rhs) == 1 for v in violations)
    assert violations[0] == Violation("x", (0, 0, 1), (1,), (2,))


def test_blocks_of_width_zero():
    assert _sides_violations("x", Q, [], (), 3) == []
    assert _sides_violations("x", Q, [], [], 3, 3) == []
    alg = LeibnizAlgebra.from_brackets(Q, 2, {(1, 0): [1, 0], (1, 1): [1, 0]})
    rep = Representation.zero(alg, 0)
    assert check_representation(rep).ok
    pair = make_pair(Matrix.identity(Q, 2), Matrix.zeros(Q, 0, 0))
    assert check_nijenhuis_pair(pair, rep).ok


def test_sides_are_compared_normalised():
    assert _sides_violations("x", F5, [7, 5], [2, 0], 2, 1) == []
    assert _sides_violations("x", Q, [Fraction(4, 2)], [2], 1, 1) == []
    assert _sides_violations("x", F5, [7, 6], [2, 0], 2, 1) == [Violation("x", (1,), (1,), (0,))]


class _CountingField:
    """A field stand-in that counts its ``normalize_all`` calls."""

    def __init__(self):
        self.calls = 0

    def normalize_all(self, values):
        self.calls += 1
        return [v % 5 for v in values]


def test_equal_raw_sides_are_not_normalised():
    f = _CountingField()
    assert _sides_violations("x", f, [1, 2, 3, 4], [1, 2, 3, 4], 2) == []
    assert f.calls == 0
    assert _sides_violations("x", f, [1, 2, 3, 4], [1, 2, 3, 9], 2) == []
    assert f.calls == 2
    assert _sides_violations("x", f, [1, 2, 3, 4], [1, 2, 3, 8], 2) == [
        Violation("x", (1, 1), (4,), (3,))]
    assert f.calls == 4


# The identities a module other than reports.py may name in a violation it
# builds itself: verdicts that compare two routes, not sides on basis tuples.
_OWN_VIOLATIONS = {"nk-condition-vs-composite", "transfer-agreement"}


def _foreign_violations(tree):
    """The lines of the ``Violation(...)`` calls whose identity is not a
    string literal in ``_OWN_VIOLATIONS``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and (isinstance(node.func, ast.Name) and node.func.id == "Violation"
                       or isinstance(node.func, ast.Attribute) and node.func.attr == "Violation")
                  and not (node.args and isinstance(node.args[0], ast.Constant)
                           and node.args[0].value in _OWN_VIOLATIONS))


_GUARD_SNIPPET = """
Violation("nk-condition-vs-composite", (), a, b)
Violation(f"{tag}-commute", (), a, b)
reports.Violation("leibniz", (0,), a, b)
Violation(name, index, a, b)
Violation("transfer-agreement", (), a, b)
violations.append(Violation(identity="leibniz", index=(), lhs=a, rhs=b))
"""


def test_only_the_comparer_builds_violations():
    """Outside reports.py, which holds the comparer, and oracles.py, a
    deliberate second implementation, every violation of an identity on
    basis tuples comes from ``_sides_violations``."""
    assert _foreign_violations(ast.parse(_GUARD_SNIPPET)) == [3, 4, 5, 7]
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name not in ("reports.py", "oracles.py")
             for line in _foreign_violations(ast.parse(path.read_text()))]
    assert found == []
    assert not hasattr(leibnizkit.forms, "_triple_violations")
    assert not hasattr(leibnizkit.pairs, "_block_violations")
