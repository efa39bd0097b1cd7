"""Check reports: a verdict plus the exact list of failing identity instances.

Violations are canonical so independent implementations of the same identity
can be diffed tuple-for-tuple: one entry per failing basis index, vectors as
normalized raw-value tuples, sorted by (identity name, index).

Every identity of the package is a family lhs = rhs on basis tuples, and
``_sides_violations`` is its one comparer: the checks of ``algebras``,
``operators``, ``pairs``, ``forms`` and ``dgla`` hand it the two raw sides
as flat accumulators, one block per basis tuple.  The only violations built
by hand elsewhere are the route-agreement verdicts
``nk-condition-vs-composite`` and ``transfer-agreement``, and those of
``oracles``, an independent second implementation.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterable, Optional, Tuple

from .fields import FieldSpec


class Violation:
    """One failing identity instance; immutable."""

    __slots__ = ("identity", "index", "lhs", "rhs")

    def __init__(self, identity: str, index: Tuple[int, ...], lhs: Tuple, rhs: Tuple):
        self.identity = identity
        self.index = index
        self.lhs = lhs
        self.rhs = rhs

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.identity, self.index, self.lhs, self.rhs)
                == (other.identity, other.index, other.lhs, other.rhs))

    def __hash__(self):
        return hash((self.identity, self.index, self.lhs, self.rhs))

    def __repr__(self) -> str:
        return (f"Violation(identity={self.identity!r}, index={self.index!r}, "
                f"lhs={self.lhs!r}, rhs={self.rhs!r})")

    def __str__(self) -> str:
        return f"{self.identity}@{self.index}: lhs={self.lhs} rhs={self.rhs}"


def _sides_violations(name: str, f: FieldSpec, lhs, rhs, m: int, arity: int = 2) -> list:
    """The violations ``name`` of lhs = rhs over the m^arity basis tuples,
    each side normalised once (not at all when the raw sides are equal): one
    per tuple whose blocks differ, row-major, a block len(lhs) / m^arity
    values wide.  Arity 0 is the single index ()."""
    if lhs == rhs or (lhs := f.normalize_all(lhs)) == (rhs := f.normalize_all(rhs)):
        return []
    w = len(lhs) // m ** arity
    violations = []
    for at, index in enumerate(product(range(m), repeat=arity)):
        lhs_b, rhs_b = lhs[at * w:(at + 1) * w], rhs[at * w:(at + 1) * w]
        if lhs_b != rhs_b:
            violations.append(Violation(name, index, tuple(lhs_b), tuple(rhs_b)))
    return violations


class CheckReport:
    """A verdict with its sorted violations and free-form notes; unhashable,
    since ``notes`` is filled in after construction."""

    __slots__ = ("violations", "notes")

    def __init__(self, violations: Tuple[Violation, ...] = (),
                 notes: Optional[Dict[str, str]] = None):
        self.violations = violations
        self.notes = {} if notes is None else notes

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.violations, self.notes) == (other.violations, other.notes)

    __hash__ = None

    def __repr__(self) -> str:
        return f"CheckReport(violations={self.violations!r}, notes={self.notes!r})"

    @property
    def ok(self) -> bool:
        return not self.violations

    @staticmethod
    def build(violations: Iterable[Violation], notes: Dict[str, str] | None = None) -> "CheckReport":
        vs = tuple(sorted(violations, key=lambda v: (v.identity, v.index)))
        return CheckReport(vs, dict(notes or {}))

    def merged(self, other: "CheckReport") -> "CheckReport":
        notes = dict(self.notes)
        notes.update(other.notes)
        return CheckReport.build(self.violations + other.violations, notes)

    def prefixed(self, prefix: str) -> "CheckReport":
        return CheckReport.build(
            Violation(f"{prefix}:{v.identity}", v.index, v.lhs, v.rhs) for v in self.violations
        )

    def summary(self) -> str:
        if self.ok:
            return "ok"
        head = ", ".join(str(v) for v in self.violations[:4])
        more = "" if len(self.violations) <= 4 else f" (+{len(self.violations) - 4} more)"
        return f"{len(self.violations)} violation(s): {head}{more}"
