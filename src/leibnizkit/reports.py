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

``_Record`` is the base of the package's plain value classes: it derives
``__eq__`` (same class and equal field tuple), ``__hash__`` (of the field
tuple) and ``__repr__`` (``Name(field=value, ...)``) from ``__slots__``, so a
subclass states its fields once, in slot order, and writes only its
``__init__``, which carries the signature, the defaults, the fresh mutable
defaults and the validation.  A mutable subclass sets ``__hash__ = None``.
The fields are the slots whose names do not start with ``_``, and they are
the ``__init__`` parameters in order; a slot named ``_x`` is a cache that
takes no part in equality, hash or repr (``SpecFile._cache``).  No record is
subclassed, so ``__slots__`` lists every field.  It lives here
because every command loads this module.  Kept out, with methods of their
own: ``FieldSpec``, which ``reports`` imports and whose ``__eq__`` is on the
hot path of every check; ``Matrix``, ``LeibnizAlgebra``, ``Cochain``,
``Representation`` (on algebra, rhoL and rhoR) and ``TwilledContext`` (on
total, n1 and n2), which compare a subset of their slots (the rest are
caches or derived) and have their own reprs; and ``LinearSolution``, whose
repr is custom.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterable, Optional, Tuple

from .fields import FieldSpec


class _Record:
    """A value class whose fields are its ``__slots__`` not named ``_x``, in
    order."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"


class Violation(_Record):
    """One failing identity instance; immutable."""

    __slots__ = ("identity", "index", "lhs", "rhs")

    def __init__(self, identity: str, index: Tuple[int, ...], lhs: Tuple, rhs: Tuple):
        self.identity = identity
        self.index = index
        self.lhs = lhs
        self.rhs = rhs

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


class CheckReport(_Record):
    """A verdict with its sorted violations and free-form notes; unhashable,
    since ``notes`` is filled in after construction."""

    __slots__ = ("violations", "notes")

    def __init__(self, violations: Tuple[Violation, ...] = (),
                 notes: Optional[Dict[str, str]] = None):
        self.violations = violations
        self.notes = {} if notes is None else notes

    __hash__ = None

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
