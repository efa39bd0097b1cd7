"""The value classes state their fields once: ``reports._Record`` derives
``__eq__``, ``__hash__`` and ``__repr__`` from ``__slots__``, and only the
classes listed here write such methods themselves."""

import ast
import importlib
from pathlib import Path

import leibnizkit
from leibnizkit.io import SpecFile
from leibnizkit.reports import _Record

SRC = Path(leibnizkit.__file__).resolve().parent
DUNDERS = {"__eq__", "__hash__", "__repr__", "__str__"}

# class -> the methods of DUNDERS it writes itself
OWN_METHODS = {
    "_Record": {"__eq__", "__hash__", "__repr__"},
    # imported by ``reports``, and its ``__eq__`` is on the hot path of every check
    "FieldSpec": {"__eq__", "__hash__", "__repr__", "__str__"},
    # compare a subset of their slots and have their own reprs
    "Matrix": {"__eq__", "__hash__", "__repr__"},
    "LeibnizAlgebra": {"__eq__", "__hash__", "__repr__"},
    "Cochain": {"__eq__", "__hash__", "__repr__"},
    "Representation": {"__eq__", "__hash__", "__repr__"},
    "TwilledContext": {"__eq__", "__hash__", "__repr__"},
    # custom reprs
    "LinearSolution": {"__repr__"},
    # the one-line form used in report summaries
    "Violation": {"__str__"},
}

RECORDS = {
    "BilinearForm", "CatalogEntry", "CheckReport", "DeformationTriple", "KNStructure",
    "LinearOperator", "OperatorPair", "SearchSpec", "SpecFile", "SuiteResult", "Tensor2",
    "Violation",
}
# the records whose fields change after construction
UNHASHABLE = {"CatalogEntry", "CheckReport", "DeformationTriple", "SpecFile", "SuiteResult"}


def _classes():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                yield node


def _sets_hash_none(node) -> bool:
    return (isinstance(node, ast.Assign) and len(node.targets) == 1
            and getattr(node.targets[0], "id", None) == "__hash__"
            and isinstance(node.value, ast.Constant) and node.value.value is None)


def _own_methods(cls: ast.ClassDef) -> set:
    """The DUNDERS the class body defines; ``__hash__ = None`` (unhashable)
    does not count."""
    own = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name in DUNDERS:
            own.add(node.name)
        elif isinstance(node, ast.Assign) and not _sets_hash_none(node):
            own.update(t.id for t in node.targets
                       if isinstance(t, ast.Name) and t.id in DUNDERS)
    return own


def _base_names(cls: ast.ClassDef) -> set:
    return {base.id for base in cls.bases if isinstance(base, ast.Name)}


def _records() -> list:
    return [cls for cls in _classes() if "_Record" in _base_names(cls)]


def test_only_the_listed_classes_write_eq_hash_repr_or_str():
    own = {cls.name: methods for cls in _classes() if (methods := _own_methods(cls))}
    assert own == OWN_METHODS


def test_record_slots_are_the_init_parameters_in_order():
    """A record's fields are its slots not named ``_x``, and they are its
    ``__init__`` parameters in order; the one slot named ``_x`` is the build
    cache of ``SpecFile``, no parameter and no field."""
    records = _records()
    assert {cls.name for cls in records} == RECORDS
    caches = {}
    for cls in records:
        slots = next(node.value for node in cls.body if isinstance(node, ast.Assign)
                     and [t.id for t in node.targets] == ["__slots__"])
        init = next(node for node in cls.body
                    if isinstance(node, ast.FunctionDef) and node.name == "__init__")
        params = [a.arg for a in init.args.args[1:] + init.args.kwonlyargs]
        fields = [name for name in ast.literal_eval(slots) if not name.startswith("_")]
        assert fields == params, cls.name
        caches.update((name, cls.name) for name in ast.literal_eval(slots) if name[0] == "_")
    assert caches == {"_cache": "SpecFile"}
    assert SpecFile._fields == ("fieldspec", "raw", "expected")


def test_exactly_the_mutable_records_declare_themselves_unhashable():
    assert {cls.name for cls in _records() if any(map(_sets_hash_none, cls.body))} == UNHASHABLE


def test_no_record_is_subclassed():
    """A record's ``__slots__`` is its whole field list, so no class derives
    from a record."""
    assert not any(_base_names(cls) & RECORDS for cls in _classes())
    for path in sorted(SRC.glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            importlib.import_module(f"leibnizkit.{path.stem}")
    subclasses = _Record.__subclasses__()
    assert {cls.__name__ for cls in subclasses} == RECORDS
    assert all(cls.__subclasses__() == [] for cls in subclasses)
