"""JSON exchange format for algebras, representations, operators, cochains,
2-tensors, forms, KN-structures and twilled contexts.

Scalars are strings ("3", "-1/2", "4 mod 7") so no float ever enters a file.
Serialization is canonical: sorted keys, two-space indent, canonical scalar
strings, trailing newline; parse(serialize(x)) is byte-stable.

``_KEYS`` states the format once: what each key of each object kind holds.
``parse_spec`` checks every object against it before anything is built, so a
missing key, a key the table does not list for the object's kind (a
misspelled optional key would otherwise read as its default) or a value of
the wrong type is a ParseError naming the object and the key.
``_VERDICT_KEYS`` does the same for each verdict of the ``expected`` list,
and ``_FILE_KEYS`` lists the keys of the file itself, so a misspelled
``field`` is refused instead of reading the file over Q.  Scalar text
is parsed only when ``SpecFile.build`` builds the object, and ``build``, the
check and ``canonical_document`` read the nesting of every scalar array from
the table through one walker, ``_scalars``.
``SpecFile.build(name, kind)`` is the one typed lookup: it refuses a name of
another kind before building anything, and every reference between objects
goes through it, so a reference to the wrong kind (a cycle included) is a
ParseError too.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .algebras import LeibnizAlgebra, Representation
from .errors import ParseError, ShapeMismatch
from .fields import FieldSpec, RATIONALS, prime_field
from .linalg import LinearOperator, Matrix
from .reports import _Record

# The modules behind cochains, tensors, forms, KN-structures and twilled
# contexts are imported in the branch of ``SpecFile.build`` that builds them.

SCHEMA = "leibniz-spec/1"

# A cochain's coeffs nest arity + 1 lists deep.
_ARITY_DEEP = "arity + 1"

# What each key of each object kind holds:
#   an int d    scalar strings nested d lists deep (a matrix is 2);
#   int         a nonnegative int, not a bool (a size);
#   bool        true or false;
#   str         a string (an operator's space tag);
#   a kind      the name of an object of that kind;
#   a tuple     one of these strings.
# A key of ``_OPTIONAL`` may be left out, and ``build`` reads its default.
_KEYS = {
    "algebra": {"dim": int, "c": 3, "verified": bool},
    "representation": {"algebra": "algebra", "mdim": int, "rhoL": 3, "rhoR": 3,
                       "verified": bool},
    "operator": {"matrix": 2, "domain": str, "codomain": str},
    "cochain": {"algebra": "algebra", "arity": int, "coeffs": _ARITY_DEEP},
    "tensor2": {"algebra": "algebra", "matrix": 2},
    "form": {"algebra": "algebra", "matrix": 2, "symmetry": ("symmetric", "skew")},
    "kn": {"algebra": "algebra", "rep": "representation", "K": 2, "N": 2, "S": 2,
           "mode": ("kn", "dual-kn")},
    "twilled": {"algebra": "algebra", "n1": int, "n2": int},
}
# The same for each verdict of a file's ``expected`` list; ``dict`` is a map
# of strings to strings (``args`` maps flag names to object names).
_VERDICT_KEYS = {"object": str, "check": str, "ok": bool, "args": dict,
                 "precondition_fails": bool}
_OPTIONAL = {"verified": None, "mdim": None, "domain": "", "codomain": "",
             "symmetry": "symmetric", "rep": None, "mode": "kn", "args": None,
             "precondition_fails": False}
# The keys of the file itself: a left-out ``field`` is Q, and left-out
# ``objects`` or ``expected`` are empty.
_FILE_KEYS = ("schema", "field", "objects", "expected")

KINDS = tuple(_KEYS)

# What "'x' is not ..." says for each kind.
_NOUNS = {"algebra": "an algebra", "representation": "a representation",
          "operator": "an operator", "cochain": "a cochain", "tensor2": "a 2-tensor",
          "form": "a form", "kn": "a KN structure", "twilled": "a twilled context"}


def _depth(obj: dict, what) -> Optional[int]:
    """The nesting depth of a scalar array key of ``obj``; None for any
    other key."""
    if what is _ARITY_DEEP:
        return obj["arity"] + 1
    return what if type(what) is int else None


def _scalars(node, depth: int, leaf, name: str, key: str) -> list:
    """``leaf`` of each scalar of the array ``node``, in the same nesting; a
    ParseError naming ``name`` and ``key`` unless ``node`` nests exactly
    ``depth`` >= 1 lists deep.  The walk goes level by level and ends at the
    first empty level, so it needs no recursion however deep the file nests
    and no time however large ``depth`` is."""
    out, d = [], depth
    level = [(node, out)]
    while level:
        below = []
        for src, dst in level:
            if type(src) is not list or d == 1 and any(isinstance(v, (list, dict)) for v in src):
                raise ParseError(f"{name}: {key!r} must be scalars nested {depth} lists deep")
            if d == 1:
                dst.extend(map(leaf, src))
                continue
            for sub in src:
                dst.append([])
                below.append((sub, dst[-1]))
        level, d = below, d - 1
    return out


def _check(name: str, obj: dict, keys: dict, tag: tuple = ()) -> None:
    """A ParseError naming ``name`` and the key unless ``keys`` or ``tag``
    lists each key of ``obj`` and each key of ``keys`` holds what it says;
    scalar text is left unparsed."""
    for key in obj:
        if key not in keys and key not in tag:
            raise ParseError(f"{name}: unknown key {key!r}")
    for key, what in keys.items():
        if key not in obj:
            if key in _OPTIONAL:
                continue
            raise ParseError(f"{name}: missing key {key!r}")
        value, depth = obj[key], _depth(obj, what)
        if depth is not None:
            _scalars(value, depth, lambda v: None, name, key)
            continue
        if what is int:
            ok, must = type(value) is int and value >= 0, "a nonnegative integer"
        elif what is bool:
            ok, must = isinstance(value, bool), "true or false"
        elif what is dict:
            ok = isinstance(value, dict) and all(isinstance(v, str) for v in value.values())
            must = "a map of strings to strings"
        elif isinstance(what, tuple):
            ok, must = value in what, "one of " + ", ".join(map(repr, what))
        else:
            ok, must = isinstance(value, str), "a string"
        if not ok:
            raise ParseError(f"{name}: {key!r} must be {must}, got {value!r}")


def parse_field(tag: str) -> FieldSpec:
    if tag == "Q":
        return RATIONALS
    if isinstance(tag, str) and tag.startswith("F"):
        try:
            return prime_field(int(tag[1:]))
        except ValueError as exc:
            raise ParseError(f"bad field tag {tag!r}: {exc}") from None
    raise ParseError(f"bad field tag {tag!r}")


def _format_matrix(f: FieldSpec, m: Matrix) -> list:
    return [[f.format(v) for v in row] for row in m.entries]


class SpecFile(_Record):
    """A parsed file: one field, a named map of raw objects, optional
    expected-verdict list.  ``raw`` holds objects that ``parse_spec`` has
    checked against ``_KEYS``.  Typed objects are built on demand and kept
    in ``_cache``, which is not a field: two spec files are equal when their
    field, objects and verdicts are, whatever either has built.  The raw
    objects are mutable, so a spec file is unhashable."""

    __slots__ = ("fieldspec", "raw", "expected", "_cache")

    def __init__(self, fieldspec: FieldSpec, raw: Dict[str, dict],
                 expected: Optional[List[dict]] = None):
        self.fieldspec = fieldspec
        self.raw = raw
        self.expected = [] if expected is None else expected
        self._cache: Dict[str, object] = {}

    __hash__ = None

    def names(self) -> List[str]:
        return sorted(self.raw)

    def names_of(self, kind: str) -> List[str]:
        return sorted(n for n in self.raw if self.raw[n].get("type") == kind)

    def build(self, name: str, kind: Optional[str] = None):
        """The object ``name``, built on first use and cached.  With ``kind``,
        a ParseError that ``name`` is not of that kind, raised before
        anything is built.  The objects ``name`` refers to are built through
        here with the kind the table gives their key."""
        if not isinstance(name, str):
            raise ParseError(f"object name {name!r} is not a string")
        if name not in self.raw:
            raise ParseError(f"no object named {name!r}")
        obj = self.raw[name]
        if kind is not None and obj["type"] != kind:
            raise ParseError(f"{name!r} is not {_NOUNS[kind]}")
        if name in self._cache:
            return self._cache[name]
        f, kind, v = self.fieldspec, obj["type"], {}
        try:
            for key, what in _KEYS[kind].items():
                value, depth = obj.get(key, _OPTIONAL.get(key)), _depth(obj, what)
                if depth is not None:
                    value = _scalars(value, depth, lambda s: f.parse(str(s)), name, key)
                    value = Matrix(f, value) if what == 2 else value
                elif what in _KEYS and value is not None:
                    value = self.build(value, what)
                v[key] = value
            if kind == "algebra":
                if len(v["c"]) != v["dim"]:
                    raise ParseError(f"{name}: structure tensor has wrong size")
                built = LeibnizAlgebra(f, v["c"])
            elif kind == "representation":
                built = Representation(v["algebra"], [Matrix(f, m) for m in v["rhoL"]],
                                       [Matrix(f, m) for m in v["rhoR"]])
            elif kind == "operator":
                built = LinearOperator(v["matrix"], v["domain"], v["codomain"])
            elif kind == "cochain":
                from .dgla import Cochain

                flat = v["coeffs"]
                for _ in range(v["arity"] - 1):
                    if not flat:  # no entries at all: no deeper level to open
                        break
                    flat = [vec for sub in flat for vec in sub]
                built = Cochain(f, v["algebra"].dim, v["arity"], flat)
            elif kind == "tensor2":
                from .forms import Tensor2

                built = Tensor2(v["algebra"], v["matrix"])
            elif kind == "form":
                from .forms import BilinearForm

                built = BilinearForm(v["algebra"], v["matrix"], v["symmetry"])
            elif kind == "kn":
                from .pairs import KNStructure, OperatorPair

                built = KNStructure(LinearOperator(v["K"], "module", "algebra"),
                                    OperatorPair(LinearOperator(v["N"], "algebra", "algebra"),
                                                 LinearOperator(v["S"], "module", "module")),
                                    v["mode"])
            else:
                from .twilled import TwilledContext

                built = TwilledContext(v["algebra"], v["n1"], v["n2"])
        except ShapeMismatch as exc:
            raise ParseError(f"{name}: {exc}") from None
        self._cache[name] = built
        return built

    def rep_for(self, name: str) -> Representation:
        return self.build(name, "representation")


def parse_spec(text: str) -> SpecFile:
    """The spec file of ``text``, with every object checked against
    ``_KEYS``; a ParseError on the first thing that is not."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    if doc.get("schema") != SCHEMA:
        raise ParseError(f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    for key in doc:
        if key not in _FILE_KEYS:
            raise ParseError(f"unknown top-level key {key!r}")
    fieldspec = parse_field(doc.get("field", "Q"))
    objects = doc.get("objects", {})
    if not isinstance(objects, dict):
        raise ParseError("'objects' must be a name -> object map")
    for name, obj in objects.items():
        if not isinstance(obj, dict):
            raise ParseError(f"object {name!r} must be a JSON object")
        if obj.get("type") not in KINDS:
            raise ParseError(f"object {name!r} has unknown type {obj.get('type')!r}")
        _check(name, obj, _KEYS[obj["type"]], ("type",))
    expected = doc.get("expected", [])
    if not isinstance(expected, list):
        raise ParseError("'expected' must be a list of verdicts")
    for i, verdict in enumerate(expected):
        if not isinstance(verdict, dict):
            raise ParseError(f"expected[{i}] must be a JSON object")
        _check(f"expected[{i}]", verdict, _VERDICT_KEYS)
    return SpecFile(fieldspec, objects, expected)


def load_spec(path) -> SpecFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_spec(fh.read())
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from None


def canonical_document(spec: SpecFile) -> dict:
    """Re-emit the raw objects with canonical scalar strings."""
    f = spec.fieldspec
    out_objects = {}
    for name in spec.names():
        obj = dict(spec.raw[name])
        for key, what in _KEYS[obj["type"]].items():
            depth = _depth(obj, what)
            if depth is not None:
                obj[key] = _scalars(obj[key], depth, lambda s: f.format(f.parse(str(s))),
                                    name, key)
        out_objects[name] = obj
    doc = {"schema": SCHEMA, "field": str(f), "objects": out_objects}
    if spec.expected:
        doc["expected"] = spec.expected
    return doc


def serialize_spec(spec: SpecFile) -> str:
    return json.dumps(canonical_document(spec), sort_keys=True, indent=2) + "\n"


# -- emission helpers for constructed objects ----------------------------


def algebra_doc(f: FieldSpec, alg: LeibnizAlgebra, verified: bool = True) -> dict:
    return {
        "type": "algebra",
        "dim": alg.dim,
        "c": [[[f.format(v) for v in vec] for vec in row] for row in alg.c],
        "verified": verified,
    }


def representation_doc(f: FieldSpec, rep: Representation, algebra_name: str,
                       verified: bool = True) -> dict:
    return {
        "type": "representation",
        "algebra": algebra_name,
        "mdim": rep.mdim,
        "rhoL": [_format_matrix(f, m) for m in rep.rhoL],
        "rhoR": [_format_matrix(f, m) for m in rep.rhoR],
        "verified": verified,
    }


def operator_doc(f: FieldSpec, op: LinearOperator) -> dict:
    return {
        "type": "operator",
        "matrix": _format_matrix(f, op.matrix),
        "domain": op.domain,
        "codomain": op.codomain,
    }


def kn_doc(f: FieldSpec, kn, algebra_name: str, rep_name: str) -> dict:
    """The file object of the KN-structure ``kn``."""
    return {
        "type": "kn",
        "algebra": algebra_name,
        "rep": rep_name,
        "K": _format_matrix(f, kn.K.matrix),
        "N": _format_matrix(f, kn.N),
        "S": _format_matrix(f, kn.S),
        "mode": kn.mode,
    }
