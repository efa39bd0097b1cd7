"""JSON exchange format for algebras, representations, operators, cochains,
2-tensors, forms, KN-structures and twilled contexts.

Scalars are strings ("3", "-1/2", "4 mod 7") so no float ever enters a file.
Serialization is canonical: sorted keys, two-space indent, canonical scalar
strings, trailing newline; parse(serialize(x)) is byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from .algebras import LeibnizAlgebra, Representation
from .dgla import Cochain
from .errors import ParseError
from .fields import FieldSpec, RATIONALS, prime_field
from .forms import BilinearForm, Tensor2
from .linalg import Matrix
from .operators import LinearOperator
from .pairs import KNStructure, OperatorPair
from .twilled import TwilledContext

SCHEMA = "leibniz-spec/1"

KINDS = ("algebra", "representation", "operator", "cochain", "tensor2", "form",
         "kn", "twilled")


def parse_field(tag: str) -> FieldSpec:
    if tag == "Q":
        return RATIONALS
    if isinstance(tag, str) and tag.startswith("F"):
        try:
            return prime_field(int(tag[1:]))
        except ValueError as exc:
            raise ParseError(f"bad field tag {tag!r}: {exc}") from None
    raise ParseError(f"bad field tag {tag!r}")


def format_field(f: FieldSpec) -> str:
    return str(f)


def _parse_matrix(f: FieldSpec, rows, what: str) -> Matrix:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError(f"{what}: matrix must be a list of rows")
    try:
        return Matrix(f, [[f.parse(str(v)) for v in row] for row in rows])
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"{what}: {exc}") from None


def _format_matrix(f: FieldSpec, m: Matrix) -> list:
    return [[f.format(v) for v in row] for row in m.entries]


@dataclass
class SpecFile:
    """A parsed file: one field, a named map of raw objects, optional
    expected-verdict list.  Typed objects are built on demand and cached."""

    fieldspec: FieldSpec
    raw: Dict[str, dict]
    expected: List[dict] = field(default_factory=list)
    _cache: Dict[str, object] = field(default_factory=dict)

    def names(self) -> List[str]:
        return sorted(self.raw)

    def kind(self, name: str) -> str:
        return self.raw[name].get("type", "")

    def names_of(self, kind: str) -> List[str]:
        return sorted(n for n in self.raw if self.raw[n].get("type") == kind)

    def build(self, name: str):
        if name in self._cache:
            return self._cache[name]
        if name not in self.raw:
            raise ParseError(f"no object named {name!r}")
        obj = self.raw[name]
        kind = obj.get("type")
        f = self.fieldspec
        try:
            if kind == "algebra":
                dim = int(obj["dim"])
                c = obj["c"]
                if len(c) != dim:
                    raise ParseError(f"{name}: structure tensor has wrong size")
                built = LeibnizAlgebra(
                    f,
                    [[[f.parse(str(v)) for v in vec] for vec in row] for row in c],
                )
            elif kind == "representation":
                alg = self.build(obj["algebra"])
                built = Representation(
                    alg,
                    [_parse_matrix(f, m, name) for m in obj["rhoL"]],
                    [_parse_matrix(f, m, name) for m in obj["rhoR"]],
                )
            elif kind == "operator":
                built = LinearOperator(
                    _parse_matrix(f, obj["matrix"], name),
                    obj.get("domain", ""),
                    obj.get("codomain", ""),
                )
            elif kind == "cochain":
                alg = self.build(obj["algebra"])
                arity = int(obj["arity"])
                flat: List = []

                def walk(node, depth):
                    if not isinstance(node, list):
                        raise ParseError(f"{name}: coefficients must nest {arity} lists deep")
                    if depth == arity:
                        flat.append(tuple(f.parse(str(v)) for v in node))
                        return
                    for sub in node:
                        walk(sub, depth + 1)

                walk(obj["coeffs"], 0)
                built = Cochain(f, alg.dim, arity, flat)
            elif kind == "tensor2":
                built = Tensor2(self.build(obj["algebra"]), _parse_matrix(f, obj["matrix"], name))
            elif kind == "form":
                built = BilinearForm(
                    self.build(obj["algebra"]),
                    _parse_matrix(f, obj["matrix"], name),
                    obj.get("symmetry", "symmetric"),
                )
            elif kind == "kn":
                built = KNStructure(
                    LinearOperator(_parse_matrix(f, obj["K"], name), "module", "algebra"),
                    OperatorPair(
                        LinearOperator(_parse_matrix(f, obj["N"], name), "algebra", "algebra"),
                        LinearOperator(_parse_matrix(f, obj["S"], name), "module", "module"),
                    ),
                    obj.get("mode", "kn"),
                )
            elif kind == "twilled":
                total = self.build(obj["algebra"])
                built = TwilledContext(total, int(obj["n1"]), int(obj["n2"]))
            else:
                raise ParseError(f"{name}: unknown object type {kind!r}")
        except ParseError:
            raise
        except KeyError as exc:
            raise ParseError(f"{name}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{name}: {exc}") from None
        self._cache[name] = built
        return built

    def rep_for(self, name: str) -> Representation:
        obj = self.build(name)
        if not isinstance(obj, Representation):
            raise ParseError(f"{name!r} is not a representation")
        return obj


def parse_spec(text: str) -> SpecFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    if doc.get("schema") != SCHEMA:
        raise ParseError(f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    fieldspec = parse_field(doc.get("field", "Q"))
    objects = doc.get("objects", {})
    if not isinstance(objects, dict):
        raise ParseError("'objects' must be a name -> object map")
    for name, obj in objects.items():
        if not isinstance(obj, dict):
            raise ParseError(f"object {name!r} must be a JSON object")
        if obj.get("type") not in KINDS:
            raise ParseError(f"object {name!r} has unknown type {obj.get('type')!r}")
    return SpecFile(fieldspec, objects, doc.get("expected", []))


def load_spec(path) -> SpecFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


def canonical_document(spec: SpecFile) -> dict:
    """Re-emit the raw objects with canonical scalar strings."""
    f = spec.fieldspec
    out_objects = {}
    for name in spec.names():
        obj = dict(spec.raw[name])
        kind = obj.get("type")
        if kind == "algebra":
            obj["c"] = [
                [[f.format(f.parse(str(v))) for v in vec] for vec in row] for row in obj["c"]
            ]
            obj["dim"] = int(obj["dim"])
        elif kind == "representation":
            for key in ("rhoL", "rhoR"):
                obj[key] = [_format_matrix(f, _parse_matrix(f, m, name)) for m in obj[key]]
        elif kind in ("operator", "tensor2", "form"):
            obj["matrix"] = _format_matrix(f, _parse_matrix(f, obj["matrix"], name))
        elif kind == "kn":
            for key in ("K", "N", "S"):
                obj[key] = _format_matrix(f, _parse_matrix(f, obj[key], name))
        elif kind == "cochain":
            def walk(node, depth):
                if depth == int(obj["arity"]):
                    return [f.format(f.parse(str(v))) for v in node]
                return [walk(sub, depth + 1) for sub in node]

            obj["coeffs"] = walk(obj["coeffs"], 0)
        out_objects[name] = obj
    doc = {"schema": SCHEMA, "field": format_field(f), "objects": out_objects}
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


def matrix_doc(f: FieldSpec, m: Matrix, domain: str = "", codomain: str = "") -> dict:
    return operator_doc(f, LinearOperator(m, domain, codomain))


def kn_doc(f: FieldSpec, kn: KNStructure, algebra_name: str, rep_name: str) -> dict:
    return {
        "type": "kn",
        "algebra": algebra_name,
        "rep": rep_name,
        "K": _format_matrix(f, kn.K.matrix),
        "N": _format_matrix(f, kn.N),
        "S": _format_matrix(f, kn.S),
        "mode": kn.mode,
    }
