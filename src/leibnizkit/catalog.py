"""The bundled instance catalog: concrete algebras, operators, forms and
twilled contexts with their expected check verdicts.

The packaged JSON under ``leibnizkit/catalog/`` is the only source of truth;
every ``*.json`` file there is one entry, named after the file.  A new entry
is one file in the canonical serialization (``serialize_spec`` output), so it
must pass ``test_round_trip_byte_stable`` and the ``expected-verdicts`` suite.
"""

from __future__ import annotations

from importlib import resources
from typing import Dict, List

from .io import SpecFile, parse_spec
from .reports import _Record


class CatalogEntry(_Record):
    """A named catalog spec file; unhashable, as the spec file is."""

    __slots__ = ("name", "spec")

    def __init__(self, name: str, spec: SpecFile):
        self.name = name
        self.spec = spec

    __hash__ = None


def _catalog_dir():
    return resources.files("leibnizkit") / "catalog"


def catalog_names() -> List[str]:
    return sorted(
        p.name.removesuffix(".json") for p in _catalog_dir().iterdir() if p.name.endswith(".json")
    )


def load_entry(name: str) -> CatalogEntry:
    """Load a bundled catalog entry from the packaged JSON."""
    data = _catalog_dir().joinpath(f"{name}.json").read_text("utf-8")
    return CatalogEntry(name, parse_spec(data))


def load_catalog() -> Dict[str, CatalogEntry]:
    return {name: load_entry(name) for name in catalog_names()}


def catalog_algebras():
    """All (entry name, object name, algebra) triples in the catalog."""
    out = []
    for name, entry in sorted(load_catalog().items()):
        spec = entry.spec
        for obj_name in spec.names_of("algebra"):
            out.append((name, obj_name, spec.build(obj_name)))
    return out
