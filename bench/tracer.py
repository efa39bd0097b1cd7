"""Call tracing for the benchmark's traced run, from outside the program.

``Tracer.install`` wraps every public function and public method (plus
constructors and arithmetic operators) of each leibnizkit layer module, and
rebinds each wrapper in every leibnizkit module namespace and module-level
dict that holds the original: ``from .linalg import mat_mul`` copies the
binding, so patching only the defining module would miss calls.
``leibnizkit.oracles`` is the independent reference and is never wrapped.

Each call made while the tracer is active is a span (id, parent id, name,
start, end, request), kept in memory up to ``span_cap`` and written as JSON
by ``dump``; spans of one benchmark operation share its request name.
Layer self time is taken from the spans as they close: a span's duration
minus the part of it its child spans cover.  Call counts and self times are
exact whether or not a span record was kept.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from typing import Callable, Dict, Optional

LAYERS = ("fields", "linalg", "algebras", "operators", "forms", "pairs", "twilled",
          "dgla", "search", "checks", "suites", "io", "catalog", "cli")

# Methods that do a layer's work although their names start with "_".
TRACED_DUNDERS = frozenset({"__init__", "__add__", "__sub__", "__mul__", "__neg__",
                            "__truediv__"})


class Stat:
    """Per-function counters; ``incl_ns`` counts outermost calls only, so
    recursion is not counted twice."""

    __slots__ = ("calls", "incl_ns", "depth")

    def __init__(self):
        self.calls = 0
        self.incl_ns = 0
        self.depth = 0


class LayerStat(Stat):
    __slots__ = ("self_ns",)

    def __init__(self):
        super().__init__()
        self.self_ns = 0


def _bracket_arity(args, kwargs) -> str:
    a, b = args[0], args[1]
    return f"a{a.arity + b.arity - 1}"


# qualified name -> function of the call's arguments giving a sub-key
KEYED = {"dgla.balavoine_bracket": _bracket_arity}


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.active = False
        self.stack = []  # open spans as [child_ns, span_id]
        self.spans = []  # (id, parent id, name, start ns, end ns, request)
        self.request = "setup"  # the operation being traced
        self.dropped = 0
        self.next_id = 0
        self.t0 = time.perf_counter_ns()
        self.funcs: Dict[str, Stat] = {}
        self.layers: Dict[str, LayerStat] = {name: LayerStat() for name in LAYERS}
        self.keyed: Dict[str, list] = {}  # "name:key" -> [calls, ns]
        self.counters: Dict[str, int] = {"search.candidates": 0}
        self._undo = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn: Callable, qualname: str, layer: str) -> Callable:
        stat = self.funcs.setdefault(qualname, Stat())
        lstat = self.layers[layer]
        key_fn = KEYED.get(qualname)
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [0, tracer.next_id]
            tracer.next_id += 1
            stack.append(frame)
            stat.depth += 1
            lstat.depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat.depth -= 1
                lstat.depth -= 1
                stat.calls += 1
                lstat.calls += 1
                if not stat.depth:
                    stat.incl_ns += dur
                if not lstat.depth:
                    lstat.incl_ns += dur
                lstat.self_ns += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if key_fn is not None:
                    cell = tracer.keyed.setdefault(f"{qualname}:{key_fn(args, kwargs)}", [0, 0])
                    cell[0] += 1
                    cell[1] += dur
                if len(tracer.spans) < tracer.span_cap:
                    tracer.spans.append((frame[1], parent[1] if parent else -1, qualname,
                                         start - tracer.t0, end - tracer.t0, tracer.request))
                else:
                    tracer.dropped += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__qualname__ = getattr(fn, "__qualname__", qualname)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _counting(self, fn: Callable, counter: str) -> Callable:
        counters = self.counters
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, name: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in TRACED_DUNDERS:
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(attr.__func__, qual, layer))
            elif isinstance(attr, classmethod):
                new = classmethod(self._wrap(attr.__func__, qual, layer))
            elif isinstance(attr, property) and attr.fget is not None:
                new = property(self._wrap(attr.fget, qual, layer), attr.fset, attr.fdel,
                               attr.__doc__)
            elif inspect.isfunction(attr):
                new = self._wrap(attr, qual, layer)
            else:
                continue
            self._set(cls, name, new)

    def install(self) -> None:
        """Wrap the layer modules' public API in place; ``uninstall`` undoes it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"leibnizkit.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}", layer))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for modname, mod in list(sys.modules.items()):
            if not (modname == "leibnizkit" or modname.startswith("leibnizkit.")):
                continue
            if modname == "leibnizkit.oracles":
                continue
            for name, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, val in list(obj.items()):
                        hit = replacements.get(id(val))
                        if hit is not None and hit[0] is val:
                            self._set(obj, key, hit[1])
        # search.candidates: predicate calls made from search's namespace --
        # the predicate built by _predicate_fn, or the form built first for
        # each bn_pair candidate.
        search = sys.modules["leibnizkit.search"]
        make_pred = search._predicate_fn
        self._set(search, "_predicate_fn",
                  lambda spec: self._counting(make_pred(spec), "search.candidates"))
        self._set(search, "BilinearForm",
                  self._counting(search.BilinearForm, "search.candidates"))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    # -- reading ----------------------------------------------------------

    def calls(self, qualname: str) -> int:
        stat = self.funcs.get(qualname)
        return stat.calls if stat else 0

    def incl_s(self, qualname: str) -> float:
        stat = self.funcs.get(qualname)
        return stat.incl_ns / 1e9 if stat else 0.0

    def dump(self, path, extra: Optional[dict] = None) -> None:
        doc = {
            "span_fields": ["id", "parent", "name", "start_ns", "end_ns", "request"],
            "spans": self.spans,
            "dropped_spans": self.dropped,
            "layers": {name: {"calls": s.calls, "self_s": s.self_ns / 1e9,
                              "incl_s": s.incl_ns / 1e9} for name, s in self.layers.items()},
            "functions": {name: {"calls": s.calls, "incl_s": s.incl_ns / 1e9}
                          for name, s in sorted(self.funcs.items()) if s.calls},
        }
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
