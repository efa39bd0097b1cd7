"""Structures derived from an object are built once and kept by that object
(``Representation._derived`` and ``LeibnizAlgebra._derived``, and the
``_Action`` of a regular or dual representation that
``LeibnizAlgebra._regular`` and ``_Action.dual`` keep): keeping them
changes no answer, the tables of an algebra and of a representation stay
bounded, nothing is kept per process, so equal objects built apart, two
loaded catalogs among them, share no derived object, and nothing kept refers
back to its owner, so a dropped catalog leaves no cyclic garbage."""

import ast
import contextlib
import gc
import io
import sys
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import leibnizkit
from leibnizkit import (
    LeibnizAlgebra,
    Matrix,
    RATIONALS as Q,
    Representation,
    as_operator,
    check_compatible,
    check_kn_structure,
    check_kupershmidt,
    check_nijenhuis,
    check_rota_baxter,
    dual_representation,
    hat_tilde_representations,
    induced_representation,
    lifted_algebra,
    prime_field,
    regular_representation,
)
from leibnizkit import cli, operators
from leibnizkit.algebras import _DERIVED_CAP, _Action
from leibnizkit.catalog import _catalog_dir, load_catalog
from leibnizkit.dgla import Cochain
from leibnizkit.errors import LeibnizKitError
from leibnizkit.pairs import KNStructure, _hat_tilde, make_pair
from leibnizkit.reports import CheckReport
from leibnizkit.suites import run_suites
from leibnizkit.twilled import TwilledContext

FIELDS = (prime_field(2), prime_field(3), Q)
# l2 ([e1,e0] = [e1,e1] = e0), its one-bracket variant, solv2
# ([e0,e1] = -[e1,e0] = e0), and an algebra that is not Leibniz over any
# field ([e0,e0] = e1, [e0,e1] = e0)
ALGEBRAS = {
    "l2": {(1, 0): [1, 0], (1, 1): [1, 0]},
    "l2_single": {(1, 0): [1, 0]},
    "solv2": {(0, 1): [1, 0], (1, 0): [-1, 0]},
    "not_leibniz": {(0, 0): [0, 1], (0, 1): [1, 0]},
}
# l2's catalog operators with integer entries, R, R2 and E01 (regular) and
# Bsharp, NBsharp (dual), are Kupershmidt over Q, and so is 0; the identity
# is not
OPERATORS = {
    "regular": [((0, 1), (0, -1)), ((0, 2), (0, -2)), ((0, 1), (0, 0)), ((1, 0), (0, 1)),
                ((0, 0), (0, 0))],
    "dual": [((-1, 1), (1, 0)), ((3, 2), (2, 0)), ((0, 0), (0, 0))],
}
# (N, S) of l2's dual KN-structure, the identity pair, the zero pair, and a
# pair whose hat action on solv2 over F3 is a representation and whose tilde
# action is not
PAIRS = [(((2, 5), (0, 2)), ((2, 0), (5, 2))), (((1, 0), (0, 1)),) * 2, (((0, 0), (0, 0)),) * 2,
         (((0, 0), (1, 0)),) * 2]

FUNCTIONS = {
    "regular_representation": lambda o: regular_representation(o["alg"]),
    "dual_representation": lambda o: dual_representation(o["rep"]),
    "check_kupershmidt": lambda o: check_kupershmidt(o["K"], o["rep"]),
    "lifted_algebra": lambda o: lifted_algebra(o["K"], o["rep"]),
    "induced_representation": lambda o: induced_representation(o["K"], o["rep"]),
    "hat_tilde_representations": lambda o: hat_tilde_representations(o["kn"].pair, o["rep"]),
    # the hat and tilde representations as a caller that knows the verdicts
    # asks for them: each verdict it passes is one more verification
    **{f"_hat_tilde{flags}": lambda o, flags=flags: _hat_tilde(o["kn"].pair, o["rep"], *flags)
       for flags in ((True, False), (False, True), (True, True))},
    "check_kn_structure": lambda o: check_kn_structure(o["kn"], o["rep"]),
    # the verdicts kept on the algebra, and the compatibility verdict kept
    # on the representation, with S and with E01 (Kupershmidt on l2's
    # regular representation, and not compatible with R there)
    "check_nijenhuis": lambda o: check_nijenhuis(o["kn"].pair.N, o["alg"]),
    "check_rota_baxter": lambda o: check_rota_baxter(o["K"], o["alg"]),
    "check_nijenhuis of K": lambda o: check_nijenhuis(o["K"], o["alg"]),
    "check_rota_baxter of N": lambda o: check_rota_baxter(o["kn"].pair.N, o["alg"]),
    "check_compatible": lambda o: check_compatible(o["K"], o["kn"].pair.S, o["rep"]),
    "check_compatible with E01": lambda o: check_compatible(
        o["K"], Matrix(o["alg"].field, OPERATORS["regular"][2]), o["rep"]),
    # the same on the representations the algebra keeps the actions of: each
    # call asks for them again, after the last call's were dropped
    "check_kupershmidt on the regular": lambda o: check_kupershmidt(
        o["K"], regular_representation(o["alg"])),
    "lifted_algebra on the dual regular": lambda o: lifted_algebra(
        o["K"], dual_representation(regular_representation(o["alg"]))),
    "check_kn_structure on the dual regular": lambda o: check_kn_structure(
        o["kn"], dual_representation(regular_representation(o["alg"]))),
}


def _objects(case):
    """Fresh objects for ``case``: the algebra, the representation (its
    regular one or the dual of that, built by hand so that a non-Leibniz
    algebra still has one), an operator K and a KN-structure on K."""
    f, alg_name, kind, k, (n, s), mode = case
    alg = LeibnizAlgebra.from_brackets(f, 2, ALGEBRAS[alg_name])
    rep = Representation(alg, [alg.left_mult(i) for i in range(2)],
                         [alg.right_mult(j) for j in range(2)])
    if kind == "dual":
        rep = Representation(alg, [-m.transpose() for m in rep.rhoL],
                             [a.transpose() + b.transpose() for a, b in zip(rep.rhoL, rep.rhoR)])
    K = as_operator(Matrix(f, k))
    kn = KNStructure(K, make_pair(Matrix(f, n), Matrix(f, s)), mode)
    return {"alg": alg, "rep": rep, "K": K, "kn": kn}


def _outcome(fn, objects):
    """What a call returns, comparable by value: a report's verdict,
    violations and notes, a raised error's kind and text, or the value."""
    try:
        out = fn(objects)
    except LeibnizKitError as exc:
        return "raised", type(exc).__name__, str(exc)
    if isinstance(out, CheckReport):
        return "report", out.ok, out.violations, out.notes
    return "value", out


def _warm_and_cold(case, order):
    """For each function, its outcome on objects that every function, taken
    in ``order``, has already been called on, and on fresh equal objects."""
    warm = _objects(case)
    for name in order:
        _outcome(FUNCTIONS[name], warm)
    return {name: (_outcome(fn, warm), _outcome(fn, _objects(case)))
            for name, fn in FUNCTIONS.items()}


_matrix = st.tuples(*[st.tuples(*[st.integers(-2, 2)] * 2)] * 2)


@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(sorted(OPERATORS)))
    return (draw(st.sampled_from(FIELDS)), draw(st.sampled_from(sorted(ALGEBRAS))), kind,
            draw(st.sampled_from(OPERATORS[kind]) | _matrix),
            draw(st.sampled_from(PAIRS) | st.tuples(_matrix, _matrix)),
            draw(st.sampled_from(["kn", "dual-kn"])))


@given(case=_cases(), order=st.permutations(sorted(FUNCTIONS)))
@settings(max_examples=100, deadline=None)
def test_kept_structures_give_what_fresh_objects_give(case, order):
    for name, (warm, cold) in _warm_and_cold(case, order).items():
        assert warm == cold, name


def test_the_cases_pass_and_fail():
    """The property above sees passing verdicts, failing verdicts and failed
    preconditions, each from warm and cold objects alike."""
    cases = [
        (Q, "l2", "dual", OPERATORS["dual"][0], PAIRS[0], "dual-kn"),  # l2's KN-structure
        (prime_field(3), "l2", "regular", OPERATORS["regular"][0], PAIRS[2], "kn"),
        (Q, "l2", "regular", OPERATORS["regular"][3], PAIRS[1], "kn"),  # not Kupershmidt
        (Q, "l2_single", "regular", OPERATORS["regular"][4], PAIRS[2], "kn"),
        (prime_field(3), "solv2", "regular", OPERATORS["regular"][4], PAIRS[3], "kn"),
    ]
    seen = set()
    for case in cases:
        for warm, cold in _warm_and_cold(case, sorted(FUNCTIONS)).values():
            assert warm == cold
            seen.add(warm[1] if warm[0] == "report" else warm[0])
    assert seen == {True, False, "raised", "value"}
    # the verdicts passed to _hat_tilde decide what it verifies
    outcomes = _warm_and_cold(cases[-1], sorted(FUNCTIONS))
    assert outcomes["_hat_tilde(True, False)"][0][0] == "value"
    assert outcomes["_hat_tilde(False, True)"][0][:2] == ("raised", "NotRepresentation")


def test_the_kept_verdicts_pass_and_fail():
    """The Nijenhuis, Rota-Baxter and compatibility checks in ``FUNCTIONS``
    each see a passing verdict, a failing one and a failed precondition."""
    cases = [
        (Q, "l2", "regular", OPERATORS["regular"][0], PAIRS[1], "kn"),
        (Q, "l2", "regular", OPERATORS["regular"][3], PAIRS[3], "kn"),
        (Q, "not_leibniz", "regular", OPERATORS["regular"][4], PAIRS[2], "kn"),
        (prime_field(2), "l2", "regular", ((0, 1), (0, 1)), PAIRS[2], "kn"),
        (Q, "l2", "regular", OPERATORS["regular"][4], PAIRS[2], "kn"),
    ]
    names = ["check_nijenhuis", "check_rota_baxter", "check_compatible with E01"]
    seen = {name: set() for name in names}
    for case in cases:
        outcomes = _warm_and_cold(case, sorted(FUNCTIONS))
        for name in names:
            warm, cold = outcomes[name]
            assert warm == cold, name
            seen[name].add(warm[1] if warm[0] == "report" else warm[0])
    assert all(kinds == {True, False, "raised"} for kinds in seen.values()), seen
    # over F2 the sample coefficient 1/2 is skipped, and the kept note says so
    warm, cold = _warm_and_cold(cases[3], sorted(FUNCTIONS))["check_compatible"]
    assert warm == cold and warm[3] == {"sample-1/2,3": "skipped (coefficients not in field)"}


def test_a_second_check_reads_the_kept_verdict(monkeypatch):
    """A second Nijenhuis or Rota-Baxter check of one operator on one
    algebra, and a second compatibility check of one pair on one
    representation, compute no identity again."""
    alg = LeibnizAlgebra.from_brackets(Q, 2, ALGEBRAS["l2"])
    rep = regular_representation(alg)
    R, E = (as_operator(Matrix(Q, k)) for k in OPERATORS["regular"][::2][:2])
    P = as_operator(Matrix(Q, [[1, 0], [0, 0]]))  # not Nijenhuis on l2
    calls = Counter()
    for name in ("_twist_sides", "_images"):
        def counted(*args, _name=name, _fn=getattr(operators, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(operators, name, counted)
    first = [check_nijenhuis(P, alg), check_rota_baxter(R, alg), check_compatible(R, E, rep)]
    assert calls["_twist_sides"] == 2 and calls["_images"] > 0
    made = Counter(calls)
    again = [check_nijenhuis(P, alg), check_rota_baxter(R, alg), check_compatible(R, E, rep)]
    assert calls == made
    assert again == first and all(a is not b for a, b in zip(again, first))
    assert [report.ok for report in first] == [False, True, False]
    # another operator is checked afresh
    assert check_nijenhuis(R, alg).ok
    assert calls["_twist_sides"] == 3


def test_the_table_on_an_algebra_stays_bounded():
    """Checking more operators than the cap on one algebra keeps at most
    the cap; an operator whose verdict was dropped is checked again, with
    the same verdict."""
    alg = LeibnizAlgebra.from_brackets(Q, 2, ALGEBRAS["l2"])
    operators = [as_operator(Matrix(Q, [[0, a], [0, -a]])) for a in range(_DERIVED_CAP + 50)]
    for R in operators:
        assert check_rota_baxter(R, alg).ok
        assert len(alg._kept) <= _DERIVED_CAP
    first = operators[0].matrix
    assert ("rota-baxter", first) not in alg._kept
    assert check_rota_baxter(operators[0], alg).ok
    assert ("rota-baxter", first) in alg._kept


def test_the_table_on_a_representation_stays_bounded():
    """Checking more operators than the cap on one representation keeps at
    most the cap; an operator whose entries were dropped is checked again,
    with the same verdict."""
    alg = LeibnizAlgebra.from_brackets(Q, 2, ALGEBRAS["l2"])
    rep = regular_representation(alg)
    operators = [as_operator(Matrix(Q, [[0, a], [0, -a]])) for a in range(_DERIVED_CAP + 50)]
    for K in operators:
        assert check_kupershmidt(K, rep).ok
        assert len(rep._action.kept) <= _DERIVED_CAP
    first = operators[0].matrix
    assert ("kupershmidt", first) not in rep._action.kept
    assert check_kupershmidt(operators[0], rep).ok
    assert ("kupershmidt", first) in rep._action.kept


def test_a_call_that_raises_keeps_nothing():
    """A failed precondition raises on every call and leaves the table as
    it was."""
    alg = LeibnizAlgebra.from_brackets(Q, 2, ALGEBRAS["l2"])
    rep = regular_representation(alg)
    identity = as_operator(Matrix.identity(Q, 2))
    check_kupershmidt(identity, rep)
    kept = dict(rep._action.kept)
    errors = []
    for _ in range(2):
        try:
            lifted_algebra(identity, rep)
        except LeibnizKitError as exc:
            errors.append((type(exc).__name__, str(exc)))
    assert len(errors) == 2 and errors[0] == errors[1] and errors[0][0] == "NotKupershmidt"
    assert rep._action.kept == kept


def _raised_twice(fn) -> tuple:
    """The kind and text of the error that ``fn()`` raises, the same on two
    calls."""
    errors = []
    for _ in range(2):
        try:
            fn()
        except LeibnizKitError as exc:
            errors.append((type(exc).__name__, str(exc)))
    assert len(errors) == 2 and errors[0] == errors[1]
    return errors[0]


def test_a_kept_verdict_is_kept_only_once_its_preconditions_hold():
    """A Nijenhuis or Rota-Baxter check on a non-Leibniz algebra, or of an
    operator over another field, and a compatibility check of an operator
    that is not Kupershmidt, raise on every call and keep nothing."""
    skew = LeibnizAlgebra.from_brackets(Q, 2, ALGEBRAS["not_leibniz"])
    zero = as_operator(Matrix.zeros(Q, 2, 2))
    for check in (check_nijenhuis, check_rota_baxter):
        assert _raised_twice(lambda: check(zero, skew))[0] == "NotLeibniz"
    assert skew._kept == {}
    alg = LeibnizAlgebra.from_brackets(Q, 2, ALGEBRAS["l2"])
    over_f3 = as_operator(Matrix.identity(prime_field(3), 2))
    for check in (check_nijenhuis, check_rota_baxter):
        assert _raised_twice(lambda: check(over_f3, alg)) == (
            "ShapeMismatch", "operator and algebra fields differ")
    assert alg._kept == {}
    rep = regular_representation(alg)
    identity, R = as_operator(Matrix.identity(Q, 2)), as_operator(Matrix(Q, OPERATORS["regular"][0]))
    check_kupershmidt(identity, rep)
    check_kupershmidt(R, rep)
    kept = dict(rep._action.kept)
    for pair in ((identity, R), (R, identity)):
        assert _raised_twice(lambda: check_compatible(*pair, rep))[0] == "NotKupershmidt"
    assert rep._action.kept == kept


# What the package may memoise for the life of the process: the shuffles of
# small arities, and one search's decisions on its distinct blocks.
ALLOWED_MEMOS = {("dgla", "_shuffles", "lru_cache"), ("search", "_invertible", "lru_cache")}
_FUNCTOOLS_CACHES = {"lru_cache", "cache", "cached_property"}
_MUTATORS = {"setdefault", "update", "append", "extend", "add", "insert", "__setitem__"}


class _Memos(ast.NodeVisitor):
    """(function, what) for each use of a functools cache and each store
    into a module-level name from inside a function; the function is
    ``<module>`` at module level."""

    def __init__(self, module_names):
        self.module_names, self.where, self.found = module_names, ["<module>"], set()

    def visit_FunctionDef(self, node):
        self.where.append(node.name)  # its decorators belong to it
        self.generic_visit(node)
        self.where.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        if node.id in _FUNCTOOLS_CACHES:
            self.found.add((self.where[-1], node.id))

    def visit_Attribute(self, node):
        if node.attr in _FUNCTOOLS_CACHES and getattr(node.value, "id", None) == "functools":
            self.found.add((self.where[-1], node.attr))
        self.generic_visit(node)

    def _module_level(self, node) -> bool:
        return (len(self.where) > 1 and isinstance(node, ast.Name)
                and node.id in self.module_names)

    def visit_Subscript(self, node):
        if isinstance(node.ctx, ast.Store) and self._module_level(node.value):
            self.found.add((self.where[-1], node.value.id))
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in _MUTATORS
                and self._module_level(func.value)):
            self.found.add((self.where[-1], func.value.id))
        self.generic_visit(node)

    def visit_Global(self, node):
        self.found.update((self.where[-1], name) for name in node.names)


def _memos(source: str) -> set:
    tree = ast.parse(source)
    names = {target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
             if isinstance(target, ast.Name)}
    visitor = _Memos(names)
    visitor.visit(tree)
    return visitor.found


def test_nothing_is_memoised_per_process():
    """No module of the package keeps a functools cache or a module-level
    table that its functions fill, but for ``ALLOWED_MEMOS``."""
    snippet = """
import functools
from functools import lru_cache
_MEMO = {}
SEEN = []
@lru_cache(maxsize=None)
def a(x):
    return x
def b(x):
    _MEMO[x] = x
def c(x):
    return functools.cache(len)(x) + SEEN.append(x)
def d():
    global _MEMO
def e(x):
    local = {}
    local[x] = x
    return local
"""
    assert _memos(snippet) == {("a", "lru_cache"), ("b", "_MEMO"), ("c", "cache"),
                               ("c", "SEEN"), ("d", "_MEMO")}
    src = Path(leibnizkit.__file__).resolve().parent
    found = {(path.stem, *memo) for path in sorted(src.glob("*.py"))
             for memo in _memos(path.read_text())}
    assert found == ALLOWED_MEMOS


def _derived_objects(root) -> dict:
    """id -> object for every algebra, representation, action, twilled
    context and cochain reachable from ``root`` through containers and
    slots."""
    kinds = (LeibnizAlgebra, Representation, _Action, TwilledContext, Cochain)
    seen, found, stack = set(), {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (int, str, float, type(None))):
            continue
        seen.add(id(obj))
        if isinstance(obj, kinds):
            found[id(obj)] = obj
        if isinstance(obj, dict):
            stack += list(obj.keys()) + list(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack += obj
        elif type(obj).__module__.startswith("leibnizkit."):
            stack += [getattr(obj, name, None) for cls in type(obj).__mro__
                      for name in getattr(cls, "__slots__", ())]
    return found


def test_two_loaded_catalogs_share_no_derived_object():
    """Two catalogs loaded apart, each run through suites that derive and
    keep structures, reach no algebra, representation, action, twilled
    context or cochain in common, though their objects are equal."""
    first, second = load_catalog(), load_catalog()
    names = ["kn-consequences", "theta-twist", "dual-kn-to-mc", "rn-to-dual-kn"]
    for catalog in (first, second):
        assert all(result.ok for result in run_suites(catalog, names))
    a, b = _derived_objects(first), _derived_objects(second)
    assert len(a) > 20 and len(b) == len(a)
    assert sum(len(obj.kept) for obj in a.values() if isinstance(obj, _Action)) > 20
    assert not set(a) & set(b)
    alg_a, alg_b = first["l2"].spec.build("alg"), second["l2"].spec.build("alg")
    assert alg_a == alg_b
    assert regular_representation(alg_a)._action is not regular_representation(alg_b)._action
    # each call hands out a new representation over the one kept action
    assert regular_representation(alg_a) == regular_representation(alg_a)
    assert regular_representation(alg_a)._action is regular_representation(alg_a)._action


def test_a_suite_pass_evicts_nothing():
    """After every suite on a freshly loaded catalog, each table that an
    algebra or an action reachable from the catalog keeps holds fewer than
    ``_DERIVED_CAP`` entries, so none dropped an entry during the pass."""
    catalog = load_catalog()
    assert all(result.ok for result in run_suites(catalog))
    objects = _derived_objects(catalog).values()
    tables = [obj.kept for obj in objects if isinstance(obj, _Action)]
    tables += [obj._kept for obj in objects if isinstance(obj, LeibnizAlgebra)]
    assert any(tables) and max(map(len, tables)) < _DERIVED_CAP


def test_what_is_kept_does_not_keep_the_representations_handed_out():
    """An algebra keeps the action of its regular representation, and that
    action the dual's action, but no representation: the only reference to
    a representation handed out is the caller's, and the kept actions and
    their tables outlive it."""
    alg = LeibnizAlgebra.from_brackets(Q, 2, ALGEBRAS["l2"])
    K = as_operator(Matrix(Q, OPERATORS["dual"][0]))
    reg = regular_representation(alg)
    dual = dual_representation(reg)
    assert check_kupershmidt(K, dual).ok
    # held by the local name and the argument of getrefcount, by nothing kept
    assert sys.getrefcount(reg) <= 2 and sys.getrefcount(dual) <= 2
    action, kept = dual._action, dict(dual._action.kept)
    del reg, dual
    again = dual_representation(regular_representation(alg))
    assert again._action is action and again._action.kept == kept
    assert check_kupershmidt(K, again).ok and again._action.kept == kept


def test_a_dropped_catalog_leaves_no_cyclic_garbage():
    """Every suite and every catalog verdict, the verdicts as the CLI runs
    them, on a freshly loaded catalog: once all of it is dropped, reference
    counting has freed every object of the package, and the cyclic
    collector finds none."""
    verdicts = []
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        catalog = load_catalog()
        assert all(result.ok for result in run_suites(catalog))
        for name, entry in sorted(catalog.items()):
            for item in entry.spec.expected:
                argv = ["check", str(_catalog_dir() / f"{name}.json"), item["object"],
                        item["check"]]
                for key, value in sorted(item.get("args", {}).items()):
                    argv += [f"--{key}", value]
                with contextlib.redirect_stdout(io.StringIO()):
                    with contextlib.redirect_stderr(io.StringIO()):
                        verdicts.append(cli.main(argv) == (0 if item["ok"] else 1))
        del catalog, entry
        gc.collect()
        found = Counter(type(obj).__name__ for obj in gc.garbage
                        if type(obj).__module__.startswith("leibnizkit."))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert len(verdicts) == 60 and all(verdicts)
    assert found == Counter()


# What may tune or run the cyclic collector: nothing in the package, so that
# what it frees is freed by reference counting.
_GC_CALLS = {"collect", "disable", "freeze", "set_threshold"}


def _gc_calls(source: str) -> set:
    """The functions of ``_GC_CALLS`` that ``source`` names: as an attribute
    of ``gc`` under any name it is imported as, or imported from ``gc``."""
    tree = ast.parse(source)
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names if alias.name == "gc"}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gc":
            found.update(alias.name for alias in node.names
                         if alias.name in _GC_CALLS or alias.name == "*")
        elif (isinstance(node, ast.Attribute) and node.attr in _GC_CALLS
              and getattr(node.value, "id", None) in names):
            found.add(node.attr)
    return found


def test_nothing_tunes_or_runs_the_cyclic_collector():
    """No module of the package calls ``gc.collect``, ``disable``,
    ``freeze`` or ``set_threshold``, so what it keeps is freed by its
    structure and not by a collection it forces."""
    snippet = """
import gc
import gc as collector
from gc import freeze, get_count
from gc import *
def f(counter):
    gc.collect()
    collector.set_threshold(0)
    gc.get_objects()
    counter.disable()
    return gc.disable
"""
    assert _gc_calls(snippet) == {"collect", "set_threshold", "freeze", "*", "disable"}
    assert _gc_calls("def f(counter):\n    counter.collect()\n") == set()
    src = Path(leibnizkit.__file__).resolve().parent
    assert {path.name: _gc_calls(path.read_text()) for path in sorted(src.rglob("*.py"))
            if _gc_calls(path.read_text())} == {}
