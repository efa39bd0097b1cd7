"""What importing the package and running a command loads: the public
namespace resolves lazily, and a command imports only the modules it runs."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import leibnizkit

SRC = Path(leibnizkit.__file__).resolve().parent
CATALOG_DIR = SRC / "catalog"

# Every name the package exports, by defining module.
EXPORTED = {
    "algebras": ["LeibnizAlgebra", "Representation", "check_leibniz", "check_representation",
                 "dual_representation", "regular_representation"],
    "dgla": ["Cochain", "balavoine_bracket", "bracket_square", "check_maurer_cartan",
             "coboundary", "dgla_bracket", "dual_kn_from_mc", "mc_from_dual_kn", "theta_twist",
             "tilde_varrho_bracket"],
    "fields": ["RATIONALS", "FieldSpec", "prime_field"],
    "forms": ["BilinearForm", "Tensor2", "check_bn_structure", "check_quadratic",
              "check_rbn_structure", "check_rn_structure", "check_ybe", "rbn_rn_transfer",
              "sharp_map"],
    "linalg": ["LinearOperator", "LinearSolution", "Matrix", "mat_inverse", "mat_mul",
               "solve_linear"],
    "operators": ["as_operator", "check_compatible",
                  "check_kupershmidt", "check_nijenhuis", "check_nk_condition",
                  "check_rota_baxter", "deformed_bracket", "nijenhuis_from_compatible",
                  "subadjacent_algebra"],
    "oracles": ["oracle_eval"],
    "pairs": ["DeformationTriple", "KNStructure", "OperatorPair", "check_dual_nijenhuis_pair",
              "check_kn_structure", "check_nijenhuis_pair", "check_perfect_pair",
              "compatible_from_kn", "deformation_from_pair", "dual_kn_from_compatible",
              "hat_tilde_representations", "kn_to_dual_kn", "make_kn", "make_pair",
              "sum_nijenhuis_on_twilled"],
    "reports": ["CheckReport", "Violation"],
    "search": ["SearchSpec", "closed_symmetric_forms", "enumerate_operators",
               "invariant_skew_forms", "mc_solutions_from_linear_layer", "solve_mc_linear_layer"],
    "twilled": ["TwilledContext", "check_matched_pair", "induced_representation",
                "lifted_algebra", "semidirect_sum"],
}
ALL_NAMES = sorted(name for names in EXPORTED.values() for name in names)

# Modules a `check` never needs at import time.
HEAVY = ("search", "suites", "oracles", "dgla", "forms", "pairs")

# Beyond HEAVY, what a module that checks load leaves to the functions that
# need it: cli.py everything only construct, search and suite run (their
# handlers are in ``commands``); checks.py and io.py the operator module,
# which only the operator checks run; fields.py ``fractions`` and the
# ``decimal`` and ``numbers`` it imports, which only a Fraction needs; the
# operator, pair and form modules the sums and lifts of ``twilled``, which
# no check of theirs runs.
LAZY_AT_IMPORT = {
    "cli.py": ("algebras", "catalog", "commands", "linalg", "operators", "twilled"),
    "checks.py": ("operators",),
    "io.py": ("operators",),
    "fields.py": ("fractions", "decimal", "numbers"),
    "operators.py": ("twilled",),
    "pairs.py": ("twilled",),
    "forms.py": ("twilled",),
}


def test_exported_names_are_the_defining_modules_objects():
    for module, names in EXPORTED.items():
        mod = importlib.import_module(f"leibnizkit.{module}")
        for name in names:
            assert getattr(leibnizkit, name) is getattr(mod, name), name
    assert leibnizkit.__version__ == "0.1.0"
    # the operator modules still re-export the tagged matrix they take
    operators = importlib.import_module("leibnizkit.operators")
    assert operators.LinearOperator is leibnizkit.LinearOperator


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from leibnizkit import *", namespace)
    assert set(ALL_NAMES) <= set(namespace)
    assert all(namespace[name] is getattr(leibnizkit, name) for name in ALL_NAMES)
    assert set(ALL_NAMES) <= set(dir(leibnizkit))


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'leibnizkit' has no attribute 'nosuch'$"):
        leibnizkit.nosuch
    assert not hasattr(leibnizkit, "check_everything")
    # removed scalar API: FieldSpec's raw arithmetic is the one scalar API
    assert not hasattr(leibnizkit, "Scalar") and not hasattr(leibnizkit, "scalar_arith")
    # removed alias of Matrix.transpose
    assert not hasattr(leibnizkit, "transpose_dual")
    assert not hasattr(importlib.import_module("leibnizkit.linalg"), "transpose_dual")


def _imported_by(code: str) -> set:
    """The modules a fresh interpreter imports while it runs ``code``, beyond
    those its start-up loaded; a JSON list on the last line of stdout."""
    out = subprocess.run([sys.executable, "-c", (
        "import sys, json\nbefore = set(sys.modules)\n" + code +
        "\nprint(json.dumps(sorted(set(sys.modules) - before)))")],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


def _loaded_after(code: str) -> set:
    """The leibnizkit submodules a fresh interpreter holds after ``code``."""
    return {m.split(".", 1)[1] for m in _imported_by(code) if m.startswith("leibnizkit.")}


def _cli_code(*argv) -> str:
    return ("from leibnizkit.cli import main\n"
            f"assert main({list(argv)!r}) == 0\n")


def test_import_loads_no_submodule():
    assert _loaded_after("import leibnizkit") == set()


def test_check_leibniz_loads_nothing_heavy():
    loaded = _loaded_after(_cli_code("check", str(CATALOG_DIR / "abelian1.json"), "alg",
                                     "leibniz"))
    assert {"algebras", "io", "checks", "cli"} <= loaded
    assert loaded.isdisjoint(HEAVY + ("twilled",))


def test_check_rota_baxter_loads_no_search_suites_or_oracles():
    loaded = _loaded_after(_cli_code("check", str(CATALOG_DIR / "l2.json"), "R",
                                     "rota-baxter"))
    assert "checks" in loaded
    assert loaded.isdisjoint({"search", "suites", "oracles"})


_FRACTION_MODULES = {"fractions", "decimal", "numbers"}


@pytest.mark.parametrize("entry,args,builds_a_fraction", [
    ("abelian1", ("alg", "leibniz"), False),
    ("l2", ("R", "kupershmidt", "--rep", "regular"), False),
    ("l2", ("kn_dual", "kn-structure"), False),
    ("l2", ("R32", "rota-baxter"), True),
])
def test_check_loads_fractions_only_when_it_builds_one(entry, args, builds_a_fraction):
    """A check on integral data never imports ``fractions`` (nor the
    ``decimal`` and ``numbers`` that it imports); one on a file that holds
    "n/d" scalars does."""
    imported = _imported_by(_cli_code("check", str(CATALOG_DIR / f"{entry}.json"), *args))
    assert "leibnizkit.checks" in imported
    if builds_a_fraction:
        assert _FRACTION_MODULES <= imported
    else:
        assert imported.isdisjoint(_FRACTION_MODULES)


@pytest.mark.parametrize("entry,obj,check", [("abelian1", "alg", "leibniz"),
                                             ("l2", "R", "rota-baxter")])
def test_check_loads_no_dataclasses_inspect_or_catalog(entry, obj, check):
    """A `check` process builds its value classes without `dataclasses` (and
    the `inspect` it pulls in) and never reads the bundled catalog."""
    imported = _imported_by(_cli_code("check", str(CATALOG_DIR / f"{entry}.json"), obj, check))
    assert "leibnizkit.checks" in imported
    assert imported.isdisjoint({"dataclasses", "inspect", "leibnizkit.catalog"})


# The leibnizkit submodules a `check` process holds, by check kind: the
# check path, plus the modules that kind's checker runs.
CHECK_PATH = {"algebras", "checks", "cli", "errors", "fields", "io", "linalg", "reports"}
CHECK_MODULES = {
    "leibniz": (),
    "representation": (),
    "kupershmidt": ("operators",),
    "nijenhuis": ("operators",),
    "rota-baxter": ("operators",),
    "compatible": ("operators",),
    "nk-condition": ("operators",),
    "nijenhuis-pair": ("operators", "pairs"),
    "kn-structure": ("operators", "pairs"),
    "maurer-cartan": ("dgla", "operators", "twilled"),
    "maurer-cartan-strong": ("dgla", "operators", "twilled"),
    "ybe": ("forms", "operators"),
    "quadratic": ("forms", "operators"),
    "rn-structure": ("forms", "operators", "pairs"),
    "rbn-structure": ("forms", "operators", "pairs"),
    "bn-structure": ("forms", "operators", "pairs"),
}


def _first_verdict_of_each_kind() -> dict:
    """check kind -> the argv of its first expected verdict in the catalog."""
    found = {}
    for path in sorted(CATALOG_DIR.glob("*.json")):
        for item in json.loads(path.read_text()).get("expected", []):
            argv = ["check", str(path), item["object"], item["check"]]
            for key, val in sorted(item.get("args", {}).items()):
                argv += [f"--{key}", val]
            found.setdefault(item["check"], argv)
    return found


_VERDICTS = _first_verdict_of_each_kind()


def test_every_catalog_check_kind_is_pinned():
    assert set(_VERDICTS) == set(CHECK_MODULES)


@pytest.mark.parametrize("kind", sorted(CHECK_MODULES))
def test_check_holds_exactly_the_modules_its_check_runs(kind):
    """A `check` process compiles the check path and its checker's modules,
    nothing else: not the construct, search and suite handlers, not the
    operator module for an algebra check, not pairs for a Maurer-Cartan,
    Yang-Baxter or quadratic check."""
    code = ("import contextlib, io\nfrom leibnizkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({_VERDICTS[kind]!r}) in (0, 1)\n")
    assert _loaded_after(code) == CHECK_PATH | set(CHECK_MODULES[kind])


def test_search_and_suite_still_run():
    search = _loaded_after(_cli_code("search", str(CATALOG_DIR / "l2.json"), "--predicate",
                                     "nijenhuis", "--field", "F2"))
    assert "search" in search and "suites" not in search
    suite = _loaded_after(_cli_code("suite", "abelian1"))
    assert "suites" in suite


def test_mc_cochain_defects_load_no_search():
    """The graded Maurer-Cartan route compiles over the polynomial unknowns
    that ``dgla`` defines, so ``dgla`` never imports ``search``, the module
    that imports it."""
    code = ("from leibnizkit.dgla import mc_cochain_defects\n"
            "from leibnizkit.io import load_spec\n"
            "from leibnizkit.linalg import Matrix\n"
            f"ctx = load_spec({str(CATALOG_DIR / 'l2.json')!r}).build('tw_lift', 'twilled')\n"
            "d, q = mc_cochain_defects(ctx, Matrix.zeros(ctx.field, ctx.n2, ctx.n1))\n"
            "assert d.is_zero() and q.is_zero()\n")
    loaded = _loaded_after(code)
    assert "dgla" in loaded and "search" not in loaded


def test_cli_run_as_main_is_not_imported_again():
    """``python -m leibnizkit.cli`` runs cli.py as ``__main__``; the
    construct, search and suite handlers do not import ``leibnizkit.cli``,
    so the file is not compiled a second time."""
    code = ("import contextlib, io, runpy, sys\n"
            f"sys.argv = ['cli', 'construct', {str(CATALOG_DIR / 'l2.json')!r}, 'semidirect', "
            "'--rep', 'regular']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        runpy.run_module('leibnizkit.cli', run_name='__main__')\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0, exc.code\n")
    loaded = _loaded_after(code)
    assert "commands" in loaded and "cli" not in loaded


def _import_time_imports(path: Path) -> set:
    """Modules a source file imports when it is itself imported: every import
    statement outside a function body and outside an ``if TYPE_CHECKING:``
    block, which only a type checker runs."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.If) and getattr(child.test, "id", None) == "TYPE_CHECKING":
                visit(ast.Module(body=child.orelse, type_ignores=[]))
                continue
            if isinstance(child, ast.ImportFrom) and child.module is None:
                found.update("." * child.level + alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                found.add("." * child.level + child.module)
            elif isinstance(child, ast.Import):
                found.update(alias.name for alias in child.names)
            visit(child)

    visit(ast.parse(path.read_text()))
    return found


def test_import_time_imports_skip_functions_and_type_checking_blocks(tmp_path):
    source = tmp_path / "snippet.py"
    source.write_text("from typing import TYPE_CHECKING\nimport json\n"
                      "if TYPE_CHECKING:\n    from fractions import Fraction\n"
                      "else:\n    import decimal\n"
                      "def f():\n    from .twilled import semidirect_sum\n")
    assert _import_time_imports(source) == {"typing", "json", "decimal"}


@pytest.mark.parametrize("filename", ["__init__.py", "cli.py", "checks.py", "io.py", "fields.py",
                                      "operators.py", "pairs.py", "forms.py"])
def test_check_path_modules_import_nothing_heavy_at_import_time(filename):
    """The modules that `check` processes load import the heavy modules, and
    what ``LAZY_AT_IMPORT`` lists, only inside the functions that use them or
    for a type checker."""
    imported = _import_time_imports(SRC / filename)
    lazy = HEAVY + LAZY_AT_IMPORT.get(filename, ())
    assert imported.isdisjoint(lazy)
    assert imported.isdisjoint(f".{name}" for name in lazy)
    assert imported.isdisjoint(f"leibnizkit.{name}" for name in lazy)


def test_no_module_imports_dataclasses():
    """The value classes are plain classes; the package imports no `dataclasses`."""
    for path in sorted(SRC.rglob("*.py")):
        assert "dataclasses" not in _import_time_imports(path), path.name


def _unused_imports(source: str) -> list:
    """The names that import statements outside function and class bodies
    bind and that the module never reads, ``from __future__`` aside."""
    tree = ast.parse(source)
    bound = {}

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(child, ast.Import):
                bound.update((alias.asname or alias.name.split(".")[0], child.lineno)
                             for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.module != "__future__":
                bound.update((alias.asname or alias.name, child.lineno) for alias in child.names)
            visit(child)

    visit(tree)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


_UNUSED_SNIPPET = """
from __future__ import annotations
import os, sys
import xml.dom
from .a import b, c as d
from typing import Tuple
x: Tuple = os.sep

def f():
    import json
    return d

class C:
    from .e import g
"""


def test_no_module_has_an_unused_import():
    """No module but the lazily exporting ``__init__`` binds a module-level
    import it never reads."""
    assert _unused_imports(_UNUSED_SNIPPET) == [(3, "sys"), (4, "xml"), (5, "b")]
    found = [f"{path.name}:{line}:{name}" for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"
             for line, name in _unused_imports(path.read_text())]
    assert found == []


# What would write, read or locate bytecode: these modules, and these names
# of ``sys`` and ``importlib.util``.
_BYTECODE = {"compileall", "py_compile", "marshal", "dont_write_bytecode", "cache_from_source"}


def _bytecode_uses(source: str) -> list:
    """(line, name) of each import, attribute, name or string constant of
    ``source`` that is one of ``_BYTECODE``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [part for alias in node.names for part in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        found.update((node.lineno, name) for name in names if name in _BYTECODE)
    return sorted(found)


_BYTECODE_SNIPPET = """
import sys, os.path
import py_compile
from importlib.util import cache_from_source, find_spec
import importlib.util as util
sys.dont_write_bytecode = False
path = util.cache_from_source("a.py")
from compileall import compile_dir
loads = __import__("marshal").loads
text = "marshal the bytecode"
"""


def test_no_module_writes_or_reads_bytecode():
    """A `check` is faster only by compiling less source: no module writes,
    reads or locates bytecode, which ``PYTHONDONTWRITEBYTECODE`` forbids."""
    assert _bytecode_uses(_BYTECODE_SNIPPET) == [
        (3, "py_compile"), (4, "cache_from_source"), (6, "dont_write_bytecode"),
        (7, "cache_from_source"), (8, "compileall"), (9, "marshal")]
    found = [f"{path.name}:{line}:{name}" for path in sorted(SRC.rglob("*.py"))
             for line, name in _bytecode_uses(path.read_text())]
    assert found == []


def _exit_uses(tree, fn=None) -> list:
    """The innermost function that holds each use of ``_exit`` (a name, an
    attribute or an import), in source order; None at module level."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _exit_uses(node, node.name)
            continue
        name = (node.id if isinstance(node, ast.Name) else node.attr
                if isinstance(node, ast.Attribute) else node.name
                if isinstance(node, ast.alias) else None)
        if name == "_exit":
            found.append(fn)
        found += _exit_uses(node, fn)
    return found


def test_only_cli_run_ends_the_process_without_teardown():
    """``os._exit`` skips ``atexit`` hooks and unflushed buffers, so the
    package calls it in one place: ``cli.run``, after it flushes."""
    snippet = ("from os import _exit as now\nos._exit(0)\n"
               "def f():\n    def g():\n        posix._exit(1)\n    return os._exit\n"
               "def h(code):\n    sys.exit(code)\n")
    assert _exit_uses(ast.parse(snippet)) == [None, None, "g", "f"]
    found = {path.name: _exit_uses(ast.parse(path.read_text()))
             for path in sorted(SRC.rglob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {"cli.py": ["run"]}
