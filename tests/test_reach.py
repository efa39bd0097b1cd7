"""Every function of the package runs on a path a user takes, or is listed.

A fresh interpreter runs, under ``sys.setprofile``, the argv of ``ARGV``
through ``cli.main`` (the last one through ``cli.run`` too) and every
operation of the benchmark's workloads (``bench/workloads.py``, with the
``cli-check`` verdicts in process), and reports the functions of the
package that ran.  Every ``def`` in ``src/leibnizkit`` outside
``oracles.py``, the independent second implementation, must be among them,
unless it is a dunder or ``LISTED`` names it with the reason it is kept.
The trace runs in its own interpreter so that what other tests warmed
cannot hide a function: ``dgla._shuffles`` is an ``lru_cache``.

Run as a script (``PYTHONPATH=src python tests/test_reach.py``), this file
prints what the traced paths ran, one ``file:line:name`` per line.
"""

import ast
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "leibnizkit"
BENCH = ROOT / "bench"
CATALOG = SRC / "catalog"
_L2, _QUAD4 = str(CATALOG / "l2.json"), str(CATALOG / "quad4.json")

# The CLI runs the trace makes besides the benchmark's: the suites in both
# formats, each construction and each search predicate once, the check
# kinds that no catalog verdict records, and one usage error per command.
ARGV = [
    ["suite", "--all"],
    ["suite", "--all", "--format", "json"],
    ["construct", _L2, "dual-rep", "--rep", "regular"],
    ["construct", _L2, "semidirect", "--rep", "regular"],
    ["construct", _L2, "subadjacent", "--K", "R"],
    ["construct", _L2, "lifted", "--K", "R"],
    ["construct", _L2, "deformed", "--N", "N23"],
    ["construct", _L2, "theta-twist", "--K", "R", "--theta", "theta_strong"],
    ["construct", _L2, "dual-kn-from-mc", "--K", "R", "--theta", "theta_strong",
     "--rep", "regular"],
    ["construct", _L2, "mc-from-dual-kn", "--kn", "kn_dual"],
    ["construct", _L2, "sharp", "--pi", "pi0"],
    ["construct", _L2, "dual-kn-from-compatible", "--K1", "Bsharp", "--K2", "NBsharp",
     "--rep", "dual"],
    ["search", _L2, "--predicate", "kupershmidt", "--field", "F2", "--rep", "regular"],
    ["search", _L2, "--predicate", "nijenhuis", "--field", "F2"],
    ["search", _L2, "--predicate", "rota-baxter", "--field", "F3"],
    ["search", _L2, "--predicate", "mc-strong", "--field", "F2", "--ctx", "tw_lift"],
    ["search", _L2, "--predicate", "bn-pair", "--field", "F2"],
    ["check", _L2, "E01", "perfect-pair", "--S", "E01", "--rep", "regular"],
    ["check", _L2, "E01", "dual-nijenhuis-pair", "--S", "N11", "--rep", "dual"],
    ["check", _QUAD4, "q", "transfer", "--R", "R_B", "--N", "N2"],
    ["check", _QUAD4, "q", "transfer", "--R", "R_B", "--N", "N2", "--format", "json"],
    ["check", _L2, "alg", "nosuch"],
    ["construct", _L2, "lifted"],
    ["search", _L2, "--predicate", "nijenhuis", "--field", "F4"],
    ["suite"],
]

# A seed for the benchmark's generated inputs; any seed reaches the same code.
SEED = 1

# Functions that no traced path runs, each with the reason it is kept.
_DENSE = "dense reference that tests compare the sparse kernels with"
_FORMS = "solver of the forms that check_quadratic and check_bn_structure take"
LISTED = {
    "algebras.LeibnizAlgebra.bracket": _DENSE,
    "algebras.LeibnizAlgebra.bracket_basis": _DENSE,
    "algebras.LeibnizAlgebra.from_brackets": "API: an algebra from a table of brackets",
    "algebras.Representation.actL": _DENSE,
    "algebras.Representation.actR": _DENSE,
    "dgla.Cochain.at": _DENSE,
    "dgla.Cochain.from_matrix": "API: the arity-1 cochain of a matrix",
    "dgla.Cochain.zero": "API: the zero cochain of an arity",
    "dgla.bracket_square": "exported: the bracket square {phi, phi}",
    "dgla.dgla_bracket": "exported: the derived bracket of the DGLA",
    "fields.FieldSpec.eq": "API: raw field arithmetic, with add, which the benchmark runs",
    "fields.FieldSpec.neg": "API: raw field arithmetic, with add, which the benchmark runs",
    "linalg.LinearSolution.has_solution": "API: whether the solved system is consistent",
    "linalg.Matrix.apply": _DENSE,
    "pairs.make_kn": "exported: a KN-structure from three matrices",
    "search.closed_symmetric_forms": f"exported: {_FORMS}",
    "search.invariant_skew_forms": f"exported: {_FORMS}",
    "search._form_basis": "kernel of invariant_skew_forms and closed_symmetric_forms",
    "search._form_residues": "kernel of invariant_skew_forms and closed_symmetric_forms",
}


def _trace() -> list:
    """Run ``ARGV`` and the benchmark's workloads under ``sys.setprofile``,
    and return (file name, first line, name) of each function of the
    package that ran."""
    import io
    from contextlib import redirect_stderr, redirect_stdout, suppress

    sys.path.insert(0, str(BENCH))
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(profile)
    try:
        import workloads
        from leibnizkit import cli

        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            for argv in ARGV:
                cli.main(argv)
            # the process entry, once: under this profiler it exits through
            # sys.exit rather than ending the interpreter
            sys.argv = ["leibnizkit", *ARGV[-1]]
            with suppress(SystemExit):
                cli.run()
            reference = workloads.load_reference()
            for name in workloads.WORKLOADS:
                workload = workloads.build(name, SEED, reference)
                workload.before_pass()
                for op in workload.inproc_ops or workload.ops:
                    op.run()
    finally:
        sys.setprofile(None)
    return sorted({(Path(code.co_filename).name, code.co_firstlineno, code.co_name)
                   for code in ran if Path(code.co_filename).parent == SRC})


@lru_cache(maxsize=None)
def _ran() -> frozenset:
    """What ``_trace`` reports, from a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, __file__], capture_output=True, text=True, env=env,
                         cwd=ROOT)
    assert out.returncode == 0, out.stderr
    return frozenset((path, int(line), name) for path, line, name in
                     (row.split(":") for row in out.stdout.splitlines()))


def _defs(sources: dict) -> dict:
    """(file name, first line, name) -> qualified name of every ``def`` in
    the sources, a dict of file name -> text.  The first line is that of the
    first decorator, as the function's code object has it."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first, child.name)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path, text in sources.items():
        visit(ast.parse(text), path, f"{path[:-3]}.")
    return found


def _unreached(sources: dict, ran, listed) -> list:
    """The qualified names of the functions in ``sources`` that are not in
    ``ran``, neither dunders nor in ``listed``."""
    return sorted(name for key, name in _defs(sources).items()
                  if key not in ran and name not in listed
                  and not (key[2].startswith("__") and key[2].endswith("__")))


def _sources() -> dict:
    return {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))
            if path.name != "oracles.py"}


def test_every_function_runs_on_a_user_path_or_is_listed():
    assert _unreached(_sources(), _ran(), LISTED) == []


def test_the_listed_functions_exist_and_no_traced_path_runs_them():
    defs = _defs(_sources())
    assert set(LISTED) <= set(defs.values())
    assert [defs[key] for key in _ran() if defs.get(key) in LISTED] == []
    assert all(reason.strip() for reason in LISTED.values())


def test_the_guard_reports_a_planted_function():
    """A function added to a module, which nothing runs, is reported; a
    planted dunder and a listed name are not, and the traced paths reach
    ``cli.main``."""
    sources = _sources()
    sources["linalg.py"] += ("\n\ndef _planted():\n    return 0\n\n\n"
                             "class _Planted:\n    def __eq__(self, other):\n        return True\n\n"
                             "    def kept(self):\n        return 1\n")
    ran = _ran()
    found = _unreached(_sources(), ran, LISTED)
    assert _unreached(sources, ran, {**LISTED, "linalg._Planted.kept": "listed"}) == sorted(
        found + ["linalg._planted"])
    assert any(key[0] == "cli.py" and key[2] == "main" for key in ran)


if __name__ == "__main__":
    for path, line, name in _trace():
        print(f"{path}:{line}:{name}")
