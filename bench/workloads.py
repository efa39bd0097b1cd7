"""The benchmark's four workloads.

Each workload builds its inputs from a seed and returns a list of operations.
An operation is one request against leibnizkit (a search job, a theorem suite,
one identity on generated cochains, one CLI verdict) together with a check of
its answer against a reference that does not come from the code under test:
``reference.json`` for search and CLI answers, the independent evaluators in
``leibnizkit.oracles``, or an identity that verifies itself.

Library functions are looked up on their modules at call time, never bound at
import here, so the traced run sees the same calls a user's code makes.

Why these workloads:

* ``search-fp`` -- exhaustive F_p enumeration, the path that predicate
  compilation and pruning act on.  Hits are sparse on heis3/F3 (pruning can
  pay off) and dense on solv2/F5 (only per-hit cost shows).
* ``suite-catalog`` -- all theorem suites over the bundled catalog: many small
  exact-rational calls on many distinct objects, the opposite of one hot F_p
  predicate.
* ``bracket-dgla`` -- the Balavoine bracket, the differential and the
  graded Maurer-Cartan defects; it spends almost nothing in search.
* ``cli-check`` -- every catalog verdict as a fresh CLI process: import,
  parsing and dispatch cost, the latency a user sees.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CATALOG_DIR = SRC / "leibnizkit" / "catalog"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("search-fp", "suite-catalog", "bracket-dgla", "cli-check")

# Perturbed variants per catalog algebra in bracket-dgla, the unperturbed
# algebra included (16 algebras x 20 = 320 bracket squares).
VARIANTS_PER_ALGEBRA = 20
# Random theta per lifted l2 context in bracket-dgla, besides theta = 0.
THETAS_PER_CONTEXT = 8


@dataclass
class Op:
    """One request: ``run`` is timed, ``check`` compares its answer with
    ``expected`` outside the timed region."""

    name: str
    run: Callable[[], object]
    expected: object = True
    reference: Optional[Callable[[], object]] = None  # oracle, evaluated untimed
    check: Optional[Callable[[object, object], bool]] = None
    candidates: int = 0  # search space size, for search jobs
    batch: bool = False  # answer and expected are lists of verdicts

    def verdicts(self, out) -> List[bool]:
        """One bool per verdict in the answer: True where it is right."""
        if self.batch:
            if out is None or len(out) != len(self.expected):
                return [False] * len(self.expected)
            return [o == e for o, e in zip(out, self.expected)]
        if self.check is not None:
            return [bool(self.check(out, self.expected))]
        return [out == self.expected]

    def size(self) -> int:
        return len(self.expected) if self.batch else 1


@dataclass
class Workload:
    name: str
    ops: List[Op]
    # In-process variant of ``ops`` for the traced run (cli-check traces
    # ``cli.main`` in-process; the others trace the same ops).
    inproc_ops: Optional[List[Op]] = None
    before_pass: Callable[[], None] = lambda: None
    child_rss_kb: List[int] = field(default_factory=list)
    fresh_processes: bool = False  # each of ``ops`` starts an interpreter

    def prepare_reference(self) -> None:
        """Evaluate oracle references; never timed and never traced."""
        for op in self.ops + (self.inproc_ops or []):
            if op.reference is not None:
                op.expected = op.reference()


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def hits_digest(rows: List[tuple]) -> str:
    """sha256 of the sorted hits, each a flat tuple of residues."""
    blob = json.dumps(sorted(list(r) for r in rows), separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


# -- search-fp ---------------------------------------------------------------


def _to_field(alg, f):
    import leibnizkit as lk

    return lk.LeibnizAlgebra(f, [[[f.of(v) for v in vec] for vec in row] for row in alg.c])


def _rep_to_field(rep, f):
    import leibnizkit as lk

    alg = _to_field(rep.algebra, f)
    conv = lambda m: lk.Matrix(f, [[f.of(v) for v in row] for row in m.entries])
    return lk.Representation(alg, [conv(m) for m in rep.rhoL], [conv(m) for m in rep.rhoR])


def search_jobs(catalog) -> Dict[str, object]:
    """The fixed search jobs, cheapest first, as name -> SearchSpec over F_p."""
    import leibnizkit as lk
    from leibnizkit.twilled import TwilledContext

    F3, F5, F7 = lk.prime_field(3), lk.prime_field(5), lk.prime_field(7)
    l2 = catalog["l2"].spec
    tw = l2.build("tw_lift")
    ctx7 = TwilledContext(_to_field(tw.total, F7), tw.n1, tw.n2)
    return {
        "solv2/F5/nijenhuis": lk.SearchSpec(
            F5, (2, 2), "nijenhuis", algebra=_to_field(catalog["solv2"].spec.build("alg"), F5)),
        "l2/F7/rota_baxter": lk.SearchSpec(
            F7, (2, 2), "rota_baxter", algebra=_to_field(l2.build("alg"), F7)),
        "l2/F3/bn_pair": lk.SearchSpec(
            F3, (2, 2), "bn_pair", algebra=_to_field(l2.build("alg"), F3)),
        "l2.regular/F7/kupershmidt": lk.SearchSpec(
            F7, (2, 2), "kupershmidt", rep=_rep_to_field(l2.rep_for("regular"), F7)),
        "l2.dual/F7/kupershmidt": lk.SearchSpec(
            F7, (2, 2), "kupershmidt", rep=_rep_to_field(l2.rep_for("dual"), F7)),
        "l2.tw_lift/F7/mc_strong": lk.SearchSpec(
            F7, (tw.n2, tw.n1), "mc_strong", ctx=ctx7),
        "heis3/F3/nijenhuis": lk.SearchSpec(
            F3, (3, 3), "nijenhuis", algebra=_to_field(catalog["heis3"].spec.build("alg"), F3)),
    }


def space_size(spec) -> int:
    if spec.predicate == "bn_pair":
        return spec.field.p ** (2 * spec.algebra.dim ** 2)
    rows, cols = spec.shape
    return spec.field.p ** (rows * cols)


def hit_rows(spec, hits) -> List[tuple]:
    flat = lambda m: tuple(v for row in m.entries for v in row)
    if spec.predicate == "bn_pair":
        return [flat(b) + flat(n) for b, n in hits]
    return [flat(m) for m in hits]


def _search_fp(seed: int, reference: dict) -> Workload:
    from leibnizkit import catalog as cat, search

    jobs = search_jobs(cat.load_catalog())
    ops = []
    for name, spec in jobs.items():
        ref = reference["search"][name]

        def check(out, expected, spec=spec):
            rows = hit_rows(spec, out)
            return len(rows) == expected["hits"] and hits_digest(rows) == expected["digest"]

        ops.append(Op(name, lambda spec=spec: search.enumerate_operators(spec, workers=1),
                      expected=ref, check=check, candidates=space_size(spec)))
    return Workload("search-fp", ops)


# -- suite-catalog ------------------------------------------------------------


def _suite_catalog(seed: int, reference: dict) -> Workload:
    from leibnizkit import catalog as cat, suites

    state = {"catalog": cat.load_catalog()}

    def fresh_catalog():
        # Each pass sees cold per-object caches, as one `suite --all` run does.
        state["catalog"] = cat.load_catalog()

    ops = []
    for name in sorted(suites.SUITES):
        ops.append(Op(
            name,
            lambda name=name: suites.run_suites(state["catalog"], [name])[0],
            expected=reference["suites"][name],
            check=lambda out, expected: out.ok and out.passed == expected,
        ))
    return Workload("suite-catalog", ops, before_pass=fresh_catalog)


# -- bracket-dgla -------------------------------------------------------------


def _antisymmetry(cs) -> List[bool]:
    import leibnizkit as lk

    br = lk.balavoine_bracket
    return [br(cs[m], cs[n]) == br(cs[n], cs[m]).scale(-1 if (m * n) % 2 == 0 else 1)
            for m in range(3) for n in range(3)]


def _jacobi(cs, m) -> List[bool]:
    import leibnizkit as lk

    br = lk.balavoine_bracket
    out = []
    for n in range(3):
        for p in range(3):
            t1 = br(cs[m], br(cs[n], cs[p])).scale((-1) ** (m * p))
            t2 = br(cs[n], br(cs[p], cs[m])).scale((-1) ** (n * m))
            t3 = br(cs[p], br(cs[m], cs[n])).scale((-1) ** (p * n))
            out.append((t1 + t2 + t3).is_zero())
    return out


def _squares_vanish(algs) -> List[bool]:
    import leibnizkit as lk

    out = []
    for alg in algs:
        mu = lk.Cochain.from_algebra(alg)
        out.append(lk.balavoine_bracket(mu, mu).is_zero())
    return out


def _d_squared_vanishes(alg, phis) -> List[bool]:
    import leibnizkit as lk

    mu = lk.Cochain.from_algebra(alg)
    return [lk.coboundary(mu, lk.coboundary(mu, phi)).is_zero() for phi in phis]


def _mc_defects(ctx, thetas) -> List[tuple]:
    from leibnizkit import dgla

    out = []
    for theta in thetas:
        d, q = dgla.mc_cochain_defects(ctx, theta)
        out.append(((d + q).is_zero(), d.is_zero() and q.is_zero()))
    return out


def _oracle_mc(ctx, thetas) -> List[tuple]:
    from leibnizkit import oracles

    return [(oracles.eval_maurer_cartan(ctx, th).ok,
             oracles.eval_maurer_cartan(ctx, th, strong=True).ok) for th in thetas]


def _oracle_leibniz(algs) -> List[bool]:
    from leibnizkit import oracles

    return [oracles.eval_leibniz(alg).ok for alg in algs]


def _bracket_dgla(seed: int, reference: dict) -> Workload:
    """One operation is a batch of verdicts on one algebra, context or
    cochain family, so that per-operation times average over the seeded
    draws; every verdict counts on its own in attempted and failed."""
    import leibnizkit as lk
    from leibnizkit import catalog as cat
    from leibnizkit.twilled import TwilledContext

    rng = Random(seed)
    Q = lk.RATIONALS
    ops: List[Op] = []

    # Bracket squares of perturbed catalog algebras, F2 entries included:
    # {mu, mu} = 0 must hold exactly when the oracle finds mu Leibniz.
    # d^2 = 0 on each unperturbed algebra with a random 0- and 1-cochain.
    for entry, obj, alg in cat.catalog_algebras():
        f, n = alg.field, alg.dim
        variants = [alg]
        for _ in range(VARIANTS_PER_ALGEBRA - 1):
            c = [[list(vec) for vec in row] for row in alg.c]
            i, j, k = (rng.randrange(n) for _ in range(3))
            c[i][j][k] = f.add(c[i][j][k], f.of(rng.choice((1, -1))))
            variants.append(lk.LeibnizAlgebra(f, c))
        ops.append(Op(f"square/{entry}.{obj}", lambda a=variants: _squares_vanish(a),
                      reference=lambda a=variants: _oracle_leibniz(a), batch=True))
        phis = [lk.Cochain(f, n, arity, [tuple(f.of(rng.randint(-1, 1)) for _ in range(n))
                                         for _ in range(n ** arity)])
                for arity in (1, 2)]
        ops.append(Op(f"d2/{entry}.{obj}", lambda a=alg, p=phis: _d_squared_vanishes(a, p),
                      expected=[True] * len(phis), batch=True))

    # Maurer-Cartan defects on lifted l2 contexts against the oracle.
    l2 = cat.load_entry("l2").spec
    cases = [("regular", k) for k in ("R", "R2", "R32")] + [("dual", k) for k in ("Bsharp", "NBsharp")]
    for rep_name, k_name in cases:
        rep = l2.rep_for(rep_name)
        ctx = TwilledContext(lk.lifted_algebra(l2.build(k_name), rep), rep.algebra.dim, rep.mdim)
        thetas = [lk.Matrix.zeros(Q, ctx.n2, ctx.n1)]
        for _ in range(THETAS_PER_CONTEXT):
            thetas.append(lk.Matrix(Q, [[rng.randint(-3, 3) for _ in range(ctx.n1)]
                                        for _ in range(ctx.n2)]))
        ops.append(Op(f"mc/{rep_name}.{k_name}", lambda c=ctx, t=thetas: _mc_defects(c, t),
                      reference=lambda c=ctx, t=thetas: _oracle_mc(c, t), batch=True))

    # Graded antisymmetry and Jacobi on dense random cochains of degree 0..2;
    # both identities verify themselves.  Entries are nonzero so that the
    # bracket's work does not depend on the draw.
    for dim in (1, 2, 3):
        cs = [lk.Cochain(Q, dim, deg + 1, [tuple(rng.choice((-2, -1, 1, 2)) for _ in range(dim))
                                           for _ in range(dim ** (deg + 1))])
              for deg in range(3)]
        ops.append(Op(f"antisym/dim{dim}", lambda cs=cs: _antisymmetry(cs),
                      expected=[True] * 9, batch=True))
        for m in range(3):
            ops.append(Op(f"jacobi/dim{dim}/{m}", lambda cs=cs, m=m: _jacobi(cs, m),
                          expected=[True] * 9, batch=True))
    return Workload("bracket-dgla", ops)


# -- cli-check ----------------------------------------------------------------


def cli_requests(catalog) -> Dict[str, List[str]]:
    """request id -> argv after ``leibnizkit``, one per expected verdict; the
    ``args`` keys of a verdict map one to one onto CLI flags."""
    out = {}
    for entry in sorted(catalog):
        for i, item in enumerate(catalog[entry].spec.expected):
            argv = ["check", str(CATALOG_DIR / f"{entry}.json"), item["object"], item["check"]]
            for key, val in sorted(item.get("args", {}).items()):
                argv += [f"--{key}", val]
            out[f"{entry}:{i}:{item['object']}:{item['check']}"] = argv
    return out


def child_env() -> dict:
    """Environment for a child interpreter that imports leibnizkit from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cli_subprocess(argv: List[str], env: dict, rss_kb: List[int]) -> int:
    proc = subprocess.Popen([sys.executable, "-m", "leibnizkit", *argv], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_kb.append(usage.ru_maxrss)
    return proc.returncode


def _cli_inprocess(argv: List[str]) -> int:
    from leibnizkit import cli

    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        return cli.main(argv)


def _cli_check(seed: int, reference: dict) -> Workload:
    from leibnizkit import catalog as cat

    requests = cli_requests(cat.load_catalog())
    env = child_env()
    rss_kb: List[int] = []
    ops, inproc = [], []
    for rid, argv in requests.items():
        expected = reference["cli"].get(rid)
        ops.append(Op(rid, lambda argv=argv: _cli_subprocess(argv, env, rss_kb), expected=expected))
        inproc.append(Op(rid, lambda argv=argv: _cli_inprocess(argv), expected=expected))
    return Workload("cli-check", ops, inproc_ops=inproc, child_rss_kb=rss_kb,
                    fresh_processes=True)


BUILDERS = {
    "search-fp": _search_fp,
    "suite-catalog": _suite_catalog,
    "bracket-dgla": _bracket_dgla,
    "cli-check": _cli_check,
}


def build(name: str, seed: int, reference: dict, limit: Optional[int] = None) -> Workload:
    """Set up a workload: import, catalog load and input generation.
    ``limit`` keeps only the first operations (a slice for the smoke test)."""
    workload = BUILDERS[name](seed, reference)
    if limit is not None:
        workload.ops = workload.ops[:limit]
        if workload.inproc_ops is not None:
            workload.inproc_ops = workload.inproc_ops[:limit]
    return workload
