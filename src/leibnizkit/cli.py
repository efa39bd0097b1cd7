"""Batch command-line interface.

Exit codes: 0 = all checks clean, 1 = a mathematical check failed,
2 = usage or file-format error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from .algebras import (
    LeibnizAlgebra,
    Representation,
    dual_representation,
    semidirect_sum,
)
from .checks import (
    CHECK_NAMES,
    OBJECT_FLAGS,
    _kn_and_rep,
    _resolve_algebra,
    _resolve_rep,
    run_check,
)
from .errors import LeibnizKitError, ParseError
from .io import (
    SpecFile,
    algebra_doc,
    kn_doc,
    load_spec,
    operator_doc,
    parse_field,
    representation_doc,
    serialize_spec,
)
from .linalg import Matrix
from .operators import (
    LinearOperator,
    deformed_bracket,
    lifted_algebra,
    subadjacent_algebra,
)

# The modules only one command runs (search, suites, the catalog, and the
# dgla, forms and pairs constructions) are imported inside its handler, so a
# `check` process never loads them.

USAGE_ERROR = 2
CHECK_FAILED = 1


def _fail_usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return USAGE_ERROR


def _report_payload(report) -> dict:
    return {
        "ok": report.ok,
        "violations": [
            {
                "identity": v.identity,
                "index": list(v.index),
                "lhs": [str(x) for x in v.lhs],
                "rhs": [str(x) for x in v.rhs],
            }
            for v in report.violations
        ],
        "notes": report.notes,
    }


def cmd_check(args) -> int:
    extra = {key: getattr(args, key) for key in OBJECT_FLAGS if getattr(args, key)}
    try:
        report = run_check(load_spec(args.file), args.object, args.check, extra,
                           consequences=not args.no_consequences)
    except (OSError, ParseError) as exc:
        return _fail_usage(str(exc))
    except LeibnizKitError as exc:
        print(f"precondition failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return CHECK_FAILED
    if args.format == "json":
        print(json.dumps(_report_payload(report), sort_keys=True, indent=2))
    else:
        if report.ok:
            print(f"{args.object}: {args.check}: ok")
        else:
            print(f"{args.object}: {args.check}: {report.summary()}")
        for key, val in report.notes.items():
            print(f"  note {key}: {val}")
    return 0 if report.ok else CHECK_FAILED


CONSTRUCTIONS = (
    "dual-rep", "semidirect", "subadjacent", "lifted", "deformed",
    "theta-twist", "dual-kn-from-mc", "mc-from-dual-kn", "sharp",
    "dual-kn-from-compatible",
)


def cmd_construct(args) -> int:
    from .dgla import dual_kn_from_mc, mc_from_dual_kn, theta_twist
    from .forms import sharp_map
    from .pairs import dual_kn_from_compatible

    out_objects: Dict[str, dict] = {}

    def need(flag: str) -> str:
        val = getattr(args, flag.replace("-", "_"), None)
        if not val:
            raise ParseError(f"construction {args.construction!r} needs --{flag}")
        return val

    def named_rep():
        """The representation that --rep names, and the name of its algebra."""
        name = need("rep")
        return spec.rep_for(name), spec.raw[name]["algebra"]

    try:
        spec = load_spec(args.file)
        f, cons = spec.fieldspec, args.construction
        if cons == "dual-rep":
            rep, alg_name = named_rep()
            dual = dual_representation(rep)
            out_objects[alg_name] = algebra_doc(f, rep.algebra)
            out_objects["dual_rep"] = representation_doc(f, dual, alg_name)
        elif cons == "semidirect":
            rep = spec.rep_for(need("rep"))
            out_objects["semidirect"] = algebra_doc(f, semidirect_sum(rep))
        elif cons == "subadjacent":
            K = spec.build(need("K"), "operator")
            rep = _resolve_rep(spec, args.rep, K)
            _, alg = subadjacent_algebra(K, rep)
            out_objects["subadjacent"] = algebra_doc(f, alg)
        elif cons == "lifted":
            K = spec.build(need("K"), "operator")
            rep = _resolve_rep(spec, args.rep, K)
            out_objects["lifted"] = algebra_doc(f, lifted_algebra(K, rep))
            out_objects["tw_lifted"] = {
                "type": "twilled", "algebra": "lifted",
                "n1": rep.algebra.dim, "n2": rep.mdim,
            }
        elif cons == "deformed":
            N = spec.build(need("N"), "operator")
            deformed = deformed_bracket(N, _resolve_algebra(spec, N, vars(args)))
            out_objects["deformed"] = algebra_doc(f, deformed, verified=deformed.is_leibniz)
        elif cons == "theta-twist":
            K = spec.build(need("K"), "operator")
            rep = _resolve_rep(spec, args.rep, K)
            theta = spec.build(need("theta"), "operator").matrix
            g_theta, rho_theta, total = theta_twist(K, rep, theta)
            out_objects["twisted"] = algebra_doc(f, g_theta)
            out_objects["twisted_action"] = representation_doc(f, rho_theta, "twisted")
            out_objects["twisted_total"] = algebra_doc(f, total)
        elif cons == "dual-kn-from-mc":
            K = spec.build(need("K"), "operator")
            theta = spec.build(need("theta"), "operator").matrix
            rep, alg_name = named_rep()
            kn = dual_kn_from_mc(K, rep, theta)
            out_objects["kn"] = kn_doc(f, kn, alg_name, args.rep)
        elif cons == "mc-from-dual-kn":
            kn, rep = _kn_and_rep(spec, need("kn"), args.rep, f"construction {cons!r} needs --rep")
            theta = mc_from_dual_kn(kn, rep)
            out_objects["theta"] = operator_doc(f, LinearOperator(theta, "algebra", "module"))
        elif cons == "sharp":
            pi = spec.build(need("pi"), "tensor2")
            out_objects["sharp"] = operator_doc(f, sharp_map(pi))
        elif cons == "dual-kn-from-compatible":
            K1 = spec.build(need("K1"), "operator")
            K2 = spec.build(need("K2"), "operator")
            rep, alg_name = named_rep()
            kn1, kn2 = dual_kn_from_compatible(K1, K2, rep)
            out_objects["kn_first"] = kn_doc(f, kn1, alg_name, args.rep)
            out_objects["kn_second"] = kn_doc(f, kn2, alg_name, args.rep)
        else:
            return _fail_usage(f"unknown construction {cons!r} "
                               f"(known: {', '.join(CONSTRUCTIONS)})")
    except (OSError, ParseError) as exc:
        return _fail_usage(str(exc))
    except LeibnizKitError as exc:
        print(f"construction failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return CHECK_FAILED
    out = SpecFile(f, out_objects)
    sys.stdout.write(serialize_spec(out))
    return 0


def cmd_search(args) -> int:
    from .search import DEFAULT_BUDGET, SearchSpec, enumerate_bn_pairs, enumerate_operators
    from .twilled import TwilledContext

    predicate = args.predicate.replace("-", "_")
    try:
        spec = load_spec(args.file)
        fieldspec = parse_field(args.field) if args.field else spec.fieldspec
        alg_name = args.algebra
        if alg_name is None:
            names = spec.names_of("algebra")
            alg_name = names[0] if len(names) == 1 else "alg"
        algebra = None
        if alg_name in spec.raw:
            algebra = LeibnizAlgebra(fieldspec, spec.build(alg_name, "algebra").c)
        rep = None
        if args.rep:
            base = spec.rep_for(args.rep)
            rep = Representation(LeibnizAlgebra(fieldspec, base.algebra.c),
                                 [Matrix(fieldspec, m.entries) for m in base.rhoL],
                                 [Matrix(fieldspec, m.entries) for m in base.rhoR])
        ctx = None
        if args.ctx:
            built = spec.build(args.ctx, "twilled")
            ctx = TwilledContext(LeibnizAlgebra(fieldspec, built.total.c), built.n1, built.n2)
        # bn-pair searches the algebra's dim x dim matrices, whatever --rep is
        if predicate == "mc_strong" and ctx is not None:
            shape = (ctx.n2, ctx.n1)
        elif algebra is not None and (rep is None or predicate == "bn_pair"):
            shape = (algebra.dim, algebra.dim)
        elif rep is not None:
            shape = (rep.algebra.dim, rep.mdim)
        else:
            return _fail_usage("no search target (need an algebra, rep or context)")
        if args.shape:
            rows, _, cols = args.shape.partition("x")
            try:
                shape = (int(rows), int(cols))
                if min(shape) < 0:
                    raise ValueError
            except ValueError:
                raise ParseError(f"--shape must look like 2x3, got {args.shape!r}") from None
            if predicate == "bn_pair" and algebra is not None and shape != (algebra.dim,) * 2:
                n = algebra.dim
                raise ParseError(f"bn-pair searches {n}x{n} matrices, got --shape {args.shape}")
        if args.budget is not None and args.budget < 0:
            raise ParseError(f"--budget must be nonnegative, got {args.budget}")
        budget = DEFAULT_BUDGET if args.budget is None else args.budget
        sspec = SearchSpec(fieldspec, shape, predicate, algebra=algebra, rep=rep,
                           ctx=ctx, budget=budget)
        if predicate == "bn_pair":
            pairs = enumerate_bn_pairs(sspec, workers=args.workers)
            payload = {
                "predicate": predicate,
                "field": str(fieldspec),
                "count": len(pairs),
                "results": [
                    {"form": [[fieldspec.format(v) for v in row] for row in b.entries],
                     "operator": [[fieldspec.format(v) for v in row] for row in n.entries]}
                    for b, n in pairs
                ],
            }
        else:
            mats = enumerate_operators(sspec, workers=args.workers)
            payload = {
                "predicate": predicate,
                "field": str(fieldspec),
                "count": len(mats),
                "results": [
                    [[fieldspec.format(v) for v in row] for row in m.entries] for m in mats
                ],
            }
    except (OSError, ParseError) as exc:
        return _fail_usage(str(exc))
    except LeibnizKitError as exc:
        print(f"search failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return CHECK_FAILED
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def cmd_suite(args) -> int:
    from .catalog import catalog_names, load_catalog
    from .suites import SUITES, run_suites, suite_expected_verdicts

    try:
        catalog = load_catalog()
    except (OSError, ParseError) as exc:
        return _fail_usage(str(exc))
    names: Optional[List[str]] = None
    if not args.all:
        if not args.names:
            return _fail_usage("pass suite/catalog names or --all")
        names = []
        for name in args.names:
            if name in SUITES:
                names.append(name)
            elif name in catalog:
                pass  # handled below as an entry-restricted verdict run
            else:
                return _fail_usage(
                    f"unknown suite or catalog entry {name!r} "
                    f"(suites: {', '.join(sorted(SUITES))}; entries: {', '.join(catalog_names())})"
                )
    results = []
    if args.all:
        results = run_suites(catalog)
    else:
        suite_names = [n for n in args.names if n in SUITES]
        entry_names = [n for n in args.names if n in catalog and n not in SUITES]
        if suite_names:
            results += run_suites(catalog, suite_names)
        for entry in entry_names:
            results.append(suite_expected_verdicts({entry: catalog[entry]}))
            results[-1].name = f"expected-verdicts[{entry}]"
    ok = all(r.ok for r in results)
    if args.format == "json":
        payload = {
            "ok": ok,
            "suites": {
                r.name: {"passed": r.passed, "failed": len(r.failures),
                         "failures": r.failures}
                for r in results
            },
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        width = max(len(r.name) for r in results) if results else 0
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            print(f"{status}  {r.name:<{width}}  {r.passed} checks"
                  + (f", {len(r.failures)} failures" if r.failures else ""))
            for failure in r.failures[:10]:
                print(f"      - {failure}")
        print(("all suites passed" if ok else "SUITE FAILURES PRESENT"))
    return 0 if ok else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibnizkit",
        description="Exact verification and search for operators on Leibniz algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a named check on a file object")
    p_check.add_argument("file")
    p_check.add_argument("object")
    p_check.add_argument("check", choices=CHECK_NAMES)
    for flag in OBJECT_FLAGS:
        p_check.add_argument(f"--{flag}")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--no-consequences", action="store_true")
    p_check.set_defaults(fn=cmd_check)

    p_cons = sub.add_parser("construct", help="build derived objects and print them")
    p_cons.add_argument("file")
    p_cons.add_argument("construction", choices=CONSTRUCTIONS)
    for flag in ("rep", "algebra", "K", "N", "S", "theta", "kn", "pi", "K1", "K2"):
        p_cons.add_argument(f"--{flag}")
    p_cons.set_defaults(fn=cmd_construct)

    p_search = sub.add_parser("search", help="exhaustively enumerate operators over F_p")
    p_search.add_argument("file")
    p_search.add_argument("--predicate", required=True,
                          choices=("kupershmidt", "nijenhuis", "rota-baxter",
                                   "rota_baxter", "mc-strong", "mc_strong", "bn-pair",
                                   "bn_pair"))
    p_search.add_argument("--field")
    p_search.add_argument("--algebra")
    p_search.add_argument("--rep")
    p_search.add_argument("--ctx")
    p_search.add_argument("--shape")
    p_search.add_argument("--budget", type=int)  # None: search.DEFAULT_BUDGET
    p_search.add_argument("--workers", type=int, default=1,
                          help="accepted for compatibility; the scan runs in one thread "
                               "and its results are the same for every value")
    p_search.set_defaults(fn=cmd_search)

    p_suite = sub.add_parser("suite", help="run theorem suites over the bundled catalog")
    p_suite.add_argument("names", nargs="*")
    p_suite.add_argument("--all", action="store_true")
    p_suite.add_argument("--format", choices=("text", "json"), default="text")
    p_suite.set_defaults(fn=cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
