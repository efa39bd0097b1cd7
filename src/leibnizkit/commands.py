"""The construct, search and suite commands of the batch CLI, and the file
objects (``algebra_doc`` and the others) that ``construct`` writes.

``cli.main`` imports this module only for these commands, so a ``check``
process never compiles it, nor the sums and lifts of ``twilled`` that only
a construction runs.  The modules one command runs (search, suites, the
catalog, and the dgla, forms and pairs constructions) are imported inside
its handler.
"""

from __future__ import annotations

import json
import sys
from typing import Dict

from .algebras import LeibnizAlgebra, Representation, dual_representation
from .checks import (CONSTRUCT_FLAGS, CONSTRUCTIONS, _kn_and_rep, _refuse_unread,
                     _resolve_algebra, _resolve_rep)
from .errors import CHECK_FAILED, LeibnizKitError, ParseError, _fail_usage
from .fields import FieldSpec
from .io import SpecFile, load_spec, parse_field, serialize_spec
from .linalg import LinearOperator, Matrix
from .operators import deformed_bracket, subadjacent_algebra
from .twilled import TwilledContext, lifted_algebra, semidirect_sum

# The file objects of constructed objects, scalars in ``FieldSpec.format``'s text.


def _format_matrix(f: FieldSpec, m: Matrix) -> list:
    return [[f.format(v) for v in row] for row in m.entries]


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
        _refuse_unread(f"construction {cons!r}",
                       [flag for flag in CONSTRUCT_FLAGS if getattr(args, flag)],
                       CONSTRUCTIONS[cons])
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
            out_objects["subadjacent"] = algebra_doc(f, subadjacent_algebra(K, rep))
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
    except (OSError, ParseError) as exc:
        return _fail_usage(str(exc))
    except LeibnizKitError as exc:
        print(f"construction failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return CHECK_FAILED
    out = SpecFile(f, out_objects)
    print(serialize_spec(out), end="")
    return 0


def cmd_search(args) -> int:
    from .search import DEFAULT_BUDGET, PREDICATES, SearchSpec, enumerate_operators

    predicate = args.predicate.replace("-", "_")
    row = PREDICATES[predicate]
    try:
        spec = load_spec(args.file)
        fieldspec = parse_field(args.field) if args.field else spec.fieldspec
        alg_name = args.algebra
        if alg_name is None:
            names = spec.names_of("algebra")
            alg_name = names[0] if len(names) == 1 else "alg"
        algebra = None
        # a named --algebra must exist; the default may be missing
        if args.algebra is not None or alg_name in spec.raw:
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
        if args.budget is not None and args.budget < 0:
            raise ParseError(f"--budget must be nonnegative, got {args.budget}")
        budget = DEFAULT_BUDGET if args.budget is None else args.budget
        # the structure the predicate needs gives the shape; without it the
        # search fails naming it
        sspec = SearchSpec(fieldspec, None, predicate, algebra=algebra, rep=rep,
                           ctx=ctx, budget=budget)
        hits = enumerate_operators(sspec)
        doc = lambda m: [[fieldspec.format(v) for v in r] for r in m.entries]
        payload = {
            "predicate": predicate,
            "field": str(fieldspec),
            "count": len(hits),
            # one block prints as its matrix, several as a dict by block name
            "results": [doc(hit) if len(row.blocks) == 1 else
                        {name: doc(m) for (name, _), m in zip(row.blocks, hit)} for hit in hits],
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
    if args.all and args.names:
        return _fail_usage("pass suite/catalog names or --all, not both")
    if not args.all and not args.names:
        return _fail_usage("pass suite/catalog names or --all")
    suite_names, entry_names = [], []
    for name in args.names:
        if name in SUITES:
            suite_names.append(name)
        elif name in catalog:
            entry_names.append(name)  # an entry-restricted verdict run
        else:
            return _fail_usage(
                f"unknown suite or catalog entry {name!r} "
                f"(suites: {', '.join(sorted(SUITES))}; entries: {', '.join(catalog_names())})"
            )
    results = run_suites(catalog, None if args.all else suite_names)
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
