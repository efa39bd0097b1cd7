"""Name-based check dispatch: resolves objects from a SpecFile and runs the
corresponding verifier.  Used by the CLI and the expected-verdict runner."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .algebras import (
    LeibnizAlgebra,
    Representation,
    check_leibniz,
    check_representation,
    dual_representation,
    regular_representation,
)
from .errors import ParseError
from .io import SpecFile
from .operators import (
    LinearOperator,
    check_compatible,
    check_kupershmidt,
    check_nijenhuis,
    check_nk_condition,
    check_rota_baxter,
)
from .reports import CheckReport

# ``io`` already loads algebras and operators; the checkers of pairs, forms
# and dgla are imported in their own branch of ``run_check``, so a check loads
# only the modules it runs.

# Each check with the flags it reads; any other flag is a usage error.
# ``no-consequences`` stands for ``consequences=False``.
_CHECK_FLAGS: Dict[str, Tuple[str, ...]] = {
    "leibniz": (),
    "representation": (),
    "kupershmidt": ("rep",),
    "nijenhuis": ("algebra",),
    "rota-baxter": ("algebra",),
    "compatible": ("other", "rep"),
    "nk-condition": ("K", "rep"),
    "nijenhuis-pair": ("S", "rep"),
    "dual-nijenhuis-pair": ("S", "rep"),
    "perfect-pair": ("S", "rep"),
    "kn-structure": ("rep", "no-consequences"),
    "maurer-cartan": ("ctx",),
    "maurer-cartan-strong": ("ctx",),
    "ybe": (),
    "rn-structure": ("N", "no-consequences"),
    "rbn-structure": ("N", "algebra"),
    "quadratic": ("no-consequences",),
    "bn-structure": ("N", "no-consequences"),
    "transfer": ("R", "N"),
}
CHECK_NAMES = tuple(_CHECK_FLAGS)


def _built(spec: SpecFile, name: str, cls: type = LinearOperator, noun: str = "an operator"):
    """The object ``name`` of ``spec``, which must be a ``cls``; else a
    ParseError that ``name`` is not ``noun``."""
    obj = spec.build(name)
    if not isinstance(obj, cls):
        raise ParseError(f"{name!r} is not {noun}")
    return obj


def _flag(args: Dict, key: str, check: str) -> str:
    if not args.get(key):
        raise ParseError(f"check {check!r} needs --{key}")
    return args[key]


def _resolve_algebra(spec: SpecFile, op: LinearOperator, args: Dict) -> LeibnizAlgebra:
    if args.get("algebra"):
        return _built(spec, args["algebra"], LeibnizAlgebra, "an algebra")
    for tag in (op.codomain, op.domain):
        if tag.startswith("algebra:"):
            return _built(spec, tag.split(":", 1)[1], LeibnizAlgebra, "an algebra")
    names = spec.names_of("algebra")
    if len(names) == 1:
        return spec.build(names[0])
    raise ParseError("ambiguous algebra; pass --algebra")


def _resolve_rep(spec: SpecFile, name: Optional[str],
                 op: Optional[LinearOperator]) -> Representation:
    """The representation named ``name``; else the one the operator's tags
    imply: a ``module:R`` domain is R, a ``dual:A`` domain the dual of A's
    regular representation, an ``algebra:A`` codomain or domain A's regular
    representation; else the file's only representation."""
    if name:
        return spec.rep_for(name)
    if op is not None:
        tag = op.domain
        if tag.startswith("module:"):
            return spec.rep_for(tag.split(":", 1)[1])
        if tag.startswith("dual:"):
            return dual_representation(regular_representation(spec.build(tag.split(":", 1)[1])))
        for t in (op.codomain, op.domain):
            if t.startswith("algebra:"):
                return regular_representation(spec.build(t.split(":", 1)[1]))
    names = spec.names_of("representation")
    if len(names) == 1:
        return spec.rep_for(names[0])
    raise ParseError("ambiguous representation; pass --rep")


def run_check(spec: SpecFile, object_name: str, check: str, args: Optional[Dict] = None,
              consequences: bool = True) -> CheckReport:
    args = dict(args or {})
    if check not in _CHECK_FLAGS:
        raise ParseError(f"unknown check {check!r} (known: {', '.join(CHECK_NAMES)})")
    given = list(args) + ([] if consequences else ["no-consequences"])
    unread = [f"--{key}" for key in given if key not in _CHECK_FLAGS[check]]
    if unread:
        raise ParseError(f"check {check!r} does not take {', '.join(unread)}")
    if check == "leibniz":
        return check_leibniz(_built(spec, object_name, LeibnizAlgebra, "an algebra"))
    if check == "representation":
        return check_representation(
            _built(spec, object_name, Representation, "a representation"))
    if check == "kupershmidt":
        K = _built(spec, object_name)
        return check_kupershmidt(K, _resolve_rep(spec, args.get("rep"), K))
    if check == "nijenhuis":
        N = _built(spec, object_name)
        return check_nijenhuis(N, _resolve_algebra(spec, N, args))
    if check == "rota-baxter":
        R = _built(spec, object_name)
        return check_rota_baxter(R, _resolve_algebra(spec, R, args))
    if check == "compatible":
        K = _built(spec, object_name)
        other = _built(spec, _flag(args, "other", check))
        return check_compatible(K, other, _resolve_rep(spec, args.get("rep"), K))
    if check == "nk-condition":
        N = _built(spec, object_name)
        K = _built(spec, _flag(args, "K", check))
        return check_nk_condition(N, K, _resolve_rep(spec, args.get("rep"), K))
    if check in ("nijenhuis-pair", "dual-nijenhuis-pair", "perfect-pair"):
        from .pairs import (
            OperatorPair,
            check_dual_nijenhuis_pair,
            check_nijenhuis_pair,
            check_perfect_pair,
        )

        N = _built(spec, object_name)
        S = _built(spec, _flag(args, "S", check))
        rep = _resolve_rep(spec, args.get("rep"), None)
        pair = OperatorPair(N, S)
        fn = {
            "nijenhuis-pair": check_nijenhuis_pair,
            "dual-nijenhuis-pair": check_dual_nijenhuis_pair,
            "perfect-pair": check_perfect_pair,
        }[check]
        return fn(pair, rep)
    if check == "kn-structure":
        from .pairs import KNStructure, check_kn_structure

        kn = _built(spec, object_name, KNStructure, "a KN structure")
        rep_name = args.get("rep") or spec.raw[object_name].get("rep")
        if rep_name is None:
            raise ParseError("kn-structure check needs a representation")
        return check_kn_structure(kn, spec.rep_for(rep_name), consequences=consequences)
    if check in ("maurer-cartan", "maurer-cartan-strong"):
        from .dgla import check_maurer_cartan
        from .twilled import TwilledContext

        theta = _built(spec, object_name)
        ctx = _built(spec, _flag(args, "ctx", check), TwilledContext, "a twilled context")
        return check_maurer_cartan(ctx, theta.matrix, strong=check.endswith("strong"))
    if check in ("ybe", "rn-structure"):
        from .forms import Tensor2, check_rn_structure, check_ybe

        pi = _built(spec, object_name, Tensor2, "a 2-tensor")
        if check == "ybe":
            return check_ybe(pi.algebra, pi)
        N = _built(spec, _flag(args, "N", check))
        return check_rn_structure(pi.algebra, pi, N, consequences=consequences)
    if check == "rbn-structure":
        from .forms import check_rbn_structure

        R = _built(spec, object_name)
        N = _built(spec, _flag(args, "N", check))
        return check_rbn_structure(_resolve_algebra(spec, R, args), R, N)
    if check in ("quadratic", "bn-structure", "transfer"):
        from .forms import BilinearForm, check_bn_structure, check_quadratic, rbn_rn_transfer

        q = _built(spec, object_name, BilinearForm, "a form")
        if check == "quadratic":
            return check_quadratic(q.algebra, q, consequences=consequences)
        if check == "bn-structure":
            N = _built(spec, _flag(args, "N", check))
            return check_bn_structure(q.algebra, q, N, consequences=consequences)
        R = _built(spec, _flag(args, "R", check))
        N = _built(spec, _flag(args, "N", check))
        return rbn_rn_transfer(q.algebra, q, R, N)
    raise ParseError(f"unhandled check {check!r}")
