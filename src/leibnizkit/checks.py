"""Name-based check dispatch: resolves objects from a SpecFile and runs the
corresponding verifier.  Used by the CLI and the expected-verdict runner.
The flags each check and each construction reads are tabled here, and any
other flag is refused.

Every object a check reaches is looked up by kind through
``SpecFile.build(name, kind)``: the check's target, the objects its flags
name, and the algebra or representation that an operator's ``algebra:``,
``dual:`` or ``module:`` tag names.  A name of another kind is a ParseError
(exit 2) before anything is built."""

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
from .linalg import LinearOperator
from .reports import CheckReport

# The checkers of operators, pairs, forms and dgla are imported in their own
# branch of ``run_check``, so a check loads only the modules it runs: the
# algebra and representation checks load none of them.

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
# The flags that name an object, in the order ``check --help`` lists them:
# every flag of ``_CHECK_FLAGS`` but ``no-consequences``.
OBJECT_FLAGS = ("rep", "algebra", "other", "K", "N", "S", "R", "ctx")

# Each construction with the flags ``commands.cmd_construct`` reads for it;
# it refuses any other.  The parser in ``cli`` takes the names from here,
# since ``commands`` does not import ``cli``.  Then the flags of
# ``construct``, in the order its help lists them.
CONSTRUCTIONS: Dict[str, Tuple[str, ...]] = {
    "dual-rep": ("rep",),
    "semidirect": ("rep",),
    "subadjacent": ("K", "rep"),
    "lifted": ("K", "rep"),
    "deformed": ("N", "algebra"),
    "theta-twist": ("K", "theta", "rep"),
    "dual-kn-from-mc": ("K", "theta", "rep"),
    "mc-from-dual-kn": ("kn", "rep"),
    "sharp": ("pi",),
    "dual-kn-from-compatible": ("K1", "K2", "rep"),
}
CONSTRUCT_FLAGS = ("rep", "algebra", "K", "N", "theta", "kn", "pi", "K1", "K2")


def _refuse_unread(command: str, given, reads) -> None:
    """A ParseError naming each flag of ``given`` that ``reads`` lacks."""
    unread = [f"--{key}" for key in given if key not in reads]
    if unread:
        raise ParseError(f"{command} does not take {', '.join(unread)}")


def _flag(args: Dict, key: str, check: str) -> str:
    if not args.get(key):
        raise ParseError(f"check {check!r} needs --{key}")
    return args[key]


def _resolve_algebra(spec: SpecFile, op: LinearOperator, args: Dict) -> LeibnizAlgebra:
    if args.get("algebra"):
        return spec.build(args["algebra"], "algebra")
    for tag in (op.codomain, op.domain):
        if tag.startswith("algebra:"):
            return spec.build(tag.split(":", 1)[1], "algebra")
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
            alg = spec.build(tag.split(":", 1)[1], "algebra")
            return dual_representation(regular_representation(alg))
        for t in (op.codomain, op.domain):
            if t.startswith("algebra:"):
                return regular_representation(spec.build(t.split(":", 1)[1], "algebra"))
    names = spec.names_of("representation")
    if len(names) == 1:
        return spec.rep_for(names[0])
    raise ParseError("ambiguous representation; pass --rep")


def _kn_and_rep(spec: SpecFile, name: str, rep: Optional[str], missing: str):
    """The KN structure ``name`` and the representation ``rep`` names, else
    the one the KN object names; else a ParseError that says ``missing``."""
    kn = spec.build(name, "kn")
    rep = rep or spec.raw[name].get("rep")
    if rep is None:
        raise ParseError(missing)
    return kn, spec.rep_for(rep)


def run_check(spec: SpecFile, object_name: str, check: str, args: Optional[Dict] = None,
              consequences: bool = True) -> CheckReport:
    args = dict(args or {})
    if check not in _CHECK_FLAGS:
        raise ParseError(f"unknown check {check!r} (known: {', '.join(CHECK_NAMES)})")
    given = list(args) + ([] if consequences else ["no-consequences"])
    _refuse_unread(f"check {check!r}", given, _CHECK_FLAGS[check])
    if check == "leibniz":
        return check_leibniz(spec.build(object_name, "algebra"))
    if check == "representation":
        return check_representation(spec.build(object_name, "representation"))
    if check == "kupershmidt":
        from .operators import check_kupershmidt

        K = spec.build(object_name, "operator")
        return check_kupershmidt(K, _resolve_rep(spec, args.get("rep"), K))
    if check in ("nijenhuis", "rota-baxter"):
        from .operators import check_nijenhuis, check_rota_baxter

        T = spec.build(object_name, "operator")
        fn = check_nijenhuis if check == "nijenhuis" else check_rota_baxter
        return fn(T, _resolve_algebra(spec, T, args))
    if check == "compatible":
        from .operators import check_compatible

        K = spec.build(object_name, "operator")
        other = spec.build(_flag(args, "other", check), "operator")
        return check_compatible(K, other, _resolve_rep(spec, args.get("rep"), K))
    if check == "nk-condition":
        from .operators import check_nk_condition

        N = spec.build(object_name, "operator")
        K = spec.build(_flag(args, "K", check), "operator")
        return check_nk_condition(N, K, _resolve_rep(spec, args.get("rep"), K))
    if check in ("nijenhuis-pair", "dual-nijenhuis-pair", "perfect-pair"):
        from .pairs import (
            OperatorPair,
            check_dual_nijenhuis_pair,
            check_nijenhuis_pair,
            check_perfect_pair,
        )

        N = spec.build(object_name, "operator")
        S = spec.build(_flag(args, "S", check), "operator")
        rep = _resolve_rep(spec, args.get("rep"), None)
        pair = OperatorPair(N, S)
        fn = {
            "nijenhuis-pair": check_nijenhuis_pair,
            "dual-nijenhuis-pair": check_dual_nijenhuis_pair,
            "perfect-pair": check_perfect_pair,
        }[check]
        return fn(pair, rep)
    if check == "kn-structure":
        from .pairs import check_kn_structure

        kn, rep = _kn_and_rep(spec, object_name, args.get("rep"),
                              "kn-structure check needs a representation")
        return check_kn_structure(kn, rep, consequences=consequences)
    if check in ("maurer-cartan", "maurer-cartan-strong"):
        from .dgla import check_maurer_cartan

        theta = spec.build(object_name, "operator")
        ctx = spec.build(_flag(args, "ctx", check), "twilled")
        return check_maurer_cartan(ctx, theta.matrix, strong=check.endswith("strong"))
    if check in ("ybe", "rn-structure"):
        from .forms import check_rn_structure, check_ybe

        pi = spec.build(object_name, "tensor2")
        if check == "ybe":
            return check_ybe(pi.algebra, pi)
        N = spec.build(_flag(args, "N", check), "operator")
        return check_rn_structure(pi.algebra, pi, N, consequences=consequences)
    if check == "rbn-structure":
        from .forms import check_rbn_structure

        R = spec.build(object_name, "operator")
        N = spec.build(_flag(args, "N", check), "operator")
        return check_rbn_structure(_resolve_algebra(spec, R, args), R, N)
    if check in ("quadratic", "bn-structure", "transfer"):
        from .forms import check_bn_structure, check_quadratic, rbn_rn_transfer

        q = spec.build(object_name, "form")
        if check == "quadratic":
            return check_quadratic(q.algebra, q, consequences=consequences)
        if check == "bn-structure":
            N = spec.build(_flag(args, "N", check), "operator")
            return check_bn_structure(q.algebra, q, N, consequences=consequences)
        R = spec.build(_flag(args, "R", check), "operator")
        N = spec.build(_flag(args, "N", check), "operator")
        return rbn_rn_transfer(q.algebra, q, R, N)
    raise ParseError(f"unhandled check {check!r}")
