"""Theorem suites: every structural implication the library asserts, run as
executable properties over the bundled catalog.  Each suite returns the count
of checked assertions plus the list of failures; the batch runner aggregates
them for the CLI.

Fifteen suites check one assertion per case, and are rows of ``_CASE_SUITES``.
A case source takes the ``_L2`` fixture and returns ``(label, *args)`` tuples;
an assertion takes ``*args`` and returns True when the implication holds.
``_run_cases`` counts a case as passed only when its assertion returns True:
any other return, or a ``LeibnizKitError`` it raises, fails the case.  Where
the cases check different conclusions of one transfer (compatible-to-dual-kn,
dual-kn-to-mc), each case carries its check of the transfer's result.  A new
source of instances, an exhaustive one say, is one more case source next to an
unchanged assertion.

Six suites stay functions, since they make several checks per case or one
over all cases: expected-verdicts, mc-equivalence (three formulations agree),
pair-dualization and compatibility-criterion (a biconditional, with counts of
true and false instances), nk-composition and quadratic-transfer.
"""

from __future__ import annotations

from functools import partial
from random import Random
from typing import Callable, Dict, List, Optional

from .algebras import LeibnizAlgebra, Representation, check_leibniz, check_representation
from .checks import run_check
from .dgla import (_lifted_context, check_maurer_cartan, dual_kn_from_mc, mc_cochain_defects,
                   mc_from_dual_kn, theta_twist, tilde_varrho_bracket)
from .errors import LeibnizKitError
from .forms import Tensor2, check_rn_structure, form_sharp_matrix
from .linalg import LinearOperator, Matrix, is_invertible
from .operators import (_equivariance_sides, check_compatible, check_kupershmidt, check_nijenhuis,
                        check_nk_condition, nijenhuis_from_compatible)
from .pairs import (KNStructure, check_dual_nijenhuis_pair, check_kn_structure,
                    check_nijenhuis_pair, compatible_from_kn, deformation_from_pair,
                    dual_kn_from_compatible, hat_tilde_representations, kn_to_dual_kn, make_pair,
                    sum_nijenhuis_on_twilled)
from .reports import _Record
from .search import mc_solutions_from_linear_layer
from .twilled import TwilledContext, check_matched_pair

# mc-equivalence adds this many random thetas, entries in [-2, 2], to the
# solutions of the linear layer, drawn from Random(_MC_SEED).
_MC_NONSOLUTIONS = 12
_MC_SEED = 20


class SuiteResult(_Record):
    """A suite's count of passed assertions and its failure labels; mutable
    while the suite runs, so unhashable."""

    __slots__ = ("name", "passed", "failures")

    def __init__(self, name: str, passed: int = 0, failures: Optional[List[str]] = None):
        self.name = name
        self.passed = passed
        self.failures = [] if failures is None else failures

    __hash__ = None

    def check(self, condition: bool, label: str):
        if condition:
            self.passed += 1
        else:
            self.failures.append(label)

    def run(self, label: str, fn: Callable):
        """Count an assertion that returns True.  Any other return value, or
        a LeibnizKitError it raises, fails the case under its label, so an
        assertion that forgets its ``return`` cannot pass."""
        try:
            self.check(fn() is True, label)
        except LeibnizKitError as exc:
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")

    @property
    def ok(self) -> bool:
        return not self.failures


class _L2:
    """The catalog's l2 entry and what the suites take from it: ``build``,
    the regular and dual representations, the field ``f`` and the 2x2 zero
    ``Z`` and identity ``I``.  ``catalog`` is there for the suites that use
    other entries as well."""

    def __init__(self, catalog):
        self.catalog = catalog
        self.spec = catalog["l2"].spec
        self.build = self.spec.build
        self.reg = self.spec.rep_for("regular")
        self.dual = self.spec.rep_for("dual")
        self.f = self.spec.fieldspec
        self.Z = Matrix.zeros(self.f, 2, 2)
        self.I = Matrix.identity(self.f, 2)


def _kupershmidt_cases(catalog):
    """(label, operator, representation) triples of verified Kupershmidt maps."""
    l2 = _L2(catalog)
    return [
        ("l2/R", l2.build("R"), l2.reg),
        ("l2/R2", l2.build("R2"), l2.reg),
        ("l2/R32", l2.build("R32"), l2.reg),
        ("l2/zero", LinearOperator(l2.Z, "module:regular", "algebra:alg"), l2.reg),
        ("l2/Bsharp", l2.build("Bsharp"), l2.dual),
        ("l2/NBsharp", l2.build("NBsharp"), l2.dual),
    ]


def suite_expected_verdicts(catalog) -> SuiteResult:
    """Every catalog entry reproduces its recorded check verdicts exactly."""
    res = SuiteResult("expected-verdicts")
    for name, entry in sorted(catalog.items()):
        spec = entry.spec
        for item in spec.expected:
            label = f"{name}:{item['object']}:{item['check']}"
            try:
                report = run_check(spec, item["object"], item["check"], item.get("args"))
            except LeibnizKitError as exc:
                res.check(item["ok"] is False and bool(item.get("precondition_fails")),
                          f"{label} raised {type(exc).__name__}")
                continue
            res.check(report.ok == item["ok"], label)
    return res


def suite_mc_equivalence(catalog) -> SuiteResult:
    """Strong Maurer-Cartan solutions on lifted sums: the elementwise, the
    operator-specialized, and the graded-bracket formulations agree on
    solutions found by the linear layer and on seeded non-solutions."""
    res = SuiteResult("mc-equivalence")
    rng = Random(_MC_SEED)
    for label, K, rep in _kupershmidt_cases(catalog):
        f = rep.algebra.field
        vr, ctx = _lifted_context(K, rep)
        res.run(f"{label}: zero strong", lambda: check_maurer_cartan(
            ctx, Matrix.zeros(f, ctx.n2, ctx.n1), strong=True).ok)
        solutions = mc_solutions_from_linear_layer(ctx)
        res.check(any(m.is_zero() for m in solutions), f"{label}: zero solution found")
        thetas = solutions[:6] + [
            Matrix(f, [[rng.randint(-2, 2) for _ in range(ctx.n1)] for _ in range(ctx.n2)])
            for _ in range(_MC_NONSOLUTIONS)]
        for idx, theta in enumerate(thetas):
            report = check_maurer_cartan(ctx, theta, strong=True)
            strong = report.ok
            weak = all(v.identity != "maurer-cartan" for v in report.violations)
            d, q = mc_cochain_defects(ctx, theta)
            res.check((d + q).is_zero() == weak, f"{label}: gla-weak agreement #{idx}")
            res.check((d.is_zero() and q.is_zero()) == strong,
                      f"{label}: gla-strong agreement #{idx}")
            spec_linear = _operator_locality(rep, theta)
            # [theta y, theta z]^K = theta(vrL(theta y) z + vrR(theta z) y)
            spec_quad = check_kupershmidt(theta, vr).ok
            res.check((spec_linear and spec_quad) == strong,
                      f"{label}: operator-form agreement #{idx}")
    return res


def _operator_locality(rep, theta) -> bool:
    """theta([y,z]) = rhoL(y) theta z + rhoR(z) theta y over the base algebra."""
    lhs, rhs = _equivariance_sides(rep, theta)
    return rep.algebra.field.normalize_all(lhs) == rep.algebra.field.normalize_all(rhs)


def suite_pair_dualization(catalog) -> SuiteResult:
    """(N, S^T) is a dual pair for the contragredient action exactly when
    (N, S) is a pair for the original, in both truth values."""
    res = SuiteResult("pair-dualization")
    l2 = _L2(catalog)
    I = l2.I
    rng = Random(7)
    cases = [
        ("N23/0", l2.build("N23").matrix, l2.Z),
        ("I/3I", I, I.scale(3)),
        ("NpIqE/0", l2.build("NpIqE").matrix, l2.Z),
        ("I/I", I, I),
    ]
    for t in range(40):
        N = Matrix(l2.f, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        S = Matrix(l2.f, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        cases.append((f"random#{t}", N, S))
    positive = negative = 0
    for label, N, S in cases:
        a = check_nijenhuis_pair(make_pair(N, S), l2.reg).ok
        b = check_dual_nijenhuis_pair(make_pair(N, S.transpose()), l2.dual).ok
        res.check(a == b, f"{label}: biconditional")
        positive += a
        negative += (not a)
    res.check(positive >= 3, "at least 3 positive instances")
    res.check(negative >= 3, "at least 3 negative instances")
    return res


def suite_compatibility_criterion(catalog) -> SuiteResult:
    """The mixed identity holds iff sampled linear combinations stay
    Kupershmidt; exercised in both truth values."""
    res = SuiteResult("compatibility-criterion")
    l2 = _L2(catalog)
    cases = [
        ("R,R2", l2.build("R"), l2.build("R2"), l2.reg, True),
        ("R,zero", l2.build("R"), LinearOperator(l2.Z), l2.reg, True),
        ("Bsharp,NBsharp", l2.build("Bsharp"), l2.build("NBsharp"), l2.dual, True),
        ("R,E01", l2.build("R"), l2.build("E01"), l2.reg, False),
    ]
    for label, K1, K2, rep, expect in cases:
        report = check_compatible(K1, K2, rep)
        res.check(report.ok == expect, f"{label}: verdict")
        base_ok = not [v for v in report.violations if v.identity == "compatible"]
        combos_ok = not [v for v in report.violations if v.identity.startswith("combination")]
        if base_ok:
            res.check(combos_ok, f"{label}: identity implies sampled combinations")
        if not expect and base_ok:
            # identity held yet pair marked incompatible: must be a combination failure
            res.check(not combos_ok, f"{label}: combination failure recorded")
        # reverse direction: combination failing forces the identity to fail
        if not combos_ok:
            res.check(not base_ok, f"{label}: contrapositive")
    return res


def suite_nk_composition(catalog) -> SuiteResult:
    """The composition condition agrees with directly checking the composite,
    and an invertible factor upgrades it to compatibility."""
    res = SuiteResult("nk-composition")
    l2 = _L2(catalog)
    R = l2.build("R")
    cases = [
        ("N23,R", l2.build("N23"), R, True),
        ("I,R", l2.build("N11"), R, True),
        ("zero,R", LinearOperator(l2.Z), R, True),
        ("NpIqE,R", l2.build("NpIqE"), R, False),
    ]
    for label, N, K, expect in cases:
        report = check_nk_condition(N, K, l2.reg)
        res.check(report.ok == expect, f"{label}: verdict")
        res.check(
            not any(v.identity == "nk-condition-vs-composite" for v in report.violations),
            f"{label}: two routes agree",
        )
        if expect and is_invertible(N.matrix):
            NK = LinearOperator(N.matrix * K.matrix, K.domain, K.codomain)
            res.run(f"{label}: invertible implies compatible",
                    lambda K=K, NK=NK: check_compatible(K, NK, l2.reg).ok)
    return res


def suite_quadratic_transfer(catalog) -> SuiteResult:
    """Rota-Baxter coupling transfers to the r-matrix coupling through the
    sharp map of an invariant form, including the contrapositive case."""
    res = SuiteResult("quadratic-transfer")
    quad4 = catalog["quad4"].spec
    cases = [
        ("R_pi/N2", "R_pi", "N2", "ok"),
        ("R_B/N2", "R_B", "N2", "ok"),
        ("R_pi/N_block", "R_pi", "N_block", "ok"),
        ("R_bad/N2", "R_bad", "N2", "fail"),
    ]
    for label, rname, nname, side in cases:
        report = run_check(quad4, "q", "transfer", {"R": rname, "N": nname})
        res.check(report.ok, f"{label}: sides agree")
        res.check(report.notes.get("rota-baxter-side") == side, f"{label}: expected side verdict")
    abelian4 = catalog["abelian4"].spec
    report = run_check(abelian4, "q", "transfer", {"R": "R_J", "N": "N_sym"})
    res.check(report.ok, "abelian4: sides agree")
    return res


def _deformation_cases(l2: _L2):
    """(label, pair, representation): Nijenhuis pairs, deformed at t = 1,
    2 and -1/3."""
    N23, NpIqE = l2.build("N23").matrix, l2.build("NpIqE").matrix
    return [
        ("N23/0 on regular", make_pair(N23, l2.Z), l2.reg),
        ("I/I on regular", make_pair(l2.I, l2.I), l2.reg),
        ("NpIqE/0 on regular", make_pair(NpIqE, l2.Z), l2.reg),
        ("N23/0 on dual", make_pair(N23, l2.Z), l2.dual),
        ("0/0 on regular", make_pair(l2.Z, l2.Z), l2.reg),
    ]


def _twilled_pair_cases(l2: _L2):
    """(label, N, S, context): pairs on the twilled sum of l2, acting
    regularly, and the abelian plane, acting by zero."""
    alg = l2.build("alg")
    V = LeibnizAlgebra.abelian(l2.f, 2)
    _, tw = check_matched_pair(alg, V, Representation(alg, l2.reg.rhoL, l2.reg.rhoR),
                               Representation.zero(V, 2))
    ctx = TwilledContext(tw, 2, 2)
    N23, NpIqE = l2.build("N23").matrix, l2.build("NpIqE").matrix
    return [("N23/0", N23, l2.Z, ctx), ("I/2I", l2.I, l2.I.scale(2), ctx),
            ("0/0", l2.Z, l2.Z, ctx), ("NpIqE/0", NpIqE, l2.Z, ctx)]


def _hat_tilde_cases(l2: _L2):
    """(label, pair, representation, 0 for the hat action or 1 for tilde)."""
    N23 = make_pair(l2.build("N23").matrix, l2.Z)
    return [
        ("pair N23/0 regular", N23, l2.reg, 0),
        ("pair I/I regular", make_pair(l2.I, l2.I), l2.reg, 0),
        ("dual pair N23/0 dual", N23, l2.dual, 1),
        ("dual pair from kn", l2.build("kn_dual").pair, l2.dual, 1),
    ]


def _kn_cases(l2: _L2):
    """(label, KN-structure, representation), in both modes."""
    R, Bsharp = l2.build("R"), l2.build("Bsharp")
    return [
        ("l2/kn_dual", l2.build("kn_dual"), l2.dual),
        ("l2/R-0-0", KNStructure(R, make_pair(l2.Z, l2.Z), "kn"), l2.reg),
        ("l2/R-I-I", KNStructure(R, make_pair(l2.I, l2.I), "kn"), l2.reg),
        ("l2/Bsharp-0-0-dualmode", KNStructure(Bsharp, make_pair(l2.Z, l2.Z), "dual-kn"),
         l2.dual),
    ]


def _invertible_kn_cases(l2: _L2):
    """(label, KN-structure, representation) with K invertible."""
    Bsharp = l2.build("Bsharp")
    return [(f"Bsharp-{name}", KNStructure(Bsharp, make_pair(M, M), "kn"), l2.dual)
            for name, M in (("I-I", l2.I), ("0-0", l2.Z))]


def _dual_kn_of_kn(kn, rep) -> bool:
    out = kn_to_dual_kn(kn, rep)
    return out.mode == "dual-kn" and check_kn_structure(out, rep).ok


def _quotient_cases(l2: _L2):
    """(label, K1, K2, representation, K1 K2^-1) for compatible K1, K2."""
    Bsharp = l2.build("Bsharp")
    return [
        ("NBsharp/Bsharp", l2.build("NBsharp"), Bsharp, l2.dual, l2.build("NpIqE").matrix),
        ("3K/K scalar", LinearOperator(Bsharp.matrix.scale(3)), Bsharp, l2.dual, l2.I.scale(3)),
    ]


def _quotient_is_nijenhuis(K1, K2, rep, want) -> bool:
    N = nijenhuis_from_compatible(K1, K2, rep)
    return check_nijenhuis(N, rep.algebra).ok and N.matrix == want


def _compatible_cases(l2: _L2):
    """(label, K1, K2, representation, what the two dual KN-structures that
    the compatible K1, K2 give satisfy)."""
    Bsharp, dual, three = l2.build("Bsharp"), l2.dual, l2.I.scale(3)
    return [
        ("Bsharp,NBsharp", Bsharp, l2.build("NBsharp"), dual,
         lambda a, b: check_kn_structure(a, dual).ok and check_kn_structure(b, dual).ok),
        ("K,3K", Bsharp, LinearOperator(Bsharp.matrix.scale(3)), dual,
         lambda a, b: a.N == three and a.S == three),
    ]


def _strong_thetas(l2: _L2):
    """(label, K, representation, theta): strong Maurer-Cartan solutions on
    the lifted sum of K."""
    kn = l2.build("kn_dual")
    return [
        ("l2/R theta_strong", l2.build("R"), l2.reg, l2.build("theta_strong").matrix),
        ("l2/R theta0", l2.build("R"), l2.reg, l2.Z),
        ("l2/Bsharp theta-from-kn", kn.K, l2.dual, mc_from_dual_kn(kn, l2.dual)),
    ]


def _twist_is_leibniz(K, rep, theta) -> bool:
    g_theta, rho_theta, total = theta_twist(K, rep, theta)
    return (check_leibniz(g_theta).ok and check_representation(rho_theta).ok
            and check_leibniz(total).ok)


def _ktk_is_compatible(K, rep, theta) -> bool:
    ktk = LinearOperator(K.matrix * theta * K.matrix, K.domain, K.codomain)
    return check_kupershmidt(ktk, rep).ok and check_compatible(K, ktk, rep).ok


def _dual_kn_cases(l2: _L2):
    """(label, dual KN-structure with K invertible, representation, what its
    theta = K^-1 N satisfies)."""
    kn, dual = l2.build("kn_dual"), l2.dual
    zero = KNStructure(l2.build("Bsharp"), make_pair(l2.Z, l2.Z), "dual-kn")

    def round_trip(theta):  # the dual KN-structure of theta is kn again
        back = dual_kn_from_mc(kn.K, dual, theta)
        return back.N == kn.N and back.S == kn.S

    return [("round-trip", kn, dual, round_trip),
            ("invertible K, zero pair", zero, dual, Matrix.is_zero)]


def _tilde_cases(l2: _L2):
    """(label, dual KN-structure, representation)."""
    Bsharp = l2.build("Bsharp")
    return [("kn_dual", l2.build("kn_dual"), l2.dual)] + [
        (f"Bsharp-{name}", KNStructure(Bsharp, make_pair(M, M), "dual-kn"), l2.dual)
        for name, M in (("0-0", l2.Z), ("I-I", l2.I))]


def _rn_cases(l2: _L2):
    """(label, algebra, 2-tensor, N): r-matrix/Nijenhuis couples."""
    quad4 = l2.catalog["quad4"].spec
    alg, qs = quad4.build("alg"), form_sharp_matrix(quad4.build("q"))
    cases = [(f"quad4/{r}+{n}", alg, Tensor2(alg, quad4.build(r).matrix * qs), quad4.build(n))
             for r, n in (("R_pi", "N2"), ("R_pi", "N_block"), ("R_B", "N2"))]
    return cases + [("l2/zero-tensor", l2.build("alg"), l2.build("pi0"), l2.build("N23"))]


def _bn_cases(l2: _L2):
    """(label, spec file, N) where the form B and N make a BN-structure."""
    return [("l2/B+NpIqE", l2.spec, "NpIqE"),
            ("abelian4/B+N_sym", l2.catalog["abelian4"].spec, "N_sym")]


# suite name -> (case source, assertion)
_CASE_SUITES = {
    "trivial-deformation": (_deformation_cases, lambda pair, rep: deformation_from_pair(
        pair, rep, (1, 2, "-1/3")).report.ok),
    "sum-nijenhuis": (_twilled_pair_cases, lambda N, S, ctx: sum_nijenhuis_on_twilled(
        make_pair(N, S), make_pair(S, N), ctx).ok),
    "hat-tilde-representations": (_hat_tilde_cases, lambda pair, rep, which: (
        check_representation(hat_tilde_representations(pair, rep)[which]).ok)),
    # the consequences: bracket agreements, S Nijenhuis on the sub-adjacent
    # algebra, K Kupershmidt for the hat/tilde action, NK Kupershmidt
    "kn-consequences": (_kn_cases, lambda kn, rep: check_kn_structure(
        kn, rep, consequences=True).ok),
    "kn-to-dual": (_invertible_kn_cases, _dual_kn_of_kn),
    "compatible-quotient": (_quotient_cases, _quotient_is_nijenhuis),
    "kn-compatibility": (_kn_cases, lambda kn, rep: compatible_from_kn(kn, rep).ok),
    "compatible-to-dual-kn": (_compatible_cases, lambda K1, K2, rep, verify: verify(
        *dual_kn_from_compatible(K1, K2, rep))),
    "mc-to-dual-kn": (_strong_thetas, lambda K, rep, theta: check_kn_structure(
        dual_kn_from_mc(K, rep, theta), rep).ok),
    "theta-twist": (_strong_thetas, _twist_is_leibniz),
    "dual-kn-to-mc": (_dual_kn_cases, lambda kn, rep, verify: verify(mc_from_dual_kn(kn, rep))),
    "compose-kupershmidt": (_strong_thetas, _ktk_is_compatible),
    "deformed-sum-bracket": (_tilde_cases, lambda kn, rep: check_leibniz(
        tilde_varrho_bracket(kn, rep)).ok),
    "rn-to-dual-kn": (_rn_cases, lambda alg, pi, N: check_rn_structure(
        alg, pi, N, consequences=True).ok),
    # the check's consequences assert the dual KN-structures and sharp pairs
    "bn-transfer": (_bn_cases, lambda spec, N: run_check(
        spec, "B", "bn-structure", {"N": N}, consequences=True).ok),
}


def _run_cases(name: str, cases: Callable, holds: Callable, catalog) -> SuiteResult:
    """One check per case of ``cases``: ``holds(*args)`` is True."""
    res = SuiteResult(name)
    for label, *args in cases(_L2(catalog)):
        res.run(label, lambda: holds(*args))
    return res


SUITES: Dict[str, Callable] = {
    "expected-verdicts": suite_expected_verdicts,
    "mc-equivalence": suite_mc_equivalence,
    "pair-dualization": suite_pair_dualization,
    "compatibility-criterion": suite_compatibility_criterion,
    "nk-composition": suite_nk_composition,
    "quadratic-transfer": suite_quadratic_transfer,
    **{name: partial(_run_cases, name, cases, holds)
       for name, (cases, holds) in _CASE_SUITES.items()},
}


def run_suites(catalog, names=None) -> List[SuiteResult]:
    chosen = sorted(SUITES) if names is None else list(names)
    out = []
    for name in chosen:
        if name not in SUITES:
            raise LeibnizKitError(f"unknown suite {name!r}")
        out.append(SUITES[name](catalog))
    return out
