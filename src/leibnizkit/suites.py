"""Theorem suites: every structural implication the library asserts, run as
executable properties over the bundled catalog.  Each suite returns the count
of checked assertions plus the list of failures; the batch runner aggregates
them for the CLI.
"""

from __future__ import annotations

from random import Random
from typing import Callable, Dict, List, Optional

from .algebras import (
    LeibnizAlgebra,
    Representation,
    check_leibniz,
    check_representation,
)
from .checks import run_check
from .dgla import (
    _lifted_context,
    check_maurer_cartan,
    dual_kn_from_mc,
    mc_cochain_defects,
    mc_from_dual_kn,
    theta_twist,
    tilde_varrho_bracket,
)
from .errors import LeibnizKitError
from .forms import Tensor2, check_rn_structure, form_sharp_matrix
from .io import SpecFile
from .linalg import LinearOperator, Matrix, is_invertible
from .operators import (
    _equivariance_sides,
    check_compatible,
    check_kupershmidt,
    check_nijenhuis,
    check_nk_condition,
    nijenhuis_from_compatible,
)
from .pairs import (
    KNStructure,
    check_dual_nijenhuis_pair,
    check_kn_structure,
    check_nijenhuis_pair,
    compatible_from_kn,
    deformation_from_pair,
    dual_kn_from_compatible,
    hat_tilde_representations,
    kn_to_dual_kn,
    make_pair,
    sum_nijenhuis_on_twilled,
)
from .reports import _Record
from .search import mc_solutions_from_linear_layer
from .twilled import TwilledContext, check_matched_pair


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
        """Count an assertion that passes unless it raises or returns False."""
        try:
            out = fn()
        except LeibnizKitError as exc:
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        if out is False:
            self.failures.append(label)
            return None
        self.passed += 1
        return out

    @property
    def ok(self) -> bool:
        return not self.failures


Catalog = Dict[str, "object"]  # name -> CatalogEntry


def _l2(catalog) -> SpecFile:
    return catalog["l2"].spec


def _kupershmidt_cases(catalog):
    """(label, operator, representation) triples of verified Kupershmidt maps."""
    l2 = _l2(catalog)
    reg = l2.rep_for("regular")
    dual = l2.rep_for("dual")
    f = l2.fieldspec
    cases = [
        ("l2/R", l2.build("R"), reg),
        ("l2/R2", l2.build("R2"), reg),
        ("l2/R32", l2.build("R32"), reg),
        ("l2/zero", LinearOperator(Matrix.zeros(f, 2, 2), "module:regular", "algebra:alg"), reg),
        ("l2/Bsharp", l2.build("Bsharp"), dual),
        ("l2/NBsharp", l2.build("NBsharp"), dual),
    ]
    return cases


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


def suite_mc_equivalence(catalog, nonsolutions: int = 12, seed: int = 20) -> SuiteResult:
    """Strong Maurer-Cartan solutions on lifted sums: the elementwise, the
    operator-specialized, and the graded-bracket formulations agree on
    solutions found by the linear layer and on seeded non-solutions."""
    res = SuiteResult("mc-equivalence")
    rng = Random(seed)
    for label, K, rep in _kupershmidt_cases(catalog):
        f = rep.algebra.field
        vr, ctx = _lifted_context(K, rep)
        res.run(f"{label}: zero strong", lambda: check_maurer_cartan(
            ctx, Matrix.zeros(f, ctx.n2, ctx.n1), strong=True).ok)
        solutions = mc_solutions_from_linear_layer(ctx)
        res.check(any(m.is_zero() for m in solutions), f"{label}: zero solution found")
        thetas = solutions[:6]
        for t in range(nonsolutions):
            m = Matrix(f, [[rng.randint(-2, 2) for _ in range(ctx.n1)] for _ in range(ctx.n2)])
            thetas.append(m)
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


def suite_trivial_deformation(catalog) -> SuiteResult:
    res = SuiteResult("trivial-deformation")
    l2 = _l2(catalog)
    reg = l2.rep_for("regular")
    dual = l2.rep_for("dual")
    f = l2.fieldspec
    Z = Matrix.zeros(f, 2, 2)
    I = Matrix.identity(f, 2)
    samples = [1, 2, f.of("-1/3")]
    cases = [
        ("N23/0 on regular", make_pair(l2.build("N23").matrix, Z), reg),
        ("I/I on regular", make_pair(I, I), reg),
        ("NpIqE/0 on regular", make_pair(l2.build("NpIqE").matrix, Z), reg),
        ("N23/0 on dual", make_pair(l2.build("N23").matrix, Z), dual),
        ("0/0 on regular", make_pair(Z, Z), reg),
    ]
    for label, pair, rep in cases:
        res.run(label, lambda p=pair, r=rep: deformation_from_pair(p, r, samples).report.ok)
    return res


def suite_pair_dualization(catalog) -> SuiteResult:
    """(N, S^T) is a dual pair for the contragredient action exactly when
    (N, S) is a pair for the original, in both truth values."""
    res = SuiteResult("pair-dualization")
    l2 = _l2(catalog)
    reg = l2.rep_for("regular")
    dual = l2.rep_for("dual")
    f = l2.fieldspec
    I = Matrix.identity(f, 2)
    rng = Random(7)
    cases = [
        ("N23/0", l2.build("N23").matrix, Matrix.zeros(f, 2, 2)),
        ("I/3I", I, I.scale(3)),
        ("NpIqE/0", l2.build("NpIqE").matrix, Matrix.zeros(f, 2, 2)),
        ("I/I", I, I),
    ]
    for t in range(40):
        N = Matrix(f, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        S = Matrix(f, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        cases.append((f"random#{t}", N, S))
    positive = negative = 0
    for label, N, S in cases:
        a = check_nijenhuis_pair(make_pair(N, S), reg).ok
        b = check_dual_nijenhuis_pair(make_pair(N, S.transpose()), dual).ok
        res.check(a == b, f"{label}: biconditional")
        positive += a
        negative += (not a)
    res.check(positive >= 3, "at least 3 positive instances")
    res.check(negative >= 3, "at least 3 negative instances")
    return res


def suite_sum_nijenhuis(catalog) -> SuiteResult:
    res = SuiteResult("sum-nijenhuis")
    l2 = _l2(catalog)
    reg = l2.rep_for("regular")
    f = l2.fieldspec
    alg = l2.build("alg")
    V = LeibnizAlgebra.abelian(f, 2)
    _, tw = check_matched_pair(alg, V, Representation(alg, reg.rhoL, reg.rhoR),
                               Representation.zero(V, 2))
    ctx = TwilledContext(tw, 2, 2)
    Z = Matrix.zeros(f, 2, 2)
    I = Matrix.identity(f, 2)
    cases = [
        ("N23/0", l2.build("N23").matrix, Z),
        ("I/2I", I, I.scale(2)),
        ("0/0", Z, Z),
        ("NpIqE/0", l2.build("NpIqE").matrix, Z),
    ]
    for label, N, S in cases:
        res.run(label, lambda N=N, S=S: sum_nijenhuis_on_twilled(
            make_pair(N, S), make_pair(S, N), ctx).ok)
    return res


def suite_hat_tilde(catalog) -> SuiteResult:
    res = SuiteResult("hat-tilde-representations")
    l2 = _l2(catalog)
    reg = l2.rep_for("regular")
    dual = l2.rep_for("dual")
    f = l2.fieldspec
    Z = Matrix.zeros(f, 2, 2)
    I = Matrix.identity(f, 2)
    kn = l2.build("kn_dual")
    cases = [
        ("pair N23/0 regular", make_pair(l2.build("N23").matrix, Z), reg, "hat"),
        ("pair I/I regular", make_pair(I, I), reg, "hat"),
        ("dual pair N23/0 dual", make_pair(l2.build("N23").matrix, Z), dual, "tilde"),
        ("dual pair from kn", kn.pair, dual, "tilde"),
    ]
    for label, pair, rep, which in cases:
        def go(pair=pair, rep=rep, which=which):
            hat, tilde = hat_tilde_representations(pair, rep)
            target = hat if which == "hat" else tilde
            return check_representation(target).ok
        res.run(label, go)
    return res


def _kn_cases(catalog):
    l2 = _l2(catalog)
    reg = l2.rep_for("regular")
    dual = l2.rep_for("dual")
    f = l2.fieldspec
    Z = Matrix.zeros(f, 2, 2)
    I = Matrix.identity(f, 2)
    kn_dual = l2.build("kn_dual")
    return [
        ("l2/kn_dual", kn_dual, dual),
        ("l2/R-0-0", KNStructure(l2.build("R"), make_pair(Z, Z), "kn"), reg),
        ("l2/R-I-I", KNStructure(l2.build("R"), make_pair(I, I), "kn"), reg),
        ("l2/Bsharp-0-0-dualmode", KNStructure(l2.build("Bsharp"), make_pair(Z, Z), "dual-kn"), dual),
    ]


def suite_kn_consequences(catalog) -> SuiteResult:
    """The bundled consequence assertions of the KN check: bracket
    agreements, S Nijenhuis on the sub-adjacent algebra, K Kupershmidt for
    the hat/tilde action, and the composite being Kupershmidt."""
    res = SuiteResult("kn-consequences")
    for label, kn, rep in _kn_cases(catalog):
        res.run(label, lambda kn=kn, rep=rep: check_kn_structure(kn, rep, consequences=True).ok)
    return res


def suite_kn_to_dual(catalog) -> SuiteResult:
    res = SuiteResult("kn-to-dual")
    l2 = _l2(catalog)
    dual = l2.rep_for("dual")
    f = l2.fieldspec
    Z = Matrix.zeros(f, 2, 2)
    I = Matrix.identity(f, 2)
    K = l2.build("Bsharp")
    for label, N, S in (("Bsharp-I-I", I, I), ("Bsharp-0-0", Z, Z)):
        def go(N=N, S=S):
            out = kn_to_dual_kn(KNStructure(K, make_pair(N, S), "kn"), dual)
            return out.mode == "dual-kn" and check_kn_structure(out, dual).ok
        res.run(label, go)
    return res


def suite_compatibility_criterion(catalog) -> SuiteResult:
    """The mixed identity holds iff sampled linear combinations stay
    Kupershmidt; exercised in both truth values."""
    res = SuiteResult("compatibility-criterion")
    l2 = _l2(catalog)
    reg = l2.rep_for("regular")
    dual = l2.rep_for("dual")
    f = l2.fieldspec
    cases = [
        ("R,R2", l2.build("R"), l2.build("R2"), reg, True),
        ("R,zero", l2.build("R"), LinearOperator(Matrix.zeros(f, 2, 2)), reg, True),
        ("Bsharp,NBsharp", l2.build("Bsharp"), l2.build("NBsharp"), dual, True),
        ("R,E01", l2.build("R"), l2.build("E01"), reg, False),
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
    l2 = _l2(catalog)
    reg = l2.rep_for("regular")
    f = l2.fieldspec
    R = l2.build("R")
    cases = [
        ("N23,R", l2.build("N23"), R, True),
        ("I,R", l2.build("N11"), R, True),
        ("zero,R", LinearOperator(Matrix.zeros(f, 2, 2)), R, True),
        ("NpIqE,R", l2.build("NpIqE"), R, False),
    ]
    for label, N, K, expect in cases:
        report = check_nk_condition(N, K, reg)
        res.check(report.ok == expect, f"{label}: verdict")
        res.check(
            not any(v.identity == "nk-condition-vs-composite" for v in report.violations),
            f"{label}: two routes agree",
        )
        if expect and is_invertible(N.matrix):
            NK = LinearOperator(N.matrix * K.matrix, K.domain, K.codomain)
            res.run(f"{label}: invertible implies compatible",
                    lambda K=K, NK=NK: check_compatible(K, NK, reg).ok)
    return res


def suite_compatible_quotient(catalog) -> SuiteResult:
    res = SuiteResult("compatible-quotient")
    l2 = _l2(catalog)
    dual = l2.rep_for("dual")
    K1, K2 = l2.build("NBsharp"), l2.build("Bsharp")
    def go():
        N = nijenhuis_from_compatible(K1, K2, dual)
        return check_nijenhuis(N, dual.algebra).ok
    res.run("NBsharp/Bsharp", go)
    f = l2.fieldspec
    res.run("3K/K scalar", lambda: nijenhuis_from_compatible(
        LinearOperator(l2.build("Bsharp").matrix.scale(3)), l2.build("Bsharp"), dual
    ).matrix == Matrix.identity(f, 2).scale(3))
    return res


def suite_kn_compatibility(catalog) -> SuiteResult:
    res = SuiteResult("kn-compatibility")
    for label, kn, rep in _kn_cases(catalog):
        res.run(label, lambda kn=kn, rep=rep: compatible_from_kn(kn, rep).ok)
    return res


def suite_compatible_to_dual_kn(catalog) -> SuiteResult:
    res = SuiteResult("compatible-to-dual-kn")
    l2 = _l2(catalog)
    dual = l2.rep_for("dual")
    K1, K2 = l2.build("Bsharp"), l2.build("NBsharp")
    def go():
        a, b = dual_kn_from_compatible(K1, K2, dual)
        return (check_kn_structure(a, dual).ok and check_kn_structure(b, dual).ok)
    res.run("Bsharp,NBsharp", go)
    def go_scalar():
        a, b = dual_kn_from_compatible(K1, LinearOperator(K1.matrix.scale(3)), dual)
        f = l2.fieldspec
        return a.N == Matrix.identity(f, 2).scale(3) and a.S == Matrix.identity(f, 2).scale(3)
    res.run("K,3K", go_scalar)
    return res


def _strong_thetas(catalog):
    l2 = _l2(catalog)
    reg = l2.rep_for("regular")
    dual = l2.rep_for("dual")
    f = l2.fieldspec
    out = [
        ("l2/R theta_strong", l2.build("R"), reg, l2.build("theta_strong").matrix),
        ("l2/R theta0", l2.build("R"), reg, Matrix.zeros(f, 2, 2)),
    ]
    kn = l2.build("kn_dual")
    theta = mc_from_dual_kn(kn, dual)
    out.append(("l2/Bsharp theta-from-kn", kn.K, dual, theta))
    return out


def suite_mc_to_dual_kn(catalog) -> SuiteResult:
    res = SuiteResult("mc-to-dual-kn")
    for label, K, rep, theta in _strong_thetas(catalog):
        res.run(label, lambda K=K, rep=rep, theta=theta:
                check_kn_structure(dual_kn_from_mc(K, rep, theta), rep).ok)
    return res


def suite_theta_twist(catalog) -> SuiteResult:
    res = SuiteResult("theta-twist")
    for label, K, rep, theta in _strong_thetas(catalog):
        def go(K=K, rep=rep, theta=theta):
            g_theta, rho_theta, total = theta_twist(K, rep, theta)
            return (check_leibniz(g_theta).ok and check_representation(rho_theta).ok
                    and check_leibniz(total).ok)
        res.run(label, go)
    return res


def suite_dual_kn_to_mc(catalog) -> SuiteResult:
    """Invertible dual KN-structures produce strong solutions; composing the
    two transfers is the identity on (N, S)."""
    res = SuiteResult("dual-kn-to-mc")
    l2 = _l2(catalog)
    dual = l2.rep_for("dual")
    kn = l2.build("kn_dual")
    def go():
        theta = mc_from_dual_kn(kn, dual)
        back = dual_kn_from_mc(kn.K, dual, theta)
        return back.N == kn.N and back.S == kn.S
    res.run("round-trip", go)
    f = l2.fieldspec
    trivial = KNStructure(l2.build("Bsharp"),
                          make_pair(Matrix.zeros(f, 2, 2), Matrix.zeros(f, 2, 2)), "dual-kn")
    res.run("invertible K, zero pair",
            lambda: mc_from_dual_kn(trivial, dual).is_zero())
    return res


def suite_compose_kupershmidt(catalog) -> SuiteResult:
    """K theta K is Kupershmidt and compatible with K for strong solutions."""
    res = SuiteResult("compose-kupershmidt")
    for label, K, rep, theta in _strong_thetas(catalog):
        def go(K=K, rep=rep, theta=theta):
            ktk = LinearOperator(K.matrix * theta * K.matrix, K.domain, K.codomain)
            return (check_kupershmidt(ktk, rep).ok
                    and check_compatible(K, ktk, rep).ok)
        res.run(label, go)
    return res


def suite_deformed_sum_bracket(catalog) -> SuiteResult:
    res = SuiteResult("deformed-sum-bracket")
    l2 = _l2(catalog)
    dual = l2.rep_for("dual")
    f = l2.fieldspec
    Z, I = Matrix.zeros(f, 2, 2), Matrix.identity(f, 2)
    kn = l2.build("kn_dual")
    cases = [
        ("kn_dual", kn),
        ("Bsharp-0-0", KNStructure(l2.build("Bsharp"), make_pair(Z, Z), "dual-kn")),
        ("Bsharp-I-I", KNStructure(l2.build("Bsharp"), make_pair(I, I), "dual-kn")),
    ]
    for label, kn_case in cases:
        res.run(label, lambda kn_case=kn_case:
                check_leibniz(tilde_varrho_bracket(kn_case, dual)).ok)
    return res


def suite_rn_to_dual_kn(catalog) -> SuiteResult:
    """r-matrix/Nijenhuis couples induce dual KN-structures on the dual."""
    res = SuiteResult("rn-to-dual-kn")
    quad4 = catalog["quad4"].spec
    alg = quad4.build("alg")
    q = quad4.build("q")
    qs = form_sharp_matrix(q)
    for rname, nname in (("R_pi", "N2"), ("R_pi", "N_block"), ("R_B", "N2")):
        R = quad4.build(rname)
        N = quad4.build(nname)
        P = R.matrix * qs
        def go(P=P, N=N):
            return check_rn_structure(alg, Tensor2(alg, P), N, consequences=True).ok
        res.run(f"quad4/{rname}+{nname}", go)
    l2 = _l2(catalog)
    res.run("l2/zero-tensor", lambda: check_rn_structure(
        l2.build("alg"), l2.build("pi0"), l2.build("N23"), consequences=True).ok)
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


def suite_bn_transfer(catalog) -> SuiteResult:
    """BN-structures induce dual KN-structures and compatible sharp pairs
    (asserted inside the check's consequences)."""
    res = SuiteResult("bn-transfer")
    l2 = _l2(catalog)
    res.run("l2/B+NpIqE", lambda: run_check(
        l2, "B", "bn-structure", {"N": "NpIqE"}, consequences=True).ok)
    abelian4 = catalog["abelian4"].spec
    res.run("abelian4/B+N_sym", lambda: run_check(
        abelian4, "B", "bn-structure", {"N": "N_sym"}, consequences=True).ok)
    return res


SUITES: Dict[str, Callable] = {
    "expected-verdicts": suite_expected_verdicts,
    "mc-equivalence": suite_mc_equivalence,
    "trivial-deformation": suite_trivial_deformation,
    "pair-dualization": suite_pair_dualization,
    "sum-nijenhuis": suite_sum_nijenhuis,
    "hat-tilde-representations": suite_hat_tilde,
    "kn-consequences": suite_kn_consequences,
    "kn-to-dual": suite_kn_to_dual,
    "compatibility-criterion": suite_compatibility_criterion,
    "nk-composition": suite_nk_composition,
    "compatible-quotient": suite_compatible_quotient,
    "kn-compatibility": suite_kn_compatibility,
    "compatible-to-dual-kn": suite_compatible_to_dual_kn,
    "mc-to-dual-kn": suite_mc_to_dual_kn,
    "theta-twist": suite_theta_twist,
    "dual-kn-to-mc": suite_dual_kn_to_mc,
    "compose-kupershmidt": suite_compose_kupershmidt,
    "deformed-sum-bracket": suite_deformed_sum_bracket,
    "rn-to-dual-kn": suite_rn_to_dual_kn,
    "quadratic-transfer": suite_quadratic_transfer,
    "bn-transfer": suite_bn_transfer,
}


def run_suites(catalog, names=None) -> List[SuiteResult]:
    chosen = sorted(SUITES) if names is None else list(names)
    out = []
    for name in chosen:
        if name not in SUITES:
            raise LeibnizKitError(f"unknown suite {name!r}")
        out.append(SUITES[name](catalog))
    return out
