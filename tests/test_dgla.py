import random
from fractions import Fraction
from itertools import product

import pytest

from leibnizkit import (
    Cochain,
    LeibnizAlgebra,
    Matrix,
    RATIONALS as Q,
    Representation,
    as_operator,
    balavoine_bracket,
    check_kn_structure,
    check_kupershmidt,
    check_leibniz,
    check_matched_pair,
    check_maurer_cartan,
    check_representation,
    coboundary,
    dgla_bracket,
    dual_kn_from_compatible,
    dual_kn_from_mc,
    dual_representation,
    lifted_algebra,
    mc_from_dual_kn,
    mc_solutions_from_linear_layer,
    regular_representation,
    theta_twist,
    tilde_varrho_bracket,
)
from leibnizkit.catalog import load_catalog
from leibnizkit.dgla import mc_cochain_defects
from leibnizkit.errors import (DivisionByZero, NotLeibniz, NotStrongMC, ShapeMismatch, Singular,
                               SpaceMismatch)
from leibnizkit.fields import prime_field
from leibnizkit.forms import BilinearForm, form_sharp_matrix
from leibnizkit.operators import LinearOperator
from leibnizkit.oracles import eval_maurer_cartan
from leibnizkit.pairs import make_kn
from leibnizkit.suites import _kupershmidt_cases
from leibnizkit.twilled import TwilledContext

from conftest import rb_matrix


def rand_cochain(dim, arity, seed, height=2):
    rng = random.Random(seed)
    return Cochain(
        Q, dim, arity,
        [tuple(rng.randint(-height, height) for _ in range(dim))
         for _ in range(dim ** arity)],
    )


def test_mu_mu_vanishes_iff_leibniz(l2):
    mu = Cochain.from_algebra(l2)
    assert balavoine_bracket(mu, mu).is_zero()
    bad = LeibnizAlgebra.from_brackets(Q, 1, {(0, 0): [1]})
    bb = balavoine_bracket(Cochain.from_algebra(bad), Cochain.from_algebra(bad))
    assert not bb.is_zero()
    assert bb.at((0, 0, 0)) != (0,)


def test_self_bracket_of_odd_arity_vanishes():
    phi = rand_cochain(2, 1, 3)
    assert balavoine_bracket(phi, phi).is_zero()
    phi3 = rand_cochain(2, 3, 4)
    assert balavoine_bracket(phi3, phi3).is_zero()


def test_coboundary_squares_to_zero(l2):
    mu = Cochain.from_algebra(l2)
    for seed in range(5):
        phi = rand_cochain(2, 1, seed)
        assert coboundary(mu, coboundary(mu, phi)).is_zero()
        psi = rand_cochain(2, 2, seed + 50)
        assert coboundary(mu, coboundary(mu, psi)).is_zero()


def test_coboundary_of_zero_and_abelian(l2):
    mu = Cochain.from_algebra(l2)
    z = Cochain.zero(Q, 2, 1)
    assert coboundary(mu, z).is_zero()
    abelian_mu = Cochain.from_algebra(LeibnizAlgebra.abelian(Q, 2))
    ident = Cochain.from_matrix(Matrix.identity(Q, 2))
    assert coboundary(abelian_mu, ident).is_zero()


def test_coboundary_requires_leibniz():
    bad = Cochain.from_algebra(LeibnizAlgebra.from_brackets(Q, 1, {(0, 0): [1]}))
    with pytest.raises(NotLeibniz):
        coboundary(bad, Cochain.zero(Q, 1, 1))


def test_arity_one_bracket_is_commutator():
    a = Matrix(Q, [[1, 2], [3, 4]])
    b = Matrix(Q, [[0, 1], [1, 0]])
    bb = balavoine_bracket(Cochain.from_matrix(a), Cochain.from_matrix(b))
    assert bb == Cochain.from_matrix(a * b - b * a)


def test_space_mismatch():
    with pytest.raises(SpaceMismatch):
        balavoine_bracket(rand_cochain(2, 1, 0), rand_cochain(3, 1, 0))


def test_graded_antisymmetry():
    for m in range(3):
        for n in range(3):
            p1 = rand_cochain(2, m + 1, 10 + m)
            p2 = rand_cochain(2, n + 1, 20 + n)
            lhs = balavoine_bracket(p1, p2)
            sign = -1 if (m * n) % 2 == 0 else 1
            assert lhs == balavoine_bracket(p2, p1).scale(sign)


def test_graded_jacobi_dim2():
    for m in range(3):
        for n in range(3):
            for p in range(3):
                f1 = rand_cochain(2, m + 1, 1)
                f2 = rand_cochain(2, n + 1, 2)
                f3 = rand_cochain(2, p + 1, 3)
                t1 = balavoine_bracket(f1, balavoine_bracket(f2, f3)).scale((-1) ** (m * p))
                t2 = balavoine_bracket(f2, balavoine_bracket(f3, f1)).scale((-1) ** (n * m))
                t3 = balavoine_bracket(f3, balavoine_bracket(f1, f2)).scale((-1) ** (p * n))
                assert (t1 + t2 + t3).is_zero()


def test_dgla_bracket_trivial(l2):
    mu = Cochain.from_algebra(l2)
    z = Cochain.zero(Q, 2, 1)
    phi = rand_cochain(2, 1, 6)
    assert dgla_bracket(mu, z, phi).is_zero()
    assert dgla_bracket(mu, phi, z).is_zero()


@pytest.fixture(scope="module")
def lifted_ctx(l2_regular):
    lift = lifted_algebra(as_operator(rb_matrix(1)), l2_regular)
    return TwilledContext(lift, 2, 2)


def test_mc_zero(lifted_ctx):
    z = Matrix.zeros(Q, 2, 2)
    assert check_maurer_cartan(lifted_ctx, z).ok
    assert check_maurer_cartan(lifted_ctx, z, strong=True).ok


def test_mc_strong_solution(lifted_ctx):
    th = Matrix(Q, [[1, 1], [0, 0]])
    assert check_maurer_cartan(lifted_ctx, th, strong=True).ok


def test_mc_gla_agreement(lifted_ctx):
    rng = random.Random(5)
    for _ in range(30):
        th = Matrix(Q, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        elem_weak = check_maurer_cartan(lifted_ctx, th).ok
        elem_strong = check_maurer_cartan(lifted_ctx, th, strong=True).ok
        d, q = mc_cochain_defects(lifted_ctx, th)
        assert (d + q).is_zero() == elem_weak
        assert (d.is_zero() and q.is_zero()) == elem_strong


def test_weak_but_not_strong_solution(l2):
    """On a direct product, a bracket-preserving map that does not kill
    brackets solves the quadratic equation but not the linear one."""
    _, prod = check_matched_pair(
        l2, l2, Representation.zero(l2, 2), Representation.zero(l2, 2)
    )
    ctx = TwilledContext(prod, 2, 2)
    ident = Matrix.identity(Q, 2)
    assert check_maurer_cartan(ctx, ident).ok
    assert not check_maurer_cartan(ctx, ident, strong=True).ok
    d, q = mc_cochain_defects(ctx, ident)
    assert (d + q).is_zero()
    assert not d.is_zero()


def _mc_contexts(f):
    """Lifted l2 sums carried into f (a case whose constants have a
    denominator that vanishes in f is left out) and the l2 x l2 direct
    product; over F2 also the lift of the catalog's l2_f2 operator R."""
    catalog = load_catalog()
    out = []
    for _, K, rep in _kupershmidt_cases(catalog):
        try:
            alg = LeibnizAlgebra(f, rep.algebra.c)
            frep = Representation(alg, [Matrix(f, m.entries) for m in rep.rhoL],
                                  [Matrix(f, m.entries) for m in rep.rhoR])
            Kf = as_operator(Matrix(f, K.matrix.entries))
        except DivisionByZero:
            continue
        out.append(TwilledContext(lifted_algebra(Kf, frep), 2, 2))
    l2f = LeibnizAlgebra(f, catalog["l2"].spec.build("alg").c)
    _, prod = check_matched_pair(
        l2f, l2f, Representation.zero(l2f, 2), Representation.zero(l2f, 2)
    )
    out.append(TwilledContext(prod, 2, 2))
    if f.char == 2:
        spec = catalog["l2_f2"].spec
        rep = regular_representation(spec.build("alg"))
        out.append(TwilledContext(lifted_algebra(spec.build("R"), rep), 2, 2))
    return out


@pytest.mark.parametrize("f", (prime_field(2), prime_field(3), prime_field(5), Q), ids=str)
def test_mc_cochain_route_matches_oracle_in_every_field(f):
    """The graded-bracket verdicts equal the elementwise oracle's, weak and
    strong, characteristic 2 included; over F2 every theta is tried."""
    rng = random.Random(f"mc-route-{f}")
    contexts = _mc_contexts(f)
    seen = set()
    for ctx in contexts:
        if f.char == 2:
            thetas = [Matrix(f, [bits[:2], bits[2:]]) for bits in product((0, 1), repeat=4)]
        else:
            thetas = mc_solutions_from_linear_layer(ctx)[:3] + [Matrix.identity(f, 2)]
            thetas += [Matrix(f, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
                       for _ in range(5)]
        for theta in thetas:
            d, q = mc_cochain_defects(ctx, theta)
            weak, strong = (d + q).is_zero(), d.is_zero() and q.is_zero()
            assert weak == eval_maurer_cartan(ctx, theta).ok
            assert strong == eval_maurer_cartan(ctx, theta, strong=True).ok
            seen.add((weak, strong))
    # solutions, non-solutions and, on the direct product, weak-only ones
    assert seen == {(True, True), (True, False), (False, False)}


def test_theta_twist_zero(l2_regular):
    z = Matrix.zeros(Q, 2, 2)
    g_theta, rho_theta, total = theta_twist(as_operator(rb_matrix(1)), l2_regular, z)
    assert g_theta.c == LeibnizAlgebra.abelian(Q, 2).c
    assert all(m.is_zero() for m in list(rho_theta.rhoL) + list(rho_theta.rhoR))
    # the twist kills the algebra-side bracket, so the total is the
    # blocks-swapped semidirect sum of the induced action
    from leibnizkit import induced_representation, semidirect_sum

    sd = semidirect_sum(induced_representation(as_operator(rb_matrix(1)), l2_regular))
    perm = [2, 3, 0, 1]
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert total.c[i][j][k] == sd.c[perm[i]][perm[j]][perm[k]]


def test_theta_twist_nonzero(l2_regular):
    th = Matrix(Q, [[1, 1], [0, 0]])
    g_theta, rho_theta, total = theta_twist(as_operator(rb_matrix(1)), l2_regular, th)
    assert check_leibniz(g_theta).ok
    assert check_representation(rho_theta).ok
    assert check_leibniz(total).ok


def test_theta_twist_rejects_weak_only(l2_regular):
    bad = Matrix(Q, [[0, 1], [0, 0]])
    if not check_maurer_cartan(
        TwilledContext(lifted_algebra(as_operator(rb_matrix(1)), l2_regular), 2, 2),
        bad, strong=True,
    ).ok:
        with pytest.raises(NotStrongMC):
            theta_twist(as_operator(rb_matrix(1)), l2_regular, bad)


def _invertible_kn(l2, l2_dual):
    B = BilinearForm(l2, Matrix(Q, [[0, 1], [1, 1]]), "symmetric")
    K = LinearOperator(form_sharp_matrix(B), "dual", "algebra")
    K2 = LinearOperator(Matrix(Q, [[2, 5], [0, 2]]) * K.matrix, "dual", "algebra")
    kn, _ = dual_kn_from_compatible(K, K2, l2_dual)
    return kn


def test_dual_kn_from_mc_zero(l2_regular):
    kn = dual_kn_from_mc(as_operator(rb_matrix(1)), l2_regular, Matrix.zeros(Q, 2, 2))
    assert kn.N.is_zero() and kn.S.is_zero()
    assert kn.mode == "dual-kn"


def test_mc_from_dual_kn_round_trip(l2, l2_dual):
    kn = _invertible_kn(l2, l2_dual)
    theta = mc_from_dual_kn(kn, l2_dual)
    lift = lifted_algebra(kn.K, l2_dual)
    ctx = TwilledContext(lift, 2, 2)
    assert check_maurer_cartan(ctx, theta, strong=True).ok
    back = dual_kn_from_mc(kn.K, l2_dual, theta)
    assert back.N == kn.N and back.S == kn.S


def test_mc_from_dual_kn_zero_pair(l2, l2_dual):
    B = BilinearForm(l2, Matrix(Q, [[0, 1], [1, 1]]), "symmetric")
    K = LinearOperator(form_sharp_matrix(B), "dual", "algebra")
    kn = make_kn(K, Matrix.zeros(Q, 2, 2), Matrix.zeros(Q, 2, 2), "dual-kn")
    assert mc_from_dual_kn(kn, l2_dual).is_zero()


def test_mc_from_dual_kn_requires_invertible(l2_regular):
    kn = make_kn(as_operator(rb_matrix(1)), Matrix.zeros(Q, 2, 2),
                 Matrix.zeros(Q, 2, 2), "dual-kn")
    with pytest.raises(Singular):
        mc_from_dual_kn(kn, l2_regular)


def test_tilde_bracket_trivial_modes(l2_regular):
    K = as_operator(rb_matrix(1))
    out = tilde_varrho_bracket(
        make_kn(K, Matrix.zeros(Q, 2, 2), Matrix.zeros(Q, 2, 2), "dual-kn"), l2_regular
    )
    assert check_leibniz(out).ok
    out2 = tilde_varrho_bracket(
        make_kn(K, Matrix.identity(Q, 2), Matrix.identity(Q, 2), "dual-kn"), l2_regular
    )
    lift = lifted_algebra(K, l2_regular)
    perm = [2, 3, 0, 1]
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert out2.c[i][j][k] == lift.c[perm[i]][perm[j]][perm[k]]


def test_tilde_bracket_nontrivial(l2, l2_dual):
    kn = _invertible_kn(l2, l2_dual)
    assert check_leibniz(tilde_varrho_bracket(kn, l2_dual)).ok


def test_tilde_bracket_checks_the_pair_once(monkeypatch):
    """The deformed total bracket of l2's dual KN-structure settles the
    dual-pair verdict once, in its preconditions, and never checks the
    Nijenhuis-pair identities it does not need."""
    from leibnizkit import pairs

    l2 = load_catalog()["l2"].spec
    kn = l2.build("kn_dual")
    rep = l2.rep_for(l2.raw["kn_dual"]["rep"])
    expected = tilde_varrho_bracket(kn, rep)
    calls = {"pair": 0, "dual": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(pairs, "check_nijenhuis_pair", counted("pair", pairs.check_nijenhuis_pair))
    monkeypatch.setattr(pairs, "check_dual_nijenhuis_pair",
                        counted("dual", pairs.check_dual_nijenhuis_pair))
    assert tilde_varrho_bracket(kn, rep) == expected
    assert calls == {"pair": 0, "dual": 1}


def test_kupershmidt_compose_consequences(l2, l2_dual, l2_regular):
    """A strong solution makes K theta K Kupershmidt and compatible with K."""
    from leibnizkit import check_compatible

    K = as_operator(rb_matrix(1))
    th = Matrix(Q, [[1, 1], [0, 0]])
    ktk = LinearOperator(K.matrix * th * K.matrix, K.domain, K.codomain)
    assert check_kupershmidt(ktk, l2_regular).ok
    assert check_compatible(K, ktk, l2_regular).ok


def test_maurer_cartan_refuses_a_theta_over_another_field():
    """Both Maurer-Cartan routes refuse a theta over another field than the
    context's, as the operator checks refuse an operator: an F3 theta on
    l2's lift over Q is not read as the rational matrix of its residues.
    A theta of the wrong shape keeps each route's shape message."""
    ctx = load_catalog()["l2"].spec.build("tw_lift", "twilled")
    F3 = prime_field(3)
    theta = Matrix(F3, [[-1, 0], [0, 0]])
    for run in (lambda: check_maurer_cartan(ctx, theta),
                lambda: check_maurer_cartan(ctx, theta, strong=True),
                lambda: mc_cochain_defects(ctx, theta)):
        with pytest.raises(ShapeMismatch, match="^map and context fields differ$"):
            run()
    wide = Matrix(F3, [[1, 0, 0]])
    with pytest.raises(ShapeMismatch, match=r"^theta must be 2x2$"):
        check_maurer_cartan(ctx, wide)
    with pytest.raises(ShapeMismatch, match=r"^map must be 2x2 \(g1 -> g2\), got 1x3$"):
        mc_cochain_defects(ctx, wide)
