import random
from fractions import Fraction

import pytest

from leibnizkit import (
    LeibnizAlgebra,
    Matrix,
    RATIONALS as Q,
    Representation,
    as_operator,
    check_dual_nijenhuis_pair,
    check_kn_structure,
    check_leibniz,
    check_matched_pair,
    check_nijenhuis_pair,
    check_perfect_pair,
    check_representation,
    compatible_from_kn,
    deformation_from_pair,
    dual_kn_from_compatible,
    dual_representation,
    hat_tilde_representations,
    kn_to_dual_kn,
    make_kn,
    make_pair,
    prime_field,
    sum_nijenhuis_on_twilled,
)
from leibnizkit.errors import (
    FieldMismatch,
    NeitherPairKind,
    NotNijenhuisPair,
    PairCheckFailed,
    ShapeMismatch,
    Singular,
)
from leibnizkit.forms import form_sharp_matrix, BilinearForm
from leibnizkit.operators import LinearOperator
from leibnizkit.pairs import OperatorPair
from leibnizkit.twilled import TwilledContext

from conftest import nij_matrix, rb_matrix


def I2():
    return Matrix.identity(Q, 2)


def Z2():
    return Matrix.zeros(Q, 2, 2)


def test_identity_pair(l2_regular):
    assert check_nijenhuis_pair(make_pair(I2(), I2()), l2_regular).ok
    assert check_dual_nijenhuis_pair(make_pair(I2(), I2()), l2_regular).ok


@pytest.mark.parametrize("check", [check_nijenhuis_pair, check_dual_nijenhuis_pair,
                                   check_perfect_pair])
def test_pair_shapes_must_match_the_representation(l2_regular, check):
    for N, S in [(Matrix.identity(Q, 3), I2()), (I2(), Matrix.zeros(Q, 2, 3))]:
        with pytest.raises(ShapeMismatch,
                           match="^pair shapes do not match the representation$"):
            check(make_pair(N, S), l2_regular)


@pytest.mark.parametrize("check", [check_nijenhuis_pair, check_dual_nijenhuis_pair,
                                   check_perfect_pair])
def test_pair_fields_must_be_the_representation_field(l2_regular, check):
    """A pair over F3 checked on a representation over Q is refused."""
    F3 = prime_field(3)
    I3 = Matrix.identity(F3, 2)
    for N, S in [(I3, I3.scale(F3.of(2))), (I3.scale(F3.of(2)), I3)]:
        with pytest.raises(ShapeMismatch, match="^operator and algebra fields differ$"):
            check(make_pair(N, S), l2_regular)


def test_a_pair_over_two_fields_is_refused_when_built():
    """N and S over different fields raise FieldMismatch, naming N's field
    first, whether the pair is built by make_pair or directly."""
    F3 = prime_field(3)
    I3 = Matrix.identity(F3, 2)
    with pytest.raises(FieldMismatch, match="^Q vs F3$"):
        make_pair(I2(), I3.scale(F3.of(2)))
    with pytest.raises(FieldMismatch, match="^F3 vs Q$"):
        OperatorPair(LinearOperator(I3), LinearOperator(I2()))
    assert make_pair(I3, I3.scale(F3.of(2))).S.field == F3


def test_zero_module_part(l2_regular):
    assert check_nijenhuis_pair(make_pair(nij_matrix(2, 3), Z2()), l2_regular).ok


def test_pair_violations_reported(l2_regular):
    S = Matrix(Q, [[1, 1], [0, 0]])  # S^2 = S but the coupling still fails here
    report = check_nijenhuis_pair(make_pair(I2(), Matrix(Q, [[0, 1], [1, 1]])), l2_regular)
    assert not report.ok
    assert any(v.identity in ("pair-left", "pair-right") for v in report.violations)


def test_perfect_scalar(l2_regular):
    assert check_perfect_pair(make_pair(nij_matrix(2, 3), I2().scale(2)), l2_regular).ok
    assert check_perfect_pair(make_pair(nij_matrix(2, 3), Z2()), l2_regular).ok


def test_perfect_requires_pair(l2_regular):
    with pytest.raises(NotNijenhuisPair):
        check_perfect_pair(make_pair(Matrix(Q, [[0, 0], [1, 0]]), Z2()), l2_regular)


def test_perfect_violation(l2):
    # a module where a non-scalar projection fails the doubled coupling
    rep = Representation(
        l2,
        [Matrix.zeros(Q, 2, 2), Matrix(Q, [[1, 1], [0, 0]])],
        [Matrix(Q, [[0, 1], [0, 0]]), Matrix(Q, [[0, 1], [0, 0]])],
    )
    assert check_representation(rep).ok
    S = Matrix(Q, [[1, 0], [0, 0]])
    pair = make_pair(Z2(), S)
    if check_nijenhuis_pair(pair, rep).ok:
        report = check_perfect_pair(pair, rep)
        assert not report.ok


def test_dualization_biconditional(l2_regular, l2_dual):
    rng = random.Random(12)
    positives = negatives = 0
    cases = [(nij_matrix(2, 3), Z2()), (I2(), I2().scale(3)), (I2(), I2())]
    for _ in range(60):
        cases.append((
            Matrix(Q, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]),
            Matrix(Q, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]),
        ))
    for N, S in cases:
        a = check_nijenhuis_pair(make_pair(N, S), l2_regular).ok
        b = check_dual_nijenhuis_pair(make_pair(N, S.transpose()), l2_dual).ok
        assert a == b
        positives += a
        negatives += not a
    assert positives >= 3 and negatives >= 3


def test_deformation_trivial_pairs(l2_regular):
    t = [1, 2, Fraction(-1, 3)]
    for pair in (make_pair(Z2(), Z2()), make_pair(I2(), I2()),
                 make_pair(nij_matrix(2, 3), Z2())):
        out = deformation_from_pair(pair, l2_regular, t)
        assert out.report.ok


def test_deformation_cocycle_shape(l2, l2_regular):
    out = deformation_from_pair(make_pair(nij_matrix(2, 3), Z2()), l2_regular, [1])
    # the cocycle is the three-term twisted bracket, not [N., N.]
    assert out.omega[1][0] == (3, 0)
    N = nij_matrix(2, 3)
    assert l2.bracket(N.col(1), N.col(0)) == (6, 0)


def test_deformation_rejects_non_pair(l2_regular):
    with pytest.raises(NotNijenhuisPair):
        deformation_from_pair(make_pair(Matrix(Q, [[0, 0], [1, 0]]), Z2()), l2_regular, [1])


def test_hat_tilde(l2_regular, l2_dual):
    hat, tilde = hat_tilde_representations(make_pair(nij_matrix(2, 3), Z2()), l2_regular)
    assert check_representation(hat).ok
    # S = 0 makes both equal the composed action
    assert list(hat.rhoL) == list(tilde.rhoL)
    hat2, tilde2 = hat_tilde_representations(make_pair(I2(), I2()), l2_regular)
    assert list(hat2.rhoL) == list(l2_regular.rhoL)
    assert check_representation(hat2).ok and check_representation(tilde2).ok
    _, tilde3 = hat_tilde_representations(
        make_pair(nij_matrix(2, 3), Z2()), l2_dual
    )
    assert check_representation(tilde3).ok


def test_hat_tilde_rejects_non_pairs(l2_regular):
    with pytest.raises(NeitherPairKind):
        hat_tilde_representations(make_pair(Matrix(Q, [[0, 0], [1, 0]]), Z2()), l2_regular)


def _bsharp_pair(l2, l2_dual):
    B = BilinearForm(l2, Matrix(Q, [[0, 1], [1, 1]]), "symmetric")
    K = LinearOperator(form_sharp_matrix(B), "dual", "algebra")
    N = Matrix(Q, [[2, 5], [0, 2]])
    K2 = LinearOperator(N * K.matrix, "dual", "algebra")
    return K, K2


def test_kn_trivial_modes(l2_regular):
    K = as_operator(rb_matrix(1))
    assert check_kn_structure(make_kn(K, Z2(), Z2(), "kn"), l2_regular).ok
    assert check_kn_structure(make_kn(K, I2(), I2(), "kn"), l2_regular).ok


@pytest.mark.parametrize("mode", ["garbage", 7, None, "KN"])
def test_kn_structure_refuses_an_unknown_mode(mode):
    """A mode other than kn or dual-kn is refused where the structure is
    made, as BilinearForm refuses an unknown symmetry tag; the check never
    reads it as dual-kn."""
    with pytest.raises(ShapeMismatch, match=f"^unknown KN mode {mode!r}$"):
        make_kn(as_operator(rb_matrix(1)), Z2(), Z2(), mode)


def test_kn_consequences_bundled(l2, l2_dual):
    K, K2 = _bsharp_pair(l2, l2_dual)
    kn1, kn2 = dual_kn_from_compatible(K, K2, l2_dual)
    full = check_kn_structure(kn1, l2_dual, consequences=True)
    assert full.ok
    core = check_kn_structure(kn1, l2_dual, consequences=False)
    assert core.ok
    assert check_kn_structure(kn2, l2_dual, consequences=True).ok


def test_kn_consequences_check_each_operator_nijenhuis_once(monkeypatch):
    """With consequences, N is checked Nijenhuis once (by the mode's pair
    precondition) and S once (on the sub-adjacent algebra)."""
    from leibnizkit import pairs
    from leibnizkit.catalog import load_entry

    l2 = load_entry("l2").spec
    kn = l2.build("kn_dual")
    checked = []
    real = pairs.check_nijenhuis

    def counting(op, alg):
        checked.append(op.matrix)
        return real(op, alg)

    monkeypatch.setattr(pairs, "check_nijenhuis", counting)
    assert check_kn_structure(kn, l2.rep_for(l2.raw["kn_dual"]["rep"])).ok
    assert checked == [kn.N, kn.S]


def test_kn_structure_builds_each_induced_bracket_once(monkeypatch):
    """One check of l2's dual KN-structure, consequences included, on freshly
    loaded objects forms the induced bracket of each of its four (map,
    representation) pairs once: (K, rep), (NK, rep), and K over the hat and
    the tilde action.  A second check on the same objects forms none, since
    each bracket is kept on its representation."""
    from leibnizkit import operators
    from leibnizkit.catalog import load_entry

    def fresh():
        l2 = load_entry("l2").spec
        return l2.build("kn_dual"), l2.rep_for(l2.raw["kn_dual"]["rep"])

    expected = check_kn_structure(*fresh())
    kn, rep = fresh()
    built = []
    real = operators._dendriform

    def counting(T, action):
        built.append((T, action))
        return real(T, action)

    monkeypatch.setattr(operators, "_dendriform", counting)
    report = check_kn_structure(kn, rep)
    assert (report.ok, report.violations) == (expected.ok, expected.violations)
    assert len(built) == len(set(built)) == 4
    assert {(T, action) for T, action in built if action == rep} == {
        (kn.K.matrix, rep), (kn.N * kn.K.matrix, rep)}
    built.clear()
    again = check_kn_structure(kn, rep)
    assert (again.ok, again.violations) == (expected.ok, expected.violations)
    assert built == []


def test_kn_to_dual(l2, l2_dual):
    K, _ = _bsharp_pair(l2, l2_dual)
    out = kn_to_dual_kn(make_kn(K, I2(), I2(), "kn"), l2_dual)
    assert out.mode == "dual-kn"
    assert check_kn_structure(out, l2_dual).ok
    out0 = kn_to_dual_kn(make_kn(K, Z2(), Z2(), "kn"), l2_dual)
    assert check_kn_structure(out0, l2_dual).ok


def test_kn_to_dual_requires_invertible(l2_regular):
    with pytest.raises(Singular):
        kn_to_dual_kn(make_kn(as_operator(rb_matrix(1)), I2(), I2(), "kn"), l2_regular)


def test_compatible_from_kn(l2_regular, l2, l2_dual):
    K = as_operator(rb_matrix(1))
    assert compatible_from_kn(make_kn(K, Z2(), Z2(), "kn"), l2_regular).ok
    assert compatible_from_kn(make_kn(K, I2(), I2(), "kn"), l2_regular).ok
    Ksh, K2 = _bsharp_pair(l2, l2_dual)
    kn1, _ = dual_kn_from_compatible(Ksh, K2, l2_dual)
    assert compatible_from_kn(kn1, l2_dual).ok


def test_dual_kn_from_compatible_values(l2, l2_dual):
    K, K2 = _bsharp_pair(l2, l2_dual)
    kn1, kn2 = dual_kn_from_compatible(K, K2, l2_dual)
    assert kn1.N == Matrix(Q, [[2, 5], [0, 2]])
    assert kn1.S == Matrix(Q, [[2, 0], [5, 2]])
    assert kn2.K.matrix == K2.matrix
    # scalar case: S = N = 3I
    a, _ = dual_kn_from_compatible(K, LinearOperator(K.matrix.scale(3)), l2_dual)
    assert a.N == I2().scale(3) and a.S == I2().scale(3)
    # zero case
    z, _ = dual_kn_from_compatible(K, LinearOperator(Z2()), l2_dual)
    assert z.N.is_zero() and z.S.is_zero()


def test_sum_nijenhuis(l2, l2_regular):
    V = LeibnizAlgebra.abelian(Q, 2)
    _, tw = check_matched_pair(
        l2, V, Representation(l2, l2_regular.rhoL, l2_regular.rhoR),
        Representation.zero(V, 2),
    )
    ctx = TwilledContext(tw, 2, 2)
    N = nij_matrix(2, 3)
    assert sum_nijenhuis_on_twilled(make_pair(N, Z2()), make_pair(Z2(), N), ctx).ok
    assert sum_nijenhuis_on_twilled(make_pair(Z2(), Z2()), make_pair(Z2(), Z2()), ctx).ok
    # perfect pair: the dualized-module branch runs too
    report = sum_nijenhuis_on_twilled(
        make_pair(I2(), I2().scale(2)), make_pair(I2().scale(2), I2()), ctx
    )
    assert report.ok
    assert "perfect-dual-sum" not in report.notes


def test_sum_nijenhuis_rejects_bad_pair(l2, l2_regular):
    V = LeibnizAlgebra.abelian(Q, 2)
    _, tw = check_matched_pair(
        l2, V, Representation(l2, l2_regular.rhoL, l2_regular.rhoR),
        Representation.zero(V, 2),
    )
    ctx = TwilledContext(tw, 2, 2)
    bad = Matrix(Q, [[0, 0], [1, 0]])
    with pytest.raises(PairCheckFailed):
        sum_nijenhuis_on_twilled(make_pair(bad, Z2()), make_pair(Z2(), bad), ctx)


def test_sum_nijenhuis_checks_each_pair_once(monkeypatch):
    """A `sum-nijenhuis` run checks each (pair, representation) once: the
    perfect-pair branch reuses the Nijenhuis-pair verdict it already has."""
    from leibnizkit import pairs
    from leibnizkit.catalog import load_catalog
    from leibnizkit.suites import run_suites

    calls = {}
    check = pairs.check_nijenhuis_pair

    def counted(pair, rep):
        key = (pair, id(rep))
        calls[key] = calls.get(key, 0) + 1
        return check(pair, rep)

    monkeypatch.setattr(pairs, "check_nijenhuis_pair", counted)
    (result,) = run_suites(load_catalog(), ["sum-nijenhuis"])
    assert result.ok and result.passed == 4
    assert len(calls) == 8
    assert set(calls.values()) == {1}
