import random
from fractions import Fraction
from operator import add, sub

import pytest

from leibnizkit import (
    LeibnizAlgebra,
    Matrix,
    RATIONALS as Q,
    as_operator,
    check_compatible,
    check_kupershmidt,
    check_leibniz,
    check_matched_pair,
    check_nijenhuis,
    check_nk_condition,
    check_representation,
    check_rota_baxter,
    deformed_bracket,
    induced_representation,
    lifted_algebra,
    nijenhuis_from_compatible,
    prime_field,
    regular_representation,
    semidirect_sum,
    subadjacent_algebra,
)
from leibnizkit.errors import NotKupershmidt, ShapeMismatch, Singular
from leibnizkit.operators import (
    LinearOperator,
    _applied,
    _dendriform,
    _images,
    _kupershmidt_sides,
)

from conftest import nij_matrix, rb_matrix

F2 = prime_field(2)


def test_zero_operator_is_kupershmidt(l2_regular):
    assert check_kupershmidt(as_operator(Matrix.zeros(Q, 2, 2)), l2_regular).ok


def test_example_operator_is_kupershmidt(l2_regular):
    assert check_kupershmidt(as_operator(rb_matrix(1)), l2_regular).ok


def test_identity_is_not_kupershmidt(l2_regular):
    report = check_kupershmidt(as_operator(Matrix.identity(Q, 2)), l2_regular)
    assert not report.ok
    v = next(v for v in report.violations if v.index == (1, 0))
    assert v.lhs == (1, 0)
    assert v.rhs == (2, 0)


def test_subadjacent_values(l2_regular):
    pair, sub = subadjacent_algebra(as_operator(rb_matrix(1)), l2_regular)
    assert sub.bracket_basis(1, 1) == (-1, 0)
    assert sub.bracket_basis(1, 0) == (-1, 0)
    assert sub.bracket_basis(0, 0) == (0, 0)
    assert sub.bracket_basis(0, 1) == (0, 0)
    assert check_leibniz(sub).ok
    # the two half-products sum to the bracket
    for i in range(2):
        for j in range(2):
            total = tuple(a + b for a, b in zip(pair.lhd[i][j], pair.rhd[i][j]))
            assert total == sub.bracket_basis(i, j)


def test_subadjacent_zero(l2_regular):
    _, sub = subadjacent_algebra(as_operator(Matrix.zeros(Q, 2, 2)), l2_regular)
    assert sub.c == LeibnizAlgebra.abelian(Q, 2).c


def test_induced_representation(l2_regular):
    induced = induced_representation(as_operator(rb_matrix(1)), l2_regular)
    assert check_representation(induced).ok


def test_induced_representation_zero(l2_regular):
    induced = induced_representation(as_operator(Matrix.zeros(Q, 2, 2)), l2_regular)
    assert all(m.is_zero() for m in list(induced.rhoL) + list(induced.rhoR))


def test_lifted_algebra(l2, l2_regular):
    lift = lifted_algebra(as_operator(rb_matrix(1)), l2_regular)
    assert lift.dim == 4
    assert check_leibniz(lift).ok
    for i in range(2):
        for j in range(2):
            assert lift.c[i][j][:2] == l2.c[i][j]


def test_lifted_zero_is_swapped_semidirect(l2_regular):
    lift = lifted_algebra(as_operator(Matrix.zeros(Q, 2, 2)), l2_regular)
    sd = semidirect_sum(l2_regular)
    perm = [2, 3, 0, 1]
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert sd.c[i][j][k] == lift.c[perm[i]][perm[j]][perm[k]]


def test_nijenhuis_identity_operator(l2):
    assert check_nijenhuis(as_operator(Matrix.identity(Q, 2)), l2).ok


@pytest.mark.parametrize("b", [(2, 3), (1, 1), (0, 5)])
def test_nijenhuis_family(l2, b):
    assert check_nijenhuis(as_operator(nij_matrix(*b)), l2).ok


def test_nijenhuis_f2_count(l2):
    l2f2 = LeibnizAlgebra.from_brackets(F2, 2, {(1, 0): [1, 0], (1, 1): [1, 0]})
    good = []
    for bits in range(16):
        m = Matrix(F2, [[bits & 1, (bits >> 1) & 1], [(bits >> 2) & 1, (bits >> 3) & 1]])
        if check_nijenhuis(as_operator(m), l2f2).ok:
            good.append(m)
    assert len(good) == 6
    assert Matrix.zeros(F2, 2, 2) in good
    assert Matrix.identity(F2, 2) in good


def test_deformed_bracket_identity(l2):
    assert deformed_bracket(as_operator(Matrix.identity(Q, 2)), l2).c == l2.c


def test_deformed_bracket_zero(l2):
    assert deformed_bracket(as_operator(Matrix.zeros(Q, 2, 2)), l2).c == \
        LeibnizAlgebra.abelian(Q, 2).c


def test_deformed_bracket_value(l2):
    d = deformed_bracket(as_operator(nij_matrix(2, 3)), l2)
    # [N e1, e0] + [e1, N e0] - N [e1, e0] = 3 e0 + 2 e0 - 2 e0
    assert d.bracket_basis(1, 0) == (3, 0)
    assert d.bracket_basis(1, 1) == (3, 0)
    assert check_leibniz(d).ok


def test_deformed_bracket_refuses_an_operator_over_another_field(l2, l2_single):
    """2I over F3 is -I there, not the 2I of Q that the tensor would read
    its entries as; the refusal holds on a non-Leibniz algebra too."""
    F3 = prime_field(3)
    for alg in (l2, l2_single):
        with pytest.raises(ShapeMismatch, match="^operator and algebra fields differ$"):
            deformed_bracket(as_operator(Matrix.identity(F3, 2).scale(F3.of(2))), alg)


def test_nijenhuis_deformation_morphism(l2):
    """N is a morphism from the deformed bracket to the original bracket."""
    rng = random.Random(4)
    found = 0
    while found < 5:
        N = Matrix(Q, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        if not check_nijenhuis(as_operator(N), l2).ok:
            continue
        found += 1
        d = deformed_bracket(as_operator(N), l2)
        assert check_leibniz(d).ok
        for i in range(2):
            for j in range(2):
                assert N.apply(d.bracket_basis(i, j)) == l2.bracket(N.col(i), N.col(j))


def test_rota_baxter_zero(l2):
    assert check_rota_baxter(as_operator(Matrix.zeros(Q, 2, 2)), l2).ok


@pytest.mark.parametrize("a", [1, 2, Fraction(-3, 2)])
def test_rota_baxter_family(l2, a):
    assert check_rota_baxter(as_operator(rb_matrix(a)), l2).ok


def test_rota_baxter_f2():
    l2f2 = LeibnizAlgebra.from_brackets(F2, 2, {(1, 0): [1, 0], (1, 1): [1, 0]})
    assert check_rota_baxter(as_operator(Matrix(F2, [[0, 1], [0, 1]])), l2f2).ok


def test_rota_baxter_fails_on_rejected_variant(l2_single):
    assert not check_rota_baxter(as_operator(rb_matrix(1)), l2_single).ok


@pytest.mark.parametrize("check", [check_nijenhuis, check_rota_baxter])
def test_operator_field_must_be_the_algebra_field(l2, check):
    with pytest.raises(ShapeMismatch, match="^operator and algebra fields differ$"):
        check(as_operator(Matrix.identity(prime_field(3), 2)), l2)


def test_rota_baxter_is_regular_kupershmidt(l2, l2_regular):
    """The two code paths agree on every input."""
    rng = random.Random(9)
    for _ in range(40):
        m = as_operator(Matrix(Q, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]))
        a = check_rota_baxter(m, l2)
        b = check_kupershmidt(m, l2_regular)
        assert a.ok == b.ok
        assert [(v.index, v.lhs, v.rhs) for v in a.violations] == \
            [(v.index, v.lhs, v.rhs) for v in b.violations]


def test_compatible_zero_and_self(l2_regular):
    R = as_operator(rb_matrix(1))
    assert check_compatible(R, as_operator(Matrix.zeros(Q, 2, 2)), l2_regular).ok
    assert check_compatible(R, R, l2_regular).ok


def test_compatible_scalar_family(l2_regular):
    assert check_compatible(as_operator(rb_matrix(1)), as_operator(rb_matrix(2)), l2_regular).ok


def test_incompatible_pair(l2_regular):
    R = as_operator(rb_matrix(1))
    E = as_operator(Matrix(Q, [[0, 1], [0, 0]]))
    report = check_compatible(R, E, l2_regular)
    assert not report.ok


def test_compatible_skips_samples_outside_the_field():
    """Over F2 the sample coefficient 1/2 does not exist; the check notes the
    sample as skipped and still runs the others."""
    F2 = prime_field(2)
    alg = LeibnizAlgebra.from_brackets(F2, 2, {(1, 0): [1, 0], (1, 1): [1, 0]})
    reg = regular_representation(alg)
    R = as_operator(Matrix(F2, [[0, 1], [0, 1]]))
    report = check_compatible(R, as_operator(Matrix.zeros(F2, 2, 2)), reg)
    assert report.ok
    assert report.notes == {"sample-1/2,3": "skipped (coefficients not in field)"}


def test_compatible_requires_kupershmidt(l2_regular):
    with pytest.raises(NotKupershmidt):
        check_compatible(as_operator(Matrix.identity(Q, 2)),
                         as_operator(rb_matrix(1)), l2_regular)


def test_kupershmidt_residue_is_quadratic(l2_regular, l2_dual):
    """R(aA + bB) = a^2 R(A) + b^2 R(B) + ab M(A, B) on raw residues, R the
    Kupershmidt residue and M the mixed identity of ``check_compatible``,
    for random A, B, a and b: so the combinations ``check_compatible``
    samples add no evidence once A and B are Kupershmidt and M vanishes."""
    rng = random.Random(11)

    def residue(T, rep):
        return list(map(sub, *_kupershmidt_sides(T, rep)))

    for rep in (l2_regular, l2_dual):
        alg = rep.algebra
        for _ in range(20):
            A, B = (Matrix(Q, [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
                    for _ in range(2))
            a, b = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
            bracket_A, bracket_B = (list(map(add, *_dendriform(T, rep))) for T in (A, B))
            mixed = map(sub, map(add, _images(alg, A, B), _images(alg, B, A)),
                        map(add, _applied(A, bracket_B), _applied(B, bracket_A)))
            expected = [a * a * x + b * b * y + a * b * z
                        for x, y, z in zip(residue(A, rep), residue(B, rep), mixed)]
            assert residue(A.scale(a) + B.scale(b), rep) == expected


def test_nk_condition(l2_regular):
    R = as_operator(rb_matrix(1))
    ok = check_nk_condition(as_operator(nij_matrix(2, 3)), R, l2_regular)
    assert ok.ok
    assert ok.notes["composite-kupershmidt"] == "ok"
    ident = check_nk_condition(as_operator(Matrix.identity(Q, 2)), R, l2_regular)
    assert ident.ok
    zero = check_nk_condition(as_operator(Matrix.zeros(Q, 2, 2)), R, l2_regular)
    assert zero.ok
    bad = check_nk_condition(as_operator(Matrix(Q, [[2, 5], [0, 2]])), R, l2_regular)
    assert not bad.ok
    # the condition and the direct composite check never disagree
    assert not any(v.identity == "nk-condition-vs-composite" for v in bad.violations)


def test_nijenhuis_from_compatible_trivial(l2, l2_dual):
    from leibnizkit.forms import form_sharp_matrix
    from leibnizkit import BilinearForm

    B = BilinearForm(l2, Matrix(Q, [[0, 1], [1, 1]]), "symmetric")
    K = LinearOperator(form_sharp_matrix(B), "dual", "algebra")
    K2 = LinearOperator(K.matrix.scale(2), "dual", "algebra")
    N = nijenhuis_from_compatible(K2, K, l2_dual)
    assert N.matrix == Matrix.identity(Q, 2).scale(2)
    with pytest.raises(Singular):
        nijenhuis_from_compatible(K, LinearOperator(Matrix.zeros(Q, 2, 2)), l2_dual)
