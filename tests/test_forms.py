import random

import pytest

from leibnizkit import (
    BilinearForm,
    LeibnizAlgebra,
    Matrix,
    RATIONALS as Q,
    Tensor2,
    as_operator,
    check_bn_structure,
    check_kupershmidt,
    check_quadratic,
    check_rbn_structure,
    check_rn_structure,
    check_ybe,
    dual_representation,
    rbn_rn_transfer,
    regular_representation,
    semidirect_sum,
    sharp_map,
)
from leibnizkit.errors import (
    Degenerate,
    FieldMismatch,
    HypothesisFailed,
    NotNijenhuis,
    NotSkew,
    NotSymmetric,
    ShapeMismatch,
)
from leibnizkit.fields import prime_field
from leibnizkit.forms import form_sharp_matrix
from leibnizkit.operators import LinearOperator

from conftest import nij_matrix, rb_matrix


def test_ybe_zero(l2):
    assert check_ybe(l2, Tensor2(l2, Matrix.zeros(Q, 2, 2))).ok


def test_ybe_e0(l2):
    assert check_ybe(l2, Tensor2(l2, Matrix(Q, [[1, 0], [0, 0]]))).ok


def test_ybe_e1_fails(l2):
    report = check_ybe(l2, Tensor2(l2, Matrix(Q, [[0, 0], [0, 1]])))
    assert not report.ok


def test_ybe_abelian_identity():
    alg = LeibnizAlgebra.abelian(Q, 2)
    assert check_ybe(alg, Tensor2(alg, Matrix.identity(Q, 2))).ok


def test_sharp_map(l2):
    pi = Tensor2(l2, Matrix(Q, [[1, 0], [0, 0]]))
    op = sharp_map(pi)
    assert op.matrix == pi.matrix
    dual = dual_representation(regular_representation(l2))
    assert check_kupershmidt(op, dual).ok


def test_sharp_requires_symmetric(l2):
    with pytest.raises(NotSymmetric):
        sharp_map(Tensor2(l2, Matrix(Q, [[0, 1], [0, 0]])))


def test_symmetric_ybe_implies_kupershmidt(l2):
    """One direction of the r-matrix / operator correspondence, on random
    symmetric tensors."""
    rng = random.Random(31)
    algs = [l2, LeibnizAlgebra.from_brackets(Q, 2, {(1, 1): [1, 0]})]
    hits = 0
    for alg in algs:
        dual = dual_representation(regular_representation(alg))
        for _ in range(150):
            m = [[0] * 2 for _ in range(2)]
            for i in range(2):
                for j in range(i, 2):
                    m[i][j] = m[j][i] = rng.randint(-1, 1)
            pi = Tensor2(alg, Matrix(Q, m))
            if check_ybe(alg, pi).ok:
                hits += 1
                assert check_kupershmidt(
                    LinearOperator(pi.matrix, "dual", "algebra"), dual
                ).ok
    assert hits > 50


def test_quadratic_abelian():
    alg = LeibnizAlgebra.abelian(Q, 2)
    assert check_quadratic(alg, BilinearForm(alg, Matrix(Q, [[0, 1], [-1, 0]]), "skew")).ok


def test_quadratic_fails_on_l2(l2):
    report = check_quadratic(l2, BilinearForm(l2, Matrix(Q, [[0, 1], [-1, 0]]), "skew"))
    assert not report.ok
    v = next(v for v in report.violations if v.index == (0, 1, 1))
    assert v.lhs == (0,) and v.rhs == (1,)


def test_quadratic_requires_skew_nondegenerate(l2):
    with pytest.raises(NotSkew):
        check_quadratic(l2, BilinearForm(l2, Matrix.identity(Q, 2), "symmetric"))
    alg = LeibnizAlgebra.abelian(Q, 2)
    with pytest.raises(Degenerate):
        check_quadratic(alg, BilinearForm(alg, Matrix.zeros(Q, 2, 2), "skew"))


@pytest.fixture(scope="module")
def quad4(l2):
    dual = dual_representation(regular_representation(l2))
    alg = semidirect_sum(dual)
    q = BilinearForm(
        alg,
        Matrix(Q, [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]),
        "skew",
    )
    return alg, q


def test_quadratic_dim4(quad4):
    alg, q = quad4
    report = check_quadratic(alg, q, consequences=True)
    assert report.ok  # includes the sharp-map intertwining identities


def _block_lift(K):
    z = [[0] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            z[2 + i][j] = K[i, j]
    return Matrix(Q, z)


def test_rbn_example_family(l2):
    for a in (1, 2, Q.of("-3/2")):
        for b in ((2, 3), (1, 1), (0, 5)):
            assert check_rbn_structure(
                l2, as_operator(rb_matrix(a)), as_operator(nij_matrix(*b))
            ).ok


def test_rbn_zero_and_identity(l2):
    assert check_rbn_structure(
        l2, as_operator(Matrix.zeros(Q, 2, 2)), as_operator(nij_matrix(2, 3))
    ).ok
    assert check_rbn_structure(
        l2, as_operator(rb_matrix(1)), as_operator(Matrix.identity(Q, 2))
    ).ok


def test_rn_zero_tensor(l2):
    assert check_rn_structure(
        l2, Tensor2(l2, Matrix.zeros(Q, 2, 2)), as_operator(Matrix.identity(Q, 2))
    ).ok


def test_rn_oracle_resolved_case(l2):
    """The operator-commutation half holds but the bracket half fails."""
    pi = Tensor2(l2, Matrix(Q, [[1, 0], [0, 0]]))
    N = nij_matrix(2, 3)
    assert N * pi.matrix == pi.matrix * N.transpose()
    report = check_rn_structure(l2, pi, as_operator(N), consequences=False)
    assert not report.ok
    assert [v.identity for v in report.violations] == ["rn-bracket"]
    assert report.violations[0].index == (0, 0)


def test_rn_rejects_non_nijenhuis(l2):
    pi = Tensor2(l2, Matrix(Q, [[1, 0], [0, 0]]))
    D = Matrix(Q, [[1, 0], [0, 2]])
    # the commutation identity alone holds for the diagonal map
    assert D * pi.matrix == pi.matrix * D.transpose()
    with pytest.raises(NotNijenhuis):
        check_rn_structure(l2, pi, as_operator(D))


def test_rn_nontrivial(quad4):
    alg, q = quad4
    qs = form_sharp_matrix(q)
    R = _block_lift(Matrix(Q, [[1, 0], [0, 0]]))
    N = Matrix(Q, [[2, 0, 0, 0], [5, 2, 0, 0], [0, 0, 2, 5], [0, 0, 0, 2]])
    pi = Tensor2(alg, R * qs)
    assert check_rn_structure(alg, pi, as_operator(N), consequences=True).ok


def test_bn_structure_family(l2):
    for (p, qv, beta) in ((2, 5, 1), (1, 0, 0), (3, -1, 2)):
        B = BilinearForm(l2, Matrix(Q, [[0, 1], [1, beta]]), "symmetric")
        N = as_operator(Matrix(Q, [[p, qv], [0, p]]))
        assert check_bn_structure(l2, B, N, consequences=True).ok


def test_bn_abelian():
    alg = LeibnizAlgebra.abelian(Q, 2)
    B = BilinearForm(alg, Matrix.identity(Q, 2), "symmetric")
    assert check_bn_structure(alg, B, as_operator(Matrix.identity(Q, 2))).ok
    sym = as_operator(Matrix(Q, [[1, 2], [2, 1]]))
    assert check_bn_structure(alg, B, sym).ok


def test_bn_rejects_asymmetric_coupling(l2):
    B = BilinearForm(l2, Matrix(Q, [[0, 1], [1, 1]]), "symmetric")
    N = as_operator(nij_matrix(2, 3))  # Nijenhuis, but B-incompatible
    report = check_bn_structure(l2, B, N, consequences=False)
    assert not report.ok
    assert any(v.identity == "bn-compat" for v in report.violations)


def test_transfer_cases(quad4):
    alg, q = quad4
    N2 = as_operator(Matrix.identity(Q, 4).scale(2))
    for K, side in ((Matrix(Q, [[1, 0], [0, 0]]), "ok"),
                    (Matrix(Q, [[-1, 1], [1, 0]]), "ok"),
                    (Matrix.identity(Q, 2), "fail")):
        R = as_operator(_block_lift(K))
        report = rbn_rn_transfer(alg, q, R, N2)
        assert report.ok
        assert report.notes["rota-baxter-side"] == side
        assert report.notes["r-matrix-side"] == side


def test_transfer_zero(quad4):
    alg, q = quad4
    report = rbn_rn_transfer(alg, q, as_operator(Matrix.zeros(Q, 4, 4)),
                             as_operator(Matrix.identity(Q, 4)))
    assert report.ok
    assert report.notes["rota-baxter-side"] == "ok"


def test_transfer_hypothesis_failures(quad4, l2):
    alg, q = quad4
    # Nijenhuis (scalar on each block), but not commuting with the sharp map
    N_bad = as_operator(Matrix(Q, [[2, 0, 0, 0], [0, 2, 0, 0],
                                   [0, 0, 3, 0], [0, 0, 0, 3]]))
    with pytest.raises(HypothesisFailed):
        rbn_rn_transfer(alg, q, as_operator(Matrix.zeros(Q, 4, 4)), N_bad)
    # non-invariant form
    bad_q = BilinearForm(l2, Matrix(Q, [[0, 1], [-1, 0]]), "skew")
    with pytest.raises(HypothesisFailed):
        rbn_rn_transfer(l2, bad_q, as_operator(Matrix.zeros(Q, 2, 2)),
                        as_operator(Matrix.identity(Q, 2)))


def test_a_matrix_over_another_field_is_refused(l2):
    """A 2-tensor or a form whose matrix is over another field than its
    algebra's is a FieldMismatch, as the action matrices of a
    representation are: no check then mixes two fields."""
    m = Matrix(prime_field(3), [[1, 0], [0, 1]])
    with pytest.raises(FieldMismatch, match="^tensor matrix must share the algebra's field$"):
        Tensor2(l2, m)
    with pytest.raises(FieldMismatch, match="^form matrix must share the algebra's field$"):
        BilinearForm(l2, m)
    with pytest.raises(FieldMismatch, match="^form matrix must share the algebra's field$"):
        BilinearForm(l2, Matrix(prime_field(3), [[0, 1], [2, 0]]), "skew")


def test_a_form_of_another_algebra_is_refused(quad4):
    """The form checks read the form on the algebra they are given: a form
    tagged to another algebra is a ShapeMismatch, as a 2-tensor of another
    algebra is for check_ybe.  quad4's skew matrix on the abelian algebra is
    a quadratic form there, not on quad4's algebra."""
    alg, q = quad4
    abelian = LeibnizAlgebra.abelian(Q, 4)
    skew = BilinearForm(abelian, q.matrix, "skew")
    symmetric = BilinearForm(abelian, Matrix.identity(Q, 4))
    assert check_quadratic(abelian, skew).ok
    N, zero = as_operator(Matrix.identity(Q, 4)), as_operator(Matrix.zeros(Q, 4, 4))
    for run in (lambda: check_quadratic(alg, skew),
                lambda: check_quadratic(alg, skew, consequences=False),
                lambda: check_bn_structure(alg, symmetric, N),
                lambda: rbn_rn_transfer(alg, skew, zero, N)):
        with pytest.raises(ShapeMismatch, match="^form belongs to a different algebra$"):
            run()
    # a form on an equal algebra, built again, is a form on this one
    assert check_quadratic(alg, BilinearForm(LeibnizAlgebra(Q, alg.c), q.matrix, "skew")).ok
