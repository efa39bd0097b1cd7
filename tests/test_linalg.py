from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizkit import (
    LeibnizAlgebra,
    Matrix,
    RATIONALS as Q,
    Representation,
    mat_inverse,
    mat_mul,
    prime_field,
    solve_linear,
)
from leibnizkit.errors import ShapeMismatch, Singular
from leibnizkit import oracles
from leibnizkit.linalg import rank, is_invertible

F5 = prime_field(5)


def test_identity_product():
    m = Matrix(Q, [[1, 2], [3, 4]])
    assert mat_mul(Matrix.identity(Q, 2), m) == m


def test_square_of_nilpotentish():
    m = Matrix(Q, [[0, 1], [0, -1]])
    assert mat_mul(m, m) == Matrix(Q, [[0, -1], [0, 1]])


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        mat_mul(Matrix.zeros(Q, 2, 3), Matrix.zeros(Q, 2, 2))


def test_inverse_unipotent():
    m = Matrix(Q, [[1, 1], [0, 1]])
    assert mat_inverse(m) == Matrix(Q, [[1, -1], [0, 1]])


def test_inverse_identity():
    assert mat_inverse(Matrix.identity(Q, 3)) == Matrix.identity(Q, 3)


def test_singular():
    with pytest.raises(Singular):
        mat_inverse(Matrix(Q, [[1, 1], [1, 1]]))


def test_solve_unique():
    sol = solve_linear(Matrix.identity(Q, 2), (3, Fraction(1, 2)))
    assert sol.particular == (3, Fraction(1, 2))
    assert sol.nullspace == ()


def test_solve_all_free():
    sol = solve_linear(Matrix.zeros(Q, 2, 2), (0, 0))
    assert sol.particular == (0, 0)
    assert len(sol.nullspace) == 2


def test_solve_inconsistent():
    sol = solve_linear(Matrix.zeros(Q, 2, 2), (1, 0))
    assert not sol.has_solution


def test_transpose_examples(l2_regular):
    assert Matrix.identity(Q, 2).transpose() == Matrix.identity(Q, 2)
    # left action of the second basis element on the two-dim example algebra
    L1 = l2_regular.rhoL[1]
    assert L1 == Matrix(Q, [[1, 1], [0, 0]])
    assert L1.transpose() == Matrix(Q, [[1, 0], [1, 0]])


small = st.integers(min_value=-5, max_value=5)


@st.composite
def matrices(draw, rows=3, cols=3):
    return Matrix(Q, [[draw(small) for _ in range(cols)] for _ in range(rows)])


@given(m=matrices())
@settings(max_examples=40)
def test_transpose_involution(m):
    assert m.transpose().transpose() == m


@given(a=matrices(), b=matrices())
@settings(max_examples=40)
def test_transpose_reverses_products(a, b):
    assert mat_mul(a, b).transpose() == mat_mul(b.transpose(), a.transpose())


@given(a=matrices())
@settings(max_examples=40)
def test_inverse_postcondition(a):
    if is_invertible(a):
        inv = mat_inverse(a)
        assert mat_mul(a, inv) == Matrix.identity(Q, 3)
        assert mat_mul(inv, a) == Matrix.identity(Q, 3)


@given(a=matrices(rows=3, cols=4), data=st.data())
@settings(max_examples=40)
def test_solve_postcondition(a, data):
    rhs = tuple(data.draw(small) for _ in range(3))
    sol = solve_linear(a, rhs)
    if not sol.has_solution:
        # verify rhs is genuinely outside the column span: rank grows
        aug = Matrix(Q, [list(row) + [v] for row, v in zip(a.entries, rhs)])
        assert rank(aug) == rank(a) + 1
        return
    f = Q
    def residual(x):
        return tuple(f.normalize(sum(r * v for r, v in zip(row, x))) for row in a.entries)
    assert residual(sol.particular) == tuple(rhs)
    for h in sol.nullspace:
        combined = tuple(f.add(p, 2 * v) for p, v in zip(sol.particular, h))
        assert residual(combined) == tuple(rhs)


def test_prime_field_solving():
    a = Matrix(F5, [[2, 1], [1, 2]])
    sol = solve_linear(a, (1, 2))
    assert sol.has_solution
    x = sol.particular
    assert a.apply(x) == (1, 2)
    assert mat_mul(a, mat_inverse(a)) == Matrix.identity(F5, 2)


def _scalar(f):
    """Raw scalars as callers pass them: Fractions over Q (some with
    denominator 1), ints outside [0, p) over F_p."""
    if f.p is None:
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return st.integers(-7, 7)


@st.composite
def _field_case(draw):
    f = draw(st.sampled_from([Q, prime_field(2), prime_field(3)]))
    dim = st.integers(1, 3)
    r, k, c, d, n = (draw(dim) for _ in range(5))

    def mat(rows, cols):
        return Matrix(f, [[draw(_scalar(f)) for _ in range(cols)] for _ in range(rows)])

    return dict(f=f, a=mat(r, k), b=mat(k, c), a2=mat(r, k), sq=mat(d, d), s=draw(_scalar(f)),
                x=[draw(_scalar(f)) for _ in range(n)],
                rhoL=[mat(d, d) for _ in range(n)], rhoR=[mat(d, d) for _ in range(n)])


@given(case=_field_case())
@settings(max_examples=80, deadline=None)
def test_trusted_results_match_oracles_and_are_normalized(case):
    """Every producer built on ``Matrix._trusted`` agrees with the oracle
    helpers and returns entries that ``Matrix(f, entries)`` would not change,
    value or type (Q keeps integral values as int, F_p keeps [0, p))."""
    f, a, sq = case["f"], case["a"], case["sq"]
    rep = Representation(LeibnizAlgebra.abelian(f, len(case["x"])), case["rhoL"], case["rhoR"])
    results = [
        (mat_mul(a, case["b"]), oracles._mmul(f, a.entries, case["b"].entries)),
        (a + case["a2"], oracles._madd(f, a.entries, case["a2"].entries)),
        (a - case["a2"], oracles._madd(f, a.entries, case["a2"].entries, sign=-1)),
        (-a, oracles._mneg(f, a.entries)),
        (sq.scale(case["s"]), oracles._act(f, [sq.entries], [case["s"]])),
        (a.transpose(), tuple(oracles._col(a.entries, j) for j in range(a.cols))),
        (rep.actL(case["x"]), oracles._act(f, [m.entries for m in case["rhoL"]], case["x"])),
        (rep.actR(case["x"]), oracles._act(f, [m.entries for m in case["rhoR"]], case["x"])),
    ]
    for got, want in results:
        assert got.entries == want
        again = Matrix(f, got.entries)
        assert got == again
        assert [type(v) for row in got.entries for v in row] == \
            [type(v) for row in again.entries for v in row]


def _per_entry_eliminate(f, m):
    """Bareiss forward elimination with one field call per operation on each
    entry: the reference that the raw-row elimination of ``linalg`` must
    match, value and type."""
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots = []
    prev = f.one()
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if not f.is_zero(m[i][c])), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        piv = m[r][c]
        for i in range(r + 1, n_rows):
            fac = m[i][c]
            row_i, row_r = m[i], m[r]
            m[i] = [f.div(f.sub(f.mul(piv, row_i[j]), f.mul(fac, row_r[j])), prev)
                    for j in range(n_cols)]
        pivots.append((r, c))
        prev = piv
        r += 1
        if r == n_rows:
            break
    return m, pivots


@st.composite
def _elimination_case(draw):
    """A matrix over F2, F3, F5 or Q (Fractions included), often singular,
    and a right-hand side."""
    f = draw(st.sampled_from([prime_field(2), prime_field(3), F5, Q]))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    scalar = st.one_of(st.just(0), _scalar(f))
    a = Matrix(f, [[draw(scalar) for _ in range(cols)] for _ in range(rows)])
    return f, a, [draw(scalar) for _ in range(rows)]


def _solved(a, rhs):
    """rank, the solution and the inverse (or the Singular text) of a."""
    sol = solve_linear(a, rhs)
    try:
        inverse = mat_inverse(a) if a.rows == a.cols else None
    except Singular as exc:
        inverse = str(exc)
    return rank(a), sol.particular, sol.nullspace, inverse


@given(case=_elimination_case())
@settings(max_examples=150, deadline=None)
def test_raw_row_elimination_matches_per_entry_elimination(case):
    """Cross-multiplying each row on raw values and normalizing it once
    eliminates to the same rows, value and type, and the same pivots as
    per-entry field calls, so ``rank``, ``solve_linear`` and ``mat_inverse``
    give the same results; over Q no float appears."""
    from leibnizkit import linalg

    f, a, rhs = case
    rows = [list(row) + [f.normalize(v)] for row, v in zip(a.entries, rhs)]
    got = linalg._forward_eliminate(f, [list(row) for row in rows])
    want = _per_entry_eliminate(f, [list(row) for row in rows])
    assert got == want
    assert [type(v) for row in got[0] for v in row] == [type(v) for row in want[0] for v in row]
    assert all(type(v) in (int, Fraction) for row in got[0] for v in row)
    results = _solved(a, rhs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_forward_eliminate", _per_entry_eliminate)
        assert results == _solved(a, rhs)
