import argparse
import ast
import hashlib
import operator
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leibnizkit import (
    LeibnizAlgebra,
    Matrix,
    RATIONALS as Q,
    Representation,
    SearchSpec,
    as_operator,
    check_bn_structure,
    check_kupershmidt,
    check_leibniz,
    check_maurer_cartan,
    check_nijenhuis,
    check_quadratic,
    check_rota_baxter,
    dual_representation,
    enumerate_operators,
    lifted_algebra,
    mc_solutions_from_linear_layer,
    prime_field,
    regular_representation,
    solve_mc_linear_layer,
)
from leibnizkit import search
from leibnizkit.catalog import load_catalog
from leibnizkit.dgla import _mc_sides
from leibnizkit.errors import (
    BudgetExceeded,
    Degenerate,
    DivisionByZero,
    NotFound,
    NotNijenhuis,
    NotSymmetric,
    SearchMismatch,
    ShapeMismatch,
)
from leibnizkit.fields import FieldSpec
from leibnizkit.forms import BilinearForm, _closedness_sides, _coupling_sides, _invariance_sides
from leibnizkit.operators import _kupershmidt_sides, _twist_sides
from leibnizkit.oracles import (
    eval_bn_structure,
    eval_kupershmidt,
    eval_maurer_cartan,
    eval_nijenhuis,
    eval_rota_baxter,
)
from leibnizkit.search import (
    _kernel,
    _kernel_source,
    _predicate_fn,
    closed_symmetric_forms,
    invariant_skew_forms,
)
from leibnizkit.suites import _kupershmidt_cases
from leibnizkit.twilled import TwilledContext
from leibnizkit.linalg import LinearSolution, _flat, is_invertible

from conftest import rb_matrix
from oracle_helpers import random_instance

F2 = prime_field(2)
F3 = prime_field(3)
CATALOG_DIR = Path(__file__).resolve().parent.parent / "src" / "leibnizkit" / "catalog"
SRC = Path(search.__file__).resolve().parent


@pytest.fixture(scope="module")
def l2_f2():
    return LeibnizAlgebra.from_brackets(F2, 2, {(1, 0): [1, 0], (1, 1): [1, 0]})


def test_nijenhuis_enumeration_f2(l2_f2):
    found = enumerate_operators(SearchSpec(F2, (2, 2), "nijenhuis", algebra=l2_f2))
    assert len(found) == 6
    assert Matrix.zeros(F2, 2, 2) in found
    assert Matrix.identity(F2, 2) in found
    # independent naive recount over all 16 candidates
    naive = [
        m
        for bits in range(16)
        for m in [Matrix(F2, [[bits >> 3 & 1, bits >> 2 & 1], [bits >> 1 & 1, bits & 1]])]
        if eval_nijenhuis(m, l2_f2).ok
    ]
    assert len(naive) == 6
    assert sorted(m.entries for m in naive) == sorted(m.entries for m in found)


def test_rota_baxter_enumeration_abelian():
    alg = LeibnizAlgebra.abelian(F2, 2)
    found = enumerate_operators(SearchSpec(F2, (2, 2), "rota_baxter", algebra=alg))
    assert len(found) == 16
    naive = sum(
        eval_rota_baxter(
            Matrix(F2, [[b >> 3 & 1, b >> 2 & 1], [b >> 1 & 1, b & 1]]), alg
        ).ok
        for b in range(16)
    )
    assert naive == 16


def test_enumeration_deterministic_across_workers(l2_f2):
    base = enumerate_operators(SearchSpec(F2, (2, 2), "nijenhuis", algebra=l2_f2))
    for workers in (2, 3, 5):
        again = enumerate_operators(
            SearchSpec(F2, (2, 2), "nijenhuis", algebra=l2_f2), workers=workers
        )
        assert [m.entries for m in again] == [m.entries for m in base]


def test_budget_enforced():
    alg = LeibnizAlgebra.abelian(F2, 4)
    rep = regular_representation(alg)
    with pytest.raises(BudgetExceeded):
        enumerate_operators(SearchSpec(F2, (4, 4), "kupershmidt", rep=rep, budget=10))


def test_search_spec_refuses_a_negative_budget(l2_f2):
    """A negative budget is refused when the spec is made, not reported as
    a space over budget."""
    for budget in (-1, -10 ** 6):
        with pytest.raises(ValueError, match=f"^search budget must be nonnegative, got {budget}$"):
            SearchSpec(F2, (2, 2), "nijenhuis", algebra=l2_f2, budget=budget)
    assert len(enumerate_operators(SearchSpec(F2, (2, 2), "nijenhuis", algebra=l2_f2,
                                              budget=16))) == 6
    with pytest.raises(BudgetExceeded, match="^16 candidates exceed budget 0$"):
        enumerate_operators(SearchSpec(F2, (2, 2), "nijenhuis", algebra=l2_f2, budget=0))


@pytest.mark.parametrize("shape", [(3, 3), (1, 1), (2, 3), (0, 0), [2, 3]])
def test_search_spec_refuses_a_bn_pair_shape_off_the_algebra(l2_f2, shape):
    """bn_pair searches the algebra's dim x dim form and operator: another
    shape is a ShapeMismatch, not a silent 2x2 search."""
    with pytest.raises(ShapeMismatch, match=r"^bn_pair searches 2x2 matrices, got shape "):
        SearchSpec(F2, shape, "bn_pair", algebra=l2_f2)
    assert SearchSpec(F2, [2, 2], "bn_pair", algebra=l2_f2).space_size() == 2 ** 8


def _structures(l2_f2):
    """predicate -> (structure keyword, a structure whose shape is not square)."""
    trivial = Representation.zero(l2_f2, 1)
    total = lifted_algebra(as_operator(Matrix.zeros(F2, 2, 1)), trivial)
    return {"kupershmidt": ("rep", trivial), "nijenhuis": ("algebra", l2_f2),
            "rota_baxter": ("algebra", l2_f2), "mc_strong": ("ctx", TwilledContext(total, 2, 1)),
            "bn_pair": ("algebra", l2_f2)}


@pytest.mark.parametrize("predicate", sorted(search.PREDICATES))
def test_search_spec_takes_every_shape_from_the_structure(l2_f2, predicate):
    """The structure a predicate needs gives its shape: g x V for a
    Kupershmidt operator on V, n2 x n1 for a theta on a twilled sum, dim x
    dim on the algebra otherwise.  Any other shape is a ShapeMismatch when the
    spec is made, for every predicate; without the structure any shape is
    taken, and the search names the structure, off a prime field only after
    saying that it needs one."""
    keyword, structure = _structures(l2_f2)[predicate]
    rows, cols = {"rep": (2, 1), "ctx": (1, 2)}.get(keyword, (2, 2))
    blocks = len(search.PREDICATES[predicate].blocks)
    spec = SearchSpec(F2, (rows, cols), predicate, **{keyword: structure})
    assert spec.space_size() == 2 ** (blocks * rows * cols)
    for shape in [(cols, rows + 1), (rows, cols + 1), (0, 0)]:
        with pytest.raises(ShapeMismatch, match=re.escape(
                f"{predicate} searches {rows}x{cols} matrices, got shape {shape!r}")):
            SearchSpec(F2, shape, predicate, **{keyword: structure})
    needs = {"rep": "a representation", "ctx": "a twilled context"}.get(keyword, "an algebra")
    bare = SearchSpec(F2, (5, 7), predicate, budget=0)
    for run in (bare.space_size, lambda: enumerate_operators(bare)):
        with pytest.raises(ShapeMismatch, match=f"^{predicate} search needs {needs}$"):
            run()
    with pytest.raises(ShapeMismatch, match="^exhaustive enumeration needs a prime field$"):
        SearchSpec(Q, None, predicate).space_size()


@pytest.mark.parametrize("predicate", sorted(search.PREDICATES))
def test_search_spec_without_a_shape_takes_the_structures(l2_f2, predicate):
    """A shape of None takes the one the structure gives, and a given shape
    is kept as a tuple, so that a list shape makes an equal, hashable
    spec: both search what the structure's shape searches."""
    keyword, structure = _structures(l2_f2)[predicate]
    shape = {"rep": (2, 1), "ctx": (1, 2)}.get(keyword, (2, 2))
    spec = SearchSpec(F2, None, predicate, **{keyword: structure})
    listed = SearchSpec(F2, list(shape), predicate, **{keyword: structure})
    assert spec.shape == listed.shape == shape
    assert spec == listed and hash(spec) == hash(listed)
    given = SearchSpec(F2, shape, predicate, **{keyword: structure})
    assert enumerate_operators(spec) == enumerate_operators(given)


def test_space_size_too_large_to_print_is_p_to_the_k():
    """A space of more than ``_DECIMAL_BITS`` bits is reported as p^k, not
    printed: the 14 x 14 Nijenhuis candidates over an 82-bit prime field."""
    p = 2417851639229258349412369
    assert p.bit_length() == 82 and 196 * 82 > search._DECIMAL_BITS
    alg = LeibnizAlgebra.abelian(prime_field(p), 14)
    with pytest.raises(BudgetExceeded, match=f"^{p}\\^196 candidates exceed budget 1000000$"):
        SearchSpec(prime_field(p), (14, 14), "nijenhuis", algebra=alg).space_size()


@pytest.mark.parametrize("predicate", ["nijenhuis", "rota_baxter", "bn_pair"])
def test_search_field_must_be_the_algebra_field(l2_f2, predicate):
    with pytest.raises(ShapeMismatch,
                       match="^search field F3 differs from the structure's field F2$"):
        enumerate_operators(SearchSpec(F3, (2, 2), predicate, algebra=l2_f2))


def test_search_specs_on_equal_structures_are_equal(l2_f2):
    """Representations and twilled contexts compare and hash by value, so
    two specs on equal ones, built apart, are equal and hash alike."""
    first = regular_representation(l2_f2)
    second = regular_representation(LeibnizAlgebra(l2_f2.field, l2_f2.c))
    assert first is not second and first == second and hash(first) == hash(second)
    assert first != dual_representation(first)
    specs = [SearchSpec(F2, (2, 2), "kupershmidt", rep=rep) for rep in (first, second)]
    assert specs[0] == specs[1] and hash(specs[0]) == hash(specs[1])
    total = lifted_algebra(as_operator(Matrix.zeros(F2, 2, 2)), first)
    ctxs = [TwilledContext(total, 2, 2) for _ in range(2)]
    assert ctxs[0] is not ctxs[1] and ctxs[0] == ctxs[1] and hash(ctxs[0]) == hash(ctxs[1])
    specs = [SearchSpec(F2, (2, 2), "mc_strong", ctx=ctx) for ctx in ctxs]
    assert specs[0] == specs[1] and hash(specs[0]) == hash(specs[1])


def test_mc_linear_layer(l2, l2_regular):
    ctx = TwilledContext(lifted_algebra(as_operator(rb_matrix(1)), l2_regular), 2, 2)
    sol = solve_mc_linear_layer(ctx)
    assert sol.has_solution
    assert len(sol.nullspace) == 1
    thetas = mc_solutions_from_linear_layer(ctx)
    assert any(m.is_zero() for m in thetas)
    for theta in thetas:
        assert check_maurer_cartan(ctx, theta).ok


def test_mc_linear_layer_trivial_actions(l2):
    """With a trivial second factor the layer is the kernel of composition
    with the bracket."""
    from leibnizkit import Representation, check_matched_pair

    V = LeibnizAlgebra.abelian(Q, 2)
    _, tw = check_matched_pair(
        V, l2, Representation.zero(V, 2), Representation.zero(l2, 2)
    )
    ctx = TwilledContext(tw, 2, 2)
    sol = solve_mc_linear_layer(ctx)
    # g1 abelian, no actions: every theta solves the linear layer
    assert len(sol.nullspace) == 4


def test_mc_enumeration_f3(l2):
    l2f3 = LeibnizAlgebra.from_brackets(F3, 2, {(1, 0): [1, 0], (1, 1): [1, 0]})
    reg = regular_representation(l2f3)
    R = as_operator(Matrix(F3, [[0, 1], [0, 2]]))
    ctx = TwilledContext(lifted_algebra(R, reg), 2, 2)
    strong = enumerate_operators(SearchSpec(F3, (2, 2), "mc_strong", ctx=ctx))
    assert Matrix.zeros(F3, 2, 2) in strong
    for theta in strong:
        assert check_maurer_cartan(ctx, theta, strong=True).ok


def test_random_instances():
    alg = random_instance("leibniz", 2, Q, seed=1)
    assert check_leibniz(alg).ok
    same = random_instance("leibniz", 2, Q, seed=1)
    assert same.c == alg.c  # deterministic
    l2 = LeibnizAlgebra.from_brackets(Q, 2, {(1, 0): [1, 0], (1, 1): [1, 0]})
    op = random_instance("nijenhuis", l2, Q, seed=7)
    assert check_nijenhuis(op, l2).ok
    rb = random_instance("rota_baxter", l2, Q, seed=3)
    assert check_rota_baxter(rb, l2).ok
    flat = random_instance("leibniz", 2, Q, seed=5, height=0)
    assert flat.c == LeibnizAlgebra.abelian(Q, 2).c


def test_random_instance_not_found():
    l2 = LeibnizAlgebra.from_brackets(Q, 2, {(1, 0): [1, 0], (1, 1): [1, 0]})
    with pytest.raises(NotFound):
        # zero-height sampling can never produce an invertible Nijenhuis map,
        # so demand one implicitly via a doctored check budget
        random_instance("kupershmidt", regular_representation(l2), Q,
                        seed=1, height=3, attempts=0)


def test_enumeration_vs_random_membership(l2_f2):
    """Acceptance cross-check: anything the sampler returns is in the
    exhaustive list."""
    found = {m.entries for m in enumerate_operators(
        SearchSpec(F2, (2, 2), "nijenhuis", algebra=l2_f2))}
    for seed in range(8):
        m = random_instance("nijenhuis", l2_f2, F2, seed=seed)
        assert m.matrix.entries in found


def test_kernels_that_accept_every_candidate_raise_search_mismatch(monkeypatch, l2_f2):
    """Every hit is confirmed against the check's identity: with a kernel
    that accepts every candidate, a matrix search and a bn_pair search (whose
    degenerate forms are still dropped) both stop with SearchMismatch."""
    def accept(flat):
        return True

    monkeypatch.setattr(search, "_predicate_fn", lambda spec: accept)
    with pytest.raises(SearchMismatch, match="compiled nijenhuis kernel accepts"):
        enumerate_operators(SearchSpec(F2, (2, 2), "nijenhuis", algebra=l2_f2))
    space = [Matrix(F2, [x[:2], x[2:]]) for x in product(range(2), repeat=4)]
    b, n = next((b, n) for b in space if is_invertible(b) for n in space
                if not _bn_confirmed(l2_f2, b, n))
    with pytest.raises(SearchMismatch) as raised:
        enumerate_operators(SearchSpec(F2, (2, 2), "bn_pair", algebra=l2_f2))
    assert str(raised.value) == (f"compiled bn_pair kernel accepts {b!r}, {n!r}, "
                                 "the check rejects it")


def _bn_confirmed(alg, b, n):
    """The verdict of check_bn_structure on the form matrix b and the
    operator matrix n, its NotSymmetric, Degenerate and NotNijenhuis
    counted as rejections."""
    try:
        return check_bn_structure(alg, BilinearForm(alg, b, "symmetric"), as_operator(n),
                                  consequences=False).ok
    except (NotSymmetric, Degenerate, NotNijenhuis):
        return False


def test_bn_pair_enumeration(l2_f2):
    pairs = enumerate_operators(SearchSpec(F2, (2, 2), "bn_pair", algebra=l2_f2))
    assert pairs
    for b, n in pairs:
        form = BilinearForm(l2_f2, b, "symmetric")
        assert check_bn_structure(l2_f2, form, as_operator(n), consequences=False).ok
    again = enumerate_operators(SearchSpec(F2, (2, 2), "bn_pair", algebra=l2_f2))
    assert again == pairs
    # naive recount: all 256 (form, operator) combinations
    count = 0
    for bbits in range(16):
        b = Matrix(F2, [[bbits >> 3 & 1, bbits >> 2 & 1], [bbits >> 1 & 1, bbits & 1]])
        if b != b.transpose() or not is_invertible(b):
            continue
        for nbits in range(16):
            n = Matrix(F2, [[nbits >> 3 & 1, nbits >> 2 & 1], [nbits >> 1 & 1, nbits & 1]])
            if not eval_nijenhuis(n, l2_f2).ok:
                continue
            form = BilinearForm(l2_f2, b, "symmetric")
            if check_bn_structure(l2_f2, form, as_operator(n), consequences=False).ok:
                count += 1
    assert count == len(pairs)


def test_invariant_form_solvers(l2):
    from leibnizkit import dual_representation, semidirect_sum

    dual = dual_representation(regular_representation(l2))
    quad4 = semidirect_sum(dual)
    basis = invariant_skew_forms(quad4)
    assert len(basis) == 1
    m = basis[0]
    assert m.transpose() == -m
    assert is_invertible(m)
    assert check_quadratic(quad4, BilinearForm(quad4, m, "skew"), consequences=False).ok
    closed = closed_symmetric_forms(l2)
    # the closed symmetric forms on the example algebra: first entry zero
    for b in closed:
        assert b[0, 0] == 0
        assert b == b.transpose()


def test_workers_start_no_thread(monkeypatch, l2_f2, capsys):
    """Any worker count gives the one-thread result, and neither it nor a
    CLI search starts a thread."""
    import threading

    from leibnizkit import cli

    spec = SearchSpec(F2, (2, 2), "nijenhuis", algebra=l2_f2)
    argv = ["search", str(CATALOG_DIR / "l2.json"), "--predicate", "nijenhuis", "--field", "F2"]
    base = enumerate_operators(spec, workers=1)
    assert cli.main(argv) == 0
    base_out = capsys.readouterr().out

    def refuse(self):
        raise AssertionError("search started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert enumerate_operators(spec, workers=10 ** 6) == base
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == base_out


def _space(f, rows, cols):
    """Every candidate as (flat entries, matrix), in lexicographic order."""
    return [(flat, Matrix(f, [flat[r * cols:(r + 1) * cols] for r in range(rows)]))
            for flat in product(range(f.p), repeat=rows * cols)]


def _agreed_hits(spec, check, oracle):
    space = _space(spec.field, *spec.shape)
    holds = _predicate_fn(spec)
    compiled = [m for flat, m in space if holds(flat)]
    assert compiled == [m for _, m in space if check(m).ok], spec.predicate
    assert compiled == [m for _, m in space if oracle(m).ok], spec.predicate
    assert enumerate_operators(spec) == compiled, spec.predicate
    return compiled


def _oracle_form_ok(b):
    """Symmetric and nondegenerate, by direct formulas (dim <= 2)."""
    e, p = b.entries, b.field.p
    det = e[0][0] if len(e) == 1 else e[0][0] * e[1][1] - e[0][1] * e[1][0]
    return all(e[i][j] == e[j][i] for i in range(len(e)) for j in range(len(e))) and det % p


@settings(max_examples=10, deadline=None)
@given(p=st.sampled_from((2, 3)), n=st.integers(1, 2), seed=st.integers(0, 10 ** 6))
def test_compiled_kernels_match_checks_and_oracles(p, n, seed):
    """Over every candidate, the compiled kernel, the check_* report and the
    independent oracle accept the same matrices, in the same order."""
    f = prime_field(p)
    alg = random_instance("leibniz", n, f, seed)
    regular = regular_representation(alg)
    dual = dual_representation(regular)
    _agreed_hits(SearchSpec(f, (n, n), "nijenhuis", algebra=alg),
                 lambda m: check_nijenhuis(as_operator(m), alg),
                 lambda m: eval_nijenhuis(m, alg))
    _agreed_hits(SearchSpec(f, (n, n), "rota_baxter", algebra=alg),
                 lambda m: check_rota_baxter(as_operator(m), alg),
                 lambda m: eval_rota_baxter(m, alg))
    _agreed_hits(SearchSpec(f, (n, n), "kupershmidt", rep=dual),
                 lambda m: check_kupershmidt(as_operator(m), dual),
                 lambda m: eval_kupershmidt(m, dual))
    kupershmidt = _agreed_hits(SearchSpec(f, (n, n), "kupershmidt", rep=regular),
                               lambda m: check_kupershmidt(as_operator(m), regular),
                               lambda m: eval_kupershmidt(m, regular))
    ctx = TwilledContext(lifted_algebra(as_operator(kupershmidt[-1]), regular), n, n)
    _agreed_hits(SearchSpec(f, (n, n), "mc_strong", ctx=ctx),
                 lambda m: check_maurer_cartan(ctx, m, strong=True),
                 lambda m: eval_maurer_cartan(ctx, m, strong=True))

    # bn_pair: the form-only and operator-only verdicts are computed once,
    # the coupling once per (form, operator) candidate.
    space = [m for _, m in _space(f, n, n)]
    forms = [b for b in space if b == b.transpose() and is_invertible(b)]
    assert forms == [b for b in space if _oracle_form_ok(b)]
    nijenhuis = [m for m in space if check_nijenhuis(as_operator(m), alg).ok]
    assert nijenhuis == [m for m in space if eval_nijenhuis(m, alg).ok]
    checked, oracled = [], []
    for b in forms:
        form = BilinearForm(alg, b, "symmetric")
        for m in nijenhuis:
            if check_bn_structure(alg, form, as_operator(m), consequences=False).ok:
                checked.append((b, m))
            if eval_bn_structure(alg, form, m).ok:
                oracled.append((b, m))
    assert enumerate_operators(SearchSpec(f, (n, n), "bn_pair", algebra=alg)) == checked
    assert checked == oracled


# -- the generated predicate ----------------------------------------------------

PRIMES = (2, 3, 5, 7, 2 ** 61 - 1)


def _vanish(p, residues, x):
    """Every residue is 0 mod p at the point x, evaluated term by term."""
    return all(sum(c * _monomial(mono, x) for mono, c in poly.items()) % p == 0
               for poly in residues)


def _monomial(mono, x):
    out = 1
    for v in mono:
        out *= x[v]
    return out


def _monomials(k):
    """Every monomial of degree at most 2 in k variables, as sorted tuples."""
    return [()] + [(a,) for a in range(k)] + [(a, b) for a in range(k) for b in range(a, k)]


@st.composite
def _residue_systems(draw):
    """(p, k, residues): random residues of degree at most 2 in k variables,
    coefficients r + m*p (multiples of p included), with duplicated and
    scaled copies of some of them."""
    p = draw(st.sampled_from(PRIMES))
    k = draw(st.integers(0, 5))
    rest = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))
    coef = st.builds(lambda r, m: r + m * p, rest, st.integers(-2, 2))
    residues = draw(st.lists(st.dictionaries(st.sampled_from(_monomials(k)), coef, max_size=6),
                             max_size=6))
    for i, scale in draw(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3)), max_size=3)):
        if i < len(residues):
            residues.append({mono: c * scale for mono, c in residues[i].items()})
    return p, k, residues


def _points(p, k, rng, samples=30):
    if p ** k <= 4096:
        return list(product(range(p), repeat=k))
    return [tuple(rng.randrange(p) for _ in range(k)) for _ in range(samples)]


@settings(max_examples=150, deadline=None)
@given(system=_residue_systems(), seed=st.integers(0, 10 ** 6))
def test_generated_predicate_is_every_residue_vanishing(system, seed):
    """At random points, and at every point when p^k <= 4096, the compiled
    predicate says exactly whether every residue vanishes mod p."""
    p, k, residues = system
    holds = _kernel(p, residues)
    for x in _points(p, k, Random(seed)):
        assert holds(x) == _vanish(p, residues, x), (p, residues, x)


@pytest.mark.parametrize("p", PRIMES)
def test_generated_predicate_edge_systems(p):
    rng = Random(p)
    points = _points(p, 3, rng)
    # no equation, or only multiples of p: always true
    for residues in ([], [{}], [{(): p, (0, 1): -2 * p, (2,): 3 * p}]):
        assert _kernel_source(p, residues) == "def holds(x):\n    return True\n"
        assert all(_kernel(p, residues)(x) for x in points)
    # a nonzero constant: always false
    for c in (1, p - 1, 2 * p + 1):
        assert not any(_kernel(p, [{(): c}])(x) for x in points)
    # duplicated and scaled equations compile to one
    poly = {(0, 1): 1, (2,): p - 1, (): 1}
    copies = [poly, dict(poly), {mono: (p - 1) * c + 5 * p for mono, c in poly.items()}]
    assert _kernel_source(p, copies) == _kernel_source(p, [poly])
    assert _kernel_source(p, copies).count("return False") == 1
    holds = _kernel(p, copies)
    assert [holds(x) for x in points] == [_vanish(p, copies, x) for x in points]


# Explicit systems in x0, x1, x2 for the reduction of forced zeros: (name,
# residues at p, the lines of holds between its first and last, at p).
_REDUCED_SYSTEMS = [
    # x0^2 forces x0; then x0*x1 + x1^2 is x1^2 and forces x1
    ("chain", lambda p: [{(0, 0): 1}, {(0, 1): 1, (1, 1): 1}],
     lambda p: ["    if x[0]: return False", "    if x[1]: return False"]),
    # x0 forced, then x0 + 1 is the constant 1: no point holds
    ("constant", lambda p: [{(0, 0): p - 1}, {(0,): 1, (): 1}],
     lambda p: ["    if x[0]: return False", f"    if (1) % {p}: return False"]),
    # one monomial in two variables forces neither; x2 is forced first
    ("two-variable monomial",
     lambda p: [{(0, 2): 3 * p + 1}, {(2, 2): 1, (0, 1): p}, {(0, 1): p - 1}],
     lambda p: ["    if x[2]: return False", f"    if (x[0]*x[1]) % {p}: return False"]),
    # no single monomial: the lines the reduction-free kernel renders
    ("no forced zero", lambda p: [{(0, 1): 1, (2,): p - 1}, {(1, 1): 1, (0,): 1}],
     lambda p: [f"    if (x[0] + x[1]*x[1]) % {p}: return False",
                f"    if (x[0]*x[1] + {'' if p == 2 else f'{p - 1}*'}x[2]) % {p}: return False"]),
]


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("name, residues, lines", _REDUCED_SYSTEMS,
                         ids=[name for name, _, _ in _REDUCED_SYSTEMS])
def test_forced_zeros_are_tested_first_and_substituted(p, name, residues, lines):
    """A monomial in one variable forces it to 0, tested first and set to 0
    in the other equations until no new one is forced; a single monomial in
    two variables stays an equation.  The kernel is exact at every point."""
    residues = residues(p)
    source = _kernel_source(p, residues)
    assert source == "\n".join(["def holds(x):", *lines(p), "    return True", ""])
    holds = _kernel(p, residues)
    points = list(product(range(p), repeat=3))
    assert [holds(x) for x in points] == [_vanish(p, residues, x) for x in points]
    assert any(map(holds, points)) == (name != "constant")


def test_search_fp_kernels_reduce_their_forced_zeros(monkeypatch):
    """The forced zeros, and the number of other equations, of each kernel
    of the catalog search jobs."""
    sources = []
    real = search._kernel_source
    monkeypatch.setattr(search, "_kernel_source",
                        lambda p, residues: sources.append(real(p, residues)) or sources[-1])
    for spec in _search_fp_specs():
        _predicate_fn(spec)
    reduced = {}
    for name, source in zip(_SEARCH_FP_NAMES, sources):
        forced = tuple(map(int, re.findall(r"^    if x\[(\d+)\]: return False$", source, re.M)))
        reduced[name] = forced, source.count("return False") - len(forced)
    assert reduced == {
        "solv2/F5/nijenhuis": ((), 0),
        "l2/F7/rota_baxter": ((0, 2), 1),
        "l2/F3/bn_pair": ((0, 6), 5),
        "l2.regular/F7/kupershmidt": ((0, 2), 1),
        "l2.dual/F7/kupershmidt": ((), 7),
        "l2.tw_lift/F7/mc_strong": ((2, 3), 1),
        "heis3/F3/nijenhuis": ((2, 5), 1),
    }


def test_generated_predicate_on_a_2000_term_residue():
    """One residue of 2,000 distinct terms in 62 variables compiles, and
    agrees with term-by-term evaluation at random points."""
    rng = Random(2000)
    for p in (7, 2 ** 61 - 1):
        poly = {mono: rng.randrange(1, 3 * p) for mono in _monomials(62)[:2000]}
        residues = [poly]
        holds = _kernel(p, residues)
        for x in [tuple(rng.randrange(p) for _ in range(62)) for _ in range(40)]:
            assert holds(x) == _vanish(p, residues, x)
        # a point where the residue vanishes: shift the constant term
        x = tuple(rng.randrange(p) for _ in range(62))
        value = sum(c * _monomial(mono, x) for mono, c in poly.items())
        shifted = dict(poly)
        shifted[()] = poly[()] - value
        assert _kernel(p, [shifted])(x)


def _in_field(alg, f):
    return LeibnizAlgebra(f, [[[f.of(v) for v in vec] for vec in row] for row in alg.c])


def _rep_in_field(rep, f):
    move = lambda m: Matrix(f, [[f.of(v) for v in row] for row in m.entries])
    return Representation(_in_field(rep.algebra, f), [move(m) for m in rep.rhoL],
                          [move(m) for m in rep.rhoR])


def _search_fp_specs():
    """The seven catalog search jobs of the benchmark's search-fp workload."""
    F5, F7 = prime_field(5), prime_field(7)
    catalog = load_catalog()
    l2 = catalog["l2"].spec
    tw = l2.build("tw_lift")
    return [
        SearchSpec(F5, (2, 2), "nijenhuis", algebra=_in_field(catalog["solv2"].spec.build("alg"), F5)),
        SearchSpec(F7, (2, 2), "rota_baxter", algebra=_in_field(l2.build("alg"), F7)),
        SearchSpec(F3, (2, 2), "bn_pair", algebra=_in_field(l2.build("alg"), F3)),
        SearchSpec(F7, (2, 2), "kupershmidt", rep=_rep_in_field(l2.rep_for("regular"), F7)),
        SearchSpec(F7, (2, 2), "kupershmidt", rep=_rep_in_field(l2.rep_for("dual"), F7)),
        SearchSpec(F7, (tw.n2, tw.n1), "mc_strong",
                   ctx=TwilledContext(_in_field(tw.total, F7), tw.n1, tw.n2)),
        SearchSpec(F3, (3, 3), "nijenhuis", algebra=_in_field(catalog["heis3"].spec.build("alg"), F3)),
    ]


# The name of each job of ``_search_fp_specs()`` in the benchmark's reference.
_SEARCH_FP_NAMES = ("solv2/F5/nijenhuis", "l2/F7/rota_baxter", "l2/F3/bn_pair",
                    "l2.regular/F7/kupershmidt", "l2.dual/F7/kupershmidt",
                    "l2.tw_lift/F7/mc_strong", "heis3/F3/nijenhuis")


def test_search_fp_hits_match_the_benchmark_reference(monkeypatch):
    """Each catalog search job finds as many hits, with the same digest, as
    ``bench/reference.json`` records for it."""
    monkeypatch.syspath_prepend(str(SRC.parent.parent / "bench"))
    from workloads import hit_rows, hits_digest, load_reference

    reference = load_reference()["search"]
    assert sorted(reference) == sorted(_SEARCH_FP_NAMES)
    for name, spec in zip(_SEARCH_FP_NAMES, _search_fp_specs()):
        rows = hit_rows(spec, enumerate_operators(spec))
        assert (len(rows), hits_digest(rows)) == (reference[name]["hits"],
                                                  reference[name]["digest"]), name


@pytest.mark.parametrize("extra, digest", [
    (("--predicate", "nijenhuis", "--field", "F3"),
     "6692eee2402a05617c92ba6ae1d8118534762cf7c0bd807b652e38bff3b8b8ee"),
    (("--predicate", "rota-baxter", "--field", "F3"),
     "a793fd869b973723b029e019e5e4a1055070f55ea5b1384583dbd0e58e75d3ac"),
    (("--predicate", "bn-pair", "--field", "F3"),
     "aa18572f75771877f48988e160bfc7842868d94746e78b1793d8713743829712"),
    (("--predicate", "kupershmidt", "--rep", "regular", "--field", "F3"),
     "494e1d2c5335e04317443dc54fedee81006f7831885f59228209c64757b1015f"),
    (("--predicate", "mc-strong", "--ctx", "tw_lift", "--field", "F3"),
     "2e2cc3d04c6896be2e5fdbd1b865df2db00d7ffb0c5bf38c43974007e27d68e4"),
    (("--predicate", "bn-pair", "--field", "F2"),
     "f47fe467b0cebbc5b22fe0ce96cd7122f45d974c7cabe3d2eb9b578cf5aac2b2"),
])
def test_search_stdout_is_pinned(capsys, extra, digest):
    """The bytes that ``search`` prints on l2, for each predicate, have a
    pinned sha256."""
    from leibnizkit import cli

    assert cli.main(["search", str(CATALOG_DIR / "l2.json"), *extra]) == 0
    out = capsys.readouterr()
    assert out.err == "" and hashlib.sha256(out.out.encode()).hexdigest() == digest


def test_benchmark_tracer_counts_every_search_candidate(monkeypatch):
    """``bench/tracer.py`` counts search candidates by rebinding
    ``search._predicate_fn`` (one count per predicate call, bn_pair
    candidates included) and ``search.BilinearForm`` (one count per form
    built, and a search builds none), and the traced benchmark fails any run
    whose count is not the summed space sizes.  A search that drops either
    name, or builds forms, breaks that run; this test and the next notice.
    Both go with ``bench/tracer.py``, once the benchmark reads counters that
    the program keeps itself (the observability item of ROADMAP.md)."""
    monkeypatch.syspath_prepend(str(SRC.parent.parent / "bench"))
    from tracer import Tracer

    specs = _search_fp_specs()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        for spec in specs:
            enumerate_operators(spec, workers=1)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tracer.counters["search.candidates"] == sum(s.space_size() for s in specs) == 36_473


def test_a_bn_pair_search_builds_no_bilinear_form(monkeypatch):
    """A bn_pair search counts each candidate once, by its predicate call:
    it calls ``search.BilinearForm``, which ``bench/tracer.py`` counts too,
    zero times."""
    monkeypatch.syspath_prepend(str(SRC.parent.parent / "bench"))
    from tracer import Tracer

    built = []
    form = search.BilinearForm
    monkeypatch.setattr(search, "BilinearForm",
                        lambda *args, **kwargs: built.append(args) or form(*args, **kwargs))
    spec = next(s for s in _search_fp_specs() if s.predicate == "bn_pair")
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        pairs = enumerate_operators(spec)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert len(pairs) == 54 and built == []
    assert tracer.counters["search.candidates"] == spec.space_size() == 6_561


_TERM = r"(?:\d+|(?:\d+\*)?x\[\d+\](?:\*x\[\d+\])?)"
_EQUATION = re.compile(rf"    if \({_TERM}(?: \+ {_TERM})*\) % (\d+): return False")
_FORCED_ZERO = re.compile(r"    if x\[\d+\]: return False")


def _follows_grammar(source, p):
    lines = source.split("\n")
    return (lines[0] == "def holds(x):" and lines[-2:] == ["    return True", ""]
            and all(_FORCED_ZERO.fullmatch(line)
                    or ((m := _EQUATION.fullmatch(line)) and int(m.group(1)) == p)
                    for line in lines[1:-2]))


def test_kernel_sources_follow_the_grammar(monkeypatch):
    """Every generated kernel of the catalog search jobs is a straight line
    of integer literals, x[<int>], +, * and %: no text of a spec reaches
    it."""
    assert _follows_grammar("def holds(x):\n    if (x[0]*x[1] + 2*x[3] + 4) % 5: return False\n"
                            "    return True\n", 5)
    assert _follows_grammar("def holds(x):\n    if x[2]: return False\n"
                            "    if (x[0]*x[1]) % 5: return False\n    return True\n", 5)
    for bad in ("def holds(x):\n    if (f(x)) % 5: return False\n    return True\n",
                "def holds(x):\n    if (x[0]) % 5: return False\n    import os\n    return True\n",
                "def holds(x):\n    if (-x[0]) % 5: return False\n    return True\n",
                "def holds(x):\n    if x[0] and x[1]: return False\n    return True\n",
                "def holds(x):\n    if x[0] or x[1]: return False\n    return True\n",
                "def holds(x):\n    if not x[0]: return False\n    return True\n",
                "def holds(x):\n    if x[0]: return False; import os\n    return True\n",
                "def holds(x):\n    if x[0]: import os\n    return True\n"):
        assert not _follows_grammar(bad, 5)
    sources = []
    real = search._kernel_source
    monkeypatch.setattr(search, "_kernel_source",
                        lambda p, residues: sources.append((p, real(p, residues))) or sources[-1][1])
    for spec in _search_fp_specs():
        _predicate_fn(spec)
    assert len(sources) == 7
    assert sum("return False" in source for _, source in sources) >= 6
    for p, source in sources:
        assert _follows_grammar(source, p), source


def _dynamic_code(tree, fn=None):
    """Every use of exec, eval or compile (a name, an attribute or an import)
    with the innermost function that holds it, in source order."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _dynamic_code(node, node.name)
            continue
        name = (node.id if isinstance(node, ast.Name) else node.attr
                if isinstance(node, ast.Attribute) else node.name
                if isinstance(node, ast.alias) else None)
        if name in ("exec", "eval", "compile"):
            found.append((fn, name))
        found += _dynamic_code(node, fn)
    return found


def test_only_the_kernel_compiles_code():
    """``search._kernel`` is the one place that compiles code at run time."""
    snippet = ("exec(s)\ndef f():\n    def g():\n        return builtins.eval(t)\n"
               "    from builtins import compile as c\n")
    assert _dynamic_code(ast.parse(snippet)) == [(None, "exec"), ("g", "eval"), ("f", "compile")]
    found = {path.name: _dynamic_code(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {
        "search.py": [("_kernel", "exec")]}


def _predicate_literals(tree, names, fn=None):
    """(function, value) of each string literal that is one of ``names``,
    with - for _ allowed, outside an assignment to ``PREDICATES``, in source
    order; the function is the innermost that holds it."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _predicate_literals(node, names, node.name)
            continue
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "PREDICATES"
                                                for target in node.targets):
            continue
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.replace("-", "_") in names):
            found.append((fn, node.value))
        found += _predicate_literals(node, names, fn)
    return found


_PREDICATE_SNIPPET = """
PREDICATES = {"nijenhuis": 1, "bn_pair": 2}
CHOICES = ("nijenhuis", "rota-baxter")
def f(spec):
    if spec.predicate == "nijenhuis":
        return "bn-pair"
    return f"a bn_pair {spec}"
def guard(spec):
    if spec.predicate != "bn_pair":
        raise ValueError
"""


def test_no_predicate_name_is_tested_outside_the_table():
    """Search and the CLI read what a predicate needs from ``PREDICATES``:
    no string literal names a predicate in ``search.py`` outside the table,
    nor in ``commands.py`` or ``cli.py``."""
    names = set(search.PREDICATES)
    assert _predicate_literals(ast.parse(_PREDICATE_SNIPPET), names) == [
        (None, "nijenhuis"), (None, "rota-baxter"), ("f", "nijenhuis"), ("f", "bn-pair"),
        ("guard", "bn_pair")]
    for module in ("search.py", "commands.py", "cli.py"):
        assert _predicate_literals(ast.parse((SRC / module).read_text()), names) == [], module


def test_cli_predicate_choices_are_the_table_names_in_both_spellings():
    """``search --predicate`` takes each name of ``PREDICATES``, with ``-``
    and then with ``_``, once each, in table order, and nothing else.
    ``cli`` reads them from the table only when it parses ``search``, so
    that a ``check`` process does not import ``search``."""
    from leibnizkit import cli

    search_parser = next(action.choices["search"] for action in cli.build_parser("search")._actions
                         if isinstance(action, argparse._SubParsersAction))
    choices = next(action.choices for action in search_parser._actions
                   if action.dest == "predicate")
    assert choices == ["kupershmidt", "nijenhuis", "rota-baxter", "rota_baxter", "mc-strong",
                       "mc_strong", "bn-pair", "bn_pair"]
    assert set(choices) == {spelling for name in search.PREDICATES
                            for spelling in (name, name.replace("_", "-"))}


# -- the residues are the checks' sides -------------------------------------------

_ALGEBRAS = [(entry, "alg") for entry in ("heis3", "l2", "l2_single", "leib3", "n2", "prod4",
                                          "quad4", "sl3", "solv2", "sum4")] + [("l2", "lift")]
_CONTEXTS = (("l2", "tw_lift"), ("prod4", "tw"), ("quad4", "tw"), ("sum4", "tw"))
_RESIDUE_FIELDS = (2, 3, 5, 7, None)


def _random_matrix(f, rng, rows, cols):
    if f.is_prime_field:
        return Matrix(f, [[rng.randrange(f.p) for _ in range(cols)] for _ in range(rows)])
    return Matrix(f, [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
                      for _ in range(rows)])


def _at(f, residues, x):
    """Each residue evaluated at the point x, normalised."""
    return [f.normalize(sum(c * _monomial(mono, x) for mono, c in poly.items()))
            for poly in residues]


def _differences(f, *sides):
    """The normalised lhs - rhs of each (lhs, rhs), entry by entry, in turn."""
    return [v for lhs, rhs in sides for v in f.normalize_all([a - b for a, b in zip(lhs, rhs)])]


def _search_residues(spec):
    """The residues that ``_predicate_fn`` compiles for ``spec``."""
    with patch.object(search, "_kernel", lambda p, residues: residues):
        return _predicate_fn(spec)


def _linear_layer_residues(solver, alg):
    """The residues of a linear layer of forms, as ``solver`` hands them to
    ``_linear_basis``."""
    seen = []
    with patch.object(search, "_linear_basis",
                      lambda f, residues, k: seen.append(residues) or LinearSolution((), ())):
        solver(alg)
    return seen[0]


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(_RESIDUE_FIELDS), which=st.sampled_from(_ALGEBRAS),
       seed=st.integers(0, 10 ** 6))
def test_search_residues_are_the_check_sides(p, which, seed):
    """At a random matrix (a random form and operator for bn_pair), each
    search residue is the normalised lhs - rhs of the raw sides that the
    check kernel returns there, entry by entry: the Nijenhuis and Rota-Baxter
    identities, Kupershmidt on the regular and dual representations, the
    symmetric closed and skew invariant forms of the linear layers, and the
    polynomial conditions of a BN-structure on the form then the operator."""
    f, rng = FieldSpec(p), Random(seed)
    alg = _in_field(load_catalog()[which[0]].spec.build(which[1]), f)
    n = alg.dim
    M = _random_matrix(f, rng, n, n)
    x = _flat(M)
    for predicate, weight in (("nijenhuis", True), ("rota_baxter", False)):
        residues = _search_residues(SearchSpec(f, (n, n), predicate, algebra=alg))
        assert _at(f, residues, x) == _differences(f, _twist_sides(alg, M, weight)), predicate
    regular = regular_representation(alg)
    for rep in (regular, dual_representation(regular)):
        residues = _search_residues(SearchSpec(f, (n, rep.mdim), "kupershmidt", rep=rep))
        assert _at(f, residues, x) == _differences(f, _kupershmidt_sides(M, rep))

    B, N = _random_matrix(f, rng, n, n), _random_matrix(f, rng, n, n)
    b, bt = _flat(B), _flat(B.transpose())
    symmetric_closed = _differences(f, (b, bt), _closedness_sides(alg, b))
    assert _at(f, _linear_layer_residues(closed_symmetric_forms, alg), b) == symmetric_closed
    skew_invariant = _differences(f, (b, [-v for v in bt]), _invariance_sides(alg, b))
    assert _at(f, _linear_layer_residues(invariant_skew_forms, alg), b) == skew_invariant
    residues = _search_residues(SearchSpec(f, (n, n), "bn_pair", algebra=alg))
    nt_b, b_n = _coupling_sides(B, N)
    assert _at(f, residues, b + _flat(N)) == symmetric_closed + _differences(
        f, (nt_b, b_n), _closedness_sides(alg, nt_b), _twist_sides(alg, N))


@lru_cache(maxsize=None)
def _twilled_sums():
    """(total algebra, n1, n2) over Q: the catalog's twilled contexts, and the
    lifted sums of the verified Kupershmidt maps of the theorem suites."""
    catalog = load_catalog()
    out = [(tw.total, tw.n1, tw.n2)
           for tw in (catalog[entry].spec.build(name) for entry, name in _CONTEXTS)]
    for _, K, rep in _kupershmidt_cases(catalog):
        out.append((lifted_algebra(K, rep), rep.algebra.dim, rep.mdim))
    return out


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(_RESIDUE_FIELDS), which=st.integers(0, 10 ** 6),
       seed=st.integers(0, 10 ** 6))
def test_mc_residues_are_the_check_sides(p, which, seed):
    """The strong Maurer-Cartan residues at a random theta are the normalised
    lhs - rhs of both parts of the check's raw sides, the whole equation and
    then its linear part; the linear layer's residues are those of the
    linear part."""
    f, rng = FieldSpec(p), Random(seed)
    sums = _twilled_sums()
    total, n1, n2 = sums[which % len(sums)]
    try:
        ctx = TwilledContext(_in_field(total, f), n1, n2)
    except DivisionByZero:  # a denominator of the lifted bracket vanishes mod p
        assume(False)
    theta = _random_matrix(f, rng, n2, n1)
    residues = _search_residues(SearchSpec(f, (n2, n1), "mc_strong", ctx=ctx))
    whole, linear = _mc_sides(ctx, theta)
    assert _at(f, residues, _flat(theta)) == _differences(f, whole, linear)
    assert (_at(f, _linear_layer_residues(solve_mc_linear_layer, ctx), _flat(theta))
            == _differences(f, linear))


# -- block confirmation of the hits ------------------------------------------------

def test_lanes_act_lane_by_lane():
    """In-place + and * on a _Lanes entry act per lane, where a list would
    extend or repeat, and the truth test is "any lane is nonzero"."""
    a, b = search._Lanes([1, 2, 0]), search._Lanes([3, 0, 5])
    acc = [0]
    acc[0] += a
    acc[0] += b
    acc[0] -= 1
    acc[0] *= 2
    assert acc == [[6, 2, 8]] and type(acc[0]) is search._Lanes
    assert 2 * a - b == [-1, 4, -5] and 1 - a == [0, -1, 1] and -(a * b) == [-3, 0, 0]
    assert a and not search._Lanes([0, 0]) and not search._Lanes([])
    same = a + 0  # may be a itself
    same += b
    same *= 3
    assert same == [12, 6, 15] and a - 0 == a == 1 * a and a * -1 == [-1, -2, 0]
    assert a == [1, 2, 0] and b == [3, 0, 5]  # no operation changed its operands


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "+=": operator.iadd,
        "-=": operator.isub, "*=": operator.imul}


def _poly_ref(op, a, b):
    """a op b (op one of +, -, *) on {monomial: coefficient} dicts, without
    zero coefficients."""
    out = {}
    if op == "*":
        for (m1, c1), (m2, c2) in product(a.items(), b.items()):
            mono = tuple(sorted(m1 + m2))
            out[mono] = out.get(mono, 0) + c1 * c2
    else:
        for mono, c in [*a.items(), *((m, c if op == "+" else -c) for m, c in b.items())]:
            out[mono] = out.get(mono, 0) + c
    return {mono: c for mono, c in out.items() if c}


_RAW = st.integers(-9, 9)
_POLY = st.dictionaries(st.lists(st.integers(0, 2), max_size=2).map(lambda m: tuple(sorted(m))),
                        _RAW, max_size=4)


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7)), poly=st.booleans(), data=st.data())
def test_lanes_and_polynomials_compute_what_plain_arithmetic_does(p, poly, data):
    """Chains of +, -, *, negation and the in-place forms on _Lanes (and on
    _Poly) give the lane-wise (and polynomial) values of plain arithmetic,
    with constants from 0, 1, -1, 2 and p - 1 on either side and earlier
    results reused as operands, in place too (acc[0] += x after acc[0] = x *
    1); no operation changes the value of an operand."""
    if poly:
        cls, start = search._Poly, data.draw(st.lists(_POLY, min_size=1, max_size=3))
        lift = lambda v: v if isinstance(v, dict) else {(): v} if v else {}
        ref = lambda op, a, b: _poly_ref(op.rstrip("="), lift(a), lift(b))
        value = lambda v: {mono: c for mono, c in v.items() if c}
    else:
        width = data.draw(st.integers(0, 4))
        cls, start = search._Lanes, data.draw(
            st.lists(st.lists(_RAW, min_size=width, max_size=width), min_size=1, max_size=3))
        lift = lambda v: v if isinstance(v, list) else [v] * width
        ref = lambda op, a, b: list(map(_OPS[op.rstrip("=")], lift(a), lift(b)))
        value = list
    pool = [(cls(v), value(v)) for v in start]  # (operand, its value when made)
    constant = st.sampled_from((0, 1, -1, 2, p - 1))
    for _ in range(data.draw(st.integers(1, 12))):
        op = data.draw(st.sampled_from(["neg", *_OPS]))
        x, x_value = pool[data.draw(st.integers(0, len(pool) - 1))]
        if op == "neg":
            out, expected = -x, ref("-", 0, x_value)
        else:
            if data.draw(st.booleans()):
                y, y_value = pool[data.draw(st.integers(0, len(pool) - 1))]
            else:
                y = y_value = data.draw(constant)
            if data.draw(st.booleans()):
                x, y, x_value, y_value = y, x, y_value, x_value
            acc = [x * 1 if data.draw(st.booleans()) else x]
            acc[0] = _OPS[op](acc[0], y)  # for "+=", what acc[0] += y does
            out, expected = acc[0], ref(op, x_value, y_value)
        assert type(out) is cls and value(out) == expected, op
        pool.append((out, expected))
    assert [value(v) for v, _ in pool] == [made for _, made in pool]


def test_first_rejected_tests_a_constant_coordinate_once(monkeypatch):
    """With stubbed raw sides over F5 on a block of four candidates: constant
    coordinates that are 0 or multiples of 5 reject nothing, a nonzero one
    rejects candidate 0, and among lane coordinates the least bad lane over
    every coordinate is the one named, whichever coordinate holds it."""
    spec = SearchSpec(prime_field(5), (1, 1), "nijenhuis")
    flats = [(0,), (1,), (2,), (3,)]
    L = search._Lanes
    for sides, first in [
        ([([0, 5, 10], [0, 0, -5])], None),
        ([([0, 3], [0, 0])], 0),
        ([([L([0, 0, 5, 1]), 2], [0, 2])], 3),
        ([([L([5, 10, 0, 15]), L([1, 2, 3, 4])], [0, L([1, 2, 3, 4])])], None),
        ([([L([0, 0, 0, 2])], [0]), ([L([0, 7, 0, 0])], [0])], 1),
        ([([L([0, 7, 0, 0]), L([0, 0, 1, 2])], [0, 0])], 1),
        ([([L([0, 0, 1, 0]), 4], [0, 0])], 0),
        ([([4, L([0, 0, 1, 0])], [-1, 0])], 2),
    ]:
        monkeypatch.setattr(search, "_sides", lambda spec, X, sides=sides: sides)
        assert search._first_rejected(spec, flats) == first, sides


_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
             "update", "setdefault", "popitem", "__setitem__", "__delitem__", "__iadd__",
             "__imul__", "__ior__"}


def _is_self(node):
    return isinstance(node, ast.Name) and node.id == "self"


def _writes_self(node):
    """Whether ``node`` assigns into or deletes from self[...], or calls a
    mutating list or dict method on self: self.m(...), list.m(self, ...),
    dict.m(self, ...) or super().m(...)."""
    if isinstance(node, ast.Subscript):
        return isinstance(node.ctx, (ast.Store, ast.Del)) and _is_self(node.value)
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS):
        return False
    owner = node.func.value
    return (_is_self(owner)
            or isinstance(owner, ast.Name) and owner.id in ("list", "dict")
            and bool(node.args) and _is_self(node.args[0])
            or isinstance(owner, ast.Call) and getattr(owner.func, "id", None) == "super")


def _self_mutations(tree, classes):
    """(class, method) for each node of a method of the named classes that
    writes into self (``_writes_self``)."""
    return [(cls.name, fn.name) for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name in classes
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if _writes_self(node)]


_MUTATION_SNIPPET = """
class _Lanes(list):
    def a(self, o):
        self[0] = o
    def b(self, o):
        self[1:] += o
    def c(self, o):
        del self[0]
    def d(self, o):
        return self.extend(o)
    def e(self, o):
        dict.update(self, o)
    def f(self, o):
        super().append(o)
    def g(self, o):
        out = _Lanes(self)
        out[0] = self[0]
        out.append(self.copy())
        return out
class Other(list):
    def h(self, o):
        self.append(o)
"""


def test_lane_and_polynomial_operations_never_change_an_operand():
    """No method of _Lanes or _Poly writes into self, so an operation may
    return an operand (x + 0, x * 1) as its result."""
    assert _self_mutations(ast.parse(_MUTATION_SNIPPET), {"_Lanes"}) == [
        ("_Lanes", name) for name in "abcdef"]
    for filename, cls in (("search.py", "_Lanes"), ("dgla.py", "_Poly")):
        tree = ast.parse((SRC / filename).read_text())
        assert cls in {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
        assert _self_mutations(tree, {cls}) == []


_BLOCK_VARIANTS = ("nijenhuis", "rota_baxter", "kupershmidt-regular", "kupershmidt-dual",
                   "mc_strong", "bn_pair")


@lru_cache(maxsize=None)
def _block_case(variant, which, p):
    """(spec, pool): a search over F_p on a catalog structure, and a pool of
    flat candidates holding the zero candidate and the hits of the compiled
    kernel among (up to) 4,096 points of the space.  The bn_pair pool holds
    the zero candidate and 512 pairs of a random symmetric form B (closed for
    48 of 64 forms, and nondegenerate if 8 draws find one) and an operator
    N: for each form, 4 random ones with B(N.,.) = B(.,N.) and B(N.,.)
    closed, 2 with the first only, and 2 from the Nijenhuis pool.  So each
    condition of a BN-structure is the only one to fail on some."""
    f = prime_field(p)
    if variant == "mc_strong":
        total, n1, n2 = _twilled_sums()[which]
        spec = SearchSpec(f, (n2, n1), variant, ctx=TwilledContext(_in_field(total, f), n1, n2))
    else:
        entry, name = _ALGEBRAS[which]
        alg = _in_field(load_catalog()[entry].spec.build(name), f)
        n = alg.dim
        if variant.startswith("kupershmidt"):
            rep = regular_representation(alg)
            rep = rep if variant.endswith("regular") else dual_representation(rep)
            spec = SearchSpec(f, (n, n), "kupershmidt", rep=rep)
        else:
            spec = SearchSpec(f, (n, n), variant, algebra=alg)
    k = spec.shape[0] * spec.shape[1]
    rng = Random(p * 1000 + which)
    if variant == "bn_pair":
        closed = [_flat(b) for b in closed_symmetric_forms(alg)]
        symmetric = [_flat(Matrix(f, [[int({i, j} == {a, c}) for j in range(n)] for i in range(n)]))
                     for a in range(n) for c in range(a, n)]
        nijenhuis = _block_case("nijenhuis", which, p)[1]
        pool = [(0,) * 2 * k]
        for i in range(64):
            for _ in range(8):  # prefer a nondegenerate form
                b = _combination(rng, p, closed if i % 4 else symmetric, k)
                B = Matrix(f, [b[r * n:(r + 1) * n] for r in range(n)])
                if is_invertible(B):
                    break
            for closes, count in ((True, 4), (False, 2)):
                operators = _coupled_operators(alg, B, closes)
                pool += [b + _combination(rng, p, operators, k) for _ in range(count)]
            pool += [b + rng.choice(nijenhuis) for _ in range(2)]
        return spec, pool
    points = (product(range(p), repeat=k) if p ** k <= 4096 else
              [tuple(rng.randrange(p) for _ in range(k)) for _ in range(4096)])
    holds = _predicate_fn(spec)
    return spec, [(0,) * k] + [x for x in points if holds(x)]


def _combination(rng, p, vectors, k):
    """A random combination over F_p of the length-k ``vectors``."""
    out = (0,) * k
    for vec in vectors:
        c = rng.randrange(p)
        out = tuple((a + c * v) % p for a, v in zip(out, vec))
    return out


def _coupled_operators(alg, B, closes):
    """A basis of the operators N with B(N.,.) = B(.,N.), and with B(N.,.)
    closed if ``closes``, for the form matrix B: both are linear in N."""
    n = alg.dim
    nt_b, b_n = _coupling_sides(B, search._unknowns(alg.field, n, n))
    residues = search._residues(nt_b, b_n)
    if closes:
        residues += search._residues(*_closedness_sides(alg, nt_b))
    return search._linear_basis(alg.field, residues, n * n).nullspace


# The general check of each one-block predicate, on a candidate matrix.
_BLOCK_CHECKS = {
    "nijenhuis": lambda spec, m: check_nijenhuis(as_operator(m), spec.algebra),
    "rota_baxter": lambda spec, m: check_rota_baxter(as_operator(m), spec.algebra),
    "kupershmidt": lambda spec, m: check_kupershmidt(as_operator(m), spec.rep),
    "mc_strong": lambda spec, m: check_maurer_cartan(spec.ctx, m, strong=True),
}


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7)), variant=st.sampled_from(_BLOCK_VARIANTS),
       which=st.integers(0, 10 ** 6), seed=st.integers(0, 10 ** 6), size=st.integers(1, 12))
def test_block_confirmation_rejects_first_what_the_check_rejects_first(p, variant, which, seed,
                                                                       size):
    """On a random block of 1-12 candidates, hits and non-hits mixed, the
    block confirmation names the same first rejected candidate (or none) as
    the general check run on each candidate in turn: Nijenhuis, Rota-Baxter,
    Kupershmidt on the regular and dual representations of the catalog
    algebras, strong Maurer-Cartan on the catalog's twilled sums, and
    BN-structures (form, operator) on the catalog algebras, where the
    confirmation drops degenerate forms and then evaluates the raw sides."""
    count = len(_twilled_sums()) if variant == "mc_strong" else len(_ALGEBRAS)
    try:
        spec, pool = _block_case(variant, which % count, p)
    except DivisionByZero:  # a denominator of the structure vanishes mod p
        assume(False)
    rng = Random(seed)
    rows, cols = spec.shape
    share = 1 if variant == "bn_pair" else 0.5  # the bn_pair pool holds its own non-hits
    flats = [rng.choice(pool) if rng.random() < share else
             tuple(rng.randrange(p) for _ in range(len(pool[0]))) for _ in range(size)]

    def matrix(x):  # the spec's rows x cols matrix of the first entries of x
        return Matrix(spec.field, [x[r * cols:(r + 1) * cols] for r in range(rows)])

    if variant == "bn_pair":
        expected = next((i for i, x in enumerate(flats) if not _bn_confirmed(
            spec.algebra, matrix(x), matrix(x[rows * cols:]))), None)
        nondegenerate = search._invertible(spec)
        kept = [x for x in flats if nondegenerate(x)]
        bad = search._first_rejected(spec, kept)
        found = next((i for i, x in enumerate(flats)
                      if not nondegenerate(x) or bad is not None and x == kept[bad]), None)
    else:
        check = _BLOCK_CHECKS[spec.predicate]
        expected = next((i for i, x in enumerate(flats) if not check(spec, matrix(x)).ok), None)
        found = search._first_rejected(spec, flats)
    assert found == expected


def _nijenhuis_fp_specs():
    """solv2/F5 (625 of 625 candidates are hits) and heis3/F3 (891 hits)."""
    return [spec for spec in _search_fp_specs() if spec.predicate == "nijenhuis"]


@pytest.mark.parametrize("block", (1, 2, 7))
def test_block_size_does_not_change_the_hits(monkeypatch, block):
    specs = _nijenhuis_fp_specs()
    expected = [enumerate_operators(spec) for spec in specs]
    assert [len(hits) for hits in expected] == [625, 891]
    monkeypatch.setattr(search, "_BLOCK", block)
    assert [enumerate_operators(spec) for spec in specs] == expected


def test_a_rejected_candidate_past_the_first_block_is_named(monkeypatch):
    """A kernel that accepts the true heis3/F3 hits plus two non-hits in the
    second block raises SearchMismatch naming the first of the two."""
    spec = _nijenhuis_fp_specs()[1]
    holds = _predicate_fn(spec)
    space = list(product(range(3), repeat=9))
    start = [x for x in space if holds(x)][search._BLOCK]
    bad = [x for x in space if x > start and not holds(x)][:2]
    first = Matrix(F3, [bad[0][:3], bad[0][3:6], bad[0][6:]])
    assert not check_nijenhuis(as_operator(first), spec.algebra).ok
    monkeypatch.setattr(search, "_predicate_fn", lambda s: lambda x: holds(x) or x in bad)
    with pytest.raises(SearchMismatch) as raised:
        enumerate_operators(spec)
    assert str(raised.value) == f"compiled nijenhuis kernel accepts {first!r}, the check rejects it"


def test_a_module_of_dimension_zero_has_its_one_empty_hit(l2_f2):
    """The one candidate of a 2 x 0 search, with no entries, is a hit."""
    spec = SearchSpec(F2, (2, 0), "kupershmidt", rep=Representation.zero(l2_f2, 0))
    assert enumerate_operators(spec) == [Matrix.zeros(F2, 2, 0)]
    assert search._first_rejected(spec, [()]) is None


def _shown(hits):
    """Each hit as (rows, cols, entries), or a list of those for a tuple of blocks."""
    return [[_shown_one(m) for m in hit] if isinstance(hit, tuple) else _shown_one(hit)
            for hit in hits]


def _shown_one(m):
    return m.rows, m.cols, m.entries


_ZERO_DIM = LeibnizAlgebra(F3, [])
_ONE_DIM = LeibnizAlgebra(F3, [[[0]]])


@pytest.mark.parametrize("spec, hits", [
    (SearchSpec(F3, (0, 0), "nijenhuis", algebra=_ZERO_DIM), [(0, 0, ())]),
    (SearchSpec(F3, (0, 0), "rota_baxter", algebra=_ZERO_DIM), [(0, 0, ())]),
    (SearchSpec(F3, (1, 0), "kupershmidt", rep=Representation.zero(_ONE_DIM, 0)),
     [(1, 0, ((),))]),
    (SearchSpec(F3, (1, 1), "nijenhuis", algebra=_ONE_DIM),
     [(1, 1, ((0,),)), (1, 1, ((1,),)), (1, 1, ((2,),))]),
    (SearchSpec(F3, (1, 1), "bn_pair", algebra=_ONE_DIM),
     [[(1, 1, ((b,),)), (1, 1, ((n,),))] for b in (1, 2) for n in range(3)]),
    (SearchSpec(F3, (0, 0), "bn_pair", algebra=_ZERO_DIM), [[(0, 0, ()), (0, 0, ())]]),
    (SearchSpec(F2, (2, 2), "bn_pair", algebra=LeibnizAlgebra.from_brackets(
        F2, 2, {(1, 0): [1, 0], (1, 1): [1, 0]})),
     [[(2, 2, b), (2, 2, n)] for b in (((0, 1), (1, 0)), ((0, 1), (1, 1)))
      for n in (((0, 0), (0, 0)), ((0, 1), (0, 0)), ((1, 0), (0, 1)), ((1, 1), (0, 1)))]),
], ids=["nijenhuis-0x0", "rota_baxter-0x0", "kupershmidt-1x0", "nijenhuis-1x1",
        "bn_pair-1x1", "bn_pair-0x0", "bn_pair-2x2"])
def test_blocks_of_no_row_or_one_row_give_their_hits(spec, hits):
    """Searches whose blocks have no row, one row or several give these
    hits, each block's rows, cols and entries pinned: the one empty hit of
    the 0-dimensional algebra (a 0 x 0 form counts as invertible), the 1 x 0
    Kupershmidt operator into a zero module, and one- and two-block searches
    on a 1-dimensional and a 2-dimensional algebra."""
    assert _shown(enumerate_operators(spec)) == hits


def _per_hit_rows(flat, cut):
    """A flat candidate's rows at the slices ``cut``, one slice at a time:
    the split the search made for each hit before its rows were taken by
    one ``itemgetter``."""
    return tuple(map(flat.__getitem__, cut))


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7)),
       shapes=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=2),
       data=st.data())
def test_block_rows_are_the_per_hit_split(p, shapes, data):
    """For one or two blocks of 0-3 rows and 0-3 columns, ``_block_matrices``
    builds from random flat candidates the matrices that the per-hit split
    gives: the same rows, cols and row tuples."""
    f = prime_field(p)
    blocks = [(f"b{i}", rows, cols) for i, (rows, cols) in enumerate(shapes)]
    k = sum(rows * cols for _, rows, cols in blocks)
    flats = data.draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * k), max_size=5))
    cuts = search._cuts(blocks)
    expected = [[_shown_one(Matrix._trusted(f, _per_hit_rows(flat, cut))) for flat in flats]
                for cut in cuts]
    assert [list(map(_shown_one, ms)) for ms in search._block_matrices(f, cuts, flats)] == expected


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7)), n=st.integers(0, 3),
       invertible=st.sampled_from((("form",), ("operator",), ("form", "operator"))),
       data=st.data())
def test_invertible_blocks_are_decided_on_the_per_hit_split(p, n, invertible, data):
    """On the two n x n blocks of a bn_pair search over an n-dimensional
    algebra (n = 0-3), with one or both blocks required invertible,
    ``_invertible`` decides each random flat candidate as ``is_invertible``
    does on the blocks that the per-hit split gives."""
    f = prime_field(p)
    alg = LeibnizAlgebra(f, [[[0] * n for _ in range(n)] for _ in range(n)])
    row = search.PREDICATES["bn_pair"]._replace(invertible=invertible)
    with patch.dict(search.PREDICATES, {"bn_pair": row}):
        spec = SearchSpec(f, (n, n), "bn_pair", algebra=alg)
        decide = search._invertible(spec)
        entry = st.one_of(st.integers(0, 1), st.integers(0, p - 1))  # many singular blocks too
        flats = data.draw(st.lists(st.tuples(*[entry] * (2 * n * n)), min_size=1, max_size=6))
        cuts = dict(zip(("form", "operator"), search._cuts(search._blocks(spec))))
        for flat in flats:
            blocks = [Matrix._trusted(f, _per_hit_rows(flat, cuts[name])) for name in invertible]
            assert decide(flat) == all(map(is_invertible, blocks))


def _per_coordinate_first_rejected(p, n, sides):
    """What ``search._first_rejected`` returned before it skipped equal sides:
    the difference of every coordinate, tested in turn."""
    first = n
    for lhs, rhs in sides:
        for d in map(operator.sub, lhs, rhs):
            if not isinstance(d, search._Lanes):
                if d % p:
                    return 0
            elif any(v % p for v in (d if first == n else d[:first])):
                first = next(i for i, v in enumerate(d) if v % p)
    return first if first < n else None


@st.composite
def _stub_sides(draw, p, n):
    """Raw sides over F_p on n lanes: lists of (lhs, rhs) coordinates mixing
    ints and ``_Lanes``, multiples of p, equal and unequal pairs."""
    value = st.one_of(st.integers(-3, 3).map(lambda k: k * p), st.integers(-20, 20))

    def side_value():
        if draw(st.booleans()):
            return search._Lanes(draw(st.lists(value, min_size=n, max_size=n)))
        return draw(value)

    sides = []
    for _ in range(draw(st.integers(1, 3))):
        lhs, rhs = [], []
        for _ in range(draw(st.integers(0, 5))):
            left = side_value()
            right = draw(st.sampled_from(("equal", "copy", "other")))
            if right == "copy":
                right = search._Lanes(left) if isinstance(left, search._Lanes) else left + 0
            elif right == "equal":
                right = left
            else:
                right = side_value()
            lhs.append(left)
            rhs.append(right)
        sides.append((lhs, rhs))
    return sides


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7)), n=st.integers(1, 6), data=st.data())
def test_first_rejected_skips_equal_sides_without_changing_its_answer(p, n, data):
    """With stubbed raw sides over F2, F3, F5 and F7, the block confirmation
    names what testing the difference of every coordinate names: the least
    bad lane over every coordinate, lane 0 for a bad constant coordinate,
    or None."""
    sides = data.draw(_stub_sides(p, n))
    spec = SearchSpec(prime_field(p), (1, 1), "nijenhuis")
    expected = _per_coordinate_first_rejected(p, n, sides)
    with patch.object(search, "_sides", lambda spec, X: sides):
        assert search._first_rejected(spec, [(0,)] * n) == expected
