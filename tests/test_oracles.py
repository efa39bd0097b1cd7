"""Dual-path consistency: the naive evaluators must agree with the main
checkers on verdicts and violation tuples."""

import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizkit import (
    LeibnizAlgebra,
    Matrix,
    RATIONALS as Q,
    Representation,
    Tensor2,
    as_operator,
    check_kupershmidt,
    check_leibniz,
    check_maurer_cartan,
    check_nijenhuis,
    check_representation,
    check_rota_baxter,
    check_ybe,
    dual_representation,
    lifted_algebra,
    oracle_eval,
    regular_representation,
)
from leibnizkit.catalog import load_catalog
from leibnizkit.errors import LeibnizKitError, UnknownIdentity
from leibnizkit.fields import prime_field
from leibnizkit.forms import (
    BilinearForm,
    check_bn_structure,
    check_rbn_structure,
    check_rn_structure,
)
from leibnizkit.linalg import is_invertible
from leibnizkit.operators import check_compatible, check_nk_condition
from leibnizkit.oracles import (
    eval_bn_structure,
    eval_compatible,
    eval_kn_structure,
    eval_nk_condition,
    eval_perfect_pair,
    eval_rbn_structure,
    eval_representation,
    eval_rn_structure,
)
from leibnizkit.pairs import check_kn_structure, check_perfect_pair, make_kn, make_pair
from leibnizkit.search import SearchSpec, enumerate_operators
from leibnizkit.checks import run_check
from leibnizkit.twilled import TwilledContext

from conftest import rb_matrix
from oracle_helpers import random_instance


def same(a, b):
    assert a.ok == b.ok
    assert a.violations == b.violations


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        oracle_eval("frobnicate", {})


def test_leibniz_agreement(l2):
    same(check_leibniz(l2), oracle_eval("leibniz", {"algebra": l2}))
    bad = LeibnizAlgebra.from_brackets(Q, 1, {(0, 0): [1]})
    same(check_leibniz(bad), oracle_eval("leibniz", {"algebra": bad}))


def test_kupershmidt_agreement(l2_regular):
    R = as_operator(rb_matrix(1))
    same(check_kupershmidt(R, l2_regular),
         oracle_eval("kupershmidt", {"K": R, "rep": l2_regular}))
    I = as_operator(Matrix.identity(Q, 2))
    same(check_kupershmidt(I, l2_regular),
         oracle_eval("kupershmidt", {"K": I, "rep": l2_regular}))


def test_maurer_cartan_agreement(l2_regular):
    ctx = TwilledContext(lifted_algebra(as_operator(rb_matrix(1)), l2_regular), 2, 2)
    rng = random.Random(8)
    for _ in range(25):
        th = Matrix(Q, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        same(check_maurer_cartan(ctx, th),
             oracle_eval("maurer-cartan", {"ctx": ctx, "theta": th}))
        same(check_maurer_cartan(ctx, th, strong=True),
             oracle_eval("maurer-cartan-strong", {"ctx": ctx, "theta": th}))


def _mixed_corpus(l2, l2_regular, l2_dual, size=520):
    """(identity, bindings) pairs across catalog algebras and random inputs."""
    rng = random.Random(77)
    algs = [
        l2,
        LeibnizAlgebra.abelian(Q, 2),
        LeibnizAlgebra.from_brackets(Q, 2, {(1, 1): [1, 0]}),
        LeibnizAlgebra.from_brackets(Q, 2, {(0, 1): [1, 0], (1, 0): [-1, 0]}),
        LeibnizAlgebra.from_brackets(Q, 3, {(2, 2): [0, 1, 0]}),
    ]
    corpus = []

    def randmat(n, h=2):
        return Matrix(Q, [[rng.randint(-h, h) for _ in range(n)] for _ in range(n)])

    while len(corpus) < size:
        alg = algs[rng.randrange(len(algs))]
        n = alg.dim
        kind = rng.randrange(7)
        if kind == 0:
            corpus.append(("nijenhuis", {"N": randmat(n), "algebra": alg}))
        elif kind == 1:
            corpus.append(("rota-baxter", {"R": randmat(n), "algebra": alg}))
        elif kind == 2:
            rep = regular_representation(alg)
            corpus.append(("kupershmidt", {"K": randmat(n), "rep": rep}))
        elif kind == 3:
            rep = dual_representation(regular_representation(alg))
            corpus.append(("kupershmidt", {"K": randmat(n), "rep": rep}))
        elif kind == 4:
            rep = regular_representation(alg)
            corpus.append(("nijenhuis-pair",
                           {"pair": make_pair(randmat(n), randmat(n)), "rep": rep}))
        elif kind == 5:
            rep = dual_representation(regular_representation(alg))
            corpus.append(("dual-nijenhuis-pair",
                           {"pair": make_pair(randmat(n), randmat(n)), "rep": rep}))
        else:
            corpus.append(("ybe", {"algebra": alg, "pi": Tensor2(alg, randmat(n, 1))}))
    return corpus


def test_mixed_corpus_agreement(l2, l2_regular, l2_dual):
    from leibnizkit.operators import check_nijenhuis as main_nij
    from leibnizkit.operators import check_rota_baxter as main_rb
    from leibnizkit.operators import check_kupershmidt as main_kup
    from leibnizkit.pairs import check_nijenhuis_pair, check_dual_nijenhuis_pair
    from leibnizkit.forms import check_ybe as main_ybe

    corpus = _mixed_corpus(l2, l2_regular, l2_dual, size=150)
    for identity, bindings in corpus:
        if identity == "nijenhuis":
            main = main_nij(as_operator(bindings["N"]), bindings["algebra"])
        elif identity == "rota-baxter":
            main = main_rb(as_operator(bindings["R"]), bindings["algebra"])
        elif identity == "kupershmidt":
            main = main_kup(as_operator(bindings["K"]), bindings["rep"])
        elif identity == "nijenhuis-pair":
            main = check_nijenhuis_pair(bindings["pair"], bindings["rep"])
        elif identity == "dual-nijenhuis-pair":
            main = check_dual_nijenhuis_pair(bindings["pair"], bindings["rep"])
        else:
            main = main_ybe(bindings["algebra"], bindings["pi"])
        same(main, oracle_eval(identity, bindings))


def _agree(main, oracle):
    """Equal verdicts and violation tuples, or both paths raise."""
    try:
        got = main()
    except LeibnizKitError:
        got = None
    try:
        want = oracle()
    except LeibnizKitError:
        want = None
    assert (got is None) == (want is None)
    if got is not None:
        same(got, want)


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from((2, 3)), n=st.integers(1, 2), seed=st.integers(0, 10 ** 6),
       data=st.data())
def test_derived_structures_match_oracles(p, n, seed, data):
    """KN, RBN, r-n and BN structures, perfect pairs and compatible pairs on a
    random F2/F3 algebra, with operators drawn from the search hit lists."""
    f = prime_field(p)
    alg = random_instance("leibniz", n, f, seed)
    regular = regular_representation(alg)
    dual = dual_representation(regular)
    space = [Matrix(f, [flat[r * n:(r + 1) * n] for r in range(n)])
             for flat in product(range(p), repeat=n * n)]
    symmetric = [m for m in space if m == m.transpose()]
    nijenhuis = enumerate_operators(SearchSpec(f, (n, n), "nijenhuis", algebra=alg))
    rota_baxter = enumerate_operators(SearchSpec(f, (n, n), "rota_baxter", algebra=alg))
    kupershmidt = {
        "regular": enumerate_operators(SearchSpec(f, (n, n), "kupershmidt", rep=regular)),
        "dual": enumerate_operators(SearchSpec(f, (n, n), "kupershmidt", rep=dual)),
    }
    draw = lambda seq: data.draw(st.sampled_from(seq))
    for _ in range(3):
        rep_name, mode = draw(("regular", "dual")), draw(("kn", "dual-kn"))
        rep = regular if rep_name == "regular" else dual
        N = draw(nijenhuis)
        S = draw((N, N.transpose(), draw(nijenhuis), draw(space)))
        kn = make_kn(draw(kupershmidt[rep_name]), N, S, mode)
        _agree(lambda: check_kn_structure(kn, rep, consequences=False),
               lambda: eval_kn_structure(kn, rep))
        pair = make_pair(N, S)
        _agree(lambda: check_perfect_pair(pair, rep), lambda: eval_perfect_pair(pair, rep))
        K1, K2 = draw(kupershmidt[rep_name]), draw(kupershmidt[rep_name])
        _agree(lambda: check_compatible(as_operator(K1), as_operator(K2), rep),
               lambda: eval_compatible(K1, K2, rep))
        R = draw(rota_baxter)
        _agree(lambda: check_rbn_structure(alg, as_operator(R), as_operator(N)),
               lambda: eval_rbn_structure(alg, R, N))
        pi = Tensor2(alg, draw([m for m in kupershmidt["dual"] if m == m.transpose()]
                               + [draw(symmetric)]))
        _agree(lambda: check_rn_structure(alg, pi, as_operator(N), consequences=False),
               lambda: eval_rn_structure(alg, pi, N))
        # the oracle does not check that B is symmetric and nondegenerate
        B = BilinearForm(alg, draw([m for m in symmetric if is_invertible(m)]))
        _agree(lambda: check_bn_structure(alg, B, as_operator(N), consequences=False),
               lambda: eval_bn_structure(alg, B, N))


def test_representation_and_nk_condition_match_oracles():
    """eval_representation and eval_nk_condition against the main checks, with
    equal violation tuples: first the catalog's representations (named, and
    the regular one of every algebra) and l2's nk-condition pairs, then
    seeded random F2/F3 algebras with true and perturbed action matrices and
    operators from the search hit lists and at random."""
    rng = random.Random(31)
    reps, nk = [], []
    catalog = load_catalog()
    for entry in catalog.values():
        spec = entry.spec
        reps += [spec.rep_for(name) for name in spec.names_of("representation")]
        reps += [regular_representation(spec.build(name)) for name in spec.names_of("algebra")]
    l2 = catalog["l2"].spec
    for N in ("N23", "NpIqE", "N11", "ident", "zero", "R"):
        nk += [(l2.build(N).matrix, l2.build("R").matrix, l2.rep_for("regular")),
               (l2.build(N).matrix, l2.build("Bsharp").matrix, l2.rep_for("dual"))]
    for p, n, seed in product((2, 3), (1, 2), (0, 1, 2)):
        f = prime_field(p)
        alg = random_instance("leibniz", n, f, seed)
        randmat = lambda: Matrix(f, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        regular = regular_representation(alg)
        dual = dual_representation(regular)
        reps += [regular, dual,
                 Representation(alg, [randmat() for _ in range(n)], regular.rhoR),
                 Representation(alg, dual.rhoL, [randmat() for _ in range(n)])]
        nijenhuis = enumerate_operators(SearchSpec(f, (n, n), "nijenhuis", algebra=alg))
        for rep in (regular, dual):
            kupershmidt = enumerate_operators(SearchSpec(f, (n, n), "kupershmidt", rep=rep))
            for _ in range(4 * n):
                nk.append((rng.choice(nijenhuis), rng.choice(kupershmidt), rep))
            nk += [(randmat(), rng.choice(kupershmidt), rep),
                   (rng.choice(nijenhuis), randmat(), rep)]
    for rep in reps:
        same(check_representation(rep), eval_representation(rep))
    for N, K, rep in nk:
        _agree(lambda: check_nk_condition(as_operator(N), as_operator(K), rep),
               lambda: eval_nk_condition(N, K, rep))


def test_oracles_import_only_errors_and_reports():
    """The oracle path shares no code with the main path: its only package
    imports are the error classes and the report types."""
    import ast
    import leibnizkit.oracles

    tree = ast.parse(Path(leibnizkit.oracles.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported - {"__future__"} == {".errors", ".reports"}
