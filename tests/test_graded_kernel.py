"""The sparse insertion kernel behind the graded bracket against a dense,
test-local evaluation of the formula in the ``dgla`` module docstring:

    (f o_k g)(x_0..x_{m+n}) =
        sum_sigma sign(sigma) f(x_{sigma(0)}..x_{sigma(k-2)},
                                g(x_{sigma(k-1)}..x_{sigma(k+n-2)}, x_{k+n-1}),
                                x_{k+n}..x_{m+n})

over F2, F3, F5 and Q, on dense, mostly-zero and all-zero cochains of
dims 1-3 and arities 1-3 (so output arity up to 5), with Fraction entries
over Q; the integral Maurer-Cartan half against (1/2){{mu2, th}, th}; and
the Maurer-Cartan defects compiled once per context against the kernel
calls they replace."""

import ast
import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leibnizkit
from leibnizkit import (
    Cochain,
    LeibnizAlgebra,
    Matrix,
    RATIONALS as Q,
    Representation,
    as_operator,
    balavoine_bracket,
    bracket_square,
    coboundary,
    dgla_bracket,
    dual_representation,
    lifted_algebra,
    mc_solutions_from_linear_layer,
    regular_representation,
)
from leibnizkit.catalog import load_catalog
from leibnizkit.dgla import _insertion_sum, _ob, mc_cochain_defects
from leibnizkit.errors import DivisionByZero
from leibnizkit.fields import prime_field
from leibnizkit.oracles import eval_maurer_cartan
from leibnizkit.suites import _kupershmidt_cases
from leibnizkit.twilled import TwilledContext, _sum_bracket

from test_twilled import _algebras, _kupershmidt_map, _moved

FIELDS = (prime_field(2), prime_field(3), prime_field(5), Q)
DENSITIES = {"dense": 1.0, "sparse": 0.15, "zero": 0.0}


def ref_shuffles(p, q):
    """(p,q)-shuffles as (position -> index tuple, sign), the sign counted
    from the inversions of the permutation."""
    out = []
    for first in combinations(range(p + q), p):
        perm = first + tuple(i for i in range(p + q) if i not in first)
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(p + q), 2))
        out.append((perm, (-1) ** inversions))
    return out


def ref_insertion(f, g, k, x, coef, acc):
    """Add coef * (f o_k g)(x), raw, into the coordinate list acc."""
    n = g.arity - 1
    for perm, sign in ref_shuffles(k - 1, n):
        inner = g.at([x[perm[k - 1 + t]] for t in range(n)] + [x[k + n - 1]])
        prefix = [x[perm[t]] for t in range(k - 1)]
        for j in range(f.dim):
            vec = f.at(prefix + [j] + list(x[k + n:]))
            for l in range(f.dim):
                acc[l] += coef * sign * inner[j] * vec[l]


def ref_ob(f, g):
    """f ob g = sum_k (-1)^{(k-1) deg g} f o_k g as raw dense values, one
    output tuple at a time."""
    dim, m, n = f.dim, f.arity - 1, g.arity - 1
    out = {}
    for x in product(range(dim), repeat=m + n + 1):
        acc = [0] * dim
        for k in range(1, m + 2):
            ref_insertion(f, g, k, x, (-1) ** ((k - 1) * n), acc)
        out[x] = acc
    return out


def ref_bracket(f, g):
    """{f, g}, with the diagonal of an odd-degree cochain in characteristic 2
    taken as the square f ob f."""
    field, arity = f.field, f.arity + g.arity - 1
    fg = ref_ob(f, g)
    if f.degree % 2 and f == g and field.char == 2:
        vals = fg
    else:
        gf = ref_ob(g, f)
        sign = (-1) ** (f.degree * g.degree)
        vals = {x: [a - sign * b for a, b in zip(fg[x], gf[x])] for x in fg}
    return Cochain(field, f.dim, arity, [tuple(vals[x]) for x in sorted(vals)])


def ref_square(f):
    vals = ref_ob(f, f)
    return Cochain(f.field, f.dim, 2 * f.arity - 1, [tuple(vals[x]) for x in sorted(vals)])


def scalar(rng, f, density):
    if rng.random() >= density:
        return 0
    if f.is_prime_field:
        return rng.randrange(1, f.p)
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def cochain(rng, f, dim, arity, density):
    return Cochain(f, dim, arity, [tuple(scalar(rng, f, density) for _ in range(dim))
                                   for _ in range(dim ** arity)])


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_bracket_and_square_match_dense_formula(f):
    rng = random.Random(f"kernel-{f}")
    nonzero = 0
    for dim in (1, 2, 3):
        for kind, density in DENSITIES.items():
            cs = {a: cochain(rng, f, dim, a, density) for a in (1, 2, 3)}
            for a, b in product(cs, repeat=2):
                if dim == 3 and a + b == 6 and kind != "dense":
                    continue  # one dense 3 x 3 pair per field keeps this fast
                got = balavoine_bracket(cs[a], cs[b])
                assert got == ref_bracket(cs[a], cs[b]), (dim, kind, a, b)
                nonzero += not got.is_zero()
            for a in (1, 2, 3):
                assert balavoine_bracket(cs[a], cs[a]) == ref_bracket(cs[a], cs[a])
                assert bracket_square(cs[a]) == ref_square(cs[a]), (dim, kind, a)
    assert nonzero > 10


@pytest.mark.parametrize("f", (FIELDS[0], FIELDS[1], Q), ids=str)
def test_one_outer_cochain_serves_every_slot_and_inner_arity(f):
    """The outer cochain keeps its entries grouped per slot k.  One outer
    object, inserted into at every k by inner cochains of arity 1, 2 and 3 in
    turn (so each grouping is reused for other inner arities), gives what a
    fresh copy and the dense formula give."""
    rng = random.Random(f"slots-{f}")
    outer = cochain(rng, f, 2, 3, 0.6)
    for arity in (1, 2, 3, 1):
        inner = cochain(rng, f, 2, arity, 0.6)
        for k in (1, 2, 3):
            got = _insertion_sum([(1, outer, inner, k)])
            fresh = Cochain(f, outer.dim, outer.arity, outer.data)
            assert got == _insertion_sum([(1, fresh, inner, k)])
            want = {}
            for x in product(range(2), repeat=2 + arity):
                ref_insertion(outer, inner, k, x, 1, want.setdefault(x, [0, 0]))
            assert got == Cochain(f, 2, 2 + arity, [tuple(want[x]) for x in sorted(want)])
    assert sorted(outer._groups) == [1, 2, 3]


def leibniz_brackets(f):
    """The catalog's dim-2 and dim-3 Leibniz algebras carried into f, with
    the abelian ones, as arity-2 cochains."""
    out = []
    for name in ("l2", "solv2", "heis3", "leib3", "sl3"):
        spec = load_catalog()[name].spec
        alg = spec.build("alg")
        if alg.dim > 2 and not f.is_prime_field:
            continue  # Q is covered by the dim-2 entries and by the acceptance tests
        moved = LeibnizAlgebra(f, alg.c)
        if moved.is_leibniz:
            out.append(Cochain.from_algebra(moved))
    out.append(Cochain.from_algebra(LeibnizAlgebra.abelian(f, 2)))
    return out


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_coboundary_and_dgla_bracket_match_dense_formula(f):
    rng = random.Random(f"dgla-{f}")
    mus = leibniz_brackets(f)
    assert len(mus) >= 2
    for mu in mus:
        phis = [cochain(rng, f, mu.dim, a, 1.0) for a in (1, 2)]
        for phi in phis:
            assert coboundary(mu, phi) == ref_bracket(mu, phi)
        p1, p2 = phis[0], cochain(rng, f, mu.dim, 1, 0.5)
        expected = ref_bracket(ref_bracket(mu, p1), p2)
        assert dgla_bracket(mu, p1, p2) == expected
        assert dgla_bracket(mu, phis[1], p1) == ref_bracket(ref_bracket(mu, phis[1]), p1).scale(-1)


def lifts(ctx):
    """The two structure lifts of a twilled context, each a bracket tensor
    on the whole space: g1's bracket with its action on g2, then g2's with
    its action on g1."""
    f = ctx.field
    zero1, zero2 = (LeibnizAlgebra.abelian(f, k).c for k in (ctx.n1, ctx.n2))
    return (_sum_bracket(f, ctx.algebra1.c, zero2, ctx.rho1, None),
            _sum_bracket(f, zero1, ctx.algebra2.c, None, ctx.rho2))


def embed_map(ctx, theta: Matrix) -> Matrix:
    """Embed a g1 -> g2 map as an endomorphism of the sum (zero elsewhere)."""
    ctx._require_map(theta)
    f = ctx.field
    n1, n2 = ctx.n1, ctx.n2
    rows = []
    for i in range(n1):
        rows.append([f.zero()] * (n1 + n2))
    for a in range(n2):
        rows.append(list(theta.entries[a]) + [f.zero()] * n2)
    return Matrix(f, rows)


def lifted_contexts(f):
    """Fresh twilled contexts of the l2 Kupershmidt cases carried into f (a
    case with a denominator that vanishes in f left out), and over F2 of the
    lift of the l2_f2 operator R on its regular representation."""
    catalog, out = load_catalog(), []
    for _, K, rep in _kupershmidt_cases(catalog):
        try:
            alg = LeibnizAlgebra(f, rep.algebra.c)
            frep = Representation(alg, [Matrix(f, m.entries) for m in rep.rhoL],
                                  [Matrix(f, m.entries) for m in rep.rhoR])
            lift = lifted_algebra(as_operator(Matrix(f, K.matrix.entries)), frep)
        except DivisionByZero:
            continue
        out.append(TwilledContext(lift, alg.dim, frep.mdim))
    if f.char == 2:
        spec = catalog["l2_f2"].spec
        lift = lifted_algebra(spec.build("R"), regular_representation(spec.build("alg")))
        out.append(TwilledContext(lift, 2, 2))
    return out


@pytest.mark.parametrize("f", FIELDS[1:], ids=str)
def test_integral_mc_half_is_half_the_bracket_square(f):
    rng = random.Random(f"half-{f}")
    half = f.div(f.one(), f.of(2))
    for ctx in lifted_contexts(f):
        mu1, mu2 = (Cochain.from_tensor(f, mu) for mu in lifts(ctx))
        for _ in range(3):
            theta = Matrix(f, [[scalar(rng, f, 0.8) for _ in range(ctx.n1)]
                               for _ in range(ctx.n2)])
            th = Cochain.from_matrix(embed_map(ctx, theta))
            d, q = mc_cochain_defects(ctx, theta)
            assert d == ref_bracket(mu1, th)
            assert q == ref_bracket(ref_bracket(mu2, th), th).scale(half)


def test_lifted_cochains_are_built_once_per_context(monkeypatch):
    """18 thetas on one lifted context build its two lift cochains once, and
    every defect pair still decides weak and strong MC as the oracle does."""
    from leibnizkit import dgla

    ctx = lifted_contexts(Q)[1]
    built = []
    real = Cochain.from_tensor

    def counting(field, tensor):
        built.append(tensor)
        return real(field, tensor)

    monkeypatch.setattr(dgla.Cochain, "from_tensor", staticmethod(counting))
    rng = random.Random("lifts-once")
    thetas = [Matrix(Q, [[rng.randint(-2, 2) * (t % 3 != 0) for _ in range(ctx.n1)]
                         for _ in range(ctx.n2)]) for t in range(18)]
    for theta in thetas:
        d, q = mc_cochain_defects(ctx, theta)
        assert (d + q).is_zero() == eval_maurer_cartan(ctx, theta).ok
        assert (d.is_zero() and q.is_zero()) == eval_maurer_cartan(ctx, theta, strong=True).ok
    assert built == list(lifts(ctx))


def test_mc_equivalence_checks_each_theta_once(monkeypatch):
    """The mc-equivalence suite reads the weak verdict from the strong
    report: one check_maurer_cartan per theta, plus the zero-theta check of
    each context, and one lifted-cochain pair and one Balavoine bracket per
    context."""
    from leibnizkit import dgla, suites

    calls = {"mc": 0, "defects": 0, "contexts": 0, "from_tensor": 0, "bracket": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(suites, "check_maurer_cartan", counted("mc", suites.check_maurer_cartan))
    monkeypatch.setattr(suites, "mc_cochain_defects", counted("defects", suites.mc_cochain_defects))
    monkeypatch.setattr(suites, "_lifted_context", counted("contexts", suites._lifted_context))
    monkeypatch.setattr(dgla.Cochain, "from_tensor",
                        staticmethod(counted("from_tensor", dgla.Cochain.from_tensor)))
    monkeypatch.setattr(dgla, "balavoine_bracket", counted("bracket", dgla.balavoine_bracket))
    result = suites.suite_mc_equivalence(load_catalog())
    assert result.failures == [] and result.passed > 0
    assert calls["contexts"] > 0 and calls["defects"] >= 12 * calls["contexts"]
    assert calls["mc"] == calls["defects"] + calls["contexts"]
    assert calls["from_tensor"] == 2 * calls["contexts"]
    # the graded route is compiled once per context, not run once per theta
    assert calls["bracket"] == calls["contexts"]


def _kernel_defects(ctx, theta):
    """(d, q) by four kernel calls per theta, in the context's field: the
    route that ``mc_cochain_defects`` compiles once per context."""
    mu1, mu2 = (Cochain.from_tensor(ctx.field, mu) for mu in lifts(ctx))
    th = Cochain.from_matrix(embed_map(ctx, theta))
    d = balavoine_bracket(mu1, th)
    first = _insertion_sum([(1, mu2, th, 1)])
    return d, _insertion_sum([(1, first, th, 2)] + _ob(-1, th, _insertion_sum(_ob(1, mu2, th))))


def _random_lifted_context(rng, f, seed):
    """A lifted sum of a Kupershmidt map of a regular or dual representation
    of a small algebra, in a random block-diagonal basis (``test_twilled``)."""
    alg = rng.choice(_algebras(f))
    rep = regular_representation(alg)
    if rng.random() < 0.5:
        rep = dual_representation(rep)
    K = _kupershmidt_map(rng, rep, seed)
    return TwilledContext(_moved(rng, lifted_algebra(as_operator(K), rep), alg.dim, rep.mdim),
                          alg.dim, rep.mdim)


@settings(max_examples=80, deadline=None)
@given(f=st.sampled_from(FIELDS), seed=st.integers(0, 10 ** 6), data=st.data())
def test_compiled_mc_defects_match_the_kernel_route_and_the_oracle(f, seed, data):
    """On catalog and random lifted sums over F2, F3, F5 and Q, the compiled
    defects of a theta equal the four kernel calls in the context's field,
    and decide weak and strong Maurer-Cartan as the oracle does.  theta is
    a random matrix (Fraction entries over Q) or a weak solution from the
    linear layer."""
    rng = random.Random(seed)
    if data.draw(st.booleans()):
        ctx = data.draw(st.sampled_from(lifted_contexts(f)))
    else:
        ctx = _random_lifted_context(rng, f, seed)
    entry = (st.integers(0, f.p - 1) if f.p else
             st.fractions(min_value=-3, max_value=3, max_denominator=3))
    thetas = [Matrix(f, data.draw(st.lists(st.lists(entry, min_size=ctx.n1, max_size=ctx.n1),
                                           min_size=ctx.n2, max_size=ctx.n2)))]
    if ctx.n1 * ctx.n2 <= 4:
        thetas += mc_solutions_from_linear_layer(ctx)[:3]
    for theta in thetas:
        d, q = mc_cochain_defects(ctx, theta)
        assert (d, q) == _kernel_defects(ctx, theta)
        assert (d + q).is_zero() == eval_maurer_cartan(ctx, theta).ok
        assert (d.is_zero() and q.is_zero()) == eval_maurer_cartan(ctx, theta, strong=True).ok


def _shuffle_readers(tree):
    """Names of the functions whose bodies (nested functions included) read
    the name ``_shuffles``."""
    return sorted({fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn)
                   if isinstance(node, ast.Name) and node.id == "_shuffles"
                   and fn.name != "_shuffles"})


def test_only_the_kernel_walks_shuffles():
    """_insertion_sum is the one code path that places shuffle terms."""
    assert _shuffle_readers(ast.parse("def a():\n    return _shuffles(1, 2)")) == ["a"]
    src = (Path(leibnizkit.__file__).resolve().parent / "dgla.py").read_text()
    assert _shuffle_readers(ast.parse(src)) == ["_insertion_sum"]
