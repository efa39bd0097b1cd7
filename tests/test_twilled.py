"""The actions that ``TwilledContext`` recovers from a Leibniz twilled sum are
representations, with no check of their own: on (g1, g1, g2) triples the
Leibniz identity of the sum, projected onto g2, is the three action axioms of
rho1, and with the blocks swapped those of rho2.

The sums are lifted sums of Kupershmidt maps (searched exhaustively over
F_p, sampled over Q) and semidirect sums, of the regular and dual
representations of small catalog and random algebras, each moved to a random
block-diagonal basis so that both actions are dense."""

import random
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizkit import (
    LeibnizAlgebra,
    Matrix,
    RATIONALS as Q,
    SearchSpec,
    as_operator,
    check_representation,
    dual_representation,
    enumerate_operators,
    lifted_algebra,
    random_instance,
    regular_representation,
    semidirect_sum,
)
from leibnizkit.catalog import load_catalog
from leibnizkit.errors import DivisionByZero, NotFound
from leibnizkit.fields import prime_field
from leibnizkit.linalg import mat_inverse
from leibnizkit.twilled import TwilledContext

from oracle_helpers import invertible

FIELDS = (prime_field(2), prime_field(3), prime_field(5), Q)
SEARCH_LIMIT = 20_000  # largest Kupershmidt search space enumerated here


@lru_cache(maxsize=None)
def _algebras(f):
    """The catalog algebras of dimension 1 to 3 that are Leibniz in f, and
    random Leibniz algebras of dimension 1 and 2."""
    out = []
    for entry in load_catalog().values():
        base = entry.spec.build("alg")
        if base.dim > 3:
            continue
        try:
            alg = LeibnizAlgebra(f, base.c)
        except DivisionByZero:
            continue
        if alg.is_leibniz:
            out.append(alg)
    for n in (1, 2):
        for seed in range(3):
            try:
                out.append(random_instance("leibniz", n, f, seed))
            except NotFound:
                pass
    return out


@lru_cache(maxsize=None)
def _kupershmidt_maps(rep):
    """Every Kupershmidt map of rep over F_p when the space is small."""
    f, n, m = rep.algebra.field, rep.algebra.dim, rep.mdim
    if f.p ** (n * m) > SEARCH_LIMIT:
        return (Matrix.zeros(f, n, m),)
    return tuple(enumerate_operators(SearchSpec(f, (n, m), "kupershmidt", rep=rep)))


def _kupershmidt_map(rng, rep, seed):
    f = rep.algebra.field
    if f.is_prime_field:
        return rng.choice(_kupershmidt_maps(rep))
    try:
        return random_instance("kupershmidt", rep, f, seed, height=1).matrix
    except NotFound:
        return Matrix.zeros(f, rep.algebra.dim, rep.mdim)


def _moved(rng, total, n1, n2):
    """total in the basis of a random block-diagonal P = P1 (+) P2."""
    f = total.field
    P1, P2 = invertible(rng, f, n1), invertible(rng, f, n2)
    P = Matrix(f, [list(row) + [0] * n2 for row in P1.entries]
               + [[0] * n1 + list(row) for row in P2.entries])
    Pi = mat_inverse(P)
    n = n1 + n2
    return LeibnizAlgebra(f, [[Pi.apply(total.bracket(P.col(i), P.col(j))) for j in range(n)]
                              for i in range(n)])


@settings(max_examples=40, deadline=None)
@given(f=st.sampled_from(FIELDS), seed=st.integers(0, 10 ** 6))
def test_twilled_actions_are_representations(f, seed):
    rng = random.Random(seed)
    alg = rng.choice(_algebras(f))
    rep = regular_representation(alg)
    if rng.random() < 0.5:
        rep = dual_representation(rep)
    if rng.random() < 0.5:
        K = _kupershmidt_map(rng, rep, seed)
        total, n1, n2 = lifted_algebra(as_operator(K), rep), alg.dim, rep.mdim
    else:
        total, n1, n2 = semidirect_sum(rep), rep.mdim, alg.dim
    ctx = TwilledContext(_moved(rng, total, n1, n2), n1, n2)
    assert check_representation(ctx.rho1).ok
    assert check_representation(ctx.rho2).ok
