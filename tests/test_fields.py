from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leibnizkit import RATIONALS as Q, Matrix, prime_field
from leibnizkit.errors import DivisionByZero, FieldMismatch, ParseError
from leibnizkit.fields import MAX_MODULUS, FieldSpec

F5 = prime_field(5)
F7 = prime_field(7)


def test_rational_add():
    half = Fraction(1, 2)
    assert Q.add(half, Fraction(1, 3)) == Fraction(5, 6)
    assert Q.add(half, half) == 1 and type(Q.add(half, half)) is int


def test_prime_inverse():
    assert F5.inv(2) == 3
    assert F5.inv(7) == 3  # an unreduced operand is reduced first


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Q.div(1, 0)
    with pytest.raises(DivisionByZero):
        Q.inv(0)
    with pytest.raises(DivisionByZero):
        F5.inv(0)
    with pytest.raises(DivisionByZero):
        F5.div(3, 5)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        Matrix(Q, [[1]]) + Matrix(F5, [[1]])


def test_non_prime_modulus_rejected():
    with pytest.raises(ValueError):
        prime_field(6)
    with pytest.raises(ValueError, match="modulus must be prime, got 4"):
        FieldSpec(4)


def _accepted(p):
    try:
        prime_field(p)
    except ValueError:
        return False
    return True


def test_modulus_primality_and_bound():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert all(_accepted(n) == trial(n) for n in range(-3, 5000))
    # Carmichael numbers and strong pseudoprimes to the first few prime bases
    for n in (561, 41041, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _accepted(n)
    for p in (2 ** 61 - 1, 3317044064679887385961813):  # the largest prime below the bound
        assert prime_field(p).p == p
    with pytest.raises(ValueError, match="too large"):
        prime_field(MAX_MODULUS)
    with pytest.raises(ValueError, match="too large"):
        prime_field(10 ** 30 + 57)


def test_prime_field_normalizes_fractions_through_the_inverse():
    assert F7.normalize(Fraction(1, 2)) == 4
    assert F7.normalize(Fraction(-3, 4)) == F7.of(Fraction(-3, 4)) == 1
    assert not F7.eq(Fraction(1, 2), 0)
    assert not F7.is_zero(Fraction(1, 2))
    assert F7.inv(Fraction(1, 2)) == 2
    assert Matrix(F7, [[Fraction(1, 2)]]).entries == ((4,),)
    assert F7.div(1, 2) == F7.of("1/2") == 4
    with pytest.raises(DivisionByZero):
        F7.normalize(Fraction(1, 7))


def test_normalization():
    assert Q.normalize(Fraction(4, 2)) == 2
    assert isinstance(Q.normalize(Fraction(4, 2)), int)
    assert F5.normalize(12) == 2
    assert Q.normalize(Fraction(-6, 4)) == Q.of("-6/4") == Fraction(-3, 2)
    assert F5.normalize(-1) == 4 and F5.normalize(Fraction(-6, 4)) == 1


_BATCH_VALUES = (-12, -7, -1, 0, 1, 2, 3, 4, 5, 6, 11, 10 ** 30 + 1, True, False,
                 Fraction(6, 3), Fraction(-4, 1), Fraction(0, 5), Fraction(3, 7),
                 Fraction(-5, 7), Fraction(22, 49))


@pytest.mark.parametrize("f", (Q, prime_field(2), prime_field(3), F5), ids=str)
def test_normalize_all_is_normalize_per_value(f):
    values = list(_BATCH_VALUES)
    if f == Q:
        values += [Fraction(1, 2), Fraction(-9, 6)]
    batch = f.normalize_all(values)
    single = [f.normalize(v) for v in values]
    assert batch == single
    assert [type(v) for v in batch] == [type(v) for v in single]
    assert f.normalize_all(iter(values)) == single
    assert f.normalize_all([]) == []


@pytest.mark.parametrize("p", (2, 3, 5))
def test_normalize_all_refuses_a_vanishing_denominator(p):
    with pytest.raises(DivisionByZero):
        prime_field(p).normalize_all([1, Fraction(3, 7), Fraction(1, 2 * p)])


def test_parse_format_roundtrip():
    for s in ("3", "-1/2", "0", "7/3"):
        assert Q.format(Q.parse(s)) == s
    assert F7.format(F7.parse("4 mod 7")) == "4 mod 7"
    assert F7.parse("11") == 4
    with pytest.raises(ParseError):
        F7.parse("4 mod 5")
    with pytest.raises(ParseError):
        Q.parse("x")
    with pytest.raises(ParseError):
        Q.parse("1 mod 5")


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
residues = st.integers(min_value=0, max_value=4)


@given(a=rationals, b=rationals, c=rationals)
@settings(max_examples=60)
def test_field_axioms_rationals(a, b, c):
    add, mul = Q.add, Q.mul
    a, b, c = Q.normalize(a), Q.normalize(b), Q.normalize(c)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(a, b) == mul(b, a)
    assert add(a, Q.neg(a)) == 0 and Q.sub(a, b) == add(a, Q.neg(b))
    if b != 0:
        assert mul(Q.div(a, b), b) == a
        assert mul(b, Q.inv(b)) == 1


@given(a=residues, b=residues, c=residues)
@settings(max_examples=60)
def test_field_axioms_prime(a, b, c):
    add, mul = F5.add, F5.mul
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(a, b) == mul(b, a)
    assert add(a, F5.neg(a)) == 0 and F5.sub(a, b) == add(a, F5.neg(b))
    if b % 5 != 0:
        assert mul(F5.div(a, b), b) == a
        assert mul(b, F5.inv(b)) == 1


q_operands = st.one_of(st.integers(-10 ** 6, 10 ** 6), rationals, st.booleans())
exact_quotients = st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(-999, 999)).map(
    lambda t: (t[0] * t[1], t[1]))


@given(ops=st.one_of(st.tuples(q_operands, q_operands), exact_quotients))
@example(ops=(6, -3))
@example(ops=(-7, 2))
@example(ops=(0, 5))
@example(ops=(True, True))
@example(ops=(4, True))
@example(ops=(Fraction(6), 3))
@example(ops=(3, Fraction(0)))
@example(ops=(3, False))
@settings(max_examples=200)
def test_rational_div_is_the_normalised_fraction_quotient(ops):
    """Over Q, ``div`` equals normalize(Fraction(a) / Fraction(b)) in value
    and in type, on ints that divide exactly (the int fast path), ints that
    do not, negatives, Fractions and bools; a zero divisor raises."""
    a, b = ops
    if b == 0:
        with pytest.raises(DivisionByZero):
            Q.div(a, b)
        return
    got, want = Q.div(a, b), Q.normalize(Fraction(a) / Fraction(b))
    assert got == want
    assert type(got) is type(want)


@pytest.mark.parametrize("p", (2, 3, 7))
@given(data=st.data())
@settings(max_examples=40)
def test_prime_div_is_the_normalised_fraction_quotient(p, data):
    f = prime_field(p)
    a, b = (data.draw(st.integers(0, p - 1)) for _ in range(2))
    if b == 0:
        with pytest.raises(DivisionByZero):
            f.div(a, b)
        return
    got, want = f.div(a, b), f.normalize(Fraction(a) / Fraction(b))
    assert got == want
    assert type(got) is type(want) is int
