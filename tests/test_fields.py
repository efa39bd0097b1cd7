from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizkit import RATIONALS as Q, Matrix, Scalar, prime_field, scalar_arith
from leibnizkit.errors import DivisionByZero, FieldMismatch, ParseError
from leibnizkit.fields import MAX_MODULUS

F5 = prime_field(5)
F7 = prime_field(7)


def q(v):
    return Scalar(Q, v)


def test_rational_add():
    assert scalar_arith("add", q(Fraction(1, 2)), q(Fraction(1, 3))).value == Fraction(5, 6)


def test_prime_inverse():
    assert scalar_arith("inv", Scalar(F5, 2)).value == 3


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        scalar_arith("div", q(1), q(0))
    with pytest.raises(DivisionByZero):
        Scalar(F5, 0).inv()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        scalar_arith("add", q(1), Scalar(F5, 1))


def test_non_prime_modulus_rejected():
    with pytest.raises(ValueError):
        prime_field(6)


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
    assert Scalar(F7, Fraction(1, 2)).value == 4
    with pytest.raises(DivisionByZero):
        F7.normalize(Fraction(1, 7))


def test_normalization():
    assert Q.normalize(Fraction(4, 2)) == 2
    assert isinstance(Q.normalize(Fraction(4, 2)), int)
    assert F5.normalize(12) == 2
    assert Scalar(Q, Fraction(-6, 4)).value == Fraction(-3, 2)


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
    sa, sb, sc = q(a), q(b), q(c)
    assert ((sa + sb) + sc).value == (sa + (sb + sc)).value
    assert (sa * (sb + sc)).value == (sa * sb + sa * sc).value
    assert (sa * sb).value == (sb * sa).value
    if b != 0:
        assert ((sa / sb) * sb).value == sa.value


@given(a=residues, b=residues, c=residues)
@settings(max_examples=60)
def test_field_axioms_prime(a, b, c):
    sa, sb, sc = Scalar(F5, a), Scalar(F5, b), Scalar(F5, c)
    assert ((sa + sb) + sc).value == (sa + (sb + sc)).value
    assert (sa * (sb + sc)).value == (sa * sb + sa * sc).value
    if b % 5 != 0:
        assert ((sa / sb) * sb).value == sa.value
        assert (sb * sb.inv()).value == 1


def test_scalar_arith_arity_validation():
    with pytest.raises(TypeError):
        scalar_arith("add", q(1))
    with pytest.raises(TypeError):
        scalar_arith("neg", q(1), q(2))
    with pytest.raises(ValueError):
        scalar_arith("pow", q(1), q(2))
