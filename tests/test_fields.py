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


def test_floats_are_the_exact_rationals_they_equal_and_bools_are_ints():
    """A float is normalized, in every field, to the rational it equals, not
    truncated over F_p or kept inexact over Q; a bool to its int."""
    F2, F3 = prime_field(2), prime_field(3)
    assert F3.of(0.5) == F3.normalize(0.5) == 2
    with pytest.raises(DivisionByZero):
        F2.of(0.5)
    assert Matrix(F5, [[1, 2], [3, 4]]).scale(0.5) == Matrix(F5, [[3, 1], [4, 2]])
    tenth = Matrix(Q, [[0.1]]).scale(3).entries[0][0]
    assert tenth == 3 * Fraction(0.1) and type(tenth) is Fraction
    assert Q.of(0.5) == Q.normalize(0.5) == Fraction(1, 2)
    assert Q.normalize(-2.0) == -2 and type(Q.normalize(-2.0)) is int
    assert Q.format(Q.of(True)) == "1" and Q.format(False) == "0"
    assert type(Q.normalize(True)) is int and F3.normalize(True) == 1
    # a polynomial of the Maurer-Cartan compile passes through Q unchanged
    from leibnizkit.dgla import _Poly

    poly = _Poly({(0,): 1})
    assert Q.normalize(poly) is poly and Q.normalize_all([poly])[0] is poly


class _Reference:
    """The scalar semantics of ``FieldSpec`` on ints, strings and Fractions
    as they were while ``fields`` imported ``fractions`` at module level:
    the reference for the lazy import."""

    def __init__(self, p):
        self.p = p

    def normalize(self, v):
        p = self.p
        if type(v) is int:
            return v if p is None else v % p
        if p is not None:
            if isinstance(v, Fraction):
                if v.denominator % p == 0:
                    raise DivisionByZero(f"denominator of {v} vanishes mod {p}")
                return v.numerator * pow(v.denominator, -1, p) % p
            return int(v) % p
        return v.numerator if isinstance(v, Fraction) and v.denominator == 1 else v

    def normalize_all(self, values):
        return [self.normalize(v) for v in values]

    def of(self, v):
        if isinstance(v, str):
            return self.parse(v)
        if self.p is None and not isinstance(v, int):
            v = Fraction(v)
        return self.normalize(v)

    def inv(self, a):
        if self.is_zero(a):
            raise DivisionByZero("inverse of zero")
        if self.p is not None:
            return pow(self.normalize(a), self.p - 2, self.p)
        return self.normalize(Fraction(1) / Fraction(a))

    def div(self, a, b):
        if self.is_zero(b):
            raise DivisionByZero("division by zero")
        if self.p is not None:
            return a * pow(self.normalize(b), self.p - 2, self.p) % self.p
        if type(a) is type(b) is int and not a % b:
            return a // b
        return self.normalize(Fraction(a) / Fraction(b))

    def is_zero(self, a):
        return a == 0 if self.p is None else self.normalize(a) == 0

    def eq(self, a, b):
        return self.normalize(a) == self.normalize(b)

    def parse(self, s):
        s = s.strip()
        try:
            if "mod" in s:
                if self.p is None:
                    raise ParseError(f"residue scalar {s!r} in a rational context")
                k, _, p = s.partition("mod")
                if int(p) != self.p:
                    raise ParseError(f"scalar {s!r} has modulus {p.strip()}, field is F{self.p}")
                return int(k) % self.p
            if "/" in s:
                num, _, den = s.partition("/")
                return self.of(Fraction(int(num), int(den)))
            return self.of(int(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad scalar {s!r}: {exc}") from None

    def format(self, v):
        v = self.normalize(v)
        if self.p is not None:
            return f"{v} mod {self.p}"
        if isinstance(v, Fraction):
            return f"{v.numerator}/{v.denominator}"
        return str(v)


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, with the type of each value, or the type
    and text of what it raises."""
    try:
        out = fn(*args)
    except (DivisionByZero, ParseError) as exc:
        return type(exc), str(exc)
    return out, [type(v) for v in out] if isinstance(out, list) else type(out)


_ints = st.integers(-10 ** 6, 10 ** 6)
# denominators 1 to 30: 1 itself, and multiples of 2, 3 and 5, which vanish mod p
_fractions = st.one_of(st.builds(Fraction, st.integers(-60, 60), st.integers(1, 30)),
                       _ints.map(Fraction))
_strings = st.one_of(
    _ints.map(str),
    st.tuples(st.integers(-60, 60), st.integers(-6, 30)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.tuples(st.integers(-9, 9), st.sampled_from((2, 3, 5, 7))).map(
        lambda t: f" {t[0]} mod {t[1]}"),
    st.text(" 0123456789/-modx", max_size=8),
)
_raw = st.one_of(_ints, _fractions)


@given(p=st.sampled_from((2, 3, 5, None)), a=_raw, b=_raw, s=_strings,
       values=st.lists(_raw, max_size=6))
@example(p=2, a=Fraction(1, 2), b=Fraction(4, 1), s="1/2", values=[Fraction(3, 4)])
@example(p=None, a=Fraction(6, 3), b=Fraction(1, 3), s="4/2", values=[Fraction(-4, 1)])
@settings(max_examples=300)
def test_scalar_semantics_on_ints_strings_and_fractions_are_unchanged(p, a, b, s, values):
    f, ref = FieldSpec(p), _Reference(p)
    for name, args in (("normalize", (a,)), ("normalize_all", (values,)), ("of", (a,)),
                       ("of", (s,)), ("parse", (s,)), ("format", (a,)), ("inv", (a,)),
                       ("div", (a, b)), ("is_zero", (a,)), ("eq", (a, b))):
        assert _outcome(getattr(f, name), *args) == _outcome(getattr(ref, name), *args), name
