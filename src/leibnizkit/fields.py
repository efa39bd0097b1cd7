"""Exact scalar arithmetic over the rationals or a prime field F_p.

Raw values are what the rest of the package computes with:

* rationals: Python ``int`` or ``fractions.Fraction`` (normalized back to
  ``int`` whenever the denominator is 1 -- plain int arithmetic is an order
  of magnitude faster and the identities checked here are mostly integral);
* F_p: ``int`` residues in ``[0, p)``.

``Scalar`` is the tagged wrapper used at API boundaries and in serialized
files; internal kernels (matrices, tensors) hold raw values plus one shared
``FieldSpec``.

Invariant: every value a kernel stores is normalized, i.e. is what
``FieldSpec.normalize`` returns for it.  ``normalize`` is the one coercion
from outside values (an F_p ``Fraction`` maps through the inverse of its
denominator); the raw arithmetic below expects normalized operands.  Moduli
are bounded by ``MAX_MODULUS`` so that primality is decided exactly and fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import DivisionByZero, FieldMismatch, ParseError

RawScalar = Union[int, Fraction]


# Miller-Rabin with the prime bases 2..41 is deterministic below this bound
# (Sorenson and Webster, 2015); larger moduli are refused, not guessed at.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    if p < 2 or any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s with d odd
    d = (p - 1) >> s
    # p is a strong probable prime to base a iff a^d = 1 or a^(d 2^r) = -1 for some r < s
    return all(pow(a, d, p) == 1 or any(pow(a, d << r, p) == p - 1 for r in range(s))
               for a in _MR_BASES)


@dataclass(frozen=True)
class FieldSpec:
    """The rationals (``p is None``) or the prime field F_p."""

    p: Optional[int] = None

    def __post_init__(self):
        if self.p is not None and self.p >= MAX_MODULUS:
            raise ValueError(f"modulus {self.p} is too large (limit {MAX_MODULUS})")
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"modulus must be prime, got {self.p}")

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    @property
    def char(self) -> int:
        return self.p if self.p is not None else 0

    def __str__(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"

    # -- raw value arithmetic -------------------------------------------

    def normalize(self, v: RawScalar) -> RawScalar:
        p = self.p
        if type(v) is int:
            return v if p is None else v % p
        if p is not None:
            if isinstance(v, Fraction):
                if v.denominator % p == 0:
                    raise DivisionByZero(f"denominator of {v} vanishes mod {p}")
                return v.numerator * pow(v.denominator, -1, p) % p
            return int(v) % p
        if isinstance(v, Fraction):
            return v.numerator if v.denominator == 1 else v
        return v

    def of(self, v) -> RawScalar:
        """Coerce an int/Fraction/string into a raw field value."""
        if isinstance(v, str):
            return self.parse(v)
        if self.p is None and not isinstance(v, int):
            v = Fraction(v)
        return self.normalize(v)

    def zero(self) -> RawScalar:
        return 0

    def one(self) -> RawScalar:
        return 1 % self.p if self.p is not None else 1

    def add(self, a: RawScalar, b: RawScalar) -> RawScalar:
        return (a + b) % self.p if self.p is not None else self.normalize(a + b)

    def sub(self, a: RawScalar, b: RawScalar) -> RawScalar:
        return (a - b) % self.p if self.p is not None else self.normalize(a - b)

    def mul(self, a: RawScalar, b: RawScalar) -> RawScalar:
        return (a * b) % self.p if self.p is not None else self.normalize(a * b)

    def neg(self, a: RawScalar) -> RawScalar:
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a: RawScalar) -> RawScalar:
        if self.is_zero(a):
            raise DivisionByZero("inverse of zero")
        if self.p is not None:
            return pow(self.normalize(a), self.p - 2, self.p)
        return self.normalize(Fraction(1) / Fraction(a))

    def div(self, a: RawScalar, b: RawScalar) -> RawScalar:
        if self.is_zero(b):
            raise DivisionByZero("division by zero")
        if self.p is not None:
            return a * pow(self.normalize(b), self.p - 2, self.p) % self.p
        return self.normalize(Fraction(a) / Fraction(b))

    def is_zero(self, a: RawScalar) -> bool:
        return a == 0 if self.p is None else self.normalize(a) == 0

    def eq(self, a: RawScalar, b: RawScalar) -> bool:
        return self.normalize(a) == self.normalize(b)

    # -- text form -------------------------------------------------------

    def parse(self, s: str) -> RawScalar:
        """Parse "n", "n/d" or "k mod p" into a raw value."""
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

    def format(self, v: RawScalar) -> str:
        v = self.normalize(v)
        if self.p is not None:
            return f"{v} mod {self.p}"
        if isinstance(v, Fraction):
            return f"{v.numerator}/{v.denominator}"
        return str(v)


RATIONALS = FieldSpec(None)


def prime_field(p: int) -> FieldSpec:
    return FieldSpec(p)


@dataclass(frozen=True)
class Scalar:
    """A raw value tagged with its field, for API boundaries and files."""

    field: FieldSpec
    value: RawScalar

    def __post_init__(self):
        object.__setattr__(self, "value", self.field.normalize(self.value))

    def _join(self, other: "Scalar") -> FieldSpec:
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        return self.field

    def __add__(self, other: "Scalar") -> "Scalar":
        f = self._join(other)
        return Scalar(f, f.add(self.value, other.value))

    def __sub__(self, other: "Scalar") -> "Scalar":
        f = self._join(other)
        return Scalar(f, f.sub(self.value, other.value))

    def __mul__(self, other: "Scalar") -> "Scalar":
        f = self._join(other)
        return Scalar(f, f.mul(self.value, other.value))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        f = self._join(other)
        return Scalar(f, f.div(self.value, other.value))

    def __neg__(self) -> "Scalar":
        return Scalar(self.field, self.field.neg(self.value))

    def inv(self) -> "Scalar":
        return Scalar(self.field, self.field.inv(self.value))

    def is_zero(self) -> bool:
        return self.field.is_zero(self.value)

    def __str__(self) -> str:
        return self.field.format(self.value)


_BINARY = {"add", "sub", "mul", "div"}
_UNARY = {"neg", "inv"}


def scalar_arith(op: str, a: Scalar, b: Optional[Scalar] = None) -> Scalar:
    """Field arithmetic dispatch: add/sub/mul/div take two operands, neg/inv one."""
    if op in _BINARY:
        if b is None:
            raise TypeError(f"{op} needs two operands")
        return {"add": a.__add__, "sub": a.__sub__, "mul": a.__mul__, "div": a.__truediv__}[op](b)
    if op in _UNARY:
        if b is not None:
            raise TypeError(f"{op} takes one operand")
        return -a if op == "neg" else a.inv()
    raise ValueError(f"unknown op {op!r}")
