"""Exact scalar arithmetic over the rationals or a prime field F_p.

Raw values are what the rest of the package computes with:

* rationals: Python ``int`` or ``fractions.Fraction`` (normalized back to
  ``int`` whenever the denominator is 1 -- plain int arithmetic is an order
  of magnitude faster and the identities checked here are mostly integral);
* F_p: ``int`` residues in ``[0, p)``.

The raw arithmetic of ``FieldSpec`` is the one scalar API: kernels
(matrices, tensors) hold raw values plus one shared ``FieldSpec``, and
serialized files hold the text of ``FieldSpec.format``.

Invariant: every value a kernel stores is normalized, i.e. is what
``FieldSpec.normalize`` returns for it.  ``normalize`` is the one coercion
from outside values (an F_p ``Fraction`` maps through the inverse of its
denominator); the raw arithmetic below expects normalized operands.
``normalize_all`` is its batch form, the one way a kernel normalizes a whole
flat accumulator: plain ints are reduced inline, without a method call per
value; over Q, ``div`` of ints that divide exactly builds no ``Fraction``.
``MAX_MODULUS`` bounds the moduli, so primality is decided exactly and fast.

A float, a Decimal or a bool is an outside value like any other:
``normalize`` maps a value with an exact ``as_integer_ratio`` (a float or a
Decimal) to the rational it equals (so F3 maps 0.5 to 2, and F2 refuses it),
and a bool to its int.  A NaN or an infinity raises as ``Fraction`` does.

``fractions`` (and the ``decimal`` and ``numbers`` it imports) is loaded
only by ``_fraction``, which the code that builds a ``Fraction`` calls:
``of`` on a non-int over Q, ``parse`` of "n/d", ``inv`` over Q, ``div``
over Q when the division is not exact, and ``normalize`` of a float or a
Decimal.
Everything else tells a Fraction apart by its ``denominator``, so a check on
integral data never imports the module.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Optional, Union

from .errors import DivisionByZero, ParseError

if TYPE_CHECKING:
    from fractions import Fraction

RawScalar = Union[int, "Fraction"]


def _fraction(*args) -> Fraction:
    """``fractions.Fraction(*args)``, importing ``fractions`` on the first
    call.  Later calls find the module in ``sys.modules``: an import
    statement in a function costs about 1 us each time it runs, which the
    Fraction paths of a suite pass would pay hundreds of times."""
    fractions = sys.modules.get("fractions")
    if fractions is None:
        import fractions
    return fractions.Fraction(*args)


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


class FieldSpec:
    """The rationals (``p is None``) or the prime field F_p; immutable."""

    __slots__ = ("p",)

    def __init__(self, p: Optional[int] = None):
        if p is not None and p >= MAX_MODULUS:
            raise ValueError(f"modulus {p} is too large (limit {MAX_MODULUS})")
        if p is not None and not _is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        self.p = p

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p

    def __hash__(self):
        return hash((self.p,))

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p!r})"

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
        # of the values that reach here, a Fraction or a bool has a denominator
        den = getattr(v, "denominator", None)
        if den is None:
            # a float or a Decimal is the exact rational it equals
            if getattr(v, "as_integer_ratio", None) is not None:
                return self.normalize(_fraction(v))
            # over Q, a polynomial of ``dgla`` is kept as it is
            return v if p is None else int(v) % p
        if p is None:
            return v.numerator if den == 1 else v
        if den % p == 0:
            raise DivisionByZero(f"denominator of {v} vanishes mod {p}")
        return v.numerator * pow(den, -1, p) % p

    def normalize_all(self, values) -> list:
        """``normalize`` of each value, as a list."""
        p, norm = self.p, self.normalize
        if p is None:
            return [v if type(v) is int else norm(v) for v in values]
        return [v % p if type(v) is int else norm(v) for v in values]

    def of(self, v) -> RawScalar:
        """Coerce an int/Fraction/string into a raw field value."""
        if isinstance(v, str):
            return self.parse(v)
        if self.p is None and not isinstance(v, int):
            v = _fraction(v)
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
        return self.normalize(_fraction(1) / _fraction(a))

    def div(self, a: RawScalar, b: RawScalar) -> RawScalar:
        if self.is_zero(b):
            raise DivisionByZero("division by zero")
        if self.p is not None:
            return a * pow(self.normalize(b), self.p - 2, self.p) % self.p
        if type(a) is type(b) is int and not a % b:
            return a // b
        return self.normalize(_fraction(a) / _fraction(b))

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
                return self.of(_fraction(int(num), int(den)))
            return self.of(int(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad scalar {s!r}: {exc}") from None

    def format(self, v: RawScalar) -> str:
        """The text of a value: "k mod p", or over Q "n" or "n/d" (a
        normalized Fraction has a denominator other than 1, so ``str``
        prints it as "n/d")."""
        v = self.normalize(v)
        if self.p is not None:
            return f"{v} mod {self.p}"
        return str(v)


RATIONALS = FieldSpec(None)


def prime_field(p: int) -> FieldSpec:
    return FieldSpec(p)
