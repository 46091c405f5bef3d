"""Exact arithmetic over odd prime fields F_p and the rationals.

Scalars are plain Python values: canonical residues (``int`` in ``[0, p)``)
for prime fields, :class:`fractions.Fraction` for the rationals.  A
:class:`FieldSpec` bundles the arithmetic so matrices, subspaces and
structure constants never have to special-case the field kind.

Arithmetic works per row: ``scale``, ``sub_multiple`` and ``dot`` choose
their form (``% p`` inline over F_p, plain ``Fraction`` arithmetic over Q)
once per call, not once per scalar, on canonical rows.  Vectors the package
makes are canonical and are not checked again; outside input goes through
``canon``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Union

Scalar = Union[int, Fraction]

MAX_PRIME = 1 << 16


class FieldError(ValueError):
    """Rejected field specification (p not an int, p = 2, composite p, oversized p)."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Either F_p for an odd prime p, or the field of rationals.

    Characteristic 2 is rejected outright: every closure statement this
    package checks assumes 1/2 exists, and a silently wrong verdict is
    worse than an error.  So is a p that is not an ``int``, such as 3.0.
    """

    p: int = 0  # 0 encodes the rationals

    def __post_init__(self):
        if type(self.p) is not int:  # bools included
            raise FieldError(f"p must be an int, not {type(self.p).__name__}")
        if self.p == 0:
            return
        if self.p == 2:
            raise FieldError("characteristic 2 is not supported")
        if not _is_prime(self.p):
            raise FieldError(f"{self.p} is not prime")
        if self.p >= MAX_PRIME:
            raise FieldError(f"prime {self.p} exceeds the 2^16 cap")

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        if p == 0:
            raise FieldError("prime field needs p >= 3")
        return FieldSpec(p)

    @staticmethod
    def rational() -> "FieldSpec":
        return FieldSpec(0)

    @property
    def is_prime(self) -> bool:
        return self.p != 0

    @property
    def zero(self) -> Scalar:
        return 0 if self.p else Fraction(0)

    @property
    def one(self) -> Scalar:
        return 1 if self.p else Fraction(1)

    def canon(self, x) -> Scalar:
        """Canonical form (residue or reduced fraction) of an int or a Fraction;
        any other value, a bool, a float or a numpy integer, is a ValueError."""
        if type(x) is int:  # the common case, ahead of the isinstance check below
            return x % self.p if self.p else Fraction(x)
        if not isinstance(x, Fraction):
            raise ValueError(f"scalar must be an int or a Fraction, not {type(x).__name__}")
        return x.numerator * pow(x.denominator, -1, self.p) % self.p if self.p else x

    def scale(self, c: Scalar, row) -> list:
        """c * row; c is canonical or a plain int."""
        p = self.p
        return [c * x % p for x in row] if p else [c * x if x else x for x in row]

    def sub_multiple(self, a, c: Scalar, b) -> list:
        """a - c * b for rows a and b; c is canonical or a plain int."""
        p = self.p
        if p:
            return [(x - c * y) % p for x, y in zip(a, b)]
        return [x - c * y if y else x for x, y in zip(a, b)]

    def dot(self, a, b) -> Scalar:
        """Sum of a_i b_i."""
        if self.p:
            return sum(map(mul, a, b)) % self.p
        return sum((x * y for x, y in zip(a, b) if x and y), Fraction(0))

    def inv(self, a: Scalar) -> Scalar:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p) if self.p else 1 / a

    def parse(self, text) -> Scalar:
        """Scalar from catalog-file form: an integer or "num/den" string, else what canon takes."""
        if isinstance(text, str):
            if "/" in text:
                num, den = text.split("/", 1)
                return self.canon(Fraction(int(num), int(den)))
            return self.canon(int(text))
        return self.canon(text)

    def unparse(self, x: Scalar):
        """Catalog-file form: plain int when possible, else "num/den"."""
        if self.is_prime:
            return int(x)
        x = Fraction(x)
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    def __str__(self) -> str:
        return f"F{self.p}" if self.is_prime else "Q"
