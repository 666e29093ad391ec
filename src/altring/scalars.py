"""Exact scalar domains: the rationals and prime fields F_p.

Scalars are plain Python values (``fractions.Fraction`` over Q, ``int`` in
``range(p)`` over F_p); the domain object supplies the arithmetic.  All
operations are exact, and total except division by zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import InvalidField, ParseError

Scalar = Union[int, Fraction]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for every n < 3.3e24."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """Arbitrary-precision rational arithmetic; no magnitude limits."""

    kind = "Q"
    is_finite = False

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a: Scalar, b: Scalar) -> Fraction:
        return Fraction(a) + Fraction(b)

    def sub(self, a: Scalar, b: Scalar) -> Fraction:
        return Fraction(a) - Fraction(b)

    def neg(self, a: Scalar) -> Fraction:
        return -Fraction(a)

    def mul(self, a: Scalar, b: Scalar) -> Fraction:
        return Fraction(a) * Fraction(b)

    def inv(self, a: Scalar) -> Fraction:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def div(self, a: Scalar, b: Scalar) -> Fraction:
        return self.mul(a, self.inv(b))

    def parse(self, text) -> Fraction:
        try:
            return Fraction(str(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational scalar {text!r}") from exc

    def fmt(self, a: Scalar):
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def to_json(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """F_p with elements represented canonically as ints in range(p)."""

    kind = "Fp"
    is_finite = True

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise InvalidField(f"modulus {p!r} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    @property
    def size(self) -> int:
        return self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def parse(self, text) -> int:
        if isinstance(text, int):
            return text % self.p
        try:
            if "/" in str(text):
                num, den = str(text).split("/", 1)
                return self.div(int(num) % self.p, int(den) % self.p)
            return int(str(text)) % self.p
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad F_{self.p} scalar {text!r}") from exc

    def fmt(self, a: int):
        return a % self.p

    def to_json(self):
        return {"Fp": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


Domain = Union[Rationals, PrimeField]


def domain_from_json(obj) -> Domain:
    if obj == "Q":
        return Rationals()
    if isinstance(obj, dict) and set(obj) == {"Fp"}:
        return PrimeField(obj["Fp"])
    raise ParseError(f"bad scalar domain spec {obj!r}")
