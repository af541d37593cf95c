"""Exact scalars: rational numbers read through a p-adic lens.

Coefficient arithmetic everywhere in this package is exact arithmetic in
the rational subfield of Q_p: algebra elements hold int numerators over
one int denominator (see group_algebra), and scalars are
`fractions.Fraction`s.  The prime enters only through valuations.
Absolute values |x|_p = p**(-v_p(x)) are never evaluated as real numbers;
only the integer exponent is stored or compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

ScalarLike = Union[Fraction, int]

#: Valuation of zero.  An IEEE infinity compares correctly against every
#: integer valuation, which is the only arithmetic it ever sees.
INFINITE_VALUATION = math.inf


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check."""
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
class FieldDescriptor:
    """The ground field Q_p, given by its prime."""

    prime: int

    def __post_init__(self):
        if not isinstance(self.prime, int) or not is_prime(self.prime):
            raise ValueError(f"not a prime: {self.prime!r}")


def int_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero int n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(x: ScalarLike, p: int):
    """v_p(x) as an exact integer; INFINITE_VALUATION for x = 0."""
    x = Fraction(x)
    if x == 0:
        return INFINITE_VALUATION
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)
