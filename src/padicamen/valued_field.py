"""Exact scalars: rational numbers read through a p-adic lens.

Coefficient arithmetic everywhere in this package is exact arithmetic in
the rational subfield of Q_p: algebra elements hold int numerators over
one int denominator (see group_algebra), and scalars are
`fractions.Fraction`s.  That arithmetic is the same at every prime: the
prime enters only through valuations, so it is passed to the functions
that read a norm and to nothing else, and each of them checks it with
require_prime before any work.  Absolute values |x|_p = p**(-v_p(x)) are
never evaluated as real numbers; only the integer exponent is stored or
compared.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

ScalarLike = Union[Fraction, int]


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


def require_prime(p) -> None:
    """Raise ValueError unless p is an int prime.  Without the check
    int_valuation would loop forever at p = 1 and divide by zero at
    p = 0."""
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"not a prime: {p!r}")


def int_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero int n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
