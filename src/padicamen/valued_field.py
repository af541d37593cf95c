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

Primality is decided by the strong probable-prime test to the twelve
prime bases 2, 3, ..., 37, which is exact below PRIMALITY_BOUND, the
smallest composite that passes it (psi_12; Sorenson and Webster, Math.
Comp. 86, 2017).  A number at or above the bound is refused, not guessed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

ScalarLike = Union[Fraction, int]


PRIMALITY_BOUND = 318665857834031151167461
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the bases 2..37, exact for n below
    PRIMALITY_BOUND; ValueError at or above it."""
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"{n} is not below {PRIMALITY_BOUND}, the bound "
                         f"of the primality test")
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p) -> None:
    """Raise ValueError unless p is an int prime below PRIMALITY_BOUND.
    Without the check int_valuation would loop forever at p = 1 and
    divide by zero at p = 0."""
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"not a prime: {p!r}")


def int_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero int n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
