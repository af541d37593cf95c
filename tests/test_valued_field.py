"""Valuation arithmetic against an independently coded oracle, and the
prime check of the functions that read a p-adic norm."""

import math
import random
from fractions import Fraction

import pytest
from oracles import INFINITE_VALUATION, valuation

import padicamen.amenability as amenability
from padicamen.amenability import certify, johnson_check, schikhof_check
from padicamen.finite_group import cyclic, enumerate_subgroups
from padicamen.group_algebra import GroupAlgebra, norm_exponent
from padicamen.valued_field import PRIMALITY_BOUND, is_prime, require_prime


def oracle_valuation(x, p):
    """Independent oracle: strip p from numerator and denominator."""
    x = Fraction(x)
    if x == 0:
        return INFINITE_VALUATION
    v = 0
    num = abs(x.numerator)
    while num % p == 0:
        num //= p
        v += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def test_valuation_known_values():
    assert valuation(8, 2) == 3
    assert valuation(Fraction(1, 8), 2) == -3
    assert valuation(Fraction(6, 5), 3) == 1
    assert valuation(Fraction(6, 5), 5) == -1
    assert valuation(Fraction(49, 3), 7) == 2
    assert valuation(-12, 2) == 2
    assert valuation(1, 11) == 0
    assert valuation(0, 3) == INFINITE_VALUATION
    assert math.isinf(valuation(0, 2))


def test_valuation_matches_oracle_randomized():
    rng = random.Random(20260818)
    for _ in range(400):
        p = rng.choice([2, 3, 5, 7, 11])
        num = rng.randint(-300, 300)
        den = rng.randint(1, 300)
        x = Fraction(num, den)
        assert valuation(x, p) == oracle_valuation(x, p)


def test_valuation_is_multiplicative():
    rng = random.Random(7)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        x = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        y = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


def test_ultrametric_with_equality_case():
    rng = random.Random(99)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        x = Fraction(rng.randint(-200, 200), rng.randint(1, 200))
        y = Fraction(rng.randint(-200, 200), rng.randint(1, 200))
        vx, vy = valuation(x, p), valuation(y, p)
        vs = valuation(x + y, p)
        assert vs >= min(vx, vy)
        if vx != vy:
            assert vs == min(vx, vy)


# 1 comes last: a reader that skipped the check would hang on it
NON_PRIMES = (0, 6, -3, 2.0, 1)
# every stage certify and schikhof_check could run before reading the prime
STAGES = ("GroupAlgebra", "verify_hopf_axioms", "eq1_check", "lemma2_data",
          "lemma2_iso_check", "johnson_check", "enumerate_subgroups",
          "subgroup_index", "norm_exponent", "virtual_diagonal_construct")


def test_prime_readers_reject_non_primes(monkeypatch):
    # p = 1 would make int_valuation loop forever, and p = 0 divide by 0
    grp = cyclic(4)
    mean = johnson_check(grp).mean
    jc = amenability.JohnsonCertificate(mean)
    subgroups = enumerate_subgroups(grp)

    def refuse(*args, **kwargs):
        raise AssertionError("a stage ran before the prime was checked")
    for name in STAGES:
        monkeypatch.setattr(amenability, name, refuse)
    for bad in NON_PRIMES:
        for call in (lambda: norm_exponent(GroupAlgebra(grp).ones(), bad),
                     lambda: norm_exponent(mean, bad),
                     lambda: certify(grp, bad),
                     lambda: schikhof_check(grp, bad, subgroups, jc)):
            with pytest.raises(ValueError, match="not a prime"):
                call()


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(-3, 25):
        assert is_prime(n) == (n in primes)
    assert is_prime(97)
    assert not is_prime(91)  # 7 * 13
    for n in range(10 ** 5 + 1):  # against trial division
        assert is_prime(n) == (
            n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))), n
    # psi_4 and psi_9: the smallest strong pseudoprimes to the first four
    # and the first nine prime bases
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(999999999989) and is_prime(1000000000000000003)
    assert is_prime(PRIMALITY_BOUND - 20)  # the largest prime below it
    assert not any(is_prime(PRIMALITY_BOUND - k) for k in range(1, 20))


def test_primes_at_or_above_the_bound_are_refused():
    # PRIMALITY_BOUND is composite and passes all twelve bases
    assert PRIMALITY_BOUND == 399165290221 * 798330580441
    for n in (PRIMALITY_BOUND, PRIMALITY_BOUND + 22):
        with pytest.raises(ValueError, match="bound of the primality test"):
            is_prime(n)
        with pytest.raises(ValueError, match="bound of the primality test"):
            require_prime(n)
