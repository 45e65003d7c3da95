from __future__ import annotations

import random
from math import isqrt

import pytest

from ceisen.arith import (
    Discriminant,
    eichler_symbol,
    factorize,
    fundamental_discriminant,
    is_prime,
    kronecker,
    primes_up_to,
    squarefree_kernel,
    valuation,
)


def test_factorize_examples():
    assert factorize(66).factors == ((2, 1), (3, 1), (11, 1))
    assert factorize(1).factors == ()
    assert factorize(2000).factors == ((2, 4), (5, 3))
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-5)


def test_factorize_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 10**6)
        f = factorize(n)
        prod = 1
        for p, e in f.factors:
            assert is_prime(p)
            prod *= p**e
        assert prod == n == f.value


def _legendre_oracle(d: int, p: int) -> int:
    # direct definition: count square roots of d mod an odd prime
    r = d % p
    if r == 0:
        return 0
    return 1 if any((x * x) % p == r for x in range(1, p)) else -1


def test_kronecker_against_legendre_oracle():
    for p in primes_up_to(60):
        if p == 2:
            continue
        for d in range(-40, 41):
            assert kronecker(d, p) == _legendre_oracle(d, p), (d, p)


def test_kronecker_examples():
    assert kronecker(-3, 11) == -1
    assert kronecker(-8, 11) == 1
    assert kronecker(-4, 2) == 0
    with pytest.raises(ValueError):
        kronecker(5, 0)


def test_kronecker_multiplicative():
    rng = random.Random(11)
    for _ in range(300):
        d = rng.randrange(-50, 51)
        m = rng.choice([n for n in range(-30, 31) if n])
        n = rng.choice([n for n in range(-30, 31) if n])
        assert kronecker(d, m * n) == kronecker(d, m) * kronecker(d, n)


def test_kronecker_at_two_period_eight():
    for d in range(-100, 100, 2):
        assert kronecker(d, 2) == 0
    for d in (1, 7, 9, 15, 17, -1, -7):
        assert kronecker(d, 2) == 1
    for d in (3, 5, 11, 13, -3, -5):
        assert kronecker(d, 2) == -1


def test_eichler_symbol_cases():
    assert eichler_symbol(3, 11) == -1  # 11 coprime to 3
    assert eichler_symbol(11, 11) == 0  # divides exactly once
    assert eichler_symbol(12, 2) == 1  # 2 divides the conductor of -12
    assert eichler_symbol(6, 3) == 0  # p exactly divides
    assert eichler_symbol(3, 3) == 0
    assert eichler_symbol(27, 3) == 1  # conductor 3
    # even fundamental parts report ramification at 2, despite 4 | D
    assert eichler_symbol(4, 2) == 0
    assert eichler_symbol(8, 2) == 0
    assert eichler_symbol(16, 2) == 1  # -16 = -4·2², conductor 2
    assert eichler_symbol(20, 2) == 0  # -20 fundamental, even


def test_eichler_symbol_matches_kronecker_on_coprime_part():
    from ceisen.arith import primes_up_to

    for D in range(1, 2001):
        for p in primes_up_to(50):
            if D % p:
                assert eichler_symbol(D, p) == kronecker(-D, p), (D, p)


def test_valuation_and_kernel():
    assert valuation(48, 2) == 4
    assert squarefree_kernel(-66) == -66
    assert squarefree_kernel(72) == 2
    assert squarefree_kernel(-4) == -1


def test_discriminant_metadata():
    d = Discriminant.of(-4)
    assert d.is_fundamental and d.conductor == 1
    d = Discriminant.of(-12)
    assert not d.is_fundamental and d.conductor == 2 and d.fundamental_part == -3
    d = Discriminant.of(-27)
    assert d.conductor == 3 and d.fundamental_part == -3
    with pytest.raises(ValueError):
        Discriminant.of(-5)
    with pytest.raises(ValueError):
        Discriminant.of(4)


def scan_discriminant(d: int) -> tuple[int, bool, int]:
    """Reference: the conductor is the largest g with g² | d and d/g² ≡ 0, 1 (mod 4)."""
    f = 1
    for g in range(2, isqrt(-d) + 1):
        if d % (g * g) == 0 and (d // (g * g)) % 4 in (0, 1):
            f = g
    return d, f == 1, f


def test_discriminant_matches_conductor_scan():
    for n in range(3, 20001):
        if (-n) % 4 in (0, 1):
            disc = Discriminant.of(-n)
            assert (disc.d, disc.is_fundamental, disc.conductor) == scan_discriminant(-n)


def test_fundamental_discriminant_of_field():
    assert fundamental_discriminant(-1) == -4
    assert fundamental_discriminant(-3) == -3
    assert fundamental_discriminant(-4) == -4
    assert fundamental_discriminant(-47) == -47
    assert fundamental_discriminant(-50) == -8
