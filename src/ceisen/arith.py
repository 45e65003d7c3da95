"""Elementary number theory: factorization, Kronecker symbol, discriminants.

Inputs live at desk scale (|values| well under 10^7), so factorization is
plain trial division and symbols are computed by the classical reciprocity
loop.  Everything returns exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt


@dataclass(frozen=True)
class FactoredInt:
    """A positive integer together with its sorted prime factorization."""

    value: int
    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


@lru_cache(maxsize=None)
def factorize(n: int) -> FactoredInt:
    """Trial-division factorization of n >= 1.  Rejects n < 1."""
    if n < 1:
        raise ValueError(f"factorize expects a positive integer, got {n}")
    m = n
    factors = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return FactoredInt(n, tuple(factors))


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n).factors == ((n, 1),)


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p:: p] = bytearray(len(sieve[p * p:: p]))
    return [p for p in range(2, n + 1) if sieve[p]]


def valuation(n: int, p: int) -> int:
    """Largest e with p^e | n, for n != 0."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def squarefree_kernel(n: int) -> int:
    """Product of primes dividing n to odd order, with the sign of n."""
    if n == 0:
        raise ValueError("0 has no squarefree kernel")
    sign = -1 if n < 0 else 1
    k = 1
    for p, e in factorize(abs(n)).factors:
        if e % 2:
            k *= p
    return sign * k


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n), the full multiplicative extension of Legendre.

    (d/2) is 0 for even d and ±1 by d mod 8; (d/-1) is the sign character.
    n = 0 is rejected.
    """
    if n == 0:
        raise ValueError("kronecker symbol (d/0) is not defined here")
    result = 1
    if n < 0:
        n = -n
        if d < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            result = -result
    return result * _jacobi(d, n)


@lru_cache(maxsize=None)
def eichler_symbol(D: int, p: int) -> int:
    """Local symbol of the quadratic order of discriminant -D at p.

    When -D is a discriminant d0·f², the value is 1 if p divides the conductor
    f and kronecker(d0, p) otherwise.  For odd p this is exactly the familiar
    three-case split (1 if p²|D, 0 if p∥D, kronecker(-D,p) if p∤D); at p = 2
    the conductor test is the correct one — an even fundamental part must
    report ramification (0), not 1, even though 4 | D.  When -D ≡ 2, 3 (mod 4)
    the three-case split is used as the total extension.
    """
    if D <= 0:
        raise ValueError("D must be positive")
    d = -D
    if d % 4 in (0, 1):
        disc = Discriminant.of(d)
        if disc.conductor % p == 0:
            return 1
        return kronecker(disc.fundamental_part, p)
    if D % (p * p) == 0:
        return 1
    if D % p == 0:
        return 0
    return kronecker(-D, p)


@dataclass(frozen=True)
class Discriminant:
    """A negative discriminant d ≡ 0, 1 (mod 4), with fundamentality data."""

    d: int
    is_fundamental: bool
    conductor: int

    @classmethod
    def of(cls, d: int) -> "Discriminant":
        if d >= 0 or d % 4 not in (0, 1):
            raise ValueError(f"{d} is not a negative discriminant")
        # f takes p^⌊e/2⌋ from each p^e ∥ d, but at p = 2 the fundamental
        # part keeps 2² (or 2³ for odd e) unless e is even and the odd part
        # of d is ≡ 1 (mod 4), when d/f² ≡ 1 (mod 4) is itself fundamental.
        f = 1
        for p, e in factorize(-d).factors:
            if p == 2 and (e % 2 or (-d >> e) % 4 == 1):
                e -= 2
            f *= p ** (e // 2)
        return cls(d, f == 1, f)

    @property
    def fundamental_part(self) -> int:
        return self.d // (self.conductor * self.conductor)


def fundamental_discriminant(m: int) -> int:
    """Discriminant of Q(sqrt(m)) for m < 0: the fundamental discriminant below m's kernel."""
    k = squarefree_kernel(m)
    return k if k % 4 == 1 else 4 * k
