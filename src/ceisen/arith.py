"""Elementary number theory: primes, factorization, square-free kernels and
the Kronecker symbol, and `certify`, the one check of an exact certificate.
`CongruencePreconditionError` lives here too, so that the CLI catches it
without importing `verify`, which raises it.

Inputs live at desk scale (|values| well under 10^7), so factorization is
plain trial division and symbols are computed by the classical reciprocity
loop.  Everything returns exact integers.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple


class CertificateError(ArithmeticError):
    """An exact identity that a computed result must satisfy failed (a bug, not bad input)."""


class CongruencePreconditionError(Exception):
    """The congruence hypotheses fail before any comparison can run."""


def certify(cond: bool, msg: str) -> None:
    """Raise CertificateError(msg) unless cond; unlike `assert`, it holds under `python -O`."""
    if not cond:
        raise CertificateError(msg)


class FactoredInt(NamedTuple):
    """A positive integer together with its sorted prime factorization."""

    value: int
    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


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
