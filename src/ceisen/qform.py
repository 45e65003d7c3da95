"""Binary quadratic forms, class numbers, and the closed coefficient formulas.

Class numbers come from one sieve over the primitive reduced forms, tabulated
for every discriminant up to the largest |d| asked for; the closed formulas
combine them with the local symbols from `arith`.  All values are exact
(int / Fraction).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .arith import (
    Discriminant,
    FactoredInt,
    discriminant_decompositions,
    eichler_symbol,
    factorize,
    is_prime,
    kronecker,
)


def sieve_class_numbers(h: list[int], X: int) -> None:
    """Extend h in place so that h[n] = h(-n) for every n <= X.

    h must already hold h(-n) at each index n < len(h); it holds 0 where -n is
    not a discriminant.  One sweep over the primitive reduced forms (a, b, c)
    with len(h) <= 4ac - b² <= X (Cohen, GTM 138, §5.3): for each (a, b),
    4ac - b² moves in steps of 4a as c grows from c = a (c = a + 1 when
    b < 0, since a = c needs b >= 0).  When gcd(a, b) = 1 every c gives a
    primitive form; otherwise c must be prime to gcd(a, b).
    """
    lo = len(h)
    h.extend([0] * (X + 1 - lo))
    a = 1
    while 3 * a * a <= X:
        step = 4 * a
        for b in range(1 - a, a + 1):
            c0 = max(a if b >= 0 else a + 1, -(-(lo + b * b) // step))
            g = gcd(a, b)
            if g == 1:
                for n in range(step * c0 - b * b, X + 1, step):
                    h[n] += 1
            else:
                for c in range(c0, (X + b * b) // step + 1):
                    if gcd(g, c) == 1:
                        h[step * c - b * b] += 1
        a += 1


_class_numbers: list[int] = []  # h(-n) at index n, extended by class_number


@lru_cache(maxsize=None)
def class_number(d: int) -> int:
    """h(d): the number of classes of primitive forms of discriminant d < 0.

    A lookup into one table of h(-n).  A request past its end sieves the new
    range, to at least twice the old length, so a run asking for every
    |d| up to X makes O(log X) sweeps and sieves each form once.
    """
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError(f"{d} is not a negative discriminant")
    if -d >= len(_class_numbers):
        sieve_class_numbers(_class_numbers, max(-d, 2 * len(_class_numbers)))
    return _class_numbers[-d]


def unit_factor(d: int) -> int:
    """Half the number of units: 3 for d = -3, 2 for d = -4, else 1."""
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError(f"{d} is not a negative discriminant")
    if d == -3:
        return 3
    if d == -4:
        return 2
    return 1


@dataclass(frozen=True)
class LevelConfig:
    """A square-free level split as P·M: P the ramified part, M coprime to it.

    P must be a product of an odd number of distinct primes; M is square-free
    and coprime to P.
    """

    P: FactoredInt
    M: FactoredInt

    def __post_init__(self):
        if not self.P.is_squarefree or not self.M.is_squarefree:
            raise ValueError("level parts must be squarefree")
        if len(self.P.factors) % 2 == 0 or self.P.value < 2:
            raise ValueError("ramified part needs an odd number of primes")
        if gcd(self.P.value, self.M.value) != 1:
            raise ValueError("P and M must be coprime")

    @classmethod
    def from_primes(cls, ramified: tuple[int, ...] | list[int], M: int = 1) -> "LevelConfig":
        ram = sorted(set(int(p) for p in ramified))
        for p in ram:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        if M < 1:
            raise ValueError("M must be >= 1")
        P = 1
        for p in ram:
            P *= p
        return cls(factorize(P), factorize(M))

    @property
    def N(self) -> int:
        return self.P.value * self.M.value

    @property
    def ramified(self) -> tuple[int, ...]:
        return self.P.primes

    @property
    def level_primes(self) -> tuple[int, ...]:
        return tuple(sorted(self.P.primes + self.M.primes))

    def describe(self) -> str:
        return f"N={self.N} (ramified {list(self.P.primes)}, M={self.M.value})"


def mass(cfg: LevelConfig) -> Fraction:
    """(1/24)·prod_{p|P}(p-1)·prod_{q|M}(q+1) — the exact stopping certificate
    for the class enumeration."""
    m = Fraction(1, 24)
    for p in cfg.P.primes:
        m *= p - 1
    for q in cfg.M.primes:
        m *= q + 1
    return m


def closed_form_H(D: int, cfg: LevelConfig) -> Fraction:
    """The closed class-number formula for the degree-D coefficient, D > 0.

    Sums h(d)/u(d) times the local factors over all splittings -D = d·f²,
    then halves.  Zero exactly when D ≡ 1, 2 (mod 4) (empty sum).  Since
    u(d) ∈ {1, 2, 3}, the sum is carried in integers as 12 times the value.
    """
    if D <= 0:
        raise ValueError("D must be positive")
    total = 0
    for disc, _f in discriminant_decompositions(D):
        local = 1
        for p in cfg.P.primes:
            local *= 1 - eichler_symbol(-disc.d, p)
        for q in cfg.M.primes:
            local *= 1 + eichler_symbol(-disc.d, q)
        if local:
            total += local * class_number(disc.d) * (6 // unit_factor(disc.d))
    return Fraction(total, 12)


def kronecker_condition(D: int, cfg: LevelConfig) -> bool:
    """Admissibility of -D: (-D/p) != 1 for ramified p, (-D/q) != -1 for q | M."""
    return all(kronecker(-D, p) != 1 for p in cfg.P.primes) and all(
        kronecker(-D, q) != -1 for q in cfg.M.primes
    )


def s_ramified(D: int, cfg: LevelConfig) -> int:
    """Number of level primes at which -D ramifies (Kronecker symbol zero)."""
    return sum(1 for p in cfg.level_primes if kronecker(-D, p) == 0)


def corollary_H(D: int, cfg: LevelConfig) -> Fraction:
    """Piecewise two-power form of the coefficient at fundamental admissible -D.

    Requires -D fundamental and the Kronecker admissibility condition; then the
    value is 2^(omega(N)-1-s(D)) · h(-D)/u(-D).
    """
    disc = Discriminant.of(-D)
    if not disc.is_fundamental:
        raise ValueError(f"-{D} is not a fundamental discriminant")
    if not kronecker_condition(D, cfg):
        raise ValueError(f"-{D} fails the admissibility condition at {cfg.describe()}")
    omega = len(cfg.P.factors) + len(cfg.M.factors)
    s = s_ramified(D, cfg)
    return Fraction(class_number(-D), unit_factor(-D)) * Fraction(2) ** (omega - 1 - s)
