"""Binary quadratic forms, class numbers, and the closed coefficient formulas.

Class numbers come from one sieve over the primitive reduced forms, into the
table `class_numbers(X)` that a caller sizes once to its largest |d|; a table
that must grow is sieved again from zero.  `field_class_numbers(X)` sieves,
into a fresh list, only the discriminants -4m with m ≡ 1, 2 (mod 4), m <= X.
The field Q(sqrt(-D)), D <= X, has discriminant -D' or -4D', with D' <= D the
squarefree part of D, and -4D' only when D' ≡ 1, 2 (mod 4); so the class
numbers of those fields need `class_numbers` only to X.
Every negative discriminant is split as a fundamental discriminant times a
square conductor by one table, `fundamental_parts`, and `local_factors`
tabulates the local factors at the level primes in one pass, reading each
Kronecker symbol from a table over one period.  The closed formula is one
series, like the theta side's `cohen_H`: each discriminant's class number
times its local factor is added at every D = |d|·f² up to D_max.  All values
are exact (int / Fraction).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .arith import FactoredInt, factorize, is_prime, kronecker


def sieve_class_numbers(X: int) -> list[int]:
    """A fresh table h with h[n] = h(-n) for n <= X, 0 where -n is no discriminant.

    One sweep over the primitive reduced forms (a, b, c) with 4ac - b² <= X
    (Cohen, GTM 138, §5.3): for each a and 0 <= b <= a, 4ac - b² moves in
    steps of 4a as c grows.  (a, b, c) and (a, -b, c) are counted together:
    both are reduced when 0 < b < a < c, only b >= 0 when b = a or c = a.  The
    form is primitive iff c is prime to g = gcd(a, b), so each residue class
    of c mod g is either wholly primitive or wholly not, and each primitive
    class is one slice of h with step 4a·g.
    """
    h = [0] * (X + 1)
    a = 1
    while 3 * a * a <= X:
        step = 4 * a
        for b in range(a + 1):
            g = gcd(a, b)
            bb = b * b
            if 0 < b < a:
                if g == 1 and step * a - bb <= X:
                    h[step * a - bb] += 1  # c = a: only (a, b, a)
                c_min, k = a + 1, 2
            else:
                c_min, k = a, 1
            for c in range(c_min, c_min + g):
                if gcd(c, g) == 1:
                    s = slice(step * c - bb, X + 1, step * g)
                    h[s] = [x + k for x in h[s]]
        a += 1
    return h


_class_numbers: list[int] = []  # h(-n) at index n, replaced by class_numbers


def class_numbers(X: int) -> list[int]:
    """The class-number table, h(-n) at index n (0 where -n is not a
    discriminant), sieved to at least X; callers only read it.  A request past
    its end replaces it by a table sieved from zero to at least twice the old
    length, so a run asking for every |d| up to X makes O(log X) sweeps, and
    one that asks for its largest X first makes one."""
    global _class_numbers
    if X < 0:
        raise ValueError("X must be >= 0")
    if X >= len(_class_numbers):
        _class_numbers = sieve_class_numbers(max(X, 2 * len(_class_numbers)))
    return _class_numbers


def field_class_numbers(X: int) -> list[int]:
    """A fresh list hf with hf[m] = h(-4m) for m <= X, m ≡ 1, 2 (mod 4), and
    0 at every other m: the class numbers of the fields Q(sqrt(-m)) whose
    discriminant is -4m.

    One sweep over the primitive reduced forms (a, 2β, c) of discriminant -4m,
    m = ac - β², paired as in `sieve_class_numbers`.  a ≡ 0 (mod 4) gives
    m ≡ -β² ∈ {0, 3} (mod 4) and is skipped.  For each (a, β), m mod 4 and
    gcd(c, g) with g = gcd(a, 2β) depend on c mod L = lcm(g, 4) alone, so each
    wanted residue class of c is one slice of hf with step a·L.
    """
    if X < 0:
        raise ValueError("X must be >= 0")
    hf = [0] * (X + 1)
    a = 1
    while 3 * a * a <= 4 * X:
        for beta in range(a // 2 + 1) if a % 4 else ():
            g = gcd(a, 2 * beta)
            bb = beta * beta
            if 0 < 2 * beta < a:
                m = a * a - bb
                if g == 1 and m <= X and m % 4 in (1, 2):
                    hf[m] += 1  # c = a: only (a, 2β, a)
                c_min, k = a + 1, 2
            else:
                c_min, k = a, 1
            L = 4 * g // gcd(g, 4)
            for c in range(c_min, min(c_min + L, (X + bb) // a + 1)):
                if gcd(c, g) == 1 and (a * c - bb) % 4 in (1, 2):
                    s = slice(a * c - bb, X + 1, a * L)
                    hf[s] = [x + k for x in hf[s]]
        a += 1
    return hf


@lru_cache(maxsize=None)
def class_number(d: int) -> int:
    """h(d): the number of classes of primitive forms of discriminant d < 0,
    a lookup into one table of h(-n)."""
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError(f"{d} is not a negative discriminant")
    return class_numbers(-d)[-d]


def unit_factor(d: int) -> int:
    """Half the number of units: 3 for d = -3, 2 for d = -4, else 1."""
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError(f"{d} is not a negative discriminant")
    if d == -3:
        return 3
    if d == -4:
        return 2
    return 1


class _LevelParts(NamedTuple):
    P: FactoredInt
    M: FactoredInt


class LevelConfig(_LevelParts):
    """A square-free level split as P·M: P the ramified part, M coprime to it.

    P must be a product of an odd number of distinct primes; M is square-free
    and coprime to P.  Construction checks both (ValueError).
    """

    __slots__ = ()

    def __new__(cls, P: FactoredInt, M: FactoredInt) -> "LevelConfig":
        if not P.is_squarefree or not M.is_squarefree:
            raise ValueError("level parts must be squarefree")
        if len(P.factors) % 2 == 0 or P.value < 2:
            raise ValueError("ramified part needs an odd number of primes")
        if gcd(P.value, M.value) != 1:
            raise ValueError("P and M must be coprime")
        return super().__new__(cls, P, M)

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

    def describe(self) -> str:
        return f"N={self.N} (ramified {list(self.P.primes)}, M={self.M.value})"


def good_primes(cfg: LevelConfig, count: int) -> list[int]:
    """The first `count` primes coprime to the level, in increasing order."""
    out = []
    p = 2
    while len(out) < count:
        if is_prime(p) and cfg.N % p != 0:
            out.append(p)
        p += 1
    return out


def mass(cfg: LevelConfig) -> Fraction:
    """(1/24)·prod_{p|P}(p-1)·prod_{q|M}(q+1) — the exact stopping certificate
    for the class enumeration."""
    m = Fraction(1, 24)
    for p in cfg.P.primes:
        m *= p - 1
    for q in cfg.M.primes:
        m *= q + 1
    return m


def fundamental_parts(X: int) -> list[int]:
    """Entry n, for n <= X, is n0 when -n = -n0·f² with -n0 fundamental, and 0
    when -n is not a discriminant.

    One pass over n in increasing order: a discriminant -n that no smaller one
    reached as -n0·f² is fundamental, and it reaches its multiples -n·f².
    """
    if X < 0:
        raise ValueError("X must be >= 0")
    parts = [0] * (X + 1)
    for n0 in range(3, X + 1):
        if parts[n0] or n0 % 4 in (1, 2):
            continue
        f = 1
        while n0 * f * f <= X:
            parts[n0 * f * f] = n0
            f += 1
    return parts


def local_factors(cfg: LevelConfig, X: int) -> list[int]:
    """Entry n, for n <= X, is ∏_{p|P}(1 − χ(p))·∏_{q|M}(1 + χ(q)) for the
    discriminant -n = -n0·f² with -n0 fundamental, where χ(p) is 1 when p | f
    and (-n0/p) otherwise; it is 0 when -n is not a discriminant.

    (-n0/p) depends on n0 mod p alone for odd p and on n0 mod 8 for p = 2, so
    each level prime's factors 1 ∓ χ(p) are tabulated over one period, and
    every discriminant reads them by list lookup.
    """
    parts = fundamental_parts(X)
    tables = []  # (p, period, 1 ∓ 1 for p | f, 1 ∓ (-r/p) at index r mod period)
    for primes, sign in ((cfg.P.primes, -1), (cfg.M.primes, 1)):
        for p in primes:
            period = 8 if p == 2 else p
            tables.append((p, period, 1 + sign,
                           [1 + sign * kronecker(-r, p) for r in range(period)]))
    out = [0] * (X + 1)
    for n, n0 in enumerate(parts):
        if n0:
            f2 = n // n0
            local = 1
            for p, period, at_conductor, factor in tables:
                local *= at_conductor if f2 % p == 0 else factor[n0 % period]
            out[n] = local
    return out


def closed_form_H(cfg: LevelConfig, D_max: int) -> tuple[Fraction, ...]:
    """The closed class-number formula as a series: coefficients 0..D_max.

    Index 0 is mass(cfg).  At D >= 1 the coefficient is half the sum, over all
    splittings -D = d·f² with d a discriminant, of h(d)/u(d) times the local
    factor of d; it is zero exactly when D ≡ 1, 2 (mod 4) (empty sum).  Each
    discriminant's term is added at every D = |d|·f² <= D_max.  Since
    u(d) ∈ {1, 2, 3}, the sums are carried in integers as 12 times the value.
    """
    if D_max < 0:
        raise ValueError("D_max must be >= 0")
    h = class_numbers(D_max)
    total = [0] * (D_max + 1)
    for n, local in enumerate(local_factors(cfg, D_max)):
        if local:
            term = local * h[n] * (6 // unit_factor(-n))
            f = 1
            while n * f * f <= D_max:
                total[n * f * f] += term
                f += 1
    zero = Fraction(0)  # immutable, so every zero coefficient shares it
    return (mass(cfg),) + tuple(Fraction(t, 12) if t else zero for t in total[1:])


def kronecker_condition(D: int, cfg: LevelConfig) -> bool:
    """Admissibility of -D: (-D/p) != 1 for ramified p, (-D/q) != -1 for q | M."""
    return all(kronecker(-D, p) != 1 for p in cfg.P.primes) and all(
        kronecker(-D, q) != -1 for q in cfg.M.primes
    )


def s_ramified(D: int, cfg: LevelConfig) -> int:
    """Number of level primes at which -D ramifies: (-D/p) = 0 exactly when
    p | D, at p = 2 as well."""
    return sum(D % p == 0 for p in (*cfg.P.primes, *cfg.M.primes))


def corollary_H(D: int, cfg: LevelConfig) -> Fraction:
    """Piecewise two-power form of the coefficient at fundamental admissible -D.

    Requires -D fundamental and the Kronecker admissibility condition; then the
    value is 2^(omega(N)-1-s(D)) · h(-D)/u(-D).
    """
    if D < 1 or fundamental_parts(D)[D] != D:
        raise ValueError(f"-{D} is not a fundamental discriminant")
    if not kronecker_condition(D, cfg):
        raise ValueError(f"-{D} fails the admissibility condition at {cfg.describe()}")
    omega = len(cfg.P.factors) + len(cfg.M.factors)
    s = s_ramified(D, cfg)
    return Fraction(class_number(-D), unit_factor(-D)) * Fraction(2) ** (omega - 1 - s)
