from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial
from itertools import combinations
from pathlib import Path

import pytest

from ceisen.arith import CertificateError, is_prime, squarefree_kernel
from ceisen.quatalg import (
    AlgebraSearchError,
    QuaternionAlgebra,
    construct_algebra,
    hilbert_symbol,
    norm_pair,
    quat_mul,
    ramified_primes,
)


def _solvable_mod_2k(a: int, b: int, k: int) -> bool:
    """Oracle at p = 2: z² = a x² + b y² has a primitive solution mod 2^k."""
    mod = 1 << k
    for x in range(mod):
        for y in range(mod):
            for z in range(mod):
                if x % 2 == 0 and y % 2 == 0 and z % 2 == 0:
                    continue
                if (z * z - a * x * x - b * y * y) % mod == 0:
                    return True
    return False


def test_hilbert_symbol_at_two_against_solvability_oracle():
    # (a,b)_2 = 1 iff the norm equation has a primitive 2-adic solution;
    # mod 64 decides it for squarefree-kernel inputs of this size.
    for a in (-1, -2, -3, 1, 2, 3, -5, 5):
        for b in (-1, -2, -3, 1, 2, 3, -7):
            expected = 1 if _solvable_mod_2k(a, b, 6) else -1
            assert hilbert_symbol(a, b, 2) == expected, (a, b)


def test_hilbert_symbol_odd_prime_small_cases():
    # (u, p)_p = legendre(u, p) for p odd, p coprime to u
    from ceisen.arith import kronecker

    for p in (3, 5, 7, 11, 13):
        for u in range(1, 10):
            if u % p == 0:
                continue
            assert hilbert_symbol(u, p, p) == kronecker(u, p)
            # symbols with both units are trivial at odd p
            for v in range(1, 10):
                if v % p:
                    assert hilbert_symbol(u, v, p) == 1


def test_hilbert_symbol_properties():
    rng = random.Random(3)
    places = [2, 3, 5, 7, 11, math.inf]
    vals = [n for n in range(-12, 13) if n]
    for _ in range(300):
        a, b, c = rng.choice(vals), rng.choice(vals), rng.choice(vals)
        p = rng.choice(places)
        # symmetry and bimultiplicativity
        assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
        assert hilbert_symbol(a * c * c, b, p) == hilbert_symbol(a, b, p)
        assert hilbert_symbol(a, b * c * c, p) == hilbert_symbol(a, b, p)
        assert hilbert_symbol(a, b, p) * hilbert_symbol(a, c, p) == hilbert_symbol(a, b * c, p)


def test_hilbert_product_formula():
    rng = random.Random(5)
    vals = [n for n in range(-30, 31) if n]
    for _ in range(200):
        a, b = rng.choice(vals), rng.choice(vals)
        from ceisen.arith import factorize

        ps = {2} | set(factorize(abs(a)).primes) | set(factorize(abs(b)).primes)
        prod = hilbert_symbol(a, b, math.inf)
        for p in sorted(ps):
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1, (a, b)


def test_ramified_sets():
    assert ramified_primes(-1, -1) == (2,)
    assert ramified_primes(-1, -11) == (11,)
    assert ramified_primes(-1, -3) == (3,)


def test_hilbert_product_formula_certificate(monkeypatch):
    # (-1, -11) ramifies at 11 and at infinity; a symbol flipped at p = 2
    # leaves an odd count of ramified places, so ramified_primes must raise
    # under any interpreter flags
    real = hilbert_symbol
    monkeypatch.setattr("ceisen.quatalg.hilbert_symbol",
                        lambda a, b, p: -real(a, b, p) if p == 2 else real(a, b, p))
    with pytest.raises(CertificateError, match=r"^Hilbert product formula violated \(bug\)$"):
        ramified_primes(-1, -11)


def test_construct_algebra_known_sets():
    B = construct_algebra({2})
    assert (B.a, B.b) == (-1, -1)
    B = construct_algebra({11})
    assert B.ramified == (11,)
    assert (B.a, B.b) == (-1, -11)
    B = construct_algebra({2, 3, 11})
    assert B.ramified == (2, 3, 11)
    B = construct_algebra({2, 3, 7})
    assert B.ramified == (2, 3, 7)


def test_construct_algebra_validation(monkeypatch):
    with pytest.raises(ValueError):
        construct_algebra({2, 3})  # even size
    with pytest.raises(ValueError):
        construct_algebra(set())
    with pytest.raises(ValueError):
        construct_algebra({6})
    # no pair ramifies anywhere, so the search runs out its whole range
    monkeypatch.setattr("ceisen.quatalg.ramified_primes", lambda a, b: ())
    with pytest.raises(AlgebraSearchError, match=r"\|a\|\+\|b\| <= 40"):
        construct_algebra({3})


def test_element_arithmetic_identities():
    rng = random.Random(17)
    B = QuaternionAlgebra.create(-1, -11)
    mul, pair = partial(quat_mul, B.a, B.b), partial(norm_pair, B.a, B.b)

    def conj(x):
        return (x[0], -x[1], -x[2], -x[3])

    els = [tuple(Fraction(rng.randrange(-9, 10), rng.choice([1, 2])) for _ in range(4)) for _ in range(8)]
    one = (1, 0, 0, 0)
    for x in els:
        assert mul(x, one) == x == mul(one, x)
        assert conj(conj(x)) == x
        assert pair(x, x) == pair(conj(x), conj(x))
        assert mul(x, conj(x)) == (pair(x, x), 0, 0, 0)
        if any(x):
            assert mul(x, tuple(c / pair(x, x) for c in conj(x))) == one
    for x in els:
        for y in els:
            assert pair(mul(x, y), mul(x, y)) == pair(x, x) * pair(y, y)
            assert conj(mul(x, y)) == mul(conj(y), conj(x))
            assert mul(x, y)[0] == mul(y, x)[0]  # trace(xy) = trace(yx)
            assert pair(x, y) == mul(x, conj(y))[0]  # trace(x·conj(y))/2
            for z in els:
                assert mul(mul(x, y), z) == mul(x, mul(y, z))
                y_plus_z = tuple(u + v for u, v in zip(y, z))
                assert mul(x, y_plus_z) == tuple(u + v for u, v in zip(mul(x, y), mul(x, z)))


def test_norm_positive_definite():
    B = QuaternionAlgebra.create(-2, -5)
    rng = random.Random(23)
    for _ in range(100):
        x = tuple(rng.randrange(-6, 7) for _ in range(4))
        n = norm_pair(B.a, B.b, x, x)
        assert n > 0 if any(x) else n == 0


def test_definite_required():
    with pytest.raises(ValueError):
        QuaternionAlgebra.create(1, -1)


def test_rational_arguments_rejected():
    # symbols and algebras take integers: a Fraction, even an integral one, is
    # a ValueError and never a square class
    for x in (Fraction(-1, 2), Fraction(-3)):
        with pytest.raises(ValueError, match="integer"):
            hilbert_symbol(x, -1, 2)
        with pytest.raises(ValueError, match="integer"):
            hilbert_symbol(-1, x, 3)
        with pytest.raises(ValueError, match="integer"):
            QuaternionAlgebra.create(x, -1)
        with pytest.raises(ValueError, match="integer"):
            QuaternionAlgebra.create(-1, x)
    with pytest.raises(ValueError):
        hilbert_symbol(0, -1, 2)


def unfiltered_search(S: tuple[int, ...]) -> tuple[int, int]:
    """The algebra search with no divisor filter: the first (|a|+|b|, |a|)
    pair of negative squarefree a, b ramified exactly at S."""
    for t in range(2, 8 * math.prod(S) + 17):
        for na in range(1, t):
            a, b = -na, na - t
            if squarefree_kernel(a) == a and squarefree_kernel(b) == b:
                if ramified_primes(a, b) == S:
                    return a, b
    raise AssertionError(f"no algebra for {S}")


@pytest.mark.parametrize("S", [(2,), (3,), (11,), (197,), (2, 3, 7), (3, 5, 7),
                               (2, 3, 11), (2, 3, 5, 7, 11)])
def test_construct_algebra_matches_unfiltered_search(S):
    B = construct_algebra(set(S))
    assert (B.a, B.b) == unfiltered_search(S)
    assert B.ramified == S


def divisor_filtered_search(S: tuple[int, ...]) -> tuple[int, int]:
    """The algebra search that tries every |a| < t and skips a pair unless
    the odd part of the set's product divides ab: the loop that the residue
    classes replaced, kept as the reference."""
    prod = math.prod(S)
    odd = prod // 2 if S[0] == 2 else prod
    for t in range(2, 8 * prod + 17):
        for na in range(1, t):
            nb = t - na
            if (na * nb) % odd:
                continue
            a, b = -na, -nb
            if squarefree_kernel(a) != a or squarefree_kernel(b) != b:
                continue
            if ramified_primes(a, b) == S:
                return a, b
    raise AssertionError(f"no algebra for {S}")


ALGEBRA_TABLE = Path(__file__).parent / "data" / "algebra_primes_600_2000.csv"


def test_residue_search_matches_divisor_filter_below_2000():
    """Every prime below 2000 and every odd-size squarefree set with product
    below 2000: one or three primes, as five have product >= 2·3·5·7·11 =
    2310, and the largest of three is below 2000/6.

    The reference loop `divisor_filtered_search` runs on the triples and on
    the primes below 600.  The 194 primes above 600, where the loop spends
    most of its time, are compared against ALGEBRA_TABLE, which the loop
    wrote as

        print("p,a,b")
        for p in range(601, 2000):
            if is_prime(p):
                print(p, *divisor_filtered_search((p,)), sep=",")

    The first three rows are derived again here, which ties the table to the
    loop.
    """
    primes = [p for p in range(2, 2000) if is_prime(p)]
    triples = [c for c in combinations([p for p in primes if 6 * p < 2000], 3) if math.prod(c) < 2000]
    sets = [(p,) for p in primes] + triples
    assert len(sets) == 605 and (1999,) in sets and (2, 3, 331) in sets
    header, *rows = ALGEBRA_TABLE.read_text().split()
    table = {(p,): (a, b) for p, a, b in (map(int, row.split(",")) for row in rows)}
    assert header == "p,a,b" and list(table) == [(p,) for p in primes if p > 600]
    for S in list(table)[:3]:
        assert table[S] == divisor_filtered_search(S)
    for S in sets:
        B = construct_algebra(set(S))
        assert (B.a, B.b) == (table[S] if S in table else divisor_filtered_search(S)), S
        assert B.ramified == S
