from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ceisen
from ceisen import qform
from ceisen.arith import factorize, kronecker, primes_up_to, squarefree_kernel
from ceisen.qform import (
    LevelConfig,
    class_number,
    class_numbers,
    closed_form_H,
    corollary_H,
    field_class_numbers,
    fundamental_parts,
    kronecker_condition,
    local_factors,
    mass,
    s_ramified,
    sieve_class_numbers,
    unit_factor,
)
from test_arith import scan_discriminant  # the conductor scan, the split's reference


# The per-d enumeration of reduced forms: the reference for the sieve.
@dataclass(frozen=True)
class ReducedForm:
    """A reduced primitive positive form a·x² + b·xy + c·y²."""

    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def reduced_forms(d: int) -> list[ReducedForm]:
    """All primitive reduced forms of negative discriminant d.

    Reduced means |b| <= a <= c with b >= 0 whenever |b| = a or a = c.
    """
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError(f"{d} is not a negative discriminant")
    forms = []
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            forms.append(ReducedForm(a, b, c))
        a += 1
    return forms


def reference_sieve_class_numbers(X: int) -> list[int]:
    """The form-by-form sieve: the same reduced forms as sieve_class_numbers,
    one `h[n] += 1` per form and one gcd per c when gcd(a, b) > 1."""
    h = [0] * (X + 1)
    a = 1
    while 3 * a * a <= X:
        step = 4 * a
        for b in range(1 - a, a + 1):
            c0 = a if b >= 0 else a + 1
            g = gcd(a, b)
            if g == 1:
                for n in range(step * c0 - b * b, X + 1, step):
                    h[n] += 1
            else:
                for c in range(c0, (X + b * b) // step + 1):
                    if gcd(g, c) == 1:
                        h[step * c - b * b] += 1
        a += 1
    return h


def brute_force_class_number(d: int) -> int:
    """Independent oracle: enumerate all integer triples in the reduced region
    and test every condition literally."""
    count = 0
    a = 1
    while a * a * 3 <= -d:
        for b in range(-a, a + 1):
            cmax = (a * a - d) // (4 * a) + 1
            for c in range(a, cmax + 1):
                if b * b - 4 * a * c != d:
                    continue
                if not (abs(b) <= a <= c):
                    continue
                if b < 0 and (abs(b) == a or a == c):
                    continue
                if gcd(gcd(a, abs(b)), c) != 1:
                    continue
                count += 1
        a += 1
    return count


def test_class_number_spot_values():
    assert class_number(-3) == 1
    assert class_number(-4) == 1
    assert class_number(-23) == 3
    assert class_number(-47) == 5
    assert class_number(-163) == 1
    assert class_number(-12) == 1


def test_class_number_against_oracle():
    for D in range(3, 400):
        d = -D
        if d % 4 in (0, 1):
            assert class_number(d) == brute_force_class_number(d), d


def test_class_number_matches_reduced_forms_to_3000():
    for n in range(3, 3001):
        if (-n) % 4 in (0, 1):
            assert class_number(-n) == len(reduced_forms(-n)), -n


def test_sieve_from_empty_and_in_steps():
    # every size sieves from zero into a fresh table, the prefix of a larger one
    whole = sieve_class_numbers(3000)
    for X in (0, 1, 4, 100, 101, 1500, 3000):
        assert sieve_class_numbers(X) == whole[:X + 1]
    assert sieve_class_numbers(3000) is not whole
    for n, h in enumerate(whole):
        assert h == (len(reduced_forms(-n)) if n and (-n) % 4 in (0, 1) else 0), n


def test_sieve_matches_reference_sieve_to_20000():
    reference = reference_sieve_class_numbers(20000)
    assert sieve_class_numbers(20000) == reference
    for X in (0, 1, 4, 7, 101, 1500):
        assert sieve_class_numbers(X) == reference_sieve_class_numbers(X) == reference[:X + 1], X


def test_class_numbers_replaces_its_table_on_growth(monkeypatch):
    # a request past the end sieves a new table, to at least twice the old
    # length, and leaves the table a caller already holds as it was
    from ceisen import qform

    monkeypatch.setattr(qform, "_class_numbers", [])
    small = class_numbers(10)
    assert class_numbers(5) is small and len(small) == 11
    grown = class_numbers(11)
    assert grown is not small and len(small) == 11 and len(grown) == 23
    assert grown == sieve_class_numbers(22) and class_numbers(22) is grown
    assert len(class_numbers(100)) == 101


def test_field_class_numbers_match_the_table():
    # hf[m] = h(-4m) at m ≡ 1, 2 (mod 4) and 0 at every other m, in a fresh
    # list; the smallest tables against the reduced forms themselves
    X = 5000
    hf = field_class_numbers(X)
    h = class_numbers(4 * X)
    assert len(hf) == X + 1
    for m, value in enumerate(hf):
        assert value == (h[4 * m] if m % 4 in (1, 2) else 0), m
    assert field_class_numbers(X) is not hf
    for X in (0, 1, 2, 3, 4, 5):
        assert field_class_numbers(X) == [
            len(reduced_forms(-4 * m)) if m % 4 in (1, 2) else 0 for m in range(X + 1)]
    with pytest.raises(ValueError):
        field_class_numbers(-1)


def test_tables_reject_negative_X():
    # a negative size is bad input for every table, not a request for none
    for table in (class_numbers, fundamental_parts, field_class_numbers):
        with pytest.raises(ValueError, match="X must be >= 0"):
            table(-1)


def test_class_number_on_sampled_fundamental_4k():
    # -4k is fundamental for squarefree k ≡ 1, 2 (mod 4)
    ks = [k for k in range(1, 5001) if k % 4 in (1, 2) and squarefree_kernel(k) == k]
    for k in random.Random(5).sample(ks, 200):
        assert class_number(-4 * k) == len(reduced_forms(-4 * k)), -4 * k


def _class_numbers_in_fresh_process(ds: list[int]) -> dict[int, int]:
    src = os.path.dirname(os.path.dirname(ceisen.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import json, sys\n"
        "from ceisen.qform import class_number\n"
        "print(json.dumps([[d, class_number(d)] for d in json.loads(sys.argv[1])]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, json.dumps(ds)],
                         env=env, capture_output=True, text=True, check=True).stdout
    return dict(map(tuple, json.loads(out)))


def test_class_number_independent_of_request_order():
    small = [-n for n in range(3, 400) if (-n) % 4 in (0, 1)]
    large = [-19996, -19999, -15004]
    big_first = _class_numbers_in_fresh_process(large + small)
    small_first = _class_numbers_in_fresh_process(small + large[::-1])
    assert big_first == small_first
    assert all(big_first[d] == len(reduced_forms(d)) for d in small + large)


def test_class_number_rejects_non_discriminants_inside_the_table():
    class_number(-4000)
    for d in (0, 5, -1, -2, -5, -6):
        with pytest.raises(ValueError):
            class_number(d)


def test_reduced_forms_are_reduced_and_primitive():
    for d in (-3, -4, -23, -47, -71, -84):
        for f in reduced_forms(d):
            assert f.discriminant == d
            assert abs(f.b) <= f.a <= f.c
            assert gcd(gcd(f.a, abs(f.b)), f.c) == 1
            if abs(f.b) == f.a or f.a == f.c:
                assert f.b >= 0


def test_unit_factor():
    assert unit_factor(-3) == 3
    assert unit_factor(-4) == 2
    assert unit_factor(-7) == 1
    assert unit_factor(-12) == 1


def test_level_config_validation():
    cfg = LevelConfig.from_primes([11])
    assert cfg.N == 11 and cfg.ramified == (11,)
    cfg = LevelConfig.from_primes([3, 2, 11])
    assert cfg.N == 66 and cfg.ramified == (2, 3, 11)
    cfg = LevelConfig.from_primes([2, 3, 7], M=5)
    assert cfg.N == 210
    with pytest.raises(ValueError):
        LevelConfig.from_primes([2, 3])  # even count
    with pytest.raises(ValueError):
        LevelConfig.from_primes([4])  # not prime
    with pytest.raises(ValueError):
        LevelConfig.from_primes([2, 3, 7], M=7)  # not coprime
    with pytest.raises(ValueError):
        LevelConfig.from_primes([2, 3, 7], M=4)  # not squarefree
    # the same checks on direct construction
    assert LevelConfig(factorize(7), factorize(5)) == LevelConfig.from_primes([7], 5)
    for P, M in [(6, 1), (7, 7), (7, 4)]:
        with pytest.raises(ValueError):
            LevelConfig(factorize(P), factorize(M))


def test_mass_values():
    assert mass(LevelConfig.from_primes([11])) == Fraction(5, 12)
    assert mass(LevelConfig.from_primes([2, 3, 11])) == Fraction(5, 6)
    assert mass(LevelConfig.from_primes([2, 3, 7], M=5)) == Fraction(3)
    assert mass(LevelConfig.from_primes([2])) == Fraction(1, 24)


def test_closed_form_spot_values():
    cfg11 = LevelConfig.from_primes([11])
    C = closed_form_H(cfg11, 200)
    assert len(C) == 201
    assert C[0] == mass(cfg11)
    assert closed_form_H(cfg11, 0) == (mass(cfg11),)
    assert C[3] == Fraction(1, 3)
    assert C[4] == Fraction(1, 2)
    assert C[11] == Fraction(1, 2)
    # vanishing in the excluded residue classes
    for D in range(1, 201):
        if D % 4 in (1, 2):
            assert C[D] == 0


def test_closed_form_denominators_divide_six():
    for cfg in (
        LevelConfig.from_primes([11]),
        LevelConfig.from_primes([2, 3, 11]),
        LevelConfig.from_primes([2, 3, 7], M=5),
        LevelConfig.from_primes([3]),
    ):
        for D, H in enumerate(closed_form_H(cfg, 299)):
            if D:
                assert 6 % H.denominator == 0


@pytest.mark.parametrize("ramified, M", [((11,), 1), ((2, 3, 11), 1), ((2, 3, 7), 5)])
def test_closed_form_prefixes(ramified, M):
    cfg = LevelConfig.from_primes(ramified, M)
    full = closed_form_H(cfg, 2000)
    for k in (0, 1, 2, 3, 4, 7, 100):
        assert closed_form_H(cfg, k) == full[:k + 1], k


def discriminant_decompositions(D: int) -> list[tuple[int, int]]:
    """All ways -D = d·f² with d a negative discriminant, f >= 1, sorted by f.

    Empty exactly when D ≡ 1, 2 (mod 4).
    """
    if D <= 0:
        raise ValueError("D must be positive")
    out = []
    for f in range(1, isqrt(D) + 1):
        if D % (f * f):
            continue
        d = -(D // (f * f))
        if d % 4 in (0, 1):
            out.append((d, f))
    return out


def test_decompositions():
    assert discriminant_decompositions(12) == [(-12, 1), (-3, 2)]
    assert discriminant_decompositions(1) == []
    assert discriminant_decompositions(2) == []
    assert discriminant_decompositions(16) == [(-16, 1), (-4, 2)]
    # D ≡ 1, 2 mod 4 always empty
    for D in range(1, 200):
        decs = discriminant_decompositions(D)
        if D % 4 in (1, 2):
            assert decs == []
        else:
            assert decs and all(-D == d * f * f for d, f in decs)


def fraction_closed_form_H(D: int, cfg: LevelConfig) -> Fraction:
    """Reference: the closed formula at one D, summed term by term in Fractions,
    with each d split as d0·g² by the conductor scan."""
    total = Fraction(0)
    for d, _f in discriminant_decompositions(D):
        _, _, g = scan_discriminant(d)
        d0 = d // (g * g)
        term = Fraction(class_number(d), unit_factor(d))
        for p in cfg.P.primes:
            term *= 1 - (1 if g % p == 0 else kronecker(d0, p))
        for q in cfg.M.primes:
            term *= 1 + (1 if g % q == 0 else kronecker(d0, q))
        total += term
    return total / 2


@pytest.mark.parametrize("ramified, M", [
    ((11,), 1), ((2, 3, 11), 1), ((2, 3, 7), 5), ((2, 3, 5, 7, 11), 1), ((5,), 1001),
])
def test_closed_form_matches_fraction_reference(ramified, M):
    cfg = LevelConfig.from_primes(ramified, M)
    C = closed_form_H(cfg, 2000)
    assert len(C) == 2001 and C[0] == mass(cfg)
    for D in range(1, 2001):
        assert type(C[D]) is Fraction
        assert C[D] == fraction_closed_form_H(D, cfg), D
        if D % 4 in (1, 2):
            assert C[D] == 0


@st.composite
def small_levels(draw) -> LevelConfig:
    """An odd-size set of primes below 30, and a square-free M < 60 coprime to it."""
    ramified = draw(st.sets(st.sampled_from(primes_up_to(29)), min_size=1, max_size=5)
                    .filter(lambda ps: len(ps) % 2))
    P = prod(ramified)
    M = draw(st.sampled_from(
        [m for m in range(1, 60) if gcd(m, P) == 1 and squarefree_kernel(m) == m]))
    return LevelConfig.from_primes(sorted(ramified), M)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(small_levels())
def test_closed_form_matches_fraction_reference_on_drawn_levels(cfg):
    C = closed_form_H(cfg, 300)
    for D in range(1, 301):
        assert C[D] == fraction_closed_form_H(D, cfg), (D, cfg.describe())


def test_corollary_examples_and_consistency():
    cfg11 = LevelConfig.from_primes([11])
    assert corollary_H(11, cfg11) == Fraction(1, 2)
    assert corollary_H(4, cfg11) == Fraction(1, 2)

    with pytest.raises(ValueError):
        corollary_H(12, cfg11)  # not fundamental
    with pytest.raises(ValueError):
        corollary_H(7, cfg11)  # kronecker(-7, 11) = 1: inadmissible

    # corollary agrees with the full formula wherever it applies
    for cfg in (cfg11, LevelConfig.from_primes([2, 3, 11]), LevelConfig.from_primes([2, 3, 7], M=5)):
        C = closed_form_H(cfg, 499)
        for D in range(3, 500):
            try:
                cor = corollary_H(D, cfg)
            except ValueError:
                continue
            assert cor == C[D], (D, cfg.describe())


@pytest.mark.parametrize("ramified, M", [((11,), 1), ((2, 3, 11), 1), ((2, 3, 7), 5), ((3, 5, 7), 2)],
                         ids=["N11", "N66", "N210-M5", "N210-M2"])
def test_local_factors_match_kronecker_products(ramified, M):
    # the period tables against one kronecker call per discriminant and level
    # prime; p = 2 is ramified at N = 66 and N = 210 (M = 5) and divides M at
    # N = 210 (M = 2)
    cfg = LevelConfig.from_primes(ramified, M)
    table = local_factors(cfg, 3000)
    assert len(table) == 3001
    for n, n0 in enumerate(fundamental_parts(3000)):
        if not n0:
            assert table[n] == 0, n
            continue
        f = isqrt(n // n0)
        expected = prod(1 - (1 if f % p == 0 else kronecker(-n0, p)) for p in cfg.P.primes)
        expected *= prod(1 + (1 if f % q == 0 else kronecker(-n0, q)) for q in cfg.M.primes)
        assert table[n] == expected, n


def test_closed_form_reads_symbols_from_period_tables(monkeypatch):
    # one kronecker call per residue of each level prime's period (8 at p = 2),
    # none per discriminant
    calls = []
    real = qform.kronecker
    monkeypatch.setattr(qform, "kronecker", lambda d, n: calls.append(n) or real(d, n))
    closed_form_H(LevelConfig.from_primes((2, 3, 7), 5), 5000)
    assert sorted(calls) == sorted([2] * 8 + [3] * 3 + [7] * 7 + [5] * 5)


def test_s_ramified():
    cfg66 = LevelConfig.from_primes([2, 3, 11])
    assert s_ramified(11, cfg66) == 1  # kronecker(-11, 11) = 0 only
    assert s_ramified(66 * 4, cfg66) >= 2


@pytest.mark.parametrize("ramified, M", [
    ((11,), 1), ((2, 3, 11), 1), ((2, 3, 7), 5), ((2, 3, 5, 7, 11), 1),
])
def test_s_ramified_counts_vanishing_kronecker_symbols(ramified, M):
    cfg = LevelConfig.from_primes(ramified, M)
    for D in range(1, 3001):
        expected = sum(1 for p in cfg.P.primes + cfg.M.primes if kronecker(-D, p) == 0)
        assert s_ramified(D, cfg) == expected, D


def test_kronecker_condition():
    cfg11 = LevelConfig.from_primes([11])
    assert kronecker_condition(3, cfg11)  # (-3/11) = -1
    assert kronecker_condition(11, cfg11)  # symbol 0
    assert not kronecker_condition(7, cfg11)  # (-7/11) = +1
