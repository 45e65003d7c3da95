"""The exact linear algebra behind the Brandt eigensystem, against independent oracles."""

import random
import time
from fractions import Fraction

import pytest

from ceisen.linalg import (
    charpoly,
    clear_denominators,
    echelon,
    integer_roots,
    mat_det,
    mat_mul,
    nullspace,
    poly_eval,
    rref,
)

SEED = 20151


def random_int_matrix(rng: random.Random, m: int, n: int, lo: int = -4, hi: int = 4) -> list[list[int]]:
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def random_rational_matrix(rng: random.Random, m: int, n: int) -> list[list]:
    """Entries mix ints with Fractions over denominators 1..6."""
    return [
        [rng.randint(-5, 5) if rng.random() < 0.3 else Fraction(rng.randint(-9, 9), rng.randint(1, 6))
         for _ in range(n)]
        for _ in range(m)
    ]


def low_rank_matrix(rng: random.Random, m: int, n: int, rank: int) -> list[list[Fraction]]:
    """An m×n rational matrix of rank at most `rank` (a product m×rank · rank×n)."""
    if rank == 0:
        return [[Fraction(0)] * n for _ in range(m)]
    L = random_rational_matrix(rng, m, rank)
    R = random_rational_matrix(rng, rank, n)
    return [[sum((Fraction(L[i][t]) * R[t][j] for t in range(rank)), Fraction(0)) for j in range(n)]
            for i in range(m)]


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_from_factors(*factors: list[int]) -> list[int]:
    out = [1]
    for f in factors:
        out = poly_mul(out, f)
    return out


def naive_rref(rows):
    """Textbook Gauss-Jordan over Q, as the reference for `rref`."""
    M = [[Fraction(x) for x in row] for row in rows]
    m, n = len(M), (len(M[0]) if M else 0)
    pivots, r = [], 0
    for c in range(n):
        piv = next((i for i in range(r, m) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        M[r] = [x / M[r][c] for x in M[r]]
        for i in range(m):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return M[:r], pivots


def naive_echelon(rows):
    """Textbook Gaussian elimination over Q with the same pivot rule as
    `echelon` (first nonzero entry at or below, columns without one skipped):
    (rows, pivots, sign), as the reference for `echelon` and `mat_det`."""
    M = [[Fraction(x) for x in row] for row in rows]
    m, n = len(M), (len(M[0]) if M else 0)
    pivots, sign = [], 1
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, m) if M[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            sign = -sign
        for i in range(r + 1, m):
            f = M[i][c] / M[r][c]
            M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
    return M[: len(pivots)], pivots, sign


# ---------------------------------------------------------------------------
# charpoly


def charpoly_cases():
    rng = random.Random(SEED)
    cases = []
    for n in range(0, 9):
        cases.append(random_int_matrix(rng, n, n))
        cases.append(random_int_matrix(rng, n, n, -30, 30))
        cases.append([[0] * n for _ in range(n)])
        cases.append([[rng.randint(-6, 6) if i == j else 0 for j in range(n)] for i in range(n)])
        if n >= 2:  # singular: last row repeats the first
            A = random_int_matrix(rng, n, n)
            A[-1] = list(A[0])
            cases.append(A)
    return cases


def test_charpoly_matches_determinant():
    for A in charpoly_cases():
        n = len(A)
        cp = charpoly(A)
        assert len(cp) == n + 1 and cp[n] == 1, A
        assert all(type(c) is int for c in cp), A
        # det(xI - A) at n + 1 points pins a monic polynomial of degree n
        for x in range(-(n // 2), n - n // 2 + 1):
            shifted = [[(x if i == j else 0) - A[i][j] for j in range(n)] for i in range(n)]
            assert poly_eval(cp, x) == mat_det(shifted), (A, x)


def test_charpoly_accepts_integral_fractions():
    A = [[Fraction(2), Fraction(6, 3)], [Fraction(0), 5]]
    assert charpoly(A) == charpoly([[2, 2], [0, 5]]) == [10, -7, 1]


@pytest.mark.parametrize("A", [[[Fraction(1, 2)]], [[1, 2], [Fraction(3, 4), 0]]])
def test_charpoly_rejects_non_integral(A):
    with pytest.raises(ValueError):
        charpoly(A)


# ---------------------------------------------------------------------------
# integer_roots


def brute_roots(cs: list[int], bound: int) -> list[int]:
    return [r for r in range(-bound, bound + 1) if poly_eval(cs, r) == 0]


def test_integer_roots_against_brute_force():
    rng = random.Random(SEED + 1)
    irreducible = [[1, 0, 1], [-2, 0, 1], [3, 1, 1], [-5, 0, 0, 1]]  # x²+1, x²-2, x²+x+3, x³-5
    for _ in range(60):
        factors = [[-rng.randint(-40, 40), 1] for _ in range(rng.randint(0, 5))]
        factors += [[0, 1]] * rng.choice([0, 0, 1, 2, 3])  # zero root, often repeated
        factors += rng.sample(irreducible, rng.randint(0, 2))
        cs = poly_from_factors(*factors)
        bound = rng.randint(0, 50)
        assert integer_roots(cs, bound) == brute_roots(cs, bound)


def test_integer_roots_cofactor_above_isqrt():
    # 7 > isqrt(7): found only as the cofactor of the divisor 1
    cs = poly_from_factors([-7, 1], [-1, 1])
    assert integer_roots(cs, 7) == [1, 7]
    assert integer_roots(cs, 6) == [1]


def test_integer_roots_zero_polynomials():
    assert integer_roots([1], 5) == []
    assert integer_roots([0, 0, 0, 1], 5) == [0]
    assert integer_roots([0, 0, 1], 0) == [0]


def test_integer_roots_cost_follows_the_bound():
    # the constant term carries a ~64-bit factor with no integer root
    q = (1 << 64) + 13
    cs = poly_from_factors([-3, 1], [5, 1], [0, 1], [0, 1], [-q, 0, 1])
    t0 = time.perf_counter()
    roots = integer_roots(cs, 40)
    assert time.perf_counter() - t0 < 1.0
    assert roots == [-5, 0, 3]


def test_integer_roots_rejects_non_integral():
    with pytest.raises(ValueError):
        integer_roots([Fraction(1, 2), 1], 3)


# ---------------------------------------------------------------------------
# mat_mul


def test_mat_mul_matches_naive_product():
    rng = random.Random(SEED + 2)
    for _ in range(40):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        A = random_rational_matrix(rng, n, k)
        B = random_rational_matrix(rng, k, m)
        naive = [[sum((Fraction(A[i][t]) * B[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
                 for i in range(n)]
        got = mat_mul(A, B)
        assert got == naive
        assert all(type(x) is Fraction for row in got for x in row)


def test_mat_mul_all_int():
    assert mat_mul([[1, 2], [3, 4]], [[5], [6]]) == [[Fraction(17)], [Fraction(39)]]


# ---------------------------------------------------------------------------
# echelon / mat_det


def echelon_cases():
    """Square, singular, rational and rectangular rank-deficient matrices."""
    rng = random.Random(SEED + 4)
    cases = [[], [[0, 0]], [[0, 1], [1, 0]], [[0, 0, 2], [0, 3, 1]]]
    for _ in range(60):
        n = rng.randint(1, 6)
        cases.append(random_int_matrix(rng, n, n))
        A = random_int_matrix(rng, n, n)
        A[-1] = [2 * x for x in A[0]]  # singular
        cases.append(A)
        cases.append(random_rational_matrix(rng, n, n))
        m, k = rng.randint(1, 7), rng.randint(1, 7)
        cases.append(low_rank_matrix(rng, m, k, rng.randint(0, min(m, k) - 1)))
    return cases


def test_echelon_rows_are_scaled_gaussian_rows():
    # Bareiss row k is Gaussian row k times the product of the earlier pivots
    for A in echelon_cases():
        _, M = clear_denominators(A)
        U, pivots, sign = echelon(M)
        E, ref_pivots, ref_sign = naive_echelon(M)
        assert (pivots, sign) == (ref_pivots, ref_sign), A
        assert all(type(x) is int for row in U for x in row), A
        scale = Fraction(1)
        for u, e, c in zip(U, E, pivots):
            assert u == [scale * x for x in e], A
            scale *= e[c]


def test_mat_det_matches_gaussian_elimination():
    for A in echelon_cases():
        if A and len(A) != len(A[0]):
            continue
        E, pivots, sign = naive_echelon(A)
        det = Fraction(sign) if len(pivots) == len(A) else Fraction(0)
        for e, c in zip(E, pivots):
            det *= e[c]
        got = mat_det(A)
        assert got == det and type(got) is Fraction, A


# ---------------------------------------------------------------------------
# rref / nullspace


def rref_cases():
    rng = random.Random(SEED + 3)
    cases = [[], [[0, 0, 0]], [[Fraction(3), 0], [0, Fraction(1, 2)]]]
    for _ in range(40):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        cases.append(low_rank_matrix(rng, m, n, rng.randint(0, min(m, n))))
    return cases


def test_rref_matches_gauss_jordan_over_q():
    for A in rref_cases():
        assert rref(A) == naive_rref(A), A


def test_nullspace_kernel_and_rank():
    for A in rref_cases():
        n = len(A[0]) if A else 0
        basis = nullspace(A)
        rank = len(rref(A)[1])
        assert rank + len(basis) == n, A
        for x in basis:
            assert all(v.denominator == 1 for v in x), A
            assert all(sum((Fraction(a) * v for a, v in zip(row, x)), Fraction(0)) == 0 for row in A), A
        # the basis is independent: its own rank equals its size
        assert len(rref(basis)[1]) == len(basis), A
