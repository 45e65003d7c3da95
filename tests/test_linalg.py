"""The exact linear algebra behind the Brandt eigensystem, against independent oracles."""

import random
from fractions import Fraction
from math import gcd

import pytest

from ceisen.linalg import (
    charpoly,
    clear_denominators,
    echelon,
    hnf,
    mat_mul,
    nullspace,
    rref,
    _xgcd,
)

SEED = 20151


def mat_det(A: list[list]) -> Fraction:
    """Determinant of a square rational matrix: sign·U[-1][-1]/dⁿ from the
    echelon rows U of the integer matrix d·A, and 0 at short rank.  The
    tests' determinant reference for lattices and Gram matrices."""
    d, M = clear_denominators(A)
    U, pivots, sign = echelon(M)
    if len(pivots) < len(A):
        return Fraction(0)
    return Fraction(sign * U[-1][-1], d ** len(A)) if A else Fraction(1)


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


def horner(coeffs: list[int], x: int) -> int:
    """Σ coeffs[i]·x^i, low degree first."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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
            assert horner(cp, x) == mat_det(shifted), (A, x)


def test_charpoly_accepts_integral_fractions():
    A = [[Fraction(2), Fraction(6, 3)], [Fraction(0), 5]]
    assert charpoly(A) == charpoly([[2, 2], [0, 5]]) == [10, -7, 1]


@pytest.mark.parametrize("A", [[[Fraction(1, 2)]], [[1, 2], [Fraction(3, 4), 0]]])
def test_charpoly_rejects_non_integral(A):
    with pytest.raises(ValueError):
        charpoly(A)


# ---------------------------------------------------------------------------
# mat_mul


def test_mat_mul_matches_naive_product():
    rng = random.Random(SEED + 2)
    for _ in range(40):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        A = random_int_matrix(rng, n, k, -30, 30)
        B = random_int_matrix(rng, k, m, -30, 30)
        naive = [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
        got = mat_mul(A, B)
        assert got == naive
        assert all(type(x) is int for row in got for x in row)
        with pytest.raises(ValueError):
            mat_mul(A, random_int_matrix(rng, k + 1, m))


def test_mat_mul_all_int():
    assert mat_mul([[1, 2], [3, 4]], [[5], [6]]) == [[17], [39]]


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
    """Integer matrices of every rank: low-rank rational products, cleared."""
    rng = random.Random(SEED + 3)
    cases = [[], [[0, 0, 0]], [[3, 0], [0, 1]], [[0, -4, 6], [0, 2, -3]]]
    for _ in range(40):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        cases.append(clear_denominators(low_rank_matrix(rng, m, n, rng.randint(0, min(m, n))))[1])
    return cases


def is_primitive(v) -> bool:
    """Integer entries with gcd 1 and a positive first nonzero entry."""
    return (all(type(x) is int for x in v) and gcd(*v) == 1
            and next(x for x in v if x) > 0)


def test_rref_matches_gauss_jordan_over_q():
    # each row is the RREF row over Q scaled to a primitive integer row, with
    # its pivot (its first nonzero entry) positive
    for A in rref_cases():
        R, pivots = rref(A)
        ref, ref_pivots = naive_rref(A)
        assert pivots == ref_pivots, A
        for row, c, r in zip(R, pivots, ref):
            assert is_primitive(row) and row[c] > 0, A
            assert [Fraction(x, row[c]) for x in row] == r, A


def test_nullspace_kernel_and_rank():
    for A in rref_cases():
        n = len(A[0]) if A else 0
        basis = nullspace(A)
        rank = len(rref(A)[1])
        assert rank + len(basis) == n, A
        for x in basis:
            assert is_primitive(x), A
            assert all(sum(a * v for a, v in zip(row, x)) == 0 for row in A), A
        # the basis is independent: its own rank equals its size
        assert len(rref(basis)[1]) == len(basis), A


# ---------------------------------------------------------------------------
# hnf


def column_euclid_hnf(rows):
    """Row HNF by repeated column sweeps: the smallest nonzero entry of the
    column at or below row r moves to row r and divides the rows below it,
    until the column clears.  The earlier `hnf`, kept as the reference."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    n = len(work[0])
    r = 0
    for c in range(n):
        while True:
            nz = [k for k in range(r, len(work)) if work[k][c]]
            if not nz:
                break
            k0 = min(nz, key=lambda k: (abs(work[k][c]), k))
            work[r], work[k0] = work[k0], work[r]
            done = True
            for k in range(r + 1, len(work)):
                if work[k][c]:
                    q = work[k][c] // work[r][c]
                    work[k] = [x - q * y for x, y in zip(work[k], work[r])]
                    done = done and not work[k][c]
            if done:
                break
        if r < len(work) and work[r][c]:
            if work[r][c] < 0:
                work[r] = [-x for x in work[r]]
            for k in range(r):
                q = work[k][c] // work[r][c]
                work[k] = [x - q * y for x, y in zip(work[k], work[r])]
            r += 1
            if r == len(work):
                break
    return work[:r]


def full_row_hnf(rows):
    """The insertion HNF with every row update rebuilt over all columns, as
    `hnf` was before its divisible step updated columns c.. in place; kept
    as the reference for that step."""
    n = len(rows[0]) if rows else 0
    slot = [None] * n
    for v in rows:
        for c in range(n):
            x = v[c]
            if not x:
                continue
            P = slot[c]
            if P is None:
                slot[c] = list(v) if x > 0 else [-y for y in v]
                break
            p = P[c]
            q, r = divmod(x, p)
            if not r:
                v = [y - q * z for y, z in zip(v, P)]
                continue
            g, s, t = _xgcd(p, x)
            a, b = p // g, x // g
            slot[c] = [s * z + t * y for y, z in zip(v, P)]
            v = [a * y - b * z for y, z in zip(v, P)]
    cols = [c for c in range(n) if slot[c] is not None]
    H = [slot[c] for c in cols]
    for k, c in enumerate(cols):
        P = H[k]
        p = P[c]
        for i in range(k):
            q = H[i][c] // p
            if q:
                H[i] = [y - q * z for y, z in zip(H[i], P)]
    return H


def hnf_cases():
    """Zero rows, negative and large entries, rank-deficient and wide shapes."""
    rng = random.Random(SEED + 5)
    cases = [[], [[0, 0, 0]], [[0, -3], [0, 0]], [[-6, 4], [4, -6]], [[2, 0], [0, 3], [1, 1]]]
    for _ in range(300):
        m, n = rng.randint(1, 9), rng.randint(1, 7)
        E = rng.choice([2, 9, 10**6])
        A = [[rng.randint(-E, E) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:  # rank-deficient: rows are combinations of a few
            base = A[: rng.randint(1, m)]
            A = [[sum(q * row[j] for q, row in zip(mix, base)) for j in range(n)]
                 for mix in ([rng.randint(-3, 3) for _ in base] for _ in range(m))]
        if rng.random() < 0.3:
            A.insert(rng.randint(0, m), [0] * n)
        cases.append(A)
    for _ in range(40):  # the [Aᵀ | I] of a kernel by HNF
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        A = random_int_matrix(rng, m, n, -20, 20)
        cases.append([[A[i][j] for i in range(m)] + [int(j == t) for t in range(n)] for j in range(n)])
    return cases


def is_hnf(H):
    cols = [next(c for c, x in enumerate(row) if x) for row in H]
    return (cols == sorted(set(cols))
            and all(H[k][c] > 0 for k, c in enumerate(cols))
            and all(0 <= H[i][c] < H[k][c] for k, c in enumerate(cols) for i in range(k)))


def test_hnf_matches_column_euclid():
    for A in hnf_cases():
        before = [list(row) for row in A]
        H = hnf(A)
        assert H == column_euclid_hnf(A) == full_row_hnf(A), A
        assert is_hnf(H), A
        assert all(type(x) is int for row in H for x in row), A
        assert A == before  # the in-place step works on copies of the rows


def unimodular(rng: random.Random, m: int) -> list[list[int]]:
    """A random m×m integer matrix of determinant ±1: row operations and swaps on I."""
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(3 * m):
        i, j = rng.sample(range(m), 2) if m > 1 else (0, 0)
        if i != j:
            q = rng.randint(-5, 5)
            U[i] = [a + q * b for a, b in zip(U[i], U[j])]
            if rng.random() < 0.3:
                U[i], U[j] = U[j], U[i]
    if rng.random() < 0.5:
        U[0] = [-x for x in U[0]]
    return U


def test_hnf_is_invariant_under_unimodular_row_changes():
    rng = random.Random(SEED + 6)
    for A in hnf_cases():
        if not A:
            continue
        U = unimodular(rng, len(A))
        assert abs(mat_det(U)) == 1
        UA = [[sum(u * row[j] for u, row in zip(Ui, A)) for j in range(len(A[0]))] for Ui in U]
        assert hnf(UA) == hnf(A), A

