"""Exact linear algebra over Q and Z, sized for rank-4 lattices.

Everything here works on lists of lists of Fraction (or int for the
HNF/kernel routines).  No floating point anywhere: comparisons that decide
anything are exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(A: list[list[Fraction]], B: list[list[Fraction]]) -> list[list[Fraction]]:
    n, k, m = len(A), len(B), len(B[0])
    assert len(A[0]) == k
    out = []
    for i in range(n):
        row = []
        Ai = A[i]
        for j in range(m):
            row.append(sum((Ai[t] * B[t][j] for t in range(k)), Fraction(0)))
        out.append(row)
    return out


def mat_vec(A: list[list[Fraction]], v: list[Fraction]) -> list[Fraction]:
    return [sum((A[i][t] * v[t] for t in range(len(v))), Fraction(0)) for i in range(len(A))]


def transpose(A):
    return [list(col) for col in zip(*A)]


def mat_det(A: list[list[Fraction]]) -> Fraction:
    """Determinant by exact Gaussian elimination."""
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        inv = 1 / M[c][c]
        for r in range(c + 1, n):
            if M[r][c]:
                f = M[r][c] * inv
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return det


def mat_inv(A: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse by Gauss-Jordan; raises ZeroDivisionError on singular input."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        M[c], M[piv] = M[piv], M[c]
        inv = 1 / M[c][c]
        M[c] = [x * inv for x in M[c]]
        for r in range(n):
            if r != c and M[r][c]:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return [row[n:] for row in M]


def charpoly(A: list[list[Fraction]]) -> list[Fraction]:
    """Coefficients [c_0, ..., c_{n-1}, 1] of det(xI - A), low degree first.

    Faddeev-LeVerrier recurrence: exact over Q (divisions by integers only).
    """
    n = len(A)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    M = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = mat_mul(A, M)
        prev = coeffs[n - k + 1]
        for i in range(n):
            M[i][i] += prev
        AM = mat_mul(A, M)
        tr = sum((AM[i][i] for i in range(n)), Fraction(0))
        coeffs[n - k] = -tr / k
    return coeffs


def poly_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def integer_roots(coeffs: list[Fraction]) -> list[int]:
    """Integer roots of a monic polynomial with integer coefficients.

    Roots of the monic charpoly of a matrix with algebraic-integer spectrum
    are integers iff rational, so divisor search over the constant term is
    complete.  Returns roots sorted ascending, each listed once.
    """
    ints = [c for c in coeffs]
    assert all(c.denominator == 1 for c in ints), "charpoly expected integral"
    cs = [int(c) for c in ints]
    # strip x^k factor
    k = 0
    while cs[k] == 0 and k < len(cs) - 1:
        k += 1
    roots = [0] if k > 0 else []
    c0 = abs(cs[k])
    cand = set()
    d = 1
    while d * d <= c0:
        if c0 % d == 0:
            cand.update((d, -d, c0 // d, -(c0 // d)))
        d += 1
    for r in sorted(cand):
        if poly_eval(ints, Fraction(r)) == 0:
            roots.append(r)
    return sorted(set(roots))


def nullspace(A: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of {x : A·x = 0}, as primitive integer vectors (canonical RREF order)."""
    m = len(A)
    n = len(A[0]) if m else 0
    M = [[Fraction(x) for x in row] for row in A]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(m):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -M[i][fc]
        basis.append(primitive_vector(v))
    return basis


def primitive_vector(v: list[Fraction]) -> list[Fraction]:
    """Scale a nonzero rational vector to primitive integer form, first nonzero > 0."""
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return [Fraction(x) for x in ints]


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Canonical row Hermite normal form of an integer matrix.

    Pivots positive, entries above each pivot reduced into [0, pivot).
    Zero rows are dropped.  The result is the unique HNF basis of the row
    lattice, so equal lattices give equal output.
    """
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
            if k0 != r:
                work[r], work[k0] = work[k0], work[r]
            done = True
            for k in range(r + 1, len(work)):
                if work[k][c]:
                    q = work[k][c] // work[r][c]
                    work[k] = [x - q * y for x, y in zip(work[k], work[r])]
                    if work[k][c]:
                        done = False
            if done:
                break
        if r < len(work) and work[r][c]:
            if work[r][c] < 0:
                work[r] = [-x for x in work[r]]
            for k in range(r):
                q = work[k][c] // work[r][c]
                if q:
                    work[k] = [x - q * y for x, y in zip(work[k], work[r])]
            r += 1
            if r == len(work):
                break
    return [row for row in work[:r]]


def int_kernel(A: list[list[int]]) -> list[list[int]]:
    """Basis of the saturated lattice {c in Z^n : A·c = 0} for integer A (m×n)."""
    m = len(A)
    n = len(A[0])
    stacked = [[A[i][j] for i in range(m)] + [int(j == t) for t in range(n)]
               for j in range(n)]
    H = hnf(stacked)
    return [row[m:] for row in H if not any(row[:m])]


def ldl(G: list[list[Fraction]]) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Decompose symmetric positive-definite G as R^T·diag(D)·R, R unit upper triangular.

    Then the form is q(c) = sum_i D_i (c_i + sum_{j>i} R_ij c_j)^2.
    Raises ValueError if G is not positive definite.
    """
    n = len(G)
    D = [Fraction(0)] * n
    R = identity(n)
    W = [[Fraction(x) for x in row] for row in G]
    for i in range(n):
        D[i] = W[i][i]
        if D[i] <= 0:
            raise ValueError("form is not positive definite")
        for j in range(i + 1, n):
            R[i][j] = W[i][j] / D[i]
        for k in range(i + 1, n):
            for l in range(k, n):
                W[k][l] -= D[i] * R[i][k] * R[i][l]
                W[l][k] = W[k][l]
    return D, R
