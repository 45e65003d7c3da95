"""Exact linear algebra over Z, sized for rank-4 lattices and the Brandt
eigensystem.

Matrices are lists of integer rows.  `mat_mul`, `rref`, `nullspace` and
`primitive_vector` take and return ints, and every elimination is the one
fraction-free Gaussian elimination `echelon`: `rref` scales each reduced row
to a primitive integer row with a positive pivot, which is unique, so it
equals Gauss–Jordan over Q up to row scaling.  `hnf` works on integer
matrices, and `clear_denominators` turns rational rows into one denominator
and integer rows.  `charpoly` takes and returns plain ints; it has no src
caller and is kept as the independent reference the tests check the Brandt
eigensystem against.  No floating point anywhere.

`hnf` inserts rows one at a time into a triangular basis, merging two rows
at a pivot column by one extended gcd (Cohen, GTM 138, §2.4.2); every
canonical lattice form in `order`, `brandt` and `theta32` goes through it.
The Hermite normal form of a row lattice is unique, so the lattices, the
class-set snapshots and every output are fixed by the lattices alone, not by
the algorithm that computes their HNF.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .arith import certify


def mat_mul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    """Exact product A·B of integer matrices; ValueError on mismatched shapes."""
    if A and len(A[0]) != len(B):
        raise ValueError(f"cannot multiply a {len(A)}x{len(A[0])} by a {len(B)}-row matrix")
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def clear_denominators(A) -> tuple[int, list[list[int]]]:
    """(d, rows) with d the least common denominator of A and rows = d·A in ints."""
    d = lcm(*(x.denominator for row in A for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in A]


def echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free (Bareiss) row echelon form of an integer matrix: (U,
    pivots, sign), with U the nonzero rows, pivots their pivot columns (a column
    with no nonzero entry left is skipped) and sign the parity of the row swaps.

    Below the pivot p = U[k][c_k], r_i <- (p·r_i - b·r_k)/p_prev, p_prev the
    previous pivot or 1.  Every entry is a minor of the row-permuted input, so
    the division is exact (Bareiss, Math. Comp. 22, 1968).
    """
    M = [list(row) for row in rows]
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(len(M[0]) if M else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            sign = -sign
        p, top = M[r][c], M[r]
        for i in range(r + 1, len(M)):
            b = M[i][c]
            M[i] = [(p * x - b * y) // prev for x, y in zip(M[i], top)]
        prev = p
        pivots.append(c)
    return M[: len(pivots)], pivots, sign


def charpoly(A: list[list[int]]) -> list[int]:
    """Coefficients [c_0, ..., c_{n-1}, 1] of det(xI - A), low degree first.

    A must have integer entries (integral values are converted to int);
    anything else raises ValueError.  Faddeev-LeVerrier over Z with one
    product per step: M_1 = I, c_{n-k} = -tr(A·M_k)/k, and
    M_{k+1} = A·M_k + c_{n-k}·I.  The division is exact because the c_i are
    integers; its remainder is checked.
    """
    n = len(A)
    rows = []
    for row in A:
        ints = [int(x) for x in row]
        if ints != list(row):
            raise ValueError("charpoly expects an integer matrix")
        rows.append(ints)
    coeffs = [0] * n + [1]
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*M))
        AM = [[sum(map(mul, row, col)) for col in cols] for row in rows]
        c, rem = divmod(-sum(AM[i][i] for i in range(n)), k)
        certify(not rem, "Faddeev-LeVerrier trace not divisible by k")
        coeffs[n - k] = c
        for i in range(n):
            AM[i][i] += c
        M = AM
    return coeffs


def rref(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of an integer matrix, each row scaled to a
    primitive integer row with a positive pivot: (nonzero rows, pivot columns).

    From the echelon form, an upward pass r_i <- a·r_i - b·r_k with the row's
    content divided out clears each pivot column.  The scaled RREF is unique,
    so row / pivot is the RREF over Q.
    """
    U, pivots, _ = echelon(rows)
    return _reduce_upward(U, pivots), pivots


def _reduce_upward(U: list[list[int]], pivots: list[int]) -> list[list[int]]:
    """The scaled RREF rows from integer echelon rows U (modified in place)."""
    for k, c in enumerate(pivots):
        a, top = U[k][c], U[k]
        for i in range(k):
            b = U[i][c]
            if b:
                row = [a * x - b * y for x, y in zip(U[i], top)]
                g = gcd(*row)
                U[i] = [x // g for x in row] if g > 1 else row
    # a row's first nonzero entry is its pivot
    return [primitive_vector(row) for row in U]


def nullspace(A: list[list[int]]) -> list[list[int]]:
    """Basis of {x : A·x = 0} for an integer matrix, as primitive integer
    vectors with first nonzero entry positive (canonical RREF order).

    A matrix of full column rank returns [] after the forward elimination alone.
    """
    n = len(A[0]) if A else 0
    U, pivots, _ = echelon(A)
    if len(pivots) == n:
        return []
    R = _reduce_upward(U, pivots)
    # free column fc set to L: pivot column pc of row i gets -R[i][fc]·L/R[i][pc]
    L = lcm(*(row[c] for row, c in zip(R, pivots)))
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [0] * n
        v[fc] = L
        for row, pc in zip(R, pivots):
            v[pc] = -row[fc] * (L // row[pc])
        basis.append(primitive_vector(v))
    return basis


def primitive_vector(v: list[int]) -> list[int]:
    """Scale a nonzero integer vector to primitive form, first nonzero > 0."""
    g = gcd(*v)
    if next((x for x in v if x), 0) < 0:
        g = -g
    return [x // g for x in v] if g else list(v)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s·a + t·b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Canonical row Hermite normal form of an integer matrix.

    Pivots positive, entries above each pivot reduced into [0, pivot).
    Zero rows are dropped.  The result is the unique HNF basis of the row
    lattice, so equal lattices give equal output.

    Rows are inserted one at a time into a triangular basis with one slot per
    pivot column.  A row v (a copy: the input is not modified) is cleared
    column by column against that column's pivot row P, with p = P[c] > 0 and
    x = v[c]: if p divides x, v <- v - (x/p)·P in place, on columns c.. only,
    as both rows are 0 before c; otherwise the unimodular step
    P <- s·P + t·v, v <- (p/g)·v - (x/g)·P with s·p + t·x = g = gcd(p, x)
    leaves g in P and 0 in v.  A row that reaches a column with no pivot yet
    takes that slot, sign made positive.  One last pass reduces the entries
    above each pivot.
    """
    n = len(rows[0]) if rows else 0
    slot: list[list[int] | None] = [None] * n
    for v in rows:
        v = list(v)
        for c in range(n):
            x = v[c]
            if not x:
                continue
            P = slot[c]
            if P is None:
                slot[c] = v if x > 0 else [-y for y in v]
                break
            p = P[c]
            q, r = divmod(x, p)
            if not r:
                for k in range(c, n):
                    v[k] -= q * P[k]
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

