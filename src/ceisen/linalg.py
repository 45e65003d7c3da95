"""Exact linear algebra over Q and Z, sized for rank-4 lattices and the
Brandt eigensystem.

Matrices are lists of rows.  Rational routines take Fraction or int entries
and return Fractions; they run on integers inside: `mat_mul` clears each
factor to integer rows over one denominator, and `mat_det` and `rref` clear
the matrix and run the one Gaussian elimination, the fraction-free `echelon`.
`hnf` and `int_kernel` work on integer matrices.  `charpoly` takes and
returns plain ints; no src path calls it, and it is kept as the independent
reference the tests check the Brandt eigensystem against.  No floating
point anywhere.

`hnf` inserts rows one at a time into a triangular basis, merging two rows
at a pivot column by one extended gcd (Cohen, GTM 138, §2.4.2); every
canonical lattice form in `order`, `brandt` and `theta32` goes through it.
The Hermite normal form of a row lattice is unique, so the lattices, the
class-set snapshots and every output are fixed by the lattices alone, not by
the algorithm that computes their HNF.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def mat_mul(A: list[list[Fraction]], B: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact product A·B of rational (Fraction or int) matrices, as Fractions.

    Each factor is cleared to integer rows over one common denominator, so the
    inner products run on Python ints and each entry is built once as
    Fraction(sum, d_A·d_B).
    """
    assert len(A[0]) == len(B)
    dA, Ai = clear_denominators(A)
    dB, Bi = clear_denominators(B)
    d = dA * dB
    cols = list(zip(*Bi))
    return [[Fraction(sum(map(mul, row, col)), d) for col in cols] for row in Ai]


def clear_denominators(A) -> tuple[int, list[list[int]]]:
    """(d, rows) with d the least common denominator of A and rows = d·A in ints."""
    d = lcm(*(x.denominator for row in A for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def mat_det(A: list[list[Fraction]]) -> Fraction:
    """Determinant of a square rational matrix: sign·U[-1][-1]/dⁿ from the
    echelon rows U of the integer matrix d·A, and 0 at short rank."""
    d, M = clear_denominators(A)
    U, pivots, sign = echelon(M)
    if len(pivots) < len(A):
        return Fraction(0)
    return Fraction(sign * U[-1][-1], d ** len(A)) if A else Fraction(1)


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

    A must have integer entries (ints, or Fractions with denominator 1);
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
        if rem:
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible by k")
        coeffs[n - k] = c
        for i in range(n):
            AM[i][i] += c
        M = AM
    return coeffs


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a rational matrix: (nonzero rows, pivot columns).

    From the echelon form of the cleared rows, an upward pass r_i <- a·r_i - b·r_k
    with the row's content divided out clears each pivot column, then each row
    is divided by its pivot.  The RREF is unique, so this equals elimination over Q.
    """
    U, pivots, _ = echelon(clear_denominators(rows)[1])
    return _reduce_upward(U, pivots), pivots


def _reduce_upward(U: list[list[int]], pivots: list[int]) -> list[list[Fraction]]:
    """The RREF rows over Q from integer echelon rows U (modified in place)."""
    for k, c in enumerate(pivots):
        a, top = U[k][c], U[k]
        for i in range(k):
            b = U[i][c]
            if b:
                row = [a * x - b * y for x, y in zip(U[i], top)]
                g = gcd(*row)
                U[i] = [x // g for x in row] if g > 1 else row
    return [[Fraction(x, U[i][c]) for x in U[i]] for i, c in enumerate(pivots)]


def nullspace(A: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of {x : A·x = 0}, as primitive integer vectors (canonical RREF order).

    A matrix of full column rank returns [] after the forward elimination alone.
    """
    n = len(A[0]) if A else 0
    U, pivots, _ = echelon(clear_denominators(A)[1])
    if len(pivots) == n:
        return []
    R = _reduce_upward(U, pivots)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -R[i][fc]
        basis.append(primitive_vector(v))
    return basis


def primitive_vector(v: list[Fraction]) -> list[Fraction]:
    """Scale a nonzero rational vector to primitive integer form, first nonzero > 0."""
    _, (ints,) = clear_denominators([v])
    g = gcd(*ints)
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return [Fraction(x) for x in ints]


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
    pivot column.  A row v is cleared column by column against that column's
    pivot row P, with p = P[c] > 0 and x = v[c]: if p divides x,
    v <- v - (x/p)·P; otherwise the unimodular step
    P <- s·P + t·v, v <- (p/g)·v - (x/g)·P with s·p + t·x = g = gcd(p, x)
    leaves g in P and 0 in v.  A row that reaches a column with no pivot yet
    takes that slot, sign made positive.  One last pass reduces the entries
    above each pivot.
    """
    n = len(rows[0]) if rows else 0
    slot: list[list[int] | None] = [None] * n
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


def int_kernel(A: list[list[int]]) -> list[list[int]]:
    """Basis of the saturated lattice {c in Z^n : A·c = 0} for integer A (m×n)."""
    m = len(A)
    n = len(A[0])
    stacked = [[A[i][j] for i in range(m)] + [int(j == t) for t in range(n)]
               for j in range(n)]
    H = hnf(stacked)
    return [row[m:] for row in H if not any(row[:m])]
