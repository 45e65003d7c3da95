"""Exact lattice-point enumeration under a positive-definite quadratic form.

Fincke-Pohst recursion on integers only.  Forms are given by integer Gram
matrices, bounds and values are integers, and evaluation happens in the
coordinate lattice Z^n.

Every consumer reduces the form first.  Quaternion lattices arrive in HNF, a
skewed basis, and Fincke-Pohst visits nodes in proportion to that skew rather
than to the points it returns (Fincke-Pohst, Math. Comp. 44, 1985).
`reduce_gram` reduces every pair of basis vectors (Lagrange), updating
the rows of G' and T in place: G' = T·G·Tᵀ with T unimodular, both checked
exactly.  Unlike the greedy reduction of
Nguyen-Stehlé (ACM Trans. Algorithms 5, 2009), Minkowski in rank <= 4, it may
leave a sum ±b_0 ± b_1 ± b_2 (± b_3) much shorter than the b_i, and
Fincke-Pohst then pays for that skew.  The tallies and `exists_value`
enumerate G' by `points_up_to`, values only, and map nothing back, because
c ↦ c·T keeps the value and the gcd of the coordinates.  `minimal_vectors`
enumerates by `vectors_up_to`, which adds coordinates, and maps back only the
minimal vectors, so their signs and order are read in the coordinates of G.
Both read one search, `_lines`, a line at a time.
`_lines` enumerates the G it is given and certifies it positive definite
(`definite_echelon`), so each consumer runs one Bareiss elimination:
`reduce_gram` stops only at a diagonal entry <= 0, and as T is unimodular,
G' is definite exactly when G is.

Bareiss elimination (`linalg.echelon`) of G gives integer rows U whose
diagonal holds the leading minors d_1..d_n of G (d_0 = 1), and

    q(c) = Σ_i (Σ_{j≥i} U_ij·c_j)² / e_i,   e_i = d_i·d_{i+1}.

With g_i the content of row i, r_ij = U_ij/g_i and s_i = r_ii, row i gives
g_i·(s_i·c_i + t_i) with the integer centre t_i = Σ_{j>i} r_ij·c_j, and the
least integer K that makes every a_i = K·g_i²/e_i integral turns the search into

    K·q(c) = Σ_i a_i·(s_i·c_i + t_i)²  ≤  K·bound,

where every quantity is an integer.  Descending from i = n-1, the budget
B_n = K·bound shrinks to B_i = B_{i+1} - a_i·x_i² with x_i = s_i·c_i + t_i.
Coordinate i is admissible iff a_i·x_i² ≤ B_{i+1}, i.e. x_i² ≤ B_{i+1}/a_i,
and for an integer x_i that holds exactly when x_i² ≤ ⌊B_{i+1}/a_i⌋, so
|x_i| ≤ isqrt(B_{i+1} // a_i) decides membership with no rounding.  The value
of a leaf is the integer q(c) = (K·bound - B_0) // K, an exact division.
The search walks a half-space: of each pair ±c it visits only the c whose
last nonzero coordinate is positive.  The outer coordinates are set by the
module-level recursive generator `_budgets`, not a closure over its own
name, so an enumeration leaves no reference cycle behind.

Along the innermost line, with c_1..c_{n-1} fixed, the values are stepped by
second differences.  With x = s_0·c_0 + t_0 and β = K·bound - B_1 fixed on
the line, the numerator β + a_0·x² is K·q(c) for an integer vector c, so it
is a multiple of K at every integer c_0, and so are its first difference
a_0·s_0·(2x + s_0) and its second difference 2·a_0·s_0².  Δ²q = 2·a_0·s_0²/K
is one constant; each line divides twice, for q and Δq at its first point,
and from point to point only adds: q ← q + Δq, Δq ← Δq + Δ²q, all exact.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterator

from .arith import certify, factorize
from .linalg import echelon


def definite_echelon(G: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """(U, e): the echelon rows of an integer symmetric G and e_i = d_i·d_{i+1};
    ValueError unless diagonal pivots, all d_i > 0 and G = Σ_i u_i·u_iᵀ/e_i over
    the rows u_i certify G positive definite (Sylvester).  The diagonal alone
    does not: elimination swaps rows past a vanishing leading minor."""
    n = len(G)
    U, pivots, _ = echelon(G)
    d = [1] + [U[i][i] for i in range(len(U))]
    e = [x * y for x, y in zip(d, d[1:])]
    L = lcm(*e)
    if pivots != list(range(n)) or min(d) <= 0 or any(
            sum(U[i][k] * U[i][l] * (L // e[i]) for i in range(k + 1)) != L * G[k][l]
            for k in range(n) for l in range(k, n)):
        raise ValueError("form is not positive definite")
    return U, e


def _lines(G: list[list[int]], bound: int) -> Iterator[tuple[list[int], int, int, int, int, int]]:
    """(c, lo, hi, v, dv, dd) per innermost line: c_1.. set in the one list
    c, c_0 over range(lo, hi), the value v and its difference dv at lo, and dd
    the second difference.  c_{n-1} is outermost, each coordinate ascends, and
    while every outer coordinate is 0 the centre is 0 and the loop starts at
    0, or at 1 for c_0, so the half-space costs no filter."""
    U, e = definite_echelon(G)
    if bound < 0:
        return
    n = len(U)
    g = [gcd(*row) for row in U]
    r = [[x // g[i] for x in U[i]] for i in range(n)]
    K = lcm(*(e[i] // gcd(g[i] * g[i], e[i]) for i in range(n)))
    a = [K * g[i] * g[i] // e[i] for i in range(n)]
    top = K * bound
    c = [0] * n
    r0, s0, a0 = r[0], r[0][0], a[0]
    dd = 2 * a0 * s0 * s0 // K
    for B, zero in _budgets(r, a, c, n - 1, top, True):
        t = sum(r0[j] * c[j] for j in range(1, n))
        w = isqrt(B // a0)
        lo = 1 if zero else -((w + t) // s0)
        x = s0 * lo + t
        yield (c, lo, (w - t) // s0 + 1, (top - B + a0 * x * x) // K,
               a0 * s0 * (2 * x + s0) // K, dd)


def points_up_to(G: list[list[int]], bound: int) -> Iterator[int]:
    """Yield c^T G c for one of each pair ±c of nonzero integer vectors with
    c^T G c <= bound, the one whose last nonzero coordinate is positive.  G
    must be an integer symmetric positive definite matrix and bound an int."""
    for _, lo, hi, v, dv, dd in _lines(G, bound):
        for _ in range(lo, hi):
            yield v
            v += dv
            dv += dd


def vectors_up_to(G: list[list[int]], bound: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """`points_up_to`'s vectors as (c, value), in its order."""
    for c, lo, hi, v, dv, dd in _lines(G, bound):
        for m in range(lo, hi):
            yield (m, *c[1:]), v
            v += dv
            dv += dd


def _budgets(r: list[list[int]], a: list[int], c: list[int], i: int, B: int,
             zero: bool) -> Iterator[tuple[int, bool]]:
    """Set c_i..c_1 in turn; yield the budget B_1 left for c_0 and whether
    c_1..c_{n-1} are all 0."""
    if i == 0:
        yield B, zero
        return
    ri, si, ai = r[i], r[i][i], a[i]
    t = sum(ri[j] * c[j] for j in range(i + 1, len(c)))
    w = isqrt(B // ai)
    for m in range(0 if zero else -((w + t) // si), (w - t) // si + 1):
        c[i] = m
        x = si * m + t
        yield from _budgets(r, a, c, i - 1, B - ai * x * x, zero and not m)


def reduce_gram(G: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """(G', T): a pairwise reduced Gram matrix G' = T·G·Tᵀ of the integer
    positive-definite G, with T unimodular; row i of T gives basis vector i of
    G' in the coordinates of G.

    Pairwise Lagrange reduction: while some |2·G_ij| > G_jj with i ≠ j, set
    b_i ← b_i − q·b_j with q the integer nearest G_ij/G_jj, taking the b_j in
    order of length.  That lowers the integer G_ii by G_jj·(x² − (q − x)²) > 0
    with x = G_ij/G_jj, and a diagonal entry <= 0, which no positive-definite
    G reaches, raises ValueError, so the loop ends on every G.  Then the basis
    is ordered by ascending diagonal, and 2·|G'_ij| <= min(G'_ii, G'_jj).
    A G that is not definite but keeps a positive diagonal is left to the
    consumer's search: its `definite_echelon(G')` certifies G', and so G, as
    T is unimodular.  The result is checked: CertificateError unless
    det T = ±1 and T·G·Tᵀ equals G'.
    """
    n = len(G)
    R = [list(row) for row in G]
    T = [[int(i == j) for j in range(n)] for i in range(n)]
    done = False
    while not done:
        done = True
        diag = [R[k][k] for k in range(n)]
        for j in sorted(range(n), key=diag.__getitem__):
            Rj, Tj, d = R[j], T[j], R[j][j]
            if d <= 0:
                raise ValueError("form is not positive definite")
            for i in range(n):
                if i != j and 2 * abs(R[i][j]) > d:
                    q = (2 * R[i][j] + d) // (2 * d)
                    Ri, Ti = R[i], T[i]
                    for k in range(n):
                        Ri[k] -= q * Rj[k]
                        Ti[k] -= q * Tj[k]
                    for row in R:
                        row[i] -= q * row[j]
                    done = False
    order = sorted(range(n), key=lambda i: R[i][i])
    R = [[R[i][j] for j in order] for i in order]
    T = [T[i] for i in order]

    U, pivots, _ = echelon(T)
    certify(len(pivots) == n and abs(U[-1][-1]) == 1, "reduction certificate failed: det T != ±1")
    TG = [[sum(map(mul, row, col)) for col in zip(*G)] for row in T]
    certify([[sum(map(mul, a, b)) for b in T] for a in TG] == R,
            "reduction certificate failed: T·G·Tᵀ != G'")
    return R, T


def counts_by_value(G: list[list[int]], bound: int) -> dict[int, int]:
    """Number of nonzero lattice vectors at each form value <= bound (both
    signs counted: 2 per ± pair)."""
    tally = Counter(points_up_to(reduce_gram(G)[0], bound))
    return {val: 2 * cnt for val, cnt in tally.items()}


def counts_with_primitive(G: list[list[int]], bound: int) -> tuple[dict[int, int], dict[int, int]]:
    """Like counts_by_value, plus separate counts of primitive vectors (coordinate gcd 1).

    A vector of content k and value n is k times a primitive one of value
    n/k², so all(n) = Σ_{k²|n} prim(n/k²), and by Möbius inversion
    prim(n) = Σ_{k²|n} μ(k)·all(n/k²).  Values with no primitive vector are
    left out, as they are of `all`.
    """
    allc = counts_by_value(G, bound)
    prim = dict(allc)
    ranked = sorted(allc.items())
    for k in range(2, isqrt(max(bound, 0)) + 1):
        f = factorize(k)
        if not f.is_squarefree:
            continue
        mu, kk = (-1) ** len(f.factors), k * k
        for n, c in ranked:
            if n * kk > bound:
                break
            prim[n * kk] += mu * c
    return allc, {n: c for n, c in prim.items() if c}


def exists_value(G: list[list[int]], target: int) -> bool:
    """Whether some lattice vector has form value exactly target (early exit)."""
    return target == 0 or target in points_up_to(reduce_gram(G)[0], target)


def minimal_vectors(G: list[list[int]]) -> tuple[list[tuple[int, ...]], int]:
    """The shortest nonzero vectors, one of each pair ±c with the sign of its
    first nonzero entry made positive, in ascending lexicographic order, and
    their value."""
    # basis vector 0 of G' attains its least diagonal entry, so that bound
    # holds every minimal vector; only those are mapped back by T
    R, T = reduce_gram(G)
    near = list(vectors_up_to(R, R[0][0]))
    least = min(val for _, val in near)
    tied = [c for c, val in near if val == least]
    canon = []
    for c in tied:
        x = tuple(sum(map(mul, c, col)) for col in zip(*T))
        canon.append(x if next(v for v in x if v) > 0 else tuple(-v for v in x))
    return sorted(canon), least
