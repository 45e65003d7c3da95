"""Exact lattice-point enumeration under a positive-definite quadratic form.

Fincke-Pohst recursion on integers only.  Forms are given by integer Gram
matrices, bounds and values are integers, and evaluation happens in the
coordinate lattice Z^n.

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
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from typing import Iterator

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


def points_up_to(G: list[list[int]], bound: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield all nonzero integer vectors c with c^T G c <= bound, with the value.

    Both c and -c are produced, with c_{n-1} in the outermost loop and c_0 in
    the innermost, each ascending.  G must be an integer symmetric positive
    definite matrix and bound an int.
    """
    if bound < 0:
        return
    U, e = definite_echelon(G)
    n = len(U)
    g = [gcd(*row) for row in U]
    r = [[x // g[i] for x in U[i]] for i in range(n)]
    K = lcm(*(e[i] // gcd(g[i] * g[i], e[i]) for i in range(n)))
    a = [K * g[i] * g[i] // e[i] for i in range(n)]
    top = K * bound
    c = [0] * n

    def budgets(i: int, B: int) -> Iterator[int]:
        """Set c_i..c_1 in turn; yield the budget B_1 left for c_0."""
        if i == 0:
            yield B
            return
        ri, si, ai = r[i], r[i][i], a[i]
        t = sum(ri[j] * c[j] for j in range(i + 1, n))
        w = isqrt(B // ai)
        for m in range(-((w + t) // si), (w - t) // si + 1):
            c[i] = m
            x = si * m + t
            yield from budgets(i - 1, B - ai * x * x)

    r0, s0, a0 = r[0], r[0][0], a[0]
    for B in budgets(n - 1, top):
        rest = tuple(c[1:])
        t = sum(r0[j] * c[j] for j in range(1, n))
        w = isqrt(B // a0)
        ms = range(-((w + t) // s0), (w - t) // s0 + 1)
        if not any(rest):
            ms = [m for m in ms if m]
        base = top - B
        for m in ms:
            x = s0 * m + t
            yield (m,) + rest, (base + a0 * x * x) // K


def counts_by_value(G: list[list[int]], bound: int) -> dict[int, int]:
    """Number of nonzero lattice vectors at each form value <= bound (both signs counted)."""
    tally: dict[int, int] = {}
    for _, val in points_up_to(G, bound):
        tally[val] = tally.get(val, 0) + 1
    return tally


def counts_with_primitive(G: list[list[int]], bound: int) -> tuple[dict[int, int], dict[int, int]]:
    """Like counts_by_value, plus separate counts of primitive vectors (coordinate gcd 1)."""
    allc: dict[int, int] = {}
    prim: dict[int, int] = {}
    for coords, val in points_up_to(G, bound):
        allc[val] = allc.get(val, 0) + 1
        if gcd(*coords) == 1:
            prim[val] = prim.get(val, 0) + 1
    return allc, prim


def exists_value(G: list[list[int]], target: int) -> bool:
    """Whether some lattice vector has form value exactly target (early exit)."""
    if target == 0:
        return True
    for _, val in points_up_to(G, target):
        if val == target:
            return True
    return False


def shortest_vector(G: list[list[int]]) -> tuple[tuple[int, ...], int]:
    """A canonical shortest nonzero vector: minimal value, then lexicographically
    least coordinate tuple after normalizing the sign of the first nonzero entry."""
    # start near the 4th root of the integer det(G) in rank 4, else at the
    # least diagonal entry; double until something is found
    n = len(G)
    if n == 4:
        bound = isqrt(isqrt(definite_echelon(G)[0][-1][-1])) + 1
    else:
        bound = min(G[i][i] for i in range(n))
    while True:
        best: tuple[int, tuple[int, ...]] | None = None
        for coords, val in points_up_to(G, bound):
            lead = next(x for x in coords if x)
            canon = coords if lead > 0 else tuple(-x for x in coords)
            key = (val, canon)
            if best is None or key < best:
                best = key
        if best is not None:
            return best[1], best[0]
        bound *= 2
