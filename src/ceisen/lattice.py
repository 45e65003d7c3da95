"""Exact lattice-point enumeration under a positive-definite quadratic form.

Fincke-Pohst recursion on integers only.  Forms are given by Gram matrices
with Fraction entries; evaluation happens in the coordinate lattice Z^n.

One LDL decomposition G = R^T·diag(D)·R gives q(c) = Σ_i D_i·y_i² with
y_i = c_i + Σ_{j>i} R_ij·c_j.  Each row of R is written over a common row
denominator s_i as R_ij = r_ij/s_i (r_ii = s_i), so s_i·y_i = s_i·c_i + t_i
with the integer centre t_i = Σ_{j>i} r_ij·c_j.  The least integer K that
makes K·bound and every a_i = K·D_i/s_i² integral turns the search into

    K·q(c) = Σ_i a_i·(s_i·c_i + t_i)²  ≤  K·bound,

where every quantity is an integer.  Descending from i = n-1, the budget
B_n = K·bound shrinks to B_i = B_{i+1} - a_i·x_i² with x_i = s_i·c_i + t_i.
Coordinate i is admissible iff a_i·x_i² ≤ B_{i+1}, i.e. x_i² ≤ B_{i+1}/a_i,
and for an integer x_i that holds exactly when x_i² ≤ ⌊B_{i+1}/a_i⌋, so
|x_i| ≤ isqrt(B_{i+1} // a_i) decides membership with no rounding.  The value
of a leaf is (K·bound - B_0)/K.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterator

from .linalg import ldl


class _Values(dict):
    """Integer leaf value v -> Fraction(v, K), each built once."""

    def __init__(self, K: int) -> None:
        super().__init__()
        self.K = K

    def __missing__(self, v: int) -> Fraction:
        f = self[v] = Fraction(v, self.K)
        return f


def points_up_to(G: list[list[Fraction]], bound: Fraction) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Yield all nonzero integer vectors c with c^T G c <= bound, with the value.

    Both c and -c are produced, with c_{n-1} in the outermost loop and c_0 in
    the innermost, each ascending.  G must be symmetric positive definite.
    """
    bound = Fraction(bound)
    if bound < 0:
        return
    D, R = ldl(G)
    n = len(D)
    s = [lcm(*(R[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    r = [[int(R[i][j] * s[i]) for j in range(n)] for i in range(n)]
    scaled = [D[i] / (s[i] * s[i]) for i in range(n)]
    K = lcm(bound.denominator, *(d.denominator for d in scaled))
    a = [int(K * d) for d in scaled]
    top = int(K * bound)
    values = _Values(K)
    c = [0] * n

    def budgets(i: int, B: int) -> Iterator[int]:
        """Set c_i..c_1 in turn; yield the budget B_1 left for c_0."""
        if i == 0:
            yield B
            return
        ri, si, ai = r[i], s[i], a[i]
        t = sum(ri[j] * c[j] for j in range(i + 1, n))
        w = isqrt(B // ai)
        for m in range(-((w + t) // si), (w - t) // si + 1):
            c[i] = m
            x = si * m + t
            yield from budgets(i - 1, B - ai * x * x)

    r0, s0, a0 = r[0], s[0], a[0]
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
            yield (m,) + rest, values[base + a0 * x * x]


def counts_by_value(G: list[list[Fraction]], bound: Fraction) -> dict[Fraction, int]:
    """Number of nonzero lattice vectors at each form value <= bound (both signs counted)."""
    tally: dict[tuple[int, int], int] = {}
    for _, val in points_up_to(G, bound):
        key = val.numerator, val.denominator
        tally[key] = tally.get(key, 0) + 1
    return _by_fraction(tally)


def counts_with_primitive(G: list[list[Fraction]], bound: Fraction) -> tuple[dict[Fraction, int], dict[Fraction, int]]:
    """Like counts_by_value, plus separate counts of primitive vectors (coordinate gcd 1)."""
    allc: dict[tuple[int, int], int] = {}
    prim: dict[tuple[int, int], int] = {}
    for coords, val in points_up_to(G, bound):
        key = val.numerator, val.denominator
        allc[key] = allc.get(key, 0) + 1
        if gcd(*coords) == 1:
            prim[key] = prim.get(key, 0) + 1
    return _by_fraction(allc), _by_fraction(prim)


def _by_fraction(tally: dict[tuple[int, int], int]) -> dict[Fraction, int]:
    """Re-key a tally from (numerator, denominator) to Fraction.

    The tallies key on integer pairs because Fraction.__hash__ takes a modular
    inverse on every dict access; each Fraction key is built once, here.
    """
    return {Fraction(n, d): c for (n, d), c in tally.items()}


def exists_value(G: list[list[Fraction]], target: Fraction) -> bool:
    """Whether some lattice vector has form value exactly target (early exit)."""
    target = Fraction(target)
    if target == 0:
        return True
    for _, val in points_up_to(G, target):
        if val == target:
            return True
    return False


def shortest_vector(G: list[list[Fraction]]) -> tuple[tuple[int, ...], Fraction]:
    """A canonical shortest nonzero vector: minimal value, then lexicographically
    least coordinate tuple after normalizing the sign of the first nonzero entry."""
    # Minkowski-ish initial bound, grown until something is found
    n = len(G)
    det = Fraction(1)
    D, _ = ldl(G)
    for d in D:
        det *= d
    # start near the n-th root of det
    num, den = det.numerator, det.denominator
    guess = Fraction(max(1, isqrt(isqrt(num * den ** 3)) + 1), den) if n == 4 else None
    bound = guess if guess else Fraction(max(1, min(G[i][i] for i in range(n))))
    bound = max(bound, Fraction(1))
    while True:
        best: tuple[Fraction, tuple[int, ...]] | None = None
        for coords, val in points_up_to(G, bound):
            lead = next(x for x in coords if x)
            canon = coords if lead > 0 else tuple(-x for x in coords)
            key = (val, canon)
            if best is None or key < best:
                best = key
        if best is not None:
            return best[1], best[0]
        bound *= 2
