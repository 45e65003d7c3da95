"""points_up_to, its coordinate path vectors_up_to and their consumers against
brute-force box enumeration, and against a per-point reference on the
program's own lattices at depth."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, isqrt, lcm

import pytest

import ceisen.lattice as lattice_module
from ceisen.arith import CertificateError
from ceisen.lattice import (
    counts_by_value,
    counts_with_primitive,
    definite_echelon,
    exists_value,
    minimal_vectors,
    points_up_to,
    reduce_gram,
    vectors_up_to,
)
from ceisen.linalg import echelon
from ceisen.order import product_lattice
from ceisen.theta32 import ternary_lattice
from test_linalg import mat_det  # the tests' determinant reference

CASES_PER_RANK = 12


def random_gram(rng: random.Random, n: int) -> list[list[int]]:
    """MᵀM + diag(e) with small integer M and e ≥ 1."""
    M = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    return [
        [sum(M[k][i] * M[k][j] for k in range(n)) + (rng.randint(1, 2) if i == j else 0) for j in range(n)]
        for i in range(n)
    ]


def brute_points(G, bound):
    """Every nonzero c with cᵀGc ≤ bound, searched over the box |c_i|² ≤ bound·(G⁻¹)_ii.

    (G⁻¹)_ii is the cofactor det(G minus row and column i) / det(G).
    """
    if bound <= 0:
        return []
    n = len(G)
    det = int(mat_det(G))
    minors = [[[G[r][c] for c in range(n) if c != i] for r in range(n) if r != i] for i in range(n)]
    widths = [isqrt(bound * int(mat_det(m)) // det) for m in minors]
    out = []
    for c in product(*(range(-w, w + 1) for w in widths)):
        if any(c):
            val = sum(G[i][j] * c[i] * c[j] for i in range(n) for j in range(n))
            if val <= bound:
                out.append((c, val))
    return sorted(out)


def representatives(pts):
    """The points whose last nonzero coordinate is positive: one of each ±c pair."""
    return [(c, val) for c, val in pts if next(x for x in reversed(c) if x) > 0]


def check_half_space(got, pts):
    """`got` is the brute-force representatives in full, and with the negatives
    of its vectors it gives back the brute-force set, no pair yielded twice."""
    assert sorted(got) == representatives(pts)
    both = [(c, val) for c, val in got] + [(tuple(-x for x in c), val) for c, val in got]
    assert len(set(both)) == len(both) == 2 * len(got)
    assert sorted(both) == pts


@lru_cache(maxsize=None)
def cases(n):
    """(G, bound, brute-force points) for seeded random rank-n forms."""
    rng = random.Random(1000 + n)
    out = []
    for _ in range(CASES_PER_RANK):
        G = random_gram(rng, n)
        bound = rng.randint(1, 40)
        out.append((G, bound, brute_points(G, bound)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_points_match_brute_force(n):
    for G, bound, pts in cases(n):
        got = list(vectors_up_to(G, bound))
        assert all(type(val) is int for _, val in got)
        check_half_space(got, pts)
        values = list(points_up_to(G, bound))
        assert all(type(val) is int for val in values)
        assert values == [val for _, val in got]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bound_at_a_value_zero_and_negative(n):
    rng = random.Random(n)
    for G, _, _ in cases(n):
        c = [0] * n
        while not any(c):
            c = [rng.randint(-1, 1) for _ in range(n)]
        hit = sum(G[i][j] * c[i] * c[j] for i in range(n) for j in range(n))  # used as the bound
        check_half_space(list(vectors_up_to(G, hit)), brute_points(G, hit))
        assert any(val == hit for _, val in vectors_up_to(G, hit))
        assert hit in points_up_to(G, hit)
        for enumerate_up_to in (points_up_to, vectors_up_to):
            assert list(enumerate_up_to(G, 0)) == []
            assert list(enumerate_up_to(G, -1)) == []


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_consumers_match_brute_force(n):
    for G, bound, pts in cases(n):
        allc, prim = {}, {}
        for c, val in pts:
            allc[val] = allc.get(val, 0) + 1
            if gcd(*c) == 1:
                prim[val] = prim.get(val, 0) + 1
        byval = counts_by_value(G, bound)
        both = counts_with_primitive(G, bound)
        assert byval == allc
        assert both == (allc, prim)
        for tally in (byval, *both):
            assert all(type(v) is int for v in tally)

        values = set(allc)
        for target in sorted(values)[:3]:
            assert exists_value(G, target)
        missing = next(k for k in range(1, 10**6) if k not in values)
        if missing <= bound:
            assert not exists_value(G, missing)
        assert exists_value(G, 0)

        # e_0 has value G[0][0], so the minimum lies within that bound
        near = brute_points(G, G[0][0])
        least = min(val for _, val in near)
        canon = sorted({c if next(x for x in c if x) > 0 else tuple(-x for x in c)
                        for c, val in near if val == least})
        assert minimal_vectors(G) == (canon, least)


def test_cases_exercise_the_minors_form():
    # the echelon diagonal holds the leading minors d_i, and
    # q(c) = Σ (U_i·c)²/(d_i·d_{i+1}) on the seeded cases, which reach a
    # scale K > 1 and a row content g_i > 1, so both divisions are exercised
    rng = random.Random(7)
    Ks, contents = [], []
    for n in (1, 2, 3, 4):
        for G, _, _ in cases(n):
            U, e = definite_echelon(G)
            d = [1] + [int(mat_det([row[:k] for row in G[:k]])) for k in range(1, n + 1)]
            assert [U[i][i] for i in range(n)] == d[1:]
            assert e == [d[i] * d[i + 1] for i in range(n)]
            g = [gcd(*row) for row in U]
            Ks.append(lcm(*(e[i] // gcd(g[i] ** 2, e[i]) for i in range(n))))
            contents += g
            for _ in range(5):
                c = [rng.randint(-3, 3) for _ in range(n)]
                q = sum(G[i][j] * c[i] * c[j] for i in range(n) for j in range(n))
                assert q == sum(Fraction(sum(u * x for u, x in zip(U[i], c)) ** 2, e[i]) for i in range(n))
    assert max(Ks) > 1
    assert max(contents) > 1


@pytest.mark.parametrize("G", [
    [[0]],
    [[-1]],
    [[1, 2], [2, 1]],                  # indefinite
    [[1, 1], [1, 1]],                  # semidefinite, rank 1
    [[0, 1], [1, 0]],                  # leading minor 0: elimination swaps rows
    [[2, 1, 0], [1, 2, 0], [0, 0, 0]],  # semidefinite, zero last column
    [[0, 0, 1, -1], [0, 0, -1, 2], [1, -1, 2, 0], [-1, 2, 0, 2]],
    [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
])
def test_non_definite_grams_raise(G):
    # [[0, 1], [1, 0]] and the 4×4 with a zero leading block reach diagonal
    # pivots and a positive echelon diagonal after row swaps (two in the 4×4,
    # an even number), so only the identity G = Σ u_i·u_iᵀ/e_i rejects them
    with pytest.raises(ValueError):
        definite_echelon(G)
    for enumerate_up_to in (points_up_to, vectors_up_to):
        with pytest.raises(ValueError):
            list(enumerate_up_to(G, 5))
    # each G here reaches a diagonal entry <= 0 inside reduce_gram's Lagrange
    # loop, which raises there; a G that kept a positive diagonal would be
    # left to points_up_to, which certifies G′, so no consumer hangs
    for call in (reduce_gram, minimal_vectors):
        with pytest.raises(ValueError):
            call(G)
    for call in (counts_by_value, counts_with_primitive, exists_value):
        with pytest.raises(ValueError):
            call(G, 5)


def test_semidefinite_gram_with_positive_diagonal_raises():
    # G·(1, 1, 1) = 0, yet every diagonal entry is 2 and 2·|G_ij| <= G_jj:
    # reduce_gram takes no step and returns G, and the Bareiss certificate
    # of points_up_to rejects it in every consumer
    G = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    assert reduce_gram(G) == (G, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for bound in (5, -1):
        for enumerate_up_to in (points_up_to, vectors_up_to):
            with pytest.raises(ValueError):
                list(enumerate_up_to(G, bound))
    with pytest.raises(ValueError):
        minimal_vectors(G)
    for call in (counts_by_value, counts_with_primitive, exists_value):
        with pytest.raises(ValueError):
            call(G, 5)


def test_one_bareiss_per_consumer(monkeypatch):
    calls = [0]

    def counted(G):
        calls[0] += 1
        return definite_echelon(G)

    monkeypatch.setattr(lattice_module, "definite_echelon", counted)
    for n in (1, 2, 3, 4):
        for G, bound, _ in cases(n):
            for run in (lambda: counts_by_value(G, bound), lambda: counts_with_primitive(G, bound),
                        lambda: exists_value(G, G[0][0]), lambda: minimal_vectors(G)):
                calls[0] = 0
                run()
                assert calls[0] == 1


def test_reduce_gram_certificates(monkeypatch):
    # each of reduce_gram's two checks, tripped through the helper it reads:
    # an elimination of T that reports a last pivot of 2 (det T = ±2), and a
    # product that is off by one in every term of T·G·Tᵀ
    G = [[5, 2, 1], [2, 6, 3], [1, 3, 7]]
    assert reduce_gram(G)[0] == [[5, 2, 1], [2, 6, 3], [1, 3, 7]]

    def doubled_last_pivot(rows):
        U, pivots, sign = echelon(rows)
        U[-1] = [2 * x for x in U[-1]]
        return U, pivots, sign

    with monkeypatch.context() as m:
        m.setattr(lattice_module, "echelon", doubled_last_pivot)
        with pytest.raises(CertificateError, match=r"^reduction certificate failed: det T != ±1$"):
            reduce_gram(G)
    with monkeypatch.context() as m:
        m.setattr(lattice_module, "mul", lambda x, y: x * y + 1)
        with pytest.raises(CertificateError, match=r"^reduction certificate failed: T·G·Tᵀ != G'$"):
            reduce_gram(G)


def rebuilt_rows_reduce_gram(G):
    """`reduce_gram` as it was before it updated its rows in place: each
    step rebuilds rows i of R and T, and each pass sorts by a fresh key on
    R's diagonal; kept as the reference, certificates left out."""
    n = len(G)
    R = [list(row) for row in G]
    T = [[int(i == j) for j in range(n)] for i in range(n)]
    done = False
    while not done:
        done = True
        for j in sorted(range(n), key=lambda k: R[k][k]):
            if R[j][j] <= 0:
                raise ValueError("form is not positive definite")
            for i in range(n):
                if i != j and 2 * abs(R[i][j]) > R[j][j]:
                    q = (2 * R[i][j] + R[j][j]) // (2 * R[j][j])
                    T[i] = [x - q * y for x, y in zip(T[i], T[j])]
                    R[i] = [x - q * y for x, y in zip(R[i], R[j])]
                    for row in R:
                        row[i] -= q * row[j]
                    done = False
    order = sorted(range(n), key=lambda i: R[i][i])
    return [[R[i][j] for j in order] for i in order], [T[i] for i in order]


def skew(rng: random.Random, n: int):
    """(U, U⁻¹): a unimodular U with large entries from 16 random row
    operations r_i += q·r_j, |q| <= 9, and a sign flip."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [row[:] for row in U]
    for _ in range(16):
        i, j = rng.sample(range(n), 2)
        q = rng.choice([x for x in range(-9, 10) if x])
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]  # U <- E·U
        for row in V:  # V <- V·E⁻¹
            row[j] -= q * row[i]
    U[0] = [-x for x in U[0]]
    for row in V:
        row[0] = -row[0]
    return U, V


def congruent(U, G):
    """U·G·Uᵀ."""
    n = len(G)
    return [[sum(U[i][a] * G[a][b] * U[j][b] for a in range(n) for b in range(n))
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reduce_gram_on_skewed_grams(n):
    # G = U·G0·Uᵀ with a unimodular U of large entries: the reduction must
    # move the basis (T ≠ I) and every consumer must see G0's lattice
    rng = random.Random(2000 + n)
    for G0, bound, pts in cases(n):
        U, V = skew(rng, n)
        G = congruent(U, G0)
        assert max(abs(x) for row in G for x in row) > 1000
        before = [list(row) for row in G]
        R, T = reduce_gram(G)
        assert (R, T) == rebuilt_rows_reduce_gram(G) and G == before
        assert T != [[int(i == j) for j in range(n)] for i in range(n)]
        assert R == congruent(T, G)
        assert abs(mat_det(T)) == 1
        assert all(2 * abs(R[i][j]) <= min(R[i][i], R[j][j])
                   for i in range(n) for j in range(n) if i != j)
        assert [R[i][i] for i in range(n)] == sorted(R[i][i] for i in range(n))

        allc, prim = {}, {}
        for c, val in pts:
            allc[val] = allc.get(val, 0) + 1
            if gcd(*c) == 1:
                prim[val] = prim.get(val, 0) + 1
        assert counts_by_value(G, bound) == allc
        assert counts_with_primitive(G, bound) == (allc, prim)
        for target in range(1, bound + 1):
            assert exists_value(G, target) == (target in allc)

        # G0-coordinates c0 are the G-coordinates c0·U⁻¹
        near = brute_points(G0, G0[0][0])
        least = min(val for _, val in near)
        tied = [tuple(sum(c[a] * V[a][b] for a in range(n)) for b in range(n))
                for c, val in near if val == least]
        canon = sorted({c if next(x for x in c if x) > 0 else tuple(-x for x in c) for c in tied})
        assert minimal_vectors(G) == (canon, least)


def per_point_reference(G, bound):
    """vectors_up_to with each value computed at its own point: the leaf's
    budget gives K·q(c) = K·bound − B_1 + a_0·x_0², divided by K exactly."""
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

    def budgets(i, B, zero):
        if i == 0:
            yield B, zero
            return
        ri, si, ai = r[i], r[i][i], a[i]
        t = sum(ri[j] * c[j] for j in range(i + 1, n))
        w = isqrt(B // ai)
        for m in range(0 if zero else -((w + t) // si), (w - t) // si + 1):
            c[i] = m
            x = si * m + t
            yield from budgets(i - 1, B - ai * x * x, zero and not m)

    r0, s0, a0 = r[0], r[0][0], a[0]
    for B, zero in budgets(n - 1, top, True):
        rest = tuple(c[1:])
        t = sum(r0[j] * c[j] for j in range(1, n))
        w = isqrt(B // a0)
        base = top - B
        for m in range(1 if zero else -((w + t) // s0), (w - t) // s0 + 1):
            x = s0 * m + t
            yield (m,) + rest, (base + a0 * x * x) // K


def check_against_reference(G, bound):
    """vectors_up_to(G, bound) yields the reference's (c, v) in its order,
    each v is cᵀGc, and points_up_to(G, bound) yields the same v; returns the
    number of points."""
    got = list(vectors_up_to(G, bound))
    assert got == list(per_point_reference(G, bound))
    assert list(points_up_to(G, bound)) == [v for _, v in got]
    n = len(G)
    for c, v in got:
        assert v == sum(G[i][j] * c[i] * c[j] for i in range(n) for j in range(n))
    return len(got)


@pytest.mark.parametrize("name", ["level11", "level66", "level210"])
def test_second_differences_exact_on_ternary_grams(name, request):
    # the reduced ternary Grams of cohen_H, at depth 3000: the values stepped
    # by second differences along each line are the per-point ones
    classes = request.getfixturevalue(name)
    for i in range(1, classes.n + 1):
        assert check_against_reference(reduce_gram(ternary_lattice(classes, i))[0], 3000) > 0


def test_second_differences_exact_on_pairing_lattices(level210):
    # every pairing lattice conj(I_j)·I_i of N = 210 (M = 5), to norm
    # m·N(I_i)·N(I_j) with m = 12, the bound of the Brandt matrices B_1..B_12
    ideals = level210.ideals
    for i, Ii in enumerate(ideals):
        for Ij in ideals[i:]:
            W = product_lattice(Ij.lattice.conjugate(), Ii.lattice.den, Ii.lattice.rows)
            bound = 12 * Ii.norm * Ij.norm * W.den ** 2
            assert check_against_reference(reduce_gram(W.gram())[0], bound) > 0
