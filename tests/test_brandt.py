import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from ceisen.arith import CertificateError, factorize
from ceisen.brandt import (
    _Block,
    _hyperplane,
    _pair_counts,
    _split_block,
    brandt_matrices_upto,
    brandt_matrix,
    eigenvalue_of,
    expected_row_sum,
    rational_eigensystem,
)
from ceisen.lattice import counts_by_value
from ceisen.linalg import charpoly, mat_mul, nullspace, rref
import ceisen.order as order_module
from ceisen.order import IdealClassSet, Lat4, build_class_set, product_lattice
from ceisen.qform import LevelConfig, good_primes, mass
from ceisen.quatalg import quat_mul

LEVELS = ["level11", "level66", "level210"]


@pytest.fixture(params=LEVELS)
def classes(request):
    return request.getfixturevalue(request.param)


def divisors_of(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1: the reference for the divisor sums."""
    ds = [1]
    for p, e in factorize(n).factors:
        ds = [d * p ** k for d in ds for k in range(e + 1)]
    return sorted(ds)


def test_divisors():
    assert divisors_of(66) == [1, 2, 3, 6, 11, 22, 33, 66]
    assert divisors_of(1) == [1]


def test_expected_row_sum_values():
    c11 = LevelConfig.from_primes((11,), 1)
    assert expected_row_sum(6, c11) == 12
    assert expected_row_sum(11, c11) == 1
    assert expected_row_sum(1, c11) == 1
    c66 = LevelConfig.from_primes((2, 3, 11), 1)
    assert expected_row_sum(5, c66) == 6
    assert expected_row_sum(6, c66) == 1
    c210 = LevelConfig.from_primes((2, 3, 7), 5)
    # at q | M both local neighbor directions contribute: 2q+1, not q+1
    assert expected_row_sum(5, c210) == 11
    assert expected_row_sum(10, c210) == 11
    assert expected_row_sum(25, c210) == 61
    assert expected_row_sum(11, c210) == 12
    with pytest.raises(ValueError):
        expected_row_sum(0, c11)


def test_row_sum_matches_divisor_sum_away_from_M():
    # the plain restricted divisor sum is exactly the zeta coefficient
    # whenever m is coprime to M (always, at M = 1)
    for ram, M in [((11,), 1), ((2, 3, 11), 1), ((2, 3, 7), 5)]:
        cfg = LevelConfig.from_primes(ram, M)
        for m in range(1, 51):
            if gcd(m, cfg.M.value) != 1:
                continue
            plain = sum(d for d in divisors_of(m) if gcd(d, cfg.P.value) == 1)
            assert expected_row_sum(m, cfg) == plain


def test_b1_is_identity(classes):
    B1 = brandt_matrix(classes, 1)
    n = classes.n
    for i in range(n):
        for j in range(n):
            assert B1[i][j] == (1 if i == j else 0)


def test_b0_rows_and_trace(classes):
    # B_0 is the one matrix of Fractions; for m >= 1 the entries, row sums,
    # traces, products and weight-2 series coefficients are all plain ints
    B0 = brandt_matrix(classes, 0)
    n = classes.n
    for i in range(n):
        for j in range(n):
            x = B0[i][j]
            assert type(x) is Fraction and x == Fraction(1, classes.e[j])
    assert sum(B0[i][i] for i in range(n)) == mass(classes.cfg)
    mats = brandt_matrices_upto(classes, 30)
    for m in range(1, 31):
        B = mats[m]
        assert all(type(x) is int for row in B for x in row), m
        assert all(type(s) is int for s in map(sum, B)), m
        assert type(sum(B[i][i] for i in range(n))) is int, m
        assert all(type(x) is int for row in mat_mul(B, mats[31 - m]) for x in row), m


def test_row_sums(classes):
    # the all-ones vector is an eigenvector of every B_m, B_m·u = b_m·u, with
    # eigenvalue the m-th coefficient of the weight-2 Eisenstein series: the
    # mass at m = 0, then the row sums b_m
    mats = brandt_matrices_upto(classes, 50)
    series = [mass(classes.cfg)] + [expected_row_sum(m, classes.cfg) for m in range(1, 51)]
    for m in range(51):
        assert list(map(sum, mats[m])) == [series[m]] * classes.n, m


def test_all_ones_eigenvector(classes):
    # B_m·u^t = b_m·u^t as a matrix product, and by the weighted symmetry
    # e_j·b_ij = e_i·b_ji the weights (1/e_1, ..., 1/e_n) are a left
    # eigenvector with the same eigenvalue b_m
    mats = brandt_matrices_upto(classes, 30)
    n = classes.n
    w = [[Fraction(1, e) for e in classes.e]]
    for m in range(1, 31):
        b = expected_row_sum(m, classes.cfg)
        assert mat_mul(mats[m], [[1]] * n) == [[b]] * n, m
        assert mat_mul(w, mats[m]) == [[b * x for x in w[0]]], m


def test_weighted_symmetry(classes):
    # the unweighted counts c_ij = e_j·b_ij form a symmetric matrix
    mats = brandt_matrices_upto(classes, 20)
    n = classes.n
    for m in range(21):
        for i in range(n):
            for j in range(n):
                lhs = mats[m][i][j] * classes.e[j]
                rhs = mats[m][j][i] * classes.e[i]
                assert lhs == rhs


def test_commutativity(level66):
    mats = brandt_matrices_upto(level66, 12)
    for m in range(2, 13):
        for mp in range(m + 1, 13):
            assert mat_mul(mats[m], mats[mp]) == mat_mul(mats[mp], mats[m])


def test_hecke_multiplicativity(classes):
    N = classes.cfg.N
    mats = brandt_matrices_upto(classes, 100)
    pairs = 0
    for m in range(2, 101):
        for mp in range(m + 1, 101):
            if m * mp > 100 or gcd(m, mp) != 1 or gcd(m * mp, N) != 1:
                continue
            assert mat_mul(mats[m], mats[mp]) == mats[m * mp], (m, mp)
            pairs += 1
    if N < 100:
        assert pairs > 0
    else:
        # no coprime-to-210 pair fits under 100; exercise a genuine one above
        assert mat_mul(mats[11], mats[13]) == brandt_matrix(classes, 143)


def test_eisenstein_e2(classes):
    # the all-ones eigenvalues b_m, read off the matrices, are the coefficients
    # of the weight-2 Eisenstein series: constant term the mass, b_m·b_n =
    # b_mn for coprime m, n, and b_{p^(k+1)} = b_p·b_{p^k} - p·b_{p^(k-1)}
    # at primes p not dividing N
    N = classes.cfg.N
    mats = brandt_matrices_upto(classes, 50)
    b = [sum(B[0]) for B in mats]
    assert b[0] == mass(classes.cfg)
    for m in range(2, 26):
        for n in range(m + 1, 50 // m + 1):
            if gcd(m, n) == 1:
                assert b[m * n] == b[m] * b[n], (m, n)
    for p in (2, 3, 5, 7):
        if N % p:
            pk = [1, p]
            while pk[-1] * p <= 50:
                pk.append(pk[-1] * p)
            for k in range(1, len(pk) - 1):
                assert b[pk[k + 1]] == b[p] * b[pk[k]] - p * b[pk[k - 1]], (p, k)


def test_eigensystem_level11(level11, eig11):
    assert eig11.primes == (2, 3, 5, 7, 13)
    assert eig11.u_eigenvalues == {2: 3, 3: 4, 5: 6, 7: 8, 13: 14}
    assert eig11.lines == [({2: -2, 3: -1, 5: 1, 7: -2, 13: 4}, (2, -3))]
    assert not eig11.unresolved
    # Hasse bound for the cusp eigenvalues
    for p, a in eig11.lines[0][0].items():
        assert a * a <= 4 * p


def test_eigensystem_level66(level66, eig66):
    assert eig66.u_eigenvalues == {p: p + 1 for p in (5, 7, 13, 17, 19)}
    assert len(eig66.lines) == 3
    assert not eig66.unresolved
    vs = [v for _, v in eig66.lines]
    assert (3, -2, -2, 3) in vs
    # sorted by the eigenvalue tuple over the primes (5, 7, 13, 17, 19)
    keys = [tuple(eigs[p] for p in eig66.primes) for eigs, _ in eig66.lines]
    assert eig66.primes == (5, 7, 13, 17, 19) and keys == sorted(keys)
    # v is normalized so that (v_i/w_i) is integral and primitive
    for _, v in eig66.lines:
        coords = [Fraction(v[i], level66.w[i]) for i in range(level66.n)]
        assert all(x.denominator == 1 for x in coords)
        assert gcd(*[int(x) for x in coords]) == 1


def test_ap_hint_selects_line(eig66):
    # the eigenvalues a_5 = 2, a_7 = -4 pick out exactly one line
    picked = [v for eigs, v in eig66.lines if eigs[5] == 2 and eigs[7] == -4]
    assert picked == [(0, 2, -2, 0)]


@pytest.mark.parametrize("name", ["level11", "level66", "level197", "level210_m2", "level389"])
def test_eigenvalue_of_consistency(request, name):
    # every reported line is an eigenvector of B_p with its reported a_p at
    # each prime of the split, and of B_p at the next two good primes too,
    # within the Hasse bound
    classes = request.getfixturevalue(name)
    eig = rational_eigensystem(classes)
    assert eig.lines
    for p in eig.primes:
        B = brandt_matrix(classes, p)
        assert [eigenvalue_of(B, v) for _, v in eig.lines] == [eigs[p] for eigs, _ in eig.lines]
    for p in good_primes(classes.cfg, 7)[5:]:
        B = brandt_matrix(classes, p)
        assert all(eigenvalue_of(B, v) ** 2 <= 4 * p for _, v in eig.lines), (name, p)


def test_eigenvalue_of_rejects_a_non_eigenvector(level11):
    # (1, 0) is not an eigenvector of B_2 at N = 11: the check must raise
    # under any interpreter flags, not return the ratio read off at one entry
    with pytest.raises(CertificateError, match="not an eigenvector"):
        eigenvalue_of(brandt_matrix(level11, 2), (1, 0))


def test_eigenvalue_of_rejects_malformed_vectors(level11):
    # a wrong length and the zero vector are input errors, not eigenvectors
    B2 = brandt_matrix(level11, 2)
    with pytest.raises(ValueError, match="need one weight per class"):
        eigenvalue_of(B2, (2, -3, 1))
    with pytest.raises(ValueError):
        eigenvalue_of(B2, (0, 0))


def test_pairing_norm_certificate(level11):
    # the second class with its norm doubled: its own pairing lattice holds
    # the units, of norm N² rather than a multiple of (2N)², so the count
    # must raise under any interpreter flags
    cs = level11
    ideals = [cs.ideals[0], cs.ideals[1]._replace(norm=2 * cs.ideals[1].norm)]
    corrupted = IdealClassSet(cs.order, ideals, cs.right_orders, cs.e)
    with pytest.raises(CertificateError, match="^pairing lattice norm not divisible by N_i·N_j$"):
        brandt_matrix(corrupted, 2)


def test_pair_count_certificate(monkeypatch):
    # every pair count is a multiple of lcm(e_i, e_j) (here e = (4, 6));
    # one tally off by a ± pair must raise under any interpreter flags.  A
    # fresh class set keeps the session fixtures' cached counts untouched.
    classes = build_class_set(LevelConfig.from_primes((11,), 1))
    assert sorted(classes.e) == [4, 6]

    def skewed(G, bound):
        tally = counts_by_value(G, bound)
        tally[min(tally)] += 2
        return tally

    monkeypatch.setattr("ceisen.brandt.counts_by_value", skewed)
    with pytest.raises(CertificateError, match="lcm"):
        brandt_matrix(classes, 2)


def sixteen_product_pairing(Ij, Ii):
    """conj(I_j)·I_i as the span of all 16 products conj(b_jk)·b_il of the
    two bases, in rational coordinates: the reference for the 8-row route."""
    alg = Ii.lattice.algebra
    basis = [[tuple(Fraction(x, I.lattice.den) for x in row) for row in I.lattice.rows] for I in (Ij, Ii)]
    return Lat4.span(alg, [quat_mul(alg.a, alg.b, (u[0], -u[1], -u[2], -u[3]), v)
                           for u in basis[0] for v in basis[1]])


@pytest.mark.parametrize("name", ["level11", "level66", "level197", "level210", "level210_m2", "level389"])
def test_pairing_lattices_from_two_generators(monkeypatch, request, name):
    # the sweep forms each pairing lattice from the 8 generators
    # N_i·conj(I_j) and conj(I_j)·α_i, once per unordered pair, through
    # brandt's product_lattice (the site a tracer wraps): each is the span of
    # all 16 products, and every pair count is that span's.  A fresh class
    # set keeps the session fixtures' cached counts untouched.
    cs = request.getfixturevalue(name)
    fresh = IdealClassSet(cs.order, cs.ideals, cs.right_orders, cs.e)
    formed = []

    def recorded(A, den, gens):
        formed.append(product_lattice(A, den, gens))
        return formed[-1]

    monkeypatch.setattr("ceisen.brandt.product_lattice", recorded)
    bound, n = 6, cs.n
    counts = _pair_counts(fresh, bound)
    assert len(formed) == n * (n + 1) // 2
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    for (i, j), W in zip(pairs, formed):
        Ii, Ij = cs.ideals[i], cs.ideals[j]
        ref = sixteen_product_pairing(Ij, Ii)
        assert W == ref
        scale = Ii.norm * Ij.norm * ref.den**2
        raw = counts_by_value(ref.gram(), bound * scale)
        assert counts[(i, j)] == counts[(j, i)] == {v // scale: c for v, c in raw.items()}
    _pair_counts(fresh, bound + 1)  # a larger bound is one more sweep
    assert len(formed) == n * (n + 1)


def test_a_non_generator_trips_the_two_generator_certificate(monkeypatch, level66):
    # a search that hands back N(I)·α spans N(I)·O with N(I)·O, not I: the
    # certificate must raise under any interpreter flags before any pair
    # lattice is formed from it
    search = order_module._generator_search
    monkeypatch.setattr(order_module, "_generator_search",
                        lambda I: tuple(I.norm * v for v in search(I)))
    cs = level66
    fresh = IdealClassSet(cs.order, cs.ideals, cs.right_orders, cs.e)
    with pytest.raises(CertificateError, match=r"^each class ideal must be O·α \+ O·N\(I\)$"):
        brandt_matrix(fresh, 2)


def test_eigensystem_level197(level197):
    # 17 classes: the all-ones line, one rational cusp line, and a
    # 15-dimensional part with no rational eigenvector of B_2, set aside at
    # the first prime
    eig = rational_eigensystem(level197)
    assert eig.u_eigenvalues == {2: 3, 3: 4, 5: 6, 7: 8, 11: 12}
    assert eig.lines == [({2: -2, 3: 0, 5: 0, 7: -3, 11: 4},
                          (0, 0, 0, 1, -1, 1, -1, -1, 1, 1, -1, -1, 1, 0, 0, 0, 0))]
    assert eig.unresolved == [(15, {})]


def test_eigensystem_level389(level389):
    # 33 classes: the rational cusp line is the rank-2 curve 389a; the other
    # 31 dimensions hold no rational eigenvector of B_2 and are set aside
    # whole (a full refinement would report blocks of dimension 2, 3 and 26)
    eig = rational_eigensystem(level389)
    assert eig.u_eigenvalues == {2: 3, 3: 4, 5: 6, 7: 8, 11: 12}
    assert eig.lines == [({2: -2, 3: -2, 5: -3, 7: -5, 11: -4},
                          (0, 0, 0, 1, -1, -1, 1, -1, -1, 2, 0, -1, -1, 0, 1, 1, 0,
                           -2, 2, 1, 0, 1, 0, 0, 1, -2, -1, 0, 1, -2, -1, 0, 2))]
    assert eig.unresolved == [(31, {})]


def horner(coeffs: list[int], x: int) -> int:
    """Σ coeffs[i]·x^i, low degree first."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@pytest.mark.parametrize("name", ["level11", "level66", "level197", "level210"])
def test_hasse_candidates_hold_every_rational_eigenvalue(request, name):
    # the kernel search on the all-ones line's complement tries only
    # |a| <= isqrt(4p), and p + 1 is the all-ones line's own eigenvalue;
    # against the characteristic polynomial, every integer eigenvalue of B_p
    # (all lie in |a| <= ||B_p||_inf = p + 1) is one of those
    classes = request.getfixturevalue(name)
    for p in good_primes(classes.cfg, 5):
        cp = charpoly(brandt_matrix(classes, p))
        roots = [a for a in range(-p - 1, p + 2) if horner(cp, a) == 0]
        assert p + 1 in roots
        assert all(abs(a) <= isqrt(4 * p) or a == p + 1 for a in roots), (name, p, roots)


def test_non_orthogonal_eigenspaces_are_caught_as_not_self_adjoint(monkeypatch, level66):
    # at N = 66, e = (6, 4, 4, 6) and the weights are w = (2, 3, 3, 2).
    # B_5 = -4·I + x·zᵀ + u·wᵀ with x = (0, 2, 0, -3), z = (-1, 1, 0, 0) and u
    # all ones keeps every row sum at b_5 = 6 and the complement of u, and on
    # it has the eigenvalue -2 at x and -4 on a plane holding (1, 1, -1, -1),
    # both within the Hasse bound.  Those two kernels are not orthogonal for
    # Σ x_i·y_i/e_i, which self-adjointness would force; so the split's
    # kernels need no orthogonality check of their own, and the self-adjointness
    # certificate must raise before the split, under any interpreter flags
    assert level66.e == [6, 4, 4, 6]
    weights = [2, 3, 3, 2]
    B5 = [[-2, 3, 3, 2], [0, 1, 3, 2], [2, 3, -1, 2], [5, 0, 3, -2]]
    kernels, rest = _split_block(_Block(_hyperplane(weights), {}), B5, 5)
    assert rest == 0 and [(blk.eigs[5], blk.dim) for blk in kernels] == [(-4, 2), (-2, 1)]
    assert any(sum(a * b * w for a, b, w in zip(x, y, weights))
               for x in kernels[0].basis for y in kernels[1].basis)
    real = brandt_matrix
    monkeypatch.setattr("ceisen.brandt.brandt_matrix", lambda c, m: B5 if m == 5 else real(c, m))
    with pytest.raises(CertificateError, match=r"^B_5 not self-adjoint for Σ x_i·y_i/e_i$"):
        rational_eigensystem(level66)


def test_hyperplane_is_the_eliminated_rref():
    # the complement of the all-ones line, written down, against the
    # elimination it replaced: unit-count weights and arbitrary ones
    rng = random.Random(5)
    for _ in range(250):
        n = rng.randint(1, 40)
        weights = [rng.choice([1, 2, 3, 4, 6, 12, rng.randint(1, 10**6)]) for _ in range(n)]
        assert _hyperplane(weights) == rref(nullspace([weights]))[0]


def test_complement_must_be_invariant(monkeypatch, level11):
    # B_2 = [[1, 2], [1, 2]] has constant row sums 3 = b_2 but is not
    # self-adjoint for Σ x_i·y_i/e_i with e = (4, 6): it maps (2, -3), which
    # spans the complement of the all-ones line, to (-4, -4).  With the
    # weights (3, 2), w_1·b_12 = 6 but w_2·b_21 = 2, so the self-adjointness
    # certificate must raise before the split, under any interpreter flags
    assert sorted(level11.e) == [4, 6]
    real = brandt_matrix

    def skewed(classes, m):
        return [[1, 2], [1, 2]] if m == 2 else real(classes, m)

    monkeypatch.setattr("ceisen.brandt.brandt_matrix", skewed)
    with pytest.raises(CertificateError, match="not self-adjoint"):
        rational_eigensystem(level11)


def test_row_sums_must_be_constant(monkeypatch, level66):
    # one diagonal entry of B_5 off by one: B_5 stays self-adjoint, but its
    # first row no longer sums to b_5 = 6, so it need not keep the complement
    # of the all-ones line and the row-sum certificate must raise under any
    # interpreter flags
    real = brandt_matrix

    def skewed(classes, m):
        B = [list(row) for row in real(classes, m)]
        if m == 5:
            B[0][0] += 1
        return B

    monkeypatch.setattr("ceisen.brandt.brandt_matrix", skewed)
    with pytest.raises(CertificateError, match="all-ones eigenvalues"):
        rational_eigensystem(level66)


def test_block_must_be_invariant(monkeypatch, level11):
    # the split starts from the complement of the all-ones line, spanned by
    # (2, -3) at level 11; B_3 = [[1, 1], [0, 1]] maps it to (-1, -3).  With
    # the weights (3, 2), w_1·b_12 = 3 but w_2·b_21 = 0, so the
    # self-adjointness certificate must raise under any interpreter flags
    real = brandt_matrix
    shear = [[1, 1], [0, 1]]
    monkeypatch.setattr("ceisen.brandt.brandt_matrix", lambda c, m: shear if m == 3 else real(c, m))
    with pytest.raises(CertificateError, match="not self-adjoint"):
        rational_eigensystem(level11)


def test_one_dimensional_block_must_be_an_eigenvector():
    # a one-dimensional block reads its eigenvalue off its vector: the shear
    # maps (2, -3) to (-1, -3), so the split must raise under any interpreter
    # flags rather than report the ratio at one coordinate
    with pytest.raises(CertificateError, match="not an eigenvector"):
        _split_block(_Block([[2, -3]], {}), [[1, 1], [0, 1]], 3)


def test_all_ones_line_must_separate(monkeypatch, level11):
    # with every B_p the identity, Q² is one eigenspace for a = 1 at each
    # prime: B_p is self-adjoint, but every row of B_p sums to 1, not b_p, so
    # the row-sum certificate must raise
    monkeypatch.setattr("ceisen.brandt.brandt_matrix",
                        lambda c, m: [[1, 0], [0, 1]])
    with pytest.raises(CertificateError, match="all-ones eigenvalues"):
        rational_eigensystem(level11)


@pytest.mark.parametrize("ramified", [(2,), (13,)], ids=["level2", "level13"])
def test_one_class_level(ramified):
    # one class: the complement of the all-ones line is empty, so there is
    # the all-ones eigenvalue b_p at each prime and nothing else
    classes = build_class_set(LevelConfig.from_primes(ramified, 1))
    assert classes.n == 1
    eig = rational_eigensystem(classes)
    assert eig.u_eigenvalues == {p: expected_row_sum(p, classes.cfg) for p in eig.primes}
    assert eig.lines == [] and eig.unresolved == []


def test_eigensystem_determinism(level11):
    e1 = rational_eigensystem(level11)
    e2 = rational_eigensystem(level11)
    assert e1 == e2


def test_level210_oldform_block(level210):
    eig = rational_eigensystem(level210)
    assert len(eig.lines) == 5
    assert eig.u_eigenvalues == {p: p + 1 for p in (11, 13, 17, 19, 23)}
    # one two-dimensional space never splits rationally (oldform multiplicity)
    assert [dim for dim, _ in eig.unresolved] == [2]


def test_good_primes_avoid_level():
    cfg = LevelConfig.from_primes((2, 3, 7), 5)
    ps = good_primes(cfg, 5)
    assert ps == [11, 13, 17, 19, 23]
