"""Orders, ideals, and class-set enumeration."""

import random
import sys
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm

import pytest

import ceisen.lattice as lattice_module
import ceisen.order as order_module
from ceisen.arith import CertificateError, factorize
from ceisen.linalg import clear_denominators
from ceisen.order import (
    CacheError,
    IdealClassSet,
    Lat4,
    LeftIdeal,
    build_class_set,
    classes_from_json,
    classes_to_json,
    eichler_order,
    ideal_generator,
    is_equivalent,
    left_ideal_classes,
    level_config_of,
    make_order,
    maximal_order,
    product_lattice,
    reduce_ideal,
    reduced_discriminant,
    right_order,
    standard_order,
    unit_count,
    unit_ideal,
    _closed_under,
    _covolume_certificate,
    _eichler_step,
    _idempotent,
    _neighbor_ideals,
    _saturate_at,
)
from ceisen.qform import LevelConfig, good_primes, mass
from ceisen.quatalg import QuaternionAlgebra, construct_algebra, norm_pair, quat_mul
from test_lattice import rebuilt_rows_reduce_gram
from test_linalg import full_row_hnf, mat_det  # mat_det: the tests' determinant reference


def mul(B: QuaternionAlgebra, x, y) -> tuple:
    return quat_mul(B.a, B.b, x, y)


def conj(x) -> tuple:
    return (x[0], -x[1], -x[2], -x[3])


def rational_basis(L: Lat4) -> list[tuple[Fraction, ...]]:
    """The basis rows/den of L as rational coordinate 4-tuples."""
    return [tuple(Fraction(x, L.den) for x in row) for row in L.rows]


def contains(L: Lat4, x) -> bool:
    """Whether the rational 4-tuple x lies in L."""
    d, (row,) = clear_denominators([x])
    return L.holds(d, row)


@pytest.fixture(scope="module")
def hurwitz():
    B = QuaternionAlgebra.create(-1, -1)
    return maximal_order(B)


@pytest.fixture(scope="module")
def order11():
    B = QuaternionAlgebra.create(-1, -11)
    return maximal_order(B)


@pytest.fixture(scope="module")
def classes11(order11):
    return left_ideal_classes(order11)


def test_standard_order_discriminant():
    B = QuaternionAlgebra.create(-1, -1)
    O = standard_order(B)
    assert reduced_discriminant(O) == 4  # index 2 below the maximal order


def test_hurwitz_order(hurwitz):
    assert reduced_discriminant(hurwitz) == 2
    assert unit_count(hurwitz) == 24
    B = hurwitz.algebra
    omega = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert contains(hurwitz, omega)
    assert contains(hurwitz, (1, 0, 0, 0))


def test_hurwitz_single_class(hurwitz):
    cs = left_ideal_classes(hurwitz)
    assert cs.n == 1
    assert cs.e == (24,)
    assert cs.w == (12,)
    assert cs.total_mass() == Fraction(1, 24)


def test_maximal_order_disc_11(order11):
    assert reduced_discriminant(order11) == 11
    assert unit_count(order11) == 4


def test_unit_count_certificate(monkeypatch, order11):
    # the units come in ± pairs: one extra vector of norm 1 in the tally
    # must raise under any interpreter flags
    real = order_module.counts_by_value
    monkeypatch.setattr("ceisen.order.counts_by_value",
                        lambda G, bound: {v: c + 1 for v, c in real(G, bound).items()})
    with pytest.raises(CertificateError, match="^unit count must be positive and even$"):
        unit_count(order11)


def test_level_config_detection(order11):
    cfg = level_config_of(order11)
    assert cfg.ramified == (11,)
    assert cfg.M.value == 1
    assert cfg.N == 11


def test_neighbor_count(order11, hurwitz):
    assert len(_neighbor_ideals(order11, 2)) == 3
    assert len(_neighbor_ideals(order11, 3)) == 4
    assert len(_neighbor_ideals(hurwitz, 3)) == 4


def test_classes_level_11(classes11):
    assert classes11.n == 2
    assert sorted(classes11.w) == [2, 3]
    assert classes11.total_mass() == Fraction(5, 12)
    assert classes11.total_mass() == mass(classes11.cfg)
    # first representative is the order itself
    assert classes11.ideals[0].lattice == classes11.order
    for I in classes11.ideals:
        assert I.norm.denominator == 1  # integral representatives


def test_classes_pairwise_inequivalent(classes11):
    a, b = classes11.ideals
    assert not is_equivalent(a, b)
    assert is_equivalent(a, a)
    assert is_equivalent(b, b)


def test_principal_ideal_is_trivial_class(order11):
    B = order11.algebra
    x = (1, 1, 0, 0)  # 1 + i, norm 2
    I = LeftIdeal.of(order11, Lat4.span(B, [mul(B, b, x) for b in rational_basis(order11)]))
    assert I.norm == norm_pair(B.a, B.b, x, x)
    assert is_equivalent(I, unit_ideal(order11))


def test_right_order_of_unit_ideal(order11):
    assert right_order(unit_ideal(order11)) == order11


@pytest.mark.parametrize("primes, M", [((11,), 1), ((2, 3, 11), 1), ((3, 5, 7), 2), ((2, 3, 7), 5),
                                       ((389,), 1), ((997,), 1), ((2, 3, 5, 7, 11), 1)],
                         ids=["N11", "N66", "N210_M2", "N210_M5", "N389", "N997", "N2310"])
def test_right_order_from_eleven_generators(primes, M):
    # conj(I)·I/N(I) from all 16 row products, against the 11 of right_order,
    # for every walked class and every class the snapshot reader returns
    cs = build_class_set(LevelConfig.from_primes(primes, M))
    read = classes_from_json(classes_to_json(cs))
    for I, R in [*zip(cs.ideals, cs.right_orders), *zip(read.ideals, read.right_orders)]:
        P = product_lattice(I.lattice.conjugate(), I.lattice.den, I.lattice.rows)
        assert R == right_order(I) == make_order(order_module._canonical(P.algebra, P.den * I.norm, P.rows))


def test_reduce_ideal_keeps_class(classes11):
    O = classes11.order
    B = O.algebra
    # a non-reduced representative of the trivial class
    x = (2, 1, 0, 0)  # norm 5
    I = LeftIdeal.of(O, Lat4.span(B, [mul(B, b, x) for b in rational_basis(O)]))
    J = reduce_ideal(I)
    assert J.norm <= I.norm
    assert is_equivalent(J, I)
    assert is_equivalent(J, unit_ideal(O))


def test_eichler_order_level_6():
    B = construct_algebra({2})
    O = eichler_order(maximal_order(B), 3)
    assert reduced_discriminant(O) == 6
    cs = left_ideal_classes(O)
    assert cs.n == 1
    assert cs.total_mass() == Fraction(1, 6)


def test_eichler_order_rejects_bad_level(hurwitz):
    with pytest.raises(ValueError):
        eichler_order(hurwitz, 4)  # not squarefree
    with pytest.raises(ValueError):
        eichler_order(hurwitz, 2)  # not coprime to the discriminant


def test_classes_level_66():
    cs = build_class_set(LevelConfig.from_primes((2, 3, 11)))
    assert cs.n == 4
    assert cs.total_mass() == Fraction(5, 6)
    for i in range(cs.n):
        for j in range(i + 1, cs.n):
            assert not is_equivalent(cs.ideals[i], cs.ideals[j])


def test_determinism_level_11(order11, classes11):
    again = left_ideal_classes(order11)
    assert [I.lattice for I in again.ideals] == [I.lattice for I in classes11.ideals]
    assert again.e == classes11.e


def test_cache_roundtrip(classes11):
    data = classes_to_json(classes11)
    back = classes_from_json(data)
    assert back.n == classes11.n
    assert back.e == classes11.e
    assert [I.lattice for I in back.ideals] == [I.lattice for I in classes11.ideals]


def test_cache_rejects_corruption(classes11):
    data = classes_to_json(classes11)
    bad = {**data, "version": 99}
    with pytest.raises(CacheError):
        classes_from_json(bad)
    bad = {**data, "classes": [dict(c) for c in data["classes"]]}
    bad["classes"][0]["e"] = 2
    with pytest.raises(CacheError):
        classes_from_json(bad)
    # w is derived from e, but the snapshot stores it and the reader checks it
    bad = {**data, "classes": [dict(c) for c in data["classes"]]}
    bad["classes"][0]["w"] += 1
    with pytest.raises(CacheError, match="unit counts"):
        classes_from_json(bad)
    bad = {**data, "classes": data["classes"][:1]}
    with pytest.raises(CacheError):
        classes_from_json(bad)
    # one basis coordinate of one class doubled: no longer a left ideal
    bad = {**data, "classes": [dict(c) for c in data["classes"]]}
    coords = list(bad["classes"][1]["basis"])
    k = next(k for k, x in enumerate(coords) if Fraction(x))
    coords[k] = str(2 * Fraction(coords[k]))
    bad["classes"][1]["basis"] = coords
    with pytest.raises(CacheError, match="left ideal"):
        classes_from_json(bad)
    # a zero denominator
    bad["classes"][1]["basis"] = ["1/0"] + coords[1:]
    with pytest.raises(CacheError, match="basis coordinate"):
        classes_from_json(bad)
    # the maximal order above an Eichler order is a left ideal of it, but not a
    # locally principal one
    Omax = maximal_order(construct_algebra({2}))
    bad = classes_to_json(left_ideal_classes(eichler_order(Omax, 3)))
    bad["classes"][0]["basis"] = [str(x) for b in rational_basis(Omax) for x in b]
    with pytest.raises(CacheError, match="locally principal"):
        classes_from_json(bad)


@pytest.mark.parametrize("name", ["level11", "level66", "level210"])
def test_ideal_norms_are_ints(name, request):
    assert all(type(I.norm) is int for I in request.getfixturevalue(name).ideals)


def test_left_ideal_rejects_non_integral_norm(order11):
    # order11/2 is a locally principal left ideal of norm 1/4, but not integral
    half = Lat4.span(order11.algebra, [tuple(x / 2 for x in b) for b in rational_basis(order11)])
    with pytest.raises(ValueError, match="not an integer"):
        LeftIdeal.of(order11, half)


def test_cache_rejects_non_integral_norm(level11):
    # class 1 halved keeps its right order and unit count, and its stored norm
    # is set to match (2/4), so only the integer norm contract rejects it
    data = classes_to_json(level11)
    rec = data["classes"][1]
    rec["basis"] = [str(Fraction(x) / 2) for x in rec["basis"]]
    rec["norm"] = str(Fraction(rec["norm"]) / 4)
    with pytest.raises(CacheError, match="not an integer"):
        classes_from_json(data)


def test_make_order_rejects_non_orders(hurwitz):
    B = hurwitz.algebra
    assert make_order(hurwitz) == hurwitz
    with pytest.raises(ValueError, match="contain 1"):
        make_order(Lat4.span(B, [tuple(2 * v for v in b) for b in rational_basis(hurwitz)]))
    # 1 is present, but (i/2)² = -1/4 is not
    with pytest.raises(ValueError, match="closed"):
        make_order(Lat4.span(B, [(1, 0, 0, 0), (0, Fraction(1, 2), 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]))


def test_product_lattice_norm_multiplicative(classes11):
    I = classes11.ideals[1]
    K, _ = _neighbor_ideals(right_order(I), 2)[0]
    J = LeftIdeal.of(classes11.order, product_lattice(I.lattice, K.den, K.rows))
    assert J.norm == I.norm * K.norm()


# --- integer lattice operations against products of coordinate tuples -------

LATTICE_ALGEBRAS = [(-1, -1), (-1, -3), (-2, -5), (-3, -7)]
LATTICES_PER_ALGEBRA = 6


def random_lattice(rng: random.Random, B: QuaternionAlgebra) -> Lat4:
    """The span of four random integer rows over den, den in {1, 2, 3, 6}."""
    den = rng.choice([1, 2, 3, 6])
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        if mat_det(rows):
            break
    return Lat4.span(B, [tuple(Fraction(x, den) for x in row) for row in rows])


def lattice_cases():
    rng = random.Random(2015)
    out = []
    for a, b in LATTICE_ALGEBRAS:
        B = QuaternionAlgebra.create(a, b)
        out += [(random_lattice(rng, B), random_lattice(rng, B), rng) for _ in range(LATTICES_PER_ALGEBRA)]
    return out


def cramer_coords(basis, x) -> list[Fraction]:
    """The c with x = Σ c_k·basis[k], by Cramer's rule."""
    M = [list(b) for b in basis]
    det = mat_det(M)
    return [mat_det(M[:k] + [list(x)] + M[k + 1:]) / det for k in range(4)]


def combination(basis, coords) -> tuple:
    """Σ c_k·basis[k] on coordinate tuples."""
    return tuple(sum(c * b[m] for c, b in zip(coords, basis)) for m in range(4))


def rational_gcd(values) -> Fraction:
    L = lcm(*(v.denominator for v in values))
    return Fraction(gcd(*(int(v * L) for v in values)), L)


def test_lattice_is_a_value():
    # the canonical form makes a lattice a value: any generating set of the
    # same lattice gives an equal, equally hashed key
    for A, B, rng in lattice_cases():
        gens = list(rational_basis(A))
        rng.shuffle(gens)
        gens[0] = combination(gens, (1, 1, 0, 0))  # a unimodular change as well
        A2 = Lat4.span(A.algebra, gens)
        assert A2 is not A and A2 == A and hash(A2) == hash(A)
        assert {A, A2} == {A} and {A: 1}[A2] == 1
        double = Lat4.span(A.algebra, [tuple(2 * v for v in g) for g in gens])
        assert double != A and double not in {A}


def test_product_and_conjugate_match_quaternion_products():
    for A, B, _ in lattice_cases():
        alg = A.algebra
        As, Bs = rational_basis(A), rational_basis(B)
        assert product_lattice(A, B.den, B.rows) == Lat4.span(alg, [mul(alg, u, v) for u in As for v in Bs])
        assert product_lattice(B, A.den, A.rows) == Lat4.span(alg, [mul(alg, v, u) for v in Bs for u in As])
        assert A.conjugate() == Lat4.span(alg, [conj(b) for b in As])
    for a, b in LATTICE_ALGEBRAS:
        O = maximal_order(QuaternionAlgebra.create(a, b))
        assert product_lattice(O, O.den, O.rows) == O  # 1 ∈ O: the product over den² must reduce to O
        assert O.conjugate() == O


def test_gram_is_half_trace_pairing():
    for A, _, _ in lattice_cases():
        bs = rational_basis(A)
        G = A.gram()
        for k in range(4):
            for l in range(4):
                # trace(x)/2 is the first coordinate of x; the Gram is scaled by den²
                assert type(G[k][l]) is int
                assert G[k][l] == A.den**2 * mul(A.algebra, bs[k], conj(bs[l]))[0]


def test_norm_is_gcd_of_element_norms():
    for A, _, _ in lattice_cases():
        a, b = A.algebra.a, A.algebra.b
        xs = [combination(rational_basis(A), c) for c in product(range(-1, 2), repeat=4) if any(c)]
        assert A.norm() == rational_gcd([norm_pair(a, b, x, x) for x in xs])


def test_coords_round_trip_and_non_members():
    # coords_of(d, v) reads the integer row v over d: integer coordinates for
    # a member, None for anything outside the lattice
    for A, _, rng in lattice_cases():
        bs = rational_basis(A)
        for _ in range(5):
            c = [rng.randint(-9, 9) for _ in range(4)]
            x = combination(bs, c)
            d, (row,) = clear_denominators([x])
            assert A.coords_of(d, row) == c == cramer_coords(bs, x)
            assert A.holds(d, row) and contains(A, x)
            m, r = rng.randrange(4), rng.choice([2, 3, 5])
            off = tuple(v + w / r for v, w in zip(x, bs[m]))
            d, (row,) = clear_denominators([off])
            assert any(k.denominator != 1 for k in cramer_coords(bs, off))
            assert A.coords_of(d, row) is None
            assert not A.holds(d, row) and not contains(A, off)


def forward_substitution_coords(A: Lat4, d: int, v) -> list[int] | None:
    """The general forward substitution d·c·H = den·v, column by column over
    the triangular rows H: the reference for `coords_of`, written out."""
    c: list[int] = []
    for m in range(4):
        acc = A.den * v[m] - d * sum(ck * row[m] for ck, row in zip(c, A.rows))
        ck, rem = divmod(acc, d * A.rows[m][m])
        if rem:
            return None
        c.append(ck)
    return c


@pytest.mark.parametrize("name", ["level197", "level210"])
def test_straight_line_coords_match_forward_substitution(request, name):
    # random members v/d of the class lattices and right orders, and of the
    # random lattices, over several d, and the same rows nudged off the
    # lattice: coords_of and the reference agree, None on non-members
    cs = request.getfixturevalue(name)
    lats = [*(I.lattice for I in cs.ideals), *cs.right_orders, *(A for A, _, _ in lattice_cases())]
    rng = random.Random(197)
    members = non_members = 0
    for A in lats:
        for _ in range(6):
            c = [rng.randint(-30, 30) for _ in range(4)]
            k = rng.choice([1, 2, 3, 7])
            row = tuple(k * x for x in order_module._combine(c, A.rows))
            assert A.coords_of(k * A.den, row) == forward_substitution_coords(A, k * A.den, row) == c
            nudged = tuple(x + (m == 3) for m, x in enumerate(row))
            got = A.coords_of(k * A.den, nudged)
            assert got == forward_substitution_coords(A, k * A.den, nudged)
            members += 1
            non_members += got is None
    assert non_members > members // 2


@pytest.mark.parametrize("name", ["level197", "level210"])
def test_gram_mirrors_its_ten_distinct_entries(request, name):
    # gram() computes the entries k <= l and mirrors them: the full 16-entry
    # norm form on the rows, on every class lattice and right order
    cs = request.getfixturevalue(name)
    for L in [*(I.lattice for I in cs.ideals), *cs.right_orders]:
        a, b = L.algebra.a, L.algebra.b
        assert L.gram() == [[norm_pair(a, b, u, v) for v in L.rows] for u in L.rows]


@pytest.mark.parametrize("name", ["level11", "level66", "level197", "level210", "level389"])
def test_ideal_generator_gives_two_generators(request, name):
    # α lies in I with nrd(α)/N(I) prime to N(I), and N(I)·O + O·α is I's
    # lattice; the order itself, N = 1, takes α = 0
    cs = request.getfixturevalue(name)
    for I in cs.ideals:
        L, alpha = I.lattice, ideal_generator(I)
        assert L.holds(L.den, alpha)
        nrd = Fraction(norm_pair(L.algebra.a, L.algebra.b, alpha, alpha), L.den**2)
        assert (nrd / I.norm).denominator == 1 and gcd(int(nrd / I.norm), I.norm) == 1
        gens = [tuple(Fraction(x, cs.order.den) for x in row) for row in cs.order.rows]
        x = tuple(Fraction(v, L.den) for v in alpha)
        span = Lat4.span(L.algebra, [tuple(I.norm * v for v in g) for g in gens]
                         + [mul(L.algebra, g, x) for g in gens])
        assert span == L
    assert ideal_generator(cs.ideals[0]) == (0, 0, 0, 0)


def trace_pairing_discriminant(O) -> int:
    """The reference: the d with d² = 16·det of the norm form's Gram matrix,
    which must be a perfect square (the integer Gram is den² times it)."""
    det = 16 * mat_det(O.gram()) / O.den**8
    d = isqrt(int(det))
    assert det.denominator == 1 and d * d == det
    return d


EICHLER_CASES = [(11, 2), (11, 3), (11, 5), (2, 3), (2, 5), (3, 2), (11, 6), (2, 15), (7, 30)]


def test_reduced_discriminant_matches_trace_pairing_determinant(level11, level66):
    orders = []
    for a, b in LATTICE_ALGEBRAS:
        B = QuaternionAlgebra.create(a, b)
        orders += [standard_order(B), maximal_order(B)]
    for p, M in EICHLER_CASES:
        Omax = maximal_order(construct_algebra({p}))
        orders += [Omax, eichler_order(Omax, M)]
    orders += level11.right_orders + level66.right_orders
    for O in orders:
        assert reduced_discriminant(O) == trace_pairing_discriminant(O)


def test_covolume_certificate_matches_gram_determinants(level11, level66):
    randoms = [A for A, _, _ in lattice_cases()]
    cases = []
    for a, b in LATTICE_ALGEBRAS:
        O = maximal_order(QuaternionAlgebra.create(a, b))
        B = O.algebra
        # principal ideals O·x are locally principal; random lattices mostly are not
        for x in [(1, 1, 0, 0), (2, 1, 0, 0), (1, 0, 1, 1), (Fraction(1, 2), 0, 3, 0)]:
            cases.append((O, Lat4.span(B, [mul(B, u, x) for u in rational_basis(O)])))
        cases += [(O, A) for A in randoms if A.algebra == B]
    for cs in (level11, level66):
        cases += [(cs.order, I.lattice) for I in cs.ideals]
    verdicts = []
    for O, L in cases:
        n = L.norm()
        by_gram = mat_det(L.gram()) / L.den**8 == n**4 * mat_det(O.gram()) / O.den**8
        assert _covolume_certificate(O, L, n) == by_gram
        verdicts.append(by_gram)
    assert True in verdicts and False in verdicts


def brute_eichler(Omax, q: int) -> Lat4:
    """The level-q suborder of the order Omax (maximal or not, q ∤ disc),
    found by brute force over (Z/q)^4: take the first idempotent
    e ≢ 0, 1 mod q·Omax in lexicographic coordinate order, and the preimage
    of {c : e·x_c·(1 - e) ∈ q·Omax}."""
    B, bs, one = Omax.algebra, rational_basis(Omax), (1, 0, 0, 0)

    def in_q_order(x) -> bool:
        return all((c / q).denominator == 1 for c in cramer_coords(bs, x))

    def sub(x, y) -> tuple:
        return tuple(u - v for u, v in zip(x, y))

    tuples = [c for c in product(range(q), repeat=4) if any(c)]
    e = next(
        x for x in (combination(bs, c) for c in tuples)
        if not in_q_order(sub(x, one)) and in_q_order(sub(mul(B, x, x), x))
    )
    kept = [c for c in tuples if in_q_order(mul(B, mul(B, e, combination(bs, c)), sub(one, e)))]
    assert len(kept) + 1 == q**3
    return Lat4.span(B, [tuple(q * v for v in b) for b in bs] + [combination(bs, c) for c in kept])


@pytest.mark.parametrize("p, M", EICHLER_CASES)
def test_eichler_order_is_brute_force_preimage(p, M):
    # at a composite M each cut runs on the order the smaller primes' cuts left
    Omax = maximal_order(construct_algebra({p}))
    ref = Omax
    for q in factorize(M).primes:
        ref = brute_eichler(ref, q)
    O = eichler_order(Omax, M)
    assert O == ref
    assert reduced_discriminant(O) == M * reduced_discriminant(Omax)


@pytest.mark.parametrize("name", ["level11", "level66", "level389"])
def test_class_form_is_a_class_invariant(name, request):
    cs = request.getfixturevalue(name)
    O, B = cs.order, cs.algebra
    rng = random.Random(cs.cfg.N)
    for I, e in zip(cs.ideals, cs.e):
        key, rep, e_I, x = order_module._class_form(I)
        assert e_I == e
        assert is_equivalent(LeftIdeal.of(O, rep), I)
        # the representative is I·conj(x)/N(I) for the returned row x over den
        scale = I.lattice.den * I.norm
        assert rep == Lat4.span(B, [tuple(Fraction(c, scale) for c in mul(B, b, conj(x)))
                                    for b in rational_basis(I.lattice)])
        for _ in range(2):
            # x of norm <= 100: the form of an unreduced J enumerates a skewed basis
            x = (0, 0, 0, 0)
            while not 0 < norm_pair(B.a, B.b, x, x) <= 100:
                x = tuple(rng.randint(-3, 3) for _ in range(4))
            J = LeftIdeal.of(O, Lat4.span(B, [mul(B, b, x) for b in rational_basis(I.lattice)]))
            assert J.norm == I.norm * norm_pair(B.a, B.b, x, x)
            key_J, rep_J, e_J, _ = order_module._class_form(J)
            assert (key_J, e_J) == (key, e)
            assert reduce_ideal(J).lattice == rep_J
            assert order_module._class_form(reduce_ideal(J))[::2] == (key, e)


@pytest.mark.parametrize("name", ["level11", "level66", "level389"])
def test_class_forms_separate_classes(name, request):
    # a complete invariant: one key per class, and the e of the enumeration
    # that found the key is the unit count of the class's right order
    cs = request.getfixturevalue(name)
    forms = [order_module._class_form(I) for I in cs.ideals]
    assert len({key for key, *_ in forms}) == cs.n
    assert [e for _, _, e, _ in forms] == [unit_count(right_order(I)) for I in cs.ideals]
    # the key is itself an ideal of the class, and the first class's is the order
    assert forms[0][0] == (cs.order.den, cs.order.rows)
    for I, (key, *_) in zip(cs.ideals, forms):
        assert is_equivalent(LeftIdeal.of(cs.order, Lat4(cs.algebra, *key)), I)


def _counted_walk(monkeypatch, O):
    """left_ideal_classes(O) with its equivalence tests counted: (classes, calls, hits)."""
    tally = [0, 0]

    def counted(I, J):
        hit = is_equivalent(I, J)
        tally[0] += 1
        tally[1] += hit
        return hit

    with monkeypatch.context() as m:
        m.setattr(order_module, "is_equivalent", counted)
        cs = left_ideal_classes(O)
    return cs, tally[0], tally[1]


@pytest.mark.parametrize("primes, M", [((11,), 1), ((2, 3, 11), 1), ((2, 3, 7), 5),
                                       ((3, 5, 7), 2), ((197,), 1)],
                         ids=["N11", "N66", "N210_M5", "N210_M2", "N197"])
def test_bucketed_walk_matches_unbucketed(monkeypatch, primes, M):
    O = eichler_order(maximal_order(construct_algebra(set(primes))), M)
    cs, calls, hits = _counted_walk(monkeypatch, O)
    class_form = order_module._class_form
    # one bucket: every candidate is tested against every class
    monkeypatch.setattr(order_module, "_class_form", lambda I: (0, *class_form(I)[1:]))
    ref, ref_calls, ref_hits = _counted_walk(monkeypatch, O)
    assert classes_to_json(cs) == classes_to_json(ref)
    # a hit whose representative is the class's own lattice needs no test, so
    # every test the keyed walk still makes is a hit
    assert calls == hits
    assert calls < ref_calls


def test_walk_with_a_class_splitting_key_overshoots(monkeypatch):
    # keyed by the candidate's own lattice, two ideals of one class never
    # meet in a bucket, and the second one's 1/e passes the mass
    O = maximal_order(construct_algebra({2, 3, 11}))
    class_form = order_module._class_form

    def own_lattice(I):
        _, rep, e, x = class_form(I)
        return (I.lattice.den, I.lattice.rows), rep, e, x

    monkeypatch.setattr(order_module, "_class_form", own_lattice)
    with pytest.raises(CertificateError, match="mass .* exceeds formula value 5/6"):
        left_ideal_classes(O)


@pytest.mark.parametrize("primes, M, n, forms, calls, hits", [((389,), 1, 33, 53, 3, 3),
                                                              ((3, 5, 7), 2, 12, 27, 0, 0)],
                         ids=["N389", "N210_M2"])
def test_walk_reduces_only_new_classes(monkeypatch, primes, M, n, forms, calls, hits):
    # one class form per candidate and for the order, with no candidate on a
    # class's way back to its parent; an equivalence test only on a key hit
    # whose representative is not the class's lattice, each one a hit; and
    # no separate reduction: a new class's representative comes with its form
    tally = {"_class_form": 0, "is_equivalent": 0, "hits": 0, "reduce_ideal": 0, "unit_count": 0}

    def counted(name):
        fn = getattr(order_module, name)

        def wrapper(*args):
            tally[name] += 1
            result = fn(*args)
            if name == "is_equivalent":
                tally["hits"] += result
            return result
        return wrapper

    O = eichler_order(maximal_order(construct_algebra(set(primes))), M)
    for name in ("_class_form", "is_equivalent", "reduce_ideal", "unit_count"):
        monkeypatch.setattr(order_module, name, counted(name))
    cs = left_ideal_classes(O)
    assert (cs.n, tally["_class_form"], tally["is_equivalent"], tally["hits"]) == (n, forms, calls, hits)
    assert tally["reduce_ideal"] == tally["unit_count"] == 0


# --- the neighbour step against the full scan it replaced ------------------


def reference_projective_tuples(p: int):
    """Coordinate tuples with first nonzero entry 1: one per projective point."""
    for lead in range(4):
        head = [0] * lead + [1]
        tails = [[]]
        for _ in range(3 - lead):
            tails = [t + [v] for t in tails for v in range(p)]
        for t in tails:
            yield head + t


def reference_neighbor_ideals(L, p: int) -> list[Lat4]:
    """The neighbour step as a full scan: every projective point is tested,
    and every isotropic one is canonicalized."""
    a, b, rows, d2 = L.algebra.a, L.algebra.b, L.rows, L.den**2
    scaled = [tuple(p * L.den * v for v in row) for row in rows]
    seen: dict[tuple, Lat4] = {}
    for c in reference_projective_tuples(p):
        x = order_module._combine(c, rows)
        n, rem = divmod(norm_pair(a, b, x, x), d2)
        assert rem == 0
        if n % p:
            continue
        K = order_module._canonical(L.algebra, d2, scaled + [quat_mul(a, b, row, x) for row in rows])
        seen.setdefault((K.den, K.rows), K)
    out = sorted(seen.values(), key=lambda K: (K.den, K.rows))
    assert len(out) == p + 1, f"expected {p + 1} neighbors, got {len(out)}"
    return out


def test_neighbor_ideals_match_full_scan(order11, level210_m2, level389):
    cases = [(order11, p) for p in (2, 3, 5, 7, 13)]
    # 13 is the walk prime at N = 2310
    cases += [(R, p) for R in level210_m2.right_orders for p in (11, 13)]
    # at N = 389 the walk prime 2 divides the denominator of some right orders
    assert any(R.den % 2 == 0 for R in level389.right_orders)
    cases += [(R, 2) for R in level389.right_orders]
    for R, p in cases:
        step = _neighbor_ideals(R, p)
        assert [K for K, _ in step] == reference_neighbor_ideals(R, p)
        # each K is pR + R·x for the x it comes with
        assert all(product_lattice(R, R.den, [(p * R.den, 0, 0, 0), x]) == K for K, x in step)


def reference_idempotent(L, q: int) -> tuple:
    """The first x = Σ c_k·rows_k over den, c ∈ [0, q)⁴ in lexicographic order,
    with trd(x) ≡ 1 and nrd(x) ≡ 0 mod q: the full scan."""
    a, b, rows, den = L.algebra.a, L.algebra.b, L.rows, L.den
    xs = (order_module._combine(c, rows) for c in product(range(q), repeat=4))
    return next(x for x in xs if (2 * x[0] - den) % (q * den) == 0
                and norm_pair(a, b, x, x) % (q * den * den) == 0)


def test_idempotent_is_the_first_scanned_idempotent(order11, level210_m2):
    # the same e keeps every Eichler cut, and so its snapshots, as they were
    for R in [order11, *level210_m2.right_orders]:
        for q in (2, 3, 5, 7, 11, 13):
            if reduced_discriminant(R) % q:
                assert _idempotent(R, q) == reference_idempotent(R, q)


def test_neighbor_step_canonicalizes_once_per_neighbor(monkeypatch, order11, level210_m2):
    calls = [0]
    canonical = order_module._canonical

    def counted(*args):
        calls[0] += 1
        return canonical(*args)

    monkeypatch.setattr(order_module, "_canonical", counted)
    cases = [(order11, p) for p in (2, 3, 7)] + [(R, 11) for R in level210_m2.right_orders]
    for R, p in cases:
        calls[0] = 0
        assert len(_neighbor_ideals(R, p)) == p + 1
        assert calls[0] == p + 1


def test_neighbor_step_needs_no_membership_test(monkeypatch, order11, level210_m2, level389):
    # the neighbours are read off the splitting e, f of R/pR: no candidate
    # element is tested for membership with `Lat4.holds`
    def no_holds(self, d, v):
        raise AssertionError("membership test")

    monkeypatch.setattr(Lat4, "holds", no_holds)
    cases = [(order11, p) for p in (2, 13)] + [(level389.right_orders[1], 2)]
    cases += [(R, p) for R in level210_m2.right_orders[:3] for p in (11, 13)]
    for R, p in cases:
        assert len(_neighbor_ideals(R, p)) == p + 1


def test_neighbor_certificates_raise(order11, hurwitz):
    # at a ramified p, R/pR is not M_2(F_p): it has no idempotent to split it
    with pytest.raises(CertificateError, match="idempotent mod 11"):
        _neighbor_ideals(order11, 11)
    with pytest.raises(CertificateError, match="idempotent mod 2"):
        _neighbor_ideals(hurwitz, 2)
    # half the Hurwitz order is no order: its norms lie in Z/4
    with pytest.raises(CertificateError, match="^the norm form is not integral on the order$"):
        _neighbor_ideals(Lat4(hurwitz.algebra, 2 * hurwitz.den, hurwitz.rows), 3)


def test_neighbor_step_needs_a_true_idempotent(monkeypatch, order11):
    B, den = order11.algebra, order11.den
    e = _idempotent(order11, 2)
    # the step's own f = e·y·(1 − e), a multiple of E₁₂ mod 2
    one_minus_e = (den - e[0], -e[1], -e[2], -e[3])
    fs = (tuple(v // den**2 for v in mul(B, mul(B, e, y), one_minus_e)) for y in order11.rows)
    f = next(f for f in fs if any(c % 2 for c in order11.coords_of(den, f)))
    # with the unit 1 + f in place of e, one x is a unit: the three ideals
    # are distinct, but one of them is R itself, of covolume covol(R)
    monkeypatch.setattr(order_module, "_idempotent", lambda L, q: (den + f[0], *f[1:]))
    with pytest.raises(CertificateError, match=r"^each neighbor must have covolume p²·covol\(L\)$"):
        _neighbor_ideals(order11, 2)
    # with e = 0 every f = e·y·(1 − e) is 0, and each x gives the ideal pR
    monkeypatch.setattr(order_module, "_idempotent", lambda L, q: (0, 0, 0, 0))
    with pytest.raises(CertificateError, match="expected 4 neighbors, got 1"):
        _neighbor_ideals(order11, 3)


def test_saturation_certificate(hurwitz):
    # the Hurwitz order is maximal: no candidate enlarges it at 2 or at 3
    for p in (2, 3):
        with pytest.raises(CertificateError, match=f"cannot enlarge order at p={p}"):
            _saturate_at(hurwitz, p)


def test_eichler_splitting_certificate(order11):
    # at the ramified q = 11, O/qO is a local ring, not M_2(F_q): it has no
    # idempotent other than 0 and 1
    with pytest.raises(CertificateError, match="no nontrivial idempotent mod 11"):
        _eichler_step(order11, 11)


def test_eichler_step_certificates(monkeypatch, order11, classes11):
    # with the scalar 1 for the idempotent, the q-neighbour is L itself, so
    # the suborder Z + L is L, of discriminant disc(L), not q·disc(L)
    monkeypatch.setattr(order_module, "_idempotent", lambda L, q: (L.den, 0, 0, 0))
    with pytest.raises(CertificateError, match="^the level-q suborder must have discriminant q·disc"):
        _eichler_step(order11, 2)
    # a q-neighbour replaced by the other class's maximal right order: Z plus
    # it is an order, but not one inside L
    other = classes11.right_orders[1]
    assert other != order11
    monkeypatch.setattr(order_module, "product_lattice", lambda A, den, gens: other)
    with pytest.raises(CertificateError, match="^the level-q suborder must lie in L$"):
        _eichler_step(order11, 2)


def test_reduced_discriminant_certificate(hurwitz):
    # the Hurwitz order halved: covolume 1/32, so 4·|ab|·covol = 1/8
    with pytest.raises(CertificateError, match="^reduced discriminant must be a positive integer$"):
        reduced_discriminant(Lat4(hurwitz.algebra, 2 * hurwitz.den, hurwitz.rows))


def test_ramified_product_certificates():
    # an algebra that names 3 as its ramified prime, though (-1, -1) ramifies
    # at 2: its standard order has reduced discriminant 4, no multiple of 3
    B = QuaternionAlgebra(-1, -1, (3,))
    with pytest.raises(CertificateError, match="^discriminant should be a multiple of the ramified product$"):
        maximal_order(B)
    with pytest.raises(CertificateError,
                       match="^reduced discriminant must be a multiple of the ramified product$"):
        level_config_of(standard_order(B))


def test_class_form_orbit_certificate(monkeypatch, order11):
    # the unit ideal's two minimal pairs ±1, ±u (e = 4) give one lattice; two
    # more vectors 2x + y and x + 2y of norm 5 give two more, and 2·4 pairs
    # do not fall into 3 orbits of one size
    real = order_module.minimal_vectors

    def padded(G):
        vecs, val = real(G)
        x, y = vecs
        extra = [tuple(2 * a + b for a, b in zip(x, y)), tuple(a + 2 * b for a, b in zip(x, y))]
        return vecs + extra, val

    I = unit_ideal(order11)
    assert order_module._class_form(I)[2] == 4
    monkeypatch.setattr(order_module, "minimal_vectors", padded)
    with pytest.raises(CertificateError, match="^the minimal vectors must fall into orbits of one size$"):
        order_module._class_form(I)


def test_walk_must_reach_the_mass(monkeypatch, order11):
    # a walk without neighbours stops at the unit ideal's 1/4 < 5/12
    monkeypatch.setattr(order_module, "_neighbor_ideals", lambda R, p: [])
    with pytest.raises(CertificateError, match="exhausted before reaching the mass"):
        left_ideal_classes(order11)


@pytest.mark.parametrize("name", ["level11", "level66", "level210_m2", "level389"])
def test_way_back_leads_to_the_parent(name, request):
    # for every class I and neighbour K of its right order: J = I·K reduces to
    # C = J·conj(v)/N(J), and the way back K_back is a neighbour of O_r(C)
    # with C·K_back = p·I·conj(v)/N(J)
    cs = request.getfixturevalue(name)
    B, p = cs.algebra, good_primes(cs.cfg, 1)[0]
    for I, R in zip(cs.ideals, cs.right_orders):
        for K, x in _neighbor_ideals(R, p):
            J = LeftIdeal.of(cs.order, product_lattice(I.lattice, R.den, [(p * R.den, 0, 0, 0), x]))
            _, C, _, v = order_module._class_form(J)
            back = order_module._way_back(K, v)
            step = _neighbor_ideals(right_order(LeftIdeal.of(cs.order, C)), p)
            assert [L for L, _ in step].count(back) == 1
            scale = Fraction(p, J.lattice.den * J.norm)
            assert product_lattice(C, back.den, back.rows) == Lat4.span(
                B, [tuple(scale * c for c in mul(B, b, conj(v))) for b in rational_basis(I.lattice)])


def test_walk_must_find_the_way_back(monkeypatch):
    # at N = 389 (p = 2) every way back the walk records is dropped from the
    # neighbours it is given, so the first class found, expanded second,
    # misses its own
    O = maximal_order(construct_algebra({389}))
    way_back, neighbor_ideals = order_module._way_back, order_module._neighbor_ideals
    backs = []

    def recorded(K, v):
        backs.append(way_back(K, v))
        return backs[-1]

    monkeypatch.setattr(order_module, "_way_back", recorded)
    monkeypatch.setattr(order_module, "_neighbor_ideals",
                        lambda R, p: [(K, x) for K, x in neighbor_ideals(R, p) if K not in backs])
    with pytest.raises(CertificateError, match="^the way back from class 1 must be one of its 3 neighbors$"):
        left_ideal_classes(O)


def test_walk_must_not_overshoot_the_mass(monkeypatch):
    # at N = 66 (ramified 2, 3, 11) a walk that finds no equivalence keeps a
    # second ideal of an existing class and passes the mass 5/6
    O = maximal_order(construct_algebra({2, 3, 11}))
    monkeypatch.setattr(order_module, "is_equivalent", lambda I, J: False)
    with pytest.raises(CertificateError, match="mass 11/12 exceeds formula value 5/6"):
        left_ideal_classes(O)


# --- the class-set certificates, the same for the walk and the snapshot reader


def test_class_set_certificates(level11, level66):
    # level 11's own data, changed in one way per case, no longer certifies
    cs = level11
    parts = {"order": cs.order, "ideals": cs.ideals, "right_orders": cs.right_orders, "e": cs.e}
    assert IdealClassSet(**parts).e == (4, 6)
    assert IdealClassSet(**parts).cfg == cs.cfg
    cases = [
        ("^the first class must be the order itself$",
         {"ideals": cs.ideals[::-1], "right_orders": cs.right_orders[::-1], "e": cs.e[::-1]}),
        ("^mass 1/4 falls short of formula value 5/12 after 1 classes$",
         {"ideals": cs.ideals[:1], "right_orders": cs.right_orders[:1], "e": cs.e[:1]}),
        ("^each unit count e_i must be even, with e_i/2 dividing 12$", {"e": [cs.e[0], 10]}),
        ("^right orders must share the level$",
         {"right_orders": [cs.right_orders[0], level66.right_orders[0]]}),
    ]
    for message, changed in cases:
        with pytest.raises(CertificateError, match=message):
            IdealClassSet(**{**parts, **changed})


def test_class_set_is_read_only(level11):
    # no attribute can be rebound, added or removed, `cache` included, and
    # the certified values are tuples, which cannot change in place
    for name in ("order", "cfg", "ideals", "right_orders", "e", "cache", "weights"):
        for change in (lambda: setattr(level11, name, (4, 12)), lambda: delattr(level11, name)):
            with pytest.raises(AttributeError, match=f"^a class set's {name} is read-only$"):
                change()
    assert level11.e == (4, 6)
    assert all(type(getattr(level11, name)) is tuple for name in ("ideals", "right_orders", "e"))


def test_cache_reader_certifies_the_mass(level11):
    data = classes_to_json(level11)
    data["classes"] = data["classes"][:1]
    with pytest.raises(CacheError, match="^cached class set: mass 1/4 falls short of formula value 5/12"):
        classes_from_json(data)


# --- one lattice setup: closure by membership, walk products from 8 generators


def random_sublattice(rng: random.Random, O: Lat4) -> Lat4:
    """The span of four random integer combinations of O's basis rows."""
    while True:
        C = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        if mat_det(C):
            break
    return order_module._canonical(O.algebra, O.den, [order_module._combine(c, O.rows) for c in C])


def with_one(L: Lat4) -> Lat4:
    """Z + L, for L in an order."""
    return order_module._canonical(L.algebra, L.den, [*L.rows, (L.den, 0, 0, 0)])


def test_membership_closure_matches_product_closure(order11, hurwitz, classes11, level210_m2):
    rng = random.Random(389)
    seen = {True: 0, False: 0}
    snapshot = classes_to_json(classes11)
    for O in [order11, hurwitz, *level210_m2.right_orders[:4]]:
        scaled = [with_one(Lat4(O.algebra, O.den, tuple(tuple(m * v for v in r) for r in O.rows)))
                  for m in (2, 3)]
        for L in scaled + [with_one(random_sublattice(rng, O)) for _ in range(12)]:
            # 1 ∈ L, so L·L ⊆ L exactly when L·L = L
            closed = _closed_under(L, L)
            assert closed == (product_lattice(L, L.den, L.rows) == L)
            seen[closed] += 1
            if closed:
                assert make_order(L) == L
            else:
                with pytest.raises(ValueError, match="^order must be closed under multiplication$"):
                    make_order(L)
        principal = [order_module._canonical(O.algebra, O.den**2, [mul(O.algebra, r, x) for r in O.rows])
                     for x in O.rows[1:]]
        for L in principal + [random_sublattice(rng, O) for _ in range(12)]:
            # 1 ∈ O, so O·L ⊆ L exactly when O·L = L
            closed = _closed_under(O, L)
            assert closed == (product_lattice(O, L.den, L.rows) == L)
            seen[closed] += 1
            if O == order11 and not closed:
                bad = {**snapshot, "classes": [dict(c) for c in snapshot["classes"]]}
                bad["classes"][1]["basis"] = [str(x) for b in rational_basis(L) for x in b]
                with pytest.raises(CacheError, match="^cached lattice is not a left ideal of the order$"):
                    classes_from_json(bad)
    assert min(seen.values()) >= 10, seen


def reference_neighbor_lattice(I: Lat4, p: int, x, xden: int) -> Lat4:
    """pI + I·x for the integer row x over xden, written out: the 8 generators
    p·xden·rows_k and rows_k·x over I.den·xden."""
    a, b = I.algebra.a, I.algebra.b
    gens = [tuple(p * xden * v for v in row) for row in I.rows]
    gens += [quat_mul(a, b, row, x) for row in I.rows]
    return order_module._canonical(I.algebra, I.den * xden, gens)


def reference_class_lattice(L: Lat4, n: int, x) -> Lat4:
    """I·conj(x)/N(I) for I's lattice L, N(I) = n and the integer row x over
    L.den, written out: the row products b_k·conj(x) over den²·N(I)."""
    a, b = L.algebra.a, L.algebra.b
    return order_module._canonical(L.algebra, L.den**2 * n,
                                   [quat_mul(a, b, row, (x[0], -x[1], -x[2], -x[3])) for row in L.rows])


def _caller_name() -> str:
    """The name of the function that called this function's caller, past any
    comprehension frame."""
    frame = sys._getframe(2)
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame.f_code.co_name


@pytest.mark.parametrize("primes, M", [((11,), 1), ((2, 3, 11), 1), ((3, 5, 7), 2), ((2, 3, 7), 5),
                                       ((389,), 1), ((2, 3, 5, 7, 11), 1)],
                         ids=["N11", "N66", "N210_M2", "N210_M5", "N389", "N2310"])
def test_product_lattice_matches_references_on_build_inputs(monkeypatch, primes, M):
    # every lattice the neighbour step, the walk's candidates, the Eichler cut
    # and the generator certificate form as pI + I·x, and every class-form
    # lattice I·conj(x)/N(I), recorded while the class set is built and its
    # generators α_i certified, against the written-out references
    calls = {}
    real = product_lattice

    def recorded(A, den, gens):
        W = real(A, den, gens)
        calls.setdefault(_caller_name(), []).append((A, den, list(gens), W))
        return W

    with monkeypatch.context() as m:
        m.setattr(order_module, "product_lattice", recorded)
        cs = build_class_set(LevelConfig.from_primes(primes, M))
        for I in cs.ideals:
            ideal_generator(I)
    # the Eichler cut runs only at M > 1
    eight = ["_neighbor_ideals", "left_ideal_classes", "ideal_generator"] + ["_eichler_step"] * (M > 1)
    assert {*eight, "_class_form"} <= set(calls)
    assert ("_eichler_step" in calls) == (M > 1)
    for site in eight:
        for A, den, ((s, *zeros), x), W in calls[site]:
            assert zeros == [0, 0, 0] and s % den == 0
            assert W == reference_neighbor_lattice(A, s // den, x, den)
    for A, den, (y,), W in calls["_class_form"]:
        assert den % A.den == 0
        assert W == reference_class_lattice(A, den // A.den, conj(y))
    assert len(calls["_class_form"]) > cs.n


@pytest.mark.parametrize("name", ["level11", "level66", "level210_m2", "level389"])
def test_walk_product_from_eight_generators(name, request):
    # I·K = pI + I·x for every class I, with right order R, and every
    # neighbour K = pR + R·x of R: I·R = I, so the 8 generators span I·K
    cs = request.getfixturevalue(name)
    p = good_primes(cs.cfg, 1)[0]
    for I, R in zip(cs.ideals, cs.right_orders):
        for K, x in _neighbor_ideals(R, p):
            eight = product_lattice(I.lattice, R.den, [(p * R.den, 0, 0, 0), x])
            assert eight == reference_neighbor_lattice(I.lattice, p, x, R.den)
            assert eight == product_lattice(I.lattice, K.den, K.rows)


def test_kernels_match_references_on_walk_inputs(monkeypatch):
    # every hnf and reduce_gram input of three class walks, against the
    # full-row hnf and the row-rebuilding reduce_gram; the references run
    # the walks, so a broken kernel fails here instead of derailing them
    hnf_inputs, gram_inputs = [], []
    hnf, reduce_gram = order_module.hnf, lattice_module.reduce_gram

    def recorded(log, fn):
        def wrapper(arg):
            log.append([list(row) for row in arg])
            return fn(arg)
        return wrapper

    monkeypatch.setattr(order_module, "hnf", recorded(hnf_inputs, full_row_hnf))
    monkeypatch.setattr(lattice_module, "reduce_gram",
                        recorded(gram_inputs, rebuilt_rows_reduce_gram))
    for primes, M in [((389,), 1), ((3, 5, 7), 2), ((997,), 1)]:
        build_class_set(LevelConfig.from_primes(primes, M))
    assert len(hnf_inputs) > 500 and len(gram_inputs) >= 165
    for A in hnf_inputs:
        assert hnf(A) == full_row_hnf(A)
    for G in gram_inputs:
        assert reduce_gram(G) == rebuilt_rows_reduce_gram(G)
