import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

import ceisen
import ceisen.theta32 as theta32
from ceisen.arith import CertificateError
from ceisen.brandt import rational_eigensystem
from ceisen.lattice import counts_by_value, counts_with_primitive, reduce_gram
from ceisen.linalg import echelon, hnf, mat_mul
from ceisen.order import IdealClassSet, Lat4, build_class_set
from ceisen.qform import LevelConfig, closed_form_H, mass, unit_factor
from ceisen.quatalg import norm_pair
from ceisen.theta32 import (
    _form_key,
    cohen_H,
    cusp_G,
    embedding_count_identity,
    optimal_embedding_count,
    prefill_counts,
    ternary_lattice,
)
from ceisen.verify import trace_identity_check
from test_linalg import SEED, mat_det, random_int_matrix  # the tests' shared references

LEVELS = ["level11", "level66", "level210"]


@pytest.fixture(params=LEVELS)
def classes(request):
    return request.getfixturevalue(request.param)


def _discriminants(bound):
    return [d for d in range(-3, -bound - 1, -1) if d % 4 in (-3, 0)]


def test_ternary_lattice_shape(classes):
    N = classes.cfg.N
    for i in range(1, classes.n + 1):
        # integral, symmetric, positive definite, determinant 4N^2
        G = ternary_lattice(classes, i)
        assert all(G[k][l] == G[l][k] for k in range(3) for l in range(3))
        assert all(isinstance(G[k][l], int) for k in range(3) for l in range(3))
        assert mat_det(G) == 4 * N * N


def test_ternary_rank_certificate(monkeypatch, level11):
    # the pure part of R_1 has rank 3; an HNF that lost a row must raise
    # under any interpreter flags
    monkeypatch.setattr("ceisen.theta32.hnf", lambda rows: hnf(rows)[:-1])
    with pytest.raises(CertificateError, match="^trace-zero sublattice must have rank 3$"):
        ternary_lattice(level11, 1)


def int_kernel(A: list[list[int]]) -> list[list[int]]:
    """Basis of the saturated lattice {c in Z^n : A·c = 0} for integer A (m×n):
    the rows of hnf([Aᵀ | I]) that vanish on Aᵀ."""
    m = len(A)
    n = len(A[0])
    stacked = [[A[i][j] for i in range(m)] + [int(j == t) for t in range(n)]
               for j in range(n)]
    H = hnf(stacked)
    return [row[m:] for row in H if not any(row[:m])]


def test_int_kernel_is_the_saturated_kernel():
    rng = random.Random(SEED + 7)
    for _ in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 5)
        A = random_int_matrix(rng, m, n, -3, 3)
        if rng.random() < 0.3:
            A.append([2 * x - y for x, y in zip(A[0], A[-1])])  # dependent row
        K = int_kernel(A)
        assert all(sum(a * k for a, k in zip(row, v)) == 0 for row in A for v in K), A
        assert len(K) == n - len(echelon(A)[1]), A
        # every small kernel vector lies in the lattice K spans, so adding it
        # leaves hnf(K) as it is: K is the whole of ker(A) ∩ Zⁿ
        H = hnf(K)
        for v in product(range(-2, 3), repeat=n):
            if all(sum(a * x for a, x in zip(row, v)) == 0 for row in A):
                assert hnf(K + [list(v)]) == H, (A, v)


def z_plus_2r_gram(classes, i):
    """The Gram of the trace-zero part of Z + 2R_i by its definition: the
    lattice Z + 2R_i, the integer kernel of its trace row, and the norm form
    on that kernel.  The earlier `ternary_lattice`, kept as the reference."""
    R = classes.right_orders[i - 1]
    B = R.algebra
    gens = [(1, 0, 0, 0)] + [tuple(Fraction(2 * x, R.den) for x in row) for row in R.rows]
    L = Lat4.span(B, gens)
    elems = mat_mul(int_kernel([[2 * L.rows[k][0] for k in range(4)]]), L.rows)
    assert len(elems) == 3 and all(e[0] == 0 for e in elems)
    d2 = L.den**2
    return [[norm_pair(B.a, B.b, u, v) // d2 for v in elems] for u in elems]


def test_ternary_lattice_is_trace_zero_part_of_z_plus_2r(classes):
    # twice R's pure part and the trace-zero kernel of Z + 2R are one lattice
    # on two bases: every vector count agrees
    for i in range(1, classes.n + 1):
        G = ternary_lattice(classes, i)
        assert counts_with_primitive(G, 2000) == counts_with_primitive(z_plus_2r_gram(classes, i), 2000)


def test_plus_space_vanishing(classes):
    H = cohen_H(classes, 200)
    for D in range(201):
        if D % 4 in (1, 2):
            assert H[D] == 0


def g_coefficients(G, D_max: int) -> tuple[Fraction, ...]:
    """g_i = ½ + ½ Σ_D a_i(D) q^D where a_i(D) counts trace-zero vectors of
    norm D, from counts_with_primitive's enumeration of the ternary Gram G."""
    allc, _ = counts_with_primitive(G, D_max)
    coeffs = [Fraction(1, 2)] + [Fraction(0)] * D_max
    for D, c in allc.items():
        coeffs[D] = Fraction(c, 2)
    return tuple(coeffs)


def test_g_series_halved_counts(level11):
    for i in (1, 2):
        G = ternary_lattice(level11, i)
        g = g_coefficients(G, 60)
        counts = counts_by_value(G, 60)  # the reference enumeration
        assert g[0] == Fraction(1, 2)
        for D in range(1, 61):
            assert g[D] == Fraction(counts.get(D, 0), 2)
            if D % 4 in (1, 2):
                assert g[D] == 0


def test_H_matches_closed_form(classes):
    H = cohen_H(classes, 300)
    C = closed_form_H(classes.cfg, 300)
    assert H[0] == C[0] == mass(classes.cfg)
    for D in range(1, 301):
        assert H[D] == C[D], D


def test_H_level11_small_values(level11):
    H = cohen_H(level11, 12)
    expect = {0: Fraction(5, 12), 3: Fraction(1, 3), 4: Fraction(1, 2),
              11: Fraction(1, 2), 12: Fraction(4, 3)}
    for D in range(13):
        assert H[D] == expect.get(D, Fraction(0))


def test_content_decomposition_of_counts(level11, level66):
    # the full count at D splits into primitive counts over -D = d·f²
    for classes in (level11, level66):
        for i in range(1, classes.n + 1):
            counts = counts_by_value(ternary_lattice(classes, i), 200)
            for D in range(1, 201):
                if D % 4 in (1, 2):
                    continue
                total = 0
                f = 1
                while f * f <= D:
                    if D % (f * f) == 0 and (-(D // (f * f))) % 4 in (0, 1):
                        d = -(D // (f * f))
                        cnt = optimal_embedding_count(classes, i, d)
                        total += cnt * classes.w[i - 1] // unit_factor(d)
                    f += 1
                assert total == counts.get(D, 0), (i, D)


def test_embedding_identity(level11, level66):
    # summed over classes, embedding counts hit the class number times the
    # product of local factors
    for classes in (level11, level66):
        for d in _discriminants(500):
            lhs, rhs = embedding_count_identity(classes, d)
            assert lhs == rhs, d


def test_embedding_counts_are_integers(level11, level66):
    for classes in (level11, level66):
        prefill_counts(classes, 500)
        for d in _discriminants(500):
            for i in range(1, classes.n + 1):
                cnt = optimal_embedding_count(classes, i, d)
                assert isinstance(cnt, int) and cnt >= 0


def test_embedding_example_level11(level11):
    # at level 11 the Eisenstein integers (d = -3) embed optimally only into
    # the second right order, twice; the Gaussian integers (d = -4) only into
    # the first, twice — each summing to h·(1 - kronecker(d, 11)) = 2
    assert [optimal_embedding_count(level11, i, -3) for i in (1, 2)] == [0, 2]
    assert [optimal_embedding_count(level11, i, -4) for i in (1, 2)] == [2, 0]
    for d in (-3, -4):
        lhs, rhs = embedding_count_identity(level11, d)
        assert lhs == rhs == 2


def test_trace_identity(classes):
    rows = trace_identity_check(classes, 12)
    assert all(r.ok for r in rows)
    assert rows[0].lhs == mass(classes.cfg)


def test_cusp_G_integrality_and_start(level11, v11):
    G = cusp_G(level11, v11, 300)
    for D in range(1, 301):
        assert G[D].denominator == 1
        if D % 4 in (1, 2):
            assert G[D] == 0
    # first nonzero coefficients of the level-11 cusp series
    assert G[3] == -1 and G[4] == 1 and G[11] == 1
    # constant term Σ v_i/e_i = 2/4 - 3/6 = 0
    assert G[0] == 0


def test_cusp_G_all_lines_level66(level66, eig66):
    for _, v in eig66.lines:
        G = cusp_G(level66, v, 200)
        assert all(G[D].denominator == 1 for D in range(1, 201))


def test_cusp_G_certifies_integral_coefficients(level11):
    # (1, 0) is no cusp line: m_D = a_1(D)/2 first fails to be an integer at
    # D = 4, and the certificate names it
    with pytest.raises(CertificateError, match=r"^m_4 is not an integer \(normalization bug\)$"):
        cusp_G(level11, (1, 0), 60)


def test_certificates_hold_under_python_O():
    # the same failing certificate in a child interpreter run with -O, which
    # strips `assert` statements: it must still raise
    src = os.path.dirname(os.path.dirname(ceisen.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import sys\n"
        "from ceisen import LevelConfig, build_class_set, cusp_G\n"
        "print(sys.flags.optimize)\n"
        "try:\n"
        "    cusp_G(build_class_set(LevelConfig.from_primes((11,), 1)), (1, 0), 60)\n"
        "except ArithmeticError as e:\n"
        "    print(type(e).__name__, e)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\nCertificateError m_4 is not an integer (normalization bug)\n"


def test_plus_space_certificate(monkeypatch):
    # a ternary count at a value D ≡ 1 (mod 4) lies outside the plus space and
    # must raise; a fresh class set keeps the session fixtures' counts untouched
    classes = build_class_set(LevelConfig.from_primes((11,), 1))

    def skewed(G, bound):
        allc, prim = counts_with_primitive(G, bound)
        return {**allc, 5: 2}, prim

    monkeypatch.setattr("ceisen.theta32.counts_with_primitive", skewed)
    with pytest.raises(CertificateError, match="plus space"):
        cohen_H(classes, 10)


def test_mass_certificate(monkeypatch, level11):
    # H(0) = Σ 1/e_i is summed apart from the class set's own mass check, so
    # it is checked again: against a formula value of 1/3, what e = (4, 12)
    # would sum to, level 11's H(0) = 5/12 must raise under any interpreter
    # flags
    monkeypatch.setattr(theta32, "mass", lambda cfg: Fraction(1, 3))
    with pytest.raises(CertificateError, match="^class-set mass disagrees with the formula$"):
        cohen_H(level11, 4)


def test_embedding_count_certificate(monkeypatch, level11):
    # class 2 read from class 1's tally: its two primitive vectors of norm 4
    # give u(-4)·2/w_2 = 4/3 embeddings, so the count must raise under any
    # interpreter flags
    counts = theta32._ternary_counts
    monkeypatch.setattr(theta32, "_ternary_counts", lambda classes, i, bound: counts(classes, 1, bound))
    with pytest.raises(CertificateError, match=r"^embedding count u\(d\)·2/w_2 is not an integer \(d=-4\)$"):
        optimal_embedding_count(level11, 2, -4)


def test_ternary_gram_certificate(monkeypatch, level11):
    # a norm form off by one: the first right order has den 2, so the Gram
    # entries over den² = 4 of twice its pure part are not integers
    assert level11.right_orders[0].den == 2
    monkeypatch.setattr(theta32, "norm_pair", lambda a, b, x, y: norm_pair(a, b, x, y) + 1)
    with pytest.raises(CertificateError, match="^ternary Gram must be integral$"):
        ternary_lattice(level11, 1)


def test_cusp_G_rejects_wrong_length(level11):
    with pytest.raises(ValueError):
        cusp_G(level11, (1,), 10)


def test_vector_count_examples(level11):
    counts = [counts_by_value(ternary_lattice(level11, i), 4) for i in (1, 2)]
    assert [c.get(3, 0) for c in counts] == [0, 2]
    assert [c.get(4, 0) for c in counts] == [2, 0]
    # H(3) = Σ_i count_i/(2w_i) = 0/4 + 2/6 = 1/3
    H = cohen_H(level11, 4)
    assert H[3] == Fraction(1, 3)
    assert H[4] == Fraction(1, 2)


def test_nonpositive_inputs_rejected(level11):
    with pytest.raises(ValueError):
        cohen_H(level11, -1)
    with pytest.raises(ValueError):
        closed_form_H(level11.cfg, -1)
    with pytest.raises(ValueError):
        trace_identity_check(level11, -1)
    with pytest.raises(ValueError):
        optimal_embedding_count(level11, 1, -5)  # -5 is not a discriminant


# levels where classes share forms: (fixture, number of distinct forms)
SHARED_LEVELS = [("level66", 2), ("level210_m2", 3), ("level210", 2), ("level389", 23),
                 ("level2310", 4)]


def per_class_theta(classes, weights, D_max):
    """Σ_i weights_i·g_i/w_i from one tally per class, each of its own Gram:
    the sum as it was before classes shared a form's tally, kept as the
    reference."""
    total = [Fraction(0)] * (D_max + 1)
    for i, x in enumerate(weights, 1):
        e = classes.e[i - 1]
        total[0] += Fraction(x, e)
        for D, c in counts_with_primitive(ternary_lattice(classes, i), D_max)[0].items():
            total[D] += Fraction(x * c, e)
    return tuple(total)


@pytest.mark.parametrize("name, forms", SHARED_LEVELS)
def test_shared_tallies_match_per_class_reference(monkeypatch, request, name, forms):
    # a fresh copy of the class set, so no earlier test's tallies are read:
    # cohen_H enumerates once per form, and H, every line's G and every
    # embedding count equal the per-class reference
    cs = request.getfixturevalue(name)
    classes = IdealClassSet(cs.order, cs.ideals, cs.right_orders, cs.e)
    D_max = 400
    calls = []
    real = counts_with_primitive
    monkeypatch.setattr("ceisen.theta32.counts_with_primitive",
                        lambda G, bound: calls.append(G) or real(G, bound))
    assert cohen_H(classes, D_max) == per_class_theta(classes, (1,) * classes.n, D_max)
    assert len(calls) == len(set(calls)) == forms
    for _, v in rational_eigensystem(classes).lines:
        assert cusp_G(classes, v, D_max) == per_class_theta(classes, v, D_max)
    for i in range(1, classes.n + 1):
        _, prim = counts_with_primitive(ternary_lattice(classes, i), D_max)
        for d in _discriminants(D_max):
            expect, rem = divmod(unit_factor(d) * prim.get(-d, 0), classes.w[i - 1])
            assert rem == 0 and optimal_embedding_count(classes, i, d) == expect, (i, d)
    assert len(calls) == forms


@pytest.mark.parametrize("name, forms", SHARED_LEVELS)
def test_form_key_is_signed_permutation_invariant(request, name, forms):
    # a Gram and its random signed-permutation images P·G·Pᵀ share one key;
    # for reduce_gram's output this always holds, since the image is reduced
    # too and only its diagonal is sorted
    classes = request.getfixturevalue(name)
    rng = random.Random(SEED + classes.cfg.N)
    for i in range(1, classes.n + 1):
        G = ternary_lattice(classes, i)
        key = _form_key(G)
        for A in (G, reduce_gram(G)[0]):
            for _ in range(8):
                p = rng.sample(range(3), 3)
                s = [rng.choice((1, -1)) for _ in range(3)]
                image = [[s[k] * s[l] * A[p[k]][p[l]] for l in range(3)] for k in range(3)]
                assert _form_key(image) == key, (i, p, s)


@pytest.mark.parametrize("name, forms", SHARED_LEVELS)
def test_equal_keys_give_equal_counts(request, name, forms):
    # every class's own Gram, counted to 500: classes with one key have one
    # tally, and the key's own tally is that tally
    classes = request.getfixturevalue(name)
    by_key = {}
    for i in range(1, classes.n + 1):
        G = ternary_lattice(classes, i)
        by_key.setdefault(_form_key(G), []).append(counts_with_primitive(G, 500))
    assert len(by_key) == forms
    for key, tallies in by_key.items():
        assert all(t == tallies[0] for t in tallies)
        assert counts_with_primitive(key, 500) == tallies[0]
