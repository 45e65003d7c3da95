"""End-to-end acceptance checks.

Every identity here is exact rational arithmetic: the theta-side coefficient
pipeline (ideal classes -> ternary lattices -> vector counts) must agree with
the closed class-number formula coefficient by coefficient, the Brandt
matrices must satisfy their structural identities, congruences mod small
primes must hold (and fail where they should), and the class-number routine
must agree with an independent brute-force enumeration.
"""

import gc
import json
from fractions import Fraction
from math import gcd

import pytest

from ceisen.arith import kronecker, primes_up_to
from ceisen.brandt import (
    brandt_matrices_upto,
    brandt_matrix,
    expected_row_sum,
    rational_eigensystem,
)
from ceisen.lattice import counts_with_primitive
from ceisen.linalg import mat_mul
from ceisen.order import build_class_set, classes_from_json, classes_to_json
from ceisen.qform import (
    LevelConfig,
    class_number,
    closed_form_H,
    corollary_H,
    fundamental_parts,
    kronecker_condition,
    mass,
    s_ramified,
    unit_factor,
)
from ceisen.quatalg import construct_algebra, hilbert_symbol
from ceisen.theta32 import (
    cohen_H,
    cusp_G,
    embedding_count_identity,
    optimal_embedding_count,
    prefill_counts,
    ternary_lattice,
)
from ceisen.verify import (
    coefficient_congruence,
    divisibility_table,
    eigenvalue_congruence,
    trace_identity_check,
)

D_MAX = 2000


@pytest.fixture(scope="module")
def H11(level11):
    prefill_counts(level11, D_MAX)
    return cohen_H(level11, D_MAX)


@pytest.fixture(scope="module")
def H66(level66):
    prefill_counts(level66, D_MAX)
    return cohen_H(level66, D_MAX)


@pytest.fixture(scope="module")
def H210(level210):
    prefill_counts(level210, D_MAX)
    return cohen_H(level210, D_MAX)


# ---------------------------------------------------------------------------
# the two coefficient pipelines agree to 2000 at all three configurations


@pytest.mark.parametrize("fixture", ["level11", "level66", "level210"])
def test_dual_pipeline_agreement_to_2000(request, fixture):
    classes = request.getfixturevalue(fixture)
    H = request.getfixturevalue({"level11": "H11", "level66": "H66",
                                 "level210": "H210"}[fixture])
    cfg = classes.cfg
    C = closed_form_H(cfg, D_MAX)
    assert H[0] == C[0] == mass(cfg)
    for D in range(1, D_MAX + 1):
        assert H[D] == C[D], (cfg.describe(), D)


# ---------------------------------------------------------------------------
# piecewise two-power tables at fundamental admissible indices


def test_two_power_table_level66(level66, H66):
    cfg = level66.cfg
    hits = 0
    parts = fundamental_parts(D_MAX)
    for D in range(3, D_MAX + 1):
        if parts[D] != D:
            continue
        if any(kronecker(-D, p) == 1 for p in (2, 3, 11)):
            continue
        s = sum(1 for p in (2, 3, 11) if kronecker(-D, p) == 0)
        expected = Fraction(class_number(-D), unit_factor(-D)) * Fraction(2) ** (2 - s)
        assert H66[D] == expected == corollary_H(D, cfg), D
        hits += 1
    assert hits == 139  # fundamental admissible indices up to 2000


def test_two_power_table_level210(level210, H210):
    cfg = level210.cfg
    hits = 0
    seen_s = set()
    parts = fundamental_parts(D_MAX)
    for D in range(3, D_MAX + 1):
        if parts[D] != D:
            continue
        if any(kronecker(-D, p) == 1 for p in (2, 3, 7)):
            continue
        if kronecker(-D, 5) == -1:
            continue
        assert kronecker_condition(D, cfg)
        s = sum(1 for p in (2, 3, 5, 7) if kronecker(-D, p) == 0)
        expected = Fraction(class_number(-D), unit_factor(-D)) * Fraction(2) ** (3 - s)
        assert H210[D] == expected == corollary_H(D, cfg), D
        assert s == s_ramified(D, cfg)
        seen_s.add(s)
        hits += 1
    assert hits == 82  # fundamental admissible indices up to 2000
    assert {0, 1, 2, 3} <= seen_s  # the table's cases all occur


# ---------------------------------------------------------------------------
# mass formula with exact enumeration stop


def test_mass_values(level11, level66, level210):
    for classes, value in [(level11, Fraction(5, 12)),
                           (level66, Fraction(5, 6)),
                           (level210, Fraction(3))]:
        assert mass(classes.cfg) == value
        assert classes.total_mass() == value
        assert sum(Fraction(1, 2 * w) for w in classes.w) == value


def test_enumeration_never_overshoots():
    # a fresh build stops exactly at the mass (overshoot would raise)
    from ceisen.order import build_class_set

    classes = build_class_set(LevelConfig.from_primes((2, 3, 11), 1))
    assert classes.total_mass() == mass(classes.cfg)
    assert classes.n == 4


# ---------------------------------------------------------------------------
# trace identity


@pytest.mark.parametrize("fixture", ["level11", "level66"])
def test_trace_identity_to_30(request, fixture):
    classes = request.getfixturevalue(fixture)
    rows = trace_identity_check(classes, 30)
    assert len(rows) == 31
    assert all(r.ok for r in rows)
    assert rows[0].lhs == mass(classes.cfg)


# ---------------------------------------------------------------------------
# Brandt structure


@pytest.mark.parametrize("fixture", ["level11", "level66", "level210"])
def test_brandt_structure(request, fixture):
    classes = request.getfixturevalue(fixture)
    cfg = classes.cfg
    n = classes.n
    mats = brandt_matrices_upto(classes, 100)
    # B_1 = I
    assert all(mats[1][i][j] == (1 if i == j else 0)
               for i in range(n) for j in range(n))
    for m in range(1, 51):
        b_m = expected_row_sum(m, cfg)
        # restricted divisor sum, valid whenever m is coprime to M
        if gcd(m, cfg.M.value) == 1:
            assert b_m == sum(d for d in _divisors(m) if gcd(d, cfg.P.value) == 1)
        # row sums and the all-ones eigenvector
        assert all(s == b_m for s in map(sum, mats[m])), m
        for i in range(n):
            assert sum(mats[m][i][j] for j in range(n)) == b_m
    if cfg.M.value > 1:
        assert expected_row_sum(5, cfg) == 11  # 2q+1 at q | M
    # multiplicativity on coprime pairs
    checked = 0
    for m in range(2, 101):
        for mp in range(m + 1, 101):
            if m * mp > 100 or gcd(m, mp) != 1 or gcd(m * mp, cfg.N) != 1:
                continue
            assert mat_mul(mats[m], mats[mp]) == mats[m * mp], (m, mp)
            checked += 1
    if cfg.N < 100:
        assert checked >= 5
    else:
        # no coprime-to-210 product fits under 100; check one above instead
        assert mat_mul(mats[11], mats[13]) == brandt_matrix(classes, 143)


def _divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


# ---------------------------------------------------------------------------
# congruences at level 11: l = 5 passes, l = 7 is the negative control


def test_congruence_suite_level11_l5(level11, v11):
    assert eigenvalue_congruence(level11, v11, 5, 50) == []
    H = cohen_H(level11, 300)
    G = cusp_G(level11, v11, 300)
    coef = coefficient_congruence(H, G, 5)
    assert coef.lam in {1, 2, 3, 4}
    assert coef.passed and coef.failures == []
    rows = divisibility_table(level11, v11, 5, 500)
    assert rows and all(r.agree for r in rows)


def test_congruence_suite_level11_l7_negative(level11, v11):
    assert eigenvalue_congruence(level11, v11, 7, 50)
    H = cohen_H(level11, 300)
    G = cusp_G(level11, v11, 300)
    coef = coefficient_congruence(H, G, 7)
    assert coef.lam is None and not coef.passed


# ---------------------------------------------------------------------------
# class numbers against an independent brute-force oracle


def _oracle_class_number(d):
    """Count reduced primitive forms by factoring 4ac = b² - d directly:
    |b| <= a <= c with b >= 0 on the boundary, gcd(a, b, c) = 1."""
    total = 0
    b = d % 2
    while 3 * b * b <= -d:
        m = (b * b - d) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if gcd(gcd(a, b), c) == 1:
                    total += 1 if (b == 0 or a == b or a == c) else 2
            a += 1
        b += 2
    return total


def test_class_number_oracle_to_2000():
    for d in range(-3, -2001, -1):
        if d % 4 in (-3, 0):
            assert class_number(d) == _oracle_class_number(d), d


def test_class_number_spot_values():
    assert _oracle_class_number(-3) == class_number(-3) == 1
    assert _oracle_class_number(-4) == class_number(-4) == 1
    assert _oracle_class_number(-23) == class_number(-23) == 3
    assert _oracle_class_number(-47) == class_number(-47) == 5


# ---------------------------------------------------------------------------
# property suites


def test_plus_space_everywhere(level11, v11, H11, H66, H210):
    for H in (H11, H66, H210):
        for D in range(D_MAX + 1):
            if D % 4 in (1, 2):
                assert H[D] == 0
    G = cusp_G(level11, v11, 600)
    for D in range(601):
        if D % 4 in (1, 2):
            assert G[D] == 0
    for i in range(1, level11.n + 1):
        allc, _ = counts_with_primitive(ternary_lattice(level11, i), 200)
        assert all(D % 4 in (0, 3) for D in allc)


def test_embedding_suite_to_500(level11, level66):
    for classes in (level11, level66):
        for d in range(-3, -501, -1):
            if d % 4 not in (-3, 0):
                continue
            for i in range(1, classes.n + 1):
                cnt = optimal_embedding_count(classes, i, d)
                assert isinstance(cnt, int) and cnt >= 0
            lhs, rhs = embedding_count_identity(classes, d)
            assert lhs == rhs, (classes.cfg.describe(), d)


def test_hilbert_product_formula():
    for ramified in [{2}, {11}, {2, 3, 11}, {2, 3, 7}]:
        B = construct_algebra(ramified)
        a, b = B.a, B.b
        # product over all places is trivial: the infinite place contributes
        # -1 (definite), so finite symbols must multiply to -1
        finite = 1
        bad = 2 * abs(a) * abs(b)
        for p in primes_up_to(bad):
            sym = hilbert_symbol(a, b, p)
            finite *= sym
            if sym == -1:
                assert p in B.ramified
        assert finite == -1
        assert set(B.ramified) == ramified
        # places not dividing 2ab are unramified
        for p in B.ramified:
            assert bad % p == 0 or hilbert_symbol(a, b, p) == -1


def test_cli_byte_determinism_including_threads():
    import contextlib
    import io

    from ceisen.cli import main

    def run(args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(args)
        return rc, out.getvalue(), err.getvalue()

    for args in (
        ["hseries", "--ramified", "11", "--dmax", "80"],
        ["shatable", "--ramified", "11", "--l", "5", "--dmax", "80"],
        ["verify", "--suite", "trace", "--ramified", "2,3,11", "--mmax", "5"],
    ):
        runs = [run(args), run(args), run(args + ["--threads", "3"]),
                run(args + ["--threads", "7"])]
        assert all(r == runs[0] for r in runs[1:]), args


def test_pipeline_leaves_no_reference_cycle():
    # with the collector off, reference counting alone must free everything
    # the pipeline made: class sets built, written to JSON and read back, the
    # theta and closed series, eigensystems and Brandt matrices.  A full
    # collection afterwards then finds no garbage.
    gc.collect()
    gc.disable()
    try:
        for primes, M in [((2, 3, 7), 5), ((197,), 1), ((389,), 1)]:
            cfg = LevelConfig.from_primes(primes, M)
            cs = classes_from_json(json.loads(json.dumps(classes_to_json(build_class_set(cfg)))))
            results = (cohen_H(cs, 200), closed_form_H(cfg, 200), rational_eigensystem(cs),
                       brandt_matrices_upto(cs, 10))
            del results, cs
        assert gc.collect() == 0
    finally:
        gc.enable()
