from fractions import Fraction

import pytest

from ceisen.brandt import expected_row_sum
from ceisen.qform import class_number
from ceisen.theta32 import cohen_H, cusp_G
from ceisen.verify import (
    CongruencePreconditionError,
    admissible_fundamental_Ds,
    best_coefficient_congruence,
    coefficient_congruence,
    divisibility_table,
    eigenvalue_congruence,
)


def test_eigenvalue_congruence_level11_l5(level11, v11):
    assert eigenvalue_congruence(level11, v11, 5, 50) == []


def test_eigenvalue_congruence_l7_fails(level11, v11):
    failures = eigenvalue_congruence(level11, v11, 7, 50)
    assert (2, 5, 3) in failures  # a_2 = -2 ≡ 5, 1+2 = 3 (mod 7)


def test_coefficient_congruence_level11_l5(level11, v11):
    H = cohen_H(level11, 300)
    G = cusp_G(level11, v11, 300)
    rep = coefficient_congruence(H, G, 5)
    assert rep.lam in {1, 2, 3, 4}
    assert rep.reason == "found" and rep.passed and rep.failures == []
    assert rep.checked_max == 300


def test_coefficient_congruence_l7_fails(level11, v11):
    H = cohen_H(level11, 300)
    G = cusp_G(level11, v11, 300)
    rep = coefficient_congruence(H, G, 7)
    assert rep.lam is None and rep.reason == "inconsistent"
    assert rep.failures and not rep.passed


def test_coefficient_congruence_l3_cleared_mode(level11, v11):
    # 3 divides denominators of H here; the cleared comparison runs and
    # honestly reports that no unit λ works
    H = cohen_H(level11, 120)
    G = cusp_G(level11, v11, 120)
    assert any(H[D].denominator % 3 == 0 for D in range(121))
    rep = coefficient_congruence(H, G, 3)
    assert rep.lam is None and not rep.passed


def test_eigenvalue_congruence_each_line_level66(level66, eig66):
    # the primes <= 19 coprime to 66 are exactly the eigensystem's primes, so
    # the failures follow from each line's own eigenvalues
    b = {p: expected_row_sum(p, level66.cfg) for p in eig66.primes}
    for l in (5, 7):
        for eigs, v in eig66.lines:
            failures = eigenvalue_congruence(level66, v, l, 19)
            assert failures == [(p, eigs[p] % l, b[p] % l)
                                for p in eig66.primes if (eigs[p] - b[p]) % l]


def test_eigenvalue_congruence_l3_precondition(level11, v11):
    with pytest.raises(CongruencePreconditionError):
        eigenvalue_congruence(level11, v11, 3, 50)


def test_best_coefficient_congruence_l3_precondition(level11, eig11):
    # w = (2, 3) at level 11: l = 3 puts 3 in the denominator of H(0) = 5/12,
    # so no line is compared, as in the eigenvalue congruence
    with pytest.raises(CongruencePreconditionError, match="w_i = 3 is not invertible mod 3"):
        best_coefficient_congruence(level11, eig11, cohen_H(level11, 20), 3)


def test_bad_moduli_rejected(level11, v11):
    H = cohen_H(level11, 20)
    G = cusp_G(level11, v11, 20)
    for l in (2, 9, 15):
        with pytest.raises(CongruencePreconditionError):
            coefficient_congruence(H, G, l)
        with pytest.raises(CongruencePreconditionError):
            eigenvalue_congruence(level11, v11, l, 20)


def test_series_range_mismatch(level11, v11):
    H = cohen_H(level11, 30)
    G = cusp_G(level11, v11, 20)
    with pytest.raises(CongruencePreconditionError):
        coefficient_congruence(H, G, 5)


def test_indeterminate_report():
    zero = (Fraction(0),) * 11
    rep = coefficient_congruence(zero, zero, 5)
    assert rep.lam is None and rep.reason == "indeterminate"
    assert not rep.failures


def test_inconsistent_vanishing_report():
    # no index has both sides units mod 5, so there is no λ; the failures are
    # (D, G mod 5, H mod 5) where one side alone is non-zero: H, then G
    for h, g, failures in [((0, 5, 1), (0, 5, 5), [(2, 0, 1)]),
                           ((0, 10, 0, 0), (0, 0, 3, 5), [(2, 3, 0)])]:
        rep = coefficient_congruence(tuple(map(Fraction, h)), tuple(map(Fraction, g)), 5)
        assert rep.lam is None and rep.reason == "inconsistent"
        assert rep.failures == failures


def test_reports_never_share_failures():
    # a report is a NamedTuple, so its failures list has no default to share
    zero = (Fraction(0),) * 3
    one = tuple(Fraction(x) for x in (1, 1, 1))
    reports = [coefficient_congruence(zero, zero, 5), coefficient_congruence(one, one, 5),
               coefficient_congruence(one, one, 7)]
    reports[0].failures.append((0, 0, 0))
    assert [len(r.failures) for r in reports] == [1, 0, 0]
    assert len({id(r.failures) for r in reports}) == 3


def test_best_line_level11(level11, eig11):
    H = cohen_H(level11, 300)
    rep, v = best_coefficient_congruence(level11, eig11, H, 5)
    assert v == (2, -3)
    assert rep.lam == 3 and rep.passed


def test_best_line_level66_l5(level66, eig66):
    H = cohen_H(level66, 300)
    rep, v = best_coefficient_congruence(level66, eig66, H, 5)
    assert v == (3, -2, -2, 3)
    assert rep.lam == 2 and rep.passed


def test_admissible_family_level11(level11):
    Ds = admissible_fundamental_Ds(level11.cfg, 100)
    # fundamental, and -D is a non-residue or ramified at 11
    assert Ds[:6] == [3, 4, 11, 15, 20, 23]
    assert 7 not in Ds  # kronecker(-7, 11) = 1: split, excluded
    assert 8 not in Ds
    for D in Ds:
        assert (-D) % 4 in (0, 1)


def test_divisibility_table_level11_l5(level11, v11):
    rows = divisibility_table(level11, v11, 5, 500)
    assert len(rows) == 83
    assert all(r.agree for r in rows)
    for r in rows:
        assert r.h == class_number(-r.D)
        assert r.h_mod_l == r.h % 5 and r.m_D_mod_l == r.m_D % 5
        assert r.agree == ((r.h % 5 == 0) == (r.m_D % 5 == 0))
    # D = 47: h = 5 and the cusp coefficient vanishes mod 5 together
    row47 = next(r for r in rows if r.D == 47)
    assert row47.h == 5 and row47.m_D % 5 == 0


def test_divisibility_table_l7_negative_control(level11, v11):
    rows = divisibility_table(level11, v11, 7, 500)
    assert any(not r.agree for r in rows)
    rate = Fraction(sum(r.agree for r in rows), len(rows))
    assert rate < 1


def test_best_line_requires_line(level11, eig11):
    bare = eig11._replace(lines=[])
    with pytest.raises(CongruencePreconditionError):
        best_coefficient_congruence(level11, bare, cohen_H(level11, 10), 5)
