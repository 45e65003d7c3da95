"""Congruence suites and the divisibility study.

Two congruences are checked mod an odd prime l: the eigenvalue congruence
a_p ≡ (row sum) for good primes p, and the coefficient congruence
λ·(cusp coefficients) ≡ (Eisenstein coefficients) for a single unit λ.  The
divisibility table then compares l | m_D against l | h(−D) over the
admissible family of fundamental discriminants.  Every check takes the
rational cusp line v as a plain integer vector; only the search for the best
line reads the whole eigensystem.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .arith import is_prime, primes_up_to
from .brandt import EigenSystem, brandt_matrices_upto, eigenvalue_of, expected_row_sum
from .order import IdealClassSet
from .qform import (LevelConfig, class_number, fundamental_parts, kronecker_condition,
                    s_ramified)
from .theta32 import cusp_G


class CongruencePreconditionError(Exception):
    """The congruence hypotheses fail before any comparison can run."""


class CongruenceReport(NamedTuple):
    """The coefficient congruence λ·G ≡ H (mod l); failures are (D, lhs, rhs),
    a list of its own in every report."""

    lam: int | None
    reason: str  # "found" | "indeterminate" | "inconsistent"
    checked_max: int  # D_max
    failures: list[tuple[int, int, int]]

    @property
    def passed(self) -> bool:
        return self.lam is not None and not self.failures


def _require_odd_prime(l: int) -> None:
    if l == 2 or not is_prime(l):
        raise CongruencePreconditionError(f"l = {l} is not an odd prime")


def _require_unit_weights(classes: IdealClassSet, l: int) -> None:
    # l | w_i puts l in the denominator of H(0) = Σ 1/e_i and of v_i/w_i
    for w in classes.w:
        if w % l == 0:
            raise CongruencePreconditionError(f"w_i = {w} is not invertible mod {l}")


def eigenvalue_congruence(
    classes: IdealClassSet, v: tuple[int, ...], l: int, p_max: int
) -> list[tuple[int, int, int]]:
    """Check a_p ≡ b_p (mod l) for the cusp line v at every prime p ≤ p_max
    coprime to the level: the failures (p, a_p mod l, b_p mod l), empty when
    the congruence holds; with no such prime it raises."""
    _require_odd_prime(l)
    _require_unit_weights(classes, l)
    cfg = classes.cfg
    primes = [p for p in primes_up_to(p_max) if cfg.N % p]
    if not primes:
        raise CongruencePreconditionError(f"no prime p <= {p_max} is coprime to N = {cfg.N}")
    mats = brandt_matrices_upto(classes, primes[-1])
    failures = []
    for p in primes:
        a_p = eigenvalue_of(mats[p], v)
        b_p = expected_row_sum(p, cfg)
        if (a_p - b_p) % l != 0:
            failures.append((p, a_p % l, b_p % l))
    return failures


def coefficient_congruence(
    H: tuple[Fraction, ...], G: tuple[Fraction, ...], l: int
) -> CongruenceReport:
    """Find a unit λ with λ·G ≡ H (mod l) coefficientwise, if one exists.

    Both series are first cleared by the global lcm of their coefficient
    denominators, so the comparison is between integers; when l does not
    divide that lcm this is equivalent to the direct rational comparison.
    λ comes from the first index where both cleared reductions are units mod
    l, and k·G ≡ H is then checked everywhere with k = λ, or k = 1 when no such
    index exists: the failures are then the D where one side alone vanishes.
    Any failure makes the report "inconsistent" with lam=None; with none, it
    is "found", or "indeterminate" when both series vanish mod l.
    """
    _require_odd_prime(l)
    if len(H) != len(G):
        raise CongruencePreconditionError("series cover different coefficient ranges")
    D_max = len(H) - 1
    L = lcm(*(c.denominator for c in (*H, *G)))
    A = [c.numerator * (L // c.denominator) for c in H]  # Eisenstein side, cleared
    B = [c.numerator * (L // c.denominator) for c in G]  # cusp side, cleared
    lam = next(((a * pow(b, -1, l)) % l for a, b in zip(A, B) if a % l and b % l), None)
    k = lam or 1
    failures = [(D, (k * b) % l, a % l) for D, (a, b) in enumerate(zip(A, B)) if (k * b - a) % l]
    if failures:
        return CongruenceReport(None, "inconsistent", D_max, failures)
    return CongruenceReport(lam, "indeterminate" if lam is None else "found", D_max, [])


def best_coefficient_congruence(
    classes: IdealClassSet, eig: EigenSystem, H: tuple[Fraction, ...], l: int
) -> tuple[CongruenceReport, tuple[int, ...]]:
    """Try every rational cusp line in deterministic order; return the first
    whose G admits a global λ, else the first line's report."""
    _require_odd_prime(l)
    if not eig.lines:
        raise CongruencePreconditionError("no rational cusp line available")
    _require_unit_weights(classes, l)
    first_report = None
    for _, v in eig.lines:
        report = coefficient_congruence(H, cusp_G(classes, v, len(H) - 1), l)
        if report.lam is not None:
            return report, v
        if first_report is None:
            first_report = report
    return first_report, eig.lines[0][1]


class DivisibilityRow(NamedTuple):
    D: int
    fundamental: bool
    s: int
    h: int
    h_mod_l: int
    m_D: int
    m_D_mod_l: int
    agree: bool


def admissible_fundamental_Ds(cfg: LevelConfig, D_max: int) -> list[int]:
    """D ≤ D_max with −D fundamental and the level's Kronecker condition."""
    F = fundamental_parts(D_max)
    return [D for D in range(3, D_max + 1) if F[D] == D and kronecker_condition(D, cfg)]


def divisibility_table(
    classes: IdealClassSet, v: tuple[int, ...], l: int, D_max: int
) -> list[DivisibilityRow]:
    """One row per admissible fundamental −D: does l | h(−D) ⇔ l | m_D hold
    for the cusp line v?"""
    _require_odd_prime(l)
    G = cusp_G(classes, v, D_max)
    cfg = classes.cfg
    rows = []
    for D in admissible_fundamental_Ds(cfg, D_max):
        h = class_number(-D)
        m_D = int(G[D])
        agree = (h % l == 0) == (m_D % l == 0)
        rows.append(DivisibilityRow(
            D=D, fundamental=True, s=s_ramified(D, cfg), h=h, h_mod_l=h % l,
            m_D=m_D, m_D_mod_l=m_D % l, agree=agree,
        ))
    return rows
