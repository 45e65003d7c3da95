"""Brandt matrices and exact rational eigensystems.

The (i, j) entry of the m-th Brandt matrix counts lattice points of a fixed
norm in the pairing lattice conj(I_j)·I_i, divided by the unit count e_j.
Each class ideal is I_i = O·α_i + O·N_i (`order.ideal_generator`, one α_i
per class, kept on classes.cache), and conj(I_j)·O = conj(I_j), the
conjugate of O·I_j = I_j, so conj(I_j)·I_i = N_i·conj(I_j) + conj(I_j)·α_i:
8 generators, the first 4 conj(I_j)'s own HNF rows scaled, not 16 products.
A matrix is the list of its rows, as in `linalg`.  For m ≥ 1 the entries are
integers, as `_pair_counts` certifies; B_0 holds the Fractions 1/e_j.  The
counts are symmetric in (i, j), so every B_m is self-adjoint for
⟨x, y⟩ = Σ x_i·y_i/e_i, hence semisimple, and has the all-ones vector as an
eigenvector, with eigenvalue the row sum b_m.  So the complement of the
all-ones line for ⟨·,·⟩ is invariant, and the split starts from its
`nullspace` basis; both facts are certified at each prime.  Kernels are
taken in Q^n, so a line is an eigenvector of each B_p that split it; the
hecke suite checks that the B_m commute.  For a prime p ∤ N, a rational
eigenvalue of B_p on the complement is the integer a_p of a weight-2 cusp
form, with |a_p| ≤ 2√p by the Ramanujan–Petersson bound, which in weight 2
is a theorem (Eichler–Shimura, Weil).  So the rational cusp lines are
kernels of B_p − a over those few a, prime by prime, with no characteristic
polynomial, each handed on as a plain integer vector v.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from typing import NamedTuple

from .arith import certify, factorize
from .lattice import counts_by_value
from .linalg import charpoly  # noqa: F401  no caller; benchmarks/tracer.py wraps it at this site
from .linalg import mat_mul, nullspace, primitive_vector, rref
from .order import IdealClassSet, ideal_generator, product_lattice
from .qform import LevelConfig, good_primes


def expected_row_sum(m: int, cfg: LevelConfig) -> int:
    """Row sum of the m-th Brandt matrix: the m-th Dirichlet coefficient of
    the order's ideal zeta function.

    Multiplicative, with local factor sigma(p^k) away from the level, 1 at
    ramified primes, and sigma(q^k) + q*sigma(q^(k-1)) at q | M (integral
    ideals survive in both local directions there).  When gcd(m, M) = 1 this
    equals the divisor sum over d | m coprime to the ramified part — in
    particular always at M = 1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    total = 1
    for p, k in factorize(m).factors:
        if cfg.P.value % p == 0:
            continue
        sigma_k = (p ** (k + 1) - 1) // (p - 1)
        if cfg.M.value % p == 0:
            sigma_km1 = (p ** k - 1) // (p - 1)
            total *= sigma_k + p * sigma_km1
        else:
            total *= sigma_k
    return total


def _pair_counts(classes: IdealClassSet, bound: int) -> dict:
    """counts[(i,j)][m] = #{β ∈ conj(I_j)·I_i : N(β) = m·N(I_i)·N(I_j)}, m ≤ bound.

    Counts are symmetric in (i, j) (conjugation gives a norm-preserving
    bijection between the two pairing lattices), so only i ≤ j is enumerated.
    The units of both right orders act freely on each norm's vectors, so every
    count is checked to be a multiple of lcm(e_i, e_j): B_m (m ≥ 1) is integral.
    Each pairing lattice is formed once per sweep, from the 8 generators
    N_i·conj(I_j) and conj(I_j)·α_i.  Results, and the α_i, live on
    classes.cache, and the counts are extended when a larger bound is
    requested.
    """
    cache = classes.cache.setdefault("pair_counts", {"bound": 0, "counts": {}})
    if cache["bound"] >= bound:
        return cache["counts"]
    if "alpha" not in classes.cache:
        classes.cache["alpha"] = [ideal_generator(I) for I in classes.ideals]
    alpha = classes.cache["alpha"]
    counts: dict = {}
    conjugates = [I.lattice.conjugate() for I in classes.ideals]
    for i in range(classes.n):
        Ii = classes.ideals[i]
        # I_i = O·α_i + O·N_i, so W = conj(I_j)·I_i = N_i·conj(I_j) + conj(I_j)·α_i
        den = Ii.lattice.den
        gens = [(Ii.norm * den, 0, 0, 0), alpha[i]]
        for j in range(i, classes.n):
            Ij = classes.ideals[j]
            W = product_lattice(conjugates[j], den, gens)
            # W's integer Gram is den_W² times its norm form, so norm m·N_i·N_j
            # is the value m·scale
            scale = Ii.norm * Ij.norm * W.den**2
            units = lcm(classes.e[i], classes.e[j])
            raw = counts_by_value(W.gram(), bound * scale)
            certify(all(val % scale == 0 for val in raw),
                    "pairing lattice norm not divisible by N_i·N_j")
            certify(all(cnt % units == 0 for cnt in raw.values()),
                    "pair count not divisible by lcm(e_i, e_j)")
            per_m = {val // scale: cnt for val, cnt in raw.items()}
            counts[(i, j)] = per_m
            counts[(j, i)] = per_m
    cache["bound"] = bound
    cache["counts"] = counts
    return counts


def brandt_matrix(classes: IdealClassSet, m: int) -> list[list[int]]:
    """The Brandt matrix B_m (m ≥ 0) as its rows, b_ij(m) = (pair count)/e_j:
    integer rows for m ≥ 1, and at m = 0 every row is (1/e_1, ..., 1/e_n)
    in Fractions."""
    if m < 0:
        raise ValueError("m must be >= 0")
    n = classes.n
    if m == 0:
        return [[Fraction(1, e) for e in classes.e] for _ in range(n)]
    counts = _pair_counts(classes, m)
    return [[counts[(i, j)].get(m, 0) // classes.e[j] for j in range(n)] for i in range(n)]


def brandt_matrices_upto(classes: IdealClassSet, m_max: int) -> list[list[list[int]]]:
    """[B_0, B_1, ..., B_{m_max}] with one enumeration sweep per class pair."""
    _pair_counts(classes, max(m_max, 1))
    return [brandt_matrix(classes, m) for m in range(m_max + 1)]


class EigenSystem(NamedTuple):
    """Simultaneous rational eigendata of the Brandt matrices at `primes`.

    u_eigenvalues are the all-ones eigenvector's, the b_p every row sums to;
    lines holds each one-dimensional rational eigenspace of its complement as
    (eigenvalue map, v), sorted by eigenvalue tuple, with v normalized so
    that (v_i/w_i) is a primitive integer vector whose first nonzero entry is
    positive.  unresolved lists (dimension, eigenvalue map) for every
    simultaneous kernel of dimension > 1 left after the last prime, then for
    every part set aside because B_p has no rational eigenvector on it, with
    the eigenvalues its block had at the primes before p.
    """

    primes: tuple[int, ...]
    u_eigenvalues: dict[int, int]
    lines: list[tuple[dict[int, int], tuple[int, ...]]]
    unresolved: list[tuple[int, dict[int, int]]]


class _Block(NamedTuple):
    basis: list[list[int]]  # primitive, positive pivots; RREF except the start
    eigs: dict[int, int]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _split_block(blk: _Block, B, p: int) -> tuple[list[_Block], int]:
    """The kernels of B_p − a on one block, for every integer a with
    |a| ≤ 2√p (Hasse), and the dimension left over.

    Each nonzero kernel, taken in Q^n, becomes a block with eigenvalue a at
    p; a one-dimensional block reads its eigenvalue with `eigenvalue_of`.
    The rest of the block holds no rational eigenvector of B_p, so no
    rational line, and it is only counted.  Kernels for distinct a are
    orthogonal for Σ x_i·y_i/e_i: B_p is certified self-adjoint for it.
    """
    V = blk.basis
    k = len(V)
    if k == 1:
        return [_Block(V, {**blk.eigs, p: eigenvalue_of(B, V[0])})], 0
    # row r of W is B·v_r, so c lies in the kernel of (W − a·V)ᵀ exactly
    # when B·x = a·x for x = c·V, the lift of c to Q^n
    W = [[sum(map(mul, v, b)) for b in B] for v in V]
    r = isqrt(4 * p)
    out: list[_Block] = []
    consumed = 0
    for a in range(-r, r + 1):
        null = nullspace([[w[i] - a * v[i] for w, v in zip(W, V)] for i in range(len(B))])
        if not null:
            continue
        basis, _ = rref(mat_mul(null, V))
        out.append(_Block(basis, {**blk.eigs, p: a}))
        consumed += len(basis)
        if consumed == k:
            break
    return out, k - consumed


def rational_eigensystem(classes: IdealClassSet) -> EigenSystem:
    """Split Q^n into simultaneous rational eigenspaces of the Brandt matrices
    at the first five primes coprime to N.

    The split starts from `nullspace` of the weights lcm(e)/e_i, the
    complement of the all-ones line for Σ x_i·y_i/e_i.  At each p, B_p must
    first be self-adjoint for that form with every row summing to b_p, so
    that it keeps the complement (CertificateError otherwise).  Each
    one-dimensional piece is reported with integer eigenvalues and its
    normalized vector; higher-dimensional kernels, and parts set aside as
    holding no rational line, are unresolved.
    """
    cfg = classes.cfg
    primes = good_primes(cfg, 5)
    e_lcm = lcm(*classes.e)
    weights = [e_lcm // e for e in classes.e]
    blocks = [_Block(nullspace([weights]), {})]
    set_aside: list[tuple[int, dict[int, int]]] = []
    b = {p: expected_row_sum(p, cfg) for p in primes}
    _pair_counts(classes, max(primes))  # one sweep serves every B_p
    for p in primes:
        B = brandt_matrix(classes, p)
        certify(all(weights[i] * B[i][j] == weights[j] * B[j][i]
                    for i in range(classes.n) for j in range(i)),
                f"B_{p} not self-adjoint for Σ x_i·y_i/e_i")
        certify(all(sum(row) == b[p] for row in B),
                f"all-ones eigenvalues: a row of B_{p} does not sum to b_p = {b[p]}")
        split: list[_Block] = []
        for blk in blocks:
            kernels, rest = _split_block(blk, B, p)
            split += kernels
            if rest:
                set_aside.append((rest, blk.eigs))
        blocks = split
    unresolved = [(blk.dim, blk.eigs) for blk in blocks if blk.dim != 1] + set_aside
    lines: list[tuple[dict[int, int], tuple[int, ...]]] = []
    for blk in blocks:
        if blk.dim == 1:
            # (x_i/w_i)·lcm(w) = x_i·weights_i as e_i = 2·w_i, made primitive, times w_i
            prim = primitive_vector(list(map(mul, blk.basis[0], weights)))
            lines.append((blk.eigs, tuple(map(mul, prim, classes.w))))
    lines.sort(key=lambda le: tuple(le[0][p] for p in primes))
    return EigenSystem(tuple(primes), b, lines, unresolved)


def eigenvalue_of(B: list[list[int]], v: tuple[int, ...]) -> int:
    """The integer eigenvalue of the integer matrix B (a Brandt matrix B_p,
    p ≥ 1) at a known eigenvector v, read off one coordinate and checked on
    all."""
    n = len(B)
    if len(v) != n:
        raise ValueError(f"need one weight per class ({n}), got {len(v)}")
    if not any(v):
        raise ValueError("the zero vector is not an eigenvector")
    Bv = [sum(map(mul, row, v)) for row in B]
    i = next(i for i in range(n) if v[i])
    lam = Bv[i] // v[i]
    certify(all(Bv[r] == lam * v[r] for r in range(n)), "v is not an eigenvector of B")
    return lam
