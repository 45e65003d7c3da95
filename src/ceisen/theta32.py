"""The weight-3/2 side: ternary trace-zero lattices and their theta series.

For each ideal class, the trace-zero part of Z + 2R_i, which is twice the
pure part of R_i, is a rank-3 positive definite lattice with integral Gram
matrix, built from R_i's integer rows, whose represented values are
≡ 0, 3 (mod 4).  Counting vectors gives the series g_i; one weighted sum
Σ x_i g_i/w_i gives the half-integral-weight Eisenstein series H (x = all
ones) and the cusp-side series G (x = a rational cusp line v).  Series are
plain tuples of exact coefficients, indexed by D.  Primitive-vector counts
give optimal-embedding numbers which tie H to pure class-number data.
Counts are tallied per form: the classes with one `_form_key` share a tally.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import lcm

from .arith import certify
from .lattice import counts_with_primitive, definite_echelon, reduce_gram
from .linalg import hnf
from .order import IdealClassSet
from .qform import class_number, local_factors, mass, unit_factor
from .quatalg import norm_pair


def ternary_lattice(classes: IdealClassSet, i: int) -> tuple[tuple[int, ...], ...]:
    """The integral Gram matrix of the trace-zero rank-3 lattice of Z + 2R_i
    (1-based class index i).

    n + 2x (x ∈ R) has trace zero iff n = -tr(x), and then it is x - x̄: the
    lattice is twice the pure part of R, spanned by (0, 2h)/den for the HNF
    rows h of R's pure coordinates.
    """
    if not 1 <= i <= classes.n:
        raise ValueError("class index is 1-based and must be in 1..n")
    R = classes.right_orders[i - 1]
    B = R.algebra
    elems = [(0, *(2 * x for x in h)) for h in hnf([r[1:] for r in R.rows])]
    certify(len(elems) == 3, "trace-zero sublattice must have rank 3")
    d2 = R.den**2
    N = [[norm_pair(B.a, B.b, u, v) for v in elems] for u in elems]
    certify(all(x % d2 == 0 for row in N for x in row), "ternary Gram must be integral")
    G = tuple(tuple(x // d2 for x in row) for row in N)
    definite_echelon(G)  # raises if not positive definite
    return G


def _form_key(G: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The least P·R·Pᵀ (rows) over the signed permutations P with s_0 = 1
    that keep the sorted diagonal of R = T·G·Tᵀ, `reduce_gram`'s output.  T
    is certified unimodular, so the key is integrally equivalent to G."""
    R, _ = reduce_gram(G)
    n = len(R)
    return min(tuple(tuple(s[k] * s[l] * R[p[k]][p[l]] for l in range(n)) for k in range(n))
               for p in permutations(range(n)) if all(R[k][k] == R[p[k]][p[k]] for k in range(n))
               for s in ((1, *t) for t in product((1, -1), repeat=n - 1)))


def _ternary_counts(classes: IdealClassSet, i: int, bound: int) -> tuple[dict, dict]:
    """(all, primitive) vector counts by norm value up to bound for class i
    (1-based): the tally of its `_form_key`, shared by every class with it."""
    keys = classes.cache.setdefault("ternary_keys", {})
    if i not in keys:
        keys[i] = _form_key(ternary_lattice(classes, i))
    cache = classes.cache.setdefault("ternary_counts", {})
    got = cache.get(keys[i])
    if got is None or got["bound"] < bound:
        allc, prim = counts_with_primitive(keys[i], bound)
        certify(all(D % 4 in (0, 3) for D in allc), "represented value outside the plus space")
        cache[keys[i]] = got = {"bound": bound, "all": allc, "prim": prim}
    return got["all"], got["prim"]


def prefill_counts(classes: IdealClassSet, bound: int) -> None:
    """Fill every per-class count cache up to `bound`, one class at a time."""
    for i in range(1, classes.n + 1):
        _ternary_counts(classes, i, bound)


def _theta_sum(
    classes: IdealClassSet, weights: tuple[int, ...], D_max: int
) -> tuple[Fraction, ...]:
    """Coefficients 0..D_max of Σ_i weights_i·g_i/w_i from the cached ternary
    counts; g_i/w_i is 1/e_i at D = 0 and a_i(D)/e_i at D ≥ 1."""
    if D_max < 0:
        raise ValueError("D_max must be >= 0")
    if len(weights) != classes.n:
        raise ValueError(f"need one weight per class ({classes.n}), got {len(weights)}")
    L = lcm(*classes.e)
    nums = [0] * (D_max + 1)  # numerators over the common denominator L
    for i, x in enumerate(weights):
        scale = x * (L // classes.e[i])
        nums[0] += scale
        for D, c in _ternary_counts(classes, i + 1, max(D_max, 1))[0].items():
            if 1 <= D <= D_max:
                nums[D] += scale * c
    zero = Fraction(0)  # immutable, so every zero coefficient shares it
    return tuple(Fraction(c, L) if c else zero for c in nums)


def cohen_H(classes: IdealClassSet, D_max: int) -> tuple[Fraction, ...]:
    """The weight-3/2 Eisenstein series H = Σ g_i/w_i from lattice counts alone."""
    H = _theta_sum(classes, (1,) * classes.n, D_max)
    certify(H[0] == mass(classes.cfg), "class-set mass disagrees with the formula")
    return H


def cusp_G(classes: IdealClassSet, v: tuple[int, ...], D_max: int) -> tuple[Fraction, ...]:
    """The cusp-side series G = Σ v_i g_i/w_i of a rational cusp line v; its
    coefficients m_D (D ≥ 1) are integers."""
    G = _theta_sum(classes, v, D_max)
    D = next((D for D in range(1, D_max + 1) if G[D].denominator != 1), None)
    certify(D is None, f"m_{D} is not an integer (normalization bug)")
    return G


def optimal_embedding_count(classes: IdealClassSet, i: int, d: int) -> int:
    """h(O_d, R_i): optimal-embedding classes of the quadratic order of
    discriminant d into R_i, as u(d)·(primitive vectors of norm |d|)/w_i.

    A d that is not a negative discriminant raises ValueError; a non-integer
    value signals a lattice or unit-count bug and raises CertificateError.
    """
    u = unit_factor(d)
    _, prim = _ternary_counts(classes, i, -d)
    cnt = prim.get(-d, 0)
    val, rem = divmod(u * cnt, classes.w[i - 1])
    certify(not rem, f"embedding count u(d)·{cnt}/w_{i} is not an integer (d={d})")
    return val


def embedding_count_identity(classes: IdealClassSet, d: int) -> tuple[int, int]:
    """(lhs, rhs) of the embedding-count sum identity:
    Σ_i h(O_d, R_i)  vs  h(d) times the local factor of d at the level."""
    lhs = sum(optimal_embedding_count(classes, i, d) for i in range(1, classes.n + 1))
    return lhs, class_number(d) * local_factors(classes.cfg, -d)[-d]
