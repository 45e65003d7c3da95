"""Definite rational quaternion algebras (a, b) with exact element arithmetic.

An algebra is generated by i, j with i² = a < 0, j² = b < 0, ij = -ji = k,
for integers a, b.  An element is a coordinate 4-tuple over (1, i, j, k),
held as integer rows over one denominator.  The product, the conjugate and
the bilinear norm form are each written once, in `quat_mul`, `conj` and
`norm_pair`, and `order` applies them to a lattice's integer rows.
Ramified primes are certified by Hilbert symbols of integers, and algebras
with a prescribed ramified set are found by a bounded deterministic search,
which for each |a| + |b| tries only the |a| in the residue classes that
make every odd ramified prime divide ab.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import certify, factorize, is_prime, squarefree_kernel, valuation, kronecker


class AlgebraSearchError(Exception):
    """No (a, b) pair with the requested ramification inside the search bound."""


def hilbert_symbol(a: int, b: int, p) -> int:
    """Hilbert symbol (a, b)_p over Q_p, p a prime or math.inf.

    Computed by the classical local formulas on the squarefree kernels of the
    nonzero integers a, b; ValueError on any other argument.
    """
    if not (isinstance(a, int) and isinstance(b, int)) or a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero integer arguments")
    am = squarefree_kernel(a)
    bm = squarefree_kernel(b)
    if p == math.inf:
        return -1 if (am < 0 and bm < 0) else 1
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    alpha = valuation(am, p)
    beta = valuation(bm, p)
    u = am // p**alpha
    v = bm // p**beta
    if p != 2:
        eps = (p - 1) // 2
        sign = -1 if (alpha * beta * eps) % 2 else 1
        if beta % 2:
            sign *= kronecker(u, p)
        if alpha % 2:
            sign *= kronecker(v, p)
        return sign
    eu = ((u - 1) // 2) % 2
    ev = ((v - 1) // 2) % 2
    wu = ((u * u - 1) // 8) % 2
    wv = ((v * v - 1) // 8) % 2
    return -1 if (eu * ev + alpha * wv + beta * wu) % 2 else 1


def ramified_primes(a: int, b: int) -> tuple[int, ...]:
    """Finite primes where (a, b) ramifies: symbol -1, only possible at p | 2ab."""
    am = squarefree_kernel(a)
    bm = squarefree_kernel(b)
    ps = {2}
    ps.update(factorize(abs(am)).primes)
    ps.update(factorize(abs(bm)).primes)
    ram = tuple(sorted(p for p in ps if hilbert_symbol(a, b, p) == -1))
    # product formula over all places: (-1)-count including infinity is even
    inf = hilbert_symbol(a, b, math.inf)
    certify((len(ram) + (inf == -1)) % 2 == 0, "Hilbert product formula violated (bug)")
    return ram


def quat_mul(a, b, x, y) -> tuple:
    """Coordinates of x·y in (a, b), for coordinate 4-tuples x, y over (1, i, j, k)."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
        x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
        x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    )


def conj(x) -> tuple:
    """Coordinates of the conjugate x̄ = trd(x) − x of the coordinate 4-tuple x."""
    return (x[0], -x[1], -x[2], -x[3])


def norm_pair(a, b, x, y):
    """The bilinear form of the reduced norm, trace(x·conj(y))/2, on coordinate
    4-tuples; norm_pair(a, b, x, x) is the reduced norm of x."""
    return x[0] * y[0] - a * x[1] * y[1] - b * x[2] * y[2] + a * b * x[3] * y[3]


class QuaternionAlgebra(NamedTuple):
    """The definite algebra with i² = a, j² = b, ij = -ji = k."""

    a: int
    b: int
    ramified: tuple[int, ...]

    @classmethod
    def create(cls, a: int, b: int) -> "QuaternionAlgebra":
        if not (isinstance(a, int) and isinstance(b, int)) or a >= 0 or b >= 0:
            raise ValueError("definite algebras need integers a < 0 and b < 0")
        return cls(a, b, ramified_primes(a, b))

    @property
    def discriminant(self) -> int:
        d = 1
        for p in self.ramified:
            d *= p
        return d


def construct_algebra(ramified_set) -> QuaternionAlgebra:
    """Smallest (|a|+|b|, |a|) pair of negative squarefree a, b realizing the
    prescribed finite ramified set (which must have odd size).

    At an odd prime p dividing neither a nor b the Hilbert symbol (a, b)_p is
    1 (Serre, A Course in Arithmetic, III.1), so every odd p in the set must
    divide ab.  With t = |a| + |b|, that is |a| ≡ 0 or |a| ≡ t (mod p) for
    every odd p in the set: by the CRT, |a| ≡ t·E (mod m), m the odd part of
    the set's product and E a sum of a subset of the CRT idempotents of the
    odd p.  So for each t only the |a| in those residue classes are tried, in
    ascending order, and no symbol is computed for any other pair, which
    leaves the first pair found unchanged.  The returned algebra carries its
    certified ramified tuple; raises AlgebraSearchError if nothing is found
    with |a| + |b| <= 8·prod(set) + 16.
    """
    S = tuple(sorted(set(int(p) for p in ramified_set)))
    if not S or len(S) % 2 == 0:
        raise ValueError("ramified set must be a nonempty set of odd size")
    for p in S:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    odd = [p for p in S if p != 2]
    m = math.prod(odd)
    subset_sums = [0]
    for p in odd:
        idem = m // p * pow(m // p, -1, p)  # 1 mod p, 0 mod m/p
        subset_sums += [x + idem for x in subset_sums]
    limit = 8 * math.prod(S) + 16
    for t in range(2, limit + 1):
        residues = sorted({t * x % m for x in subset_sums})
        nas = (base + r for base in range(0, t, m) for r in residues)
        for na in nas:
            if na >= t:
                break
            a, b = -na, na - t
            if na == 0 or squarefree_kernel(a) != a or squarefree_kernel(b) != b:
                continue
            if ramified_primes(a, b) == S:
                return QuaternionAlgebra(a, b, S)
    raise AlgebraSearchError(
        f"no definite algebra with ramified set {list(S)} found with |a|+|b| <= {limit}"
    )
