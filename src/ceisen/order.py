"""Orders and left ideals in definite quaternion algebras, with exact lattices.

An element is a coordinate 4-tuple over (1, i, j, k), and `quatalg`'s
`quat_mul`, `conj` and `norm_pair` are its only product, conjugate and norm.
A lattice is stored as a canonical pair (denominator, HNF integer rows), so
equal lattices compare equal, and every order and ideal operation computes on
that pair: products, conjugates, Gram matrices, norms, covolumes and
coordinates use integer rows, and each new lattice is put in canonical form
again.  Rational coordinates enter only through `Lat4.span`, where the
snapshot reader parses its text, and leave only in the snapshot writer.  An
order is such a lattice, checked by `make_order` to hold 1 and to be closed
under products.  Maximal orders come from prime-by-prime saturation of the
obvious starting order; level structure at a prime q coprime to the
discriminant is Z plus the q-neighbour qO + O·e, for an idempotent e of O/qO
other than 0 and 1 found by its trace and norm.  A left ideal is integral,
and its norm is an int.  Left ideal classes are enumerated by a neighbor
walk at the smallest good prime, stopped exactly by the mass formula.  Each
candidate I is keyed by its class form, the least of the lattices
I·conj(x)/N(I) over its minimal vectors x, which is the same for every ideal
of the class, and the same enumeration gives a new class its representative
and unit count.  A key hit is certified by the candidate's representative
when that is the class's own lattice, and by an equivalence test only when
it is not.  A class found as I·K records its way back, the neighbor of its
right order that leads back to I's class, and skips it when it is expanded,
so that candidate is never formed.  A walk step splits R/pR ≅ M_2(F_p) by
the same idempotent search, e = E₁₁ and f = e·y·(1 − e) a multiple of E₁₂,
and canonicalizes the p+1 neighbors pR + R·x for x = e + t·f (t ∈ F_p) and
x = f, one per kernel line.
`IdealClassSet` certifies every class set, walked or read, and derives its
level from its order.

Each step sets up one lattice: closure (`make_order`, and O·I ⊆ I in the
snapshot reader) is the membership of every product of two basis rows, with
no product lattice formed; the walk forms the candidate I·K for a class
I with right order R as pI + I·x, 8 generators, since I·R = I; and a right
order conj(I)·I/N(I) is spanned by 11 generators, not 16.  A class ideal is
O·α + O·N(I) for one α per class (`ideal_generator`, certified), and
conj(J)·O = conj(J), the conjugate of O·J = J, so the pairing lattice
conj(J)·I is N(I)·conj(J) + conj(J)·α.  `product_lattice` forms every
lattice spanned by a lattice's rows times a few generators: pairing
lattices, ring closures, neighbours, candidates, the Eichler cut, the
generator certificate and class forms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, prod
from typing import NamedTuple

from .arith import CertificateError, certify, factorize, valuation
from .lattice import counts_by_value, exists_value, minimal_vectors
from .linalg import clear_denominators, hnf
from .qform import LevelConfig, good_primes, mass
from .quatalg import QuaternionAlgebra, conj, norm_pair, quat_mul


def _canonical(algebra: QuaternionAlgebra, den: int, rows) -> "Lat4":
    """The lattice spanned by the integer rows over den, as (den, HNF rows) with
    the common content of den and the rows divided out; equal lattices give
    equal results."""
    H = hnf(rows)
    if len(H) != 4:
        raise ValueError(f"expected a full-rank lattice, got rank {len(H)}")
    g = gcd(den, *(x for row in H for x in row))
    return Lat4(algebra, den // g, tuple(tuple(x // g for x in row) for row in H))


class Lat4(NamedTuple):
    """A full rank-4 lattice in a quaternion algebra, in canonical form.

    Built only through `_canonical`.  The rows form an upper-triangular HNF
    with positive pivots, and every operation below runs on (den, rows).
    """

    algebra: QuaternionAlgebra
    den: int
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def span(cls, algebra: QuaternionAlgebra, gens) -> "Lat4":
        """The lattice spanned by rational coordinate 4-tuples."""
        den, rows = clear_denominators(gens)
        return _canonical(algebra, den, rows)

    def gram(self) -> list[list[int]]:
        """den² times the Gram matrix of the reduced norm form on this basis:
        the integer norm form on the rows."""
        a, b, rows = self.algebra.a, self.algebra.b, self.rows
        G = [[0] * 4 for _ in range(4)]
        for k, u in enumerate(rows):
            for l in range(k, 4):
                G[k][l] = G[l][k] = norm_pair(a, b, u, rows[l])
        return G

    def covolume(self) -> Fraction:
        """|det| of the basis over (1, i, j, k): the HNF pivots' product over den⁴."""
        return Fraction(prod(row[k] for k, row in enumerate(self.rows)), self.den**4)

    def holds(self, d: int, v) -> bool:
        """Whether the integer row v over d lies in the lattice."""
        return self.coords_of(d, v) is not None

    def coords_of(self, d: int, v) -> list[int] | None:
        """The integer c with v/d = Σ c_k·b_k, or None if v/d is not in the
        lattice: d·c·H = den·v solved by forward substitution on the
        upper-triangular rows H, written out; once a remainder is nonzero the
        later ones do not matter."""
        (h00, h01, h02, h03), (_, h11, h12, h13), (_, _, h22, h23), (_, _, _, h33) = self.rows
        D, (v0, v1, v2, v3) = self.den, v
        c0, r0 = divmod(D * v0, d * h00)
        c1, r1 = divmod(D * v1 - d * c0 * h01, d * h11)
        c2, r2 = divmod(D * v2 - d * (c0 * h02 + c1 * h12), d * h22)
        c3, r3 = divmod(D * v3 - d * (c0 * h03 + c1 * h13 + c2 * h23), d * h33)
        return None if r0 or r1 or r2 or r3 else [c0, c1, c2, c3]

    def conjugate(self) -> "Lat4":
        return _canonical(self.algebra, self.den, [conj(r) for r in self.rows])

    def norm(self) -> Fraction:
        """gcd of the reduced norms of all lattice elements (a positive rational):
        the values of the integer form gram() have gcd G_kk, 2·G_kl (k < l)."""
        G = self.gram()
        g = gcd(*(G[k][l] * (1 + (k < l)) for k in range(4) for l in range(k, 4)))
        return Fraction(g, self.den**2)


def _combine(c, rows) -> tuple[int, ...]:
    """The integer row Σ c_k·rows_k."""
    return tuple(sum(ck * row[m] for ck, row in zip(c, rows)) for m in range(4))


def product_lattice(A: Lat4, den: int, gens) -> Lat4:
    """Z-span of all products a·g of A's basis rows and the integer rows gens
    over den: the row products over A.den·den, generator by generator, so a
    scalar first generator puts A's own HNF rows, scaled, first into the HNF,
    already triangular.  A lattice B is the generator set (B.den, B.rows), and
    pA + A·x the set [(p·den, 0, 0, 0), x]: every such lattice is formed here."""
    a, b = A.algebra.a, A.algebra.b
    rows = [quat_mul(a, b, u, g) for g in gens for u in A.rows]
    return _canonical(A.algebra, A.den * den, rows)


def _closed_under(A: Lat4, lat: Lat4) -> bool:
    """Whether every product a·l of basis rows lies in lat: A·lat ⊆ lat, tested
    as 16 memberships over A.den·lat.den with no product lattice formed."""
    a, b, d = lat.algebra.a, lat.algebra.b, A.den * lat.den
    return all(lat.holds(d, quat_mul(a, b, u, v)) for u in A.rows for v in lat.rows)


def make_order(lat: Lat4) -> Lat4:
    """lat, checked to be an order; ValueError unless 1 ∈ lat and every
    product of two basis rows lies in lat (closure, a membership certificate:
    with 1 ∈ lat it is the same as lat·lat = lat)."""
    if not lat.holds(1, (1, 0, 0, 0)):
        raise ValueError("order must contain 1")
    if not _closed_under(lat, lat):
        raise ValueError("order must be closed under multiplication")
    return lat


def reduced_discriminant(O: Lat4) -> int:
    """The integer d with d² = |det(trace pairing)| on the order.

    The trace pairing on (1, i, j, k) is diag(2, -2a, -2b, 2ab), of
    determinant (4ab)², so d = 4·|ab|·covol(O).
    """
    d = 4 * abs(O.algebra.a * O.algebra.b) * O.covolume()
    certify(d.denominator == 1 and d > 0, "reduced discriminant must be a positive integer")
    return int(d)


def unit_count(O: Lat4) -> int:
    """Number of elements of reduced norm 1 (always even: ± pairs), i.e. of
    value den² under the integer Gram matrix."""
    d2 = O.den**2
    cnt = counts_by_value(O.gram(), d2).get(d2, 0)
    certify(cnt % 2 == 0 and cnt > 0, "unit count must be positive and even")
    return cnt


def standard_order(B: QuaternionAlgebra) -> Lat4:
    return make_order(_canonical(B, 1, [[int(k == l) for l in range(4)] for k in range(4)]))


def _saturate_at(L: Lat4, p: int) -> Lat4:
    """A strictly larger order L' with p·L' ⊆ L, for the order L.

    Candidates x = r/(p·den), r = Σ c_k·rows_k, are filtered by integrality of
    the trace 2·r₀/(p·den), the norm N(r)/(p·den)² and the trace pairings
    2·⟨r, rows_k⟩/(p·den²) against the basis, then the ring closure of L and x
    is computed; the first candidate whose closure stabilizes on an order with
    a smaller p-part of the discriminant wins (deterministic in lexicographic
    candidate order).  L ⊆ L' makes that p-part drop exactly when p divides
    [L' : L].  CertificateError if no candidate enlarges L, which a
    non-maximal L at p always allows.
    """
    a, b, rows, pd = L.algebra.a, L.algebra.b, L.rows, p * L.den
    scaled = [tuple(p * v for v in row) for row in rows]
    v_old = valuation(reduced_discriminant(L), p)

    def integral(r) -> bool:
        return not ((2 * r[0]) % pd or norm_pair(a, b, r, r) % (pd * pd)
                    or any((2 * norm_pair(a, b, r, row)) % (pd * L.den) for row in rows))

    candidates = (_combine(c, rows) for c in product(range(p), repeat=4) if any(c))
    closures = (_ring_closure(_canonical(L.algebra, pd, scaled + [r]))
                for r in candidates if integral(r))
    larger = next((C for C in closures if C is not None
                   and valuation(reduced_discriminant(C), p) < v_old), None)
    certify(larger is not None, f"cannot enlarge order at p={p}")
    return larger


def _ring_closure(cur: Lat4) -> Lat4 | None:
    """The smallest multiplicatively closed lattice containing cur, which holds
    1, so cur ⊆ cur·cur: iterate cur ← cur·cur until it stabilizes within
    eight rounds (non-integral candidates blow up and return None)."""
    for _ in range(8):
        nxt = product_lattice(cur, cur.den, cur.rows)
        if nxt == cur:
            return cur
        cur = nxt
    return None


def maximal_order(B: QuaternionAlgebra) -> Lat4:
    """A maximal order, by saturating the standard order prime by prime.

    The result is certified: its reduced discriminant equals the product of
    the ramified primes.
    """
    O = standard_order(B)
    target = B.discriminant
    d = reduced_discriminant(O)
    while d != target:
        certify(d % target == 0, "discriminant should be a multiple of the ramified product")
        excess = d // target
        p = factorize(excess).primes[0]
        O = _saturate_at(O, p)
        d = reduced_discriminant(O)
    return O


def eichler_order(Omax: Lat4, M: int) -> Lat4:
    """Cut level-q structure into Omax for each prime q | M (M squarefree,
    coprime to the algebra discriminant).

    At each q the suborder is Z + qO + O·e for the first idempotent e of
    O/qO other than 0 and 1 in lexicographic order (`_eichler_step`).
    """
    B = Omax.algebra
    if M < 1:
        raise ValueError("M must be >= 1")
    fac = factorize(M)
    if not fac.is_squarefree:
        raise ValueError("M must be squarefree")
    if gcd(M, B.discriminant) != 1:
        raise ValueError("M must be coprime to the ramified primes")
    O = Omax
    for q in fac.primes:
        O = _eichler_step(O, q)
    return O


def _idempotent(L: Lat4, q: int) -> tuple[int, ...]:
    """The first x = Σ c_k·rows_k over den, in lexicographic order of
    c ∈ [0, q)⁴, that is idempotent mod qL and no scalar, for an order L with
    q ∤ disc(L): the element E₁₁ of L/qL ≅ M_2(F_q).

    x² = trd(x)·x − nrd(x), so x qualifies exactly when trd(x) ≡ 1 and
    nrd(x) ≡ 0 mod q.  The rows are upper triangular, so trd(x) = 2·c₀·r₀₀/den
    depends on c₀ alone, and only the c₀ that pass the trace test are
    searched.  CertificateError if there is none, as at a ramified q.
    """
    a, b, rows, den = L.algebra.a, L.algebra.b, L.rows, L.den
    xs = (_combine((c0, *c), rows) for c0 in range(q)
          if (2 * c0 * rows[0][0] - den) % (q * den) == 0
          for c in product(range(q), repeat=3))
    e = next((x for x in xs if norm_pair(a, b, x, x) % (q * den * den) == 0), None)
    certify(e is not None, f"no nontrivial idempotent mod {q}")
    return e


def _eichler_step(L: Lat4, q: int) -> Lat4:
    """The level-q suborder Z + qL + L·e of the order L, for q ∤ disc(L) and
    e = `_idempotent(L, q)`: Z plus the q-neighbour qL + L·e (`product_lattice`).
    With e = E₁₁ in L/qL ≅ M_2(F_q), the preimage of {x : e·x·(1 − e) ≡ 0 mod q}
    and Z + qL + L·e are both the lower-triangular matrices.
    """
    K = product_lattice(L, L.den, [(q * L.den, 0, 0, 0), _idempotent(L, q)])
    sub = make_order(_canonical(L.algebra, K.den, [*K.rows, (K.den, 0, 0, 0)]))
    certify(all(L.holds(sub.den, r) for r in sub.rows), "the level-q suborder must lie in L")
    certify(reduced_discriminant(sub) == q * reduced_discriminant(L),
            "the level-q suborder must have discriminant q·disc(L)")
    return sub


class LeftIdeal(NamedTuple):
    """An integral left ideal of a fixed order, with its reduced norm (an int)."""

    order: Lat4
    lattice: Lat4
    norm: int

    @classmethod
    def of(cls, order: Lat4, lattice: Lat4) -> "LeftIdeal":
        """ValueError unless the lattice's norm is an integer."""
        n = lattice.norm()
        if n.denominator != 1:
            raise ValueError(f"ideal norm {n} is not an integer")
        certify(_covolume_certificate(order, lattice, n.numerator),
                "ideal is not locally principal (covolume certificate failed)")
        return cls(order, lattice, n.numerator)


def _covolume_certificate(O: Lat4, lat: Lat4, n: int) -> bool:
    """covol(lat) = n²·covol(O), true for a locally principal left O-ideal of
    norm n (the same as det = n⁴·det for the norm-form Gram matrices of lat
    and O over their own bases)."""
    return lat.covolume() == n * n * O.covolume()


def unit_ideal(O: Lat4) -> LeftIdeal:
    return LeftIdeal.of(O, O)


def right_order(I: LeftIdeal) -> Lat4:
    """O_r(I) = conj(I)·I / N(I) for locally principal I with basis b_k,
    spanned by the 11 elements conj(b_k)·b_l/N(I) for k ≤ l and 1, as
    integer rows over den²·N(I).

    These span conj(I)·I.  For k > l, conj(b_k)·b_l = t − conj(b_l)·b_k with
    t = trd(conj(b_l)·b_k) = nrd(b_k + b_l) − nrd(b_k) − nrd(b_l), a multiple
    of N(I); and N(I), the gcd of the norms conj(y)·y of y ∈ I, lies in
    conj(I)·I.  `make_order` checks the result.
    """
    L = I.lattice
    a, b, rows, den = L.algebra.a, L.algebra.b, L.rows, L.den**2 * I.norm
    gens = [quat_mul(a, b, conj(u), v) for k, u in enumerate(rows) for v in rows[k:]]
    return make_order(_canonical(L.algebra, den, [*gens, (den, 0, 0, 0)]))


def _generator_search(I: LeftIdeal) -> tuple[int, ...] | None:
    """The first x = Σ c_k·rows_k of I, an integer row over den, with
    gcd(nrd(x)/N(I), N(I)) = 1, taking c box by box, max|c_k| = h for
    h = 0, 1, .., N(I)//2, each box in lexicographic order; None if none.

    For x, y ∈ I, trd(x·conj(y)) = nrd(x + y) − nrd(x) − nrd(y) is a
    multiple of N(I), so nrd(x)/N(I) mod N(I) depends on x mod N(I)·I alone,
    and the boxes up to N(I)//2 meet every class of I/N(I)·I.  Only x = 0,
    at h = 0, passes for N(I) = 1, where I = O.
    """
    L, N = I.lattice, I.norm
    a, b, scale = L.algebra.a, L.algebra.b, L.den**2 * N
    xs = (_combine(c, L.rows) for h in range(N // 2 + 1)
          for c in product(range(-h, h + 1), repeat=4) if max(map(abs, c)) == h)
    return next((x for x in xs if gcd(norm_pair(a, b, x, x) // scale, N) == 1), None)


def ideal_generator(I: LeftIdeal) -> tuple[int, ...]:
    """α ∈ I, an integer row over I.lattice.den, with I = O·α + O·N(I)
    (`_generator_search`); CertificateError unless the 8 generators
    N(I)·rows_k and rows_k·α of O (`product_lattice`) give I's lattice.

    Such α exists, as I is locally principal: at p ∤ N(I) both sides are
    O_p, and at p | N(I) with I_p = O_p·β, α = γ·β for a γ ∈ O_p of norm
    prime to p, a unit, so O_p·α = I_p.
    """
    x, d = _generator_search(I), I.lattice.den
    certify(x is not None and product_lattice(I.order, d, [(I.norm * d, 0, 0, 0), x]) == I.lattice,
            "each class ideal must be O·α + O·N(I)")
    return x


def is_equivalent(I: LeftIdeal, J: LeftIdeal) -> bool:
    """Same left-ideal class: some x with J = I·x.

    Witnessed by an element of conj(I)·J of reduced norm N(I)·N(J): the value
    N(I)·N(J)·den² of its integer Gram.  The search is an exact lattice
    enumeration with early exit.
    """
    if I.order != J.order:
        raise ValueError("ideals must share the same left order")
    W = product_lattice(I.lattice.conjugate(), J.lattice.den, J.lattice.rows)
    return exists_value(W.gram(), I.norm * J.norm * W.den**2)


def _class_form(I: LeftIdeal) -> tuple[tuple, Lat4, int, tuple[int, ...]]:
    """(key, representative, e, x) of I's class, from the lattices
    I·conj(x)/N(I) over the minimal vectors x = Σ c_k·rows_k/den of I, one
    per ± pair: the row products b_k·conj(x) over den²·N(I) (`product_lattice`).

    Each lies in I's class, and J = I·y has the minimal vectors x·y with
    J·conj(xy)/N(J) = I·conj(x)/N(I), so the least (den, rows) among them,
    the key, is the same for every ideal of the class and is itself one: a
    complete invariant.  The representative is the lattice of the least
    canonical minimal vector x, returned as its integer row over den, and
    left to the caller to make a `LeftIdeal`.  x and x' give one lattice
    exactly when x' = x·u for a unit u of O_r(I), so
    e = |O_r(I)^×| = 2·pairs/lattices.
    """
    L = I.lattice
    vecs, _ = minimal_vectors(L.gram())
    xs = [_combine(c, L.rows) for c in vecs]
    lats = [product_lattice(L, L.den * I.norm, [conj(x)]) for x in xs]
    distinct = {(lat.den, lat.rows) for lat in lats}
    e, rem = divmod(2 * len(vecs), len(distinct))
    certify(rem == 0, "the minimal vectors must fall into orbits of one size")
    return min(distinct), lats[0], e, xs[0]


def reduce_ideal(I: LeftIdeal) -> LeftIdeal:
    """Replace I by the equivalent integral ideal I·conj(x)/N(I) for the
    canonical shortest vector x: `_class_form`'s representative."""
    return LeftIdeal.of(I.order, _class_form(I)[1])


def _neighbor_ideals(L: Lat4, p: int) -> list[tuple[Lat4, tuple[int, ...]]]:
    """The p+1 left L-ideals K of reduced norm p, for an order L with p coprime
    to disc(L), each with its generator x (an integer row over den, so that
    K = pL + L·x), sorted by K's (den, rows).

    L/pL is the matrix ring M_2(F_p), and a left ideal of norm p is the
    preimage of M_2(F_p)·x for a rank-one x, one per kernel line of x.  With
    e = E₁₁ from `_idempotent` and f = e·y·(1 − e) for the first basis row y
    with f ∉ pL, f is a unit multiple of E₁₂, so the p+1 kernel lines are
    those of e + t·f (t ∈ F_p) and of f.  The ideal p·L + L·x is spanned by
    p·den·rows_k and rows_k·x over den² (`product_lattice`), and the walk
    forms I·K as pI + I·x from the same x.  CertificateError unless the norm
    form is integral on L, the p+1 ideals are distinct and each has covolume
    p²·covol(L).
    """
    a, b, rows, den = L.algebra.a, L.algebra.b, L.rows, L.den
    certify(L.norm().denominator == 1, "the norm form is not integral on the order")
    e = _idempotent(L, p)
    one_minus_e = tuple(u - v for u, v in zip((den, 0, 0, 0), e))
    for y in rows:
        # e·y·(1 − e) lies in L, so den·f is an integer row
        f = tuple(v // (den * den) for v in quat_mul(a, b, quat_mul(a, b, e, y), one_minus_e))
        if any(c % p for c in L.coords_of(den, f)):
            break
    xs = [tuple(u + t * v for u, v in zip(e, f)) for t in range(p)] + [f]
    found = {product_lattice(L, den, [(p * den, 0, 0, 0), x]): x for x in xs}
    certify(len(found) == p + 1, f"expected {p + 1} neighbors, got {len(found)}")
    certify(all(K.covolume() == p * p * L.covolume() for K in found),
            "each neighbor must have covolume p²·covol(L)")
    return sorted(found.items(), key=lambda Kx: (Kx[0].den, Kx[0].rows))


def _way_back(K: Lat4, x) -> Lat4:
    """v·conj(K)·conj(v)/nrd(v) for v = x/d, the same for every d: the rows
    x·conj(k)·conj(x) over K.den·nrd(x).

    When the walk finds the class C = J·conj(v)/N(J) of J = I·K, with v a
    minimal vector of J, this is a left O_r(C)-ideal of norm p with
    C·K_back = p·I·conj(v)/N(J): the neighbor of C that leads back to I's
    class.
    """
    a, b = K.algebra.a, K.algebra.b
    rows = [quat_mul(a, b, quat_mul(a, b, x, conj(k)), conj(x)) for k in K.rows]
    return _canonical(K.algebra, K.den * norm_pair(a, b, x, x), rows)


class IdealClassSet:
    """Representatives of the left ideal classes of an order, with weights.

    ideals[0] is the order itself.  For each class: its right order and the
    unit count e_i of that right order; w_i = e_i/2 is derived from e, and cfg
    from the order.  Every class set, walked or read, is certified here:
    ideals[0] is the order, each e_i is even with e_i/2 | 12, each right order
    has level N, and sum(1/e_i) is the mass formula's value.  `ideals`,
    `right_orders` and `e` are tuples, no attribute can be rebound, and the
    one mutable part is the dict `cache`, where `theta32` and `brandt` keep
    the ternary vector counts and the pair counts they extend as bounds grow,
    and `brandt` the generators α_i of the class ideals.
    """

    __slots__ = ("order", "cfg", "ideals", "right_orders", "e", "cache")

    def __init__(self, order: Lat4, ideals: list[LeftIdeal], right_orders: list[Lat4], e: list[int]):
        cfg = level_config_of(order)
        for name, value in [("order", order), ("cfg", cfg), ("ideals", tuple(ideals)),
                            ("right_orders", tuple(right_orders)), ("e", tuple(e)), ("cache", {})]:
            object.__setattr__(self, name, value)
        certify(bool(ideals) and ideals[0].lattice == order, "the first class must be the order itself")
        certify(all(k % 2 == 0 and 12 % (k // 2) == 0 for k in e),
                "each unit count e_i must be even, with e_i/2 dividing 12")
        certify(all(reduced_discriminant(R) == cfg.N for R in right_orders),
                "right orders must share the level")
        total, target = self.total_mass(), mass(cfg)
        certify(total == target, f"mass {total} {'exceeds' if total > target else 'falls short of'} "
                f"formula value {target} after {self.n} classes")

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a class set's {name} is read-only")

    __delattr__ = __setattr__

    @property
    def n(self) -> int:
        return len(self.ideals)

    @property
    def w(self) -> tuple[int, ...]:
        return tuple(e // 2 for e in self.e)

    @property
    def algebra(self) -> QuaternionAlgebra:
        return self.order.algebra

    def total_mass(self) -> Fraction:
        return sum((Fraction(1, e) for e in self.e), Fraction(0))


def level_config_of(O: Lat4) -> LevelConfig:
    N = reduced_discriminant(O)
    P = O.algebra.discriminant
    certify(N % P == 0, "reduced discriminant must be a multiple of the ramified product")
    return LevelConfig.from_primes(O.algebra.ramified, N // P)


CACHE_VERSION = 1


def classes_to_json(cs: IdealClassSet) -> dict:
    """JSON-serializable snapshot of a class set (exact rationals as strings)."""
    return {
        "version": CACHE_VERSION,
        "ramified": list(cs.cfg.P.primes),
        "M": cs.cfg.M.value,
        "algebra": {"a": cs.algebra.a, "b": cs.algebra.b},
        "classes": [
            {
                "basis": [str(Fraction(x, I.lattice.den)) for row in I.lattice.rows for x in row],
                "norm": str(I.norm),
                "e": e,
                "w": w,
            }
            for I, e, w in zip(cs.ideals, cs.e, cs.w)
        ],
    }


class CacheError(Exception):
    """A cached class set failed validation."""


def classes_from_json(data) -> IdealClassSet:
    """Rebuild a class set from its JSON snapshot, re-deriving right orders,
    and unit counts and class keys by `_class_form`; CacheError on a snapshot
    that is not a JSON object, that fails a check of a class, that lists one
    class twice, or that fails a certificate of `IdealClassSet`."""
    if not isinstance(data, dict):
        raise CacheError("snapshot is not a JSON object")
    if data.get("version") != CACHE_VERSION:
        raise CacheError(f"unsupported cache version {data.get('version')!r}")
    cfg = LevelConfig.from_primes(tuple(data["ramified"]), data["M"])
    B = QuaternionAlgebra.create(data["algebra"]["a"], data["algebra"]["b"])
    if set(B.ramified) != set(cfg.P.primes):
        raise CacheError("cached algebra does not ramify at the requested primes")
    O = eichler_order(maximal_order(B), cfg.M.value)
    ideals, rights, es, keys = [], [], [], set()
    for rec in data["classes"]:
        try:
            coords = [Fraction(s) for s in rec["basis"]]
        except ArithmeticError as e:  # "1/0", or an infinite JSON number
            raise CacheError(f"bad basis coordinate: {e}") from e
        if len(coords) != 16:
            raise CacheError("each class needs 16 basis coordinates")
        lat = Lat4.span(B, [coords[4 * k : 4 * k + 4] for k in range(4)])
        if not _closed_under(O, lat):
            raise CacheError("cached lattice is not a left ideal of the order")
        try:
            I = LeftIdeal.of(O, lat)
        except (ValueError, CertificateError) as e:
            raise CacheError(f"cached ideal: {e}") from e
        if str(I.norm) != rec["norm"]:
            raise CacheError("stored norm disagrees with the lattice")
        key, _, e, _ = _class_form(I)
        if key in keys:
            raise CacheError("two cached ideals are in one class")
        if e != rec["e"] or e != 2 * rec["w"]:
            raise CacheError("stored unit counts disagree with the lattice")
        keys.add(key)
        ideals.append(I)
        rights.append(right_order(I))
        es.append(e)
    try:
        return IdealClassSet(order=O, ideals=ideals, right_orders=rights, e=es)
    except CertificateError as e:
        raise CacheError(f"cached class set: {e}") from e


def build_class_set(cfg: LevelConfig) -> IdealClassSet:
    """Full pipeline: algebra for the ramified set, maximal order, level
    structure, left ideal classes."""
    from .quatalg import construct_algebra

    B = construct_algebra(set(cfg.P.primes))
    O = eichler_order(maximal_order(B), cfg.M.value)
    return left_ideal_classes(O)


def left_ideal_classes(O: Lat4) -> IdealClassSet:
    """Enumerate the left ideal classes of O by a neighbor walk at the smallest
    prime coprime to the level (`qform.good_primes`), stopping exactly when
    the mass formula is met.

    Each candidate J is keyed by its class form (`_class_form`), a complete
    class invariant, so a bucket holds at most one class.  A key hit is
    certified by J's representative J·conj(v)/N(J), which is in J's class by
    construction, when it equals the class's lattice, and by `is_equivalent`
    only when it does not.  A candidate that becomes a class brings its
    representative and unit count from the same call.

    A class C found as J = I·K records its way back (`_way_back`), the
    neighbor K_back of O_r(C) with C·K_back in I's class.  When C is
    expanded, exactly one of its p + 1 neighbors must be K_back
    (CertificateError otherwise), and its candidate C·K_back, in a known
    class, is never formed.  The walk, its representatives and the stopping
    point are those of testing every candidate against every class.

    The neighbor graph at a good prime is connected and every class adds
    1/e_i to the mass, so CertificateError if the walk runs out of ideals
    before reaching the mass; `IdealClassSet` certifies the rest, among it an
    overshoot (a missed equivalence).  The class list is its own queue.
    """
    cfg = level_config_of(O)
    target = mass(cfg)
    p = good_primes(cfg, 1)[0]
    classes = [unit_ideal(O)]
    key, _, e, _ = _class_form(classes[0])
    buckets = {key: [classes[0]]}
    rights = [O]
    backs = [None]
    es = [e]
    acc = Fraction(1, e)
    idx = 0
    while acc < target and idx < len(classes):
        I, R, back = classes[idx].lattice, rights[idx], backs[idx]
        step = _neighbor_ideals(R, p)
        certify(idx == 0 or [K for K, _ in step].count(back) == 1,
                f"the way back from class {idx} must be one of its {p + 1} neighbors")
        for K, x in step:
            if K == back:
                continue
            # I·K = pI + I·x, as I·R = I
            J = LeftIdeal.of(O, product_lattice(I, R.den, [(p * R.den, 0, 0, 0), x]))
            key, rep, e, v = _class_form(J)
            bucket = buckets.setdefault(key, [])
            # rep = J·conj(v)/N(J) is in J's class by construction
            if any(rep == C.lattice or is_equivalent(J, C) for C in bucket):
                continue
            J = LeftIdeal.of(O, rep)
            bucket.append(J)
            classes.append(J)
            rights.append(right_order(J))
            backs.append(_way_back(K, v))
            es.append(e)
            acc += Fraction(1, e)
            if acc >= target:
                break
        idx += 1
    certify(acc >= target, "neighbor walk exhausted before reaching the mass")
    return IdealClassSet(order=O, ideals=classes, right_orders=rights, e=es)
