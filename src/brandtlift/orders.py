"""Lattices and orders in a definite quaternion algebra over Q.

A lattice is a denominator together with the Hermite normal form of an
integer matrix whose rows are coordinates in the 1, i, j, k basis, so
lattice equality is tuple equality.  The integer rows are the only
representation: products, norms and structure constants mod p run on them
through the algebra's product and trace pairing, and membership is forward
substitution on the triangular HNF.  Ideal norms are ints, each set by the
call that builds the ideal.  Fraction appears only at the API edge
(covolume, ideal_norm), in the mass and in the JSON output.  On top sit the
three construction stages: saturating the obvious order to a maximal one,
cutting an Eichler order of square-free level as Z + eO + pO one prime p at
a time, and walking the p-neighbor graph to enumerate the right ideal
classes with their unit weights, certified complete by the mass formula.

The walk prime p does not divide the level, so O/pO is M_2(F_p) for the
Eichler order O, and a right ideal I, being locally principal, has I/pI
free of rank 1 over it.  Its p-neighbours are the preimages of the p+1
two-dimensional right submodules, which are the cyclic modules v (O/pO)
for the p+1 lines v of (I/pI) e, e a rank-1 idempotent of O/pO found once
per walk (Kirschmer and Voight, SIAM J. Comput. 39 (2010)).  So each class
costs O(p) small echelon forms.  Each neighbour I is replaced by the small
equivalent lattice conj(alpha) I / Nm(I), alpha minimal in I.  If
I = x I_k, the minimal vectors of I are the x beta with beta minimal in
I_k, so I reduces to conj(beta) I_k / Nm(I_k), whichever alpha it takes.
These few lattices are a complete key for class k: the walk looks each
reduced neighbour up among them, and one found in no class is a new class,
registered by the step that registers O.  The ClassSet keeps them, and
ClassSet._identify names the class of any integral right ideal with an int
norm by the same lookup.  The public equivalent_ideals is the same key for
two given ideals: lhs reduces into the forms of rhs exactly when lhs = x rhs.

The walk reuses what it has computed, each time by an identity, so its
reps, weights, types and class order are those of the plain walk.  If a
neighbour N of I_k reduces to conj(alpha) N / Nm(N) = conj(beta) I_j / Nm(I_j),
then N = y I_j for y = Nm(N) / (Nm(alpha) Nm(I_j)) alpha conj(beta), and
p I_k in N in I_k, of index p^2 each, gives p I_j in M in I_j for
M = p y^-1 I_k = p Nm(I_j) / (Nm(N) Nm(beta)) beta conj(alpha) I_k: a
p-neighbour of I_j in class k, already known, so the walk finds its
submodule of I_j/pI_j and builds no lattice for it.  A rep R is O or
conj(alpha) N / Nm(N) with alpha minimal in N; its elements
conj(alpha) x / Nm(N), x in N, have norm at least Nm(R)^2, which
Nm(R) = conj(alpha) alpha / Nm(N) attains, so a unit u of O_L(R) gives the
minimal vector u Nm(R), and the units are the x / Nm(R) over the minimal
x of R that lie in O_L(R).  And a type, the canonical Gram of a ternary
lattice, is a GL_3(Z) invariant, so the classes whose reduced ternary
Grams agree after a change of signs share one canonical search.

At a prime p | N, J_p = pO + (the kernel mod p of the trace form of O) is
the two-sided ideal of reduced norm p (Voight, GTM 288, ch. 23), and the
Atkin-Lehner involution W_p sends the class of I to the class of I J_p.
The J_p commute and J_p^2 = pO, so the W_p generate an elementary abelian
group G.  ClassSet._atkin_lehner gives all of G as permutations of the
classes, indexed by bitmask over the primes, from one map of each orbit of
G, which names t - 1 + dim H images by _identify for an orbit of t classes
with stabilizer H, not one per class and prime; the Brandt module counts
one pair lattice per orbit of G.

Two identities for locally principal ideals (Voight, Quaternion Algebras,
GTM 288, ch. 16-17) build the lattices that the walk and the Brandt
matrices need with 4 products instead of 16.  An integral right O-ideal is
I = Nm(I) O + alpha O for any alpha in I with gcd(Nm(alpha)/Nm(I), Nm(I)) = 1,
so I conj(J) = Nm(I) conj(J) + alpha conj(J) for a right O-ideal J; and
I conj(I) = Nm(I) O_L(I) gives every left order of the walk.  The same
product of conj(I), a right O_L(I)-ideal, with itself gives the right order
conj(I) I = Nm(I) O_R(I).  Each such product is certified by its covolume.
The alpha is read off the reduced basis b_0, ..., b_3 of I: the first of
the b_a, then of the b_a + b_b and b_a - b_b for a < b, whose value on the
reduced Gram meets the gcd condition, and only if none does the first
short vector that does.  A product's HNF is canonical, so no output
depends on which alpha is taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, product
from math import gcd, isqrt, prod

from .linalg import greedy_reduce, hnf, leading_minors
from .linalg import rref_mod, vec_mat
from .primes import factorint, primerange
from .qalg import AlgebraPresentation, finite_ramified_primes
from .shortvec import iter_short_vectors, vector_counts
from .theta import canonical_gram, trace_zero_lattice


def _conj(r):
    return (r[0], -r[1], -r[2], -r[3])


def _sqrt_fraction(x: Fraction) -> Fraction:
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError(f"{x} is not a perfect square")
    return Fraction(rn, rd)


class OrderLattice:
    """Full rank-4 lattice (rows) / den in the algebra, rows in canonical HNF.

    The rows are upper triangular with positive pivots on the diagonal.
    norm (an int in a class walk) is set for ideals by the call that builds them.
    Equality and hashing ignore it and compare the lattice itself.  Every
    cached value (reduced Gram, minimal vectors, alpha, ...) is computed
    from (alg, den, rows) and norm alone, so equal lattices with one norm
    give the same values however they were built.
    """

    __slots__ = ("alg", "den", "rows", "norm", "_gram", "_red", "_mins", "_conj", "_alpha", "_right")

    def __init__(self, alg: AlgebraPresentation, den: int, rows, norm=None):
        self.alg = alg
        self.den = den
        self.rows = tuple(tuple(r) for r in rows)
        self.norm = norm
        self._gram = None
        self._red = None
        self._mins = None
        self._conj = None
        self._alpha = None
        self._right = None

    @classmethod
    def from_rows(cls, alg, den: int, rows, norm=None) -> "OrderLattice":
        reduced = hnf(rows)
        if len(reduced) != 4:
            raise ValueError("lattice is not of full rank 4")
        g = gcd(den, *(x for row in reduced for x in row))
        if g > 1:
            den //= g
            reduced = [[x // g for x in row] for row in reduced]
        return cls(alg, den, reduced, norm)

    def __eq__(self, other):
        return (
            isinstance(other, OrderLattice)
            and self.alg == other.alg
            and self.den == other.den
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.alg, self.den, self.rows))

    def __repr__(self):
        return f"OrderLattice(den={self.den}, rows={self.rows})"

    def _solve(self, num, d: int = 1) -> list[int] | None:
        """Integer coordinates of the element num / d, or None when it is off the lattice.

        The rows are the 4 x 4 upper triangular HNF that from_rows makes, so
        c . rows = den * num / d is solved by forward substitution, unrolled:
        only the entries rows[i][j] with i <= j are read.
        """
        (p0, a01, a02, a03), (_, p1, a12, a13), (_, _, p2, a23), (_, _, _, p3) = self.rows
        den = self.den
        n0, n1, n2, n3 = num
        c0, r = divmod(den * n0, d * p0)
        if r:
            return None
        c1, r = divmod(den * n1 - d * c0 * a01, d * p1)
        if r:
            return None
        c2, r = divmod(den * n2 - d * (c0 * a02 + c1 * a12), d * p2)
        if r:
            return None
        c3, r = divmod(den * n3 - d * (c0 * a03 + c1 * a13 + c2 * a23), d * p3)
        if r:
            return None
        return [c0, c1, c2, c3]

    def _det(self) -> int:
        return prod(self.rows[j][j] for j in range(4))

    def covolume(self) -> Fraction:
        return Fraction(self._det(), self.den**4)

    def _covolume_ratio_is(self, other: "OrderLattice", num: int, den: int = 1) -> bool:
        """Whether covol(self) / covol(other) = num / den, compared in integers."""
        return den * self._det() * other.den**4 == num * other._det() * self.den**4

    def gram_int(self) -> list[list[int]]:
        """Integer Gram [tr(r_m conj(r_n))] over the numerator rows.

        A coordinate vector c represents the element (c . rows) / den of
        reduced norm (c G c^T) / (2 den^2), so norm-n vectors are exactly
        the solutions of the integer form at value 2 den^2 n.
        """
        if self._gram is None:
            # tr(x conj(y)) = 2 x0 y0 - 2a x1 y1 - 2b x2 y2 + 2ab x3 y3 (qalg.trace_pairing),
            # symmetric, so the 10 upper entries are mirrored
            a, b, rows = self.alg.a, self.alg.b, self.rows
            w1, w2, w3 = -2 * a, -2 * b, 2 * a * b
            g = [[0] * 4 for _ in range(4)]
            for m in range(4):
                x0, x1, x2, x3 = rows[m]
                for n in range(m, 4):
                    y0, y1, y2, y3 = rows[n]
                    g[m][n] = g[n][m] = 2 * x0 * y0 + w1 * x1 * y1 + w2 * x2 * y2 + w3 * x3 * y3
            self._gram = g
        return self._gram

    def reduced_gram(self) -> tuple[list[list[int]], list[list[int]]]:
        """Length-reduced Gram with the unimodular basis change: (U G U^T, U), greedy_reduce of gram_int."""
        if self._red is None:
            self._red = greedy_reduce(self.gram_int())
        return self._red

    def norm_form(self, n: int = 1) -> tuple[list[list[int]], int]:
        """The reduced Gram and its value 2 den^2 n at the elements of reduced norm n (see gram_int)."""
        return self.reduced_gram()[0], 2 * self.den**2 * n

    def _short_vector(self, accept) -> list[int]:
        """Numerator row of the first short vector whose value passes accept.

        Vectors come in increasing value, with ties in walk order; the bound
        starts at the least diagonal entry and doubles until one passes.
        Only _generator's fallback searches this way.
        """
        gram, umat = self.reduced_gram()
        bound = min(gram[m][m] for m in range(4))
        while True:
            for c, val in sorted(iter_short_vectors(gram, bound), key=lambda cv: cv[1]):
                if accept(val):
                    return vec_mat(vec_mat(c, umat), self.rows)
            bound *= 2

    def minimal_vector(self) -> list[int]:
        """Numerator row r of a nonzero lattice element r / den of smallest reduced norm.

        It is the first minimal vector in walk order (_minimal_rows), the
        vector that a search sorted by value, stable on ties, returns first.
        """
        return self._minimal_rows()[1][0]

    def _minimal_rows(self) -> tuple[int, list[list[int]]]:
        """(least value, numerator rows of the minimal vectors, one of each sign pair), enumerated once.

        The value is the reduced Gram's (norm_form), and the rows come in the
        walk order of the reduced form, up to its least diagonal entry.
        """
        if self._mins is None:
            gram, umat = self.reduced_gram()
            vecs = list(iter_short_vectors(gram, min(gram[m][m] for m in range(4))))
            least = min(val for _, val in vecs)
            self._mins = least, [vec_mat(vec_mat(c, umat), self.rows) for c, val in vecs if val == least]
        return self._mins

    def _generator(self) -> list[int]:
        """Numerator row of an alpha with self = Nm(self) O + alpha O, for an integral ideal.

        Any alpha in I with gcd(Nm(alpha)/Nm(I), Nm(I)) = 1 will do.  The
        candidates are the reduced basis rows b_0, ..., b_3, then b_a + b_b
        and b_a - b_b for a < b, each value read off the reduced Gram; the
        first that meets the gcd condition is alpha.  Only if none does is
        alpha the first short vector that does (_short_vector).  A rep's
        own minimal vectors never do: their Nm(x)/Nm(I) is Nm(I).  alpha
        feeds only _pair_product, whose HNF is canonical and certified by
        its covolume, so no output depends on which alpha is taken.
        """
        if self._alpha is None:
            n = self.norm
            gram, umat = self.reduced_gram()
            unit = self.norm_form(n)[1]

            def passes(val):
                return gcd(val // unit, n) == 1

            u = next((umat[a] for a in range(4) if passes(gram[a][a])), None)
            if u is None:
                pairs = ((a, b, s) for a, b in combinations(range(4), 2) for s in (1, -1))
                u = next(
                    ([x + s * y for x, y in zip(umat[a], umat[b])] for a, b, s in pairs
                     if passes(gram[a][a] + gram[b][b] + 2 * s * gram[a][b])),
                    None,
                )
            self._alpha = self._short_vector(passes) if u is None else vec_mat(u, self.rows)
        return self._alpha

    # lattice arithmetic ------------------------------------------------

    def multiply(self, other: "OrderLattice") -> "OrderLattice":
        """The product from all 16 row products; no library path calls it, perfbench's tracer wraps it."""
        assert self.alg == other.alg
        mul = self.alg.mul
        prods = [mul(x, y) for x in self.rows for y in other.rows]
        return OrderLattice.from_rows(self.alg, self.den * other.den, prods)

    def conjugated(self) -> "OrderLattice":
        """conj(self), computed once per lattice; conjugation keeps the reduced norm, so it has self's norm."""
        if self._conj is None:
            self._conj = OrderLattice.from_rows(self.alg, self.den, [_conj(r) for r in self.rows], self.norm)
        return self._conj

    def reduced_discriminant(self) -> int:
        # the trace form of a lattice in a definite algebra is positive
        # definite, so its determinant is the last leading minor
        d2, rem = divmod(leading_minors(self.gram_int())[0][-1], self.den**8)
        d = isqrt(d2)
        if rem or d * d != d2:
            raise ValueError("trace form determinant is not an integer square; not an order")
        return d

    def is_order(self) -> bool:
        if self._solve((1, 0, 0, 0)) is None:
            return False
        mul, d = self.alg.mul, self.den**2
        return all(self._solve(mul(x, y), d) is not None for x in self.rows for y in self.rows)


def standard_order(alg: AlgebraPresentation) -> OrderLattice:
    """The obvious order Z<1, i, j, k>."""
    return OrderLattice(alg, 1, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])


def ideal_norm(ideal: OrderLattice, reference: OrderLattice) -> Fraction:
    """Reduced norm of an ideal: square root of the covolume ratio."""
    return _sqrt_fraction(ideal.covolume() / reference.covolume())


def unit_weight(order: OrderLattice) -> int:
    """Number of norm-1 elements; for a definite order these are the units."""
    gram, scale = order.norm_form()
    return vector_counts(gram, scale).get(scale, 0)


def eichler_mass(q: int, M: int) -> Fraction:
    mass = Fraction(q * M, 24)
    for p in factorint(q).keys():
        mass *= 1 - Fraction(1, p)
    for p in factorint(M).keys():
        mass *= 1 + Fraction(1, p)
    return mass


# order construction ----------------------------------------------------


def _projective_points(p: int):
    """Representatives of P^3(F_p): first nonzero coordinate equal to 1."""
    for lead in range(4):
        for tail in product(range(p), repeat=3 - lead):
            yield [0] * lead + [1, *tail]


def _try_overorder(order: OrderLattice, vecs: list[list[int]], p: int) -> OrderLattice | None:
    d, pair = order.den * p, order.alg.trace_pairing
    new = [vec_mat(c, order.rows) for c in vecs]
    # r / d is integral: trace 2 r[0] / d and norm pair(r, r) / (2 d^2) are integers
    if any(2 * r[0] % d or pair(r, r) % (2 * d * d) for r in new):
        return None
    rows = [[p * x for x in row] for row in order.rows] + new
    cand = OrderLattice.from_rows(order.alg, d, rows)
    return cand if cand.is_order() else None


def maximal_order(alg: AlgebraPresentation) -> OrderLattice:
    """Saturate Z<1,i,j,k> to an order of reduced discriminant q."""
    ram = finite_ramified_primes(alg.a, alg.b)
    if len(ram) != 1:
        raise ValueError("presentation must be ramified at exactly one finite prime")
    q = ram[0]
    order = standard_order(alg)
    for _ in range(64):
        d = order.reduced_discriminant()
        if d == q:
            return order
        assert d % q == 0
        p = min(factorint(d // q).keys())
        singles = list(_projective_points(p))
        # index p: one p-denominator element; index p^2 fallback: two, which
        # are independent mod p since each has leading nonzero coordinate 1
        tries = chain(
            ([c] for c in singles),
            (list(ab) for ab in combinations(singles, 2)),
        )
        for vecs in tries:
            grown = _try_overorder(order, vecs, p)
            if grown is not None:
                break
        if grown is None:
            raise RuntimeError(f"saturation failed at p={p} (discriminant {d})")
        order = grown
    raise RuntimeError("saturation did not terminate")


def _split_idempotent(order: OrderLattice, mats, p: int) -> list[int]:
    """Coordinates mod p of a rank-1 idempotent in order/p ~ M_2(F_p).

    mats is _right_action_matrices(order, order).
    """
    gram, scale = order.gram_int(), 2 * order.den**2

    def norm_mod(c):
        # reduced norm of the element with coordinates c is c G c^T / (2 den^2)
        total = sum(c[m] * gram[m][n] * c[n] for m in range(4) for n in range(4))
        if total % scale:
            raise RuntimeError(f"a reduced norm c G c^T / {scale} is not an integer")
        return total // scale % p

    x = next((c for c in _projective_points(p) if norm_mod(c) == 0), None)
    if x is None:
        raise RuntimeError(f"norm form anisotropic mod {p}; is p coprime to the level?")
    # tr(b_m) = 2 rows[m][0] / den, and x b_m has the coordinates vec_mat(x, mats[m])
    traces = [2 * r[0] // order.den for r in order.rows]
    # slide to a rank-1 element of nonzero trace; x or some basis multiple works
    for y in chain([x], (vec_mat(x, m) for m in mats)):
        t = sum(a * b for a, b in zip(traces, y)) % p
        if t:
            return [v * pow(t, -1, p) % p for v in y]
    raise RuntimeError("no nonzero-trace zero divisor found; trace pairing degenerate?")


def _level_raise(order: OrderLattice, p: int) -> OrderLattice:
    """Index-p Eichler suborder Z + eO + pO, for e a rank-1 idempotent of O/pO.

    In O/pO = M_2(F_p) with e = E11, eO is the top row, so Z + eO + pO is
    [[Z, Z], [pZ, Z]] in M_2(Z_p) and O at every other prime (Voight,
    Quaternion Algebras, GTM 288, ch. 23).
    """
    mats = _right_action_matrices(order, order)
    idem = _split_idempotent(order, mats, p)
    ee = vec_mat(idem, _right_mult(mats, idem))
    assert all((x - y) % p == 0 for x, y in zip(ee, idem)), "not idempotent mod p"
    rows = [[p * x for x in row] for row in order.rows]
    rows.append([order.den, 0, 0, 0])
    # e b_m has the coordinates vec_mat(idem, mats[m])
    rows += [vec_mat(vec_mat(idem, m), order.rows) for m in mats]
    sub = OrderLattice.from_rows(order.alg, order.den, rows)
    assert sub.is_order()
    assert sub.reduced_discriminant() == p * order.reduced_discriminant()
    return sub


def eichler_order(order: OrderLattice, M: int) -> OrderLattice:
    """Eichler order of level q*M inside a maximal order of discriminant q."""
    q = order.reduced_discriminant()
    if M < 1:
        raise ValueError("level cofactor M must be positive")
    fac = factorint(M)
    if gcd(M, q) != 1 or any(e > 1 for e in fac.values()):
        raise ValueError(f"level N={q * M} = q*M must be square-free")
    current = order
    for p in sorted(fac.keys()):
        current = _level_raise(current, p)
    return current


# ideal class enumeration ------------------------------------------------


def _right_action_matrices(ideal: OrderLattice, base: OrderLattice) -> list[list[list[int]]]:
    """mats[j][i]: coordinates in ideal of (ideal row i) * (base row j)."""
    mul, d = ideal.alg.mul, ideal.den * base.den
    mats = []
    for r in base.rows:
        rows = [ideal._solve(mul(v, r), d) for v in ideal.rows]
        assert None not in rows, "lattice is not a right ideal"
        mats.append(rows)
    return mats


def _right_mult(mats, e) -> list[list[int]]:
    """Matrix of right multiplication by the base element of coordinates e."""
    return [[sum(c * m[i][j] for c, m in zip(e, mats)) for j in range(4)] for i in range(4)]


def _neighbors(ideal: OrderLattice, base: OrderLattice, p: int, idem: list[int], skip=frozenset()):
    """Yield the p+1 p-neighbours of ideal, of norm Nm(ideal) p, one at a time.

    Each is p ideal + the preimage of a two-dimensional right submodule of
    ideal/p ideal, in the sorted order of the submodules' echelon bases,
    given as tuples of rows mod p.  A submodule in skip when its turn comes
    (the walk may add to skip while it reads) is passed over unbuilt.
    With idem the coordinates of a rank-1 idempotent e of base mod p, the
    image V = (ideal/p ideal) e is a plane, and those submodules are the
    cyclic ones v (base/p base) for the p+1 lines v of V (module docstring):
    in M_2(F_p), v M_2 holds the matrices whose column space lies in that
    of v, and the column spaces of the lines of M_2 e run once through the
    lines of F_p^2.  The submodules are all found first, to be sorted; a
    lattice is built only when asked for, so a walk that stops at the mass
    builds none of the rest.
    """
    mats = _right_action_matrices(ideal, base)
    image, piv = rref_mod(_right_mult(mats, idem), p)
    assert len(piv) == 2, "image of the idempotent is not 2-dimensional"
    b1, b2 = image
    lines = [b2] + [[(x + t * y) % p for x, y in zip(b1, b2)] for t in range(p)]
    subs = set()
    for v in lines:
        span, piv = rref_mod([vec_mat(v, m) for m in mats], p)
        assert len(piv) == 2, "cyclic submodule is not 2-dimensional"
        subs.add(tuple(map(tuple, span)))
    assert len(subs) == p + 1, f"expected {p + 1} neighbor submodules, found {len(subs)}"
    scaled = [[p * x for x in row] for row in ideal.rows]
    for span in sorted(subs):
        if span in skip:
            continue
        rows = scaled + [vec_mat(c, ideal.rows) for c in span]
        yield OrderLattice.from_rows(ideal.alg, ideal.den, rows, norm=ideal.norm * p)


def _conj_quotient(ideal: OrderLattice, row) -> OrderLattice:
    """conj(alpha) I / Nm(I) for alpha = row / den in I, with its norm Nm(alpha) / Nm(I)."""
    # conj(alpha) / Nm(I) = conj(row) / (den Nm(I))
    alg, d, crow = ideal.alg, ideal.den * ideal.norm, _conj(row)
    norm, rem = divmod(alg.trace_pairing(row, row) // 2, ideal.den * d)
    if rem:
        raise RuntimeError("Nm(alpha) / Nm(I) is not an integer")
    return OrderLattice.from_rows(alg, ideal.den * d, [alg.mul(crow, r) for r in ideal.rows], norm)


def _reduce_ideal(ideal: OrderLattice) -> tuple[OrderLattice, list[int]]:
    """(conj(alpha) I / Nm(I), the numerator row of alpha), alpha minimal in I.

    The lattice must have covolume (Nm(small) / Nm(I))^2 covol(I),
    RuntimeError otherwise.
    """
    row = ideal.minimal_vector()
    small = _conj_quotient(ideal, row)
    if not small._covolume_ratio_is(ideal, small.norm**2, ideal.norm**2):
        raise RuntimeError("conj(alpha) I / Nm(I) has the wrong covolume")
    return small, row


def _reduced_forms(ideal: OrderLattice, w: int) -> dict[OrderLattice, list[int]]:
    """The lattices conj(beta) I / Nm(I) over the minimal vectors beta of I, each with a numerator row of its beta.

    w is the number of units of O_L(I).  If u is one, conj(u beta) I = conj(beta) I,
    so when the minimal vectors, both signs, number w, they are the unit
    multiples of one, and for a reduced I that one is the scalar Nm(I),
    which gives I itself.  w = 0 turns that shortcut off, for an I that
    need not be reduced.
    """
    mins = ideal._minimal_rows()[1]
    if 2 * len(mins) == w:
        return {ideal: [ideal.norm * ideal.den, 0, 0, 0]}
    return {_conj_quotient(ideal, row): row for row in mins}


def _returning_span(rep: OrderLattice, beta, alpha, d_alpha: int, source: OrderLattice, p: int) -> tuple:
    """The submodule of I_j / p I_j spanned by a p-neighbour of rep I_j in the class of source I_k.

    A p-neighbour N of I_k reduced to conj(alpha) N / Nm(N), the form
    conj(beta) I_j / Nm(I_j) of I_j, where alpha / Nm(N) = alpha / d_alpha
    and beta are numerator rows (over I_j's den for beta).  The returned
    neighbour is M = p Nm(I_j) / (Nm(N) Nm(beta)) beta conj(alpha) I_k (see
    right_ideal_classes): its 4 generators are solved in I_j and
    echelonized mod p.  RuntimeError if M is not in I_j or does not span a
    plane mod p.
    """
    alg = rep.alg
    gamma = alg.mul(beta, _conj(alpha))
    # the generators f gamma r / d over the rows r of I_k, as Nm(beta) = pair(beta, beta) / (2 rep.den^2)
    f = p * rep.norm * rep.den
    d = (alg.trace_pairing(beta, beta) // 2) * d_alpha * source.den
    coords = [rep._solve([f * x for x in alg.mul(gamma, r)], d) for r in source.rows]
    if None in coords:
        raise RuntimeError("the returning p-neighbour is not inside the class rep")
    span, piv = rref_mod(coords, p)
    if len(piv) != 2:
        raise RuntimeError("the returning p-neighbour does not span a plane mod p")
    return tuple(map(tuple, span))


def _pair_product(lhs: OrderLattice, rhs: OrderLattice, shrink: int = 1) -> OrderLattice:
    """lhs * conj(rhs) / shrink, with its norm, for integral right ideals of one order O with int norms.

    lhs = Nm(lhs) O + alpha O (alpha from _generator) and O conj(rhs) = conj(rhs),
    so the product is Nm(lhs) conj(rhs) + alpha conj(rhs): 8 rows, the first 4
    already triangular.  Those rows always span a sublattice of lhs conj(rhs),
    which has covolume Nm(rhs)^2 covol(lhs); equal covolumes certify equality.
    Its norm is Nm(lhs) Nm(rhs) / shrink^2, exact for shrink = 1 and for
    rhs = lhs, shrink = Nm(lhs): the left order, as I conj(I) = Nm(I) O_L(I).
    """
    alg, n, alpha = lhs.alg, lhs.norm, lhs._generator()
    crhs = rhs.conjugated()
    rows = [[n * lhs.den * x for x in r] for r in crhs.rows]
    rows += [alg.mul(alpha, r) for r in crhs.rows]
    prod = OrderLattice.from_rows(alg, lhs.den * crhs.den * shrink, rows, n * rhs.norm // shrink**2)
    if not prod._covolume_ratio_is(lhs, rhs.norm**2, shrink**4):
        raise RuntimeError("Nm(I) O + alpha O is not I: the pair product covolume is off")
    return prod


def _right_order(ideal: OrderLattice) -> OrderLattice:
    """O_R(I) = conj(I) I / Nm(I) for an invertible ideal, computed once per lattice.

    conj(I), with I's norm, is a right O_L(I)-ideal, so this is its _pair_product with itself.
    """
    if ideal._right is None:
        c = ideal.conjugated()
        ideal._right = _pair_product(c, c, ideal.norm)
    return ideal._right


def _two_sided_prime(order: OrderLattice, p: int) -> OrderLattice:
    """J_p = pO + (the kernel mod p of the trace form of O), for p | N, with norm p.

    At a prime p exactly dividing the level, J_p is the two-sided ideal of
    reduced norm p (Voight, Quaternion Algebras, GTM 288, ch. 23).  It must
    be a left and a right O-ideal of covolume p^2 covol(O); RuntimeError
    otherwise.  Conjugation maps O onto itself and keeps tr(x conj(y)), so
    conj(J_p) = J_p.
    """
    # tr(x conj(y)) for x = r_m / den and y = r_n / den (see gram_int)
    trace = [[g // order.den**2 for g in row] for row in order.gram_int()]
    echelon, pivots = rref_mod(trace, p)
    rows = [[p * x for x in row] for row in order.rows]
    for free in (c for c in range(4) if c not in pivots):
        v = [int(c == free) for c in range(4)]
        for r, pc in enumerate(pivots):
            v[pc] = -echelon[r][free]
        rows.append(vec_mat(v, order.rows))
    two_sided = OrderLattice.from_rows(order.alg, order.den, rows, norm=p)
    mul, d = order.alg.mul, order.den * two_sided.den
    sides = ((mul(x, y), mul(y, x)) for x in order.rows for y in two_sided.rows)
    if not two_sided._covolume_ratio_is(order, p**2) or any(
        two_sided._solve(z, d) is None for side in sides for z in side
    ):
        raise RuntimeError(f"J_{p} is not a two-sided ideal of covolume {p}^2 covol(O)")
    return two_sided


def equivalent_ideals(lhs: OrderLattice, rhs: OrderLattice) -> bool:
    """Whether two right ideals differ by a left unit: x with lhs = x*rhs.

    Both must be integral right ideals of one order that carry int norms, as
    the class-walk ideals and ClassSet.reps do.  The test is the walk's key:
    lhs reduces to one of the lattices conj(beta) rhs / Nm(rhs), beta minimal
    in rhs, exactly in the equivalent case (_reduce_ideal, _reduced_forms,
    with no shortcut, as rhs need not be reduced).  Ideals whose right orders
    conj(I) I / Nm(I), computed once per lattice, differ raise ValueError.
    """
    if not (isinstance(lhs.norm, int) and isinstance(rhs.norm, int)):
        raise ValueError("equivalent_ideals needs integral right ideals with int norms")
    if _right_order(lhs) != _right_order(rhs):
        raise ValueError("equivalent_ideals needs right ideals of one order")
    return _reduce_ideal(lhs)[0] in _reduced_forms(rhs, 0)


def _type_key(gram) -> tuple[tuple[int, int, int], ...]:
    """The greedy-reduced ternary Gram with basis vectors 2 and 3 negated so that G01, G02 >= 0.

    Both steps are GL_3(Z) changes of basis, so Grams with one key have one
    canonical_gram, and the key itself is a Gram to search from.
    """
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = greedy_reduce(gram)[0]
    s1, s2 = (-1 if g01 < 0 else 1), (-1 if g02 < 0 else 1)
    g01, g02, g12 = s1 * g01, s2 * g02, s1 * s2 * g12
    return ((g00, g01, g02), (g01, g11, g12), (g02, g12, g22))


@dataclass
class ClassSet:
    """Right ideal classes of an Eichler order, with their orders and weights.

    right_orders[i], the JSON key right_order_basis, holds the left order
    O_L(I_i) = I_i conj(I_i) / Nm(I_i) of reps[i]; both names stay so that
    output bytes stay.

    The private _types[i] is the type of class i: the canonical Gram of the
    trace-zero lattice of right_orders[i].  Equivalent ideals have conjugate
    left orders, whose ternary lattices are isometric, so the type is a class
    invariant; classes of one type share one theta series.  The private
    _known maps every lattice that an ideal of class i reduces to onto i
    (the walk's key, see right_ideal_classes); _identify reads it.  Neither
    is part of the JSON, of the repr or of equality.  _atkin_lehner gives
    the group G that the Atkin-Lehner involutions W_p, p | N, generate, as
    class permutations, and the map of each of its orbits.
    """

    presentation: AlgebraPresentation
    q: int
    M: int
    h: int
    reps: list[OrderLattice]
    right_orders: list[OrderLattice]
    weights: list[int]
    mass: Fraction
    _types: list[tuple[tuple[int, int, int], ...]] = field(repr=False, compare=False)
    _known: dict[OrderLattice, int] = field(repr=False, compare=False)

    def _identify(self, ideal: OrderLattice) -> int:
        """The class of an integral right ideal of the base order that carries an int norm.

        Such an ideal reduces to one of the lattices of its class in _known.
        A lattice without an int norm Nm, or of covolume other than
        Nm^2 covol(O), or one that reduces to a lattice of no class, is not
        such an ideal, and raises ValueError.
        """
        if not isinstance(ideal.norm, int) or not ideal._covolume_ratio_is(self.reps[0], ideal.norm**2):
            raise ValueError("_identify needs an ideal with an int norm Nm and covolume Nm^2 covol(O)")
        k = self._known.get(_reduce_ideal(ideal)[0])
        if k is None:
            raise ValueError("the ideal reduces to no class's lattice: not a right ideal of the base order")
        return k

    def _atkin_lehner(self) -> tuple[list[tuple[int, ...]], list[tuple[int, dict[int, int], list[int]]]]:
        """(G, orbits): the group G that the W_p, p | N, generate, as |G| class permutations, and its orbits.

        W_p sends class i to the class of I_i J_p.  The J_p are commuting
        two-sided ideals with J_p^2 = pO, so G is elementary abelian, and
        its element g, a bitmask over the sorted primes, is the product of
        the W_p of its bits: G[g] is its permutation, G[0] the identity and
        W_p = G[1 << b] for p the b-th prime.  The group law is the XOR of
        bitmasks, written + below.  Each orbit of G is mapped from its least
        class i0: phi(g) = g(i0), for the g in increasing order.  A g with
        g + s already labelled, for s in the stabilizer H found so far, is
        skipped.  Any other g, with lowest bit e_b, names the class k of
        I_src J_{p_b}, src = phi(g + e_b): if k is already labelled at g',
        g + g' joins H, else phi(g) = k.  A skipped g reaches a class
        labelled at a smaller g, so each class is labelled by the least g
        reaching it.  orbits holds each orbit's map (i0, {k: g}, H), in
        increasing i0, then g.  An orbit of t classes costs t - 1 + dim H
        products, not r t, and G[s](phi(g)) = phi(g + s) for every s.  As
        conj(J_p) = J_p, I_src J_p is the pair product Nm(I_src) J_p +
        alpha J_p, certified by its covolume (_pair_product, _two_sided_prime).

        Each image becomes the next source, so _identify must name every rep
        by its own class first; an image must keep its source's weight and
        type and stay in its orbit, and the labelled g of an orbit must be a
        transversal of H.  RuntimeError otherwise, as for a product in no class.
        """
        if any(self._identify(rep) != k for k, rep in enumerate(self.reps)):
            raise RuntimeError("_identify does not name every class rep by its own class")
        primes = sorted(factorint(self.q * self.M))
        two_sided = [_two_sided_prime(self.reps[0], p) for p in primes]
        size = 1 << len(primes)
        perms = [[None] * self.h for _ in range(size)]
        orbit = [None] * self.h  # class: (its orbit's least class, its g)
        orbits = []

        def phi(g):  # the class of g in the orbit being mapped
            return next(label[g ^ s] for s in stab if g ^ s in label)

        for i0 in range(self.h):
            if orbit[i0] is not None:
                continue
            orbit[i0] = (i0, 0)
            label, stab = {0: i0}, [0]
            for g in range(1, size):
                if any(g ^ s in label for s in stab):
                    continue
                b = (g & -g).bit_length() - 1
                src, p = phi(g ^ (1 << b)), primes[b]
                prod = _pair_product(self.reps[src], two_sided[b])
                try:
                    k = self._identify(prod)
                except ValueError as exc:
                    raise RuntimeError(f"W_{p}: {exc}") from exc
                if self.weights[k] != self.weights[src] or self._types[k] != self._types[src]:
                    raise RuntimeError(f"W_{p} does not keep the weight and type of class {src}")
                if orbit[k] is None:
                    orbit[k] = (i0, g)
                    label[g] = k
                elif orbit[k][0] == i0:
                    stab += [s ^ g ^ orbit[k][1] for s in stab]
                else:
                    raise RuntimeError(f"W_{p} sends class {src} into the orbit of class {orbit[k][0]}")
            if len(label) * len(stab) != size:
                raise RuntimeError(f"the Atkin-Lehner orbit of class {i0} is no transversal of its stabilizer")
            for g, k in label.items():
                for s, perm in enumerate(perms):
                    perm[k] = phi(g ^ s)
            orbits.append((i0, {k: g for g, k in label.items()}, stab))
        return [tuple(perm) for perm in perms], orbits

    def to_json_dict(self) -> dict:
        def mat(latt):
            return [[str(Fraction(x, latt.den)) for x in row] for row in latt.rows]

        return {
            "presentation": {"a": self.presentation.a, "b": self.presentation.b},
            "q": self.q,
            "M": self.M,
            "h": self.h,
            "classes": [
                {
                    "ideal_basis": mat(self.reps[i]),
                    "right_order_basis": mat(self.right_orders[i]),
                    "weight": self.weights[i],
                }
                for i in range(self.h)
            ],
        }


def right_ideal_classes(base: OrderLattice) -> ClassSet:
    """Enumerate the right ideal classes of an Eichler order by p-neighbors.

    Breadth-first traversal at the smallest prime not dividing the level,
    certified complete by the Eichler mass formula.  Each neighbour is
    reduced to conj(alpha) I / Nm(I), alpha minimal in I (_reduce_ideal),
    and looked up in the reduced forms conj(beta) I_k / Nm(I_k) of the
    classes found so far (_reduced_forms).  Every ideal of class k reduces
    to one of those of I_k, and the forms of two classes never meet, so a
    neighbour found there is in a known class and any other is a new one:
    no equivalence test is needed.  Every class, O first, is registered by
    one step: its left order, unit weight and reduced forms, which must
    hold the rep itself (RuntimeError otherwise), and its share of the
    mass.  The ClassSet keeps the forms as _known, in the final class
    order, for ClassSet._identify.

    Three identities spare work that the plain walk repeats; the mass
    certificate still checks every weight, and no step changes a rep, a
    weight, a type or the class order (module docstring):

    - A neighbour N of I_k that reduces to the form conj(beta) I_j / Nm(I_j)
      (known keeps a beta per form; the rep's own is Nm(I_j)) proves that
      M = p Nm(I_j) / (Nm(N) Nm(beta)) beta conj(alpha) I_k, a p-neighbour
      of I_j, is in class k.  For j > k the walk records (beta, alpha, I_k)
      and, on reaching I_j, solves M's 4 generators in I_j and echelonizes
      them mod p (_returning_span); for j = k it does so at once.
      _neighbors passes those submodules over unbuilt.  Their class is
      registered, so the plain walk would only have looked them up.  M must
      lie in I_j and span a plane mod p, RuntimeError otherwise.
    - A rep R has least norm Nm(R)^2 (RuntimeError otherwise), so its unit
      count is w = 2 #{x minimal in R, one sign each : x / Nm(R) in O_L(R)},
      read off the minimal vectors that _reduced_forms enumerates too, not
      counted on O_L(R).
    - canonical_gram is a GL_3(Z) invariant, so it runs once per _type_key
      of the ternary Grams, not once per class.
    """
    alg = base.alg
    N = base.reduced_discriminant()
    ram = finite_ramified_primes(alg.a, alg.b)
    assert len(ram) == 1
    q = ram[0]
    M = N // q
    target_mass = eichler_mass(q, M)
    p = next(r for r in primerange(2, 1000) if N % r)

    idem = _split_idempotent(base, _right_action_matrices(base, base), p)

    classes, orders, weights = [], [], []
    # every lattice conj(beta) I_k / Nm(I_k) that an ideal of a known class k
    # can reduce to, mapped to k and the numerator row of beta
    known = {}
    # per class j: (beta, alpha, d_alpha, I_k) of each reduced neighbour of an
    # earlier class k that proves a neighbour of I_j in class k (_returning_span)
    returning = []
    acc = Fraction(0)

    def register(rep):  # rep is the next class
        nonlocal acc
        # O_L(I) = I conj(I) / Nm(I)
        left = _pair_product(rep, rep, rep.norm)
        # the units of O_L(I) are the x / Nm(I), x minimal in I, that lie in it
        least, mins = rep._minimal_rows()
        if least != rep.norm_form(rep.norm**2)[1]:
            raise RuntimeError("a class rep's least norm is not Nm(I)^2")
        w = 2 * sum(left._solve(x, rep.den * rep.norm) is not None for x in mins)
        forms = _reduced_forms(rep, w)
        if rep not in forms:
            raise RuntimeError("a class rep is not among its own reduced forms")
        k = len(classes)
        known.update((form, (k, beta)) for form, beta in forms.items())
        classes.append(rep)
        orders.append(left)
        weights.append(w)
        returning.append([])
        acc += Fraction(1, w)

    register(OrderLattice(alg, base.den, base.rows, 1))
    # breadth first: the loop reaches each class that register appends
    for k, current in enumerate(classes):
        if acc >= target_mass:
            break
        # the neighbours of I_k whose class is proved, which it need not build
        proved = {_returning_span(current, *record, p) for record in returning[k]}
        returning[k] = None
        for neighbour in _neighbors(current, base, p, idem, proved):
            reduced, alpha = _reduce_ideal(neighbour)
            if reduced not in known:
                register(reduced)
                if acc >= target_mass:
                    break
            j, beta = known[reduced]
            record = beta, alpha, neighbour.den * neighbour.norm, current
            if j == k:
                proved.add(_returning_span(current, *record, p))
            elif j > k:
                returning[j].append(record)

    if acc != target_mass:
        raise RuntimeError(
            f"class enumeration ended at mass {acc}, expected {target_mass}"
        )

    # canonical ordering: the base class stays first, the rest sort on their
    # type (the canonical Gram of the ternary trace-zero lattice), then on the
    # basis; one canonical search per type key (_type_key)
    keys = [_type_key(trace_zero_lattice(o).gram) for o in orders]
    canonical = {key: canonical_gram(key) for key in dict.fromkeys(keys)}
    types = [canonical[key] for key in keys]
    rest = sorted(range(1, len(classes)), key=lambda k: (types[k], classes[k].den, classes[k].rows))
    perm = [0] + rest
    rank = {k: n for n, k in enumerate(perm)}
    return ClassSet(
        presentation=alg,
        q=q,
        M=M,
        h=len(classes),
        reps=[classes[k] for k in perm],
        right_orders=[orders[k] for k in perm],
        weights=[weights[k] for k in perm],
        mass=target_mass,
        _types=[types[k] for k in perm],
        _known={form: rank[k] for form, (k, _) in known.items()},
    )
