"""Hecke action on functions on the ideal class set.

The matrix of the degree-n operator is computed from short-vector counts on
the lattices I_i * conj(I_j): the entry at (i, j) is the number of elements
of reduced norm n * Nm(I_i) * Nm(I_j), divided by the unit weight w_i.  With
this normalization the all-ones covector is fixed up to p+1 (column sums)
at p prime to the level, diag(w) intertwines the matrix with its transpose,
and cuspidal right eigenvectors have plain coordinate sum zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from sympy import isprime, primerange

from .linalg import mat_vec, primitive_vector, rational_nullspace
from .orders import ClassSet, _pair_form
from .shortvec import vector_counts


def _restrict_kernel(basis, images, a: int) -> list[list[int]]:
    """Primitive integer basis of ker(B - a) inside span(basis), given images[k] = B basis[k]."""
    h = len(basis[0])
    # column k is (B - a) basis[k]; a kernel vector holds the coordinates
    diffs = [[img[i] - a * v[i] for img, v in zip(images, basis)] for i in range(h)]
    return [
        primitive_vector([sum(ck * v[i] for ck, v in zip(c, basis)) for i in range(h)])
        for c in rational_nullspace(diffs)
    ]


# discover_eigensystems splits the module by the primes p <= this one
_DISCOVER_PMAX = 20


@dataclass(frozen=True)
class HeckeMatrix:
    """Exact integer matrix B(p): T_p when p is coprime to the level.

    kind is "U_p" at every p | N, but B(p) is not U_p on the whole module.
    At p | M it counts all integral right ideals of norm p, as the local
    order [[Z, Z], [pZ, Z]] has 2p + 1 of them (Voight, GTM 288, ch. 23),
    so its column sums are 2p + 1.  At p = q it is the permutation of the
    classes by the two-sided prime of norm q, W_q, with column sums 1.
    """

    p: int
    kind: str
    entries: tuple[tuple[int, ...], ...]


class BrandtModule:
    """The Brandt matrices of one class set, kept as certified rows.

    Every count goes through _row: row i, asked at degree p, reads the
    counts of the h pair lattices I_i conj(I_k) to norm p and keeps row i
    of B(r) for every prime r <= p.  brandt_matrix(p) is its h rows.

    The Atkin-Lehner involutions W_p (p | N) permute the classes:
    I_i J_p is in class W_p(i), for J_p the two-sided prime of norm p.
    ClassSet._atkin_lehner gives the group G that they generate, as class
    permutations, from one map of each of its orbits.  If
    I_{Wi} = x I_i J_p and I_{Wj} = y I_j J_p, then
    I_{Wi} conj(I_{Wj}) = p x (I_i conj(I_j)) conj(y), the same lattice
    up to scale, with the same counts at norm n Nm_Wi Nm_Wj (Voight, GTM 288,
    ch. 23; Pizer, J. Algebra 64 (1980)).  So G keeps every B(n)[i, j],
    and the module counts one pair lattice per orbit of G on the unordered
    pairs {i, j}: the orbit's least sorted pair, its key (_key).  G is
    found at the first count, so a module that counts nothing pays nothing
    for it.  The class walk has already reduced the lattices of two kinds
    of keys, so only the other keys are built (_form), by two identities
    for locally principal ideals (Voight, GTM 288, ch. 16-17):

    - I conj(I) = Nm(I) O_L(I), so the pair (i, i) counts the left order
      right_orders[i] at norm n where the pair lattice has norm n Nm_i^2;
    - I_0 = O, and O conj(J) = conj(J), so the pair (0, j) counts I_j
      itself: conjugation keeps the reduced norm, so conj(I_j) and I_j have
      the same counts.

    An orbit holding either kind has it as its key: G maps a pair (i, i)
    to pairs (k, k), and a pair (0, j) sorts before every pair (i, j) with
    i > 0.  The module keeps the reduced Gram of every key it builds and
    the counts of every key to the largest degree counted, so a later row,
    to any degree, builds no lattice again, and a row reads the counts of
    the keys that earlier rows counted far enough.  eigenvector remembers
    the lines it certifies; eigenvalues reads a_p on those lines from two
    rows of B(p), which count at most the 2h - 1 pair lattices of the two
    rows, and checks any other vector on all h rows.
    """

    def __init__(self, classes: ClassSet):
        self.classes = classes
        self.h = classes.h
        self.level = classes.q * classes.M
        # p: B(p) as brandt_matrix returned it, a view of the h rows at p
        self._matrices: dict[int, HeckeMatrix] = {}
        # keys[i][j]: the key of the orbit of {i, j}, from the first count on (_key)
        self._keys: list[list[tuple[int, int]]] | None = None
        # key: _form(*key), a reduced Gram with the counts of I_i conj(I_j) and its unit
        self._forms: dict[tuple[int, int], tuple[list[list[int]], int]] = {}
        # key: (degree d, {n: elements of norm n Nm_i Nm_j}) for every n <= d
        self._counts: dict[tuple[int, int], tuple[int, dict[int, int]]] = {}
        # i: {prime r: row i of B(r)}, for every prime up to the degree row i was counted to
        self._rows: dict[int, dict[int, tuple[int, ...]]] = {}
        # primitive vectors that eigenvector certified as one-dimensional joint eigenspaces
        self._eigenlines: set[tuple[int, ...]] = set()

    def _key(self, i: int, j: int) -> tuple[int, int]:
        """The least sorted pair in the orbit of {i, j} under G (see the class docstring).

        The first call reads G from the class set's orbit map
        (ClassSet._atkin_lehner) and keys all h^2 pairs: the pairs in
        increasing order, each one not yet keyed being the least of its
        orbit, whose pairs are its images under the elements of G.
        """
        if self._keys is None:
            h = self.h
            group = self.classes._atkin_lehner()
            keys = [[None] * h for _ in range(h)]
            for a in range(h):
                for b in range(a, h):
                    if keys[a][b] is None:
                        for s in group:
                            keys[s[a]][s[b]] = keys[s[b]][s[a]] = (a, b)
            self._keys = keys
        return self._keys[i][j]

    def _form(self, i: int, j: int) -> tuple[list[list[int]], int]:
        """Reduced Gram of a lattice with the counts of I_i conj(I_j), i <= j, and its unit.

        unit is the value of norm Nm_i Nm_j in the pair lattice's terms.  The
        pairs (i, i) and (0, j) take the Grams that the class walk reduced
        (see the class docstring); the others build I_i conj(I_j).
        """
        classes = self.classes
        if i == j:
            order = classes.right_orders[i]
            return order.reduced_gram()[0], 2 * order.den**2
        if i == 0:
            rep = classes.reps[j]
            return rep.reduced_gram()[0], 2 * rep.den**2 * rep.norm
        return _pair_form(classes.reps[i], classes.reps[j])

    def _pair_counts(self, i: int, j: int, p: int) -> dict[int, int]:
        """Elements of I_i conj(I_j) with norm n Nm_i Nm_j, by n, for every n <= p at least.

        They are the counts of the pair's key (_key), made when the key is
        first asked past the degree it was counted to.  Every value counted
        must be a multiple of the form's unit; RuntimeError otherwise.
        """
        key = self._key(i, j)
        counted = self._counts.get(key)
        if counted is None or counted[0] < p:
            if key not in self._forms:
                self._forms[key] = self._form(*key)
            gram, unit = self._forms[key]
            raw = vector_counts(gram, p * unit)
            if any(val % unit for val in raw):
                a, b = key
                raise RuntimeError(f"an element of I_{a} conj(I_{b}) has a norm outside Nm_{a} Nm_{b} Z")
            counted = self._counts[key] = (p, {val // unit: cnt for val, cnt in raw.items()})
        return counted[1]

    def _column_sum(self, r: int) -> int:
        """What every column of B(r) sums to (see HeckeMatrix)."""
        if r == self.classes.q:
            return 1
        return 2 * r + 1 if self.level % r == 0 else r + 1

    def _certified_row(self, i: int, raw: list[int], r: int) -> tuple[int, ...]:
        """Row i of B(r) from the raw counts raw[k] of I_i conj(I_k) at norm r.

        The raw counts are symmetric, so raw is column i too: w_i and w_k
        must divide raw[k], and sum_k raw[k] / w_k must be the column sum
        of B(r) (see HeckeMatrix).  Raises RuntimeError otherwise.
        """
        w = self.classes.weights
        if any(c % w[i] or c % w[k] for k, c in enumerate(raw)):
            raise RuntimeError(f"unit orbits do not divide the counts of row {i} of B({r})")
        colsum, total = sum(c // w[k] for k, c in enumerate(raw)), self._column_sum(r)
        if colsum != total:
            raise RuntimeError(f"B({r}) column sum {colsum} != {total} at j={i}, read from row {i}")
        return tuple(c // w[i] for c in raw)

    def brandt_matrix(self, p: int) -> HeckeMatrix:
        """Degree-p Brandt matrix: its h rows, each certified (_row)."""
        if not isprime(p):
            raise ValueError(f"need a prime degree, got {p}")
        if p not in self._matrices:
            kind = "U_p" if self.level % p == 0 else "T_p"
            self._matrices[p] = HeckeMatrix(p, kind, tuple(self._row(i, p) for i in range(self.h)))
        return self._matrices[p]

    def pairing(self, u, v) -> Fraction:
        """Weighted inner product sum(u_i v_i w_i)."""
        if len(u) != self.h or len(v) != self.h:
            raise ValueError("pairing needs two vectors of length h")
        total = sum(Fraction(a) * Fraction(b) * w for a, b, w in zip(u, v, self.classes.weights))
        return int(total) if total.denominator == 1 else total

    def eigenvector(self, eigendata) -> list[int]:
        """Primitive integer vector spanning the joint eigenspace.

        eigendata is a list of (p, a_p) pairs; the intersection of the
        kernels of B(p) - a_p must be one-dimensional.
        """
        if not eigendata:
            raise ValueError("eigendata must contain at least one (p, a_p) pair")
        self.brandt_matrix(max(p for p, _ in eigendata))
        mats = [self.brandt_matrix(p).entries for p, _ in eigendata]
        basis = self._unit_vectors()
        for mat, (_, ap) in zip(mats, eigendata):
            basis = _restrict_kernel(basis, [mat_vec(mat, v) for v in basis], ap)
            if not basis:
                raise ValueError("no such eigenform for the given eigendata")
        if len(basis) > 1:
            raise ValueError(f"underdetermined eigendata: residual dimension {len(basis)}")
        self._eigenlines.add(tuple(basis[0]))
        return basis[0]

    def _unit_vectors(self) -> list[list[int]]:
        """The standard basis of the whole module, where every split starts."""
        return [[1 if i == k else 0 for i in range(self.h)] for k in range(self.h)]

    def eigenvalue_of(self, phi, p: int) -> int:
        """The B(p) eigenvalue of an exact eigenvector phi (see eigenvalues)."""
        return self.eigenvalues(phi, [p])[p]

    def eigenvalues(self, phi, primes) -> dict[int, int]:
        """The B(p) eigenvalue a_p of phi at each prime p of primes, as {p: a_p}.

        The rows read are chosen once, counted to the largest prime and read
        at each prime in increasing order.  On a line that eigenvector
        certified, with two or more nonzero entries, they are two rows i
        with phi_i != 0, and a_p = (row_i . phi) / phi_i: rows already
        counted to the largest prime first, then rows nonzero on every
        certified line, so lines read one after another share the two rows
        and their at most 2h - 1 keys (_row).  The second row is outside the
        W_p orbit of the first where the support allows: a row in that
        orbit reads the same counts (_key).  Such a line is a
        one-dimensional joint eigenspace of the eigendata's matrices, which
        commute with B(p) at square-free level (Pizer 1980), so phi is a
        B(p) eigenvector; the second row checks the first (RuntimeError).
        Any other vector is checked on all h rows, with ValueError at the
        first prime where it is not an eigenvector.
        """
        if len(phi) != self.h:
            raise ValueError(f"eigenvector needs length h={self.h}, got {len(phi)}")
        support = [k for k, x in enumerate(phi) if x]
        if not support:
            raise ValueError("zero vector is not an eigenvector")
        primes = sorted(set(primes))
        for p in primes:
            if not isprime(p):
                raise ValueError(f"need a prime degree, got {p}")
        if not primes:
            return {}
        top = primes[-1]
        certified = len(support) > 1 and tuple(primitive_vector(phi)) in self._eigenlines
        if certified:
            first, *rest = sorted(support, key=lambda k: (top not in self._rows.get(k, ()),
                                                          not all(v[k] for v in self._eigenlines)))
            # a row in the W_p orbit of the first reads the same counts, so it
            # checks nothing: the second comes from another orbit if one is nonzero
            orbit = self._key(first, first)
            rows = [first, next((k for k in rest if self._key(k, k) != orbit), rest[0])]
            for i in rows:
                self._row(i, top)
        else:
            self.brandt_matrix(top)
            # a nonzero entry first, as a_p is read off the first row
            rows = support + [k for k, x in enumerate(phi) if not x]
        out = {}
        for p in primes:
            image = [sum(b * x for b, x in zip(self._row(i, p), phi)) for i in rows]
            a, rem = divmod(image[0], phi[rows[0]])
            if rem or any(y != a * phi[i] for y, i in zip(image, rows)):
                if certified:
                    raise RuntimeError(f"rows {rows} of B({p}) give no common integer eigenvalue")
                raise ValueError(f"vector is not a B({p}) eigenvector")
            out[p] = a
        return out

    def _row(self, i: int, p: int) -> tuple[int, ...]:
        """Row i of B(p), p prime, from the counts of the h pairs (i, k) to norm p.

        A miss keeps row i of B(r) for every prime r <= p, each certified
        (_certified_row).  A pair whose key is already counted to p is read,
        not counted again (_pair_counts).
        """
        rows = self._rows.setdefault(i, {})
        if p not in rows:
            counts = [self._pair_counts(i, k, p) for k in range(self.h)]
            for r in primerange(2, p + 1):
                rows[r] = self._certified_row(i, [c.get(r, 0) for c in counts], r)
        return rows[p]

    def atkin_lehner_sign(self, phi, p: int) -> int:
        """Atkin-Lehner sign at p dividing the level: -lambda, lambda the B(p) eigenvalue of phi.

        That is the weight-2 rule a_p = -w_p at a prime exactly dividing the
        level, at q and at p | M alike.  The class permutations W_p, the
        generators of the group G that ClassSet._atkin_lehner() maps one
        orbit at a time, satisfy two identities, which the tests pin at
        N=170, 174 and 222: at p | M, B(p) phi = -W_p phi on each line
        that discover_eigensystems reports but the Eisenstein line, so
        -lambda is the W_p eigenvalue of phi; and B(q) is the permutation
        matrix of W_q, so lambda is the W_q eigenvalue of phi.
        """
        if self.level % p != 0:
            raise ValueError(f"{p} does not divide the level {self.level}")
        lam = self.eigenvalue_of(phi, p)
        if lam not in (1, -1):
            raise ValueError(f"U_{p} eigenvalue {lam} is not a sign; not a newform vector")
        return -lam

    def discover_eigensystems(self) -> list[tuple[dict[int, int], list[int]]]:
        """Search for rational eigensystems using the primes p < 20 coprime to the level.

        Splits the module prime by prime by the integer eigenvalues a in
        [-2 isqrt(p), 2 isqrt(p)] and a = p+1 (the Eisenstein direction), and
        reports the one-dimensional pieces.  That range is narrower than the
        Ramanujan bound |a_p| <= 2 sqrt(p) wherever 2 isqrt(p) < isqrt(4p):
        at p = 3 it leaves out a_3 = +-3, so N=170's form g (a_3 = 3) is not found.
        """
        primes = [p for p in primerange(2, _DISCOVER_PMAX + 1) if self.level % p]
        if primes:
            self.brandt_matrix(primes[-1])
        spaces = [self._unit_vectors()]
        for p in primes:
            mat = self.brandt_matrix(p).entries
            candidates = list(range(-2 * isqrt(p), 2 * isqrt(p) + 1)) + [p + 1]
            split = []
            for basis in spaces:
                if len(basis) == 1:
                    split.append(basis)
                    continue
                images = [mat_vec(mat, v) for v in basis]
                for a in candidates:
                    sub = _restrict_kernel(basis, images, a)
                    if sub:
                        split.append(sub)
            spaces = split
        vectors = [basis[0] for basis in spaces if len(basis) == 1]
        out = [({p: self.eigenvalue_of(vec, p) for p in primes}, vec) for vec in vectors]
        return sorted(out, key=lambda t: sorted(t[0].items()))


def eigenvectors(module: BrandtModule, eigendata) -> list[int]:
    """Module-level alias matching the operation name."""
    return module.eigenvector(eigendata)
