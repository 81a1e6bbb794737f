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
    classes by the two-sided prime of norm q, with column sums 1.
    """

    p: int
    kind: str
    entries: tuple[tuple[int, ...], ...]


class BrandtModule:
    """The Brandt matrices of one class set, kept as certified rows.

    Every count goes through _row: row i, asked at degree p, counts the h
    pair lattices I_i conj(I_k) to norm p and keeps row i of B(r) for every
    prime r <= p.  brandt_matrix(p) is its h rows, so a full matrix counts
    each of the h(h+1)/2 pair lattices once.  The class walk has already
    reduced 2h - 1 of those lattices, so only the (h-1)(h-2)/2 others are
    built (_form), by two identities for locally principal ideals
    (Voight, GTM 288, ch. 16-17):

    - I conj(I) = Nm(I) O_L(I), so the pair (i, i) counts the left order
      right_orders[i] at norm n where the pair lattice has norm n Nm_i^2;
    - I_0 = O, and O conj(J) = conj(J), so the pair (0, j) counts I_j
      itself: conjugation keeps the reduced norm, so conj(I_j) and I_j have
      the same counts.

    The module keeps the reduced Gram of every pair it counts, so a later
    row, to any degree, builds no lattice again.  eigenvector remembers the
    lines it certifies; eigenvalues reads a_p on those lines from two rows
    of B(p), which count at most the 2h - 1 pair lattices of the two rows,
    and checks any other vector on all h rows.
    """

    def __init__(self, classes: ClassSet):
        self.classes = classes
        self.h = classes.h
        self.level = classes.q * classes.M
        # p: B(p) as brandt_matrix returned it, a view of the h rows at p
        self._matrices: dict[int, HeckeMatrix] = {}
        # (i, j) with i <= j: _form(i, j), a reduced Gram with the counts of I_i conj(I_j) and its unit
        self._forms: dict[tuple[int, int], tuple[list[list[int]], int]] = {}
        # i: {prime r: row i of B(r)}, for every prime up to the degree row i was counted to
        self._rows: dict[int, dict[int, tuple[int, ...]]] = {}
        # primitive vectors that eigenvector certified as one-dimensional joint eigenspaces
        self._eigenlines: set[tuple[int, ...]] = set()

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
        """Elements of I_i conj(I_j) with norm n Nm_i Nm_j, by n <= p.

        I_j conj(I_i) is the conjugate lattice, with the same counts, so
        both orders share one kept form.  Every value counted must be a
        multiple of the form's unit; RuntimeError otherwise.
        """
        key = (i, j) if i <= j else (j, i)
        if key not in self._forms:
            self._forms[key] = self._form(*key)
        gram, unit = self._forms[key]
        raw = vector_counts(gram, p * unit)
        if any(val % unit for val in raw):
            raise RuntimeError(f"an element of I_{i} conj(I_{j}) has a norm outside Nm_{i} Nm_{j} Z")
        return {val // unit: cnt for val, cnt in raw.items()}

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
        and their 2h - 1 pair lattices (_row).  Such a line is a
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
            rows = sorted(support, key=lambda k: (top not in self._rows.get(k, ()),
                                                  not all(v[k] for v in self._eigenlines)))[:2]
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
        """Row i of B(p), p prime, from a pass over the h pair lattices of row i.

        A miss counts I_i conj(I_k) for every k to norm p and keeps row i of
        B(r) for every prime r <= p, each certified (_certified_row).  The
        raw counts are symmetric, so where row k is already counted to p,
        the count at norm r is read off it as row_k(r)[i] w_k instead: two
        rows count 2h - 1 pair lattices, and h rows h(h+1)/2.
        """
        rows = self._rows.setdefault(i, {})
        if p not in rows:
            w, primes = self.classes.weights, list(primerange(2, p + 1))
            counts = []
            for k in range(self.h):
                known = self._rows.get(k, {})
                if p in known:
                    counts.append({r: known[r][i] * w[k] for r in primes})
                else:
                    counts.append(self._pair_counts(i, k, p))
            for r in primes:
                rows[r] = self._certified_row(i, [c.get(r, 0) for c in counts], r)
        return rows[p]

    def atkin_lehner_sign(self, phi, p: int) -> int:
        """Atkin-Lehner sign at p dividing the level, from the U_p eigenvalue.

        At an exactly-dividing prime of a weight-2 newform the involution
        eigenvalue is the negative of the U_p eigenvalue; the ramified prime
        follows the same rule here (checked against both worked levels).
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
