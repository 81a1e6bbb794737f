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
    """The Brandt matrices of one class set, counted to the degree asked.

    brandt_matrix(p) decides how far to count: on a cache miss it runs one
    count pass over the h(h+1)/2 pair lattices I_i conj(I_j) to norm p and
    caches B(r) for every prime r <= p.  A caller that needs several
    degrees asks for the largest one first, so one pass serves them all.
    """

    def __init__(self, classes: ClassSet):
        self.classes = classes
        self.h = classes.h
        self.level = classes.q * classes.M
        self._matrices: dict[int, HeckeMatrix] = {}

    def brandt_matrix(self, p: int) -> HeckeMatrix:
        """Degree-p Brandt matrix, its column sums asserted (see HeckeMatrix)."""
        if not isprime(p):
            raise ValueError(f"need a prime degree, got {p}")
        if p in self._matrices:
            return self._matrices[p]
        reps, w, h = self.classes.reps, self.classes.weights, self.h
        # counts[i, j][n]: elements of I_i conj(I_j) with norm n Nm_i Nm_j, n <= p;
        # I_j conj(I_i) is the conjugate lattice, with the same counts
        counts = {}
        for i in range(h):
            for j in range(i, h):
                gram, unit = _pair_form(reps[i], reps[j])
                raw = vector_counts(gram, p * unit)
                assert all(val % unit == 0 for val in raw), "element norm outside the ideal norm lattice"
                counts[i, j] = counts[j, i] = {val // unit: cnt for val, cnt in raw.items()}
        for r in primerange(2, p + 1):
            raws = [[counts[i, j].get(r, 0) for j in range(h)] for i in range(h)]
            assert all(c % w[i] == 0 for i, row in enumerate(raws) for c in row), "unit orbits do not divide the count"
            rows = tuple(tuple(c // w[i] for c in row) for i, row in enumerate(raws))
            kind = "U_p" if self.level % r == 0 else "T_p"
            total = 1 if r == self.classes.q else 2 * r + 1 if kind == "U_p" else r + 1
            for j in range(h):
                colsum = sum(row[j] for row in rows)
                assert colsum == total, f"B({r}) column sum {colsum} != {total} at j={j}"
            # a degree read before keeps its object
            self._matrices.setdefault(r, HeckeMatrix(r, kind, rows))
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
        return basis[0]

    def _unit_vectors(self) -> list[list[int]]:
        """The standard basis of the whole module, where every split starts."""
        return [[1 if i == k else 0 for i in range(self.h)] for k in range(self.h)]

    def eigenvalue_of(self, phi, p: int) -> int:
        """The B(p) eigenvalue of an exact eigenvector phi."""
        if len(phi) != self.h:
            raise ValueError(f"eigenvector needs length h={self.h}, got {len(phi)}")
        image = mat_vec(self.brandt_matrix(p).entries, list(phi))
        pivot = next((k for k, x in enumerate(phi) if x), None)
        if pivot is None:
            raise ValueError("zero vector is not an eigenvector")
        a, rem = divmod(image[pivot], phi[pivot])
        if rem or any(image[k] != a * phi[k] for k in range(self.h)):
            raise ValueError(f"vector is not a B({p}) eigenvector")
        return a

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
