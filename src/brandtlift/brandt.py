"""Hecke action on functions on the ideal class set.

The matrix of the degree-n operator is computed from short-vector counts on
the lattices I_i * conj(I_j): the entry at (i, j) is the number of elements
of reduced norm n * Nm(I_i) * Nm(I_j), divided by the unit weight w_i.  With
this normalization the all-ones covector is fixed up to p+1 (column sums),
diag(w) intertwines the matrix with its transpose, and cuspidal right
eigenvectors have plain coordinate sum zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from sympy import isprime

from .linalg import clear_denominators, mat_vec, primitive_vector, rational_nullspace
from .orders import ClassSet, _pair_form
from .shortvec import vector_counts


# One count pass over the pair lattices serves every degree up to this bound.
COUNT_BOUND = 60


def _restrict_kernel(basis, images, a: int) -> list[list[int]]:
    """Primitive integer basis of ker(B - a) inside span(basis), given images[k] = B basis[k]."""
    h = len(basis[0])
    # column k is (B - a) basis[k]; a kernel vector holds the coordinates
    diffs = [[img[i] - a * v[i] for img, v in zip(images, basis)] for i in range(h)]
    # positive integer multiples of the kernel vectors: the same primitive forms
    kernel = [clear_denominators(c)[1] for c in rational_nullspace(diffs)]
    return [
        primitive_vector([sum(ck * v[i] for ck, v in zip(c, basis)) for i in range(h)])
        for c in kernel
    ]


@dataclass(frozen=True)
class HeckeMatrix:
    """Exact integer matrix of T_p (p coprime to the level) or U_p (p | level)."""

    p: int
    kind: str
    entries: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {"p": self.p, "kind": self.kind, "entries": [list(r) for r in self.entries]}


class BrandtModule:
    """Caches pair lattices and their norm counts for one class set."""

    def __init__(self, classes: ClassSet):
        self.classes = classes
        self.h = classes.h
        self.level = classes.q * classes.M
        self._pairs: dict[tuple[int, int], tuple[int, dict[int, int]]] = {}
        self._matrices: dict[int, HeckeMatrix] = {}

    def _raw_counts(self, i: int, j: int, nmax: int) -> dict[int, int]:
        """Counts {n: #elements of I_i conj(I_j) with norm n Nm_i Nm_j}, n <= nmax."""
        if j < i:
            return self._raw_counts(j, i, nmax)
        cached = self._pairs.get((i, j))
        if cached is not None and cached[0] >= nmax:
            return cached[1]
        reps = self.classes.reps
        gram, unit = _pair_form(reps[i], reps[j])
        counts = vector_counts(gram, nmax * unit)
        assert all(val % unit == 0 for val in counts), "element norm outside the ideal norm lattice"
        out = {val // unit: cnt for val, cnt in counts.items()}
        self._pairs[(i, j)] = (nmax, out)
        return out

    def brandt_matrix(self, p: int) -> HeckeMatrix:
        """Degree-p Hecke matrix; kind T_p when p is coprime to the level."""
        if not isprime(p):
            raise ValueError(f"need a prime degree, got {p}")
        if p in self._matrices:
            return self._matrices[p]
        nmax = max(p, COUNT_BOUND)
        w = self.classes.weights
        rows = []
        for i in range(self.h):
            row = []
            for j in range(self.h):
                raw = self._raw_counts(i, j, nmax).get(p, 0)
                assert raw % w[i] == 0, "unit orbits do not divide the count"
                row.append(raw // w[i])
            rows.append(tuple(row))
        kind = "U_p" if self.level % p == 0 else "T_p"
        if kind == "T_p":
            for j in range(self.h):
                colsum = sum(rows[i][j] for i in range(self.h))
                assert colsum == p + 1, f"column sum {colsum} != {p + 1} at j={j}"
        mat = HeckeMatrix(p, kind, tuple(rows))
        self._matrices[p] = mat
        return mat

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
        image = mat_vec(self.brandt_matrix(p).entries, list(phi))
        pivot = next((k for k, x in enumerate(phi) if x), None)
        if pivot is None:
            raise ValueError("zero vector is not an eigenvector")
        a, rem = divmod(image[pivot], phi[pivot])
        if rem or any(image[k] != a * phi[k] for k in range(self.h)):
            raise ValueError(f"vector is not a B({p}) eigenvector")
        return a

    def eisenstein_vector(self) -> list[int]:
        """The vector with entries proportional to 1/w_i, primitive-integral."""
        return primitive_vector([Fraction(1, w) for w in self.classes.weights])

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

    def discover_eigensystems(self, pmax: int = 20) -> list[tuple[dict[int, int], list[int]]]:
        """Exhaustive search for rational eigensystems using primes <= pmax.

        Splits the module by integer eigenvalues prime by prime (Ramanujan
        bound |a_p| <= 2 sqrt(p) for the cuspidal part, p+1 allowed for the
        Eisenstein direction) and reports the one-dimensional pieces.
        """
        primes = [p for p in range(2, pmax + 1) if isprime(p) and self.level % p]
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
        out = []
        for basis in spaces:
            if len(basis) == 1:
                vec = basis[0]
                full = {p: self.eigenvalue_of(vec, p) for p in primes}
                out.append((full, vec))
        out.sort(key=lambda t: sorted(t[0].items()))
        return out


def eigenvectors(module: BrandtModule, eigendata) -> list[int]:
    """Module-level alias matching the operation name."""
    return module.eigenvector(eigendata)
