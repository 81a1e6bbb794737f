"""Hecke action on functions on the ideal class set.

The matrix of the degree-n operator is computed from short-vector counts on
the lattices I_i * conj(I_j): the entry at (i, j) is the number of elements
of reduced norm n * Nm(I_i) * Nm(I_j), divided by the unit weight w_i.  With
this normalization the all-ones covector is fixed up to p+1 (column sums)
at p prime to the level, diag(w) intertwines the matrix with its transpose,
and cuspidal right eigenvectors have plain coordinate sum zero.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt

from .linalg import mat_vec, primitive_vector, rational_nullspace
from .orders import ClassSet, _pair_product
from .primes import isprime, primerange
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


def _dimensions(pieces) -> Counter:
    """Total dimension of the pieces (prefix, t, coords) of each prefix of eigenvalues."""
    dims = Counter()
    for prefix, _, coords in pieces:
        dims[prefix] += len(coords)
    return dims


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

    The Atkin-Lehner involutions W_p (p | N) permute the classes:
    I_i J_p is in class W_p(i), for J_p the two-sided prime of norm p.
    ClassSet._atkin_lehner gives the group G that they generate, as class
    permutations, and the map of each of its orbits on the classes, read
    once, at the first count or split (_group), and indexed by class
    (_index).  If I_{Wi} = x I_i J_p and I_{Wj} = y I_j J_p, then
    I_{Wi} conj(I_{Wj}) = p x (I_i conj(I_j)) conj(y), the same lattice
    up to scale, with the same counts at norm n Nm_Wi Nm_Wj (Voight, GTM 288,
    ch. 23; Pizer, J. Algebra 64 (1980)).  So G keeps every B(n)[i, j].
    The module counts one pair lattice per orbit of G on the unordered
    pairs {i, j}, the orbit's least sorted pair, its key, read off the
    orbit map (_key); and only the rows of the orbits' least classes: row
    i0, asked at degree p, counts the h pairs (i0, k) to norm p and keeps
    row i0 of B(r) for every prime r <= p (_row).  These certified rows are
    the only matrix state: any other row is one of them read through G,
    and brandt_matrix(p) is a view of the h rows at p.  The class walk has
    already built the lattices of two kinds of keys, so only the other keys
    are built (_form), by two identities for locally principal ideals
    (Voight, GTM 288, ch. 16-17):

    - I conj(I) = Nm(I) O_L(I), so the pair (i, i) counts the left order
      right_orders[i] at norm n where the pair lattice has norm n Nm_i^2;
    - I_0 = O, and O conj(J) = conj(J), so the pair (0, j) counts I_j
      itself: conjugation keeps the reduced norm, so conj(I_j) and I_j have
      the same counts.

    An orbit holding either kind has it as its key: G maps a pair (i, i)
    to pairs (k, k), and a pair (0, j) sorts before every pair (i, j) with
    i > 0.  Every key's lattice carries its norm, so one unit rule serves
    them all (_form).  The module keeps the reduced Gram of every key it
    builds and its counts to the largest degree counted, so no lattice is
    built twice and no count made twice to one degree.  eigenvector and
    discover_eigensystems remember the lines they certify; eigenvalues reads
    a_p on those lines from two rows of B(p), at most 2h - 1 pair lattices,
    and checks any other vector on all h rows.

    G commutes with every B(n), so the module is the direct sum of the
    sign spaces of G, one for each character, and each B(n) keeps each of
    them (_sign_spaces, built once per module from the orbit map).  A sign
    space has at most one basis vector per orbit of G on the classes, and
    B(p) on it is a small integer matrix read from the rows of the orbits'
    least classes (_orbit_matrix).  So eigenvector and
    discover_eigensystems take one route: _pieces counts those rows, each
    once, to the search's largest degree, and gives the whole sign spaces;
    _cut cuts their kernels in each sign space, in orbit coordinates; _line
    lifts a final line to a class function and certifies it.  At N=2310 the
    192 classes fall into 32 sign spaces of dimension at most 10.
    """

    def __init__(self, classes: ClassSet):
        self.classes = classes
        self.h = classes.h
        self.level = classes.q * classes.M
        # key: _form(*key), a reduced Gram with the counts of I_i conj(I_j) and its unit
        self._forms: dict[tuple[int, int], tuple[list[list[int]], int]] = {}
        # key: (degree d, {n: elements of norm n Nm_i Nm_j}) for every n <= d
        self._counts: dict[tuple[int, int], tuple[int, dict[int, int]]] = {}
        # i0: {prime r: row i0 of B(r)}, i0 an orbit's least class, for every prime up to its degree
        self._rows: dict[int, dict[int, tuple[int, ...]]] = {}
        # primitive vectors that eigenvector certified as one-dimensional joint eigenspaces
        self._eigenlines: set[tuple[int, ...]] = set()

    @cached_property
    def _group(self) -> tuple[list[tuple[int, ...]], list[tuple[int, dict[int, int], list[int]]]]:
        """(G, orbits), read once from ClassSet._atkin_lehner.

        G[s] for s a bitmask over the sorted primes of N, W_p = G[1 << b]
        for p the b-th, and the map (i0, {k: g}, H) of each orbit, which the
        keys, the rows and eigenvalues read by class (_index).
        """
        return self.classes._atkin_lehner()

    @cached_property
    def _index(self) -> dict[int, tuple[int, int, list[int]]]:
        """{k: (i0, g, H)}: the orbit map (_group) by class, g the least element with G[g](i0) = k."""
        return {k: (i0, g, stab) for i0, at, stab in self._group[1] for k, g in at.items()}

    def _key(self, i: int, j: int) -> tuple[int, int]:
        """The least sorted pair in the orbit of {i, j} under G, read off the orbit map (_index).

        Its first class is L, the lesser of the least classes of the orbits
        of i and j; say a, of i and j, is in L's orbit and b is the other.
        Each element of G is its own inverse, so g_a + H, H the stabilizer
        of L, sends a to L, and the key is (L, the least image of b under
        them); if b is in L's orbit too, the images of a under g_b + H
        compete.  A key costs |H| images, and no h x h table is kept.
        """
        group, index = self._group[0], self._index
        a, b = sorted((i, j), key=lambda k: index[k][0])
        lead, g, stab = index[a]
        moves = [(g, b), (index[b][1], a)] if index[b][0] == lead else [(g, b)]
        return lead, min(group[x ^ s][y] for x, y in moves for s in stab)

    def _form(self, i: int, j: int) -> tuple[list[list[int]], int]:
        """Reduced Gram of a lattice with the counts of I_i conj(I_j), i <= j, and its unit.

        The pairs (i, i) and (0, j) take the left order (norm 1) and I_j that
        the walk built (see the class docstring), the others build I_i conj(I_j)
        (norm Nm_i Nm_j); the unit is the value of the lattice's own norm.
        """
        classes = self.classes
        if i == j:
            latt = classes.right_orders[i]
        elif i == 0:
            latt = classes.reps[j]
        else:
            latt = _pair_product(classes.reps[i], classes.reps[j])
        return latt.norm_form(latt.norm)

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
        """Degree-p Brandt matrix: a view of its h rows, each an orbit's certified row (_row)."""
        if not isprime(p):
            raise ValueError(f"need a prime degree, got {p}")
        kind = "U_p" if self.level % p == 0 else "T_p"
        return HeckeMatrix(p, kind, tuple(self._row(i, p) for i in range(self.h)))

    def pairing(self, u, v) -> Fraction:
        """Weighted inner product sum(u_i v_i w_i)."""
        if len(u) != self.h or len(v) != self.h:
            raise ValueError("pairing needs two vectors of length h")
        total = sum(Fraction(a) * Fraction(b) * w for a, b, w in zip(u, v, self.classes.weights))
        return int(total) if total.denominator == 1 else total

    def eigenvector(self, eigendata) -> list[int]:
        """Primitive integer vector spanning the joint eigenspace.

        eigendata is a list of (p, a_p) pairs; the intersection of the
        kernels of B(p) - a_p must be one-dimensional.  Every p is checked
        first; then the orbit rows are counted once, to the largest degree
        (_pieces), and the sign spaces of G are cut by each (p, [a_p]) in
        the order given (_cut), which reads those rows and counts no other.
        The joint eigenspace is the sum of the pieces, its dimension the sum
        of theirs; its one line is certified (_line).
        """
        if not eigendata:
            raise ValueError("eigendata must contain at least one (p, a_p) pair")
        for p, _ in eigendata:
            if not isprime(p):
                raise ValueError(f"need a prime degree, got {p}")
        pieces = self._pieces(max(p for p, _ in eigendata))
        for p, ap in eigendata:
            pieces = self._cut(pieces, p, [ap])
        dim = sum(len(coords) for _, _, coords in pieces)
        if not dim:
            raise ValueError("no such eigenform for the given eigendata")
        if dim > 1:
            raise ValueError(f"underdetermined eigendata: residual dimension {dim}")
        [(_, t, coords)] = pieces
        return self._line(t, coords[0])

    @cached_property
    def _sign_spaces(self) -> dict[int, list[tuple[int, dict[int, int]]]]:
        """The nonzero sign spaces of G, as {t: basis}, by character t, built once from the orbits.

        G is elementary abelian, and (W phi)_i = phi_{W(i)} is its action
        on class functions.  Its characters are chi_t(s) = (-1)^|t & s|, t
        a bitmask over the sorted primes of N like the elements s of G, and
        the sign space of chi_t holds the phi with W phi = chi_t(W) phi for
        every W in G; there W_p acts by the sign chi_t(W_p).  Every B(n)
        commutes with G (class docstring), so it keeps each sign space.
        Each orbit O comes from the orbit map (_group) as (i0, {k: s}, H),
        s the least element sending i0 to k.  The basis holds one (i0, e_O)
        for each O with H in the kernel of chi_t, e_O being chi_t(s) at
        class k ({class: sign}, 0 elsewhere).  An orbit of |G/H| classes
        lies in the |G/H| sign spaces trivial on H, so the dimensions add
        up to h.
        """
        group, orbits = self._group
        spaces = {}
        for t in range(len(group)):
            basis = [
                (i0, {k: -1 if (t & s).bit_count() & 1 else 1 for k, s in at.items()})
                for i0, at, stab in orbits
                if not any((t & s).bit_count() & 1 for s in stab)
            ]
            if basis:
                spaces[t] = basis
        return spaces

    def _orbit_matrix(self, basis, p: int) -> list[list[int]]:
        """B(p) on the sign space of basis, in its coordinates: M[a][b] = row i0_a of B(p) . e_b.

        B(p) e_b lies in the sign space, and a vector sum c_a e_a of it has
        c_a at class i0_a, so one row of B(p) per orbit gives its coordinates.
        """
        rows = [self._row(i0, p) for i0, _ in basis]
        return [[sum(row[k] * x for k, x in e.items()) for _, e in basis] for row in rows]

    def _cut(self, pieces, p: int, values) -> list[tuple]:
        """Each piece cut by the kernels of B(p) - a, a in values: the pieces (prefix + (a,), t, sub).

        A piece (prefix, t, coords) is a subspace of the sign space of
        character t (_sign_spaces), in orbit coordinates: its joint
        eigenspace of the eigenvalues prefix at the degrees cut before, so
        B(p), which commutes with those matrices, keeps it.  Its B(p) image
        is read from B(p) on the sign space, built once per character
        (_orbit_matrix).  A zero kernel gives no piece.
        """
        mats, out = {}, []
        for prefix, t, coords in pieces:
            if t not in mats:
                mats[t] = self._orbit_matrix(self._sign_spaces[t], p)
            images = [mat_vec(mats[t], c) for c in coords]
            filled = 0
            for a in values:
                sub = _restrict_kernel(coords, images, a)
                if sub:
                    out.append((prefix + (a,), t, sub))
                    filled += len(sub)
                    # kernels of distinct a are independent: a filled piece has no more
                    if filled == len(coords):
                        break
        return out

    def _pieces(self, top: int | None) -> list[tuple]:
        """The whole sign spaces as pieces ((), t, unit vectors), the orbit rows counted to top first.

        The cuts read only the rows of the orbits' least classes
        (_orbit_matrix), and every pair is in the orbit of a pair (i0, k), so
        counting them here, to the search's largest degree, counts each key
        once.  top None (no degree to cut at) counts nothing.
        """
        if top is not None:
            for i0, _, _ in self._group[1]:
                self._row(i0, top)
        return [
            ((), t, [[int(a == b) for b in range(len(basis))] for a in range(len(basis))])
            for t, basis in self._sign_spaces.items()
        ]

    def _line(self, t: int, coords) -> list[int]:
        """The primitive class vector sum c_O e_O of orbit coordinates c in sign space t.

        The caller's piece is a one-dimensional joint eigenspace of the
        module, so the vector joins the certified lines (eigenvalues).
        """
        vec = [0] * self.h
        for c, (_, e) in zip(coords, self._sign_spaces[t]):
            for k, x in e.items():
                vec[k] = c * x
        vec = primitive_vector(vec)
        self._eigenlines.add(tuple(vec))
        return vec

    def eigenvalue_of(self, phi, p: int) -> int:
        """The B(p) eigenvalue of an exact eigenvector phi (see eigenvalues)."""
        return self.eigenvalues(phi, [p])[p]

    def eigenvalues(self, phi, primes) -> dict[int, int]:
        """The B(p) eigenvalue a_p of phi at each prime p of primes, as {p: a_p}.

        The rows read are chosen once, counted to the largest prime and read
        at each prime in increasing order.  On a line that eigenvector
        certified, with two or more nonzero entries, they are two rows i
        with phi_i != 0, and a_p = (row_i . phi) / phi_i.  One rule picks
        them: rows nonzero on every certified line first, so lines read one
        after another share the two rows and their at most 2h - 1 keys
        (_row), and the second row outside the first's orbit of G where the
        support allows (_index), as a row in that orbit is the first's row
        read through G.  Such a line is a one-dimensional joint eigenspace
        of the eigendata's matrices, which commute with B(p) at square-free
        level (Pizer 1980), so phi is a B(p) eigenvector; the second row
        checks the first (RuntimeError).  Any other vector is checked on all
        h rows, with ValueError at the first prime where it is not one.

        At p | N it reads the Atkin-Lehner sign: a_p = -w_p at a prime
        exactly dividing the level, at q and at p | M alike.  The tests pin
        the class permutations W_p to it at N=170, 174 and 222: at p | M,
        B(p) phi = -W_p phi on every line discover_eigensystems reports but
        the Eisenstein line, and B(q) is the permutation matrix of W_q.
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
            first, *rest = sorted(support, key=lambda k: not all(v[k] for v in self._eigenlines))
            lead = self._index[first][0]
            rows = [first, next((k for k in rest if self._index[k][0] != lead), rest[0])]
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
        """Row i of B(p), p prime: row i0 of the least class of i's orbit, read through G.

        A miss at i0 counts the h pairs (i0, k) to norm p, a key already
        counted to p being read (_pair_counts), and keeps row i0 of B(r),
        certified (_certified_row), for every prime r <= p.  G keeps B(r)
        and g, the element with G[g](i0) = i (_index), is its own inverse,
        so B(r)[i][k] = B(r)[i0][G[g][k]].
        """
        i0, g, _ = self._index[i]
        if i != i0:
            row = self._row(i0, p)
            return tuple(row[k] for k in self._group[0][g])
        rows = self._rows.setdefault(i, {})
        if p not in rows:
            counts = [self._pair_counts(i, k, p) for k in range(self.h)]
            for r in primerange(2, p + 1):
                rows[r] = self._certified_row(i, [c.get(r, 0) for c in counts], r)
        return rows[p]

    def discover_eigensystems(self) -> list[tuple[dict[int, int], list[int]]]:
        """Search for rational eigensystems using the primes p < 20 coprime to the level.

        Cuts the sign spaces of G (_pieces, counted to the top prime; _cut),
        prime by prime in increasing order, by the integer eigenvalues a in
        [-2 isqrt(p), 2 isqrt(p)] and a = p+1 (the Eisenstein direction).
        The pieces of all sign spaces with one prefix of eigenvalues make up
        that prefix's joint eigenspace in the whole module; a prefix whose
        pieces have total dimension 1 is split no further.  Each such line
        is a one-dimensional joint eigenspace, as eigenvector certifies, so
        all are certified (_line) before any is reported with its eigenvalues
        read from two rows (eigenvalues).  That range is narrower than the
        Ramanujan bound |a_p| <= 2 sqrt(p) wherever 2 isqrt(p) < isqrt(4p):
        at p = 3 it leaves out a_3 = +-3, so N=170's form g (a_3 = 3) is not found.
        """
        primes = [p for p in primerange(2, _DISCOVER_PMAX + 1) if self.level % p]
        pieces = self._pieces(max(primes, default=None))
        for p in primes:
            dims = _dimensions(pieces)
            candidates = list(range(-2 * isqrt(p), 2 * isqrt(p) + 1)) + [p + 1]
            # a prefix of dimension 1 is split no further
            lines = [piece for piece in pieces if dims[piece[0]] == 1]
            rest = [piece for piece in pieces if dims[piece[0]] > 1]
            pieces = lines + self._cut(rest, p, candidates)
        dims = _dimensions(pieces)
        # every line is certified before the first read: the rows read depend on them
        vectors = [self._line(t, coords[0]) for prefix, t, coords in pieces if dims[prefix] == 1]
        out = [(self.eigenvalues(vec, primes), vec) for vec in vectors]
        return sorted(out, key=lambda t: sorted(t[0].items()))


def eigenvectors(module: BrandtModule, eigendata) -> list[int]:
    """Module-level alias matching the operation name."""
    return module.eigenvector(eigendata)
