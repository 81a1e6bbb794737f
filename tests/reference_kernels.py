"""Reference copies of the lattice kernels before their fast paths.

hnf, greedy_reduce, _runs, vector_counts and canonical_gram are kept here
exactly as they were written before the fast paths went into
brandtlift.linalg, brandtlift.shortvec and brandtlift.theta; test_kernels.py
checks that the library returns what these return, so the class reps, the
counts, the class order and every output byte stay.  ref_brandt_matrices is
the all-pairs count pass that BrandtModule ran before it read B(p) off its
rows; test_brandt.py pins the Brandt matrices to it.  ref_atkin_lehner is
the per-class W_p that ClassSet ran before its orbit map; test_orders.py
pins the orbit map's permutations to it.  ref_sign_spaces is the split of
the classes into the Atkin-Lehner sign spaces that BrandtModule made by
scanning G's permutations before it read ClassSet's orbit map;
test_brandt.py pins the module's sign spaces to it.  ref_keys is the h x h
table of pair keys that BrandtModule filled from G's permutations before
_key read the orbit map; test_brandt.py pins _key to it.  ref_right_order and
ref_equivalent_ideals are the sixteen-product right order and the
pair-lattice search that orders ran before both went through the
two-generator product and the walk's reduced-form key; test_orders.py pins
_right_order and equivalent_ideals to them.  ref_discover_eigensystems and
ref_eigenvector are the eigenspace splits that BrandtModule ran on the whole
module, from its h unit vectors, before it split the Atkin-Lehner sign
spaces in orbit coordinates; test_brandt.py pins the systems, the vectors
and their order to them.  ref_solve is OrderLattice._solve as a loop over
the columns, before it was unrolled, and ref_trace_zero_lattice is
trace_zero_lattice with its second HNF, the kernel of the trace on
Z + 2R; test_kernels.py pins both.  ref_short_vector is the search by
doubling bounds that gave every minimal vector and every alpha of the
two-generator form before minimal_vector read the walk's one enumeration
and _generator tried the reduced basis first; ref_minimal_vector and
ref_generator are its two uses, and test_orders.py pins minimal_vector and
_generator's fallback to them.  leading_minors is the Bareiss loop that
brandtlift.linalg ran before it generated straight-line code per
dimension, as it now does for greedy_reduce; test_kernels.py pins both
generated kernels to the loops here.
"""

from fractions import Fraction
from math import floor, gcd, isqrt, lcm

from sympy import primerange

from brandtlift.brandt import _DISCOVER_PMAX, _restrict_kernel
from brandtlift.linalg import _xgcd, mat_vec, vec_mat
from brandtlift.orders import OrderLattice, _pair_product, _two_sided_prime
from brandtlift.shortvec import exists_value, iter_short_vectors
from brandtlift.theta import TernaryLattice, _det3


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form with zero rows dropped.

    Pivots are positive, pivot columns strictly increase, and entries above
    each pivot are reduced into [0, pivot).  The result is the canonical
    basis of the row span, so two integer matrices generate the same lattice
    iff their HNFs are equal.
    """
    m = [[int(x) for x in row] for row in rows]
    if not m:
        return []
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            if m[i][c] == 0:
                continue
            a, b = m[r][c], m[i][c]
            g, s, t = _xgcd(a, b)
            # unimodular 2-row mix: new r-row has entry g, new i-row entry 0
            u, v = a // g, b // g
            row_r = [s * x + t * y for x, y in zip(m[r], m[i])]
            row_i = [u * y - v * x for x, y in zip(m[r], m[i])]
            m[r], m[i] = row_r, row_i
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return [row for row in m[:r] if any(row)]


def ref_solve(lattice, num, d: int = 1) -> list[int] | None:
    """Integer coordinates of num / d in lattice, or None, by forward substitution column by column."""
    rows, c = lattice.rows, []
    for j in range(4):
        s = lattice.den * num[j] - d * sum(ci * rows[i][j] for i, ci in enumerate(c))
        q, r = divmod(s, d * rows[j][j])
        if r:
            return None
        c.append(q)
    return c


def ref_trace_zero_lattice(order) -> TernaryLattice:
    """{x in Z + 2R : tr(x) = 0}, its basis cut from Z + 2R by the HNF kernel of the trace."""
    alg, den = order.alg, order.den
    ambient = hnf([(den, 0, 0, 0)] + [[2 * x for x in row] for row in order.rows])
    assert all(2 * row[0] % den == 0 for row in ambient)
    traces = [2 * row[0] // den for row in ambient]
    aug = [[traces[m]] + [int(n == m) for n in range(4)] for m in range(4)]
    kernel = [row[1:] for row in hnf(aug) if row[0] == 0]
    assert len(kernel) == 3, "trace functional must have a rank-3 kernel"
    vecs = [vec_mat(c, ambient) for c in kernel]
    scale = 2 * den**2
    gram = [[alg.trace_pairing(x, y) for y in vecs] for x in vecs]
    assert all(t % scale == 0 for row in gram for t in row)
    return TernaryLattice(tuple(tuple(t // scale for t in row) for row in gram))


def ref_short_vector(lattice, accept) -> list[int]:
    """Numerator row of the first short vector whose value passes accept.

    Vectors come sorted by value, ties in walk order; the bound starts at
    the least diagonal entry of the reduced Gram and doubles until one passes.
    """
    gram, umat = lattice.reduced_gram()
    bound = min(gram[m][m] for m in range(4))
    while True:
        for c, val in sorted(iter_short_vectors(gram, bound), key=lambda cv: cv[1]):
            if accept(val):
                return vec_mat(vec_mat(c, umat), lattice.rows)
        bound *= 2


def ref_minimal_vector(lattice) -> list[int]:
    """The first vector of least value, by the sorted search."""
    return ref_short_vector(lattice, lambda val: True)


def ref_generator(ideal) -> list[int]:
    """The first short vector alpha with gcd(Nm(alpha)/Nm(I), Nm(I)) = 1, by the sorted search."""
    n = ideal.norm
    unit = ideal.norm_form(n)[1]
    return ref_short_vector(ideal, lambda val: gcd(val // unit, n) == 1)


def leading_minors(g: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """(Delta, C) of a positive definite integer Gram g by one Bareiss elimination.

    Delta[k] is the k-th leading principal minor and C[j] = [Delta_{j+1} *
    L_ij for i > j].  Raises ValueError if an entry of g is not an int or
    a pivot is <= 0, tested step by step.
    """
    if not all(isinstance(v, int) for row in g for v in row):
        raise ValueError("gram matrix entries must be ints")
    n = len(g)
    a = [list(row) for row in g]
    prev = 1
    for k in range(n):
        ak = a[k]
        p = ak[k]
        if p <= 0:
            raise ValueError("gram matrix is not positive definite")
        for i in range(k + 1, n):
            ai = a[i]
            f = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * p - f * ak[j]) // prev
        prev = p
    return [1] + [a[k][k] for k in range(n)], [[a[i][j] for i in range(j + 1, n)] for j in range(n)]


def greedy_reduce(gram: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Greedy length reduction of a positive definite integer Gram matrix.

    Returns (reduced, U) with U unimodular and reduced = U * gram * U^T, so
    a short vector c for the reduced form corresponds to c * U in the
    original basis.  Pairwise shears are only committed when they strictly
    shrink a diagonal entry, which bounds the number of steps; the result
    has near-minimal diagonal entries, good enough to seed enumerations.
    """
    n = len(gram)
    g = [list(r) for r in gram]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    while True:
        changed = False
        order = sorted(range(n), key=lambda k: g[k][k])
        if order != list(range(n)):
            g = [[g[a][b] for b in order] for a in order]
            u = [u[a] for a in order]
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                d = g[j][j]
                mu = (2 * g[i][j] + d) // (2 * d)
                if mu == 0:
                    continue
                if g[i][i] - 2 * mu * g[i][j] + mu * mu * d >= g[i][i]:
                    continue
                u[i] = [u[i][k] - mu * u[j][k] for k in range(n)]
                g[i] = [g[i][k] - mu * g[j][k] for k in range(n)]
                for k in range(n):
                    g[k][i] -= mu * g[k][j]
                changed = True
        if not changed:
            return g, u


def _runs(g: list[list[int]], bound: int):
    """Walk the nonzero x with Q(x) <= bound for an integer Gram g.

    Yields (tail, lo, hi, b, rest): tail = (x_1, ..., x_{n-1}) is fixed,
    and x = (x_0,) + tail for x_0 in [lo, hi] are exactly the vectors with
    that tail and Q(x) <= bound, where Q(x) = g00*x_0^2 + b*x_0 + rest.
    Of each pair {x, -x} only the one whose last nonzero coordinate is
    positive is walked.
    """
    n = len(g)
    if n == 0:
        return
    delta, coef = leading_minors(g)
    m = lcm(*(delta[j] * delta[j + 1] for j in range(n)))
    weight = [m // (delta[j] * delta[j + 1]) for j in range(n)]
    mbound = m * bound
    x = [0] * n

    def level(j: int, used: int, zero: bool):
        # used: M times the norm of the terms of coordinates j+1, ..., n-1
        c = sum(a * xi for a, xi in zip(coef[j], x[j + 1 :]))
        s = isqrt((mbound - used) // weight[j])
        dj = delta[j + 1]
        hi = (s - c) // dj
        if j == 0:
            lo = 1 if zero else -((s + c) // dj)
            if lo <= hi:
                yield tuple(x[1:]), lo, hi, 2 * c, (used + weight[0] * c * c) // m
            return
        wj = weight[j]
        for xj in range(0 if zero else -((s + c) // dj), hi + 1):
            x[j] = xj
            t = dj * xj + c
            yield from level(j - 1, used + wj * t * t, zero and xj == 0)
        x[j] = 0

    yield from level(n - 1, 0, True)


def vector_counts(gram, bound) -> dict[int, int]:
    """Counts {Q(x): #x} over nonzero integer vectors with Q(x) <= bound.

    Both signs are counted, so every count is even.
    """
    b = floor(bound)
    counts: dict[int, int] = {}
    if b < 0:
        return counts
    get = counts.get
    a = gram[0][0] if gram else 0
    for _, lo, hi, lin, rest in _runs(gram, b):
        for x0 in range(lo, hi + 1):
            q = (a * x0 + lin) * x0 + rest
            counts[q] = get(q, 0) + 2
    return counts


def canonical_gram(gram) -> tuple[tuple[int, int, int], ...]:
    """Canonical representative of the Gram matrix under GL_3(Z) changes.

    Minimizes the key (G00, G11, G22, G01, G02, G12) lexicographically over
    all ordered bases drawn from vectors of norm up to the largest diagonal
    entry of the (pre-reduced) input.  The pre-reduced basis itself is a
    candidate, and any key-minimizing basis must consist of such short
    vectors, so the search is exhaustive.
    """
    g, _ = greedy_reduce(gram)
    cap = max(g[i][i] for i in range(3))
    vecs = []
    for v, val in iter_short_vectors(g, cap):
        vecs.append((val, v))
        vecs.append((val, tuple(-x for x in v)))
    vecs.sort()

    def bil(u, w):
        return sum(u[i] * g[i][j] * w[j] for i in range(3) for j in range(3))

    best = None
    for q1, v1 in vecs:
        if best is not None and q1 > best[0]:
            break
        for q2, v2 in vecs:
            if best is not None and (q1, q2) > best[:2]:
                break
            for q3, v3 in vecs:
                if best is not None and (q1, q2, q3) > best[:3]:
                    break
                if _det3(v1, v2, v3) not in (1, -1):
                    continue
                key = (q1, q2, q3, bil(v1, v2), bil(v1, v3), bil(v2, v3))
                if best is None or key < best:
                    best = key
    assert best is not None, "no unimodular triple found; gram was not a basis form"
    q1, q2, q3, b12, b13, b23 = best
    return ((q1, b12, b13), (b12, q2, b23), (b13, b23, q3))



def ref_brandt_matrices(classes, bound: int, rows=None) -> dict:
    """{r: entries of B(r)} for every prime r <= bound, from one count of every pair.

    Every I_i conj(I_j) of the rows asked (all h rows if rows is None) is
    built by _pair_product once per unordered pair, with no forms from the
    class walk, and counted once to norm bound Nm_i Nm_j, with no count read
    off another row.  B(r)[i][j] is the count at norm r Nm_i Nm_j over w_i,
    as a Fraction, so a count that w_i does not divide cannot match an
    integer entry.
    """
    h, w = classes.h, classes.weights
    rows = range(h) if rows is None else rows
    counts = {}
    for i in rows:
        for j in range(h):
            if (i, j) not in counts:
                prod = _pair_product(classes.reps[i], classes.reps[j])
                gram, unit = prod.norm_form(prod.norm)
                raw = vector_counts(gram, bound * unit)
                counts[i, j] = counts[j, i] = {r: raw.get(r * unit, 0) for r in primerange(2, bound + 1)}
    return {
        r: tuple(tuple(Fraction(counts[i, j][r], w[i]) for j in range(h)) for i in rows)
        for r in primerange(2, bound + 1)
    }


def ref_atkin_lehner(classes, p: int) -> tuple[int, ...]:
    """W_p at p | N as a permutation: class i goes to the class of I_i J_p.

    Every I_i J_p is built, as the pair product Nm(I_i) J_p + alpha J_p with
    its norm Nm(I_i) p, and named by ClassSet._identify.  W_p must be an involution that keeps each
    class's weight and type; RuntimeError otherwise, as for a product in no
    class.
    """
    two_sided = _two_sided_prime(classes.reps[0], p)
    perm = []
    for rep in classes.reps:
        prod = _pair_product(rep, two_sided)
        assert prod.norm == rep.norm * p
        try:
            perm.append(classes._identify(prod))
        except ValueError as exc:
            raise RuntimeError(f"W_{p}: {exc}") from exc
    for i, k in enumerate(perm):
        if perm[k] != i or classes.weights[k] != classes.weights[i] or classes._types[k] != classes._types[i]:
            raise RuntimeError(f"W_{p} is not an involution keeping weights and types at class {i}")
    return tuple(perm)


def ref_keys(group, h: int) -> list[list[tuple[int, int]]]:
    """keys[i][j]: the least sorted pair in the orbit of {i, j} under G, from a scan of all h^2 pairs.

    The pairs are taken in increasing order; each one not yet keyed is the
    least of its orbit, whose pairs are its images under the elements of G.
    """
    keys = [[None] * h for _ in range(h)]
    for a in range(h):
        for b in range(a, h):
            if keys[a][b] is None:
                for s in group:
                    keys[s[a]][s[b]] = keys[s[b]][s[a]] = (a, b)
    return keys


def ref_sign_spaces(group) -> dict[int, list[tuple[int, dict[int, int]]]]:
    """The nonzero sign spaces of G, as {t: [(i0, e_O)]}, with the orbits read off G itself.

    Each orbit is found by scanning all |G| permutations from its least
    class i0: e_O is chi_t(s) = (-1)^|t & s| at class G[s][i0], for s the
    least element reaching that class, in increasing s, and an orbit is in
    the sign space of chi_t when its stabilizer is in the kernel of chi_t.
    """
    orbits, seen = [], set()
    for i0 in range(len(group[0])):
        if i0 not in seen:
            at = {}
            for s, perm in enumerate(group):
                at.setdefault(perm[i0], s)
            seen.update(at)
            orbits.append((i0, at, [s for s, perm in enumerate(group) if perm[i0] == i0]))
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


# (lattice, norm): its right order, as the library kept it once per lattice
_RIGHT_ORDERS = {}


def ref_right_order(ideal):
    """O_R(I) = conj(I) I / Nm(I), from the sixteen products of OrderLattice.multiply."""
    key = ideal, ideal.norm
    if key not in _RIGHT_ORDERS:
        square = ideal.conjugated().multiply(ideal)
        _RIGHT_ORDERS[key] = OrderLattice.from_rows(ideal.alg, square.den * ideal.norm, square.rows)
    return _RIGHT_ORDERS[key]


def ref_equivalent_ideals(lhs, rhs) -> bool:
    """Whether lhs = x rhs, by a search of lhs conj(rhs) for an element of norm Nm(lhs) Nm(rhs).

    That element exists exactly in the equivalent case.  The same ValueErrors
    as equivalent_ideals: for a lattice without an int norm, and for ideals
    of two different right orders.
    """
    if not (isinstance(lhs.norm, int) and isinstance(rhs.norm, int)):
        raise ValueError("equivalent_ideals needs integral right ideals with int norms")
    if ref_right_order(lhs) != ref_right_order(rhs):
        raise ValueError("equivalent_ideals needs right ideals of one order")
    prod = _pair_product(lhs, rhs)
    return exists_value(*prod.norm_form(prod.norm))


def _unit_vectors(module) -> list[list[int]]:
    """The standard basis of the whole module, where every split starts."""
    return [[1 if i == k else 0 for i in range(module.h)] for k in range(module.h)]


def ref_eigenvector(module, eigendata) -> list[int]:
    """Primitive integer vector spanning the joint eigenspace.

    eigendata is a list of (p, a_p) pairs; the intersection of the
    kernels of B(p) - a_p must be one-dimensional.
    """
    if not eigendata:
        raise ValueError("eigendata must contain at least one (p, a_p) pair")
    module.brandt_matrix(max(p for p, _ in eigendata))
    mats = [module.brandt_matrix(p).entries for p, _ in eigendata]
    basis = _unit_vectors(module)
    for mat, (_, ap) in zip(mats, eigendata):
        basis = _restrict_kernel(basis, [mat_vec(mat, v) for v in basis], ap)
        if not basis:
            raise ValueError("no such eigenform for the given eigendata")
    if len(basis) > 1:
        raise ValueError(f"underdetermined eigendata: residual dimension {len(basis)}")
    module._eigenlines.add(tuple(basis[0]))
    return basis[0]


def ref_discover_eigensystems(module) -> list[tuple[dict[int, int], list[int]]]:
    """Search for rational eigensystems using the primes p < 20 coprime to the level.

    Splits the module prime by prime by the integer eigenvalues a in
    [-2 isqrt(p), 2 isqrt(p)] and a = p+1 (the Eisenstein direction), and
    reports the one-dimensional pieces.
    """
    primes = [p for p in primerange(2, _DISCOVER_PMAX + 1) if module.level % p]
    if primes:
        module.brandt_matrix(primes[-1])
    spaces = [_unit_vectors(module)]
    for p in primes:
        mat = module.brandt_matrix(p).entries
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
    out = [({p: module.eigenvalue_of(vec, p) for p in primes}, vec) for vec in vectors]
    return sorted(out, key=lambda t: sorted(t[0].items()))
