"""Small exact linear algebra toolkit: integer HNF, kernels, inverses.

Everything operates on plain lists of lists and nothing here ever touches
a float.  HNF, the leading minors and the eliminations compute in int:
over Q, rows are cleared of denominators at entry and eliminated
fraction-free.  rational_nullspace returns primitive integer kernel
vectors, so the only Fractions formed are the entries of mat_inv's
result and the rational input read by _integer_row.
Matrices are row based throughout: a lattice basis is a list of row vectors.
One Gauss-Jordan routine serves one elimination per field: rref_mod over
F_p, and rational_nullspace and mat_inv over Q.  HNF and the Bareiss
leading minors are separate integer algorithms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) = s*a + t*b and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


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


def leading_minors(g: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """(Delta, C) of a positive definite integer Gram g by one Bareiss elimination.

    Delta[k] is the k-th leading principal minor (Delta[0] = 1, Delta[n] =
    det g) and C[j] = [Delta_{j+1} * L_ij for i > j], with g = L D L^T,
    both integers: after step k the pivot a[k][k] is Delta_{k+1} and a[i][k]
    is Delta_{k+1} * L_ik (Bareiss, Math. Comp. 22 (1968); Cohen, GTM 138,
    2.2).  Raises ValueError if an entry of g is not an int or g is not
    positive definite (a pivot <= 0, by Sylvester's criterion).
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


def vec_mat(v, m):
    """Row vector times matrix."""
    cols = list(zip(*m))
    return [sum(x * y for x, y in zip(v, col)) for col in cols]


def mat_vec(m, v):
    """Matrix times column vector."""
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def _gauss_jordan(m: list[list[int]], ncols: int, p: int | None = None) -> list[int]:
    """Reduce m in place to reduced row echelon form; return the pivot columns.

    Over F_p when p is given (entries already in [0, p)); each pivot is
    scaled to 1.  Over Q when p is None, fraction-free on integer rows
    (Bareiss, Math. Comp. 22 (1968); Cohen, GTM 138, 2.2): a row is
    eliminated as r_i <- (a/g) r_i - (f/g) r_r, with a the pivot, f the
    entry it clears and g = gcd(a, f), and then divided by its content.
    Each row stays a nonzero multiple of the row of the rational reduction,
    with its pivot not scaled to 1.  Pivots are sought in the first ncols
    columns only, so reducing [A | I] with ncols = n inverts A.  The field
    is chosen once per row operation, never per entry.
    """
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        for piv in range(r, nrows):
            if m[piv][c]:
                break
        else:
            continue
        m[r], m[piv] = m[piv], m[r]
        if p is None:
            row = m[r]
            a = row[c]
        else:
            inv = pow(m[r][c], -1, p)
            row = m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nrows):
            f = m[i][c]
            if i != r and f:
                if p is None:
                    g = gcd(a, f)
                    new = [(a // g) * x - (f // g) * y for x, y in zip(m[i], row)]
                    k = gcd(*new)
                    m[i] = [x // k for x in new] if k > 1 else new
                else:
                    m[i] = [(x - f * y) % p for x, y in zip(m[i], row)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _integer_row(row) -> list[int]:
    """The positive rational multiple of row with coprime integer entries."""
    if not all(isinstance(x, int) for x in row):
        row = clear_denominators([Fraction(x) for x in row])[1]
    k = gcd(*row)
    return [x // k for x in row] if k > 1 else list(row)


def rref_mod(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p: (nonzero rows, pivot columns)."""
    m = [[x % p for x in row] for row in rows]
    if not m:
        return [], []
    pivots = _gauss_jordan(m, len(m[0]), p)
    return m[: len(pivots)], pivots


def rational_nullspace(rows) -> list[list[int]]:
    """Right kernel basis of a matrix over Q, one primitive int vector per free column.

    rows may hold ints and Fractions.  The vector for free column fc is the
    primitive integer multiple, positive at fc, of the reduced-echelon
    kernel vector (1 at fc, 0 at the other free columns).  After the
    elimination row r is a multiple of that echelon row with pivot m[r][pc],
    so scaling by the lcm of the pivots keeps every entry an integer.
    """
    m = [_integer_row(row) for row in rows]
    if not m:
        return []
    ncols = len(m[0])
    pivots = _gauss_jordan(m, ncols)
    den = lcm(*(m[r][pc] for r, pc in enumerate(pivots)))
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = den
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc] * den // m[r][pc]
        k = gcd(*v)
        basis.append([x // k for x in v] if k > 1 else v)
    return basis


def mat_inv(rows) -> list[list[Fraction]]:
    """Exact inverse of a square matrix, with Fraction entries.

    Reduces [A | I] over Q on integer rows and divides each row by its
    pivot; raises ValueError when A is singular.
    """
    n = len(rows)
    m = [_integer_row(list(row) + [int(i == j) for j in range(n)]) for i, row in enumerate(rows)]
    if len(_gauss_jordan(m, n)) < n:
        raise ValueError("matrix is singular")
    return [[Fraction(x, row[r]) for x in row[n:]] for r, row in enumerate(m)]


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


def clear_denominators(values) -> tuple[int, list[int]]:
    """(den, ints) with den the least common denominator and ints = den * values.

    values are rationals (int or Fraction).
    """
    den = 1
    for x in values:
        d = x.denominator
        den = den * d // gcd(den, d)
    return den, [x.numerator * (den // x.denominator) for x in values]


def primitive_vector(v) -> list[int]:
    """Scale a rational vector to a primitive integer one, first nonzero > 0.

    Raises ValueError on the zero vector.
    """
    ints = _integer_row(v)
    lead = next((x for x in ints if x), 0)
    if lead == 0:
        raise ValueError("zero vector has no primitive form")
    return [-x for x in ints] if lead < 0 else ints
