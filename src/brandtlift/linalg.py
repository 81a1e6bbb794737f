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

Three kernels are generated: the two Gram kernels that every lattice and
every short-vector walk goes through, greedy_reduce and leading_minors,
and hnf, which gives every lattice its canonical rows.  For each size n
(each row width for hnf) one template writes the algorithm out as
straight-line code on local variables, built from integer indices only,
which is compiled on first use and kept by _Kernels; shortvec's walks are
compiled and kept the same way.  The Gram kernels perform
the loop's operations in the loop's order, so their results are the
loop's bit for bit.  hnf's kernel clears the rows in an order of its own;
its result is the loop's because the HNF of a row span is unique.
tests/reference_kernels.py keeps a loop version of each, and the tests
compare the kernels with them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


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


class _Kernels(dict):
    """Generated kernels by size n, each compiled on first use and kept.

    name is "module.function".  source(n) writes the straight-line text of
    the kernel for size n (an n x n Gram, or rows of width n for hnf) from
    integer indices only; it is compiled under the file name <name n=N>,
    which tracebacks show, and runs in a fresh copy of namespace, the only
    helpers it may call besides the builtins: _xgcd for hnf, and isqrt, lcm
    and leading_minors for the short-vector walks of shortvec.
    """

    def __init__(self, name: str, source, namespace: dict | None = None):
        super().__init__()
        self.name, self.source, self.namespace = name, source, namespace or {}

    def __missing__(self, n: int):
        namespace = dict(self.namespace)
        exec(compile(self.source(n), f"<{self.name} n={n}>", "exec"), namespace)
        kernel = self[n] = namespace[self.name.rpartition(".")[2]]
        return kernel


def _hnf_source(w: int) -> str:
    """hnf for rows of width w, each row cleared by straight-line code on locals.

    The pivot row of column c is kept in p{c}_{j}, j >= c, all 0 while
    column c has none.  Each row is read into x{j} and cleared column by
    column: at its first nonzero entry with no pivot yet, the rest of the
    row becomes the pivot row and the next row is read; else the entry is
    cleared into the pivot row, by one subtraction when the pivot divides
    it and by the unimodular 2 x 2 mix of _xgcd otherwise, touching only
    the entries right of column c.  Then, column by column, the pivot is
    made positive and the earlier pivot rows are reduced into [0, pivot),
    which leaves the entries left of column c alone.  The pivot rows are
    returned in column order; a column without one gives no row.
    """

    def p(c: int, j: int) -> str:
        return f"p{c}_{j}"

    def x(j: int) -> str:
        return f"x{j}"

    def assign(targets, values) -> str:
        return f"{', '.join(targets)} = {', '.join(values)}"

    lines = ["def hnf(rows):"]
    if not w:
        return "\n".join(lines + ["    return []"]) + "\n"
    lines.append("    " + " = ".join(p(c, j) for c in range(w) for j in range(c, w)) + " = 0")
    lines.append(f"    for {', '.join(x(j) for j in range(w))}, in rows:")
    for c in range(w):
        span, right = range(c, w), range(c + 1, w)
        pc, xc = p(c, c), x(c)
        lines += [
            f"        if {xc}:",
            f"            if not {pc}:",
            "                " + assign([p(c, j) for j in span], [x(j) for j in span]),
            "                continue",
            f"            if {xc} % {pc}:",
        ]
        if not right:
            # the last column: the pivot becomes the gcd and nothing is left to mix
            lines.append(f"                {pc} = _xgcd({pc}, {xc})[0]")
            continue
        mix = [f"s * {p(c, j)} + t * {x(j)}" for j in right] + [f"u * {x(j)} - v * {p(c, j)}" for j in right]
        lines += [
            f"                g, s, t = _xgcd({pc}, {xc})",
            f"                u, v = {pc} // g, {xc} // g",
            "                " + assign([p(c, j) for j in right] + [x(j) for j in right], mix),
            f"                {pc} = g",
            "            else:",
            f"                q = {xc} // {pc}",
            *(f"                {x(j)} -= q * {p(c, j)}" for j in right),
        ]
    for c in range(w):
        span = range(c, w)
        lines += [
            f"    if {p(c, c)}:",
            f"        if {p(c, c)} < 0:",
            "            " + assign([p(c, j) for j in span], [f"-{p(c, j)}" for j in span]),
        ]
        for e in range(c):
            lines += [f"        q = {p(e, c)} // {p(c, c)}", "        if q:"]
            lines += [f"            {p(e, j)} -= q * {p(c, j)}" for j in span]
    lines.append("    out = []")
    for c in range(w):
        row = ", ".join(["0"] * c + [p(c, j) for j in range(c, w)])
        lines += [f"    if {p(c, c)}:", f"        out.append([{row}])"]
    lines.append("    return out")
    return "\n".join(lines) + "\n"


_HNF = _Kernels("linalg.hnf", _hnf_source, {"_xgcd": _xgcd})


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form with zero rows dropped.

    Pivots are positive, pivot columns strictly increase, and entries above
    each pivot are reduced into [0, pivot).  The result is the canonical
    basis of the row span, so two integer matrices generate the same lattice
    iff their HNFs are equal (Cohen, GTM 138, 2.4.2).

    Each row is cleared by straight-line code on local variables, one
    kernel per row width generated by _hnf_source and compiled on first
    use.  It does not repeat the loop's operations in order; it returns the
    loop's matrix because the HNF of a row span is unique, and
    tests/reference_kernels.py keeps the loop as the reference.
    """
    if not rows:
        return []
    return _HNF[len(rows[0])](rows)


def _minors_source(n: int) -> str:
    """leading_minors for n x n input as straight-line code on locals a{i}_{j}.

    The Bareiss loop unrolled: every entry is checked to be an int, then at
    step k the pivot a{k}_{k} is checked and each a{i}_{j}, i, j > k, becomes
    (a{i}_{j} * a{k}_{k} - a{i}_{k} * a{k}_{j}) // a{k-1}_{k-1}, the
    previous pivot (at step 0 that divisor is 1 and is left out).
    """

    def a(i: int, j: int) -> str:
        return f"a{i}_{j}"

    span = range(n)
    lines = ["def leading_minors(g):"]
    if n:
        lines.append("    " + ", ".join("(" + ", ".join(a(i, j) for j in span) + ",)" for i in span) + ", = g")
        checks = " and ".join(f"isinstance({a(i, j)}, int)" for i in span for j in span)
        lines += [f"    if not ({checks}):", "        raise ValueError('gram matrix entries must be ints')"]
    for k in span:
        lines += [f"    if {a(k, k)} <= 0:", "        raise ValueError('gram matrix is not positive definite')"]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                step = f"{a(i, j)} * {a(k, k)} - {a(i, k)} * {a(k, j)}"
                lines.append(f"    {a(i, j)} = ({step}) // {a(k - 1, k - 1)}" if k else f"    {a(i, j)} = {step}")
    delta = ", ".join(["1"] + [a(k, k) for k in span])
    coef = ", ".join("[" + ", ".join(a(i, j) for i in range(j + 1, n)) + "]" for j in span)
    lines.append(f"    return [{delta}], [{coef}]")
    return "\n".join(lines) + "\n"


_MINORS = _Kernels("linalg.leading_minors", _minors_source)


def leading_minors(g: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """(Delta, C) of a positive definite integer Gram g by one Bareiss elimination.

    Delta[k] is the k-th leading principal minor (Delta[0] = 1, Delta[n] =
    det g) and C[j] = [Delta_{j+1} * L_ij for i > j], with g = L D L^T,
    both integers: after step k the pivot a[k][k] is Delta_{k+1} and a[i][k]
    is Delta_{k+1} * L_ik (Bareiss, Math. Comp. 22 (1968); Cohen, GTM 138,
    2.2).  Raises ValueError if an entry of g is not an int or g is not
    positive definite (a pivot <= 0, by Sylvester's criterion, tested in
    the order of the steps).

    The elimination runs as straight-line code on local variables, one
    kernel per size n generated by _minors_source and compiled on first
    use; it performs the loop's operations in the loop's order, and
    tests/reference_kernels.py keeps the loop as the reference.
    """
    return _MINORS[len(g)](g)


def vec_mat(v, m):
    """Row vector times matrix."""
    return [sum(map(mul, v, col)) for col in zip(*m)]


def mat_vec(m, v):
    """Matrix times column vector."""
    return [sum(map(mul, row, v)) for row in m]


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


def _greedy_source(n: int) -> str:
    """greedy_reduce for n x n Grams as straight-line code on locals.

    The Gram is taken to be symmetric: its upper triangle is read into
    g{i}_{j}, i <= j, and U is held in u{i}_{k}.  Each
    round first sorts the diagonal with n - 1 passes of adjacent swaps, taken
    only when the left entry is strictly greater, which is the permutation
    of the stable sort and moves nothing on a sorted diagonal.  Then it tries
    the shears (i, j), i != j, in row-major order: mu = (2 g_ij + g_jj) //
    (2 g_jj), kept only if t = mu (mu g_jj - 2 g_ij) < 0, after which g_ii
    += t (row and column update together), g_ik -= mu g_jk for k != i and
    row i of U drops mu times row j.  Rounds repeat until no shear is kept.
    """

    def g(i: int, j: int) -> str:
        return f"g{min(i, j)}_{max(i, j)}"

    def u(i: int, k: int) -> str:
        return f"u{i}_{k}"

    span = range(n)
    lines = ["def greedy_reduce(gram):"]
    if n:
        rows = ", ".join("(" + ", ".join(g(i, j) if i <= j else "_" for j in span) + ",)" for i in span)
        lines.append(f"    {rows}, = gram")
        names = ", ".join(u(i, k) for i in span for k in span)
        lines.append(f"    {names}, = " + ", ".join("1" if i == k else "0" for i in span for k in span) + ",")
    lines += ["    changed = True", "    while changed:", "        changed = False"]
    for sweep in range(n - 1):
        for a in range(n - 1 - sweep):
            b = a + 1
            left = [g(a, a)] + [g(a, k) for k in span if k not in (a, b)] + [u(a, k) for k in span]
            right = [g(b, b)] + [g(b, k) for k in span if k not in (a, b)] + [u(b, k) for k in span]
            lines += [
                f"        if {g(a, a)} > {g(b, b)}:",
                f"            {', '.join(left + right)} = {', '.join(right + left)}",
            ]
    for i in span:
        for j in span:
            if i == j:
                continue
            lines += [
                f"        mu = (2 * {g(i, j)} + {g(j, j)}) // (2 * {g(j, j)})",
                f"        t = mu * (mu * {g(j, j)} - 2 * {g(i, j)})",
                "        if t < 0:",
                f"            {g(i, i)} += t",
            ]
            lines += [f"            {g(i, k)} -= mu * {g(j, k)}" for k in span if k != i]
            lines += [f"            {u(i, k)} -= mu * {u(j, k)}" for k in span]
            lines.append("            changed = True")
    reduced = ", ".join("[" + ", ".join(g(i, j) for j in span) + "]" for i in span)
    unimodular = ", ".join("[" + ", ".join(u(i, k) for k in span) + "]" for i in span)
    lines.append(f"    return [{reduced}], [{unimodular}]")
    return "\n".join(lines) + "\n"


_GREEDY = _Kernels("linalg.greedy_reduce", _greedy_source)


def greedy_reduce(gram: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Greedy length reduction of a positive definite integer Gram matrix.

    Returns (reduced, U) with U unimodular and reduced = U * gram * U^T, so
    a short vector c for the reduced form corresponds to c * U in the
    original basis.  Pairwise shears are only committed when they strictly
    shrink a diagonal entry, which bounds the number of steps; the result
    has near-minimal diagonal entries, good enough to seed enumerations.

    The output is pinned, not just any reduced basis: the class walk takes
    the first minimal vector in the walk order of the reduced form, so the
    class reps depend on U and on the order of ties among the minimal
    vectors.  Each round sorts the rows by diagonal entry (stably, so only
    when the diagonal is out of order) and then tries the shears (i, j) in
    row-major order; any change to that sequence changes the reps.

    The rounds run as straight-line code on local variables, one kernel
    per size n generated by _greedy_source and compiled on first use; on a
    symmetric Gram it performs the loop's operations in the loop's order,
    and tests/reference_kernels.py keeps a loop version as the reference.
    """
    return _GREEDY[len(gram)](gram)


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
