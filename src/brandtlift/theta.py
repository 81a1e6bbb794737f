"""Ternary trace-zero lattices and their theta series.

For each class order R the rank-3 lattice {x in Z + 2R : tr(x) = 0} carries
the reduced norm as a positive definite integer quadratic form; its theta
series is the generating function counting vectors by norm.  A canonical
reduction of the Gram matrix (exhaustive lexicographic minimization over
short unimodular bases) is the type of a class order: it fixes the class
ordering, and since equal canonical Grams mean isometric lattices, classes
of one type share one theta series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import greedy_reduce, hnf, leading_minors, vec_mat
from .shortvec import iter_short_vectors, vector_counts


@dataclass(frozen=True)
class TernaryLattice:
    """Rank-3 lattice given by the integer Gram matrix of its norm form.

    The Gram must be a symmetric positive definite 3x3 integer matrix; any
    other is a ValueError.
    """

    gram: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        _check_ternary_gram(self.gram)

    def determinant(self) -> int:
        return _det3(*self.gram)


@dataclass(frozen=True)
class QSeries:
    """Truncated q-expansion with exact integer coefficients.

    Coefficients are known exactly for exponents n <= bound; zero
    coefficients are never stored, so equality is structural.  The bound
    must be nonnegative, and exponents and coefficients integral: any
    other value is a ValueError, not truncated.
    """

    bound: int
    coeffs: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError(f"negative bound {self.bound} in a q-series")
        coeffs = self.coeffs
        if {*map(type, coeffs), *map(type, coeffs.values())} - {int}:
            coeffs = {_integral(n, "exponent"): _integral(c, "coefficient") for n, c in coeffs.items()}
        clean = {n: c for n, c in coeffs.items() if c and n <= self.bound}
        if any(n < 0 for n in clean):
            raise ValueError(f"negative exponent {min(clean)} in a q-series")
        object.__setattr__(self, "coeffs", clean)

    def coefficient(self, n: int) -> int:
        if n > self.bound:
            raise ValueError(f"coefficient {n} beyond truncation bound {self.bound}")
        return self.coeffs.get(n, 0)

    def to_text(self, header: str | None = None) -> str:
        lines = [] if header is None else [header]
        lines += [f"{n} {self.coeffs[n]}" for n in sorted(self.coeffs)]
        return "\n".join(lines) + "\n"


def _check_ternary_gram(g) -> None:
    """ValueError unless g is a symmetric positive definite 3x3 integer Gram."""
    if len(g) != 3 or any(len(row) != 3 for row in g):
        raise ValueError("a ternary gram matrix is 3x3")
    if any(g[i][j] != g[j][i] for i in range(3) for j in range(i)):
        raise ValueError("gram matrix is not symmetric")
    # raises ValueError on a non-int entry and on a pivot <= 0
    leading_minors(g)


def _integral(x, what: str) -> int:
    """x as an int; a ValueError, not a silent truncation, if x is not integral."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != x:
        raise ValueError(f"non-integral {what} {x!r}; an integer is required")
    return n


def parse_qseries(text: str) -> tuple[QSeries, str | None]:
    """(series, header or None) from '#' lines, the last the header, and '<exponent> <coefficient>' lines.

    A '#' line may set the bound as bound=B.  ValueError for a second bound=,
    for a bound= or data line that is not integers (naming its line), and
    for an exponent listed twice or above the bound.
    """
    header, coeffs, bound = None, {}, None
    for num, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            header = line
            for tok in line[1:].split():
                if tok.startswith("bound="):
                    try:
                        value = int(tok[len("bound="):])
                    except ValueError:
                        raise ValueError(f"line {num}: {tok} is not bound=<integer>") from None
                    if bound is not None:
                        raise ValueError(f"a second bound: bound={bound}, then bound={value}")
                    bound = value
            continue
        try:
            n, c = map(int, line.split())
        except ValueError:
            raise ValueError(f"line {num}: {line!r} is not '<exponent> <coefficient>', two integers") from None
        if n in coeffs:
            raise ValueError(f"exponent {n} listed twice")
        coeffs[n] = c
    if bound is None:
        bound = max(coeffs, default=0)
    elif coeffs and max(coeffs) > bound:
        raise ValueError(f"exponent {max(coeffs)} above the header's bound={bound}")
    return QSeries(bound, coeffs), header


def trace_zero_lattice(order) -> TernaryLattice:
    """The lattice {x in Z + 2R : tr(x) = 0} with its norm Gram matrix.

    The Gram entries are tr(x_k conj(x_m)) / 2, which lands in Z because
    every member of the lattice has norm congruent to 0 or 3 mod 4; the
    diagonal entries are the reduced norms of the basis vectors.
    """
    alg, den = order.alg, order.den
    # Z + 2R, with 1 = (den, 0, 0, 0) / den; a member row / den has trace 2 row[0] / den.
    # Its 4-column HNF is upper triangular: rows 1-3 have trace 0 and row 0
    # has trace 2 row0[0] / den > 0, so c . ambient has trace 0 exactly when
    # c0 = 0, and rows 1-3 are a basis of the trace-zero kernel
    ambient = hnf([(den, 0, 0, 0)] + [[2 * x for x in row] for row in order.rows])
    if len(ambient) != 4 or any(row[0] for row in ambient[1:]):
        raise RuntimeError("Z + 2R is not a full-rank lattice with trace-zero rows 1-3")
    vecs = ambient[1:]
    # tr(x conj(y)) / 2 for the members vecs / den
    scale = 2 * den**2
    gram = [[alg.trace_pairing(x, y) for y in vecs] for x in vecs]
    if any(t % scale for row in gram for t in row):
        raise RuntimeError("a trace-zero Gram entry tr(x conj(y)) / 2 is not an integer")
    return TernaryLattice(tuple(tuple(t // scale for t in row) for row in gram))


def theta_series(lattice: TernaryLattice, bound: int) -> QSeries:
    """Vector counts of the norm form: coefficient of q^n is #{x : Nm(x)=n}."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    coeffs = {0: 1}
    if bound > 0:
        reduced, _ = greedy_reduce([list(r) for r in lattice.gram])
        counts = vector_counts(reduced, bound)
        coeffs.update(counts)
    return QSeries(bound, coeffs)


def _det3(u, v, w) -> int:
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )


def _dot(u, v) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def canonical_gram(gram) -> tuple[tuple[int, int, int], ...]:
    """Canonical representative of the Gram matrix under GL_3(Z) changes.

    Minimizes the key (G00, G11, G22, G01, G02, G12) lexicographically over
    all ordered bases drawn from vectors of norm up to the largest diagonal
    entry of the (pre-reduced) input.  The pre-reduced basis itself is a
    candidate, and any key-minimizing basis must consist of such short
    vectors, so the search is exhaustive.  A Gram that is not a symmetric
    positive definite 3x3 integer matrix is a ValueError.
    """
    _check_ternary_gram(gram)
    g, _ = greedy_reduce(gram)
    cap = max(g[i][i] for i in range(3))
    # (Q(v), v, G v), so a bilinear value is one 3-term dot product; negating
    # v1, v2 and v3 together keeps the key, so v1 takes one sign of each pair only
    halves = sorted((val, v, vec_mat(v, g)) for v, val in iter_short_vectors(g, cap))
    vecs = sorted(halves + [(val, tuple(-x for x in v), [-x for x in gv]) for val, v, gv in halves])
    best = None
    for q1, v1, _ in halves:
        if best is not None and q1 > best[0]:
            break
        for q2, v2, gv2 in vecs:
            if best is not None and (q1, q2) > best[:2]:
                break
            b12 = _dot(v1, gv2)
            for q3, v3, gv3 in vecs:
                if best is not None and (q1, q2, q3) > best[:3]:
                    break
                if _det3(v1, v2, v3) not in (1, -1):
                    continue
                key = (q1, q2, q3, b12, _dot(v1, gv3), _dot(v2, gv3))
                if best is None or key < best:
                    best = key
    assert best is not None, "no unimodular triple found; gram was not a basis form"
    q1, q2, q3, b12, b13, b23 = best
    return ((q1, b12, b13), (b12, q2, b23), (b13, b23, q3))

