"""The lattice kernels return exactly what their reference copies return.

hnf, OrderLattice._solve, greedy_reduce, _runs, vector_counts,
canonical_gram and trace_zero_lattice have fast paths; the class reps
depend on greedy_reduce's U and on the walk order of _runs, and the class
order on canonical_gram, so the outputs must match entry for entry and in
order, not just as sets.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from brandtlift.linalg import greedy_reduce, hnf, leading_minors
from brandtlift.orders import OrderLattice, _type_key
from brandtlift.shortvec import _runs, vector_counts
from brandtlift.theta import canonical_gram, trace_zero_lattice


def _gram(b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(r, s)) for s in b] for r in b]


def _positive_definite(g) -> bool:
    try:
        leading_minors(g)
    except ValueError:
        return False
    return True


@st.composite
def integer_matrices(draw):
    """Up to 8 x 4, with negative entries, zero rows and rows dependent on earlier ones."""
    ncols = draw(st.integers(1, 4))
    entry = st.integers(-60, 60)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["free", "free", "zero", "dependent"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "dependent" and rows:
            cs = draw(st.lists(st.integers(-4, 4), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[k] for c, r in zip(cs, rows)) for k in range(ncols)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows


@settings(max_examples=400, deadline=None)
@given(m=integer_matrices())
def test_hnf_matches_the_reference(m):
    assert hnf(m) == ref.hnf(m)


@st.composite
def triangular_then_free_rows(draw):
    """4 upper triangular rows with positive pivots, scaled, then 4 or 2 free rows.

    The shapes of the HNF inputs of _pair_product (Nm(I) den conj(J) and the
    4 rows alpha conj(J)) and of _neighbors (p I and the 2 rows of a span).
    """
    scale = draw(st.integers(1, 30))
    rows = []
    for i in range(4):
        pivot = draw(st.integers(1, 40))
        above = [draw(st.integers(0, pivot - 1)) for _ in range(3 - i)]
        rows.append([scale * x for x in [0] * i + [pivot] + above])
    free = st.lists(st.integers(-300, 300), min_size=4, max_size=4)
    return rows + [draw(free) for _ in range(draw(st.sampled_from([4, 2])))]


@settings(max_examples=100, deadline=None)
@given(m=triangular_then_free_rows())
def test_hnf_matches_the_reference_on_product_and_neighbour_shapes(m):
    assert hnf(m) == ref.hnf(m)


@st.composite
def solve_cases(draw):
    """(lattice, num, d): 4 x 4 upper triangular rows with positive pivots, den >= 1, d >= 1.

    The entries below the diagonal are arbitrary: neither solve may read
    them.  num / d is a lattice element (c . rows) / den, such an element
    with one coordinate moved by a few units, or a random numerator.
    """
    entry = st.integers(-50, 50)
    rows = [[draw(st.integers(1, 12)) if i == j else draw(entry) for j in range(4)] for i in range(4)]
    den = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["on", "moved", "random"]))
    if kind == "random":
        num, d = draw(st.lists(st.integers(-2000, 2000), min_size=4, max_size=4)), draw(st.integers(1, 12))
    else:
        # num / (k den) = (c . rows) / den, reading the upper triangle only
        c = draw(st.lists(st.integers(-20, 20), min_size=4, max_size=4))
        k = draw(st.integers(1, 6))
        d = k * den
        num = [k * sum(c[i] * rows[i][j] for i in range(j + 1)) for j in range(4)]
        if kind == "moved":
            num[draw(st.integers(0, 3))] += draw(st.integers(1, 5))
    return OrderLattice(None, den, rows), num, d


@settings(max_examples=150, deadline=None)
@given(case=solve_cases())
def test_solve_matches_the_reference(case):
    lattice, num, d = case
    assert lattice._solve(num, d) == ref.ref_solve(lattice, num, d)


@pytest.mark.parametrize("fixture", ["classes170", "classes174", "classes222", "classes330", "classes139"])
def test_trace_zero_lattice_matches_the_reference(fixture, request):
    # rows 1-3 of the HNF of Z + 2R against the HNF kernel of the trace, for every left order
    for order in request.getfixturevalue(fixture).right_orders:
        assert trace_zero_lattice(order).gram == ref.ref_trace_zero_lattice(order).gram


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.sampled_from([3, 4]))
def test_greedy_reduce_matches_the_reference(data, n):
    # B B^T with entries of B up to 2^9, so Gram entries up to about 2^20
    b = data.draw(st.lists(st.lists(st.integers(-512, 512), min_size=n, max_size=n), min_size=n, max_size=n))
    g = _gram(b)
    assume(_positive_definite(g))
    assert greedy_reduce(g) == ref.greedy_reduce(g)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_runs_and_counts_match_the_reference(data, n):
    # the library walks reduced Grams only; reducing first keeps the walks short
    b = data.draw(st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n), min_size=n, max_size=n))
    g = _gram(b)
    assume(_positive_definite(g))
    g = greedy_reduce(g)[0]
    bound = data.draw(st.integers(0, 3 * max(g[k][k] for k in range(n))))
    assert list(_runs(g, bound)) == list(ref._runs(g, bound))
    counts = vector_counts(g, bound)
    expected = ref.vector_counts(g, bound)
    assert counts == expected and list(counts) == list(expected)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_grouped_counts_match_the_reference_at_long_runs(data, n):
    # small entries give small diagonals, and bounds up to 40 times the largest
    # one make runs long, so that runs of one class (+-c mod a, D) repeat and
    # several classes share a D
    b = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n))
    g = _gram(b)
    assume(_positive_definite(g))
    g = greedy_reduce(g)[0]
    bound = data.draw(st.integers(0, 40 * max(g[k][k] for k in range(n))))
    counts = vector_counts(g, bound)
    expected = ref.vector_counts(g, bound)
    assert counts == expected and list(counts) == list(expected)


def _run_classes(g, bound) -> tuple[int, int]:
    """(number of runs, number of distinct (+-c mod a, D)) of the walk of g to bound."""
    a = g[0][0]
    runs = [(lin // 2, rest) for _, _, _, lin, rest in _runs(g, bound)]
    return len(runs), len({(min(c % a, -c % a), a * rest - c * c) for c, rest in runs})


def test_grouped_counts_match_the_reference_on_the_paper_types(classes170, classes174, classes222):
    # the reduced trace-zero Grams that theta_series counts, at a bound where runs repeat
    for classes in (classes170, classes174, classes222):
        grams = {tuple(map(tuple, greedy_reduce([list(r) for r in trace_zero_lattice(o).gram])[0]))
                 for o in classes.right_orders}
        runs = classes_seen = 0
        for gram in sorted(grams):
            g = [list(r) for r in gram]
            counts = vector_counts(g, 2000)
            expected = ref.vector_counts(g, 2000)
            assert counts == expected and list(counts) == list(expected)
            r, c = _run_classes(g, 2000)
            runs, classes_seen = runs + r, classes_seen + c
        assert classes_seen < runs


@settings(max_examples=300, deadline=None)
@given(b=st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3))
def test_canonical_gram_matches_the_reference(b):
    # ternary B B^T, including forms with many minimal vectors (B a signed
    # permutation or nearly so) and far from reduced ones
    g = _gram(b)
    assume(_positive_definite(g))
    assert canonical_gram(g) == ref.canonical_gram(g)


@st.composite
def unimodular_3x3(draw):
    """A product of up to 8 shears, swaps and sign changes of the identity."""
    u = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.permutations(range(3)))[:2]
        kind = draw(st.sampled_from(["shear", "shear", "swap", "sign"]))
        if kind == "shear":
            mu = draw(st.integers(-3, 3))
            u[i] = [x + mu * y for x, y in zip(u[i], u[j])]
        elif kind == "swap":
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-x for x in u[i]]
    return u


@settings(max_examples=60, deadline=None)
@given(b=st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=3, max_size=3), u=unimodular_3x3())
def test_type_key_has_the_canonical_gram_of_every_equivalent_gram(b, u):
    # the class walk searches once per _type_key: the sign-normalized greedy
    # Gram must have the canonical Gram of any GL_3(Z) image of its input
    g = _gram(b)
    assume(_positive_definite(g))
    key = _type_key(g)
    assert key[0][1] >= 0 and key[0][2] >= 0
    moved = [[sum(u[i][m] * g[m][n] * u[j][n] for m in range(3) for n in range(3)) for j in range(3)] for i in range(3)]
    assert canonical_gram(key) == canonical_gram(moved)
