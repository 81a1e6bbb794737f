import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brandtlift.linalg import (
    clear_denominators,
    hnf,
    mat_inv,
    mat_vec,
    primitive_vector,
    rational_nullspace,
    rref_mod,
    vec_mat,
)


def det_cofactor(m):
    # independent oracle: Laplace expansion along the first row
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def ref_gauss_jordan(m, ncols):
    # reference: Gauss-Jordan over Q in Fraction arithmetic, each pivot
    # scaled to 1; m is reduced in place to its reduced row echelon form
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
        scale = m[r][c]
        row = m[r] = [x / scale for x in m[r]]
        for i in range(nrows):
            f = m[i][c]
            if i != r and f:
                m[i] = [x - f * y for x, y in zip(m[i], row)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def ref_nullspace(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0])
    pivots = ref_gauss_jordan(m, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def primitive_multiple(v):
    # the positive multiple of a rational vector with coprime integer entries
    ints = clear_denominators(v)[1]
    k = gcd(*ints)
    return [x // k for x in ints]


def ref_mat_inv(rows):
    n = len(rows)
    m = [
        [Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    if len(ref_gauss_jordan(m, n)) < n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in m]


_entry = st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


@st.composite
def q_matrices(draw, square=False):
    # int and Fraction entries up to 6x7; zero rows and repeated (rescaled)
    # rows make rank-deficient inputs common
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 7))
    m = [draw(st.lists(_entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(nrows):
        kind = draw(st.sampled_from(("keep",) * 4 + ("zero", "repeat")))
        if kind == "zero":
            m[i] = [0] * ncols
        elif kind == "repeat":
            c = draw(st.sampled_from((1, -2, Fraction(1, 3))))
            m[i] = [c * x for x in m[draw(st.integers(0, nrows - 1))]]
    return m


def random_matrix(rng, nrows, ncols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def random_unimodular(rng, n, steps=12):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


def test_hnf_known_value():
    assert hnf([[2, 0], [0, 2], [1, 1]]) == [[1, 1], [0, 2]]


def test_hnf_shape():
    rng = random.Random(7)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 5), 4)
        h = hnf(m)
        pivots = []
        for row in h:
            assert any(row)
            c = next(i for i, x in enumerate(row) if x)
            assert row[c] > 0
            pivots.append(c)
        assert pivots == sorted(set(pivots))
        for r, c in enumerate(pivots):
            for above in range(r):
                assert 0 <= h[above][c] < h[r][c]


def test_hnf_canonical_under_row_ops():
    rng = random.Random(11)
    for _ in range(30):
        m = random_matrix(rng, 4, 4)
        if det_cofactor(m) == 0:
            continue
        u = random_unimodular(rng, 4)
        assert hnf([vec_mat(row, m) for row in u]) == hnf(m)


def test_hnf_preserves_det_up_to_sign():
    rng = random.Random(13)
    for _ in range(30):
        m = random_matrix(rng, 4, 4)
        d = det_cofactor(m)
        if d == 0:
            continue
        h = hnf(m)
        prod = 1
        for r in range(4):
            prod *= h[r][r]
        assert prod == abs(d)


def test_hnf_idempotent():
    rng = random.Random(17)
    for _ in range(20):
        m = random_matrix(rng, 5, 4)
        h = hnf(m)
        assert hnf(h) == h


def test_mat_inv_round_trip():
    rng = random.Random(23)
    done = 0
    while done < 20:
        m = random_matrix(rng, 4, 4)
        if det_cofactor(m) == 0:
            continue
        inv = mat_inv(m)
        prod = [vec_mat(row, inv) for row in m]
        assert prod == [[Fraction(1 if i == j else 0) for j in range(4)] for i in range(4)]
        done += 1


def test_mat_inv_singular_raises():
    with pytest.raises(ValueError):
        mat_inv([[1, 1], [1, 1]])


def test_vec_mat_and_mat_vec():
    m = [[1, 2], [3, 4]]
    assert vec_mat([1, 1], m) == [4, 6]
    assert mat_vec(m, [1, 1]) == [3, 7]


def test_rref_mod_known():
    ech, pivots = rref_mod([[2, 4], [1, 3]], 5)
    assert pivots == [0, 1]
    assert ech == [[1, 0], [0, 1]]
    assert rref_mod([[2, 4, 6], [1, 3, 5]], 7) == ([[1, 0, 6], [0, 1, 2]], [0, 1])
    # the same elimination over Q: a full-rank kernel is empty, a rank-2
    # 2x3 matrix has a one-dimensional kernel, and the inverse is exact
    assert rational_nullspace([[2, 4], [1, 3]]) == []
    assert rational_nullspace([[2, 4, 6], [1, 3, 5]]) == [[1, -2, 1]]
    # 3 * (-2/3, 1): the primitive multiple of the reduced-echelon vector
    assert rational_nullspace([[Fraction(1, 2), Fraction(1, 3)]]) == [[-2, 3]]
    assert rational_nullspace([[3, 0, -2, 0], [0, 5, 0, 1]]) == [[2, 0, 3, 0], [0, -1, 0, 5]]
    assert mat_inv([[2, 4], [1, 3]]) == [[Fraction(3, 2), -2], [Fraction(-1, 2), 1]]


def test_rational_nullspace_annihilates_fraction_rows():
    # rows with denominators; the kernel dimension over Q is read off the
    # denominator-free rows mod a large prime
    rng = random.Random(29)
    for _ in range(15):
        m = [[Fraction(x, rng.randint(1, 6)) for x in row]
             for row in random_matrix(rng, rng.randint(1, 3), 4)]
        basis = rational_nullspace(m)
        rank = len(rref_mod([clear_denominators(row)[1] for row in m], 10**9 + 7)[1])
        assert len(basis) == 4 - rank
        for v in basis:
            assert all(x == 0 for x in mat_vec(m, v))


def test_rational_nullspace_annihilates():
    rng = random.Random(31)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 3), 5)
        basis = rational_nullspace(m)
        # the pivot columns over Q are those mod a huge prime for these tiny entries
        pivots = rref_mod(m, 10**9 + 7)[1]
        free = [c for c in range(5) if c not in pivots]
        assert len(basis) == len(free)
        for v, fc in zip(basis, free):
            # one primitive int vector per free column, positive there
            assert all(type(x) is int for x in v) and gcd(*v) == 1
            assert v[fc] > 0 and all(v[c] == 0 for c in free if c != fc)
            assert all(x == 0 for x in mat_vec(m, v))


@settings(max_examples=200, deadline=None)
@given(m=q_matrices())
def test_rational_nullspace_matches_fraction_reference(m):
    before = [list(row) for row in m]
    got = rational_nullspace(m)
    assert m == before
    assert got == [primitive_multiple(v) for v in ref_nullspace(m)]
    assert all(type(x) is int for v in got for x in v)


@settings(max_examples=200, deadline=None)
@given(m=q_matrices(square=True))
def test_mat_inv_matches_fraction_reference(m):
    try:
        ref = ref_mat_inv(m)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            mat_inv(m)
        return
    got = mat_inv(m)
    assert got == ref
    assert all(type(x) is Fraction for row in got for x in row)


def test_primitive_vector():
    assert primitive_vector([Fraction(2, 3), Fraction(-4, 3)]) == [1, -2]
    assert primitive_vector([-2, 4, -6]) == [1, -2, 3]
    assert primitive_vector([0, Fraction(-5, 7)]) == [0, 1]
    with pytest.raises(ValueError):
        primitive_vector([0, 0])
    assert clear_denominators([Fraction(1, 6), 2, Fraction(-3, 4)]) == (12, [2, 24, -9])
    assert clear_denominators([3, -1]) == (1, [3, -1])
