import random
from fractions import Fraction
from math import isqrt

import pytest

from brandtlift.linalg import leading_minors, mat_inv, mat_mul, transpose
from brandtlift.shortvec import exists_value, iter_short_vectors, vector_counts


def ldl(gram) -> tuple[list[list[Fraction]], list[Fraction]]:
    """LDL^T decomposition of a symmetric positive definite matrix.

    Returns (L, D) with L unit lower triangular and D the positive diagonal,
    both exact.  Raises ValueError if the matrix is not positive definite.
    """
    n = len(gram)
    L = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    D = [Fraction(0)] * n
    for j in range(n):
        d = Fraction(gram[j][j]) - sum(L[j][k] ** 2 * D[k] for k in range(j))
        if d <= 0:
            raise ValueError("gram matrix is not positive definite")
        D[j] = d
        for i in range(j + 1, n):
            s = Fraction(gram[i][j]) - sum(L[i][k] * L[j][k] * D[k] for k in range(j))
            L[i][j] = s / d
    return L, D


def floor_plus_sqrt(c: Fraction, r: Fraction) -> int:
    """Exact floor(c + sqrt(r)) for rational c and rational r >= 0.

    Writing c = su/sd (sd > 0) and r = tn/td, the value is
    (su*td + sqrt(tn*td*sd^2)) / (sd*td); replacing the square root by its
    integer part does not move the floor since any integer boundary crossed
    between the two would itself be a better integer part.
    """
    c = Fraction(c)
    r = Fraction(r)
    if r < 0:
        raise ValueError("negative radicand")
    su, sd = c.numerator, c.denominator
    tn, td = r.numerator, r.denominator
    m = isqrt(tn * td * sd * sd)
    return (su * td + m) // (sd * td)


def reference_short_vectors(gram, bound):
    # reference walk: the LDL cone in Fraction arithmetic, one recursion
    # level per coordinate, the same order as the integer walk
    n = len(gram)
    bound = Fraction(bound)
    if bound < 0:
        return []
    L, D = ldl(gram)
    x = [0] * n
    out = []

    def rec(j, used, leading_zero):
        if j < 0:
            if not leading_zero:
                out.append((tuple(x), used))
            return
        c = sum(L[i][j] * x[i] for i in range(j + 1, n))
        r = (bound - used) / D[j]
        hi = floor_plus_sqrt(-c, r)
        lo = 0 if leading_zero else -floor_plus_sqrt(c, r)
        for xj in range(lo, hi + 1):
            x[j] = xj
            y = xj + c
            rec(j - 1, used + D[j] * y * y, leading_zero and xj == 0)
        x[j] = 0

    rec(n - 1, Fraction(0), True)
    return out


def reference_counts(gram, bound):
    counts = {}
    for _, val in reference_short_vectors(gram, bound):
        key = int(val) if val.denominator == 1 else val
        counts[key] = counts.get(key, 0) + 2
    return counts


def box_counts(gram, bound):
    # independent oracle: scan the full Cauchy-Schwarz box
    n = len(gram)
    inv = mat_inv(gram)
    lims = [isqrt(int(Fraction(bound) * inv[i][i])) for i in range(n)]
    counts = {}

    def q(x):
        return sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n))

    def rec(i, x):
        if i == n:
            if any(x):
                v = q(x)
                if 0 < v <= bound:
                    counts[v] = counts.get(v, 0) + 1
            return
        for xi in range(-lims[i], lims[i] + 1):
            rec(i + 1, x + [xi])

    rec(0, [])
    return counts


def random_pd_gram(rng, n):
    while True:
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        g = mat_mul(a, transpose(a))
        try:
            ldl(g)
        except ValueError:
            continue
        return g


def test_floor_plus_sqrt_exact():
    rng = random.Random(3)
    for _ in range(300):
        c = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        r = Fraction(rng.randint(0, 900), rng.randint(1, 12))
        k = floor_plus_sqrt(c, r)
        # k <= c + sqrt(r) < k + 1, checked without floats
        lhs = Fraction(k) - c
        assert lhs <= 0 or lhs * lhs <= r
        rhs = Fraction(k + 1) - c
        assert rhs > 0 and rhs * rhs > r


def test_floor_plus_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        floor_plus_sqrt(Fraction(0), Fraction(-1))


def test_ldl_reconstructs():
    rng = random.Random(5)
    for n in (2, 3, 4):
        for _ in range(10):
            g = random_pd_gram(rng, n)
            L, D = ldl(g)
            ldlt = [
                [sum(L[i][k] * D[k] * L[j][k] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert ldlt == [[Fraction(x) for x in row] for row in g]


def test_minors_match_ldl_reference():
    # Bareiss pivots are the leading minors Delta_k = D_0 ... D_{k-1}, and
    # the entries below them Delta_{j+1} L_ij, as integers
    rng = random.Random(37)
    for n in (1, 2, 3, 4):
        for _ in range(12):
            g = random_pd_gram(rng, n)
            L, D = ldl(g)
            delta, coef = leading_minors(g)
            ref = [Fraction(1)]
            for d in D:
                ref.append(ref[-1] * d)
            assert delta == ref and all(type(x) is int for x in delta)
            for j in range(n):
                assert coef[j] == [ref[j + 1] * L[i][j] for i in range(j + 1, n)]
                assert all(type(x) is int for x in coef[j])


def test_ldl_rejects_indefinite():
    # the integer set-up of every walk rejects what the LDL reference rejects
    for g in ([[1, 0], [0, -1]], [[0, 1], [1, 0]]):
        with pytest.raises(ValueError, match="not positive definite"):
            ldl(g)
        with pytest.raises(ValueError, match="not positive definite"):
            vector_counts(g, 1)
        with pytest.raises(ValueError, match="not positive definite"):
            list(iter_short_vectors(g, 1))
        with pytest.raises(ValueError, match="not positive definite"):
            exists_value(g, 1)


def test_counts_identity_form():
    # sums of three squares
    counts = vector_counts([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 10)
    assert counts[1] == 6
    assert counts[2] == 12
    assert counts[3] == 8
    assert counts[4] == 6
    assert counts[5] == 24
    assert 7 not in counts


def test_counts_match_box_oracle():
    rng = random.Random(9)
    for n in (2, 3, 4):
        for _ in range(8):
            g = random_pd_gram(rng, n)
            bound = rng.randint(5, 25)
            assert vector_counts(g, bound) == box_counts(g, bound)


def test_iter_yields_one_per_sign_pair():
    g = [[2, 1], [1, 2]]
    seen = set()
    for v, _ in iter_short_vectors(g, 20):
        assert v not in seen
        assert tuple(-x for x in v) not in seen
        seen.add(v)
    total = sum(vector_counts(g, 20).values())
    assert total == 2 * len(seen)


def test_exists_value_agrees_with_counts():
    rng = random.Random(13)
    for _ in range(6):
        g = random_pd_gram(rng, 3)
        counts = vector_counts(g, 30)
        for v in range(1, 31):
            assert exists_value(g, v) == (v in counts)
    assert exists_value([[1]], 0)
    assert not exists_value([[1]], -3)


def test_fractional_gram():
    # Grams must have int entries; rational bounds are floored once
    for g in ([[Fraction(1, 2), 0], [0, Fraction(1, 2)]], [[Fraction(2), 0], [0, 2]]):
        with pytest.raises(ValueError, match="ints"):
            vector_counts(g, 2)
        with pytest.raises(ValueError, match="ints"):
            list(iter_short_vectors(g, 2))
        with pytest.raises(ValueError, match="ints"):
            exists_value(g, 1)
    assert vector_counts([[2, 0], [0, 2]], Fraction(9, 2)) == {2: 4, 4: 4}
    assert not exists_value([[1]], Fraction(1, 2))


def _assert_matches_reference(g, bound):
    ref = reference_short_vectors(g, bound)
    got = list(iter_short_vectors(g, bound))
    assert len(got) == len(ref)
    for (v, val), (rv, rval) in zip(got, ref):
        assert v == rv and val == rval
    ref_counts = reference_counts(g, bound)
    counts = vector_counts(g, bound)
    assert counts == ref_counts
    assert list(counts) == list(ref_counts)
    assert all(type(k) is type(rk) for k, rk in zip(counts, ref_counts))
    return ref_counts


def test_walk_matches_reference():
    rng = random.Random(21)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            g = random_pd_gram(rng, n)
            bound = Fraction(rng.randint(0, 40), rng.choice((1, 2, 3)))
            ref_counts = _assert_matches_reference(g, bound)
            for k in range(-1, 6 * int(bound) + 1):
                v = Fraction(k, 6)
                assert exists_value(g, v) == (v == 0 or v in ref_counts)
    assert list(iter_short_vectors([[1]], -1)) == []
    assert vector_counts([[1]], Fraction(-1, 2)) == {}


def test_walk_matches_reference_ternary_large_bound():
    g = [[4, 1, 1], [1, 12, 5], [1, 5, 30]]
    counts = _assert_matches_reference(g, 2000)
    assert all(type(k) is int for k in counts)
    for v in range(1900, 2001):
        assert exists_value(g, v) == (v in counts)
