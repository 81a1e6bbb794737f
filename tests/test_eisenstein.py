"""The weighted sum of the class thetas is a class-number series.

The ternary theta series of the trace-zero lattices of the right orders,
weighted by 1 / w_i, add up to a weight-3/2 Eisenstein series (Gross 1987):
at every n with -n fundamental at each p | N,

    sum_i a_i(n) / w_i = H(n) (1 - chi_q(n)) / 2 prod_{p | M} (1 + chi_p(n)),

H the Hurwitz class number and chi_p(n) the Kronecker symbol (-n / p)
(Eichler 1956; Pizer 1980; Voight, GTM 288, on optimal embeddings).  The
class numbers count reduced binary forms, not lattice vectors, so the
identity checks the class set, the weights and the theta coefficients
against arithmetic that shares no code with them.
"""

from collections import Counter
from functools import cache
from math import isqrt, lcm

import pytest
from sympy import primefactors

from brandtlift.theta import QSeries, TernaryLattice, theta_series

from conftest import build_classes

BOUND = 3000


@cache
def hurwitz_class_numbers(bound: int) -> list[int]:
    """6 H(n) for n <= bound: reduced forms [a, b, c] of discriminant -n, a(x^2 + y^2) weighted 1/2, a(x^2 + xy + y^2) 1/3."""
    counts = [0] * (bound + 1)
    for a in range(1, isqrt(bound // 3) + 1):
        for b in range(-a + 1, a + 1):
            c = a
            while (n := 4 * a * c - b * b) <= bound:
                # |b| <= a <= c, with b >= 0 when a = c
                if c > a or b >= 0:
                    counts[n] += 3 if b == 0 and c == a else 2 if b == a == c else 6
                c += 1
    return counts


def kronecker(n: int, p: int) -> int:
    """The Kronecker symbol (-n / p) for p prime."""
    if p == 2:
        return 0 if n % 2 == 0 else 1 if -n % 8 in (1, 7) else -1
    r = pow(-n % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def fundamental_at(n: int, p: int) -> bool:
    """Whether -n is a fundamental discriminant at p: p^2 does not divide it, or at 2 it is 1 mod 4 or 4k, k = 2 or 3 mod 4."""
    if p == 2:
        return n % 4 == 3 or (n % 4 == 0 and n // 4 % 4 in (1, 2))
    return n % (p * p) != 0


def mismatches(q: int, M: int, thetas, weights, bound: int) -> list[int]:
    """The n <= bound, -n fundamental at every p | qM, where the weighted theta sum is not the class-number series.

    Both sides are scaled by 6 lcm(w), to integers; classes that share a
    theta object are added up once.
    """
    hurwitz, split, scale = hurwitz_class_numbers(bound), primefactors(M), lcm(*weights)
    factors, series = Counter(), {}
    for theta, w in zip(thetas, weights):
        factors[id(theta)] += 6 * scale // w
        series[id(theta)] = theta
    bad = []
    for n in range(1, bound + 1):
        if not all(fundamental_at(n, p) for p in [q, *split]):
            continue
        expected = hurwitz[n] * scale * (1 - kronecker(n, q)) // 2
        for p in split:
            expected *= 1 + kronecker(n, p)
        if sum(series[k].coefficient(n) * f for k, f in factors.items()) != expected:
            bad.append(n)
    return bad


def class_thetas(classes, bound: int) -> list:
    """theta_series of each class's type, one enumeration per type."""
    series = {gram: theta_series(TernaryLattice(gram), bound) for gram in set(classes._types)}
    return [series[gram] for gram in classes._types]


def test_hurwitz_class_numbers():
    # H(3) = 1/3, H(4) = 1/2, H(7) = H(8) = H(11) = 1, H(12) = 4/3, H(15) = 2,
    # H(16) = 3/2, H(23) = 3
    hurwitz = hurwitz_class_numbers(30)
    assert [hurwitz[n] for n in (3, 4, 7, 8, 11, 12, 15, 16, 23)] == [2, 3, 6, 6, 6, 8, 12, 9, 18]
    assert all(hurwitz[n] == 0 for n in range(1, 31) if n % 4 in (1, 2))


# (q, M, bound): N=11 and 307 at prime level, every fixture level of a
# composite N (N=2310 to a smaller bound), and the second q at N=174 and 290
LEVELS = [(11, 1, BOUND), (307, 1, BOUND), (17, 10, BOUND), (3, 58, BOUND), (29, 6, BOUND),
          (2, 111, BOUND), (29, 10, BOUND), (2, 145, BOUND), (2, 1155, 1500)]
FIXTURES = {(17, 10): "classes170", (3, 58): "classes174", (2, 111): "classes222",
            (29, 10): "classes290", (2, 1155): "classes2310"}


@pytest.mark.parametrize("q, M, bound", LEVELS, ids=[f"{q * M}q{q}" for q, M, _ in LEVELS])
def test_weighted_thetas_are_the_class_number_series(request, q, M, bound):
    if (q, M) in FIXTURES:
        classes = request.getfixturevalue(FIXTURES[q, M])
    else:
        classes = build_classes(q, M)
    assert mismatches(q, M, class_thetas(classes, bound), classes.weights, bound) == []


def test_planted_faults_fail_the_class_number_series(classes170):
    thetas, weights = class_thetas(classes170, BOUND), classes170.weights
    assert mismatches(17, 10, thetas, weights, BOUND) == []
    # a class dropped from the sum
    assert mismatches(17, 10, thetas[1:], weights[1:], BOUND)
    # one weight changed
    assert mismatches(17, 10, thetas, [2 * weights[0]] + weights[1:], BOUND)
    # one coefficient off by one at a checked n: n = 23 is 3 mod 4 and prime to 170
    shifted = dict(thetas[0].coeffs)
    shifted[23] = shifted.get(23, 0) + 1
    assert mismatches(17, 10, [QSeries(BOUND, shifted)] + thetas[1:], weights, BOUND) == [23]
