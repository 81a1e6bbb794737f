"""Enumeration of short vectors of a positive definite quadratic form.

The form is given by its Gram matrix G, whose entries must be ints, and
evaluated as Q(x) = x G x^T on integer row vectors, so every value is an
int.  A bound may be any rational; it is floored once, at entry, and the
walk runs on plain ints only.

The walk is Fincke and Pohst's (Math. Comp. 44 (1985); Cohen, GTM 138,
2.7.3) in integer form.  With G = L D L^T and Delta_k the leading
principal minors, D_j = Delta_{j+1}/Delta_j, and the term of coordinate j
is (Delta_{j+1} x_j + C_j)^2 / (Delta_j Delta_{j+1}), where
C_j = Delta_{j+1} * sum_{i>j} L_ij x_i is an integer linear form in the
coordinates fixed before it.  The minors Delta_k and the coefficients
Delta_{j+1} L_ij of C_j come from linalg.leading_minors, one
fraction-free Bareiss elimination of the integer Gram, so no rational
number is formed.  Times M = lcm_j(Delta_j Delta_{j+1}) every
partial norm is an integer, and each coordinate range comes from one
math.isqrt, so the bounds are exact.  Coordinates are fixed from the last
to the first; the first is handed to the consumer as a run of consecutive
values along which Q is an integer quadratic.

A run with tail fixed has Q = a x_0^2 + 2c x_0 + rest, a = G_00, so
a Q = (a x_0 + c)^2 + D with D = a rest - c^2.  Its x_0 are all those with
Q <= bound, so its values are (t^2 + D)/a over the t = c mod a with
t^2 <= a bound - D; t -> -t maps those onto the t = -c mod a.  The multiset
of a run's values thus depends only on (+-c mod a, D), and vector_counts
walks each such class of runs once, weighted by its number of runs.  A
nonzero tail has D > 0 (D/a is the norm of the tail's part orthogonal to
x_0); the zero tail, the half-run x_0 >= 1, is the one run with D = 0, so
its class is its own.
"""

from __future__ import annotations

from math import floor, isqrt, lcm
from operator import mul
from typing import Iterator

from .linalg import leading_minors


def _runs(g: list[list[int]], bound: int) -> Iterator[tuple[tuple[int, ...], int, int, int, int]]:
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
    # an explicit stack in place of one nested generator per coordinate:
    # nxt[j] and top[j] are the next and the last x_j to try; base[j], cs[j]
    # and zeros[j] are the used, the C_j and the zero that level j was
    # entered with (zero: every coordinate after j is 0)
    nxt, top, base, cs, zeros = [0] * n, [0] * n, [0] * n, [0] * n, [True] * n
    j, used, zero = n - 1, 0, True
    while True:
        # enter level j: used is M times the norm of the terms of coordinates j+1, ..., n-1
        c = sum(map(mul, coef[j], x[j + 1 :]))
        s = isqrt((mbound - used) // weight[j])
        dj = delta[j + 1]
        if j == 0:
            lo, hi = 1 if zero else -((s + c) // dj), (s - c) // dj
            if lo <= hi:
                yield tuple(x[1:]), lo, hi, 2 * c, (used + weight[0] * c * c) // m
            j = 1
        else:
            nxt[j], top[j] = 0 if zero else -((s + c) // dj), (s - c) // dj
            base[j], cs[j], zeros[j] = used, c, zero
        # step: the next x_j at the lowest level with one left, or done
        while j < n and nxt[j] > top[j]:
            x[j] = 0
            j += 1
        if j == n:
            return
        xj = x[j] = nxt[j]
        nxt[j] = xj + 1
        t = delta[j + 1] * xj + cs[j]
        used, zero = base[j] + weight[j] * t * t, zeros[j] and xj == 0
        j -= 1


def iter_short_vectors(gram, bound) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (x, Q(x)) over nonzero integer x with 0 <= Q(x) <= bound.

    Exactly one of each pair {x, -x} is produced: the one whose highest
    indexed nonzero coordinate is positive.
    """
    b = floor(bound)
    if b < 0:
        return
    a = gram[0][0] if gram else 0
    for tail, lo, hi, lin, rest in _runs(gram, b):
        for x0 in range(lo, hi + 1):
            yield (x0,) + tail, (a * x0 + lin) * x0 + rest


def vector_counts(gram, bound) -> dict[int, int]:
    """Counts {Q(x): #x} over nonzero integer vectors with Q(x) <= bound.

    Both signs are counted, so every count is even.  Runs of one class
    (+-c mod a, D) have the same multiset of values (see the module
    docstring), so each class is walked once, in the order of its first
    run, adding 2 per run of the class.  The keys keep the order of a walk
    of every run: a class first adds its values where its first run would,
    and a later run of it has no value that is not already a key.
    """
    b = floor(bound)
    counts: dict[int, int] = {}
    if b < 0:
        return counts
    get = counts.get
    a = gram[0][0] if gram else 0
    a2 = 2 * a
    # (+-c mod a, D) -> [2 * #runs, lo, hi, lin, rest] of its first run
    classes: dict[tuple[int, int], list[int]] = {}
    seen = classes.get
    for _, lo, hi, lin, rest in _runs(gram, b):
        c = lin >> 1
        r = c % a
        if r + r > a:
            r = a - r
        key = r, a * rest - c * c
        first = seen(key)
        if first is None:
            classes[key] = [2, lo, hi, lin, rest]
        else:
            first[0] += 2
    for w, lo, hi, lin, rest in classes.values():
        # Q along the run, stepped by its first and second differences
        q, dq = (a * lo + lin) * lo + rest, a * (2 * lo + 1) + lin
        for _ in range(hi - lo + 1):
            counts[q] = get(q, 0) + w
            q += dq
            dq += a2
    return counts


def exists_value(gram, value) -> bool:
    """Whether some integer vector has Q(x) exactly equal to value.

    Q only takes int values, so this is False for a value that is not an
    integer.  No library path calls it; perfbench's tracer still wraps it.
    """
    return value == 0 if value <= 0 else value in vector_counts(gram, value)
