"""Enumeration of short vectors of a positive definite quadratic form.

The form is given by its Gram matrix G, whose entries must be ints and
which must be symmetric, and evaluated as Q(x) = x G x^T on integer row
vectors, so every value is an int.  A bound may be any rational; it is
floored once, at entry, and the walk runs on plain ints only.

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

The walk runs as generated code, one kernel per dimension n and emitter,
written by _walk_source and compiled on first use (linalg._Kernels): one
nested for loop per coordinate x_{n-1}, ..., x_1, with the minors, the
C_j, the weights and the partial norms in local variables.  The runs
emitter returns the list of runs; the counts emitter groups each run into
its class (+-c mod a, D) in the innermost loop and then walks the classes.
tests/reference_kernels.py keeps a recursive walk and a plain count as the
references.
"""

from __future__ import annotations

from math import floor, isqrt, lcm
from typing import Iterator

from .linalg import _Kernels, leading_minors


def _walk_source(n: int, emitter: str) -> str:
    """The walk over n x n Grams as nested loops on locals, for emitter "runs" or "counts".

    The off-diagonal entries are read into g{i}_{j} and compared in pairs,
    then leading_minors gives d{k} = Delta_k (Delta_0 = 1 is left out) and
    k{j}_{i}, the coefficient of x_i in C_j.  The loop over x_j (j >= 1)
    keeps u{j}, M times the norm of the terms of coordinates j, ..., n-1,
    and z{j}, whether they are all 0, and computes C_{j-1} in c{j-1} and
    the sums p{i}_{j} of the lower C_i over the coordinates fixed so far.
    x_j runs from 0 while every later coordinate is 0, so of each pair
    {x, -x} only the one whose last nonzero coordinate is positive is
    walked.  In the innermost loop D = u1 / w0 is the run's D (see the
    module docstring), exactly, and the run's x_0 are those with
    (a x_0 + c)^2 <= a bound - D.  The runs emitter appends
    (tail, lo, hi, 2c, rest) with rest = (D + c^2) / a.  The counts emitter
    keys the run's class D a + r, r the least of c mod a and -c mod a, and
    adds 2 to its weight, or keeps the run as the class's first; then it
    adds each class's values, (t^2 + D) / a along t = a x_0 + c, in the
    order of the classes' first runs.
    """
    span = range(n)
    lines = [f"def {emitter}(g, bound):"]
    if not n:
        return "\n".join(lines + ["    return " + ("[]" if emitter == "runs" else "{}")]) + "\n"
    if n > 1:
        rows = ", ".join("(" + ", ".join(f"g{i}_{j}" if i != j else "_" for j in span) + ",)" for i in span)
        same = " and ".join(f"g{i}_{j} == g{j}_{i}" for i in span for j in range(i + 1, n))
        lines += [f"    {rows}, = g", f"    if not ({same}):", "        raise ValueError('gram matrix is not symmetric')"]
    deltas = ", ".join(["_"] + [f"d{k}" for k in range(1, n + 1)])
    coefs = ", ".join("[" + ", ".join(f"k{j}_{i}" for i in range(j + 1, n)) + "]" for j in span)
    lines += [f"    [{deltas}], [{coefs}] = leading_minors(g)", "    ab = d1 * bound"]
    if n > 1:
        prods = ["d1"] + [f"d{j} * d{j + 1}" for j in range(1, n)]
        weights = ", ".join(f"w{j}" for j in span)
        lines += [
            f"    m = lcm({', '.join(prods)})",
            f"    {weights}, = " + ", ".join(f"m // ({p})" for p in prods) + ",",
            "    mb = m * bound",
        ]
    if emitter == "runs":
        lines += ["    out = []", "    append = out.append"]
    else:
        lines += ["    classes = {}", "    seen = classes.get"]
    ind = "    "
    for j in range(n - 1, 0, -1):
        top = j == n - 1
        dj = f"d{j + 1}"
        if top:
            lines += [f"{ind}s{j} = isqrt(mb // w{j})", f"{ind}for x{j} in range(s{j} // {dj} + 1):"]
        else:
            lo = f"0 if z{j + 1} else -((s{j} + c{j}) // {dj})"
            lines += [
                f"{ind}s{j} = isqrt((mb - u{j + 1}) // w{j})",
                f"{ind}for x{j} in range({lo}, (s{j} - c{j}) // {dj} + 1):",
            ]
        ind += "    "
        if top:
            lines += [f"{ind}t = {dj} * x{j}", f"{ind}u{j} = w{j} * t * t"]
        else:
            lines += [f"{ind}t = {dj} * x{j} + c{j}", f"{ind}u{j} = u{j + 1} + w{j} * t * t"]
        if j > 1:
            lines.append(f"{ind}z{j} = " + ("" if top else f"z{j + 1} and ") + f"not x{j}")
        for i in range(j):
            target = f"c{i}" if i == j - 1 else f"p{i}_{j}"
            lines.append(f"{ind}{target} = k{i}_{j} * x{j}" + ("" if top else f" + p{i}_{j + 1}"))
    if n == 1:
        lines += [f"{ind}D = c0 = 0", f"{ind}lo, hi = 1, isqrt(ab) // d1"]
    else:
        zero = "not x1" if n == 2 else "z2 and not x1"
        lines += [
            f"{ind}D = u1 // w0",
            f"{ind}s0 = isqrt(ab - D)",
            f"{ind}lo, hi = 1 if {zero} else -((s0 + c0) // d1), (s0 - c0) // d1",
        ]
    lines.append(f"{ind}if lo <= hi:")
    ind += "    "
    if emitter == "runs":
        tail = ", ".join(f"x{j}" for j in range(1, n)) + ("," if n == 2 else "")
        lines += [f"{ind}append((({tail}), lo, hi, 2 * c0, (D + c0 * c0) // d1))", "    return out"]
        return "\n".join(lines) + "\n"
    lines += [
        f"{ind}r = c0 % d1",
        f"{ind}if r + r > d1:",
        f"{ind}    r = d1 - r",
        f"{ind}key = D * d1 + r",
        f"{ind}first = seen(key)",
        f"{ind}if first is None:",
        f"{ind}    classes[key] = [2, lo, hi, c0, D]",
        f"{ind}else:",
        f"{ind}    first[0] += 2",
        "    counts = {}",
        "    get = counts.get",
        "    a2 = 2 * d1",
        "    for w, lo, hi, c0, D in classes.values():",
        "        t = d1 * lo + c0",
        "        q, dq = (t * t + D) // d1, 2 * t + d1",
        "        for _ in range(hi - lo + 1):",
        "            counts[q] = get(q, 0) + w",
        "            q += dq",
        "            dq += a2",
        "    return counts",
    ]
    return "\n".join(lines) + "\n"


_HELPERS = {"isqrt": isqrt, "lcm": lcm, "leading_minors": leading_minors}
_RUNS = _Kernels("shortvec.runs", lambda n: _walk_source(n, "runs"), _HELPERS)
_COUNTS = _Kernels("shortvec.counts", lambda n: _walk_source(n, "counts"), _HELPERS)


def _runs(g: list[list[int]], bound: int) -> list[tuple[tuple[int, ...], int, int, int, int]]:
    """The runs of the nonzero x with Q(x) <= bound for an integer Gram g, in walk order.

    Each run is (tail, lo, hi, b, rest): tail = (x_1, ..., x_{n-1}) is
    fixed, and x = (x_0,) + tail for x_0 in [lo, hi] are exactly the vectors
    with that tail and Q(x) <= bound, where Q(x) = g00*x_0^2 + b*x_0 + rest.
    Of each pair {x, -x} only the one whose last nonzero coordinate is
    positive is walked.  Tails come in lexicographic order of
    (x_{n-1}, ..., x_1).  Raises ValueError if g is not symmetric, has an
    entry that is not an int or is not positive definite.
    """
    return _RUNS[len(g)](g, bound)


def iter_short_vectors(gram, bound) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (x, Q(x)) over nonzero integer x with 0 <= Q(x) <= bound.

    Exactly one of each pair {x, -x} is produced: the one whose highest
    indexed nonzero coordinate is positive, in the order of the runs of
    _runs.  Raises ValueError as _runs does.
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
    and a later run of it has no value that is not already a key.  Raises
    ValueError as _runs does.
    """
    b = floor(bound)
    if b < 0:
        return {}
    return _COUNTS[len(gram)](gram, b)


def exists_value(gram, value) -> bool:
    """Whether some integer vector has Q(x) exactly equal to value.

    Q only takes int values, so this is False for a value that is not an
    integer.  No library path calls it; perfbench's tracer still wraps it.
    """
    return value == 0 if value <= 0 else value in vector_counts(gram, value)
