import random
from fractions import Fraction
from functools import lru_cache
from itertools import count

import pytest
from sympy import primerange

from brandtlift.qalg import (
    AlgebraPresentation,
    certify_presentation,
    choose_presentation,
    finite_ramified_primes,
    hilbert_symbol,
)


# independent route: primitive solvability of z^2 = a x^2 + b y^2 mod 64,
# which decides the 2-adic symbol (the library uses the closed formula)
_SQ64 = {(z * z) % 64 for z in range(64)}
_SQ64_ODD = {(z * z) % 64 for z in range(1, 64, 2)}


def _reduce_dyadic(n):
    # strip square powers of 2, then shrink the odd part mod 64; both moves
    # multiply by a 2-adic square so the symbol is unchanged
    alpha = 0
    while n % 2 == 0:
        n //= 2
        alpha ^= 1
    return (2 if alpha else 1) * (n % 64)


@lru_cache(maxsize=None)
def _search_reduced(aa, bb):
    for x in range(64):
        for y in range(64):
            w = (aa * x * x + bb * y * y) % 64
            if x % 2 or y % 2:
                if w in _SQ64:
                    return 1
            elif w in _SQ64_ODD:
                # x, y both even forces z odd in a primitive solution
                return 1
    return -1


def hilbert_two_search(a, b):
    return _search_reduced(_reduce_dyadic(a), _reduce_dyadic(b))


def random_element(rng, alg):
    return alg.element(
        *(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4))
    )


def test_generator_relations():
    for a, b in [(-1, -1), (-1, -3), (-3, -17), (-2, -5)]:
        alg = AlgebraPresentation(a, b)
        one, i, j, k = alg.basis()
        assert i * i == a * one
        assert j * j == b * one
        assert i * j == k
        assert j * i == -k
        assert i * k == a * j
        assert k * i == -a * j
        assert j * k == -b * i
        assert k * k == (-a * b) * one


def test_presentation_rejects_nonnegative():
    with pytest.raises(ValueError):
        AlgebraPresentation(1, -1)
    with pytest.raises(ValueError):
        AlgebraPresentation(-1, 0)


def test_ring_axioms_random():
    rng = random.Random(41)
    alg = AlgebraPresentation(-3, -17)
    for _ in range(25):
        x, y, z = (random_element(rng, alg) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z


def test_norm_and_conjugation():
    rng = random.Random(43)
    for a, b in [(-1, -1), (-1, -3), (-3, -17)]:
        alg = AlgebraPresentation(a, b)
        one = alg.one()
        for _ in range(20):
            x, y = random_element(rng, alg), random_element(rng, alg)
            assert x.norm() * y.norm() == (x * y).norm()
            assert (x * y).conjugate() == y.conjugate() * x.conjugate()
            assert x * x.conjugate() == x.norm() * one
            assert (x + x.conjugate()) == x.trace() * one
            # trace pairing recovers the polarization of the norm form
            assert (x * y.conjugate()).trace() == (x + y).norm() - x.norm() - y.norm()
            if any(x.coeffs):
                assert x * x.inverse() == one


def test_hilbert_known_values():
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, "inf") == -1
    assert hilbert_symbol(-1, -1, 3) == 1
    assert hilbert_symbol(-1, -1, 5) == 1
    assert hilbert_symbol(-1, -17, 17) == 1
    assert hilbert_symbol(-1, -17, 2) == -1
    assert hilbert_symbol(-3, -17, 17) == -1
    assert hilbert_symbol(-3, -17, 3) == 1
    assert hilbert_symbol(-3, -17, 2) == 1
    assert hilbert_symbol(1, -1, "inf") == 1
    assert hilbert_symbol(2, 3, 2) == -1
    assert hilbert_symbol(2, 7, 2) == 1


def test_hilbert_two_against_formula():
    rng = random.Random(47)
    for _ in range(200):
        a = rng.randint(-200, 200)
        b = rng.randint(-200, 200)
        if a == 0 or b == 0:
            continue
        assert hilbert_symbol(a, b, 2) == hilbert_two_search(a, b)
    for a in range(-400, 401):
        for b in range(-120, 121):
            if a and b:
                assert hilbert_symbol(a, b, 2) == hilbert_two_search(a, b), (a, b)


def test_hilbert_rational_arguments():
    assert hilbert_symbol(Fraction(-1, 4), -1, 2) == -1
    assert hilbert_symbol(Fraction(-9, 17), Fraction(-17, 25), 17) == hilbert_symbol(
        -17, -17, 17
    )


def test_hilbert_multiplicative():
    rng = random.Random(53)
    for p in (2, 3, 5, 7, "inf"):
        for _ in range(60):
            a = rng.randint(-50, 50) or 1
            b1 = rng.randint(-50, 50) or 1
            b2 = rng.randint(-50, 50) or 1
            lhs = hilbert_symbol(a, b1 * b2, p)
            rhs = hilbert_symbol(a, b1, p) * hilbert_symbol(a, b2, p)
            assert lhs == rhs


def test_hilbert_product_formula():
    rng = random.Random(59)
    for _ in range(60):
        a = rng.randint(-80, 80) or 1
        b = rng.randint(-80, 80) or 1
        prod = hilbert_symbol(a, b, "inf")
        for p in sorted(set(__import__("sympy").factorint(abs(2 * a * b)).keys())):
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1


def test_hilbert_rejects_bad_input():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 1, 2)
    # the primality of a place is memoized: a repeated bad place is rejected again
    for _ in range(2):
        with pytest.raises(ValueError):
            hilbert_symbol(1, 1, 6)


def test_choose_presentation_small_primes():
    assert choose_presentation(2) == AlgebraPresentation(-1, -1)
    assert choose_presentation(3) == AlgebraPresentation(-1, -3)
    assert choose_presentation(17) == AlgebraPresentation(-3, -17)


def test_choose_presentation_certifies():
    for q in (2, 3, 5, 7, 11, 13, 17, 29):
        pres = choose_presentation(q)
        assert certify_presentation(pres.a, pres.b, q)
        assert finite_ramified_primes(pres.a, pres.b) == [q]


def _full_scan(q):
    """First pair of the full scan by (|a| + |b|, |a|) whose finite ramified set is [q].

    finite_ramified_primes looks only at the primes dividing 2ab, so testing
    q | 2ab first leaves the answer as it is and keeps the scan fast.
    """
    for s in count(2):
        for na in range(1, s):
            if q == 2 or na % q == 0 or (s - na) % q == 0:
                if finite_ramified_primes(-na, na - s) == [q]:
                    return AlgebraPresentation(-na, na - s)


def test_choose_presentation_matches_the_full_scan():
    for q in primerange(2, 500):
        assert choose_presentation(q) == _full_scan(q), q


def test_choose_presentation_rejects_composite():
    with pytest.raises(ValueError):
        choose_presentation(4)


def test_naive_pair_for_17_is_wrong():
    # (-1, -17) ramifies at 2, not at 17, so certification must reject it
    assert not certify_presentation(-1, -17, 17)
    assert finite_ramified_primes(-1, -17) == [2]


def test_certify_presentation_matches_the_ramified_set():
    # the Hilbert-symbol reject at q must not change any verdict
    ramified = {(a, b): finite_ramified_primes(a, b) for a in range(-60, 0) for b in range(-60, 0)}
    for q in (2, 3, 5, 7, 11, 13, 107):
        for (a, b), ram in ramified.items():
            assert certify_presentation(a, b, q) == (ram == [q])
    with pytest.raises(ValueError):
        certify_presentation(-1, -1, 4)


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_elements_of_two_algebras_do_not_combine(op):
    # a ValueError, which python -O keeps: (-1, -1) and (-1, -3) multiply
    # the same coordinates by different rules
    x = AlgebraPresentation(-1, -1).element(1, 2, 3, 4)
    y = AlgebraPresentation(-1, -3).element(1, 2, 3, 4)
    with pytest.raises(ValueError, match="two different algebras"):
        getattr(x, f"__{op}__")(y)
