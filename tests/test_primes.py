"""brandtlift.primes against sympy, the independent reference."""

from math import prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from brandtlift import primes
from brandtlift.primes import factorint, isprime, primerange

# strong pseudoprimes to ever more of the prime bases 2, 3, 5, ...; the last
# passes all twelve up to 37 and needs the thirteenth, 41
STRONG_PSEUDOPRIMES = [
    2047,
    1373653,
    25326001,
    3215031751,
    3825123056546413051,
    318665857834031151167461,
]
# Carmichael numbers, below and above the sieve table
CARMICHAEL = [561, 1105, 41041, 75361, 101101, 825265, 321197185]


@settings(max_examples=200, deadline=None)
@given(st.integers(-10, 10**6))
def test_isprime_matches_sympy(n):
    assert isprime(n) is sympy.isprime(n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6))
def test_factorint_matches_sympy(n):
    fac = factorint(n)
    assert fac == sympy.factorint(n)
    assert list(fac) == sorted(fac)
    assert prod(p**e for p, e in fac.items()) == n


@settings(max_examples=100, deadline=None)
@given(st.integers(-10, 10**6), st.integers(-10, 2000))
def test_primerange_matches_sympy(a, width):
    assert primerange(a, a + width) == list(sympy.primerange(a, a + width))


@pytest.mark.parametrize("p", [2, 3, 251, 65521, 65537, 1000003])
def test_squares_of_primes_are_composite(p):
    assert isprime(p) and not isprime(p * p)
    assert factorint(p * p) == {p: 2}


def test_small_cases():
    assert [isprime(n) for n in (-3, -2, 0, 1, 2, 3, 4)] == [False] * 4 + [True, True, False]
    assert factorint(1) == {} and factorint(2) == {2: 1}
    assert factorint(2 * 3 * 5 * 7 * 11) == {2: 1, 3: 1, 5: 1, 7: 1, 11: 1}


@pytest.mark.parametrize("n", CARMICHAEL + STRONG_PSEUDOPRIMES)
def test_pseudoprimes_are_composite(n):
    assert not sympy.isprime(n)
    assert not isprime(n)


def test_large_primes_and_the_exact_limit():
    assert isprime(2**61 - 1)
    assert not isprime(2**61 + 1)
    limit = primes._MILLER_RABIN_LIMIT
    assert not sympy.isprime(limit)
    assert isprime(limit - 2) is sympy.isprime(limit - 2)
    # above the limit no answer is given, not even for a prime
    for n in (limit, limit + 2, 2**89 - 1):
        with pytest.raises(ValueError, match="exact only below"):
            isprime(n)


def test_isprime_does_not_sieve_to_its_argument(monkeypatch):
    monkeypatch.setattr(primes, "_sieve", bytearray())
    assert isprime(1000003) and isprime(2**61 - 1)
    assert len(primes._sieve) == 0
    assert isprime(65521) and len(primes._sieve) == primes._TABLE


def test_primerange_across_sieve_growth(monkeypatch):
    monkeypatch.setattr(primes, "_sieve", bytearray())
    table = primes._TABLE
    assert primerange(table - 40, table) == list(sympy.primerange(table - 40, table))
    assert len(primes._sieve) == table
    # past its end the sieve grows to the b asked for
    assert primerange(table - 40, table + 40) == list(sympy.primerange(table - 40, table + 40))
    assert len(primes._sieve) == table + 40
    top = 4 * table + 7
    assert primerange(top - 300, top) == list(sympy.primerange(top - 300, top))
    assert primerange(2, 100) == list(sympy.primerange(2, 100))
    assert len(primes._sieve) == top


def test_primerange_edges():
    assert primerange(10, 10) == [] and primerange(20, 10) == []
    assert primerange(-5, 12) == [2, 3, 5, 7, 11]
    assert primerange(0, 3) == [2] and primerange(1, 2) == []
    assert primerange(-10, -1) == []


def test_factorint_rejects_n_below_one():
    for n in (0, -1, -12):
        with pytest.raises(ValueError, match="n >= 1"):
            factorint(n)


def test_factorint_stops_at_a_prime_cofactor(monkeypatch):
    # 3^2 * 100000000000000003: trial division to the square root would take
    # about 1.6 * 10^8 steps; isprime of the cofactor ends it after 3
    assert factorint(900000000000000027) == {3: 2, 100000000000000003: 1}
    assert factorint(100000000000000003) == {100000000000000003: 1}
    # isprime is asked at entry and once per prime divided out, never per divisor
    asked = []
    real = primes.isprime

    def recorded(n):
        asked.append(n)
        return real(n)

    monkeypatch.setattr(primes, "isprime", recorded)
    assert factorint(2**3 * 3 * 7**2 * 1000003) == {2: 3, 3: 1, 7: 2, 1000003: 1}
    assert asked == [2**3 * 3 * 7**2 * 1000003, 3 * 7**2 * 1000003, 7**2 * 1000003, 1000003]


def test_factorint_at_or_above_the_isprime_limit():
    # a cofactor at or above the limit is not asked: trial division goes on
    # until the cofactor falls below it
    assert primes._MILLER_RABIN_LIMIT <= 2**91
    assert factorint(2**100) == {2: 100}
    assert factorint(2**30 * (2**61 - 1)) == {2: 30, 2**61 - 1: 1}
