"""Primality, prime ranges and factorisation of the small integers the pipeline meets.

The pipeline asks three things of elementary number theory: whether a level's
prime, a Hecke degree or ell is prime, the primes of a square-free level or
of a discriminant, and the primes up to a Sturm or count bound.  All are
exact and deterministic; no answer is probabilistic.

isprime reads a sieve below _TABLE and runs the Miller-Rabin test to the 13
prime bases 2, 3, ..., 41 above it, which no composite below
_MILLER_RABIN_LIMIT passes (Sorenson and Webster, Math. Comp. 86 (2017),
where that limit is psi_13; psi_12 = 318665857834031151167461 passes the
twelve bases up to 37).  At or above the limit it raises ValueError.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt
from operator import index

# isprime reads the sieve below this; the sieve starts at this size
_TABLE = 1 << 16
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13: the least composite that passes the Miller-Rabin test to all of _BASES
_MILLER_RABIN_LIMIT = 3317044064679887385961981

# _sieve[n] is 1 exactly when n is prime, for n < len(_sieve); built on first use
_sieve = bytearray()


def _sieve_to(limit: int) -> bytearray:
    """The sieve, first grown to max(limit, _TABLE) entries if it has fewer than limit."""
    global _sieve
    sieve = _sieve
    if limit > len(sieve):
        size = max(limit, _TABLE)
        sieve = bytearray([1]) * size
        sieve[:2] = b"\0\0"
        for p in range(2, isqrt(size - 1) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, size, p)))
        _sieve = sieve
    return sieve


def _passes(n: int, base: int, d: int, s: int) -> bool:
    """Whether odd n, with n - 1 = d * 2^s and d odd, is a strong probable prime to base."""
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def isprime(n: int) -> bool:
    """Whether the integer n is prime; ValueError at n >= _MILLER_RABIN_LIMIT."""
    n = index(n)
    if n < _TABLE:
        return n > 1 and bool(_sieve_to(_TABLE)[n])
    if n >= _MILLER_RABIN_LIMIT:
        raise ValueError(f"isprime is exact only below {_MILLER_RABIN_LIMIT}, got {n}")
    if n % 2 == 0:
        return False
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    return all(_passes(n, base, d, s) for base in _BASES)


def primerange(a: int, b: int) -> list[int]:
    """The primes p with a <= p < b, in increasing order."""
    lo, b = max(index(a), 2), index(b)
    if lo >= b:
        return []
    return list(compress(range(lo, b), _sieve_to(b)[lo:b]))


def factorint(n: int) -> dict[int, int]:
    """{p: e} with n = prod p^e, in increasing p, for n >= 1; by trial division.

    isprime is asked at entry and after each prime is divided out, never per
    trial divisor: a prime cofactor is the last factor, so the division
    stops there.  A cofactor at or above _MILLER_RABIN_LIMIT is not asked,
    and trial division goes on until it falls below.
    """
    n = index(n)
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    out = {}
    p = 2
    done = n < _MILLER_RABIN_LIMIT and isprime(n)
    while not done and p * p <= n:
        if n % p == 0:
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
            done = n < _MILLER_RABIN_LIMIT and isprime(n)
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out
