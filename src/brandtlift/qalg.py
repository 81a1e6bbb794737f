"""Definite rational quaternion algebras (a, b | Q) and their local invariants.

An algebra is presented by two negative integers a, b with i^2 = a, j^2 = b
and k = ij = -ji.  The presentation holds the one product formula and the
one trace pairing, both on bare coordinate 4-tuples, so integer lattice
rows multiply without Fractions; elements carry exact rational coordinates
and call the same two.  Local behaviour is read off Hilbert symbols: at an
odd prime by the Legendre symbol formula, at 2 by Serre's closed form in
the 2-adic valuations and the unit parts mod 8 (A Course in Arithmetic,
III.1.2), and at the real place by the signs of a, b.
choose_presentation searches for the smallest pair whose finite ramified
set is exactly one given prime, skipping the pairs that split at it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .primes import factorint, isprime

Rational = int | Fraction


def _squarefree_core(x: Rational) -> int:
    """Integer representing x up to nonzero rational squares."""
    if x == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    return x.numerator * x.denominator


def _legendre(u: int, p: int) -> int:
    s = pow(u % p, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def _split(n: int, p: int) -> tuple[int, int]:
    """(v_p(n), n / p^v_p(n)) for a nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _hilbert_odd(a: int, b: int, p: int) -> int:
    alpha, u = _split(a, p)
    beta, v = _split(b, p)
    sign = -1 if alpha % 2 and beta % 2 and p % 4 == 3 else 1
    if beta % 2:
        sign *= _legendre(u, p)
    if alpha % 2:
        sign *= _legendre(v, p)
    return sign


def _hilbert_two(a: int, b: int) -> int:
    # (-1)^(eps(u) eps(v) + alpha omega(v) + beta omega(u)) for a = 2^alpha u,
    # b = 2^beta v, with eps(w) = (w - 1)/2 and omega(w) = (w^2 - 1)/8 mod 2
    alpha, u = _split(a, 2)
    beta, v = _split(b, 2)
    eps_u, eps_v = (u - 1) // 2, (v - 1) // 2
    omega_u, omega_v = (u * u - 1) // 8, (v * v - 1) // 8
    return -1 if (eps_u * eps_v + alpha * omega_v + beta * omega_u) % 2 else 1


def hilbert_symbol(a: Rational, b: Rational, place) -> int:
    """Hilbert symbol (a, b) at a finite prime or at the real place "inf".

    Returns +1 when z^2 = a x^2 + b y^2 has a nontrivial solution over the
    completion at the given place and -1 otherwise.
    """
    na, nb = _squarefree_core(a), _squarefree_core(b)
    if place == "inf":
        return -1 if na < 0 and nb < 0 else 1
    p = int(place)
    if not isprime(p):
        raise ValueError(f"place must be a prime or 'inf', got {place!r}")
    if p == 2:
        return _hilbert_two(na, nb)
    return _hilbert_odd(na, nb, p)


def finite_ramified_primes(a: Rational, b: Rational) -> list[int]:
    """Sorted finite primes where the algebra (a, b | Q) is division."""
    na, nb = _squarefree_core(a), _squarefree_core(b)
    candidates = sorted(factorint(abs(2 * na * nb)).keys())
    return [p for p in candidates if hilbert_symbol(na, nb, p) == -1]


@dataclass(frozen=True)
class AlgebraPresentation:
    """Definite quaternion algebra with i^2 = a, j^2 = b, both negative."""

    a: int
    b: int

    def __post_init__(self):
        if self.a >= 0 or self.b >= 0:
            raise ValueError("both defining constants must be negative")

    def element(self, t, x, y, z) -> "QuaternionElement":
        return QuaternionElement(self, (Fraction(t), Fraction(x), Fraction(y), Fraction(z)))

    def one(self) -> "QuaternionElement":
        return self.element(1, 0, 0, 0)

    def basis(self) -> tuple["QuaternionElement", ...]:
        """The standard generators 1, i, j, k."""
        return (
            self.element(1, 0, 0, 0),
            self.element(0, 1, 0, 0),
            self.element(0, 0, 1, 0),
            self.element(0, 0, 0, 1),
        )

    def mul(self, u, v) -> tuple:
        """Product of two coordinate 4-tuples over 1, i, j, k; ints stay ints."""
        a, b = self.a, self.b
        t1, x1, y1, z1 = u
        t2, x2, y2, z2 = v
        return (
            t1 * t2 + a * x1 * x2 + b * y1 * y2 - a * b * z1 * z2,
            t1 * x2 + x1 * t2 - b * y1 * z2 + b * z1 * y2,
            t1 * y2 + y1 * t2 + a * x1 * z2 - a * z1 * x2,
            t1 * z2 + x1 * y2 - y1 * x2 + z1 * t2,
        )

    def trace_pairing(self, u, v):
        """tr(u conj(v)) for two coordinate 4-tuples; twice the reduced norm when u = v."""
        a, b = self.a, self.b
        return 2 * (u[0] * v[0] - a * u[1] * v[1] - b * u[2] * v[2] + a * b * u[3] * v[3])


@dataclass(frozen=True)
class QuaternionElement:
    """Element t + x i + y j + z k with exact rational coordinates."""

    alg: AlgebraPresentation
    coeffs: tuple[Fraction, Fraction, Fraction, Fraction]

    def _wrap(self, coeffs) -> "QuaternionElement":
        return QuaternionElement(self.alg, tuple(coeffs))

    def __add__(self, other: "QuaternionElement") -> "QuaternionElement":
        if self.alg != other.alg:
            raise ValueError("elements of two different algebras")
        return self._wrap(s + o for s, o in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "QuaternionElement") -> "QuaternionElement":
        if self.alg != other.alg:
            raise ValueError("elements of two different algebras")
        return self._wrap(s - o for s, o in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> "QuaternionElement":
        return self._wrap(-s for s in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, QuaternionElement):
            if self.alg != other.alg:
                raise ValueError("elements of two different algebras")
            return self._wrap(self.alg.mul(self.coeffs, other.coeffs))
        return self._wrap(s * Fraction(other) for s in self.coeffs)

    def __rmul__(self, other) -> "QuaternionElement":
        # scalars commute with everything
        return self._wrap(Fraction(other) * s for s in self.coeffs)

    def __truediv__(self, scalar) -> "QuaternionElement":
        return self._wrap(s / Fraction(scalar) for s in self.coeffs)

    def conjugate(self) -> "QuaternionElement":
        t, x, y, z = self.coeffs
        return self._wrap((t, -x, -y, -z))

    def trace(self) -> Fraction:
        return 2 * self.coeffs[0]

    def norm(self) -> Fraction:
        return self.alg.trace_pairing(self.coeffs, self.coeffs) / 2

    def inverse(self) -> "QuaternionElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return self.conjugate() / n


def certify_presentation(a: int, b: int, q: int) -> bool:
    """Check that (a, b | Q) is definite and ramified exactly at the prime q and infinity.

    Most candidates split at q, and one Hilbert symbol rejects them before
    2ab is factored for the full ramified set.  Like hilbert_symbol, this
    raises ValueError when q is not prime.
    """
    if a >= 0 or b >= 0 or hilbert_symbol(a, b, q) != -1:
        return False
    return finite_ramified_primes(a, b) == [q]


def _candidate_sizes(q: int, s: int):
    """Ascending |a| of the pairs (-|a|, |a| - s) that can ramify at the prime q."""
    if q == 2:
        return range(1, s)
    # at an odd q, (a, b)_q = 1 unless q divides a or b
    return sorted({*range(q, s, q), *range(s % q or q, s, q)})


def choose_presentation(q: int) -> AlgebraPresentation:
    """Smallest definite presentation ramified exactly at the prime q.

    Pairs are scanned by increasing |a| + |b|, then by increasing |a|, and
    each candidate is certified through its Hilbert symbols, so the result
    is deterministic.  At an odd q a pair can ramify at q only when q
    divides a or b, so the scan starts at |a| + |b| = q + 1 and visits only
    those pairs: O(q) candidates instead of O(q^2).
    """
    if not isprime(q):
        raise ValueError(f"q must be prime, got {q}")
    for s in count(2 if q == 2 else q + 1):
        if s > 8 * q + 64:
            raise RuntimeError(f"no presentation found for q={q} within search bound")
        for na in _candidate_sizes(q, s):
            a, b = -na, -(s - na)
            if certify_presentation(a, b, q):
                return AlgebraPresentation(a, b)
    raise AssertionError("unreachable")
