"""Weight-3/2 lifts: weighted sums of class theta series.

The lift of a vector phi on the class set is sum(phi_i * theta_i), taken
with exact integer coefficients.  theta_i depends only on the type of class
i (the canonical Gram of its ternary lattice), so lift_eigenforms adds up
the entries of phi over each type and sums one series per type.  Because
eigenvectors are only defined up to scale, the module also provides the
unit rescaling mod ell that aligns two congruent eigenvectors entrywise,
which is how printed data and pairing values at a fixed normalization are
reproduced.  lift_eigenforms chains the two: eigendata to eigenvectors, the
pair aligned mod ell, then the lifts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import primitive_vector
from .primes import isprime
from .theta import QSeries, TernaryLattice, _integral, theta_series


@dataclass(frozen=True)
class LiftResult:
    """A computed lift: the series and the exact vector used."""

    series: QSeries
    phi: tuple[int, ...]

    def metadata(self, N: int, q: int, M: int, eigendata, sign_convention: str) -> dict:
        return {
            "N": N,
            "q": q,
            "M": M,
            "eigendata": [[p, a] for p, a in eigendata],
            "phi": list(self.phi),
            "sign_convention": sign_convention,
        }


def normalize_phi(phi) -> list[int]:
    """Clear denominators and content; first nonzero entry positive."""
    return primitive_vector(list(phi))


def waldspurger_lift(phi, thetas: list[QSeries]) -> LiftResult:
    """Exact linear combination sum(phi_i * theta_i).

    phi must be integral, a ValueError otherwise; the truncation bound of
    the result is the minimum of the input bounds.  Permuting
    (phi_i, theta_i) pairs jointly leaves the output unchanged.  A zero
    entry's series is not read.
    """
    if len(phi) != len(thetas):
        raise ValueError(f"phi has {len(phi)} entries but there are {len(thetas)} theta series")
    ints = [_integral(x, "phi entry") for x in phi]
    bound = min((t.bound for t in thetas), default=0)
    # one pass over each series' coefficients; QSeries drops zeros and n > bound
    acc: dict[int, int] = {}
    get = acc.get
    for c, t in zip(ints, thetas):
        if c:
            for n, a in t.coeffs.items():
                acc[n] = get(n, 0) + c * a
    return LiftResult(series=QSeries(bound, acc), phi=tuple(ints))


def _require_prime_ell(ell: int) -> None:
    """ValueError unless ell is prime: every congruence check mod ell asks this first."""
    if not isprime(ell):
        raise ValueError(f"ell must be prime, got {ell}")


def scale_congruent_pair(phi_f, phi_g, ell: int) -> tuple[list[int], list[int], int | None]:
    """Rescale phi_g by the unit making it congruent to phi_f mod ell.

    Searches signed multipliers c of least absolute value (positive first)
    with phi_f = c * phi_g entrywise mod ell, and returns
    (phi_f, c * phi_g, c).  When no unit works the vectors come back
    unchanged with c = None.  ell must be prime and the entries integral:
    anything else is a ValueError, not truncated.  This realizes the
    rescaling-by-a-unit step that fixes a common normalization for a
    congruent pair.
    """
    _require_prime_ell(ell)
    if len(phi_f) != len(phi_g):
        raise ValueError("vectors must have equal length")
    f = [_integral(x, "phi_f entry") for x in phi_f]
    g = [_integral(x, "phi_g entry") for x in phi_g]
    for size in range(1, (ell + 1) // 2 + 1):
        for c in (size, -size):
            if all((a - c * b) % ell == 0 for a, b in zip(f, g)):
                return f, [c * b for b in g], c
    return f, g, None


def lift_eigenforms(
    module, eigendata: dict, bound: int, ell: int | None = None
) -> tuple[dict[str, LiftResult], int | None]:
    """Lift the eigenforms cut out by eigendata {"f": pairs, "g": pairs}.

    Each name gets the primitive eigenvector of its (p, a_p) pairs.  With
    ell given and both forms present, g is rescaled by the unit c of
    scale_congruent_pair.  Each eigenvector's entries are added up over
    each type, the canonical Gram that ClassSet keeps for each class, and
    its lift is waldspurger_lift of those sums against one theta series per
    type, built once to the given bound.  A type whose entries sum to 0 in
    every eigenvector is not enumerated: it gets the empty series, which
    waldspurger_lift skips.  Each LiftResult keeps the class vector phi.
    Returns ({name: LiftResult}, c), with c None when nothing was rescaled.
    """
    # the largest degree of either form first: one count pass serves both
    degrees = [p for data in eigendata.values() for p, _ in data]
    if degrees:
        module.brandt_matrix(max(degrees))
    phis = {name: module.eigenvector(data) for name, data in sorted(eigendata.items())}
    c = None
    if ell is not None and "f" in phis and "g" in phis:
        _, phis["g"], c = scale_congruent_pair(phis["f"], phis["g"], ell)
    # the entries of each phi summed over each type, in first-seen order
    sums: dict[tuple, list[int]] = {}
    for gram, *entries in zip(module.classes._types, *phis.values()):
        sums[gram] = [a + x for a, x in zip(sums.get(gram, [0] * len(entries)), entries)]
    # a type that sums to 0 in every phi adds nothing to any lift
    thetas = [theta_series(TernaryLattice(gram), bound) if any(s) else QSeries(bound) for gram, s in sums.items()]
    return {
        name: LiftResult(waldspurger_lift(column, thetas).series, tuple(phi))
        for (name, phi), column in zip(phis.items(), zip(*sums.values()))
    }, c
