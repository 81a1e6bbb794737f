"""Weight-3/2 lifts: weighted sums of class theta series.

The lift of a vector phi on the class set is sum(phi_i * theta_i), taken
with exact integer coefficients.  theta_i depends only on the type of class
i (the canonical Gram of its ternary lattice), so each type's series is
built once and shared, and the entries of phi on one series are added up
before its coefficients are read.  Because eigenvectors are only defined up
to scale, the module also provides the unit rescaling mod ell that aligns
two congruent eigenvectors entrywise, which is how printed data and pairing
values at a fixed normalization are reproduced.  lift_eigenforms chains the
two: eigendata to eigenvectors, the pair aligned mod ell, then the lifts.
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
    (phi_i, theta_i) pairs jointly leaves the output unchanged.  Entries
    whose series are one and the same object are added up first, so each
    distinct series is read once.
    """
    if len(phi) != len(thetas):
        raise ValueError(f"phi has {len(phi)} entries but there are {len(thetas)} theta series")
    ints = [_integral(x, "phi entry") for x in phi]
    bound = min((t.bound for t in thetas), default=0)
    # the summed entry of each distinct series object, in first-seen order
    shared: dict[int, list] = {}
    for c, t in zip(ints, thetas):
        shared.setdefault(id(t), [0, t])[0] += c
    # one pass over each series' coefficients; QSeries drops zeros and n > bound
    acc: dict[int, int] = {}
    get = acc.get
    for c, t in shared.values():
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
    scale_congruent_pair.  The theta series are built once per type, to
    the given bound, on the canonical Gram that ClassSet keeps for each
    class, and every class of a type gets that same QSeries.  A type
    whose entries sum to 0 in every eigenvector is not enumerated: its
    classes share one empty QSeries, which waldspurger_lift skips as it
    skips any zero sum.  Returns ({name: LiftResult}, c), with c None when
    nothing was rescaled.
    """
    # the largest degree of either form first: one count pass serves both
    degrees = [p for data in eigendata.values() for p, _ in data]
    if degrees:
        module.brandt_matrix(max(degrees))
    phis = {name: module.eigenvector(data) for name, data in sorted(eigendata.items())}
    c = None
    if ell is not None and "f" in phis and "g" in phis:
        _, phis["g"], c = scale_congruent_pair(phis["f"], phis["g"], ell)
    types = module.classes._types
    # the entries of each phi summed over each type, in first-seen order
    sums: dict[tuple, list[int]] = {}
    for gram, *entries in zip(types, *phis.values()):
        acc = sums.setdefault(gram, [0] * len(entries))
        for n, x in enumerate(entries):
            acc[n] += x
    # a type that sums to 0 in every phi adds nothing to any lift
    empty = QSeries(bound)
    by_type = {
        gram: theta_series(TernaryLattice(gram), bound) if any(s) else empty
        for gram, s in sums.items()
    }
    thetas = [by_type[gram] for gram in types]
    return {name: waldspurger_lift(phi, thetas) for name, phi in phis.items()}, c
