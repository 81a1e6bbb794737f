"""Congruence verification between two eigenforms and their lifts.

Checks run at desk scale with exact arithmetic: eigenvalue agreement mod ell
for every prime up to the Sturm bound, coefficientwise lift congruence with
a unit multiplier, divisibility of the pairing norms, the hypothesis flags
of the underlying theorem, and the irreducibility heuristic.  Everything a
verdict depends on is recorded in the report.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction

from .brandt import BrandtModule
from .lift import LiftResult, _require_prime_ell, lift_eigenforms
from .linalg import primitive_vector
from .primes import factorint, primerange


def sturm_bound(k: int, N: int) -> int:
    """ceil((k*N/12) * prod_{p|N} (1 + 1/p)) for square-free N."""
    val = Fraction(k * N, 12)
    for p in factorint(N):
        val *= Fraction(p + 1, p)
    return -(-val.numerator // val.denominator)


@dataclass(frozen=True)
class EigenvalueVerdict:
    ok: bool
    first_failing_prime: int | None
    compared_primes: tuple[int, ...]


@dataclass(frozen=True)
class LiftVerdict:
    ok: bool
    witness_c: int | None
    first_failing_exponent: int | None
    all_zero_mod_ell: bool


@dataclass(frozen=True)
class HypothesisFlags:
    ell_gt_2: bool
    coprime_or_ramified: bool

    @property
    def ok(self) -> bool:
        return self.ell_gt_2 and self.coprime_or_ramified


@dataclass(frozen=True)
class IrreducibilityVerdict:
    ok: bool
    witness_prime: int | None


def check_eigenvalue_congruence(module: BrandtModule, phi_f, phi_g, ell: int) -> EigenvalueVerdict:
    """Compare eigenvalues of the two vectors mod ell for p up to Sturm."""
    _require_prime_ell(ell)
    primes = tuple(primerange(2, sturm_bound(2, module.level) + 1))
    af, ag = module.eigenvalues(phi_f, primes), module.eigenvalues(phi_g, primes)
    first = next((p for p in primes if (af[p] - ag[p]) % ell), None)
    return EigenvalueVerdict(first is None, first, primes)


def check_lift_congruence(wf, wg, ell: int) -> LiftVerdict:
    """Search units c mod ell with a(wf, n) = c * a(wg, n) mod ell for all n.

    Accepts LiftResult or bare QSeries inputs of equal truncation bound.
    On failure the exponent reported is the first disagreement at c = 1.
    The all-zero flag marks the degenerate case where both series vanish
    identically mod ell, making the congruence trivially 0 = 0.
    """
    _require_prime_ell(ell)
    sf = wf.series if isinstance(wf, LiftResult) else wf
    sg = wg.series if isinstance(wg, LiftResult) else wg
    if sf.bound != sg.bound:
        raise ValueError(f"truncation bounds differ: {sf.bound} != {sg.bound}")
    # an n outside both supports reads 0 = c * 0: only the union can fail
    ns = sorted(sf.coeffs.keys() | sg.coeffs.keys())
    pairs = [(sf.coeffs.get(n, 0), sg.coeffs.get(n, 0)) for n in ns]
    all_zero = all(x % ell == 0 and y % ell == 0 for x, y in pairs)
    for c in range(1, ell):
        if all((x - c * y) % ell == 0 for x, y in pairs):
            return LiftVerdict(True, c, None, all_zero)
    first = next(n for n, (x, y) in zip(ns, pairs) if (x - y) % ell)
    return LiftVerdict(False, None, first, all_zero)


def check_norm_divisibility(module: BrandtModule, phi, ell: int) -> bool:
    _require_prime_ell(ell)
    return module.pairing(phi, phi) % ell == 0


def check_hypotheses(N: int, q: int, ell: int) -> HypothesisFlags:
    """The theorem's conditions on ell: ell > 2, and ell coprime to N(q-1) or ell = q."""
    return HypothesisFlags(ell > 2, (N * (q - 1)) % ell != 0 or ell == q)


def irreducibility_heuristic(module: BrandtModule, phi, ell: int, bound: int) -> IrreducibilityVerdict:
    """Certified irreducible iff some a_p with p coprime to ell*N avoids 1+p mod ell.

    a_p is read at every prime p <= bound, so the rows read are counted
    once, to the largest of them; the scan skips the primes dividing ell*N.
    """
    _require_prime_ell(ell)
    a = module.eigenvalues(phi, primerange(2, bound + 1))
    witness = next((p for p in a if (ell * module.level) % p and (a[p] - (1 + p)) % ell), None)
    return IrreducibilityVerdict(witness is not None, witness)


@dataclass(frozen=True)
class CongruenceReport:
    N: int
    q: int
    M: int
    ell: int
    bound: int
    sturm: int
    phi_f: tuple[int, ...]
    phi_g: tuple[int, ...]
    phi_scale_witness: int | None
    eigenvalue_check: EigenvalueVerdict
    lift_check: LiftVerdict
    norm_divisibility: tuple[bool, bool]
    hypothesis_flags: HypothesisFlags
    irreducibility_f: IrreducibilityVerdict
    irreducibility_g: IrreducibilityVerdict

    @property
    def ok(self) -> bool:
        """Verdict for the exit code: the congruence checks themselves."""
        return (
            self.eigenvalue_check.ok
            and self.lift_check.ok
            and all(self.norm_divisibility)
        )

    def to_json_dict(self) -> dict:
        """The report's fields, each verdict as its own fields (dataclasses.asdict).

        Only what the report renames, reshapes or drops is spelled out here:
        sturm as sturm_bound, the norm pair as f and g, the hypothesis flags
        with their derived ok, and eigenvalue_check without compared_primes,
        which only to_text reads.
        """
        out = asdict(self)
        del out["eigenvalue_check"]["compared_primes"]
        out["sturm_bound"] = out.pop("sturm")
        out["phi_f"], out["phi_g"] = list(self.phi_f), list(self.phi_g)
        out["norm_divisibility"] = dict(zip("fg", self.norm_divisibility))
        out["hypotheses"] = {**out.pop("hypothesis_flags"), "ok": self.hypothesis_flags.ok}
        out["irreducibility"] = {"f": out.pop("irreducibility_f"), "g": out.pop("irreducibility_g")}
        out["ok"] = self.ok
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        ev, lc = self.eigenvalue_check, self.lift_check
        lines = [
            f"N={self.N} (q={self.q}, M={self.M})  ell={self.ell}  sturm bound={self.sturm}",
            f"phi_f = {list(self.phi_f)}",
            f"phi_g = {list(self.phi_g)}",
            f"phi scale witness: {self.phi_scale_witness}",
            "eigenvalue congruence: "
            + ("pass" if ev.ok else f"FAIL at p={ev.first_failing_prime}")
            + f" ({len(ev.compared_primes)} primes up to {self.sturm})",
            "lift congruence:       "
            + (f"pass with witness c={lc.witness_c}" if lc.ok else f"FAIL first at n={lc.first_failing_exponent}")
            + (" [all coefficients zero mod ell]" if lc.all_zero_mod_ell else ""),
            f"norm divisibility:     ell | <f,f>: {self.norm_divisibility[0]}, ell | <g,g>: {self.norm_divisibility[1]}",
            "hypotheses:            "
            + ("hold" if self.hypothesis_flags.ok else "FAIL")
            + f" (ell>2: {self.hypothesis_flags.ell_gt_2},"
            + f" ell coprime to N(q-1) or ell=q: {self.hypothesis_flags.coprime_or_ramified})",
            f"irreducibility (f):    "
            + (f"certified via p={self.irreducibility_f.witness_prime}" if self.irreducibility_f.ok else "not certified"),
            f"irreducibility (g):    "
            + (f"certified via p={self.irreducibility_g.witness_prime}" if self.irreducibility_g.ok else "not certified"),
            "verdict:               " + ("pass" if self.ok else "FAIL")
            + (" (congruence observed but outside the theorem's hypotheses)"
               if self.ok and not self.hypothesis_flags.ok else ""),
        ]
        return "\n".join(lines) + "\n"


def run_congruence_checks(
    module: BrandtModule,
    eigendata_f,
    eigendata_g,
    ell: int,
    bound: int = 100,
) -> CongruenceReport:
    """Full pipeline: eigenvectors, lifts, and every check, in one report."""
    _require_prime_ell(ell)
    classes = module.classes
    sturm = sturm_bound(2, module.level)
    irr_bound = max(sturm, 20)
    lifts, c_phi = lift_eigenforms(module, {"f": eigendata_f, "g": eigendata_g}, bound, ell)
    wf, wg = lifts["f"], lifts["g"]
    # g carries the unit c_phi; eigenvalues do not see the scaling
    phi_f, phi_g = wf.phi, wg.phi
    if primitive_vector(phi_f) == primitive_vector(phi_g):
        raise ValueError("the eigendata of f and g cut out the same eigenline")
    # the irreducibility scans read up to max(sturm, 20): run first, they
    # count the rows that the Sturm-bound check then reads again
    irreducibility_f = irreducibility_heuristic(module, phi_f, ell, irr_bound)
    irreducibility_g = irreducibility_heuristic(module, phi_g, ell, irr_bound)
    return CongruenceReport(
        N=module.level,
        q=classes.q,
        M=classes.M,
        ell=ell,
        bound=bound,
        sturm=sturm,
        phi_f=phi_f,
        phi_g=phi_g,
        phi_scale_witness=c_phi,
        eigenvalue_check=check_eigenvalue_congruence(module, phi_f, phi_g, ell),
        lift_check=check_lift_congruence(wf, wg, ell),
        norm_divisibility=(
            check_norm_divisibility(module, phi_f, ell),
            check_norm_divisibility(module, phi_g, ell),
        ),
        hypothesis_flags=check_hypotheses(module.level, classes.q, ell),
        irreducibility_f=irreducibility_f,
        irreducibility_g=irreducibility_g,
    )
