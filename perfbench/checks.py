"""Output checks, one per job kind, plus the byte digest every job must match.

Each check returns None when the output is right and a one-line reason when
it is not.  The checks use only the job's output bytes and reference data:
the golden lifts under tests/golden, the eigenvalue tables below and
the digests recorded in perfbench/data.  None of them calls brandtlift.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
DIGESTS = DATA / "digests.json"
LIFT222_BOUND99 = DATA / "lift222_bound99.txt"

# Hecke eigenvalues at the good primes p <= 19: the paper's newforms at
# N=170 and N=174, and the elliptic curve 11a at N=11.
TABLES = {
    11: {"f": {2: -2, 3: -1, 5: 1, 7: -2, 13: 4, 17: -2, 19: 0}},
    170: {
        "f": {3: -2, 7: 2, 11: 6, 13: 2, 19: 8},
        "g": {3: 3, 7: 2, 11: -4, 13: -3, 19: 3},
    },
    174: {
        "f": {5: -3, 7: 5, 11: 6, 13: -4, 17: 3, 19: -1},
        "g": {5: 2, 7: 0, 11: -4, 13: 6, 17: -2, 19: 4},
    },
}

# Forms `lift --discover` does not find at the commit the digests were
# recorded: it splits by a_p in [-2*isqrt(p), 2*isqrt(p)], which leaves out
# a_3 = 3 although 3 <= 2*sqrt(3).  A miss listed here is accepted; a form
# found with other eigenvalues than the table's never is.
DISCOVER_KNOWN_MISSES = {(170, "g")}

# Orders of unit groups of definite quaternion orders modulo +-1 times 2.
UNIT_GROUP_ORDERS = {2, 4, 6, 8, 12, 24}


def _opt(argv, flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _level(argv) -> tuple[int, int]:
    return int(_opt(argv, "--q")), int(_opt(argv, "--m"))


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def eichler_mass(q: int, m: int) -> Fraction:
    """(q-1) m / 24 * prod_{p | m} (1 + 1/p), for a square-free level q*m."""
    mass = Fraction((q - 1) * m, 24)
    for p in _prime_factors(m):
        mass *= Fraction(p + 1, p)
    return mass


def check_classes(argv, out: str, root: Path) -> str | None:
    data = json.loads(out)
    q, m = _level(argv)
    if (data["q"], data["M"]) != (q, m):
        return f"level ({data['q']}, {data['M']}) != ({q}, {m})"
    weights = [c["weight"] for c in data["classes"]]
    if data["h"] != len(weights):
        return f"h={data['h']} but {len(weights)} classes listed"
    if not set(weights) <= UNIT_GROUP_ORDERS:
        return f"impossible unit weights {sorted(set(weights) - UNIT_GROUP_ORDERS)}"
    total = sum(Fraction(1, w) for w in weights)
    if total != eichler_mass(q, m):
        return f"sum 1/w = {total} but the mass formula gives {eichler_mass(q, m)}"
    return None


def parse_series(lines) -> tuple[str, dict[int, int]]:
    """(header, {n: a_n}) from the plain text q-series format."""
    header, coeffs = lines[0], {}
    for line in lines[1:]:
        n, c = line.split()
        coeffs[int(n)] = int(c)
    return header, coeffs


def parse_lift(out: str) -> list[tuple[dict, str, dict[int, int]]]:
    """The (metadata, header, coefficients) sections of `lift` stdout, f first."""
    sections = []
    for chunk in out.split("# metadata ")[1:]:
        lines = chunk.splitlines()
        sections.append((json.loads(lines[0]), *parse_series(lines[1:])))
    return sections


def _golden(root: Path, N: int) -> list[tuple[str, dict[int, int]]]:
    """Golden bound-99 lifts at N scaled by their recorded lift_ratio, f then g."""
    gold = root / "tests" / "golden"
    meta = json.loads((gold / "metadata.json").read_text())
    out = []
    for form in ("f", "g"):
        header, coeffs = parse_series((gold / f"w{N}_{form}.txt").read_text().splitlines())
        ratio = meta[f"w{N}_{form}"]["lift_ratio"]
        out.append((header, {n: ratio * c for n, c in coeffs.items()}))
    return out


def _bound99_reference(root: Path, N: int) -> list[tuple[str, dict[int, int]]]:
    if N == 222:
        return [(h, c) for _, h, c in parse_lift(LIFT222_BOUND99.read_text())]
    return _golden(root, N)


def check_lift_golden(argv, out: str, root: Path) -> str | None:
    q, m = _level(argv)
    got = [(h, c) for _, h, c in parse_lift(out)]
    if got != _golden(root, q * m):
        return f"N={q * m} bound-99 lifts differ from golden * lift_ratio"
    return None


def check_lift_deep(argv, out: str, root: Path) -> str | None:
    q, m = _level(argv)
    bound = int(_opt(argv, "--bound"))
    got = parse_lift(out)
    ref = _bound99_reference(root, q * m)
    if len(got) != len(ref):
        return f"{len(got)} series, expected {len(ref)}"
    for (_, header, coeffs), (_, ref_coeffs), form in zip(got, ref, "fg"):
        if not header.endswith(f"bound={bound}"):
            return f"header {header!r} does not carry bound={bound}"
        if {n: c for n, c in coeffs.items() if n <= 99} != ref_coeffs:
            return f"N={q * m} {form} lift disagrees with the bound-99 lift below n=100"
    return None


def check_discover(argv, out: str, root: Path) -> str | None:
    q, m = _level(argv)
    N = q * m
    found = []
    for line in out.splitlines():
        if line.startswith("eigensystem "):
            pairs = (t.split(":") for t in line.split()[1].split(","))
            found.append({int(p): int(a) for p, a in pairs})
    primes = sorted(found[0]) if found else []
    if {p: p + 1 for p in primes} not in found:
        return f"N={N}: no Eisenstein system a_p = p+1 among {len(found)}"
    for form, table in TABLES[N].items():
        expected = {p: a for p, a in table.items() if p in primes}
        if expected not in found and (N, form) not in DISCOVER_KNOWN_MISSES:
            return f"N={N} {form}: table eigenvalues {expected} not discovered"
    return None


def check_report_json(argv, out: str, root: Path) -> str | None:
    report = json.loads(out)
    q, m = _level(argv)
    if (report["N"], report["ell"]) != (q * m, int(_opt(argv, "--ell"))):
        return f"report is for N={report['N']} ell={report['ell']}"
    verdicts = {
        "ok": report["ok"],
        "eigenvalue_check": report["eigenvalue_check"]["ok"],
        "lift_check": report["lift_check"]["ok"],
        "norm f": report["norm_divisibility"]["f"],
        "norm g": report["norm_divisibility"]["g"],
    }
    failed = [k for k, v in verdicts.items() if v is not True]
    return f"congruence verdicts failed: {failed}" if failed else None


def check_report_text(argv, out: str, root: Path) -> str | None:
    verdict = [line for line in out.splitlines() if line.startswith("verdict:")]
    if len(verdict) != 1 or verdict[0].split()[1] != "pass":
        return f"verdict line {verdict!r}"
    return None


# Every check takes (argv, stdout text, repository root).
CHECKS = {
    "classes": check_classes,
    "lift_golden": check_lift_golden,
    "lift_deep": check_lift_deep,
    "discover": check_discover,
    "check_json": check_report_json,
    "check_text": check_report_text,
}


def digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def check_job(job, rc: int, out: str, root: Path, digests: dict) -> str | None:
    """None if the job exited as recorded, matches its digest and passes its check."""
    recorded = digests.get(job.key)
    if recorded is None:
        return "no digest recorded for this job"
    if rc != recorded["rc"]:
        return f"exit code {rc}, recorded {recorded['rc']}"
    try:
        problem = CHECKS[job.check](job.argv, out, root)
    except (ValueError, KeyError, IndexError) as exc:
        problem = f"unparseable output: {exc!r}"
    if problem is None and digest(out) != recorded["sha256"]:
        problem = "output bytes differ from the recorded digest"
    return problem
