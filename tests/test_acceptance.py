"""Acceptance gate: one check per contract criterion, one verdict line each.

Run with output visible to read the verdict lines:

    pytest tests/test_acceptance.py -v -s

Each test prints "PASS criterion n: ..." or "FAIL criterion n: ..." before
asserting, so the transcript always carries the full scoreboard; a FAIL line
states which sub-check diverges and by how much.

The reference eigenvectors and golden lifts describe each congruent pair
(f, g) at its common normalization: f primitive, g rescaled by the unit c
that makes it agree with f entrywise mod 5 (`scale_congruent_pair`).  The
golden series of a pair agree with each other mod 5 with unit 1, and each
sits at the scalar `lift_ratio` (tests/golden/metadata.json) from the lift
of the primitive eigenvector.
"""

import itertools
import json
import random
from fractions import Fraction
from math import isqrt
from pathlib import Path

from brandtlift.congruence import irreducibility_heuristic, sturm_bound
from brandtlift.lift import scale_congruent_pair, waldspurger_lift
from brandtlift.orders import eichler_mass
from brandtlift.shortvec import vector_counts
from brandtlift.theta import QSeries, parse_qseries, theta_series, trace_zero_lattice

GOLDEN = Path(__file__).parent / "golden"

TABLE_170_F = {3: -2, 7: 2, 11: 6, 13: 2, 19: 8, 23: -6, 29: -6, 31: 2,
               37: 2, 41: -6, 43: -4, 47: 12, 53: 6}
TABLE_170_G = {3: 3, 7: 2, 11: -4, 13: -3, 19: 3, 23: -6, 29: 9, 31: -3,
               37: -8, 41: -6, 43: 6, 47: -13, 53: -9}
TABLE_174_F = {5: -3, 7: 5, 11: 6, 13: -4, 17: 3, 19: -1, 23: 0, 31: -4,
               37: -1, 41: -9, 43: -7, 47: -3, 53: -6, 59: 3}
TABLE_174_G = {5: 2, 7: 0, 11: -4, 13: 6, 17: -2, 19: 4, 23: 0, 31: -4,
               37: -6, 41: 6, 43: -12, 47: -8, 53: -6, 59: 8}

REF_170_F = [-4, -4, -4, -4, 5, 5, 5, 5, 5, 5, 5, 5, 2, 2,
             -1, -1, -1, -1, -1, -1, -1, -1, -10, -10]
REF_170_G = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2,
             -1, -1, -1, -1, -1, -1, -1, -1, 0, 0]
REF_174_F = [2, 2, -5, -5, -5, -5, 10, 10, 10, 10, -2, -2, -2, -2, -8, -8]
REF_174_G = [2, 2, 0, 0, 0, 0, 0, 0, 0, 0, -2, -2, -2, -2, 2, 2]


def _report(num: int, desc: str, ok: bool, detail: str = "") -> bool:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    return ok


def test_criterion_1_class_sets(classes170, classes174):
    ok_170 = classes170.h == 24 and classes170.weights == [2] * 24
    ok_174 = classes174.h == 16 and sorted(classes174.weights) == [2] * 14 + [4, 4]
    ok = ok_170 and ok_174
    detail = (f"N=170: h={classes170.h}, weights all 2: {ok_170}; "
              f"N=174: h={classes174.h}, weight multiset "
              f"{sorted(classes174.weights)}")
    assert _report(1, "class numbers and unit weights", ok, detail)


def test_criterion_2_mass_formula(classes170, classes174):
    sums = (sum(Fraction(1, w) for w in classes170.weights),
            sum(Fraction(1, w) for w in classes174.weights))
    ok = (sums == (Fraction(12), Fraction(15, 2))
          and eichler_mass(17, 10) == 12
          and eichler_mass(3, 58) == Fraction(15, 2))
    assert _report(2, "mass formula certificates", ok,
                   f"sum(1/w) = {sums[0]} and {sums[1]}")


def test_criterion_3_hecke_eigenvalues(module170, module174,
                                       phi170_f, phi170_g, phi174_f, phi174_g):
    bad = []
    for module, phi, table in ((module170, phi170_f, TABLE_170_F),
                               (module170, phi170_g, TABLE_170_G),
                               (module174, phi174_f, TABLE_174_F),
                               (module174, phi174_g, TABLE_174_G)):
        # the largest degree first, so one count pass serves the whole table
        module.brandt_matrix(max(table))
        for p, ap in table.items():
            if module.eigenvalue_of(phi, p) != ap:
                bad.append((module.level, p))
    # the Atkin-Lehner sign at p | N is minus the B(p) eigenvalue
    al_ok = all(
        [-module170.eigenvalue_of(phi, p) for p in (2, 5, 17)] == [1, 1, -1]
        for phi in (phi170_f, phi170_g)
    ) and all(
        [-module174.eigenvalue_of(phi, p) for p in (2, 3, 29)] == [1, -1, 1]
        for phi in (phi174_f, phi174_g)
    )
    ok = not bad and al_ok
    assert _report(3, "eigenvalue tables and Atkin-Lehner signs", ok,
                   f"27 good-prime eigenvalues checked, mismatches: {bad or 'none'}; "
                   f"AL signs: {'match' if al_ok else 'MISMATCH'}")


def test_criterion_4_eigenvector_multisets(phi170_f, phi170_g, phi174_f, phi174_g):
    # the references are the pair at the common normalization fixed by the
    # mod-5 congruence: f primitive, g rescaled by the unit c
    def match_up_to_sign(phi, ref):
        return sorted(phi) == sorted(ref) or sorted(-x for x in phi) == sorted(ref)

    checks = {}
    units = []
    for level, phi_f, phi_g, ref_f, ref_g in (
            (170, phi170_f, phi170_g, REF_170_F, REF_170_G),
            (174, phi174_f, phi174_g, REF_174_F, REF_174_G)):
        f, g, c = scale_congruent_pair(phi_f, phi_g, 5)
        units.append(f"c={c} at N={level}")
        checks[f"{level} f"] = match_up_to_sign(f, ref_f)
        checks[f"{level} g"] = c is not None and match_up_to_sign(g, ref_g)
    ok = all(checks.values())
    detail = "; ".join(f"{k}: {'match' if v else 'MISMATCH'}" for k, v in checks.items())
    detail += f"; mod-5 units {' and '.join(units)}"
    assert _report(4, "eigenvector entry multisets at the mod-5 pair normalization, "
                   "up to global sign", ok, detail)


def test_criterion_5_pairing_norms(module170, module174,
                                   phi170_f, phi170_g, phi174_f, phi174_g):
    # norms taken at the common normalization fixed by the mod-5 congruence
    f170, g170, c170 = scale_congruent_pair(phi170_f, phi170_g, 5)
    f174, g174, c174 = scale_congruent_pair(phi174_f, phi174_g, 5)
    values = (module170.pairing(f170, f170), module170.pairing(g170, g170),
              module174.pairing(f174, f174), module174.pairing(g174, g174))
    ok = values == (960, 40, 1320, 80)
    assert _report(5, "pairing norms 960/40/1320/80", ok,
                   f"got {values}; scale witnesses c={c170} and c={c174}")


def test_criterion_6_lift_golden_files(phi170_f, phi170_g, phi174_f, phi174_g,
                                       thetas170, thetas174):
    # The golden pair of each level sits at one normalization: the goldens
    # agree mod 5 with unit 1, and once g is rescaled by the mod-5 unit c of
    # the eigenvectors, f and c*g share a single ratio lift / golden.  That
    # ratio is pinned to the recorded lift_ratio, not derived: theta_series
    # counts x and -x separately, and the documents do not say which theta
    # normalization the goldens were recorded in.  The N=170 ratio -2 fits a
    # count of +-x once (Gross, Heights and special values of L-series, 1987);
    # the N=174 ratio -4 does not.
    meta = json.loads((GOLDEN / "metadata.json").read_text())
    exponents = range(100)
    failures = []
    details = []
    for level, phi_f, phi_g, thetas in ((170, phi170_f, phi170_g, thetas170),
                                        (174, phi174_f, phi174_g, thetas174)):
        goldens, recorded = {}, {}
        for form, phi in (("f", phi_f), ("g", phi_g)):
            name = f"w{level}_{form}"
            golden, _ = parse_qseries((GOLDEN / f"{name}.txt").read_text())
            computed = waldspurger_lift(phi, thetas).series
            ratio = Fraction(meta[name]["lift_ratio"])
            first = sorted(golden.coeffs)[0]
            measured = Fraction(computed.coefficient(first), golden.coefficient(first))
            if any(computed.coefficient(n) != measured * golden.coefficient(n)
                   for n in exponents):
                failures.append(f"{name}: lift / golden is not one ratio for n <= 99")
            if any(computed.coefficient(n) != ratio * golden.coefficient(n)
                   for n in exponents):
                failures.append(f"{name}: lift != lift_ratio {ratio} * golden")
            details.append(f"{name}: ratio {measured}")
            goldens[form] = [golden.coefficient(n) for n in exponents]
            recorded[form] = ratio
        _, _, golden_unit = scale_congruent_pair(goldens["f"], goldens["g"], 5)
        if golden_unit != 1:
            failures.append(f"N={level}: goldens agree mod 5 with unit {golden_unit}, not 1")
        _, _, c = scale_congruent_pair(phi_f, phi_g, 5)
        if c is None or recorded["f"] != c * recorded["g"]:
            failures.append(f"N={level}: lift_ratio f {recorded['f']} != "
                            f"c={c} * lift_ratio g {recorded['g']}")
        details.append(f"N={level} pair ratio {recorded['f']} with c={c}")
    ok = not failures
    assert _report(6, "lift q-expansions against golden files", ok,
                   "; ".join(failures or details))


def test_criterion_7_congruence_verdicts(report170, report174):
    checks = {
        "170 eigenvalues mod 5": report170.eigenvalue_check.ok and report170.sturm == 54,
        "174 eigenvalues mod 5": report174.eigenvalue_check.ok and report174.sturm == 60,
        "170 lift congruence": report170.lift_check.ok,
        "174 lift congruence": report174.lift_check.ok,
        "170 hypotheses fail": not report170.hypothesis_flags.ok,
        "174 hypotheses hold": report174.hypothesis_flags.ok,
        "norm divisibility": (report170.norm_divisibility == (True, True)
                              and report174.norm_divisibility == (True, True)),
    }
    ok = all(checks.values())
    detail = (f"lift witnesses c={report170.lift_check.witness_c} and "
              f"c={report174.lift_check.witness_c}; "
              + "; ".join(k for k, v in checks.items() if not v))
    assert _report(7, "congruence verdicts at ell=5", ok, detail.rstrip("; "))


def _random_pd_gram(rng):
    off = {(i, j): rng.randint(-2, 2) for i in range(3) for j in range(i + 1, 3)}
    g = [[0] * 3 for _ in range(3)]
    for (i, j), v in off.items():
        g[i][j] = g[j][i] = v
    for i in range(3):
        slack = sum(abs(g[i][j]) for j in range(3) if j != i)
        g[i][i] = rng.randint(slack + 1, 10)
    return g


def _naive_box_counts(gram, bound):
    m = min(gram[i][i] - sum(abs(gram[i][j]) for j in range(3) if j != i)
            for i in range(3))
    radius = isqrt(bound // max(m, 1))
    counts = {}
    for x in itertools.product(range(-radius, radius + 1), repeat=3):
        if x == (0, 0, 0):
            continue
        val = sum(x[i] * gram[i][j] * x[j] for i in range(3) for j in range(3))
        if 0 < val <= bound:
            counts[val] = counts.get(val, 0) + 1
    return counts


def test_criterion_8_property_suites(module170, module174, classes170, classes174):
    failures = []

    # Hecke commutativity, self-adjointness, column sums
    for module in (module170, module174):
        n = module.classes.h
        w = module.classes.weights
        level = module.level
        good = [p for p in (2, 3, 5, 7, 11, 13, 17, 19) if level % p]
        mats = {p: module.brandt_matrix(p).entries for p in good}
        for p in good:
            b = mats[p]
            if any(sum(b[i][j] for i in range(n)) != p + 1 for j in range(n)):
                failures.append(f"column sums B({p}) at N={level}")
            if any(w[i] * b[i][j] != b[j][i] * w[j] for i in range(n) for j in range(n)):
                failures.append(f"self-adjointness B({p}) at N={level}")
        for p, q in itertools.combinations(good, 2):
            a, b = mats[p], mats[q]
            ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            ba = [[sum(b[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            if ab != ba:
                failures.append(f"commutativity B({p})B({q}) at N={level}")

    # theta series shape and cross-class Gram determinants
    for cs in (classes170, classes174):
        dets = {trace_zero_lattice(o).determinant() for o in cs.right_orders}
        if len(dets) != 1:
            failures.append(f"Gram determinants differ at N={cs.q * cs.M}: {sorted(dets)}")
        for order in cs.right_orders:
            s = theta_series(trace_zero_lattice(order), 60)
            if s.coefficient(0) != 1:
                failures.append("theta constant term")
            if any(n % 4 in (1, 2) for n in sorted(s.coeffs) if n):
                failures.append("theta support mod 4")
            if any(s.coefficient(n) % 2 for n in sorted(s.coeffs) if n):
                failures.append("theta parity")

    # lift linearity and joint-permutation invariance on synthetic data
    rng = random.Random(11)
    thetas = [QSeries(40, {0: 1, **{rng.randrange(3, 41): rng.randint(1, 6)
                                    for _ in range(4)}}) for _ in range(5)]
    for _ in range(10):
        u = [rng.randint(-4, 4) for _ in range(5)]
        v = [rng.randint(-4, 4) for _ in range(5)]
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        lhs = waldspurger_lift([a * x + b * y for x, y in zip(u, v)], thetas).series
        su, sv = waldspurger_lift(u, thetas).series, waldspurger_lift(v, thetas).series
        rhs = QSeries(40, {n: a * su.coefficient(n) + b * sv.coefficient(n) for n in range(41)})
        if lhs != rhs:
            failures.append("lift linearity")
        perm = rng.sample(range(5), 5)
        if (waldspurger_lift([u[k] for k in perm], [thetas[k] for k in perm]).series
                != waldspurger_lift(u, thetas).series):
            failures.append("lift permutation invariance")

    # short-vector enumeration against a naive box scan
    rng = random.Random(23)
    for _ in range(20):
        gram = _random_pd_gram(rng)
        if vector_counts(gram, 50) != _naive_box_counts(gram, 50):
            failures.append(f"enumeration oracle on {gram}")

    ok = not failures
    assert _report(8, "structural property suites", ok,
                   "all properties hold" if ok else "; ".join(sorted(set(failures))))


def test_criterion_9_hypothesis_machinery(module174, phi174_f, phi174_g):
    sturm_ok = sturm_bound(2, 170) == 54 and sturm_bound(2, 174) == 60
    irr_f = irreducibility_heuristic(module174, phi174_f, 5, 60)
    irr_g = irreducibility_heuristic(module174, phi174_g, 5, 60)
    ok = sturm_ok and irr_f.ok and irr_g.ok
    assert _report(9, "Sturm bounds and irreducibility certificates", ok,
                   f"sturm: {'ok' if sturm_ok else 'wrong'}; witnesses "
                   f"p={irr_f.witness_prime} and p={irr_g.witness_prime}")
