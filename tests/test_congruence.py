import json
import random
from collections import Counter

import pytest

from brandtlift.brandt import BrandtModule
from brandtlift.congruence import (
    CongruenceReport,
    LiftVerdict,
    check_eigenvalue_congruence,
    check_hypotheses,
    check_lift_congruence,
    check_norm_divisibility,
    irreducibility_heuristic,
    run_congruence_checks,
    sturm_bound,
)
from brandtlift.lift import scale_congruent_pair, waldspurger_lift
from brandtlift import brandt, orders
from brandtlift.theta import QSeries

from conftest import EIGEN_170_F, EIGEN_170_G, build_classes


def test_sturm_bound_values():
    assert sturm_bound(2, 170) == 54
    assert sturm_bound(2, 174) == 60
    assert sturm_bound(2, 11) == 2


def test_report_170_ell5(report170):
    assert isinstance(report170, CongruenceReport)
    assert (report170.N, report170.q, report170.M) == (170, 17, 10)
    assert report170.sturm == 54
    assert report170.ok
    ev = report170.eigenvalue_check
    assert ev.ok and ev.first_failing_prime is None
    assert len(ev.compared_primes) == 16
    lc = report170.lift_check
    assert lc.ok and lc.witness_c == 1 and not lc.all_zero_mod_ell
    assert report170.norm_divisibility == (True, True)
    assert report170.phi_scale_witness == 1
    # 5 divides N, so the theorem's coprimality condition fails here
    assert report170.hypothesis_flags.ell_gt_2
    assert not report170.hypothesis_flags.coprime_or_ramified
    assert not report170.hypothesis_flags.ok
    assert report170.irreducibility_f.ok and report170.irreducibility_f.witness_prime == 3
    assert report170.irreducibility_g.ok and report170.irreducibility_g.witness_prime == 3


def test_report_174_ell5(report174):
    assert (report174.N, report174.q, report174.M) == (174, 3, 58)
    assert report174.sturm == 60
    assert report174.ok
    assert report174.eigenvalue_check.ok
    assert len(report174.eigenvalue_check.compared_primes) == 17
    assert report174.lift_check.ok and report174.lift_check.witness_c == 1
    assert report174.norm_divisibility == (True, True)
    assert report174.phi_scale_witness == -2
    assert report174.hypothesis_flags.ok
    assert report174.irreducibility_f.ok and report174.irreducibility_f.witness_prime == 7
    assert report174.irreducibility_g.ok and report174.irreducibility_g.witness_prime == 7


def test_report_174_ell7_fails(report174_ell7):
    assert not report174_ell7.ok
    assert report174_ell7.eigenvalue_check.ok is False
    assert report174_ell7.eigenvalue_check.first_failing_prime == 5
    assert not report174_ell7.lift_check.ok
    assert report174_ell7.phi_scale_witness is None


def test_eigenvalue_congruence_direct(module174, phi174_f, phi174_g):
    good = check_eigenvalue_congruence(module174, phi174_f, phi174_g, 5)
    assert good.ok and good.compared_primes[0] == 2
    bad = check_eigenvalue_congruence(module174, phi174_f, phi174_g, 7)
    assert not bad.ok and bad.first_failing_prime == 5


def test_entrywise_congruence_implies_lift_congruence(module170, module174,
                                                      phi170_f, phi170_g, phi174_f, phi174_g,
                                                      thetas170, thetas174):
    # whenever phi_f = c * phi_g entrywise mod ell, the lifts obey the
    # same congruence, coefficient by coefficient
    cases = [
        (module170, phi170_f, phi170_g, thetas170, 5),
        (module174, phi174_f, phi174_g, thetas174, 5),
    ]
    for module, pf, pg, thetas, ell in cases:
        _, _, c = scale_congruent_pair(pf, pg, ell)
        assert c is not None
        wf = waldspurger_lift(pf, thetas).series
        wg = waldspurger_lift(pg, thetas).series
        assert all((wf.coefficient(n) - c * wg.coefficient(n)) % ell == 0
                   for n in range(wf.bound + 1))
        verdict = check_lift_congruence(wf, wg, ell)
        assert verdict.ok and verdict.witness_c == c % ell


def test_lift_congruence_truncation_stable(phi174_f, phi174_g, thetas174):
    wf = waldspurger_lift(phi174_f, thetas174).series
    wg = waldspurger_lift(phi174_g, thetas174).series
    full = check_lift_congruence(wf, wg, 5)
    short = check_lift_congruence(QSeries(60, wf.coeffs), QSeries(60, wg.coeffs), 5)
    assert full.ok and short.ok and full.witness_c == short.witness_c


def test_lift_congruence_input_forms(phi174_f, phi174_g, thetas174):
    wf = waldspurger_lift(phi174_f, thetas174)
    wg = waldspurger_lift(phi174_g, thetas174)
    # LiftResult and QSeries arguments are interchangeable
    assert check_lift_congruence(wf, wg.series, 5).ok
    with pytest.raises(ValueError, match="bounds differ"):
        check_lift_congruence(wf.series, QSeries(50, wg.series.coeffs), 5)


def test_lift_congruence_all_zero_flag():
    sf = QSeries(8, {4: 5, 8: 10})
    sg = QSeries(8, {4: -5})
    verdict = check_lift_congruence(sf, sg, 5)
    assert verdict.ok and verdict.all_zero_mod_ell
    nonzero = check_lift_congruence(QSeries(8, {4: 1}), QSeries(8, {4: 2}), 5)
    assert nonzero.ok and not nonzero.all_zero_mod_ell


def test_lift_congruence_failure_reports_exponent():
    sf = QSeries(8, {3: 1, 4: 1})
    sg = QSeries(8, {3: 1, 4: 2})
    verdict = check_lift_congruence(sf, sg, 5)
    assert not verdict.ok
    assert verdict.witness_c is None
    assert verdict.first_failing_exponent == 4


def test_lift_congruence_fails_outside_one_support():
    # the first disagreement is at an n where one series has no coefficient
    only_f = check_lift_congruence(QSeries(9, {2: 1, 5: 3, 7: 1}), QSeries(9, {2: 1, 7: 1}), 5)
    assert (only_f.ok, only_f.witness_c, only_f.first_failing_exponent) == (False, None, 5)
    only_g = check_lift_congruence(QSeries(9, {2: 1, 7: 1}), QSeries(9, {2: 1, 6: 2, 7: 1}), 5)
    assert (only_g.ok, only_g.witness_c, only_g.first_failing_exponent) == (False, None, 6)


def test_lift_congruence_matches_a_scan_of_every_exponent():
    # the verdict over the union of the supports equals the scan of 0..bound
    def scan(sf, sg, ell):
        ns = range(sf.bound + 1)
        a, b = [sf.coefficient(n) for n in ns], [sg.coefficient(n) for n in ns]
        all_zero = all(x % ell == 0 for x in a + b)
        for c in range(1, ell):
            if all((x - c * y) % ell == 0 for x, y in zip(a, b)):
                return LiftVerdict(True, c, None, all_zero)
        return LiftVerdict(False, None, next(n for n in ns if (a[n] - b[n]) % ell), all_zero)

    rng = random.Random(5)
    for _ in range(300):
        ell, bound = rng.choice((2, 3, 5, 7)), rng.randrange(12)
        base = {n: rng.randrange(-9, 10) for n in rng.sample(range(bound + 1), rng.randrange(bound + 2))}
        c = rng.randrange(1, ell)
        sf = QSeries(bound, {n: c * x + ell * rng.randrange(-1, 2) for n, x in base.items()})
        sg = QSeries(bound, {n: x for n, x in base.items() if rng.random() < 0.8})
        assert check_lift_congruence(sf, sg, ell) == scan(sf, sg, ell)


def test_norm_divisibility(module170, phi170_g):
    assert check_norm_divisibility(module170, phi170_g, 5)
    # <g,g> = 40 is not divisible by 3
    assert not check_norm_divisibility(module170, phi170_g, 3)


def test_check_hypotheses():
    assert check_hypotheses(170, 17, 5).ok is False
    assert check_hypotheses(174, 3, 5).ok is True
    assert check_hypotheses(174, 3, 7).ok is True
    # ell = q rescues divisibility of N(q-1)
    assert check_hypotheses(170, 17, 17).ok is True
    assert check_hypotheses(170, 17, 2).ell_gt_2 is False


def test_irreducibility_heuristic(module170, phi170_f):
    verdict = irreducibility_heuristic(module170, phi170_f, 5, 20)
    assert verdict.ok and verdict.witness_prime == 3
    # a tiny search window cannot certify anything
    empty = irreducibility_heuristic(module170, phi170_f, 5, 2)
    assert not empty.ok and empty.witness_prime is None


def test_run_congruence_checks_validates_ell(module170):
    with pytest.raises(ValueError, match="prime"):
        run_congruence_checks(module170, EIGEN_170_F, EIGEN_170_G, 4)


@pytest.mark.parametrize("ell", [1, 0, -5, 4])
def test_every_check_mod_ell_rejects_a_non_prime_ell(ell):
    # N=11 (h=2): ell = 1 passed every check vacuously, ell = 0 divided by
    # zero, ell = -5 missed the unit c = 2, and check_lift_congruence raised
    # StopIteration; each now raises the ValueError that the report raises
    module = BrandtModule(build_classes(11, 1))
    phi_f, phi_g = [1, -1], [3, 2]
    sf, sg = QSeries(10, {1: 2, 3: 4}), QSeries(10, {1: 1, 3: 2})
    checks = [
        lambda: scale_congruent_pair(phi_f, phi_g, ell),
        lambda: check_eigenvalue_congruence(module, phi_f, phi_g, ell),
        lambda: check_lift_congruence(sf, sg, ell),
        lambda: check_norm_divisibility(module, phi_f, ell),
        lambda: irreducibility_heuristic(module, phi_f, ell, 20),
    ]
    for check in checks:
        with pytest.raises(ValueError, match=f"ell must be prime, got {ell}"):
            check()
    # the same inputs at ell = 5
    assert scale_congruent_pair(phi_f, phi_g, 5)[2] == 2
    assert check_lift_congruence(sf, sg, 5).witness_c == 2


def test_check_above_count_bound_builds_each_pair_lattice_once(monkeypatch):
    # N=222: the Sturm bound 76 puts T_61 ... T_73 among the degrees the
    # check reads; the module keeps the pair forms of its count pass, so
    # the row passes that read them build no pair lattice I_i conj(I_j)
    # again.  One pair lattice per orbit of the W_p on the pairs is counted,
    # its key: 28 of the h(h+1)/2 = 105.  The 11 keys (i, i) and (0, j) take
    # the walk's reduced Grams, the other 17 are built, and so are the
    # products I_i J_p of the Atkin-Lehner orbit map: its orbits of
    # t = 4, 4, 4 and 2 classes cost t - 1 + dim H = 4, 4, 4 and 3, 15 in
    # all, not 3h = 42
    classes = build_classes(2, 111)
    module = BrandtModule(classes)
    builds = Counter()
    pair_product = orders._pair_product

    def counted(lhs, rhs, shrink=1):
        builds[(lhs, rhs)] += 1
        return pair_product(lhs, rhs, shrink)

    # the class set's products and the module's pair lattices
    monkeypatch.setattr(orders, "_pair_product", counted)
    monkeypatch.setattr(brandt, "_pair_product", counted)
    report = run_congruence_checks(module, [(5, -4)], [(5, 2)], 3, bound=10)
    assert report.sturm == 76
    assert report.eigenvalue_check.compared_primes[-1] == 73
    assert len(module._forms) == 28
    assert len(builds) == 17 + 15
    assert set(builds.values()) == {1}


def test_failed_check_outside_the_hypotheses_claims_no_congruence():
    # N=11, ell=2: the eigenvalues differ mod 2 at p=2, and ell=2 breaks the hypotheses
    report = run_congruence_checks(BrandtModule(build_classes(11, 1)), [(2, -2)], [(2, 3)], 2)
    assert not report.ok and not report.hypothesis_flags.ok
    text = report.to_text()
    assert text.endswith("verdict:               FAIL\n")
    assert "congruence observed" not in text


def test_report_serialization(report174):
    doc = json.loads(report174.to_json())
    assert doc["ok"] is True
    assert doc["ell"] == 5
    assert doc["lift_check"]["witness_c"] == 1
    assert doc["phi_f"] == list(report174.phi_f)
    assert report174.to_json() == report174.to_json()
    text = report174.to_text()
    assert "verdict:               pass" in text
    assert "outside the theorem's hypotheses" not in text


def test_report_text_flags_hypothesis_failure(report170):
    text = report170.to_text()
    assert "outside the theorem's hypotheses" in text
    assert "eigenvalue congruence: pass" in text


def test_report_text_flags_failure(report174_ell7):
    text = report174_ell7.to_text()
    assert "FAIL" in text
    assert json.loads(report174_ell7.to_json())["ok"] is False
