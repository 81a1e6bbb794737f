import random
from fractions import Fraction

import pytest

import brandtlift.lift as lift_module
from brandtlift.brandt import BrandtModule
from brandtlift.lift import (
    LiftResult,
    lift_eigenforms,
    normalize_phi,
    scale_congruent_pair,
    waldspurger_lift,
)
from brandtlift.theta import QSeries, theta_series, trace_zero_lattice
from conftest import (
    EIGEN_170_F,
    EIGEN_170_G,
    EIGEN_174_F,
    EIGEN_174_G,
    EIGEN_222_F,
    EIGEN_222_G,
    build_classes,
)

# reference weight-3/2 expansions, truncated at exponent 99; each was
# published at a fixed normalization, recorded here as a multiplier against
# the lift of the primitive integral eigenvector
REF_W170_F = {20: -4, 24: 16, 31: -24, 39: 16, 40: 20, 56: 8, 71: -8,
              79: -40, 80: 4, 95: 16, 96: -16}
REF_W170_G = {20: -4, 24: -4, 31: -4, 39: -4, 56: 8, 71: 12, 80: 4,
              95: -4, 96: 4}
REF_W174_F = {4: 2, 7: -10, 16: -2, 24: -8, 28: 10, 36: 2, 52: 20,
              63: -10, 64: 2, 87: -12, 88: -4, 96: 8}
REF_W174_G = {4: 2, 16: -2, 24: 2, 36: 2, 64: 2, 87: -2, 88: -4, 96: -2}

RATIO_170_F = -2
RATIO_170_G = -2
RATIO_174_F = -4
RATIO_174_G = 2


def test_lift_matches_reference_170(phi170_f, phi170_g, thetas170):
    wf = waldspurger_lift(phi170_f, thetas170)
    wg = waldspurger_lift(phi170_g, thetas170)
    assert wf.series == QSeries(99, {n: RATIO_170_F * c for n, c in REF_W170_F.items()})
    assert wg.series == QSeries(99, {n: RATIO_170_G * c for n, c in REF_W170_G.items()})
    assert wf.phi == tuple(phi170_f)


def test_lift_matches_reference_174(phi174_f, phi174_g, thetas174):
    wf = waldspurger_lift(phi174_f, thetas174)
    wg = waldspurger_lift(phi174_g, thetas174)
    assert wf.series == QSeries(99, {n: RATIO_174_F * c for n, c in REF_W174_F.items()})
    assert wg.series == QSeries(99, {n: RATIO_174_G * c for n, c in REF_W174_G.items()})


def test_lift_support_shape(phi174_f, thetas174):
    series = waldspurger_lift(phi174_f, thetas174).series
    assert series.coefficient(0) == 0
    for n in sorted(series.coeffs):
        assert n % 4 in (0, 3)


def synthetic_thetas():
    return [
        QSeries(12, {0: 1, 3: 2, 4: 4}),
        QSeries(12, {0: 1, 4: 2, 8: 6}),
        QSeries(12, {0: 1, 7: 2, 11: 4}),
    ]


def test_lift_is_linear():
    thetas = synthetic_thetas()
    rng = random.Random(3)
    for _ in range(10):
        u = [rng.randint(-5, 5) for _ in range(3)]
        v = [rng.randint(-5, 5) for _ in range(3)]
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        combo = [a * x + b * y for x, y in zip(u, v)]
        lhs = waldspurger_lift(combo, thetas).series
        su, sv = waldspurger_lift(u, thetas).series, waldspurger_lift(v, thetas).series
        rhs = QSeries(12, {n: a * su.coefficient(n) + b * sv.coefficient(n) for n in range(13)})
        assert lhs == rhs


def test_lift_joint_permutation_invariance():
    thetas = synthetic_thetas()
    phi = [3, -1, 2]
    base = waldspurger_lift(phi, thetas).series
    perm = [2, 0, 1]
    assert waldspurger_lift([phi[k] for k in perm], [thetas[k] for k in perm]).series == base


def test_lift_zero_vector():
    result = waldspurger_lift([0, 0, 0], synthetic_thetas())
    assert result.series == QSeries(12, {})
    assert result.phi == (0, 0, 0)


def test_lift_bound_is_minimum():
    thetas = [QSeries(30, {0: 1, 4: 2}), QSeries(20, {0: 1, 3: 2})]
    assert waldspurger_lift([1, 1], thetas).series.bound == 20


def test_lift_input_validation():
    thetas = synthetic_thetas()
    with pytest.raises(ValueError, match="3 entries but there are 2"):
        waldspurger_lift([1, 2, 3], thetas[:2])
    with pytest.raises(ValueError, match="integer"):
        waldspurger_lift([1, Fraction(1, 2), 0], thetas)
    # the integrality rule of scale_congruent_pair: a ValueError, not an OverflowError
    with pytest.raises(ValueError, match="non-integral phi entry inf"):
        waldspurger_lift([1, float("inf"), 0], thetas)
    # integral rationals are accepted
    assert waldspurger_lift([Fraction(2), 0, 0], thetas).phi == (2, 0, 0)


def test_normalize_phi():
    assert normalize_phi([Fraction(1, 2), 1, Fraction(3, 2)]) == [1, 2, 3]
    assert normalize_phi([2, 4, 6]) == [1, 2, 3]
    assert normalize_phi([-1, -2]) == [1, 2]


def test_scale_congruent_pair_170(module170, phi170_f, phi170_g):
    f, g, c = scale_congruent_pair(phi170_f, phi170_g, 5)
    assert c == 1
    assert g == list(phi170_g)
    assert all((a - b) % 5 == 0 for a, b in zip(f, g))


def test_scale_congruent_pair_174(module174, phi174_f, phi174_g):
    f, g, c = scale_congruent_pair(phi174_f, phi174_g, 5)
    assert c == -2
    assert all((a - b) % 5 == 0 for a, b in zip(f, g))
    # the rescaled vector reproduces the reference pairing value
    assert module174.pairing(g, g) == 80


def test_scale_congruent_pair_failure(phi174_f, phi174_g):
    f, g, c = scale_congruent_pair(phi174_f, phi174_g, 7)
    assert c is None
    assert f == list(phi174_f) and g == list(phi174_g)


def test_scale_congruent_pair_small_cases():
    assert scale_congruent_pair([2, 4], [1, 2], 5)[2] == 2
    assert scale_congruent_pair([0, 0], [0, 0], 5)[2] == 1
    with pytest.raises(ValueError):
        scale_congruent_pair([1], [1, 2], 5)


def test_scale_congruent_pair_rejects_non_integral_entries():
    # a float or a Fraction is not truncated into a "congruent" pair with f changed
    with pytest.raises(ValueError, match="non-integral phi_f entry 2.7"):
        scale_congruent_pair([2.7, 1], [2, 1], 5)
    with pytest.raises(ValueError, match=r"non-integral phi_f entry Fraction\(5, 2\)"):
        scale_congruent_pair([Fraction(5, 2), 1], [2, 1], 5)
    with pytest.raises(ValueError, match="non-integral phi_g entry inf"):
        scale_congruent_pair([2, 1], [float("inf"), 1], 5)
    # integral values of other types are taken as their ints
    assert scale_congruent_pair([Fraction(4, 2), 1.0], [2, 1], 5) == ([2, 1], [2, 1], 1)


def test_metadata_shape(phi174_g, thetas174):
    result = waldspurger_lift(phi174_g, thetas174)
    meta = result.metadata(174, 3, 58, eigendata=[(5, 2)], sign_convention="primitive")
    assert meta["N"] == 174 and meta["q"] == 3 and meta["M"] == 58
    assert meta["eigendata"] == [[5, 2]]
    assert meta["phi"] == list(phi174_g)
    assert meta["sign_convention"] == "primitive"
    assert isinstance(result, LiftResult)


def test_lift_eigenforms_174(module174, phi174_f, phi174_g, thetas174):
    primitive = {"f": waldspurger_lift(phi174_f, thetas174),
                 "g": waldspurger_lift(phi174_g, thetas174)}
    pair = {"f": EIGEN_174_F, "g": EIGEN_174_G}
    for name in ("f", "g"):
        lifts, c = lift_eigenforms(module174, {name: pair[name]}, 99, ell=5)
        assert c is None
        assert lifts == {name: primitive[name]}
    lifts, c = lift_eigenforms(module174, pair, 99, ell=5)
    assert c == -2
    assert lifts["f"] == primitive["f"]
    assert lifts["g"].phi == tuple(-2 * x for x in phi174_g)
    scaled_g = {n: -2 * c for n, c in primitive["g"].series.coeffs.items()}
    assert lifts["g"].series == QSeries(99, scaled_g)
    # no unit aligns the pair mod 7, and without ell nothing is rescaled
    for ell in (7, None):
        lifts, c = lift_eigenforms(module174, pair, 99, ell=ell)
        assert c is None
        assert lifts == primitive


def test_lift_adds_up_entries_of_shared_series():
    a, b, c = synthetic_thetas()
    b_copy = QSeries(12, dict(b.coeffs))
    assert b_copy == b and b_copy is not b
    phi = [3, -1, 2, 5, -2, 1]
    # a twice as one object, b once as itself and once as an equal copy
    shared = [a, b, a, b_copy, c, a]
    distinct = [QSeries(t.bound, dict(t.coeffs)) for t in shared]
    assert waldspurger_lift(phi, shared) == waldspurger_lift(phi, distinct)
    # entries that cancel on one shared object leave its series out
    cancel = waldspurger_lift([1, 0, -1, 0, 0, 0], shared)
    assert cancel.series == QSeries(12, {}) and cancel.phi == (1, 0, -1, 0, 0, 0)


@pytest.fixture(scope="module")
def module222(classes222):
    return BrandtModule(classes222)


# the congruent pair at each level and its prime ell
LIFT_PAIRS = {174: ({"f": EIGEN_174_F, "g": EIGEN_174_G}, 5),
              222: ({"f": ((5, -4),), "g": ((5, 2),)}, 3)}


@pytest.mark.parametrize("level", [174, 222])
def test_lift_eigenforms_matches_per_class_theta_series(level, request):
    module = request.getfixturevalue(f"module{level}")
    pair, ell = LIFT_PAIRS[level]
    per_class = [theta_series(trace_zero_lattice(o), 2000) for o in module.classes.right_orders]
    lifts, c = lift_eigenforms(module, pair, 2000, ell=ell)
    assert c is not None
    for name, lifted in lifts.items():
        assert lifted == waldspurger_lift(lifted.phi, per_class)


@pytest.mark.parametrize("level", [174, 222])
def test_lift_eigenforms_skips_types_that_sum_to_zero(level, request, monkeypatch):
    module = request.getfixturevalue(f"module{level}")
    pair, ell = LIFT_PAIRS[level]
    per_class = [theta_series(trace_zero_lattice(o), 200) for o in module.classes.right_orders]
    built = []

    def counted(lattice, bound):
        built.append(lattice.gram)
        return theta_series(lattice, bound)

    monkeypatch.setattr(lift_module, "theta_series", counted)
    lifts, _ = lift_eigenforms(module, pair, 200, ell=ell)
    for lifted in lifts.values():
        assert lifted == waldspurger_lift(lifted.phi, per_class)
    types = module.classes._types
    live = {gram for gram in types if any(
        sum(x for x, t in zip(lifted.phi, types) if t == gram) for lifted in lifts.values())}
    assert sorted(built) == sorted(live)
    if level == 222:
        # f and g sum to 0 on each of the 4 types: the lifts are 0
        assert not built
        assert all(not lifted.series.coeffs for lifted in lifts.values())


def test_lift_eigenforms_builds_one_theta_series_per_type(module174, monkeypatch):
    calls = []

    def counted(lattice, bound):
        calls.append(lattice.gram)
        return theta_series(lattice, bound)

    monkeypatch.setattr(lift_module, "theta_series", counted)
    lift_eigenforms(module174, {"f": EIGEN_174_F, "g": EIGEN_174_G}, 99, ell=5)
    types = module174.classes._types
    assert sorted(calls) == sorted(set(types))
    assert len(calls) == 5 < module174.h == 16


def _legendre(a: int, p: int) -> int:
    """(a/p) for an odd prime p, by Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _shimura_mismatches(series: QSeries, ap: dict[int, int]) -> list[tuple[int, int]]:
    """The (p, n), n <= bound/p^2, where c(p^2 n) + (-n/p) c(n) + p c(n/p^2) != a_p c(n)."""
    c = series.coefficient
    out = []
    for p, a in ap.items():
        pp = p * p
        for n in range(1, series.bound // pp + 1):
            lhs = c(pp * n) + _legendre(-n, p) * c(n) + (p * c(n // pp) if n % pp == 0 else 0)
            if lhs != a * c(n):
                out.append((p, n))
    return out


# (level, eigendata by name) at the deep-lift bound; at N=222, f and g lift
# to 0, so the Eisenstein line (a_5 = 6) is the one that tests the thetas there
SHIMURA_LIFTS = [
    (11, {"f": ((2, -2),)}),
    (170, {"f": EIGEN_170_F, "g": EIGEN_170_G}),
    (174, {"f": EIGEN_174_F, "g": EIGEN_174_G}),
    (222, {"f": EIGEN_222_F, "g": EIGEN_222_G, "eis": ((5, 6),)}),
]


@pytest.mark.parametrize("level, eigendata", SHIMURA_LIFTS)
def test_lifts_satisfy_the_shimura_hecke_relation(level, eigendata, request):
    """Each lift is a T(p^2) eigenform with the B(p) eigenvalue a_p of its vector.

    For every odd prime p < 20 prime to N, c(p^2 n) + (-n/p) c(n) + p c(n/p^2)
    = a_p c(n) for all n <= bound/p^2 (Shimura, Ann. of Math. 97 (1973)).
    The a_p come from the Brandt rows and the check shares no code with the
    theta enumeration.  It is a partial check: it reads only the
    coefficients at n <= bound/p^2 and at their multiples by p^2, 12% to
    27% of those up to the bound (12% when 3 divides N), so a fault
    confined to the others passes it.
    """
    if level == 11:
        module = BrandtModule(build_classes(11, 1))
    else:
        module = request.getfixturevalue(f"module{level}")
    primes = [p for p in (3, 5, 7, 11, 13, 17, 19) if level % p]
    lifts, _ = lift_eigenforms(module, eigendata, 30000)
    for name, lifted in lifts.items():
        ap = module.eigenvalues(list(lifted.phi), primes)
        assert _shimura_mismatches(lifted.series, ap) == [], (level, name)
        if level == 222 and name != "eis":
            assert not lifted.series.coeffs
            continue
        # one coefficient off by one at the first n >= 1 where c(n) != 0
        n = min(k for k in lifted.series.coeffs if k)
        planted = QSeries(lifted.series.bound, {**lifted.series.coeffs, n: lifted.series.coeffs[n] + 1})
        assert _shimura_mismatches(planted, ap)
