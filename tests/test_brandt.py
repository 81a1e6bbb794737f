from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from sympy import primerange

from brandtlift import brandt, orders
from brandtlift.brandt import BrandtModule, eigenvectors
from brandtlift.lift import lift_eigenforms

from conftest import EIGEN_170_F, EIGEN_170_G, EIGEN_174_F, EIGEN_174_G

# reference Hecke eigenvalue tables for the two newform pairs
TABLE_170_F = {3: -2, 7: 2, 11: 6, 13: 2, 19: 8, 23: -6, 29: -6, 31: 2,
               37: 2, 41: -6, 43: -4, 47: 12, 53: 6}
TABLE_170_G = {3: 3, 7: 2, 11: -4, 13: -3, 19: 3, 23: -6, 29: 9, 31: -3,
               37: -8, 41: -6, 43: 6, 47: -13, 53: -9}
TABLE_174_F = {5: -3, 7: 5, 11: 6, 13: -4, 17: 3, 19: -1, 23: 0, 31: -4,
               37: -1, 41: -9, 43: -7, 47: -3, 53: -6, 59: 3}
TABLE_174_G = {5: 2, 7: 0, 11: -4, 13: 6, 17: -2, 19: 4, 23: 0, 31: -4,
               37: -6, 41: 6, 43: -12, 47: -8, 53: -6, 59: 8}

# reference class functions, known only up to order and global sign
REF_170_F = [-4, -4, -4, -4, 5, 5, 5, 5, 5, 5, 5, 5, 2, 2,
             -1, -1, -1, -1, -1, -1, -1, -1, -10, -10]
REF_170_G = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2,
             -1, -1, -1, -1, -1, -1, -1, -1, 0, 0]
REF_174_F = [2, 2, -5, -5, -5, -5, 10, 10, 10, 10, -2, -2, -2, -2, -8, -8]
REF_174_G = [2, 2, 0, 0, 0, 0, 0, 0, 0, 0, -2, -2, -2, -2, 2, 2]


def as_multiset(vec):
    return sorted(vec)


def test_matrix_shape_and_column_sums(module174):
    # N = 3 * 58: T_p sums to p + 1, B(p) at p | 58 counts all 2p + 1 ideals
    # of norm p, and B(3) permutes the classes
    module174.brandt_matrix(29)
    for p, kind, total in ((2, "U_p", 5), (3, "U_p", 1), (5, "T_p", 6), (7, "T_p", 8),
                           (11, "T_p", 12), (29, "U_p", 59)):
        mat = module174.brandt_matrix(p)
        assert mat.kind == kind
        entries = mat.entries
        assert len(entries) == 16 and all(len(row) == 16 for row in entries)
        assert all(c >= 0 for row in entries for c in row)
        for j in range(16):
            assert sum(entries[i][j] for i in range(16)) == total


def count_pair_lattice_builds(monkeypatch) -> Counter:
    builds = Counter()
    pair_product = orders._pair_product

    def counted(lhs, rhs, shrink=1):
        builds[(lhs, rhs)] += 1
        return pair_product(lhs, rhs, shrink)

    monkeypatch.setattr(orders, "_pair_product", counted)
    return builds


def test_one_count_pass_serves_every_smaller_degree(classes174, monkeypatch):
    module = BrandtModule(classes174)
    module.brandt_matrix(19)
    builds = count_pair_lattice_builds(monkeypatch)
    primes = list(primerange(2, 20))
    read = {p: module.brandt_matrix(p) for p in primes}
    assert not builds
    for p in primes:
        assert read[p] == BrandtModule(classes174).brandt_matrix(p)


@pytest.mark.parametrize("job, degree", [
    (lambda module: module.eigenvector(EIGEN_170_F), 7),
    (lambda module: module.discover_eigensystems(), 19),
    # the form with the smaller degrees comes first by name
    (lambda module: lift_eigenforms(module, {"f": EIGEN_170_G, "g": EIGEN_170_F}, 10), 7),
], ids=["eigenvector", "discover", "lift_eigenforms"])
def test_eigen_searches_count_each_pair_lattice_once_to_their_largest_degree(
    classes170, monkeypatch, job, degree
):
    module = BrandtModule(classes170)
    builds = count_pair_lattice_builds(monkeypatch)
    units, bounds = [], []
    pair_form, vector_counts = brandt._pair_form, brandt.vector_counts

    def recorded_pair_form(lhs, rhs):
        gram, unit = pair_form(lhs, rhs)
        units.append(unit)
        return gram, unit

    def recorded_vector_counts(gram, bound):
        bounds.append(bound)
        return vector_counts(gram, bound)

    monkeypatch.setattr(brandt, "_pair_form", recorded_pair_form)
    monkeypatch.setattr(brandt, "vector_counts", recorded_vector_counts)
    job(module)
    h = classes170.h
    assert len(builds) == h * (h + 1) // 2
    assert set(builds.values()) == {1}
    assert len(bounds) == len(units) == len(builds)
    assert all(bound <= degree * unit for bound, unit in zip(bounds, units))


def test_ramified_and_level_matrices(module174):
    assert module174.brandt_matrix(3).kind == "U_p"
    assert module174.brandt_matrix(2).kind == "U_p"
    assert module174.brandt_matrix(7).kind == "T_p"


def test_matrix_caching_and_prime_check(module174):
    assert module174.brandt_matrix(7) is module174.brandt_matrix(7)
    with pytest.raises(ValueError):
        module174.brandt_matrix(1)
    with pytest.raises(ValueError):
        module174.brandt_matrix(6)


def test_hecke_matrices_commute(module174):
    a = module174.brandt_matrix(5).entries
    b = module174.brandt_matrix(7).entries
    n = len(a)
    ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    ba = [[sum(b[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert ab == ba


def test_self_adjoint_for_weighted_pairing(module174):
    # G B = B^t G with G = diag(w): self-adjointness of T_p
    w = module174.classes.weights
    b = module174.brandt_matrix(7).entries
    n = len(w)
    for i in range(n):
        for j in range(n):
            assert w[i] * b[i][j] == b[j][i] * w[j]


def test_eisenstein_vector(module170, module174):
    for module, p in ((module170, 3), (module174, 5)):
        # entries proportional to 1/w_i
        w = module.classes.weights
        e = [lcm(*w) // wi for wi in w]
        b = module.brandt_matrix(p).entries
        n = len(e)
        image = [sum(b[i][j] * e[j] for j in range(n)) for i in range(n)]
        assert image == [(p + 1) * x for x in e]
        # all-ones is the corresponding left eigenvector
        assert all(sum(b[i][j] for i in range(n)) == p + 1 for j in range(n))


def test_eigenvalues_170(module170, phi170_f, phi170_g):
    for phi, table in ((phi170_f, TABLE_170_F), (phi170_g, TABLE_170_G)):
        for p, ap in table.items():
            assert module170.eigenvalue_of(phi, p) == ap


def test_eigenvalues_174(module174, phi174_f, phi174_g):
    for phi, table in ((phi174_f, TABLE_174_F), (phi174_g, TABLE_174_G)):
        for p, ap in table.items():
            assert module174.eigenvalue_of(phi, p) == ap


def test_ramified_eigenvalues(module170, module174, phi170_f, phi170_g, phi174_f, phi174_g):
    # U_p eigenvalue is minus the Atkin-Lehner sign
    for phi in (phi170_f, phi170_g):
        assert module170.eigenvalue_of(phi, 2) == -1
        assert module170.eigenvalue_of(phi, 5) == -1
        assert module170.eigenvalue_of(phi, 17) == 1
    for phi in (phi174_f, phi174_g):
        assert module174.eigenvalue_of(phi, 2) == -1
        assert module174.eigenvalue_of(phi, 3) == 1
        assert module174.eigenvalue_of(phi, 29) == -1


def test_atkin_lehner_signs(module170, module174, phi170_f, phi170_g, phi174_f, phi174_g):
    for phi in (phi170_f, phi170_g):
        assert [module170.atkin_lehner_sign(phi, p) for p in (2, 5, 17)] == [1, 1, -1]
    for phi in (phi174_f, phi174_g):
        assert [module174.atkin_lehner_sign(phi, p) for p in (2, 3, 29)] == [1, -1, 1]
    with pytest.raises(ValueError):
        module170.atkin_lehner_sign(phi170_f, 3)


def test_eigenvector_matches_reference_up_to_symmetry(phi170_f, phi170_g, phi174_f, phi174_g):
    assert as_multiset(phi170_f) == as_multiset(REF_170_F)
    assert as_multiset(phi170_g) == as_multiset(REF_170_G)
    # the reference 174 f-vector has the opposite global sign
    assert as_multiset([-x for x in phi174_f]) == as_multiset(REF_174_F)
    # the reference 174 g-vector is twice a primitive one
    assert as_multiset([2 * x for x in phi174_g]) == as_multiset(REF_174_G)


def test_eigenvectors_are_primitive_and_cuspidal(phi170_f, phi170_g, phi174_f, phi174_g):
    from math import gcd
    for phi in (phi170_f, phi170_g, phi174_f, phi174_g):
        assert gcd(*phi) == 1
        nz = next(x for x in phi if x)
        assert nz > 0
        assert sum(phi) == 0


def test_pairings(module170, module174, phi170_f, phi170_g, phi174_f, phi174_g):
    assert module170.pairing(phi170_f, phi170_f) == 960
    assert module170.pairing(phi170_g, phi170_g) == 40
    assert module170.pairing(phi170_f, phi170_g) == 0
    assert module174.pairing(phi174_f, phi174_f) == 1320
    assert module174.pairing(phi174_g, phi174_g) == 20
    assert module174.pairing(phi174_f, phi174_g) == 0
    with pytest.raises(ValueError):
        module170.pairing(phi170_f, [1, 2, 3])


def test_pairing_with_rationals(module174, phi174_g):
    half = [Fraction(x, 2) for x in phi174_g]
    assert module174.pairing(half, half) == 5


def test_eigenvector_error_paths(module170):
    with pytest.raises(ValueError, match="no such eigenform"):
        module170.eigenvector([(3, 100)])
    with pytest.raises(ValueError, match="underdetermined"):
        module170.eigenvector([(3, -2)])
    with pytest.raises(ValueError, match="at least one"):
        module170.eigenvector([])


def test_eigenvalue_of_error_paths(module170, phi170_f):
    with pytest.raises(ValueError, match="zero vector"):
        module170.eigenvalue_of([0] * 24, 3)
    w = module170.classes.weights
    mixed = [a + lcm(*w) // wi for a, wi in zip(phi170_f, w)]
    with pytest.raises(ValueError, match="not a B"):
        module170.eigenvalue_of(mixed, 3)
    # a vector of the wrong length is rejected, neither truncated nor read past
    with pytest.raises(ValueError, match="length h=24, got 25"):
        module170.eigenvalue_of(phi170_f + [7], 3)
    with pytest.raises(ValueError, match="length h=24, got 23"):
        module170.eigenvalue_of(phi170_f[:-1], 3)


def test_eigendata_cuts_are_minimal(module170, module174, phi170_f, phi174_f):
    # dropping the last constraint of the 170 f cut leaves a bigger space
    with pytest.raises(ValueError, match="underdetermined"):
        module170.eigenvector(EIGEN_170_F[:1])
    # the full tables select the same vectors as the minimal cuts
    assert module170.eigenvector(sorted(TABLE_170_F.items())) == phi170_f
    assert module174.eigenvector(sorted(TABLE_174_F.items())) == phi174_f


def test_module_level_and_free_function(module170, phi170_g):
    assert module170.level == 170
    assert eigenvectors(module170, EIGEN_170_G) == phi170_g


def test_discover_finds_both_newforms(module174, phi174_f, phi174_g):
    found = module174.discover_eigensystems()
    vectors = [vec for _, vec in found]
    assert phi174_f in vectors
    assert phi174_g in vectors
    # the primitive vector with entries proportional to 1/w_i
    w = module174.classes.weights
    assert [lcm(*w) // wi for wi in w] in vectors
    for system, vec in found:
        for p, ap in system.items():
            assert module174.eigenvalue_of(vec, p) == ap
        # the eigendata path cuts out the same vector from the full system
        assert module174.eigenvector(sorted(system.items())) == vec
