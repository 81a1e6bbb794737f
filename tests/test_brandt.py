from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from sympy import prevprime, primefactors, primerange

from brandtlift import brandt, orders
from brandtlift.brandt import BrandtModule, eigenvectors
from brandtlift.congruence import check_eigenvalue_congruence, sturm_bound
from brandtlift.lift import lift_eigenforms

from reference_kernels import ref_brandt_matrices
from conftest import (
    EIGEN_170_F,
    EIGEN_170_G,
    EIGEN_174_F,
    EIGEN_174_G,
    EIGEN_222_F,
    EIGEN_222_G,
)

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


def rows_counted_to(module, p):
    return sorted(i for i, rows in module._rows.items() if p in rows)


def record_count_bounds(monkeypatch) -> list:
    """The bound of every vector_counts call that BrandtModule makes from now on."""
    bounds = []
    vector_counts = brandt.vector_counts

    def counted(gram, bound):
        bounds.append(bound)
        return vector_counts(gram, bound)

    monkeypatch.setattr(brandt, "vector_counts", counted)
    return bounds


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
    units, bounds = [], record_count_bounds(monkeypatch)
    pair_form = brandt._pair_form

    def recorded_pair_form(lhs, rhs):
        gram, unit = pair_form(lhs, rhs)
        units.append(unit)
        return gram, unit

    monkeypatch.setattr(brandt, "_pair_form", recorded_pair_form)
    job(module)
    h = classes170.h
    # one pair lattice per orbit of the W_p on the pairs, its key: 52 of the
    # h(h+1)/2 = 300 pairs.  The 28 keys (i, i) and (0, j) take the Grams
    # that the class walk reduced; the other 24 are built, and so are the
    # products I_i J_p of the Atkin-Lehner orbit map, once each: its orbits
    # of t = 8, 8, 4, 2 and 2 classes, under the 8 elements of the group G,
    # cost t - 1 + dim H = 7, 7, 4, 3 and 3 products, 24 in all, not 3h
    keys = list(module._forms)
    assert len(keys) == 52
    assert len([key for key in keys if key[0] in (0, key[1])]) == 28
    assert len(units) == 24
    assert h == 24
    assert len(builds) == 24 + 24
    assert set(builds.values()) == {1}
    # every key is counted once, in the order its form was kept
    forms = list(module._forms.values())
    assert len(bounds) == len(forms)
    assert all(bound <= degree * unit for bound, (_, unit) in zip(bounds, forms))


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


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_hecke_matrices_commute(module174):
    a = module174.brandt_matrix(5).entries
    b = module174.brandt_matrix(7).entries
    assert mat_mul(a, b) == mat_mul(b, a)


# the three levels of the congruence checks, with the eigendata of f and g
CHECK_LEVELS = {170: (EIGEN_170_F, EIGEN_170_G), 174: (EIGEN_174_F, EIGEN_174_G),
                222: (EIGEN_222_F, EIGEN_222_G)}


@pytest.mark.parametrize("level", CHECK_LEVELS)
def test_ramified_matrix_is_an_involutive_permutation(request, level):
    module = request.getfixturevalue(f"module{level}")
    b = module.brandt_matrix(module.classes.q).entries
    h = module.h
    assert all(sorted(row) == [0] * (h - 1) + [1] for row in b)
    assert all(sorted(col) == [0] * (h - 1) + [1] for col in zip(*b))
    assert mat_mul(b, b) == [[int(i == j) for j in range(h)] for i in range(h)]


@pytest.mark.parametrize("level", CHECK_LEVELS)
def test_ramified_matrix_commutes_with_the_small_degrees(request, level):
    module = request.getfixturevalue(f"module{level}")
    b_q = module.brandt_matrix(module.classes.q).entries
    module.brandt_matrix(13)
    for p in primerange(2, 14):
        b_p = module.brandt_matrix(p).entries
        assert mat_mul(b_q, b_p) == mat_mul(b_p, b_q), p


def certified_pair(classes, level):
    """A fresh module, counted only to the eigendata's degrees, and its f and g lines."""
    module = BrandtModule(classes)
    return module, [module.eigenvector(data) for data in CHECK_LEVELS[level]]


def full_matrix_eigenvalue(module, phi, p):
    """The B(p) eigenvalue of phi from every row of the full matrix."""
    image = [sum(b * x for b, x in zip(row, phi)) for row in module.brandt_matrix(p).entries]
    k = next(k for k, x in enumerate(phi) if x)
    assert image == [image[k] // phi[k] * x for x in phi], p
    return image[k] // phi[k]


@pytest.mark.parametrize("level", CHECK_LEVELS)
def test_row_eigenvalues_match_the_full_matrices(request, level):
    full = request.getfixturevalue(f"module{level}")
    module, phis = certified_pair(full.classes, level)
    cached = set(module._matrices)
    top = prevprime(max(sturm_bound(2, level), 20) + 1)
    primes = list(primerange(2, top + 1))
    full.brandt_matrix(top)
    expected = [{p: full_matrix_eigenvalue(full, phi, p) for p in primes} for phi in phis]
    assert [module.eigenvalues(phi, primes) for phi in phis] == expected
    for p in primes:
        for phi, table in zip(phis, expected):
            a = table[p]
            assert module.eigenvalue_of(phi, p) == a, (p, phi)
            # any nonzero multiple of a certified vector is read from rows too
            assert module.eigenvalue_of([-3 * x for x in phi], p) == a
    # two rows served both forms at every degree past the eigendata; the
    # others stay at the eigendata's degree, and no full matrix is made
    assert set(module._matrices) == cached
    reached = rows_counted_to(module, top)
    assert len(reached) == 2
    assert all(set(module._rows[i]) == set(primerange(2, top + 1)) for i in reached)
    degree = max(p for data in CHECK_LEVELS[level] for p, _ in data)
    assert len(module._rows) == module.h
    assert all(set(rows) == set(primerange(2, degree + 1))
               for i, rows in module._rows.items() if i not in reached)


def test_read_ahead_counts_the_shared_pair_lattice_once(request, monkeypatch):
    # f and g read in two calls, each at the top degree alone: f counts two
    # rows nonzero on both certified lines, and g reads the same two
    bounds = record_count_bounds(monkeypatch)
    expected = {170: ((1, 3), 22), 174: ((1, 6), 21)}
    for level in expected:
        classes = request.getfixturevalue(f"classes{level}")
        module, phis = certified_pair(classes, level)
        top = prevprime(max(sturm_bound(2, level), 20) + 1)
        bounds.clear()
        for phi in phis:
            module.eigenvalues(phi, [top])
        # each key of the 2h - 1 pairs of the two rows is counted once: 22
        # keys at N=170 and 21 at N=174.  The second row is outside the W_p
        # orbit of the first, row 1: the orbit's row 2 reads the same counts
        (first, second), size = expected[level]
        assert rows_counted_to(module, top) == [first, second]
        assert module._key(second, second) != module._key(first, first) == module._key(2, 2)
        assert len({module._key(i, k) for i in (first, second) for k in range(classes.h)}) == len(bounds) == size


def test_full_matrix_after_a_read_ahead_reads_the_two_rows_counted(classes170, monkeypatch):
    # B(53) is its h rows: the two that the reads of f and g at 53 counted
    # are kept, and the other rows read the 22 keys of those two counted
    module, phis = certified_pair(classes170, 170)
    for phi in phis:
        module.eigenvalues(phi, [53])
    bounds = record_count_bounds(monkeypatch)
    mat = module.brandt_matrix(53)
    assert len(bounds) == len(module._forms) - 22 == 30
    assert mat.entries == ref_brandt_matrices(classes170, 53)[53]


# {(level, top): ref_brandt_matrices(classes, top)}, shared by the tests below
REFERENCE = {}


def reference(request, level, top):
    if (level, top) not in REFERENCE:
        classes = request.getfixturevalue(f"classes{level}")
        REFERENCE[level, top] = ref_brandt_matrices(classes, top)
    return REFERENCE[level, top]


@pytest.mark.parametrize("level, top", [(170, 19), (174, 19), (222, 19), (174, 59), (330, 13)])
def test_matrices_match_the_all_pairs_reference(request, level, top):
    # degrees asked in increasing order: each asks every row to count further;
    # N=330 = 3 * 2 * 5 * 11 has h=36 and 16 Atkin-Lehner elements
    classes = request.getfixturevalue(f"classes{level}")
    module, ref = BrandtModule(classes), reference(request, level, top)
    for r in primerange(2, top + 1):
        assert module.brandt_matrix(r).entries == ref[r], r


def atkin_lehner(classes) -> dict:
    """{p: W_p} at every p | N, as class permutations: W_p is G[1 << b], p the b-th prime."""
    group = classes._atkin_lehner()
    return {p: group[1 << b] for b, p in enumerate(primefactors(classes.q * classes.M))}


@pytest.mark.parametrize("level", CHECK_LEVELS)
def test_atkin_lehner_involutions_commute_with_the_reference_matrices(request, level):
    # the all-pairs reference counts every pair lattice, with no W_p orbits:
    # the W_p are commuting involutions, each commuting with every B(n),
    # n <= 19, and B(q) is the permutation matrix of W_q
    classes = request.getfixturevalue(f"classes{level}")
    ref, h = reference(request, level, 19), classes.h
    perms = atkin_lehner(classes)
    assert len(perms) == 3
    assert all(u[v[i]] == v[u[i]] for u in perms.values() for v in perms.values() for i in range(h))
    for p, w in perms.items():
        assert all(w[w[i]] == i for i in range(h)), p
        for n in primerange(2, 20):
            assert all(ref[n][w[i]][w[j]] == ref[n][i][j] for i in range(h) for j in range(h)), (p, n)
    w = perms[classes.q]
    assert ref[classes.q] == tuple(tuple(int(i == w[j]) for j in range(h)) for i in range(h))


@pytest.mark.parametrize("level", CHECK_LEVELS)
def test_level_matrices_are_minus_the_atkin_lehner_involutions_on_discovered_newforms(request, level):
    # at p | M, B(p) phi = -W_p phi on every line that discover reports but
    # the Eisenstein line, on which B(p) is 2p + 1 and W_p is 1
    module = request.getfixturevalue(f"module{level}")
    classes, h = module.classes, module.h
    perms = atkin_lehner(classes)
    found = module.discover_eigensystems()
    w = classes.weights
    eisenstein = [lcm(*w) // wi for wi in w]
    assert eisenstein in [vec for _, vec in found] and len(found) > 1
    for p in primefactors(classes.M):
        b = module.brandt_matrix(p).entries
        for _, phi in found:
            image = [sum(x * y for x, y in zip(row, phi)) for row in b]
            moved = [phi[perms[p][i]] for i in range(h)]
            if phi == eisenstein:
                assert image == [(2 * p + 1) * x for x in phi] and moved == phi
            else:
                assert image == [-x for x in moved], (p, phi)


def test_uncertified_vectors_keep_the_full_check(classes174):
    module, (phi_f, phi_g) = certified_pair(classes174, 174)
    # an eigenvector of B(2) and B(3), not of B(5): no line eigenvector certified
    mixed = [a + b for a, b in zip(phi_f, phi_g)]
    with pytest.raises(ValueError, match="not a B\\(5\\) eigenvector"):
        check_eigenvalue_congruence(module, phi_f, mixed, 5)
    # read alone up to the Sturm prime, it still fails first at B(5)
    with pytest.raises(ValueError, match="not a B\\(5\\) eigenvector"):
        module.eigenvalues(mixed, primerange(2, sturm_bound(2, 174) + 1))
    with pytest.raises(ValueError, match="not a B\\(7\\) eigenvector"):
        module.eigenvalue_of(mixed, 7)
    # the full check counted every row to 7
    assert 7 in module._matrices and rows_counted_to(module, 7) == list(range(module.h))


def plant_counts(monkeypatch, module, extras):
    """Add extras[i, j] elements at the largest norm counted in the key of (i, j), from now on.

    A key's counts serve every pair of its orbit (BrandtModule._key).
    """
    planted = Counter()
    for ij, extra in extras.items():
        planted[id(module._forms[module._key(*ij)][0])] += extra
    vector_counts = brandt.vector_counts

    def planted_counts(gram, bound):
        counts = dict(vector_counts(gram, bound))
        if id(gram) in planted:
            counts[bound] = counts.get(bound, 0) + planted[id(gram)]
        return counts

    monkeypatch.setattr(brandt, "vector_counts", planted_counts)


@pytest.mark.parametrize("plant, match", [
    ("unit_orbit", "unit orbits do not divide the counts of row"),
    ("column_sum", "column sum .* read from row"),
    ("moved", "B\\([0-9]+\\) give"),
])
@pytest.mark.parametrize("level", CHECK_LEVELS)
def test_planted_row_count_fails_the_row_certificate(request, monkeypatch, level, plant, match):
    # every pair lattice has been counted to the eigendata's degrees; the
    # plant alters the counts at norm P of the row passes that follow
    classes = request.getfixturevalue(f"classes{level}")
    module, (phi_f, phi_g) = certified_pair(classes, level)
    top = prevprime(sturm_bound(2, level) + 1)
    w, h = classes.weights, classes.h
    # the rows read are the first where both forms are nonzero and the next
    # such row outside its W_p orbit
    both = [k for k in range(h) if phi_f[k] and phi_g[k]]
    read = [both[0], next(k for k in both if module._key(k, k) != module._key(both[0], both[0]))]
    i = read[0]
    if plant == "moved":
        # lcm(w) elements move from the key of (i, k2) to the key of (i, k):
        # each key's counts serve every pair of its orbit, so in each row
        # read the pairs of the two keys must weigh the same, sum 1 / w_x;
        # every column sum stays, row i and phi_f no longer agree
        def pairs(r, key):
            return [x for x in range(h) if module._key(r, x) == key]

        def moved(k, k2):
            a, b = module._key(i, k), module._key(i, k2)
            return a != b and all(
                sum(Fraction(1, w[x]) for x in pairs(r, a)) == sum(Fraction(1, w[x]) for x in pairs(r, b))
                for r in read
            ) and sum(phi_f[x] for x in pairs(i, a)) != sum(phi_f[x] for x in pairs(i, b))

        k, k2 = next((k, k2) for k in range(h) for k2 in range(h)
                     if {k, k2}.isdisjoint(read) and moved(k, k2))
        shift = {k: lcm(*w), k2: -lcm(*w)}
    else:
        k = next(k for k in range(h) if k not in read)
        shift = {k: 1 if plant == "unit_orbit" else lcm(w[i], w[k])}
    plant_counts(monkeypatch, module, {(i, j): extra for j, extra in shift.items()})
    with pytest.raises(RuntimeError, match=match):
        check_eigenvalue_congruence(module, phi_f, phi_g, 5)


@pytest.mark.parametrize("i, extras", [
    # 2 more in I_0 conj(I_1): w_0 = 2 divides them and the column sum floors
    # them away; only w_1 = 4 shows them
    (0, {(0, 1): 2}),
    # 2 moved from I_1 conj(I_3) to I_1 conj(I_0), w_0 = w_3 = 2: the column
    # sum stays; only w_1 = 4 shows them
    (1, {(1, 0): 2, (1, 3): -2}),
])
def test_row_pass_checks_both_unit_weights(classes174, monkeypatch, i, extras):
    module = BrandtModule(classes174)
    module.brandt_matrix(5)
    assert classes174.weights[:4] == [2, 4, 4, 2]
    plant_counts(monkeypatch, module, extras)
    with pytest.raises(RuntimeError, match=f"unit orbits do not divide the counts of row {i} of B\\(59\\)"):
        module._row(i, 59)


@pytest.mark.parametrize("extra, match", [
    (1, "unit orbits do not divide the counts of row 0 of B\\(59\\)"),
    # lcm(w_0, w_1) = 4 more: row 0 still divides, column 0 sums to 61
    (4, "B\\(59\\) column sum 61 != 60 at j=0"),
])
def test_full_matrix_rows_carry_the_same_certificate(classes174, monkeypatch, extra, match):
    module = BrandtModule(classes174)
    module.brandt_matrix(5)
    plant_counts(monkeypatch, module, {(0, 1): extra})
    with pytest.raises(RuntimeError, match=match):
        module.brandt_matrix(59)


@pytest.mark.parametrize("level", CHECK_LEVELS)
def test_walk_forms_give_the_matrices_of_built_pair_lattices(request, level):
    # the pairs (i, i) and (0, j) count the walk's left orders and reps; a
    # module that builds every pair lattice I_i conj(I_j) gets the same B(p)
    classes = request.getfixturevalue(f"classes{level}")
    module, built = BrandtModule(classes), BrandtModule(classes)
    built._form = lambda i, j: brandt._pair_form(classes.reps[i], classes.reps[j])
    module.brandt_matrix(19)
    built.brandt_matrix(19)
    for p in primerange(2, 20):
        assert module.brandt_matrix(p) == built.brandt_matrix(p), p
    h = classes.h
    # an orbit of pairs (i, i), or with a pair (0, j), has one as its key
    assert all(module._key(i, i)[0] == module._key(i, i)[1] for i in range(h))
    assert all(module._key(0, j)[0] == 0 for j in range(h))
    diagonal = [i for i in range(h) if (i, i) in module._forms]
    rows = [j for j in range(1, h) if (0, j) in module._forms]
    assert len(diagonal) == {170: 5, 174: 5, 222: 4}[level]
    assert len(rows) == {170: 23, 174: 10, 222: 7}[level]
    assert all(module._forms[i, i][0] is classes.right_orders[i].reduced_gram()[0] for i in diagonal)
    assert all(module._forms[0, j][0] is classes.reps[j].reduced_gram()[0] for j in rows)


@pytest.mark.parametrize("key", [(0, 0), (0, 1), (6, 6)])
def test_form_with_the_wrong_unit_fails_the_divisibility_check(classes174, key):
    # a unit twice too large: the elements of norm n Nm_i Nm_j with n odd
    # fall off its lattice of values, and python -O keeps the check; each
    # pair is the key of its orbit, so its form is the one counted
    module = BrandtModule(classes174)
    assert module._key(*key) == key
    gram, unit = module._form(*key)
    module._forms[key] = (gram, 2 * unit)
    with pytest.raises(RuntimeError, match=f"an element of I_{key[0]} conj\\(I_{key[1]}\\) has a norm outside"):
        module.brandt_matrix(7)


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
    # a composite degree is rejected on the certified line and off it
    for phi in (phi170_f, mixed):
        with pytest.raises(ValueError, match="need a prime degree, got 4"):
            module170.eigenvalue_of(phi, 4)
    with pytest.raises(ValueError, match="need a prime degree, got 4"):
        module170.eigenvalues(phi170_f, [3, 4])


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


@pytest.mark.parametrize(
    "level, form",
    [
        (174, "f"),
        (174, "g"),
        (170, "f"),
        pytest.param(
            170,
            "g",
            marks=pytest.mark.xfail(
                strict=True,
                reason="discover tries a_p only in [-2 isqrt(p), 2 isqrt(p)], "
                "narrower than the Ramanujan bound: N=170's g has a_3 = 3",
            ),
        ),
    ],
)
def test_discover_finds_both_newforms(request, level, form):
    module = request.getfixturevalue(f"module{level}")
    found = module.discover_eigensystems()
    vectors = [vec for _, vec in found]
    # the primitive vector with entries proportional to 1/w_i
    w = module.classes.weights
    assert [lcm(*w) // wi for wi in w] in vectors
    for system, vec in found:
        for p, ap in system.items():
            assert module.eigenvalue_of(vec, p) == ap
        # the eigendata path cuts out the same vector from the full system
        assert module.eigenvector(sorted(system.items())) == vec
    assert request.getfixturevalue(f"phi{level}_{form}") in vectors
