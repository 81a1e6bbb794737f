import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import factorint, primerange

from brandtlift import orders
from brandtlift.linalg import clear_denominators, greedy_reduce, hnf, mat_inv, rref_mod, vec_mat
from brandtlift.orders import (
    ClassSet,
    OrderLattice,
    _level_raise,
    _neighbors,
    _pair_product,
    _projective_points,
    _reduce_ideal,
    _reduced_forms,
    _right_action_matrices,
    _right_order,
    _split_idempotent,
    _two_sided_prime,
    eichler_mass,
    eichler_order,
    equivalent_ideals,
    ideal_norm,
    maximal_order,
    right_ideal_classes,
    standard_order,
    unit_weight,
)
from brandtlift.qalg import AlgebraPresentation, choose_presentation
from brandtlift.shortvec import vector_counts
from brandtlift.theta import canonical_gram, trace_zero_lattice

from conftest import build_classes
from reference_kernels import ref_atkin_lehner, ref_equivalent_ideals, ref_generator, ref_minimal_vector, ref_right_order


def test_maximal_order_discriminants():
    for q in (2, 3, 17):
        alg = choose_presentation(q)
        order = maximal_order(alg)
        assert order.is_order()
        assert order.reduced_discriminant() == q


def test_eichler_order_discriminants():
    for q, m in ((17, 10), (3, 58), (2, 15)):
        base = eichler_order(maximal_order(choose_presentation(q)), m)
        assert base.is_order()
        assert base.reduced_discriminant() == q * m


def test_eichler_mass_values():
    assert eichler_mass(2, 1) == Fraction(1, 24)
    assert eichler_mass(11, 1) == Fraction(5, 12)
    assert eichler_mass(17, 10) == 12
    assert eichler_mass(3, 58) == Fraction(15, 2)


def test_class_set_hurwitz():
    # the maximal order at 2 is the unique class, 24 units
    cs = build_classes(2, 1)
    assert cs.h == 1
    assert cs.weights == [24]
    assert cs.mass == Fraction(1, 24)


def test_class_set_eleven():
    # classical: two classes, unit groups of order 4 and 6
    cs = build_classes(11, 1)
    assert cs.h == 2
    assert sorted(cs.weights) == [4, 6]
    assert cs.mass == Fraction(5, 12)


def test_class_set_170(classes170):
    assert isinstance(classes170, ClassSet)
    assert (classes170.q, classes170.M) == (17, 10)
    assert classes170.h == 24
    assert classes170.weights == [2] * 24
    assert classes170.mass == 12
    assert sum(Fraction(1, w) for w in classes170.weights) == classes170.mass


def test_class_set_174(classes174):
    assert (classes174.q, classes174.M) == (3, 58)
    assert classes174.h == 16
    assert sorted(classes174.weights) == [2] * 14 + [4, 4]
    assert classes174.mass == Fraction(15, 2)
    assert sum(Fraction(1, w) for w in classes174.weights) == classes174.mass


def test_base_class_first(classes174):
    first = classes174.reps[0]
    assert first.norm == 1
    assert first.is_order()


@pytest.mark.parametrize("level", [11, 170, 174, 222, 2, 3, 139])
def test_weights_match_unit_counts(level, request):
    # the walk reads each weight off the rep's minimal vectors; q = 2 and
    # q = 3 with m = 1 have the one class O, with 24 and 12 units
    if level in (170, 174, 222, 139):
        classes = request.getfixturevalue(f"classes{level}")
    else:
        classes = build_classes(level, 1)
    assert classes.weights == [unit_weight(order) for order in classes.right_orders]
    assert level not in (2, 3) or classes.weights == [{2: 24, 3: 12}[level]]


def test_ideal_norms_recorded(classes170):
    base = classes170.reps[0]
    for rep in classes170.reps:
        assert ideal_norm(rep, base) == rep.norm


def test_class_representatives_inequivalent(classes174):
    reps = classes174.reps[:5]
    for i, lhs in enumerate(reps):
        for j, rhs in enumerate(reps):
            assert equivalent_ideals(lhs, rhs) == (i == j)


def test_equivalence_rejects_lattices_without_an_int_norm(classes170):
    rep = classes170.reps[3]
    overorder = maximal_order(classes170.presentation)
    five_halves = OrderLattice.from_rows(rep.alg, 2 * rep.den, [[5 * x for x in r] for r in rep.rows])
    thrice = OrderLattice.from_rows(rep.alg, rep.den, [[3 * x for x in r] for r in rep.rows])
    for lhs, rhs in ((rep, five_halves), (thrice, rep), (rep, overorder)):
        with pytest.raises(ValueError, match="int norms"):
            equivalent_ideals(lhs, rhs)


def test_equivalence_survives_left_multiplication(classes170):
    i = 3
    rep, order = classes170.reps[i], classes170.right_orders[i]
    # x in O_L(I) with Nm(x) > 1, so x I is an integral ideal of norm Nm(x) Nm(I)
    basis = _ref_basis(order)
    x = next(
        x
        for x in (basis[m] + basis[n] for m in range(4) for n in range(m, 4))
        if x.norm() > 1
    )
    xrep = ref_mul_element(rep, x, "left")
    xrep = OrderLattice(xrep.alg, xrep.den, xrep.rows, int(x.norm()) * rep.norm)
    assert xrep != rep
    # x I lies in I, so it is integral, and its right order is that of I
    assert all(rep._solve(r, xrep.den) is not None for r in xrep.rows)
    assert _right_order(xrep) == ref_right_order(xrep) == classes170.reps[0]
    for j, other in enumerate(classes170.reps):
        assert equivalent_ideals(other, xrep) == (j == i)
        assert equivalent_ideals(xrep, other) == (j == i)


# the unsupported input of equivalent_ideals: the N=170 reps, right ideals of
# the Eichler order, against the maximal order above it as an ideal of norm 1
_OTHER_ORDER_REPRO = """
from brandtlift.orders import OrderLattice, eichler_order, equivalent_ideals
from brandtlift.orders import maximal_order, right_ideal_classes
from brandtlift.qalg import choose_presentation
mx = maximal_order(choose_presentation(17))
reps = right_ideal_classes(eichler_order(mx, 10)).reps[:4]
other = OrderLattice(mx.alg, mx.den, mx.rows, 1)
for rep in reps:
    for lhs, rhs in ((rep, other), (other, rep)):
        try:
            print(equivalent_ideals(lhs, rhs))
        except ValueError as exc:
            print("ValueError", exc)
"""


def test_equivalence_rejects_ideals_of_different_orders(classes170):
    mx = maximal_order(classes170.presentation)
    # plus the right ideals of the level-34 Eichler order above the level-170 one
    others = [OrderLattice(mx.alg, mx.den, mx.rows, 1)] + build_classes(17, 2).reps
    for rep in classes170.reps[:4]:
        for other in others:
            for lhs, rhs in ((rep, other), (other, rep)):
                with pytest.raises(ValueError, match="one order"):
                    equivalent_ideals(lhs, rhs)


def test_equivalence_rejects_ideals_of_different_orders_under_O():
    # -O strips assert statements: the check must not be one
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", _OTHER_ORDER_REPRO],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.splitlines() == ["ValueError equivalent_ideals needs right ideals of one order"] * 8


def test_reduced_discriminant_rejects_non_orders():
    alg = AlgebraPresentation(-1, -3)
    # 1/2 Z<1, i, j, k>: trace form determinant 9/16
    half = OrderLattice(alg, 2, standard_order(alg).rows)
    with pytest.raises(ValueError, match="not an integer square"):
        half.reduced_discriminant()
    # a trace form of determinant 48, an integer but not a square
    planted = OrderLattice(alg, 1, standard_order(alg).rows)
    planted._gram = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 6]]
    with pytest.raises(ValueError, match="not an integer square"):
        planted.reduced_discriminant()
    assert standard_order(alg).reduced_discriminant() == 12


def test_order_arithmetic_roundtrip():
    order = maximal_order(choose_presentation(3))
    assert order.conjugated().conjugated() == order
    assert order.multiply(order) == order


def test_class_set_json_shape(classes174):
    doc = classes174.to_json_dict()
    assert doc["q"] == 3 and doc["M"] == 58
    assert doc["h"] == 16 == len(doc["classes"])
    assert doc["presentation"] == {"a": -1, "b": -3}
    for entry in doc["classes"]:
        assert set(entry) == {"ideal_basis", "right_order_basis", "weight"}
        assert len(entry["ideal_basis"]) == 4
        # entries must parse back as exact rationals
        Fraction(entry["ideal_basis"][0][0])
    assert [e["weight"] for e in doc["classes"]] == classes174.weights


# Reference: the element-based Fraction route (products of QuaternionElement
# bases, coordinates through mat_inv), independent of the integer-row code and
# with its own copy of the product formula.


def ref_mul(a, b, u, v):
    """The quaternion product formula, kept here independent of the library."""
    a, b = Fraction(a), Fraction(b)
    t1, x1, y1, z1 = u
    t2, x2, y2, z2 = v
    return (
        t1 * t2 + a * x1 * x2 + b * y1 * y2 - a * b * z1 * z2,
        t1 * x2 + x1 * t2 - b * y1 * z2 + b * z1 * y2,
        t1 * y2 + y1 * t2 + a * x1 * z2 - a * z1 * x2,
        t1 * z2 + x1 * y2 - y1 * x2 + z1 * t2,
    )


def _conj(u):
    return (u[0], -u[1], -u[2], -u[3])


def _ref_times(x, y):
    alg = x.alg
    return alg.element(*ref_mul(alg.a, alg.b, x.coeffs, y.coeffs))


def _ref_trace_of_product(x, y):
    """tr(x conj(y)) for two elements, through the reference product."""
    return _ref_times(x, y.conjugate()).trace()


def _from_elements(alg, elems):
    den, flat = clear_denominators([c for e in elems for c in e.coeffs])
    return OrderLattice.from_rows(alg, den, [flat[k : k + 4] for k in range(0, len(flat), 4)])


def _ref_basis(latt):
    return [latt.alg.element(*(Fraction(x, latt.den) for x in row)) for row in latt.rows]


def ref_gram(latt):
    elems = [latt.alg.element(*row) for row in latt.rows]
    gram = [[_ref_trace_of_product(x, y) for y in elems] for x in elems]
    assert all(v.denominator == 1 for row in gram for v in row)
    return [[int(v) for v in row] for row in gram]


def ref_multiply(lhs, rhs):
    prods = [_ref_times(x, y) for x in _ref_basis(lhs) for y in _ref_basis(rhs)]
    return _from_elements(lhs.alg, prods)


def ref_mul_element(latt, x, side):
    bas = _ref_basis(latt)
    elems = [_ref_times(v, x) for v in bas] if side == "right" else [_ref_times(x, v) for v in bas]
    return _from_elements(latt.alg, elems)


def ref_coordinates(latt, elem):
    basis = [[Fraction(x, latt.den) for x in row] for row in latt.rows]
    return vec_mat(list(elem.coeffs), mat_inv(basis))


def ref_dual(latt):
    inv = mat_inv([list(row) for row in latt.rows])
    den, flat = clear_denominators([latt.den * inv[j][i] for i in range(4) for j in range(4)])
    return OrderLattice.from_rows(latt.alg, den, [flat[k : k + 4] for k in range(0, 16, 4)])


def ref_intersect(lhs, rhs):
    duals = ref_dual(lhs), ref_dual(rhs)
    d = lcm(*(latt.den for latt in duals))
    rows = [[x * (d // latt.den) for x in row] for latt in duals for row in latt.rows]
    return ref_dual(OrderLattice.from_rows(lhs.alg, d, rows))


def ref_colon_order(latt, side):
    """{x : x L in L} for side "right" (the left order), {x : L x in L} for "left"."""
    cands = (ref_mul_element(latt, v.inverse(), side) for v in _ref_basis(latt))
    return reduce(ref_intersect, cands)


def ref_is_order(latt):
    def contains(elem):
        return all(c.denominator == 1 for c in ref_coordinates(latt, elem))

    bas = _ref_basis(latt)
    return contains(latt.alg.one()) and all(contains(_ref_times(x, y)) for x in bas for y in bas)


def ref_trace_zero_gram(order):
    alg = order.alg
    ambient = _from_elements(alg, [alg.one()] + [2 * b for b in _ref_basis(order)])
    amb = _ref_basis(ambient)
    traces = [b.trace() for b in amb]
    assert all(t.denominator == 1 for t in traces)
    aug = [[int(traces[m])] + [1 if n == m else 0 for n in range(4)] for m in range(4)]
    kernel = [row[1:] for row in hnf(aug) if row[0] == 0]
    vecs = [sum((ci * b for ci, b in zip(c, amb)), start=alg.element(0, 0, 0, 0)) for c in kernel]
    gram = []
    for x in vecs:
        row = []
        for y in vecs:
            t = _ref_trace_of_product(x, y)
            assert t.denominator == 1 and int(t) % 2 == 0
            row.append(int(t) // 2)
        gram.append(tuple(row))
    return tuple(gram)


def _lattices(cs):
    """Class reps, right orders and pair products I_i conj(I_j) of a class set."""
    h = cs.h
    pairs = [cs.reps[i].multiply(cs.reps[(5 * i + 3) % h].conjugated()) for i in range(h)]
    return list(cs.reps) + list(cs.right_orders) + pairs


@pytest.mark.parametrize("fixture", ["classes170", "classes174", "classes222"])
def test_integer_rows_match_the_fraction_reference(fixture, request):
    cs = request.getfixturevalue(fixture)
    lattices = _lattices(cs)
    h = cs.h
    for latt in lattices:
        assert latt.gram_int() == ref_gram(latt)
    halves = [OrderLattice.from_rows(o.alg, 2 * o.den, o.rows) for o in cs.right_orders[:4]]
    for latt in lattices + halves:
        assert latt.is_order() == ref_is_order(latt)
    assert all(o.is_order() for o in cs.right_orders)
    assert not all(latt.is_order() for latt in lattices)
    for i in range(h):
        rhs = cs.reps[(3 * i + 1) % h].conjugated()
        assert cs.reps[i].multiply(rhs) == ref_multiply(cs.reps[i], rhs)
        order, rep = cs.right_orders[i], cs.reps[i]
        assert order.multiply(rep) == ref_multiply(order, rep)
    for order in cs.right_orders:
        assert trace_zero_lattice(order).gram == ref_trace_zero_gram(order)


def _ref_conjugate(latt):
    return _from_elements(latt.alg, [b.conjugate() for b in _ref_basis(latt)])


@pytest.mark.parametrize("fixture", ["classes170", "classes174", "classes222"])
def test_pair_product_matches_the_sixteen_product_reference(fixture, request):
    cs = request.getfixturevalue(fixture)
    conjugates = [_ref_conjugate(rep) for rep in cs.reps]
    for lhs in cs.reps:
        for rhs, conj_rhs in zip(cs.reps, conjugates):
            assert _pair_product(lhs, rhs) == ref_multiply(lhs, conj_rhs)


@pytest.mark.parametrize("fixture", ["classes170", "classes174", "classes222"])
def test_product_formula_left_orders_match_the_colon_orders(fixture, request):
    cs = request.getfixturevalue(fixture)
    for rep, order in zip(cs.reps, cs.right_orders):
        # the generator lies in the ideal and meets the gcd condition
        alpha = rep.alg.element(*(Fraction(x, rep.den) for x in rep._generator()))
        assert all(c.denominator == 1 for c in ref_coordinates(rep, alpha))
        quotient = alpha.norm() / rep.norm
        assert quotient.denominator == 1 and gcd(int(quotient), rep.norm) == 1
        assert _pair_product(rep, rep, rep.norm) == order
        assert order == ref_colon_order(rep, "right")


@pytest.mark.parametrize("fixture", ["classes170", "classes174", "classes222"])
def test_right_orders_match_the_sixteen_product_reference(fixture, request):
    # conj(I) I / Nm(I) by the pair product of conj(I) with itself, against
    # the sixteen products: every rep is a right ideal of the base order
    cs = request.getfixturevalue(fixture)
    for rep in cs.reps:
        assert _right_order(rep) == ref_right_order(rep) == cs.reps[0]


@pytest.mark.parametrize("fixture", ["classes170", "classes174"])
def test_minimal_vector_is_a_lattice_vector_of_least_norm(fixture, request):
    for rep in request.getfixturevalue(fixture).reps:
        row = rep.minimal_vector()
        assert rep._solve(row, rep.den) is not None
        value = rep.alg.trace_pairing(row, row)
        # on the unreduced Gram, so the check does not share the reduction
        assert min(vector_counts(rep.gram_int(), value)) == value


@pytest.mark.parametrize("fixture", ["classes170", "classes174", "classes222", "classes139"])
def test_identify_reads_every_rep_off_the_walks_enumeration(fixture, request, monkeypatch):
    # minimal_vector reads the minimal vectors that the walk enumerated once
    # per rep, so naming the reps, as _atkin_lehner does first, searches no
    # short vectors at all
    classes = request.getfixturevalue(fixture)

    def no_search(gram, bound):
        raise AssertionError("a class rep's short vectors were enumerated again")

    monkeypatch.setattr(orders, "iter_short_vectors", no_search)
    assert all(classes._identify(rep) == k for k, rep in enumerate(classes.reps))


@pytest.mark.parametrize("q, m", [(17, 10), (3, 58), (2, 111), (139, 1)])
def test_minimal_vector_is_the_first_of_the_sorted_search(q, m, monkeypatch):
    # for every rep and every neighbour the walk builds, the first minimal
    # vector in walk order is the one the search sorted by value returns
    built, neighbors = [], orders._neighbors

    def recorded(*args):
        for neighbour in neighbors(*args):
            built.append(neighbour)
            yield neighbour

    monkeypatch.setattr(orders, "_neighbors", recorded)
    classes = build_classes(q, m)
    monkeypatch.undo()
    assert built
    for lattice in chain(classes.reps, built):
        assert lattice.minimal_vector() == ref_minimal_vector(lattice)


def _generator_candidates_pass(ideal) -> list[bool]:
    """Whether b_a, then b_a + b_b and b_a - b_b for a < b, over the reduced basis, meet alpha's gcd condition."""
    gram, unit = ideal.norm_form(ideal.norm)
    values = [gram[a][a] for a in range(4)]
    values += [gram[a][a] + gram[b][b] + s * 2 * gram[a][b] for a, b in combinations(range(4), 2) for s in (1, -1)]
    return [gcd(val // unit, ideal.norm) == 1 for val in values]


@pytest.mark.parametrize("fixture", ["classes170", "classes174", "classes222", "classes139"])
def test_generator_of_a_fresh_copy_gives_the_sixteen_product_reference(fixture, request):
    # every derived value is a function of the lattice: a fresh copy of a
    # rep has the rep's reduced basis, alpha and first minimal vector, and
    # its alpha lies in I, meets the gcd condition and gives the pair products
    classes = request.getfixturevalue(fixture)
    base = classes.reps[0]
    for rep in classes.reps:
        copy = OrderLattice(rep.alg, rep.den, rep.rows, rep.norm)
        alpha = copy._generator()
        assert copy.reduced_gram() == rep.reduced_gram()
        assert alpha == rep._generator()
        assert copy.minimal_vector() == rep.minimal_vector()
        assert rep._solve(alpha, rep.den) is not None
        quotient, rem = divmod(rep.alg.trace_pairing(alpha, alpha) // 2, rep.den**2 * rep.norm)
        assert rem == 0 and gcd(quotient, rep.norm) == 1
        assert any(_generator_candidates_pass(copy))
        for rhs in (base, rep):
            assert _pair_product(copy, rhs) == ref_multiply(rep, _ref_conjugate(rhs))


def test_generator_falls_back_to_the_sorted_search_on_real_reps():
    # reps of norm 6 where no reduced basis row and no sum or difference of
    # two meets the gcd condition: alpha is the sorted search's, and it
    # still gives the left order
    for (q, m), fallbacks in {(5, 66): [14, 19, 25], (5, 42): [26], (131, 1): [6]}.items():
        classes = build_classes(q, m)
        assert [k for k, rep in enumerate(classes.reps) if not any(_generator_candidates_pass(rep))] == fallbacks
        for k in fallbacks:
            rep = classes.reps[k]
            assert rep.norm == 6
            assert rep._generator() == ref_generator(rep)
            assert _pair_product(rep, rep, rep.norm) == classes.right_orders[k]


@pytest.mark.parametrize("fixture", ["classes170", "classes174", "classes222", "classes139"])
def test_every_ideal_is_built_with_its_norm(fixture, request):
    # the call that builds an ideal sets its norm, and it is the covolume's:
    # pair products, left and right orders, the walk's reduced forms,
    # conjugates and the products I J_p of the Atkin-Lehner map
    classes = request.getfixturevalue(fixture)
    base = classes.reps[0]
    for lhs in classes.reps:
        assert lhs.conjugated().norm == lhs.norm
        assert _right_order(lhs).norm == 1
        for rhs in classes.reps:
            prod = _pair_product(lhs, rhs)
            assert prod.norm == lhs.norm * rhs.norm == ideal_norm(prod, base)
    assert all(order.norm == 1 for order in classes.right_orders)
    assert all(ideal_norm(form, base) == form.norm for form in classes._known)
    for p in factorint(classes.q * classes.M):
        two_sided = _two_sided_prime(base, p)
        for rep in classes.reps:
            prod = _pair_product(rep, two_sided)
            assert prod.norm == rep.norm * p == ideal_norm(prod, base)


def test_pair_product_certificate_rejects_a_bad_generator(classes170):
    rep = next(r for r in classes170.reps if r.norm > 1)
    planted = OrderLattice(rep.alg, rep.den, rep.rows, rep.norm)
    # alpha = Nm(I) * 1 lies in I, but gcd(Nm(alpha)/Nm(I), Nm(I)) = Nm(I) > 1
    planted._alpha = [rep.norm * rep.den, 0, 0, 0]
    with pytest.raises(RuntimeError, match="covolume"):
        _pair_product(planted, rep)


def test_norm_divisions_reject_a_non_integral_quotient(classes170):
    # each floor division of a norm is guarded by a RuntimeError, which
    # python -O keeps: O with the norm 2 planted, so Nm(1) / Nm(O) = 1/2
    base = classes170.reps[0]
    halved = OrderLattice.from_rows(base.alg, base.den, base.rows, 2)
    with pytest.raises(RuntimeError, match="Nm\\(alpha\\) / Nm\\(I\\) is not an integer"):
        orders._conj_quotient(halved, [base.den, 0, 0, 0])
    # a Gram planted with 1 more at (0, 0): the first point mod 5, e_0, has
    # c G c^T one past a multiple of 2 den^2
    planted = OrderLattice.from_rows(base.alg, base.den, base.rows)
    planted._gram = [row[:] for row in base.gram_int()]
    planted._gram[0][0] += 1
    with pytest.raises(RuntimeError, match="reduced norm .* is not an integer"):
        _split_idempotent(planted, _right_action_matrices(base, base), 5)


def test_reduce_ideal_certificate_rejects_a_wrong_covolume(classes170, monkeypatch):
    # a conj(alpha) I / Nm(I) of index 2 in the true one fails the covolume
    # certificate with a RuntimeError, which python -O keeps
    conj_quotient = orders._conj_quotient

    def halved(ideal, row):
        small = conj_quotient(ideal, row)
        rows = [[2 * x for x in small.rows[0]], *small.rows[1:]]
        return OrderLattice.from_rows(small.alg, small.den, rows, small.norm)

    monkeypatch.setattr(orders, "_conj_quotient", halved)
    rep = next(r for r in classes170.reps if r.norm > 1)
    with pytest.raises(RuntimeError, match="covolume"):
        _reduce_ideal(rep)


_fraction = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
_coordinate = st.one_of(st.integers(-60, 60), _fraction)
_coords = st.tuples(_coordinate, _coordinate, _coordinate, _coordinate)


@settings(max_examples=300, deadline=None)
@given(a=st.integers(-40, -1), b=st.integers(-40, -1), u=_coords, v=_coords)
def test_product_and_trace_pairing_match_the_reference_formula(a, b, u, v):
    alg = AlgebraPresentation(a, b)
    assert alg.mul(u, v) == ref_mul(a, b, u, v)
    assert alg.trace_pairing(u, v) == 2 * ref_mul(a, b, u, _conj(v))[0]
    x, y = alg.element(*u), alg.element(*v)
    assert (x * y).coeffs == ref_mul(a, b, x.coeffs, y.coeffs)
    assert x.norm() == ref_mul(a, b, u, _conj(u))[0]
    ints = tuple(int(c) for c in u), tuple(int(c) for c in v)
    assert all(type(c) is int for c in alg.mul(*ints))
    assert type(alg.trace_pairing(*ints)) is int


_row = st.tuples(*[st.integers(-9, 9)] * 4)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(_row, min_size=4, max_size=5), den=st.integers(1, 6))
def test_random_lattices_match_the_fraction_reference(rows, den):
    alg = AlgebraPresentation(-1, -3)
    try:
        latt = OrderLattice.from_rows(alg, den, rows)
    except ValueError:
        return  # not of full rank
    other = OrderLattice.from_rows(alg, 1, [(2, 0, 0, 0), (0, 1, 0, 0), (1, 0, 3, 0), (0, 0, 1, 2)])
    assert latt.gram_int() == ref_gram(latt)
    assert latt.is_order() == ref_is_order(latt)
    assert latt.multiply(other) == ref_multiply(latt, other)
    assert other.multiply(latt) == ref_multiply(other, latt)


# Reference for the neighbour scan: the right-submodule closure of every point
# of P^3(F_p), which needs no idempotent and no M_2(F_p) structure.


def ref_neighbor_submodules(ideal, base, p):
    mats = _right_action_matrices(ideal, base)
    found = {}
    for line in _projective_points(p):
        span = [line]
        while True:
            new_rows = [vec_mat(v, m) for v in span for m in mats]
            ech, piv = rref_mod(span + new_rows, p)
            if len(piv) == len(span) and ech == span:
                break
            span = ech
        if len(span) == 2:
            found[tuple(tuple(r) for r in span)] = span
    return [found[k] for k in sorted(found)]


def ref_neighbors(ideal, base, p):
    """The p-neighbours p ideal + (the preimage of each reference submodule), of norm Nm p."""
    scaled = [[p * x for x in row] for row in ideal.rows]
    return [
        OrderLattice.from_rows(ideal.alg, ideal.den, scaled + [vec_mat(c, ideal.rows) for c in span], ideal.norm * p)
        for span in ref_neighbor_submodules(ideal, base, p)
    ]


def walk_prime(level):
    """The class walk's neighbour prime: the least prime not dividing the level."""
    return next(r for r in primerange(2, 1000) if level % r)


def _first_reps(q, m, p, count):
    """The base order of level q*m and the first few of its p-neighbours."""
    base = eichler_order(maximal_order(choose_presentation(q)), m)
    first = OrderLattice(base.alg, base.den, base.rows, 1)
    return [first] + ref_neighbors(first, base, p)[:count]


def _walk_prime_and_reps(level, request):
    p = walk_prime(level)
    if level == 11:
        return p, build_classes(11, 1).reps
    if level in (170, 174):
        return p, request.getfixturevalue(f"classes{level}").reps
    q, m = {30: (3, 10), 210: (5, 42)}[level]
    return p, _first_reps(q, m, p, 2)


def _assert_split_idempotent(base, p):
    idem = _split_idempotent(base, _right_action_matrices(base, base), p)
    assert all(0 <= c < p for c in idem)
    e = base.alg.element(*(Fraction(x, base.den) for x in vec_mat(idem, base.rows)))
    ee = _ref_times(e, e)
    assert all(c.denominator == 1 and c % p == 0 for c in ref_coordinates(base, ee - e))
    trace, norm = e.trace(), _ref_times(e, e.conjugate()).coeffs[0]
    assert trace.denominator == 1 and trace % p == 1
    assert norm.denominator == 1 and norm % p == 0


@pytest.mark.parametrize("level", [11, 170, 174, 30, 210])
def test_split_idempotent_is_a_rank_one_idempotent(level, request):
    p, reps = _walk_prime_and_reps(level, request)
    _assert_split_idempotent(reps[0], p)


def test_split_idempotent_inverts_the_trace():
    # in Z<1, i, j, k> of (-1, -1 | Q) every trace is even, so the rank-1
    # element found has trace 2 mod 3 and is scaled by 1/2 = 2 mod 3
    _assert_split_idempotent(standard_order(AlgebraPresentation(-1, -1)), 3)


@pytest.mark.parametrize("level", [11, 170, 174, 30, 210])
def test_neighbor_scan_matches_the_projective_space_closure(level, request):
    p, reps = _walk_prime_and_reps(level, request)
    base = reps[0]
    idem = _split_idempotent(base, _right_action_matrices(base, base), p)
    alg = base.alg
    for rep in reps:
        neighbours = list(_neighbors(rep, base, p, idem))
        assert neighbours == ref_neighbors(rep, base, p)
        for neighbour in neighbours:
            # a right ideal of base inside rep, of norm Nm(rep) p by its covolume
            assert neighbour.norm == rep.norm * p == ideal_norm(neighbour, base)
            assert all(rep._solve(v, neighbour.den) is not None for v in neighbour.rows)
            d = neighbour.den * base.den
            assert all(neighbour._solve(alg.mul(v, r), d) is not None for v in neighbour.rows for r in base.rows)


@pytest.mark.parametrize("level", [170, 174, 222])
def test_neighbour_classes_give_the_brandt_matrix_at_the_walk_prime(level, request):
    # every neighbour of every rep is classified against all reps, with no
    # walk bookkeeping, by equivalent_ideals and by the pair-lattice search
    # of the reference; the counts must be B(p), whose column sums are p + 1
    classes = request.getfixturevalue(f"classes{level}")
    reps, h = classes.reps, classes.h
    base = reps[0]
    forms = [set(_reduced_forms(rep, w)) for rep, w in zip(reps, classes.weights)]
    assert all(not forms[i] & forms[j] for j in range(h) for i in range(j))
    p = walk_prime(level)
    idem = _split_idempotent(base, _right_action_matrices(base, base), p)
    found = [[0] * h for _ in range(h)]
    for j, rep in enumerate(reps):
        for neighbour in _neighbors(rep, base, p, idem):
            tested = [equivalent_ideals(rep_i, neighbour) for rep_i in reps]
            assert tested == [ref_equivalent_ideals(rep_i, neighbour) for rep_i in reps], j
            matches = [i for i in range(h) if tested[i]]
            assert len(matches) == 1, (j, matches)
            # the walk's key names the same class, and so does ClassSet._identify
            reduced, _ = _reduce_ideal(neighbour)
            assert [i for i in range(h) if reduced in forms[i]] == matches
            assert classes._identify(neighbour) == matches[0]
            found[matches[0]][j] += 1
    module = request.getfixturevalue(f"module{level}")
    assert tuple(map(tuple, found)) == module.brandt_matrix(p).entries


@pytest.mark.parametrize("level", [170, 174, 222])
def test_identified_neighbour_classes_give_the_brandt_matrix_at_the_walk_prime(level, request):
    # the same count with each neighbour named by ClassSet._identify alone
    classes = request.getfixturevalue(f"classes{level}")
    reps, h = classes.reps, classes.h
    base = reps[0]
    p = walk_prime(level)
    idem = _split_idempotent(base, _right_action_matrices(base, base), p)
    found = [[0] * h for _ in range(h)]
    for j, rep in enumerate(reps):
        for neighbour in _neighbors(rep, base, p, idem):
            found[classes._identify(neighbour)][j] += 1
    module = request.getfixturevalue(f"module{level}")
    assert tuple(map(tuple, found)) == module.brandt_matrix(p).entries


def test_identify_rejects_a_lattice_in_no_class(classes170):
    # i O i^-1 has the covolume of O and the norm-1 element 1, so it reduces
    # to itself, but it is no right ideal of O, so no class reduces to it
    base = classes170.reps[0]
    alg, i = base.alg, (0, 1, 0, 0)
    rows = [alg.mul(alg.mul(i, r), _conj(i)) for r in base.rows]
    moved = OrderLattice.from_rows(alg, base.den * -alg.a, rows)
    assert moved != base and moved.covolume() == base.covolume()
    with pytest.raises(ValueError, match="reduces to no class's lattice"):
        classes170._identify(OrderLattice(alg, moved.den, moved.rows, 1))
    with pytest.raises(ValueError, match="int norm"):
        classes170._identify(moved)
    # the maximal order above O has the norm-1 element 1 but covolume
    # covol(O) / 10: rejected before the reduction, with or without asserts
    maximal = maximal_order(classes170.presentation)
    with pytest.raises(ValueError, match="covolume Nm\\^2 covol"):
        classes170._identify(OrderLattice(alg, maximal.den, maximal.rows, 1))


def test_walk_checks_that_O_is_among_its_own_reduced_forms(monkeypatch):
    # O is registered by the step that registers every class: forms that
    # leave the rep out on the first call, O's registration, fail the walk
    base = eichler_order(maximal_order(choose_presentation(17)), 10)
    reduced_forms, calls = orders._reduced_forms, []

    def planted(ideal, w):
        calls.append(ideal)
        forms = reduced_forms(ideal, w)
        return [form for form in forms if form != ideal] if len(calls) == 1 else forms

    monkeypatch.setattr(orders, "_reduced_forms", planted)
    with pytest.raises(RuntimeError, match="not among its own reduced forms"):
        right_ideal_classes(base)
    assert calls == [OrderLattice(base.alg, base.den, base.rows, 1)]


def test_walk_identifies_classes_without_equivalence_tests(monkeypatch):
    tests = []

    def recorded_test(lhs, rhs):
        tests.append(rhs)
        return equivalent_ideals(lhs, rhs)

    monkeypatch.setattr(orders, "equivalent_ideals", recorded_test)
    assert build_classes(5, 66).h == 48
    assert tests == []


def _recorded_walk(q, m, monkeypatch):
    """The classes of level q m, with the walk's returning spans and its counts of reductions and canonical searches.

    A returning span is recorded as (I_j, I_k, span): the walk holds the
    p-neighbour of I_j that span gives to be in the class of I_k.
    """
    spans, counts = [], {"reductions": 0, "searches": 0}
    returning, reduce_ideal, canonical = orders._returning_span, orders._reduce_ideal, orders.canonical_gram

    def recorded(rep, beta, alpha, d_alpha, source, p):
        span = returning(rep, beta, alpha, d_alpha, source, p)
        spans.append((rep, source, span))
        return span

    def counted(ideal):
        counts["reductions"] += 1
        return reduce_ideal(ideal)

    def searched(gram):
        counts["searches"] += 1
        return canonical(gram)

    monkeypatch.setattr(orders, "_returning_span", recorded)
    monkeypatch.setattr(orders, "_reduce_ideal", counted)
    monkeypatch.setattr(orders, "canonical_gram", searched)
    classes = build_classes(q, m)
    monkeypatch.undo()
    return classes, spans, counts


@pytest.mark.parametrize(
    "q, m, reductions, searches",
    [(17, 10, 40, 5), (3, 58, 35, 5), (2, 111, 26, 5), (3, 110, 89, 6)],
)
def test_skipped_neighbours_lie_in_the_classes_the_walk_recorded(q, m, reductions, searches, monkeypatch):
    # every p-neighbour that the walk proved from a reduction, built from its
    # span, is a neighbour of its rep, and _identify names the recorded class;
    # the walk reduces only the others (64, 46, 36 and 112 neighbours in all)
    # and runs one canonical search per type key
    classes, spans, counts = _recorded_walk(q, m, monkeypatch)
    assert counts == {"reductions": reductions, "searches": searches}
    base, p = classes.reps[0], walk_prime(q * m)
    idem = _split_idempotent(base, _right_action_matrices(base, base), p)
    index = {rep: i for i, rep in enumerate(classes.reps)}
    neighbours = {}
    for rep, source, span in spans:
        if rep not in neighbours:
            neighbours[rep] = set(_neighbors(rep, base, p, idem))
        scaled = [[p * x for x in row] for row in rep.rows]
        built = OrderLattice.from_rows(rep.alg, rep.den, scaled + [vec_mat(c, rep.rows) for c in span], rep.norm * p)
        assert built in neighbours[rep]
        assert classes._identify(built) == index[source]


@pytest.mark.parametrize("fixture", ["classes170", "classes174"])
def test_reps_keep_a_reduced_basis_of_their_own_lattice(fixture, request):
    # a rep conj(alpha) N / Nm(N) reduces its own Gram, whichever
    # neighbour N it was reached from: its (reduced Gram, U) is greedy_reduce's
    for rep in request.getfixturevalue(fixture).reps:
        assert rep.reduced_gram() == greedy_reduce(rep.gram_int())


@settings(max_examples=60, deadline=None)
@given(
    level=st.sampled_from([170, 174, 222]),
    data=st.data(),
    coords=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
)
def test_left_multiples_reduce_into_their_class_forms(classes170, classes174, classes222, level, data, coords):
    # x in O_L(I_i) with Nm(x) > 1: x I_i is an integral ideal of norm
    # Nm(x) Nm(I_i) in class i, and its reduced lattice is one of I_i's forms
    classes = {170: classes170, 174: classes174, 222: classes222}[level]
    i = data.draw(st.integers(0, classes.h - 1))
    rep, order = classes.reps[i], classes.right_orders[i]
    gram = order.gram_int()
    value = sum(coords[m] * gram[m][n] * coords[n] for m in range(4) for n in range(4))
    nm, rem = divmod(value, 2 * order.den**2)
    assert rem == 0
    assume(nm > 1)
    x = vec_mat(coords, order.rows)
    moved = OrderLattice.from_rows(rep.alg, rep.den * order.den, [rep.alg.mul(x, r) for r in rep.rows], nm * rep.norm)
    assert moved != rep
    reduced, _ = _reduce_ideal(moved)
    assert reduced in _reduced_forms(rep, classes.weights[i])
    assert classes._identify(moved) == i


# Eichler orders: each level raise at p is Z + eO + pO, which is [[Z, Z], [pZ, Z]]
# in M_2(Z_p) for e = E11.


def test_level_raises_are_the_index_p_lattices_killing_one_corner():
    # {x in O : (1 - e) x e in pO} has index p in O, so a sublattice of O of
    # index p whose basis satisfies that condition is this lattice
    raises = 0
    for q in primerange(2, 60):
        raised = {1: maximal_order(choose_presentation(q))}
        for m in range(2, 600 // q + 1):
            fac = factorint(m)
            if q in fac or any(k > 1 for k in fac.values()):
                continue
            # eichler_order raises at the primes of m in increasing order
            p = max(fac)
            order = raised[m // p]
            sub = raised[m] = _level_raise(order, p)
            raises += 1
            assert sub.covolume() == p * order.covolume()
            alg = order.alg
            idem = _split_idempotent(order, _right_action_matrices(order, order), p)
            idem = vec_mat(idem, order.rows)
            e = alg.element(*(Fraction(x, order.den) for x in idem))
            f = alg.one() - e
            # coordinates in O of an element: its coefficients times the inverse basis
            inv = mat_inv([[Fraction(x, order.den) for x in row] for row in order.rows])
            for x in _ref_basis(sub):
                assert all(c.denominator == 1 for c in vec_mat(list(x.coeffs), inv))
                corner = vec_mat(list(_ref_times(_ref_times(f, x), e).coeffs), inv)
                assert all(c.denominator == 1 and c % p == 0 for c in corner)
    assert raises == 497


def test_maximal_order_takes_the_index_p_squared_step(monkeypatch):
    # Z<1, i, j, k> of these presentations has no index-p overorder at the
    # last prime it saturates; two p-denominator elements are needed at once
    real = orders._try_overorder
    for (a, b), q in (((-1, -9), 2), ((-3, -4), 3), ((-1, -18), 2)):
        grown = []

        def recording(order, vecs, p):
            out = real(order, vecs, p)
            if out is not None:
                grown.append(len(vecs))
            return out

        monkeypatch.setattr(orders, "_try_overorder", recording)
        order = maximal_order(AlgebraPresentation(a, b))
        assert order.is_order() and ref_is_order(order)
        assert order.reduced_discriminant() == q
        assert grown[-1] == 2


# Types: the canonical Gram of the ternary lattice of each class's left order.


@pytest.mark.parametrize("fixture", ["classes170", "classes174", "classes222", "classes330", "classes139"])
def test_stored_types_are_the_canonical_grams_of_the_left_orders(fixture, request):
    # the walk searches once per type key; every class must get the
    # canonical Gram of its own left order
    cs = request.getfixturevalue(fixture)
    assert len(cs._types) == cs.h
    for order, gram in zip(cs.right_orders, cs._types):
        assert gram == canonical_gram(trace_zero_lattice(order).gram)
    # the class order is the type order after the base class
    assert cs._types[1:] == sorted(cs._types[1:])
    expected = {"classes170": 5, "classes174": 5, "classes222": 4, "classes330": 5, "classes139": 9}[fixture]
    assert len(set(cs._types)) == expected


@pytest.mark.parametrize("fixture", ["classes170", "classes174", "classes222"])
def test_left_multiples_keep_the_type(fixture, request):
    # O_L(x I) = x O_L(I) x^-1 has an isometric ternary lattice; the left order
    # of x I comes from the reference colon route, not from the library
    cs = request.getfixturevalue(fixture)
    rng = random.Random(cs.h)
    alg = cs.presentation
    for i in rng.sample(range(cs.h), 3):
        coords = [0, 0, 0, 0]
        while not any(coords):
            coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)]
        x = alg.element(*coords)
        moved = ref_colon_order(ref_mul_element(cs.reps[i], x, "left"), "right")
        assert canonical_gram(trace_zero_lattice(moved).gram) == cs._types[i]


# Atkin-Lehner involutions: W_p permutes the classes by the two-sided prime J_p.


@pytest.mark.parametrize("level", [11, 170, 174, 222])
def test_two_sided_primes_have_norm_p_and_square_into_p_O(level, request):
    classes = build_classes(11, 1) if level == 11 else request.getfixturevalue(f"classes{level}")
    base = classes.reps[0]
    for p in factorint(level):
        two_sided = _two_sided_prime(base, p)
        assert two_sided.norm == p and two_sided.covolume() == p**2 * base.covolume()
        assert two_sided.conjugated() == two_sided
        # J_p^2 lies in pO, and pO in J_p
        d = p * two_sided.den**2
        assert all(base._solve(base.alg.mul(x, y), d) is not None
                   for x in two_sided.rows for y in two_sided.rows)
        assert all(two_sided._solve([p * x for x in r], base.den) is not None for r in base.rows)


def test_two_sided_prime_that_is_not_two_sided_fails(classes170, monkeypatch):
    # the span of the first two basis rows of O mod 2 in place of the kernel
    # of the trace form: a lattice over 2O that is no two-sided ideal
    monkeypatch.setattr(orders, "rref_mod", lambda rows, p: ([[0, 0, 1, 0], [0, 0, 0, 1]], [2, 3]))
    with pytest.raises(RuntimeError, match="J_2 is not a two-sided ideal"):
        classes170._atkin_lehner()


def test_atkin_lehner_permutation_with_two_entries_swapped_fails(classes170, monkeypatch):
    # W_5 is G[1 << 1] over the sorted primes 2, 5, 17
    w, h = classes170._atkin_lehner()[0][1 << 1], classes170.h
    # entries x and y swapped, with W_5(x) outside {x, y}: _identify now
    # names the reps of classes W_5(x) and W_5(y) by each other's class
    x, y = next((x, y) for x in range(h) for y in range(x + 1, h) if w[x] not in (x, y))
    swap = {w[x]: w[y], w[y]: w[x]}
    identify = ClassSet._identify

    def swapped(self, ideal):
        k = identify(self, ideal)
        return swap.get(k, k)

    monkeypatch.setattr(ClassSet, "_identify", swapped)
    with pytest.raises(RuntimeError, match="does not name every class rep by its own class"):
        classes170._atkin_lehner()


@pytest.mark.parametrize("level", [11, 170, 174, 222, 330])
def test_orbit_map_matches_the_per_class_reference(level, request):
    # r = 1, 3, 3, 3 and 4 primes: the orbit map names t - 1 + dim H
    # products per orbit, the reference one per class and prime.  G is a
    # group under XOR of bitmasks, and its generators are the reference W_p.
    # The orbit map names each class once, by the least s with G[s](i0) = k,
    # with the stabilizer of i0
    classes = build_classes(11, 1) if level == 11 else request.getfixturevalue(f"classes{level}")
    (group, orbits), h = classes._atkin_lehner(), classes.h
    primes = sorted(factorint(level))
    assert len(group) == 1 << len(primes)
    assert group[0] == tuple(range(h))
    for s, perm in enumerate(group):
        assert sorted(perm) == list(range(h))
        for t, other in enumerate(group):
            assert all(perm[other[i]] == group[s ^ t][i] for i in range(h)), (s, t)
    for b, p in enumerate(primes):
        assert group[1 << b] == ref_atkin_lehner(classes, p)
    assert sorted(k for _, at, _ in orbits for k in at) == list(range(h))
    assert [i0 for i0, _, _ in orbits] == sorted(i0 for i0, _, _ in orbits)
    for i0, at, stab in orbits:
        assert min(at) == i0
        least = {}
        for s, perm in enumerate(group):
            least.setdefault(perm[i0], s)
        assert list(at.items()) == list(least.items())
        assert sorted(stab) == [s for s, perm in enumerate(group) if perm[i0] == i0]


def test_every_same_type_transposition_of_identify_fails(classes170, monkeypatch):
    # two classes of one type swapped in _identify's output: the weight and
    # type checks cannot see it, the check of the reps against their classes does
    types, h = classes170._types, classes170.h
    pairs = [(x, y) for x in range(h) for y in range(x + 1, h) if types[x] == types[y]]
    assert len(pairs) == 64
    identify = ClassSet._identify
    for x, y in pairs:
        swap = {x: y, y: x}

        def swapped(self, ideal):
            k = identify(self, ideal)
            return swap.get(k, k)

        monkeypatch.setattr(ClassSet, "_identify", swapped)
        with pytest.raises(RuntimeError):
            classes170._atkin_lehner()


# Each library check below raises an exception that python -O keeps, not an
# assert that it strips: one planted fault per check.


def test_maximal_order_rejects_a_discriminant_off_q(monkeypatch):
    # a reduced discriminant that q = 11 does not divide, where floor division
    # would pass a wrong cofactor on to factorint
    monkeypatch.setattr(OrderLattice, "reduced_discriminant", lambda self: 7)
    with pytest.raises(RuntimeError, match="7 is not a multiple of q=11"):
        maximal_order(choose_presentation(11))


def test_level_raise_rejects_an_element_that_is_not_idempotent(monkeypatch):
    # 2e squares to 4e, which is not 2e mod 5
    split = orders._split_idempotent
    monkeypatch.setattr(orders, "_split_idempotent", lambda order, mats, p: [2 * x % p for x in split(order, mats, p)])
    with pytest.raises(RuntimeError, match="not idempotent mod 5"):
        _level_raise(maximal_order(choose_presentation(17)), 5)


def test_level_raise_rejects_a_suborder_that_is_not_an_order(monkeypatch):
    order = maximal_order(choose_presentation(17))
    monkeypatch.setattr(OrderLattice, "is_order", lambda self: False)
    with pytest.raises(RuntimeError, match="is not an order"):
        _level_raise(order, 5)


def test_level_raise_rejects_a_suborder_of_the_wrong_discriminant(monkeypatch):
    # the lattice built is O itself, an order of discriminant q, not 5 q
    order = maximal_order(choose_presentation(17))
    monkeypatch.setattr(OrderLattice, "from_rows", classmethod(lambda cls, alg, den, rows, norm=None: order))
    with pytest.raises(RuntimeError, match="does not have 5 times the reduced discriminant"):
        _level_raise(order, 5)


def test_right_action_rejects_a_lattice_that_is_not_a_right_ideal(classes170):
    # O with its first basis row doubled: an index-2 sublattice that O does not map into itself
    base = classes170.reps[0]
    rows = [[2 * x for x in base.rows[0]], *base.rows[1:]]
    planted = OrderLattice.from_rows(base.alg, base.den, rows)
    with pytest.raises(RuntimeError, match="lattice is not a right ideal"):
        _right_action_matrices(planted, base)


def _neighbour_setup(classes):
    """(O, the walk prime 3 of N=170, a rank-1 idempotent of O mod 3)."""
    base = classes.reps[0]
    return base, 3, _split_idempotent(base, _right_action_matrices(base, base), 3)


def test_neighbors_reject_an_image_that_is_not_a_plane(classes170):
    # e = 0 maps O/3O onto 0
    base, p, _ = _neighbour_setup(classes170)
    with pytest.raises(RuntimeError, match="image of the idempotent is not 2-dimensional"):
        next(_neighbors(base, base, p, [0, 0, 0, 0]))


def test_neighbors_reject_a_cyclic_submodule_that_is_not_a_plane(classes170, monkeypatch):
    # the echelon form of the first cyclic submodule loses a row
    base, p, idem = _neighbour_setup(classes170)
    calls = []

    def planted(rows, q):
        calls.append(rows)
        span, piv = rref_mod(rows, q)
        return (span[:1], piv[:1]) if len(calls) == 2 else (span, piv)

    monkeypatch.setattr(orders, "rref_mod", planted)
    with pytest.raises(RuntimeError, match="cyclic submodule is not 2-dimensional"):
        next(_neighbors(base, base, p, idem))


def test_neighbors_reject_a_wrong_number_of_submodules(classes170, monkeypatch):
    # every line gives the first line's submodule: 1 of the p + 1 = 4
    base, p, idem = _neighbour_setup(classes170)
    first = []

    def planted(rows, q):
        result = rref_mod(rows, q)
        first.append(result)
        return first[1] if len(first) > 1 else result

    monkeypatch.setattr(orders, "rref_mod", planted)
    with pytest.raises(RuntimeError, match="expected 4 neighbor submodules, found 1"):
        next(_neighbors(base, base, p, idem))


def test_class_walk_rejects_an_algebra_ramified_at_two_primes(classes170, monkeypatch):
    base = classes170.reps[0]
    monkeypatch.setattr(orders, "finite_ramified_primes", lambda a, b: [2, 17])
    with pytest.raises(RuntimeError, match="ramified at 2 finite primes"):
        right_ideal_classes(base)


def test_multiply_rejects_lattices_of_two_algebras():
    one, other = (standard_order(choose_presentation(q)) for q in (11, 17))
    with pytest.raises(ValueError, match="two different algebras"):
        one.multiply(other)
