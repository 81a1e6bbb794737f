import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import factorint, primerange

from brandtlift import orders
from brandtlift.linalg import clear_denominators, hnf, mat_inv, rref_mod, vec_mat
from brandtlift.orders import (
    ClassSet,
    OrderLattice,
    _neighbor_ideal,
    _neighbor_submodules,
    _level_raise,
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
from reference_kernels import ref_atkin_lehner, ref_equivalent_ideals, ref_right_order


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


def test_weights_match_unit_counts(classes174):
    for order, w in zip(classes174.right_orders, classes174.weights):
        assert unit_weight(order) == w


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


def test_pair_product_certificate_rejects_a_bad_generator(classes170):
    rep = next(r for r in classes170.reps if r.norm > 1)
    planted = OrderLattice(rep.alg, rep.den, rep.rows, rep.norm)
    # alpha = Nm(I) * 1 lies in I, but gcd(Nm(alpha)/Nm(I), Nm(I)) = Nm(I) > 1
    planted._alpha = [rep.norm * rep.den, 0, 0, 0]
    with pytest.raises(RuntimeError, match="covolume"):
        _pair_product(planted, rep)


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


def _first_reps(q, m, p, count):
    """The base order of level q*m and the first few of its p-neighbours."""
    base = eichler_order(maximal_order(choose_presentation(q)), m)
    first = OrderLattice(base.alg, base.den, base.rows, 1)
    subs = ref_neighbor_submodules(first, base, p)
    return [first] + [_neighbor_ideal(first, sub, p) for sub in subs[:count]]


def _walk_prime_and_reps(level, request):
    p = next(r for r in (2, 3, 5, 7, 11) if level % r)
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
    for rep in reps:
        subs = _neighbor_submodules(rep, base, p, idem)
        assert subs == ref_neighbor_submodules(rep, base, p)
        mats = _right_action_matrices(rep, base)
        for span in subs:
            # closed under the right action of base: the rank stays 2
            assert len(rref_mod(span + [vec_mat(v, m) for v in span for m in mats], p)[1]) == 2


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
    p = next(r for r in primerange(2, 100) if level % r)
    idem = _split_idempotent(base, _right_action_matrices(base, base), p)
    found = [[0] * h for _ in range(h)]
    for j, rep in enumerate(reps):
        for sub in _neighbor_submodules(rep, base, p, idem):
            neighbour = _neighbor_ideal(rep, sub, p)
            tested = [equivalent_ideals(rep_i, neighbour) for rep_i in reps]
            assert tested == [ref_equivalent_ideals(rep_i, neighbour) for rep_i in reps], j
            matches = [i for i in range(h) if tested[i]]
            assert len(matches) == 1, (j, matches)
            # the walk's key names the same class
            reduced = _reduce_ideal(neighbour, base)
            assert [i for i in range(h) if reduced in forms[i]] == matches
            found[matches[0]][j] += 1
    module = request.getfixturevalue(f"module{level}")
    assert tuple(map(tuple, found)) == module.brandt_matrix(p).entries


@pytest.mark.parametrize("level", [170, 174, 222])
def test_identified_neighbour_classes_give_the_brandt_matrix_at_the_walk_prime(level, request):
    # the same count with each neighbour named by ClassSet._identify alone
    classes = request.getfixturevalue(f"classes{level}")
    reps, h = classes.reps, classes.h
    base = reps[0]
    p = next(r for r in primerange(2, 100) if level % r)
    idem = _split_idempotent(base, _right_action_matrices(base, base), p)
    found = [[0] * h for _ in range(h)]
    for j, rep in enumerate(reps):
        for sub in _neighbor_submodules(rep, base, p, idem):
            found[classes._identify(_neighbor_ideal(rep, sub, p))][j] += 1
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


def test_walk_identifies_classes_without_equivalence_tests(monkeypatch):
    tests = []

    def recorded_test(lhs, rhs):
        tests.append(rhs)
        return equivalent_ideals(lhs, rhs)

    monkeypatch.setattr(orders, "equivalent_ideals", recorded_test)
    assert build_classes(5, 66).h == 48
    assert tests == []


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
    moved = rep._mul_row(vec_mat(coords, order.rows), order.den)
    moved = OrderLattice(moved.alg, moved.den, moved.rows, nm * rep.norm)
    assert moved != rep
    reduced = _reduce_ideal(moved, classes.reps[0])
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


@pytest.mark.parametrize("fixture", ["classes170", "classes174", "classes222"])
def test_stored_types_are_the_canonical_grams_of_the_left_orders(fixture, request):
    cs = request.getfixturevalue(fixture)
    assert len(cs._types) == cs.h
    for order, gram in zip(cs.right_orders, cs._types):
        assert gram == canonical_gram(trace_zero_lattice(order).gram)
    # the class order is the type order after the base class
    assert cs._types[1:] == sorted(cs._types[1:])
    expected = {"classes170": 5, "classes174": 5, "classes222": 4}[fixture]
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
    w, h = classes170._atkin_lehner()[1 << 1], classes170.h
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
    # group under XOR of bitmasks, and its generators are the reference W_p
    classes = build_classes(11, 1) if level == 11 else request.getfixturevalue(f"classes{level}")
    group, h = classes._atkin_lehner(), classes.h
    primes = sorted(factorint(level))
    assert len(group) == 1 << len(primes)
    assert group[0] == tuple(range(h))
    for s, perm in enumerate(group):
        assert sorted(perm) == list(range(h))
        for t, other in enumerate(group):
            assert all(perm[other[i]] == group[s ^ t][i] for i in range(h)), (s, t)
    for b, p in enumerate(primes):
        assert group[1 << b] == ref_atkin_lehner(classes, p)


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
