import random
from fractions import Fraction

import pytest

from brandtlift import theta
from brandtlift.cli import main
from brandtlift.orders import OrderLattice
from brandtlift.theta import (
    QSeries,
    TernaryLattice,
    canonical_gram,
    parse_qseries,
    theta_series,
    trace_zero_lattice,
)


def test_qseries_normalization():
    s = QSeries(10, {0: 1, 3: 0, 4: 2, 11: 7})
    # zeros and terms beyond the bound are dropped on construction
    assert s.coeffs == {0: 1, 4: 2}
    assert s.coefficient(3) == 0
    with pytest.raises(ValueError):
        s.coefficient(11)


def test_qseries_text_roundtrip():
    s = QSeries(20, {0: 1, 3: -4, 12: 6})
    text = s.to_text(header="# demo bound=20")
    back, header = parse_qseries(text)
    assert back == s
    assert header == "# demo bound=20"


def test_qseries_parse_without_bound():
    back, header = parse_qseries("3 5\n8 -1\n")
    assert header is None
    assert back.bound == 8
    assert back.coeffs == {3: 5, 8: -1}


def test_negative_exponent_is_a_value_error():
    # a ValueError, not an assert, so that python -O rejects the file too
    with pytest.raises(ValueError, match="negative exponent -3"):
        parse_qseries("# bound=5\n-3 5\n2 1\n")
    with pytest.raises(ValueError, match="negative exponent -1"):
        QSeries(4, {-1: 2, 0: 1})
    assert QSeries(4, {-1: 0, 0: 1}).coeffs == {0: 1}
    # a negative bound was kept, and every coefficient dropped below it
    with pytest.raises(ValueError, match="negative bound -1 in a q-series"):
        QSeries(-1, {0: 1})
    with pytest.raises(ValueError, match="negative bound -3 in a q-series"):
        parse_qseries("# bound=-3\n")


def test_parse_qseries_drops_no_coefficient_of_a_file():
    # an exponent above the header's bound, or listed twice, was dropped or overwritten
    with pytest.raises(ValueError, match="exponent 7 above the header's bound=5"):
        parse_qseries("# bound=5\n1 2\n7 3\n")
    with pytest.raises(ValueError, match="exponent 3 listed twice"):
        parse_qseries("# bound=9\n3 5\n3 7\n")
    # an exponent at the bound is kept, and QSeries itself still truncates
    assert parse_qseries("# bound=5\n1 2\n5 3\n")[0].coeffs == {1: 2, 5: 3}
    assert QSeries(5, {1: 2, 7: 3}).coeffs == {1: 2}


def test_parse_qseries_names_a_second_bound_and_the_line_of_a_bad_entry(capsys):
    # the whole stdout of lift: a '# metadata' line, then the header and the series
    assert main(["lift", "--q", "11", "--m", "1", "--eigen-f", "2:-2", "--bound", "20"]) == 0
    out = capsys.readouterr().out
    series, header = parse_qseries(out)
    assert out.startswith("# metadata ") and header == "# N=11 q=11 M=1 bound=20"
    assert series == parse_qseries(out.split("\n", 1)[1])[0] and series.bound == 20 and series.coeffs
    # a second bound= was kept over the first
    with pytest.raises(ValueError, match="a second bound: bound=5, then bound=9"):
        parse_qseries("# bound=5\n# bound=9\n7 1\n")
    # bare unpack and int() messages, with no line
    for text, line in (("1 2 3\n", 1), ("1\n", 1), ("a 2\n", 1), ("# x\n\n1 1\n3 b\n", 4)):
        with pytest.raises(ValueError, match=f"^line {line}: .* is not '<exponent> <coefficient>', two integers$"):
            parse_qseries(text)
    with pytest.raises(ValueError, match="^line 1: bound=x is not bound=<integer>$"):
        parse_qseries("# bound=x\n1 1\n")


def test_non_integral_entries_are_a_value_error():
    # a Fraction or a float is not truncated to an int, whether a coefficient or an exponent
    with pytest.raises(ValueError, match=r"non-integral coefficient Fraction\(3, 2\)"):
        QSeries(10, {1: Fraction(3, 2), 2: 2})
    with pytest.raises(ValueError, match="non-integral coefficient 2.7"):
        QSeries(10, {1: 1, 2: 2.7})
    with pytest.raises(ValueError, match="non-integral exponent 3.9"):
        QSeries(10, {1: 1, 3.9: 5})
    # integral values of other types are taken as their ints
    s = QSeries(10, {Fraction(4, 2): 3, 5: Fraction(6, 3), 7.0: 0})
    assert s.coeffs == {2: 3, 5: 2} and all(type(x) is int for kv in s.coeffs.items() for x in kv)


def test_theta_series_trivial_bounds():
    lat = TernaryLattice(((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    assert theta_series(lat, 0) == QSeries(0, {0: 1})
    with pytest.raises(ValueError):
        theta_series(lat, -1)


def test_theta_series_cubic_lattice():
    # scaled cubic lattice: r3(n/2) values 6, 12, 8, 6 at n = 2, 4, 6, 8
    lat = TernaryLattice(((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    s = theta_series(lat, 8)
    assert s.coefficient(0) == 1
    assert [s.coefficient(n) for n in (2, 4, 6, 8)] == [6, 12, 8, 6]
    assert all(s.coefficient(n) == 0 for n in (1, 3, 5, 7))


def test_trace_zero_determinants(classes170, classes174):
    for cs, level in ((classes170, 170), (classes174, 174)):
        for order in cs.right_orders:
            lat = trace_zero_lattice(order)
            assert lat.determinant() == 4 * level * level


def test_trace_zero_lattice_rejects_a_non_integral_gram(classes170):
    # (1/3) Z^4 is no order: 2 e_1 / 3 has norm 4/9, which python -O must
    # not floor into a Gram entry
    alg = classes170.reps[0].alg
    thirds = OrderLattice.from_rows(alg, 3, [[int(i == j) for j in range(4)] for i in range(4)])
    with pytest.raises(RuntimeError, match="not an integer"):
        trace_zero_lattice(thirds)


def test_theta_support_and_parity(classes174):
    for order in classes174.right_orders:
        s = theta_series(trace_zero_lattice(order), 60)
        assert s.coefficient(0) == 1
        for n in sorted(s.coeffs):
            if n == 0:
                continue
            assert n % 4 in (0, 3)
            # vectors come in +/- pairs
            assert s.coefficient(n) % 2 == 0


def test_theta_first_coefficient_tracks_units(classes174):
    # norm-4 vector count is 2*(units of trace zero): weight 2 gives 0, weight 4 gives 2
    expected = {2: 0, 4: 2}
    for order, w in zip(classes174.right_orders, classes174.weights):
        s = theta_series(trace_zero_lattice(order), 4)
        assert s.coefficient(4) == expected[w]


def test_theta_truncation_consistent(classes170):
    order = classes170.right_orders[1]
    lat = trace_zero_lattice(order)
    assert theta_series(lat, 30) == QSeries(30, theta_series(lat, 60).coeffs)


def random_unimodular(rng, n=3):
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(12):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            u[i][k] += c * u[j][k]
    return u


def transformed(gram, u):
    n = len(gram)
    rows = [
        [sum(u[i][a] * gram[a][b] * u[j][b] for a in range(n) for b in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return tuple(tuple(r) for r in rows)


def test_canonical_gram_is_class_invariant(classes174):
    rng = random.Random(7)
    lat = trace_zero_lattice(classes174.right_orders[0])
    base = canonical_gram(lat.gram)
    for _ in range(5):
        moved = transformed(lat.gram, random_unimodular(rng))
        assert canonical_gram(moved) == base


def test_canonical_gram_preserves_determinant(classes174):
    lat = trace_zero_lattice(classes174.right_orders[2])
    assert TernaryLattice(canonical_gram(lat.gram)).determinant() == lat.determinant()


def test_canonical_gram_is_symmetric_and_sorted():
    g = canonical_gram(((6, 1, 2), (1, 10, 0), (2, 0, 5)))
    assert g[0][1] == g[1][0] and g[0][2] == g[2][0] and g[1][2] == g[2][1]
    assert g[0][0] <= g[1][1] <= g[2][2]


@pytest.mark.parametrize(
    "gram",
    [
        ((0, 1, 0), (1, 0, 0), (0, 0, 1)),  # indefinite, with a zero diagonal
        ((5, 6, 3), (6, 7, 3), (3, 3, 8)),  # indefinite, with a positive diagonal
        ((1, 2, 0), (0, 1, 0), (0, 0, 1)),  # not symmetric
        ((1, 0), (0, 1)),  # not 3x3
        ((1, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 2))),  # not an integer Gram
    ],
)
def test_bad_ternary_grams_are_a_value_error(gram):
    # before the check the first two reached greedy_reduce and divided by a
    # zero diagonal; the third passed only an assert, which python -O strips
    with pytest.raises(ValueError):
        theta_series(TernaryLattice(gram), 10)
    with pytest.raises(ValueError):
        canonical_gram([list(row) for row in gram])


def test_canonical_gram_without_a_unimodular_triple_is_a_value_error(monkeypatch):
    # a short-vector search that finds nothing leaves no basis to choose:
    # a ValueError, which python -O keeps
    monkeypatch.setattr(theta, "iter_short_vectors", lambda g, cap: iter(()))
    with pytest.raises(ValueError, match="no unimodular triple"):
        canonical_gram([[2, 1, 0], [1, 2, 0], [0, 0, 3]])
