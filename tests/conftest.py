import pytest

from brandtlift.brandt import BrandtModule
from brandtlift.orders import eichler_order, maximal_order, right_ideal_classes
from brandtlift.qalg import choose_presentation
from brandtlift.theta import theta_series, trace_zero_lattice


def build_classes(q: int, m: int):
    base = eichler_order(maximal_order(choose_presentation(q)), m)
    return right_ideal_classes(base)


@pytest.fixture(scope="session")
def classes170():
    return build_classes(17, 10)


@pytest.fixture(scope="session")
def classes174():
    return build_classes(3, 58)


@pytest.fixture(scope="session")
def classes222():
    return build_classes(2, 111)


@pytest.fixture(scope="session")
def classes290():
    return build_classes(29, 10)


@pytest.fixture(scope="session")
def classes330():
    return build_classes(3, 110)


@pytest.fixture(scope="session")
def classes139():
    return build_classes(139, 1)


@pytest.fixture(scope="session")
def classes2003():
    return build_classes(2003, 1)


@pytest.fixture(scope="session")
def classes2310():
    return build_classes(2, 1155)


@pytest.fixture(scope="session")
def module170(classes170):
    return BrandtModule(classes170)


@pytest.fixture(scope="session")
def module174(classes174):
    return BrandtModule(classes174)


@pytest.fixture(scope="session")
def module222(classes222):
    return BrandtModule(classes222)


# minimal eigendata cutting out each newform (checked one-dimensional)
EIGEN_170_F = ((3, -2), (7, 2))
EIGEN_170_G = ((3, 3),)
EIGEN_174_F = ((5, -3),)
EIGEN_174_G = ((5, 2),)
EIGEN_222_F = ((5, -4),)
EIGEN_222_G = ((5, 2),)


@pytest.fixture(scope="session")
def thetas170(classes170):
    return [theta_series(trace_zero_lattice(o), 99) for o in classes170.right_orders]


@pytest.fixture(scope="session")
def thetas174(classes174):
    return [theta_series(trace_zero_lattice(o), 99) for o in classes174.right_orders]


@pytest.fixture(scope="session")
def phi170_f(module170):
    return module170.eigenvector(EIGEN_170_F)


@pytest.fixture(scope="session")
def phi170_g(module170):
    return module170.eigenvector(EIGEN_170_G)


@pytest.fixture(scope="session")
def phi174_f(module174):
    return module174.eigenvector(EIGEN_174_F)


@pytest.fixture(scope="session")
def phi174_g(module174):
    return module174.eigenvector(EIGEN_174_G)


@pytest.fixture(scope="session")
def report170(module170):
    from brandtlift.congruence import run_congruence_checks

    return run_congruence_checks(module170, EIGEN_170_F, EIGEN_170_G, 5)


@pytest.fixture(scope="session")
def report174(module174):
    from brandtlift.congruence import run_congruence_checks

    return run_congruence_checks(module174, EIGEN_174_F, EIGEN_174_G, 5)


@pytest.fixture(scope="session")
def report174_ell7(module174):
    from brandtlift.congruence import run_congruence_checks

    return run_congruence_checks(module174, EIGEN_174_F, EIGEN_174_G, 7)
