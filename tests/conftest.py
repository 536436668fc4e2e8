import pytest

from cfl import acceptance
from cfl.generators import gen_complete, gen_paley, gen_random_regular
from cfl.graphs import uniform_weights


@pytest.fixture(scope="session")
def petersen():
    return acceptance.petersen()


@pytest.fixture(scope="session")
def k6():
    return gen_complete(6)


@pytest.fixture(scope="session")
def k6_unit(k6):
    return uniform_weights(k6)


@pytest.fixture(scope="session")
def paley13():
    return gen_paley(13)


@pytest.fixture(scope="session")
def rr_20_6():
    return gen_random_regular(20, 6, 101)
