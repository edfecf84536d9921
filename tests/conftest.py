import pytest

from eqod.solvers import PDES, generate_set


@pytest.fixture(scope="session")
def heat_clean():
    pde = PDES["heat"]
    return generate_set(pde, pde.default_grid(), 3, 0.0, 42)


@pytest.fixture(scope="session")
def burgers_clean():
    pde = PDES["burgers"]
    return generate_set(pde, pde.default_grid(), 3, 0.0, 42)


@pytest.fixture(scope="session")
def kdv_clean():
    pde = PDES["kdv"]
    return generate_set(pde, pde.default_grid(), 3, 0.0, 42)


@pytest.fixture(scope="session")
def fisher_kpp_clean():
    pde = PDES["fisher_kpp"]
    return generate_set(pde, pde.default_grid(), 3, 0.0, 42)


@pytest.fixture(scope="session")
def heat_noisy10():
    pde = PDES["heat"]
    return generate_set(pde, pde.default_grid(), 3, 0.10, 42)
