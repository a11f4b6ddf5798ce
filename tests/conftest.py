import numpy as np
import pytest

from epichain import (
    ContactRate, MarkovSIR, initial_condition, malthusian_parameter, solve_delay,
)


@pytest.fixture(scope="session")
def model():
    return MarkovSIR(1.5, 1.0, step=0.005, a_max=40.0)


@pytest.fixture(scope="session")
def kernel(model):
    return model.kernel


@pytest.fixture(scope="session")
def ic(kernel):
    return initial_condition(kernel, 0.01, age_rate=0.5)


@pytest.fixture(scope="session")
def unit_contact():
    return ContactRate.constant(1.0)


@pytest.fixture(scope="session")
def alpha(kernel):
    return malthusian_parameter(kernel).alpha


@pytest.fixture(scope="session")
def sol(kernel, unit_contact, ic):
    """Reference limit solution: tau = 1.5 e^{-a}, g = Exp(1/2), I0 = 0.01."""
    return solve_delay(kernel, unit_contact, ic, 25.0, 0.005)


def _check_courses(batch, model):
    """Assert that `batch` holds valid courses of `model`: CSR offsets that
    cover the atoms, every atom row sorted and nonnegative, every entry-age
    row starting at 0 and strictly increasing, and the model's compartments."""
    offsets, atoms, entry = batch.offsets, batch.atoms, batch.entry_ages
    assert offsets.shape == (batch.n + 1,) and offsets[0] == 0 and offsets[-1] == atoms.size
    assert np.all(np.diff(offsets) >= 0), "offsets must be nondecreasing"
    owner = batch.owners()
    same_row = owner[1:] == owner[:-1]
    assert np.all(np.diff(atoms)[same_row] >= 0), "atoms must be sorted within each course"
    assert np.all(atoms >= 0), "atoms must be nonnegative"
    assert batch.compartments == model.compartments, "compartments must be the model's"
    assert entry.shape == (batch.n, len(model.compartments))
    assert np.all(entry[:, 0] == 0.0), "compartment paths must start at age 0"
    assert np.all(np.diff(entry, axis=1) > 0), "entry ages must be strictly increasing"


@pytest.fixture(scope="session")
def check_courses():
    return _check_courses
