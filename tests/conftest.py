import numpy as np
import pytest

from epichain import malthusian_parameter, reference_scenario


@pytest.fixture(scope="session")
def scenario():
    """The built-in reference scenario every fixture below is built from."""
    return reference_scenario()


@pytest.fixture(scope="session")
def model(scenario):
    return scenario.model


@pytest.fixture(scope="session")
def kernel(scenario):
    return scenario.model.kernel


@pytest.fixture(scope="session")
def ic(scenario):
    return scenario.ic


@pytest.fixture(scope="session")
def unit_contact(scenario):
    return scenario.contact_rate


@pytest.fixture(scope="session")
def alpha(kernel):
    return malthusian_parameter(kernel).alpha


@pytest.fixture(scope="session")
def sol(scenario):
    """Reference limit solution: tau = 1.5 e^{-a}, g = Exp(1/2), I0 = 0.01, T = 25."""
    return scenario.solution


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
