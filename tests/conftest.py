"""Shared fixtures: the water-over-porous-sandstone validation setup."""

import numpy as np
import pytest

from poroseis.cli import _keep_freed_memory, fixture_config
from poroseis.green import HalfspaceModel, QuadratureConfig, Receiver
from poroseis.media import AcousticMedium, PoroelasticParams, derive_poroelastic


def pytest_configure(config):
    # The suite runs the engine in-process, so it keeps freed memory as the
    # CLI does; this changes run time only, never a result.
    _keep_freed_memory()


@pytest.fixture(scope="session")
def acoustic():
    return AcousticMedium(rho_plus=1020.0, v_plus=1500.0)


@pytest.fixture(scope="session")
def poro_params():
    return PoroelasticParams(rho_s=2500.0, rho_f=1020.0, phi=0.4, a=2.0,
                             k_s=16.0554e9, k_f=2.295e9, k_b=10e9,
                             mu=9.63342e9)


@pytest.fixture(scope="session")
def poro(poro_params):
    return derive_poroelastic(poro_params)


@pytest.fixture(scope="session")
def model(acoustic, poro):
    return HalfspaceModel(acoustic=acoustic, poro=poro, source_height=500.0)


@pytest.fixture(scope="session")
def fluid_receiver():
    return Receiver(x=400.0, y=0.0, z=533.0)


@pytest.fixture(scope="session")
def porous_receiver():
    return Receiver(x=400.0, y=0.0, z=-533.0)


@pytest.fixture(scope="session")
def quad_cfg():
    return QuadratureConfig(n=2000, sin_substitution=True)


@pytest.fixture(scope="session")
def fast_cfg():
    """Coarser quadrature for tests that only probe structure, not accuracy."""
    return QuadratureConfig(n=400, sin_substitution=True)


@pytest.fixture(scope="session")
def fixture_cfg():
    return fixture_config()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
