import pytest

from nhchain.model import ChainParams, build_hamiltonian
from nhchain.spectral import numeric_spectrum


@pytest.fixture(scope="session")
def params_small_ratio():
    """Reference chain: J=1, V=2e-4 (omega/J = 0.01), 201 sites."""
    return ChainParams(J=1.0, V=2e-4, half_width=100)


@pytest.fixture(scope="session")
def h_small_ratio(params_small_ratio):
    return build_hamiltonian(params_small_ratio)


@pytest.fixture(scope="session")
def spectrum12(h_small_ratio):
    return numeric_spectrum(h_small_ratio, count=12)


@pytest.fixture(scope="session")
def stable_modes(spectrum12):
    return spectrum12.stable_pair()


@pytest.fixture(scope="session")
def params_large_ratio():
    """Stiff chain: omega/J = 0.4 (V = 0.32), 61 sites."""
    return ChainParams(J=1.0, V=0.32, half_width=30)
