import numpy as np
import pytest
from hypothesis import settings

from stochflow import basis as basis_mod
from stochflow.noise import build_noise
from stochflow.sde import build_system

# `pytest --hypothesis-profile=ci`: the same examples on every run, no deadline
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture(scope="session")
def basis2_1():
    return basis_mod.build_basis(2, 1)


@pytest.fixture(scope="session")
def basis2_2():
    return basis_mod.build_basis(2, 2)


@pytest.fixture(scope="session")
def basis2_3():
    return basis_mod.build_basis(2, 3)


@pytest.fixture(scope="session")
def conv2_2(basis2_2):
    return basis_mod.convection_tensor(basis2_2)


@pytest.fixture(scope="session")
def viscous_system(basis2_2, conv2_2):
    """nu = 0.1, no noise."""
    return build_system(basis2_2, build_noise(basis2_2), nu=0.1, conv=conv2_2)


@pytest.fixture(scope="session")
def additive_system(basis2_2, conv2_2):
    """nu = 0, additive noise of HS norm 0.5 on brownian mode 0."""
    eta_vec = np.zeros(basis2_2.n_modes)
    eta_vec[basis2_2.index_of("0,1:cos")] = 0.5
    eta_vec[basis2_2.index_of("1,0:sin")] = 0.5
    noise = build_noise(basis2_2, sigma1_modes=[(0, eta_vec)])
    return build_system(basis2_2, noise, nu=0.0, conv=conv2_2)


@pytest.fixture(scope="session")
def transport_system(basis2_2, conv2_2):
    """nu = 0, one transport field on brownian mode 0."""
    field = np.zeros(basis2_2.n_modes)
    field[basis2_2.index_of("1,0:cos")] = 0.6
    field[basis2_2.index_of("0,1:sin")] = 0.4
    noise = build_noise(basis2_2, transport_fields=[(0, field)])
    return build_system(basis2_2, noise, nu=0.0, conv=conv2_2)


def _mixed(basis, conv):
    gen = np.random.default_rng(11)
    field = gen.normal(scale=0.3, size=basis.n_modes) * (basis.k_sq <= 2)
    cols = gen.normal(scale=0.2, size=(3, basis.n_modes))
    noise = build_noise(basis, sigma1_modes=[(ell + 1, c) for ell, c in enumerate(cols)],
                        transport_fields=[(0, field)])
    return build_system(basis, noise, nu=0.05, conv=conv)


@pytest.fixture(scope="session")
def mixed_system(basis2_2, conv2_2):
    """nu = 0.05, one transport field on brownian mode 0 and three dense
    additive columns on modes 1-3; the field spans every mode with
    |k|^2 <= 2, so the Ito correction is a dense matrix too."""
    return _mixed(basis2_2, conv2_2)


@pytest.fixture(scope="session")
def mixed_system_c4():
    """`mixed_system` at 2-D cutoff 4 (N = 80), where rows of a matrix
    product that depend on the batch size round differently."""
    basis = basis_mod.build_basis(2, 4)
    return _mixed(basis, basis_mod.convection_tensor(basis))


@pytest.fixture(scope="session")
def mixed_system_3d():
    """`mixed_system` on the 3-D cutoff-1 basis (N = 52)."""
    basis = basis_mod.build_basis(3, 1)
    return _mixed(basis, basis_mod.convection_tensor(basis))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
