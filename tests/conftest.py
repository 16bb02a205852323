"""Shared fixtures: the benchmark networks used across the suite."""

import shutil
from pathlib import Path

import numpy as np
import pytest

from wacrisk.network import LaplacianSpectrum, NetworkModel, build_laplacian, load_network
from wacrisk.stats import mode_weight, pair_sigma

# the committed network documents: two_machine.json, two machines with uniform inertia 2 and damping 0.15
# whose linearised coupling matrix has mode eigenvalue 1.584 (damping ratio 0.075), and line3.json, the
# path 1-2-3 on three machines of the same inertia and damping
DATA = Path(__file__).resolve().parent.parent / "data"

# ten-machine benchmark: nonzero Laplacian mode eigenvalues of the reduced
# New England grid; the eigenbasis is the package's deterministic completion
IEEE39_MODES = [
    23.8762,
    31.8500,
    34.9876,
    44.5137,
    55.6556,
    64.0023,
    88.7335,
    94.8997,
    103.9912,
]
IEEE39_PARAMS = {"d": 0.075, "tau": 0.03, "eta": 1.1, "eta_meas": 0.2, "inertia": 2.0}


def uniform_gain_sigma(spectrum, mus, kappas, d, tau, noise, inertia):
    """Pair deviations, one row per uniform gain pair of the mu-outer (mus, kappas) grid that has a
    stationary law: one ``mode_weight`` and one ``pair_sigma`` call, as ``tradeoff_scan`` makes them."""
    mu, kappa = (grid.ravel()[:, None] for grid in np.meshgrid(mus, kappas, indexing="ij"))
    weights = mode_weight(spectrum.eigenvalues[1:], mu, kappa, d, tau, noise, inertia)
    return pair_sigma(spectrum.eigenvectors, np.pad(weights[np.isfinite(weights).all(axis=1)], ((0, 0), (1, 0))))


@pytest.fixture(scope="session")
def two_machine_model() -> NetworkModel:
    return load_network(DATA / "two_machine.json")


@pytest.fixture(scope="session")
def two_machine_spectrum(two_machine_model) -> LaplacianSpectrum:
    return build_laplacian(two_machine_model)


@pytest.fixture(scope="session")
def line3_model() -> NetworkModel:
    return load_network(DATA / "line3.json")


@pytest.fixture(scope="session")
def line3_spectrum(line3_model) -> LaplacianSpectrum:
    return build_laplacian(line3_model)


@pytest.fixture(scope="session")
def ieee39_spectrum() -> LaplacianSpectrum:
    return LaplacianSpectrum.from_eigenvalues(IEEE39_MODES)


@pytest.fixture()
def two_machine_path(tmp_path):
    return shutil.copy(DATA / "two_machine.json", tmp_path)


@pytest.fixture()
def line3_path(tmp_path):
    return shutil.copy(DATA / "line3.json", tmp_path)
