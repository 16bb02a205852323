"""Shared fixtures: the benchmark networks used across the suite."""

import json

import numpy as np
import pytest

from wacrisk.network import (
    GeneratorParams,
    LaplacianSpectrum,
    NetworkModel,
    build_laplacian,
)
from wacrisk.stats import mode_weight, pair_sigma

# two synchronous machines, uniform inertia 2 and damping 0.15, whose
# linearised coupling matrix has mode eigenvalue 1.584 and damping ratio 0.075
TWO_MACHINE_DOC = {
    "generators": [
        {"J": 2.0, "beta": 0.15, "E": 1.2},
        {"J": 2.0, "beta": 0.15, "E": 2.0},
    ],
    "equilibrium_theta": [0.0, 0.0],
    "laplacian": [[0.792, -0.792], [-0.792, 0.792]],
}

LINE3_DOC = {
    "generators": [{"J": 2.0, "beta": 0.15, "E": 1.0} for _ in range(3)],
    "equilibrium_theta": [0.0, 0.0, 0.0],
    "laplacian": [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]],
}

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
    gens = tuple(
        GeneratorParams(inertia=g["J"], damping=g["beta"], voltage=g["E"])
        for g in TWO_MACHINE_DOC["generators"]
    )
    return NetworkModel(
        generators=gens,
        equilibrium_theta=TWO_MACHINE_DOC["equilibrium_theta"],
        laplacian=TWO_MACHINE_DOC["laplacian"],
    )


@pytest.fixture(scope="session")
def two_machine_spectrum(two_machine_model) -> LaplacianSpectrum:
    return build_laplacian(two_machine_model)


@pytest.fixture(scope="session")
def line3_model() -> NetworkModel:
    gens = tuple(
        GeneratorParams(inertia=g["J"], damping=g["beta"], voltage=g["E"])
        for g in LINE3_DOC["generators"]
    )
    return NetworkModel(
        generators=gens,
        equilibrium_theta=LINE3_DOC["equilibrium_theta"],
        laplacian=LINE3_DOC["laplacian"],
    )


@pytest.fixture(scope="session")
def line3_spectrum(line3_model) -> LaplacianSpectrum:
    return build_laplacian(line3_model)


@pytest.fixture(scope="session")
def ieee39_spectrum() -> LaplacianSpectrum:
    return LaplacianSpectrum.from_eigenvalues(IEEE39_MODES)


@pytest.fixture()
def two_machine_path(tmp_path):
    path = tmp_path / "two_machine.json"
    path.write_text(json.dumps(TWO_MACHINE_DOC))
    return str(path)


@pytest.fixture()
def line3_path(tmp_path):
    path = tmp_path / "line3.json"
    path.write_text(json.dumps(LINE3_DOC))
    return str(path)
