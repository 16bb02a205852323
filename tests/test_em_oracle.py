"""Exact discrete-time oracle for the Euler-Maruyama ensemble.

On the step grid, ``simulate`` runs the linear delay difference equation
x_{k+1} = S x_k + D x_{k-m} + G z_k with x = (theta, omega) in machine
coordinates.  Stacking the last m + 1 states gives a companion matrix of
size 2n(m+1), and the stationary covariance that the ensemble estimates
solves that matrix's discrete Lyapunov equation.  The consensus phase is a
random walk, so theta is projected onto the complement of the ones vector
in every slot; pair differences do not see the projection.  The equation is
solved by Smith doubling.  Nothing here goes through the modal assembly
that ``pair_deviations`` uses, so the two check each other.
"""

import numpy as np
import pytest

from wacrisk.network import GainSpec, build_laplacian
from wacrisk.simulate import SimConfig, _snap_step, simulate
from wacrisk.stability import network_verdict
from wacrisk.stats import NoiseParams, incidence_matrix, pair_deviations

# a 2n(m+1) state costs about 25 doublings of size^3 products; 256 keeps a solve under 0.1 s
_MAX_STATES = 256


def _exact_em_pair_variance(model, gains, tau, noise, step):
    """Stationary pair variances of the Euler-Maruyama recursion at the snapped step."""
    spectrum = build_laplacian(model)
    n, d = spectrum.n, model.damping_ratio
    g = network_verdict(spectrum, gains, d, tau).gains
    h, m = _snap_step(step, tau)
    size = 2 * n * (m + 1)
    if size > _MAX_STATES:
        raise ValueError(f"companion state of size {size} exceeds {_MAX_STATES}")
    eye = np.eye(n)
    a = np.zeros((size, size))
    a[: 2 * n, : 2 * n] = np.block([[eye, h * eye], [-h * spectrum.laplacian.T, (1.0 - h * d) * eye]])
    a[n : 2 * n, 2 * n * m :] -= h * np.hstack([g.M.T, g.K.T])  # at m = 0 this lands on S itself
    a[2 * n :, : -2 * n] = np.eye(size - 2 * n)
    # the three independent noise channels (eta/J) z0 + eta' (z1 M + z2 K), one step's worth
    channels = np.vstack([noise.eta / model.inertia * eye, noise.eta_meas * g.M, noise.eta_meas * g.K])
    cov = np.zeros((size, size))
    cov[n : 2 * n, n : 2 * n] = h * channels.T @ channels
    proj = np.eye(size)
    for slot in range(m + 1):
        proj[2 * n * slot : 2 * n * slot + n, 2 * n * slot : 2 * n * slot + n] -= 1.0 / n
    a = proj @ a @ proj
    for _ in range(64):
        cov = cov + a @ cov @ a.T
        a = a @ a
        if np.abs(a).max() < 1e-13:
            break
    else:
        raise AssertionError("Smith doubling did not converge: the recursion is not stable")
    b = incidence_matrix(n)
    return np.einsum("ij,jk,ik->i", b, cov[:n, :n], b)


def test_line3_ensemble_within_four_se_of_exact_discrete(line3_model):
    gains, noise = GainSpec.consensus(0.2, 0.5), NoiseParams(0.7, 0.3)
    exact = _exact_em_pair_variance(line3_model, gains, 0.05, noise, 0.005)
    config = SimConfig(step=0.005, horizon=40.0, trajectories=400, seed=1)
    mc = simulate(line3_model, gains, 0.05, noise, config)
    assert np.all(np.abs(mc.pair_variance - exact) <= 4.0 * mc.pair_variance_se)


@pytest.mark.parametrize(
    "network, gains, tau",
    [
        ("two_machine", GainSpec.uniform(0.5, 1.0), 0.1),
        ("line3", GainSpec.consensus(0.2, 0.5), 0.05),
        ("line3", GainSpec.consensus(0.2, 0.5), 0.0),
    ],
    ids=["two_machine", "line3", "line3_tau0"],
)
def test_exact_discrete_bias_is_first_order(request, network, gains, tau):
    model = request.getfixturevalue(f"{network}_model")
    noise = NoiseParams(0.7, 0.3)
    spectrum = build_laplacian(model)
    continuous = pair_deviations(spectrum, gains, model.damping_ratio, tau, noise, model.inertia).sigma ** 2
    coarse = _exact_em_pair_variance(model, gains, tau, noise, 0.005)
    fine = _exact_em_pair_variance(model, gains, tau, noise, 0.0025)
    bias_coarse, bias_fine = coarse / continuous - 1.0, fine / continuous - 1.0
    assert np.all((bias_coarse > 0.0) & (bias_coarse < 0.03))
    np.testing.assert_allclose(bias_coarse / bias_fine, 2.0, rtol=0.02)
    np.testing.assert_allclose(2.0 * fine - coarse, continuous, rtol=1e-4)


def test_exact_discrete_refuses_large_states(line3_model):
    with pytest.raises(ValueError, match="exceeds"):
        _exact_em_pair_variance(line3_model, GainSpec.consensus(0.2, 0.5), 0.05, NoiseParams(0.7, 0.3), 0.001)
