"""Deterministic full-state oracle for the modal pair-deviation assembly.

``pair_deviations`` sums sigma_ij^2 = sum_l (q_il - q_jl)^2 w_l / 2 pi over
the Laplacian eigenbasis.  This file solves the same stationary covariance
in machine coordinates instead, with no modal decomposition.  The phases
enter through their differences to the last machine, delta = D theta with
D = [I_{n-1} | -1]; since L 1 = M 1 = K 1 = 0, theta may be replaced by
P delta with P = [I_{n-1}; 0].  The state (delta, omega) of size
m = 2n - 1 then obeys x' = A0 x + A1 x(t - tau) + noise, with

    A0 = [[0, D], [-L P, -d I]],    A1 = [[0, 0], [-M P, -K]],

and the noise enters the frequency rows with the covariance that
``simulate._shock_factor`` factors, Sigma = (eta/J)^2 I + eta'^2 (M M^T + K K^T).
The consensus frequency decays at rate d, so the loop is exponentially
stable whenever every mode is, and its stationary covariance
Pi = int_0^inf Phi W Phi^T dt exists.  Pi is U(0), the delay Lyapunov
matrix (Kharitonov) of the transposed pair (A0^T, A1^T).  On [0, tau],
X(t) = U(t) and Z(t) = U(t - tau) follow a linear flow; one matrix
exponential maps their initial values to their final ones, and the
boundary condition Z(tau) = X(0), the symmetry of X(0) and the jump
condition at t = 0 form a consistent 3m^2 x 2m^2 linear system.  At
tau = 0 the system is the plain Lyapunov equation.
"""

import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_lyapunov

from wacrisk.network import GainSpec, resolve_gains
from wacrisk.stats import NoiseParams, pair_deviations
from wacrisk.synthesis import synthesize

from conftest import IEEE39_PARAMS

D2, J2 = 0.075, 2.0


def _stationary_covariance(a0, a1, w, tau):
    """Pi = int_0^inf Phi W Phi^T dt for x' = a0 x + a1 x(t - tau), Phi its fundamental matrix."""
    if tau == 0.0:
        return solve_continuous_lyapunov(a0 + a1, -w)
    m = a0.shape[0]
    eye = np.eye(m)
    # row-major vec: vec(A X B) = (A kron B^T) vec(X)
    flow = np.block([
        [np.kron(eye, a0), np.kron(eye, a1)],  # X' = X A0^T + Z A1^T
        [-np.kron(a1, eye), -np.kron(a0, eye)],  # Z' = -A0 Z - A1 X
    ])
    x_end, z_end = np.split(expm(tau * flow), 2)  # vec X(tau) and vec Z(tau) from (vec X(0), vec Z(0))
    swap = np.eye(m * m)[np.arange(m * m).reshape(m, m).T.ravel()]  # vec(X^T) = swap vec(X)
    start = np.hstack([np.eye(m * m), np.zeros((m * m, m * m))])  # vec X(0)
    # the jump at t = 0: A0 X(0) + X(0) A0^T + Z(0) A1^T + A1 X(tau) = -W
    jump = np.hstack([np.kron(a0, eye) + np.kron(eye, a0), np.kron(eye, a1)]) + np.kron(a1, eye) @ x_end
    system = np.vstack([z_end - start, start - swap @ start, jump])  # Z(tau) = X(0), X(0) = X(0)^T, jump
    rhs = np.concatenate([np.zeros(2 * m * m), -w.ravel()])
    solution = np.linalg.lstsq(system, rhs, rcond=None)[0]
    return solution[: m * m].reshape(m, m)


def _full_state_pair_variance(spectrum, gains, d, tau, noise, inertia):
    """sigma_ij^2 of every pair, row-wise, from the machine-coordinate delay Lyapunov matrix."""
    n = spectrum.n
    g = resolve_gains(gains, spectrum)
    diff = np.hstack([np.eye(n - 1), -np.ones((n - 1, 1))])  # D
    pad = np.vstack([np.eye(n - 1), np.zeros((1, n - 1))])  # P
    zeros = np.zeros((n - 1, n - 1))
    a0 = np.block([[zeros, diff], [-spectrum.laplacian @ pad, -d * np.eye(n)]])
    a1 = np.block([[zeros, np.zeros((n - 1, n))], [-g.M @ pad, -g.K]])
    sigma = (noise.eta / inertia) ** 2 * np.eye(n) + noise.eta_meas**2 * (g.M @ g.M.T + g.K @ g.K.T)
    w = np.zeros((2 * n - 1, 2 * n - 1))
    w[n - 1 :, n - 1 :] = sigma
    delta = pad @ _stationary_covariance(a0, a1, w, tau)[: n - 1, : n - 1] @ pad.T  # delta_n = 0
    i, j = np.triu_indices(n, 1)
    return delta[i, i] + delta[j, j] - 2.0 * delta[i, j]


def _assert_matches_oracle(spectrum, gains, tau, noise, d=D2, inertia=J2):
    sigma = pair_deviations(spectrum, gains, d, tau, noise, inertia).sigma
    oracle = _full_state_pair_variance(spectrum, gains, d, tau, noise, inertia)
    np.testing.assert_allclose(sigma**2, oracle, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("tau", [0.0, 0.1])
def test_two_machine_uniform(two_machine_spectrum, tau):
    _assert_matches_oracle(two_machine_spectrum, GainSpec.uniform(0.0, 0.8), tau, NoiseParams(0.7, 0.3))


@pytest.mark.parametrize("tau", [0.0, 0.05, 0.1])
@pytest.mark.parametrize("gains", [GainSpec.consensus(0.2, 0.5), GainSpec.uniform(0.3, 1.0)], ids=["consensus", "uniform"])
def test_line3(line3_spectrum, gains, tau):
    _assert_matches_oracle(line3_spectrum, gains, tau, NoiseParams(0.7, 0.3))


def test_line3_synthesised_dense(line3_spectrum):
    noise = NoiseParams(0.7, 0.3)
    result = synthesize(line3_spectrum, D2, 0.05, noise, J2, grid_step=0.25)
    _assert_matches_oracle(line3_spectrum, GainSpec.dense(result.M, result.K), 0.05, noise)


@pytest.mark.parametrize("synthesised", [False, True], ids=["open_loop", "synthesised"])
def test_ieee39(ieee39_spectrum, synthesised):
    p = IEEE39_PARAMS
    d, tau, noise, inertia = p["d"], p["tau"], NoiseParams(p["eta"], p["eta_meas"]), p["inertia"]
    gains = GainSpec.zero()
    if synthesised:
        gains = synthesize(ieee39_spectrum, d, tau, noise, inertia, (0.0, 1.0, 0.0, 4.0), 0.25).gain_spec()
    _assert_matches_oracle(ieee39_spectrum, gains, tau, noise, d, inertia)
