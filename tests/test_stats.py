import math

import numpy as np
import pytest

from wacrisk.errors import InfeasibleError, ValidationError
from wacrisk.network import (
    GainSpec,
    GeneratorParams,
    NetworkModel,
    build_laplacian,
)
from wacrisk.stats import (
    NoiseParams,
    incidence_matrix,
    mode_weight,
    pair_deviations,
    pair_list,
)

D2, LAM2, J2 = 0.075, 1.584, 2.0
SIGMA_OPEN = 1.0155


def test_pair_enumeration_row_wise():
    assert pair_list(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    b = incidence_matrix(3)
    assert np.allclose(b, [[1, -1, 0], [1, 0, -1], [0, 1, -1]])
    assert np.allclose(b @ np.ones(3), 0.0)


def test_open_loop_two_machine_sigma(two_machine_spectrum):
    # closed form with zero gains
    stats = pair_deviations(
        two_machine_spectrum, GainSpec.zero(), D2, 0.0, NoiseParams(0.7, 0.0), J2
    )
    assert stats.sigma[0] == pytest.approx(SIGMA_OPEN, abs=1e-3)
    # the small-delay path approaches the same number
    delayed = pair_deviations(
        two_machine_spectrum, GainSpec.zero(), D2, 1e-3, NoiseParams(0.7, 0.0), J2
    )
    assert delayed.sigma[0] == pytest.approx(SIGMA_OPEN, abs=1e-3)


def test_open_loop_formula_specialisation(two_machine_spectrum):
    # zero gains reduce the closed form to load noise over 2 d lambda
    stats = pair_deviations(
        two_machine_spectrum, GainSpec.zero(), D2, 0.0, NoiseParams(0.7, 0.5), J2
    )
    expected = math.sqrt(2.0 * (0.7 / J2) ** 2 / (2.0 * D2 * LAM2))
    assert stats.sigma[0] == pytest.approx(expected, rel=1e-12)


def test_two_machine_mode_weight_relation(two_machine_spectrum):
    # with one nonzero mode and eigenvector gap weight 2, sigma^2 = weight / pi
    stats = pair_deviations(
        two_machine_spectrum, GainSpec.uniform(0.0, 0.8), D2, 0.05, NoiseParams(0.7, 0.3), J2
    )
    assert stats.mode_weights[0] == 0.0
    assert stats.sigma[0] ** 2 == pytest.approx(stats.mode_weights[1] / math.pi, rel=1e-12)
    assert stats.covariance.shape == (1, 1)
    assert stats.covariance[0, 0] == pytest.approx(stats.sigma[0] ** 2, rel=1e-12)


def test_mode_weight_direct_vs_vectorised(two_machine_spectrum):
    noise = NoiseParams(0.7, 0.3)
    w = mode_weight(LAM2, 0.0, 0.8, D2, 0.05, noise, J2)
    stats = pair_deviations(two_machine_spectrum, GainSpec.uniform(0.0, 0.8), D2, 0.05, noise, J2)
    assert w == pytest.approx(stats.mode_weights[1], rel=1e-9)


def test_zero_noise_zero_weights(two_machine_spectrum):
    stats = pair_deviations(
        two_machine_spectrum, GainSpec.uniform(0.0, 0.5), D2, 0.05, NoiseParams(0.0, 0.0), J2
    )
    assert np.allclose(stats.mode_weights, 0.0)
    assert np.allclose(stats.sigma, 0.0)


def test_synchronous_frequency_optimum(two_machine_spectrum):
    noise = NoiseParams(0.7, 0.3)
    stats = pair_deviations(
        two_machine_spectrum, GainSpec.uniform(0.0, 1.0941), D2, 0.0, noise, J2
    )
    assert stats.sigma[0] == pytest.approx(0.3526, abs=2e-4)
    # reduction by 65.3 percent from the open-loop deviation
    assert 1.0 - stats.sigma[0] / SIGMA_OPEN == pytest.approx(0.653, abs=5e-3)


def test_synchronous_phase_optimum(two_machine_spectrum):
    noise = NoiseParams(0.7, 0.3)
    stats = pair_deviations(
        two_machine_spectrum, GainSpec.uniform(0.38327, 0.0), D2, 0.0, noise, J2
    )
    assert stats.sigma[0] == pytest.approx(0.9591, abs=2e-4)


def test_complete_graph_symmetry():
    gens = tuple(GeneratorParams(2.0, 0.15, 1.0) for _ in range(3))
    y = np.ones((3, 3)) - np.eye(3)
    model = NetworkModel(generators=gens, equilibrium_theta=np.zeros(3), susceptance=y)
    spec = build_laplacian(model)
    stats = pair_deviations(
        spec, GainSpec.uniform(0.1, 0.4), model.damping_ratio, 0.05, NoiseParams(0.5, 0.2), 2.0
    )
    assert np.allclose(stats.sigma, stats.sigma[0], rtol=1e-9)


def test_unstable_mode_rejected(two_machine_spectrum):
    # delayed phase gain beyond the stability edge of the grid mode
    with pytest.raises(InfeasibleError):
        pair_deviations(
            two_machine_spectrum, GainSpec.uniform(1.0, 0.0), D2, 0.1, NoiseParams(0.7, 0.0), J2
        )


def test_no_delay_requires_delay_free_stability(two_machine_spectrum):
    with pytest.raises(InfeasibleError):
        pair_deviations(
            two_machine_spectrum, GainSpec.uniform(-2.0, 0.0), D2, 0.0, NoiseParams(0.7, 0.0), J2
        )


def test_load_noise_only_same_path(two_machine_spectrum):
    for tau in (1e-2, 1e-3):
        general = pair_deviations(
            two_machine_spectrum, GainSpec.uniform(0.0, 0.6), D2, tau, NoiseParams(0.7, 0.0), J2
        )
        special = pair_deviations(
            two_machine_spectrum, GainSpec.uniform(0.0, 0.6), D2, tau, NoiseParams(0.7), J2
        )
        assert special.sigma[0] == pytest.approx(general.sigma[0], rel=1e-8)
    no_delay = pair_deviations(
        two_machine_spectrum, GainSpec.uniform(0.0, 0.6), D2, 0.0, NoiseParams(0.7, 0.0), J2
    )
    assert special.sigma[0] == pytest.approx(no_delay.sigma[0], rel=1e-2)


def test_load_noise_only_prefactor(two_machine_spectrum):
    # the perfect-measurement form is the spectral sum scaled by
    # tau^{3/2} eta / (J sqrt(2 pi))
    from wacrisk.spectral import evaluate
    from wacrisk.stability import ScaledParams

    tau, eta = 0.1, 0.7
    stats = pair_deviations(
        two_machine_spectrum, GainSpec.uniform(0.0, 1.0), D2, tau, NoiseParams(eta), J2
    )
    f_val = evaluate(ScaledParams.from_physical(D2, LAM2, 0.0, 1.0, tau), rel_tol=1e-8).value
    expected = tau**1.5 * eta / (J2 * math.sqrt(2 * math.pi)) * math.sqrt(2.0 * f_val)
    assert stats.sigma[0] == pytest.approx(expected, rel=1e-6)


def test_zero_load_noise_gives_zero(two_machine_spectrum):
    stats = pair_deviations(
        two_machine_spectrum, GainSpec.uniform(0.0, 1.0), D2, 0.1, NoiseParams(0.0), J2
    )
    assert np.allclose(stats.sigma, 0.0)


def test_covariance_psd_random_networks():
    rng = np.random.default_rng(17)
    for _ in range(12):
        n = int(rng.integers(2, 6))
        w = rng.uniform(0.2, 1.5, size=(n, n))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        gens = tuple(GeneratorParams(2.0, 0.2, 1.0) for _ in range(n))
        model = NetworkModel(generators=gens, equilibrium_theta=np.zeros(n), susceptance=w)
        spec = build_laplacian(model)
        stats = pair_deviations(
            spec,
            GainSpec.uniform(float(rng.uniform(0, 0.3)), float(rng.uniform(0, 1.0))),
            model.damping_ratio,
            0.05,
            NoiseParams(0.5, 0.2),
            2.0,
        )
        eigs = np.linalg.eigvalsh(stats.covariance)
        assert eigs.min() >= -1e-10 * max(np.trace(stats.covariance), 1e-30)


def test_mode_one_invariance(line3_model, line3_spectrum):
    noise = NoiseParams(0.6, 0.2)
    base = pair_deviations(
        line3_spectrum, GainSpec.uniform(0.1, 0.5), line3_model.damping_ratio, 0.05, noise, 2.0
    )
    # gains on the consensus mode leave every pair deviation unchanged
    mu = np.array([0.3, 0.1, 0.1])
    kappa = np.array([0.2, 0.5, 0.5])
    shifted = pair_deviations(
        line3_spectrum, GainSpec.eigen(mu, kappa), line3_model.damping_ratio, 0.05, noise, 2.0
    )
    assert np.allclose(shifted.sigma, base.sigma, rtol=1e-10)
    # a constant added to every equilibrium phase does not alter the coupling
    gens = tuple(GeneratorParams(2.0, 0.15, 1.0) for _ in range(3))
    y = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    m0 = NetworkModel(generators=gens, equilibrium_theta=np.zeros(3), susceptance=y)
    m1 = NetworkModel(generators=gens, equilibrium_theta=np.full(3, 0.7), susceptance=y)
    s0 = pair_deviations(build_laplacian(m0), GainSpec.uniform(0.0, 0.4), 0.075, 0.05, noise, 2.0)
    s1 = pair_deviations(build_laplacian(m1), GainSpec.uniform(0.0, 0.4), 0.075, 0.05, noise, 2.0)
    assert np.allclose(s0.sigma, s1.sigma, rtol=1e-12)


@pytest.mark.parametrize("tau", [0.1, 0.0])
def test_unstable_mode_weight_is_inf_at_zero_noise(tau):
    # an unstable mode has no stationary law: +inf, never 0 * inf = nan
    w = mode_weight(LAM2, -2.0, 0.0, D2, tau, NoiseParams(0.0, 0.0), J2)
    assert w == math.inf


def test_negative_delay_rejected(two_machine_spectrum):
    with pytest.raises(ValidationError):
        mode_weight(LAM2, 0.0, 0.8, D2, -0.05, NoiseParams(0.7, 0.3), J2)
    with pytest.raises(ValidationError):
        pair_deviations(two_machine_spectrum, GainSpec.uniform(0.0, 0.8), D2, -0.05, NoiseParams(0.7, 0.3), J2)
