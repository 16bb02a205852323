import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from wacrisk.cli import run
from wacrisk.errors import InfeasibleError, ValidationError
from wacrisk.network import (
    GainSpec,
    GeneratorParams,
    LaplacianSpectrum,
    NetworkModel,
    build_laplacian,
    load_network,
)
from wacrisk.stability import network_verdict
from wacrisk.stats import (
    NoiseParams,
    incidence_matrix,
    mode_weight,
    pair_deviations,
    pair_list,
    pair_sigma,
)

D2, LAM2, J2 = 0.075, 1.584, 2.0
SIGMA_OPEN = 1.0155


def test_pair_enumeration_row_wise():
    assert pair_list(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    b = incidence_matrix(3)
    assert np.allclose(b, [[1, -1, 0], [1, 0, -1], [0, 1, -1]])
    assert np.allclose(b @ np.ones(3), 0.0)
    # the row-wise fill loop over pair_list is the reference
    for n in (2, 3, 4, 10):
        want = np.zeros((n * (n - 1) // 2, n))
        for row, (i, j) in enumerate(pair_list(n)):
            want[row, i - 1] = 1.0
            want[row, j - 1] = -1.0
        assert np.array_equal(incidence_matrix(n), want)


def _reference_pair_sigma(eigenvectors, weights):
    # the former one-gather form: every eigenvector gap in one (pairs, n) array
    i, j = np.triu_indices(eigenvectors.shape[0], 1)
    gaps = eigenvectors[i] - eigenvectors[j]
    weights = np.asarray(weights, dtype=float)[..., None, :]
    return np.sqrt(np.sum(gaps * weights * gaps, axis=-1) / (2.0 * math.pi))


@pytest.mark.parametrize("basis", ["two_machine", "line3", "ieee39", 2, 3, 10, 40, 120])
def test_pair_sigma_rows_independent_of_batch(basis, request):
    # n >= 8 takes NumPy's eight-accumulator pairwise sum; a row must still give the
    # same bits alone as inside a batch of any shape, and the bits of the one-gather form.
    # An integer basis is a seeded orthonormal n x n matrix
    if isinstance(basis, str):
        spectrum = request.getfixturevalue(f"{basis}_spectrum")
        q = spectrum.eigenvectors
    else:
        spectrum = None
        q = np.linalg.qr(np.random.default_rng(basis).normal(size=(basis, basis)))[0]
    n = q.shape[0]
    rng = np.random.default_rng(23)
    rows = rng.uniform(0.0, 2.0, size=(12, n)) * 10.0 ** rng.integers(-6, 3, size=(12, 1))
    rows[:, 0] = 0.0
    rows[1] = 0.0
    rows[2] = 1e-6 * rows[3]
    batch = pair_sigma(q, rows)
    assert batch.shape == (12, n * (n - 1) // 2)
    assert np.array_equal(pair_sigma(q, rows.reshape(3, 4, n)), batch.reshape(3, 4, -1))
    # the zero and the 1e-6-scaled rows are among the first four
    assert np.array_equal(batch[:4], _reference_pair_sigma(q, rows[:4]))
    square = rows[:4].reshape(2, 2, n)
    assert np.array_equal(pair_sigma(q, square), _reference_pair_sigma(q, square))
    assert np.array_equal(pair_sigma(np.asfortranarray(q), np.asfortranarray(rows)), batch)
    for row, sigma in zip(rows, batch):
        assert np.array_equal(pair_sigma(q, row), sigma)
        assert np.array_equal(_reference_pair_sigma(q, row), sigma)
    assert not batch[1].any()
    if spectrum is None:
        return
    bq = incidence_matrix(n) @ q
    for row, sigma in zip(rows, batch):
        covariance = (bq * row) @ bq.T / (2.0 * math.pi)
        np.testing.assert_allclose(sigma, np.sqrt(np.diag(covariance)), rtol=1e-15, atol=0.0)
    # pair_deviations gives the one-gather bits of its own mode weights
    for tau in (0.0, 0.03):
        for gains in (GainSpec.uniform(0.0, 0.8), GainSpec.uniform(0.1, 0.5)):
            stats = pair_deviations(spectrum, gains, D2, tau, NoiseParams(0.7, 0.3), J2)
            assert np.array_equal(stats.sigma, _reference_pair_sigma(q, stats.mode_weights))


def test_stats_cli_on_a_200_machine_ring_stays_small(tmp_path):
    # a ring with a chord from every tenth machine: the pair vector has 19,900 entries, so a
    # pairs x pairs array would need 3 GB and one pairs x n array 30 MiB; sigma needs the
    # eigenbasis and one row of pairs
    n = 200
    y = np.zeros((n, n))
    for i in range(n):
        y[i, (i + 1) % n] = y[(i + 1) % n, i] = 1.0
    for i in range(0, n, 10):
        y[i, (i + 47) % n] = y[(i + 47) % n, i] = 0.5
    doc = {
        "generators": [{"J": 2.0, "beta": 0.15, "E": 1.0}] * n,
        "equilibrium_theta": [0.0] * n,
        "susceptance": y.tolist(),
    }
    network, out = tmp_path / "ring200.json", tmp_path / "ring200.csv"
    network.write_text(json.dumps(doc))
    argv = ["stats", "--network", str(network), "--tau", "0.03", "--eta", "0.7", "--etap", "0.3",
            "--mu", "0.1", "--kappa", "0.5", "--out", str(out)]
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "j", "sigma"] and len(rows) - 1 == n * (n - 1) // 2 == 19_900
    model = load_network(network)
    spectrum = build_laplacian(model)
    d, noise = model.damping_ratio, NoiseParams(0.7, 0.3)
    sigma = pair_deviations(spectrum, GainSpec.uniform(0.1, 0.5), d, 0.03, noise, model.inertia).sigma
    assert [(int(i), int(j)) for i, j, _ in rows[1:]] == list(pair_list(n))
    assert [value for _, _, value in rows[1:]] == [f"{value:.12g}" for value in sigma]
    # a plain Python loop over pair_list, from the eigenbasis and the mode weights alone
    q = spectrum.eigenvectors.tolist()
    weights = [0.0] + mode_weight(spectrum.eigenvalues[1:], 0.1, 0.5, d, 0.03, noise, model.inertia).tolist()
    for row, (i, j) in enumerate(pair_list(n)):
        if row % 97 == 0 or row == len(sigma) - 1:
            want = math.sqrt(sum((a - b) ** 2 * w for a, b, w in zip(q[i - 1], q[j - 1], weights)) / (2.0 * math.pi))
            assert sigma[row] == pytest.approx(want, rel=1e-12, abs=0.0)


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
    bq = incidence_matrix(2) @ two_machine_spectrum.eigenvectors
    covariance = (bq * stats.mode_weights) @ bq.T / (2.0 * math.pi)
    assert covariance.shape == (1, 1)
    assert covariance[0, 0] == pytest.approx(stats.sigma[0] ** 2, rel=1e-12)


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


def test_refused_weight_of_a_stable_mode_is_not_called_unstable():
    # s1 = d tau = 17 is stable but past evaluate's strong-damping limit (about 16), so the
    # weight is refused; at d = 100 (s1 = 10) the same loop has its deviation
    spectrum, gains = LaplacianSpectrum.from_eigenvalues([1.0]), GainSpec.uniform(0.0, 0.5)
    assert network_verdict(spectrum, gains, 170.0, 0.1).stable
    with pytest.raises(InfeasibleError, match=r"^mode 2 is stable at tau=0\.1 but its weight is refused"):
        pair_deviations(spectrum, gains, 170.0, 0.1, NoiseParams(1.0), 1.0)
    assert np.isfinite(pair_deviations(spectrum, gains, 100.0, 0.1, NoiseParams(1.0), 1.0).sigma).all()


def test_no_delay_requires_delay_free_stability(two_machine_spectrum):
    with pytest.raises(InfeasibleError):
        pair_deviations(
            two_machine_spectrum, GainSpec.uniform(-2.0, 0.0), D2, 0.0, NoiseParams(0.7, 0.0), J2
        )


def test_unstable_consensus_mode_rejected_at_zero_delay(two_machine_spectrum):
    # network_verdict's rule for mode 1 holds at tau = 0 too: mu_1 = -0.5 is unstable
    gains = GainSpec.eigen([-0.5, 0.0], [0.0, 1.0])
    with pytest.raises(InfeasibleError, match="mode 1 is unstable"):
        pair_deviations(two_machine_spectrum, gains, D2, 0.0, NoiseParams(0.7, 0.0), J2)


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
    from wacrisk.stability import ScaledParams, scaled_coordinates

    tau, eta = 0.1, 0.7
    stats = pair_deviations(
        two_machine_spectrum, GainSpec.uniform(0.0, 1.0), D2, tau, NoiseParams(eta), J2
    )
    f_val = evaluate(ScaledParams(*scaled_coordinates(D2, LAM2, 0.0, 1.0, tau)), rel_tol=1e-8).value
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
        bq = incidence_matrix(n) @ spec.eigenvectors
        covariance = (bq * stats.mode_weights) @ bq.T / (2.0 * math.pi)
        eigs = np.linalg.eigvalsh(covariance)
        assert eigs.min() >= -1e-10 * max(np.trace(covariance), 1e-30)


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
    for tau in (-0.05, math.nan, math.inf):
        with pytest.raises(ValidationError, match="tau must be finite and nonnegative"):
            mode_weight(LAM2, 0.0, 0.8, D2, tau, NoiseParams(0.7, 0.3), J2)
        with pytest.raises(ValidationError, match="tau must be finite and nonnegative"):
            pair_deviations(two_machine_spectrum, GainSpec.uniform(0.0, 0.8), D2, tau, NoiseParams(0.7, 0.3), J2)


@pytest.mark.parametrize(
    "eta, eta_meas", [(-0.1, 0.0), (math.nan, 0.0), (math.inf, 0.0), (0.7, -0.1), (0.7, math.nan), (0.7, math.inf)]
)
def test_noise_magnitudes_must_be_nonnegative_reals(eta, eta_meas):
    with pytest.raises(ValidationError):
        NoiseParams(eta, eta_meas)
