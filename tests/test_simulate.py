import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from wacrisk.errors import InfeasibleError, ValidationError
from wacrisk.network import GainSpec, build_laplacian, resolve_gains
from wacrisk.simulate import (
    _BLOCK_NORMALS,
    _CHUNK,
    SimConfig,
    _draws,
    _shock_factor,
    _snap_step,
    impulse_response,
    simulate,
)
from wacrisk.spectral import evaluate
from wacrisk.stability import ScaledParams, classify, network_verdict, rightmost_root
from wacrisk.stats import NoiseParams, incidence_matrix, pair_deviations
from wacrisk.synthesis import synthesize

D2, J2 = 0.075, 2.0


def test_step_snapping():
    h, substeps = _snap_step(0.01, 0.05)
    assert substeps == 10 and h == pytest.approx(0.005)
    h, substeps = _snap_step(0.003, 0.05)
    assert substeps == 17 and substeps * h == pytest.approx(0.05)
    assert _snap_step(0.01, 0.0) == (0.01, 0)


def test_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(step=0.0, horizon=1.0, trajectories=10)
    with pytest.raises(ValidationError):
        SimConfig(step=0.01, horizon=1.0, trajectories=10, burn_in=1.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            SimConfig(step=bad, horizon=1.0, trajectories=10)
        with pytest.raises(ValidationError):
            SimConfig(step=0.01, horizon=bad, trajectories=10)
    for bad in (-1, 1.5, "3"):
        with pytest.raises(ValidationError, match="seed"):
            SimConfig(step=0.01, horizon=1.0, trajectories=10, seed=bad)
    for bad in (1.5, math.nan, "3"):
        with pytest.raises(ValidationError, match="trajectories"):
            SimConfig(step=0.01, horizon=1.0, trajectories=bad)


@pytest.mark.parametrize("phi", [{"phi_theta": [math.nan, 0.0, 0.0]}, {"phi_omega": [0.0, math.inf, 0.0]}])
def test_non_finite_history_rejected(line3_model, phi):
    config = SimConfig(step=0.01, horizon=1.0, trajectories=2, **{k: np.array(v) for k, v in phi.items()})
    with pytest.raises(ValidationError, match="finite"):
        simulate(line3_model, GainSpec.consensus(0.2, 0.5), 0.05, NoiseParams(0.7, 0.3), config)


def _assert_same_law(M, K, noise, h=0.005):
    # Sigma of the three independent channels (eta/J) z0 + eta' (z1 @ M + z2 @ K)
    g = np.vstack([noise.eta / J2 * np.eye(M.shape[0]), noise.eta_meas * M, noise.eta_meas * K])
    target = h * (g.T @ g)
    factor = _shock_factor(M, K, noise, J2, h)
    assert np.all(np.isfinite(factor))
    assert np.linalg.norm(factor.T @ factor - target) <= 1e-13 * np.linalg.norm(target)
    return factor


# eta = 0: M 1 = K 1 = 0 leaves Sigma singular along the consensus direction
@pytest.mark.parametrize("eta, eta_meas, rank", [(0.7, 0.3, 3), (0.7, 0.0, 3), (0.0, 0.3, 2)])
def test_shock_factor_law_consensus(line3_spectrum, eta, eta_meas, rank):
    gains = resolve_gains(GainSpec.consensus(0.2, 0.5), line3_spectrum)
    factor = _assert_same_law(gains.M, gains.K, NoiseParams(eta, eta_meas))
    assert np.linalg.matrix_rank(factor) == rank


def test_shock_factor_law_synthesised_dense(line3_spectrum):
    noise = NoiseParams(0.7, 0.3)
    result = synthesize(line3_spectrum, D2, 0.05, noise, J2, grid_step=0.25)
    gains = resolve_gains(GainSpec.dense(result.M, result.K), line3_spectrum)
    _assert_same_law(gains.M, gains.K, noise)


def test_deterministic_consensus(two_machine_model):
    config = SimConfig(
        step=0.01,
        horizon=300.0,
        trajectories=1,
        burn_in=0.9,
        seed=1,
        phi_theta=np.array([0.4, -0.2]),
        phi_omega=np.array([0.05, 0.01]),
    )
    stats = simulate(two_machine_model, GainSpec.zero(), 0.0, NoiseParams(0.0, 0.0), config)
    rho = (0.4 - 0.2) / 2.0 + (0.05 + 0.01) / (D2 * 2.0)
    assert stats.rho_hat == pytest.approx(rho, abs=1e-3)
    assert np.all(stats.pair_variance < 1e-8)


def test_deterministic_consensus_with_delay(two_machine_model):
    config = SimConfig(
        step=0.01,
        horizon=300.0,
        trajectories=1,
        burn_in=0.9,
        seed=1,
        phi_theta=np.array([0.3, 0.1]),
        phi_omega=np.zeros(2),
    )
    stats = simulate(
        two_machine_model, GainSpec.uniform(0.0, 0.8), 0.05, NoiseParams(0.0, 0.0), config
    )
    assert stats.rho_hat == pytest.approx(0.2, abs=1e-3)


def _assert_identical(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


def test_reproducibility(line3_model):
    config = SimConfig(step=0.01, horizon=20.0, trajectories=300, seed=7)
    a = simulate(line3_model, GainSpec.consensus(0.2, 0.5), 0.05, NoiseParams(0.7, 0.3), config)
    b = simulate(line3_model, GainSpec.consensus(0.2, 0.5), 0.05, NoiseParams(0.7, 0.3), config)
    _assert_identical(a, b)
    c = simulate(
        line3_model,
        GainSpec.consensus(0.2, 0.5),
        0.05,
        NoiseParams(0.7, 0.3),
        SimConfig(step=0.01, horizon=20.0, trajectories=300, seed=8),
    )
    assert not np.array_equal(a.pair_variance, c.pair_variance)
    # two chunks, each with its own stream and its own ring
    config = SimConfig(step=0.01, horizon=2.0, trajectories=_CHUNK + 3, seed=7)
    a = simulate(line3_model, GainSpec.consensus(0.2, 0.5), 0.05, NoiseParams(0.7, 0.3), config)
    b = simulate(line3_model, GainSpec.consensus(0.2, 0.5), 0.05, NoiseParams(0.7, 0.3), config)
    _assert_identical(a, b)


def _simulate_row_loop(model, gains, tau, noise, config):
    """The Euler-Maruyama ensemble on (paths, n) theta and omega rows with a
    ``delay_steps + 1`` slot ring: the reference for ``simulate``'s fused
    column-layout step.  Same draws, same chunks; only the rounding differs."""
    spectrum = build_laplacian(model)
    d = model.damping_ratio
    verdict = network_verdict(spectrum, gains, d, tau)
    n = spectrum.n
    h, delay_steps = _snap_step(config.step, tau)
    total_steps = max(int(round(config.horizon / h)), delay_steps + 2)
    burn_steps = int(config.burn_in * total_steps)
    steps_averaged = total_steps - burn_steps
    L, M, K = spectrum.laplacian, verdict.gains.M, verdict.gains.K
    b = incidence_matrix(n)
    phi_theta = np.zeros(n) if config.phi_theta is None else np.asarray(config.phi_theta, float)
    phi_omega = np.zeros(n) if config.phi_omega is None else np.asarray(config.phi_omega, float)
    shock_factor = _shock_factor(M, K, noise, model.inertia, h)

    n_chunks = (config.trajectories + _CHUNK - 1) // _CHUNK
    children = np.random.SeedSequence(config.seed).spawn(n_chunks)
    pair_acc = np.zeros((config.trajectories, b.shape[0]))
    omega_acc = np.zeros((n, n))
    rho_samples = np.zeros(config.trajectories)
    done = 0
    for chunk_idx in range(n_chunks):
        paths = min(_CHUNK, config.trajectories - done)
        rng = np.random.Generator(np.random.Philox(children[chunk_idx]))
        theta = np.tile(phi_theta, (paths, 1))
        omega = np.tile(phi_omega, (paths, 1))
        ring_theta = np.tile(phi_theta, (delay_steps + 1, paths, 1))
        ring_omega = np.tile(phi_omega, (delay_steps + 1, paths, 1))
        acc_y2 = np.zeros((paths, b.shape[0]))
        acc_omega = np.zeros((n, n))
        for step_idx in range(total_steps):
            slot_delayed = (step_idx - delay_steps) % (delay_steps + 1)
            theta_del, omega_del = ring_theta[slot_delayed], ring_omega[slot_delayed]
            drift = -theta @ L - d * omega - theta_del @ M - omega_del @ K
            omega_new = omega + h * drift + rng.standard_normal((paths, n)) @ shock_factor
            theta_new = theta + h * omega
            theta, omega = theta_new, omega_new
            slot_new = (step_idx + 1) % (delay_steps + 1)
            ring_theta[slot_new] = theta
            ring_omega[slot_new] = omega
            if step_idx + 1 > burn_steps:
                y = theta @ b.T
                acc_y2 += y * y
                acc_omega += omega.T @ omega
        pair_acc[done : done + paths] = acc_y2 / steps_averaged
        omega_acc += acc_omega / steps_averaged
        rho_samples[done : done + paths] = theta.mean(axis=1)
        done += paths

    root_t = math.sqrt(config.trajectories)
    return {
        "pair_variance": pair_acc.mean(axis=0),
        "pair_variance_se": pair_acc.std(axis=0, ddof=1) / root_t,
        "omega_second_moment": omega_acc / config.trajectories,
        "rho_hat": float(rho_samples.mean()),
        "rho_hat_se": float(rho_samples.std(ddof=1) / root_t),
    }


_HISTORY = {"phi_theta": np.array([0.3, -0.1, 0.2]), "phi_omega": np.array([0.05, 0.0, -0.02])}


# tau 0 is a one-slot ring in the reference.  eta = 0 leaves Sigma singular:
# the consensus direction then gets rounding noise only, and rho_hat_se
# (about 1e-17) is compared through the absolute floor
@pytest.mark.parametrize(
    "tau, noise, paths, history",
    [
        (0.0, NoiseParams(0.7, 0.3), 200, {}),
        (0.05, NoiseParams(0.7, 0.3), 200, _HISTORY),
        (0.05, NoiseParams(0.7, 0.3), _CHUNK + 3, {}),
        (0.05, NoiseParams(0.7, 0.0), 200, _HISTORY),
        (0.05, NoiseParams(0.0, 0.3), 200, _HISTORY),
    ],
    ids=["tau0", "history", "two_chunks", "load_only", "eta0"],
)
def test_simulate_matches_row_layout_loop(line3_model, tau, noise, paths, history):
    gains = GainSpec.consensus(0.2, 0.5)
    config = SimConfig(step=0.005, horizon=2.0, trajectories=paths, seed=11, **history)
    want = _simulate_row_loop(line3_model, gains, tau, noise, config)
    got = simulate(line3_model, gains, tau, noise, config)
    for field, value in want.items():
        np.testing.assert_allclose(getattr(got, field), value, rtol=1e-12, atol=1e-15, err_msg=field)


# The ensemble outputs of one (paths, n) Philox fill per step, as float literals
# (line3, consensus gains (0.2, 0.5), eta 0.7, eta' 0.3, step 0.005, seed 11).  Any
# reordering of the stream changes them, which a rounding tolerance cannot show.
_PINNED_RUNS = {
    "tau0": (0.0, 200, 2.0, {}),
    "two_chunks": (0.05, _CHUNK + 3, 2.0, {}),
    "ragged_block": (0.05, 200, 2.005, {}),
    "history": (0.05, 200, 2.0, _HISTORY),
    "one_path_short": (0.0, 1, 0.01, {}),
}
_PINNED = {
    "tau0": {
        "steps_total": 400,
        "pair_variance": [0.07023519779647304, 0.10528958348639629, 0.06947820503148301],
        "pair_variance_se": [0.0062459145936702, 0.009281393508103858, 0.006549905144384537],
        "omega_second_moment": [
            [0.09840352798088366, 0.019038992380490054, 0.03637908662833488],
            [0.019038992380490054, 0.1138158875634028, 0.022635497124628423],
            [0.03637908662833488, 0.022635497124628423, 0.10427579714585916],
        ],
        "rho_hat": -0.008290614400744323,
        "rho_hat_se": 0.020971052273177485,
    },
    "two_chunks": {
        "steps_total": 400,
        "pair_variance": [0.07197795821898069, 0.11125517639531178, 0.07189180620741879],
        "pair_variance_se": [0.002017466882862854, 0.0032747098536387046, 0.0019874771472769407],
        "omega_second_moment": [
            [0.10946194865746826, 0.018670965640363326, 0.03791407248006639],
            [0.018670965640363326, 0.12352034739682674, 0.018554660323378186],
            [0.03791407248006639, 0.018554660323378186, 0.10777193881565449],
        ],
        "rho_hat": -0.0024267357658224005,
        "rho_hat_se": 0.0068307583829803715,
    },
    "ragged_block": {
        "steps_total": 401,
        "pair_variance": [0.07244223090168943, 0.10904117092984586, 0.07201425386697773],
        "pair_variance_se": [0.0063744779141872415, 0.0096024991428745, 0.006681928878837984],
        "omega_second_moment": [
            [0.1019604902871926, 0.015086072593534054, 0.03711218990169325],
            [0.015086072593534054, 0.12170869980801267, 0.018669054664766968],
            [0.03711218990169325, 0.018669054664766968, 0.10786112049363375],
        ],
        "rho_hat": -0.008296301656878873,
        "rho_hat_se": 0.021048599052160978,
    },
    "history": {
        "steps_total": 400,
        "pair_variance": [0.07581523223189358, 0.1117074203705402, 0.07955679163708651],
        "pair_variance_se": [0.006467048074613563, 0.009633328627833386, 0.007069536301680975],
        "omega_second_moment": [
            [0.11011592154082514, 0.005307775014153197, 0.03742865571799983],
            [0.005307775014153197, 0.13440169780416183, 0.016100200933417172],
            [0.03742865571799983, 0.016100200933417172, 0.110292319933126],
        ],
        "rho_hat": 0.14361821715922246,
        "rho_hat_se": 0.020971052273177485,
    },
    "one_path_short": {
        "steps_total": 2,
        "pair_variance": [5.581924047581227e-08, 9.30558917396459e-08, 4.732020015028043e-09],
        "pair_variance_se": [math.nan, math.nan, math.nan],
        "omega_second_moment": [
            [1.7917934811160362e-06, 2.5828201597411142e-05, -0.0001242109093308416],
            [2.5828201597411142e-05, 0.0003723062980120924, -0.0017904654976177883],
            [-0.0001242109093308416, -0.0017904654976177883, 0.008610562634252273],
        ],
        "rho_hat": 8.200599000428315e-05,
        "rho_hat_se": math.nan,
    },
}


def _pinned_run(model, case):
    tau, paths, horizon, history = _PINNED_RUNS[case]
    config = SimConfig(step=0.005, horizon=horizon, trajectories=paths, seed=11, **history)
    got = simulate(model, GainSpec.consensus(0.2, 0.5), tau, NoiseParams(0.7, 0.3), config)
    want = _PINNED[case]
    assert got.steps_total == want["steps_total"]
    for field in ("pair_variance", "pair_variance_se", "omega_second_moment", "rho_hat", "rho_hat_se"):
        assert np.array_equal(getattr(got, field), np.array(want[field]), equal_nan=True), field
    return got


def _block_steps(paths, n):
    return max(1, _BLOCK_NORMALS // (paths * n))


@pytest.mark.parametrize("case", ["tau0", "two_chunks", "ragged_block", "history"])
def test_simulate_stream_pinned(line3_model, case):
    got = _pinned_run(line3_model, case)
    if case == "ragged_block":
        assert got.steps_total % _block_steps(200, 3) != 0


def test_single_path_shorter_than_a_block(line3_model):
    assert _pinned_run(line3_model, "one_path_short").steps_total < _block_steps(1, 3)


def test_no_thread_outlives_simulate(line3_model, two_machine_model, monkeypatch):
    before = threading.enumerate()
    config = SimConfig(step=0.005, horizon=0.5, trajectories=_CHUNK + 3, seed=2)
    simulate(line3_model, GainSpec.consensus(0.2, 0.5), 0.05, NoiseParams(0.7, 0.3), config)
    assert threading.enumerate() == before
    with pytest.raises(InfeasibleError):
        simulate(two_machine_model, GainSpec.uniform(1.0, 0.0), 0.1, NoiseParams(0.7, 0.0), config)
    assert threading.enumerate() == before
    # a main-loop failure with the worker mid-stream: an incidence matrix one column too wide
    # breaks the first product after burn-in
    module = sys.modules["wacrisk.simulate"]
    monkeypatch.setattr(module, "incidence_matrix", lambda n: np.ones((1, n + 1)))
    with pytest.raises(ValueError):
        simulate(line3_model, GainSpec.consensus(0.2, 0.5), 0.05, NoiseParams(0.7, 0.3), config)
    assert threading.enumerate() == before


# several steps per block, so every test below crosses hand-overs
_PATHS, _N = 1024, 3
_STEPS_PER_BLOCK = _block_steps(_PATHS, _N)


def test_draw_ahead_is_the_step_by_step_stream():
    assert _STEPS_PER_BLOCK > 1
    steps = 3 * _STEPS_PER_BLOCK + 1
    with ThreadPoolExecutor(1) as pool:
        got = [z.copy() for z in _draws(pool, np.random.Generator(np.random.Philox(3)), steps, _PATHS, _N)]
    reference = np.random.Generator(np.random.Philox(3))
    assert len(got) == steps
    for z in got:
        assert np.array_equal(z, reference.standard_normal((_PATHS, _N)))


def test_draw_ahead_stress_under_fast_switching():
    # four consumers, each with its own worker, on fewer cores: a lost or doubled hand-over
    # would skip or repeat a block of the stream
    steps = 50 * _STEPS_PER_BLOCK + 1

    def consume(seed, log):
        reference = np.random.Generator(np.random.Philox(seed))
        with ThreadPoolExecutor(1) as pool:
            for step, z in enumerate(_draws(pool, np.random.Generator(np.random.Philox(seed)), steps, _PATHS, _N)):
                if not np.array_equal(z, reference.standard_normal((_PATHS, _N))):
                    log.append(step)
        log.append("done")

    logs = {seed: [] for seed in range(4)}
    workers = [threading.Thread(target=consume, args=(seed, log)) for seed, log in logs.items()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert all(log == ["done"] for log in logs.values()), logs


class _FailingGenerator:
    """Fills each block with its call number and raises on call ``fail_at``."""

    def __init__(self, fail_at):
        self.calls, self.fail_at = 0, fail_at

    def standard_normal(self, size):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("draw failed")
        return np.full(size, float(self.calls))


def test_draw_ahead_hands_helper_errors_to_the_caller_and_joins():
    before = threading.enumerate()
    steps = 5 * _STEPS_PER_BLOCK
    seen = []
    with pytest.raises(RuntimeError, match="draw failed"):
        with ThreadPoolExecutor(1) as pool:
            seen.extend(float(z[0, 0]) for z in _draws(pool, _FailingGenerator(fail_at=3), steps, _PATHS, _N))
    # blocks come back in submission order, so both good blocks are yielded in full first
    assert seen == [1.0] * _STEPS_PER_BLOCK + [2.0] * _STEPS_PER_BLOCK
    assert threading.enumerate() == before
    # a caller that stops early leaves no worker behind
    with ThreadPoolExecutor(1) as pool:
        next(_draws(pool, _FailingGenerator(fail_at=0), steps, _PATHS, _N))
    assert threading.enumerate() == before


def test_unstable_loop_rejected(two_machine_model):
    config = SimConfig(step=0.01, horizon=10.0, trajectories=2)
    with pytest.raises(InfeasibleError):
        simulate(two_machine_model, GainSpec.uniform(1.0, 0.0), 0.1, NoiseParams(0.7, 0.0), config)


def test_consensus_frequency_is_ornstein_uhlenbeck(two_machine_model):
    # with zero gains the consensus-mode frequency is a pure mean-reverting
    # channel with stationary variance (eta / J)^2 / (2 d)
    config = SimConfig(step=0.002, horizon=400.0, trajectories=400, burn_in=0.5, seed=3)
    stats = simulate(two_machine_model, GainSpec.zero(), 0.0, NoiseParams(0.7, 0.0), config)
    ones = np.full(2, 1.0 / math.sqrt(2.0))
    var_mode = float(ones @ stats.omega_second_moment @ ones)
    expected = (0.7 / J2) ** 2 / (2.0 * D2)
    assert var_mode == pytest.approx(expected, rel=0.15)


def test_two_machine_open_loop_sigma(two_machine_model):
    # lightly damped mode: the step must stay well below damping/stiffness
    config = SimConfig(step=5e-4, horizon=260.0, trajectories=600, burn_in=0.5, seed=5)
    stats = simulate(two_machine_model, GainSpec.zero(), 0.0, NoiseParams(0.7, 0.0), config)
    sigma = math.sqrt(stats.pair_variance[0])
    se_sigma = stats.pair_variance_se[0] / (2.0 * sigma)
    assert abs(sigma - 1.0155) <= 3.0 * se_sigma + 0.02


def test_matches_analytic_pair_deviations(line3_model, line3_spectrum):
    gains = GainSpec.consensus(0.2, 0.5)
    noise = NoiseParams(0.7, 0.3)
    theory = pair_deviations(line3_spectrum, gains, D2, 0.05, noise, J2)
    config = SimConfig(step=0.005, horizon=240.0, trajectories=2000, burn_in=0.5, seed=42)
    mc = simulate(line3_model, gains, 0.05, noise, config)
    sigma_mc = np.sqrt(mc.pair_variance)
    assert np.all(np.abs(sigma_mc - theory.sigma) / theory.sigma < 0.05)


def test_weak_convergence_under_step_halving(line3_model):
    gains = GainSpec.consensus(0.2, 0.5)
    noise = NoiseParams(0.7, 0.3)
    coarse = simulate(
        line3_model, gains, 0.05, noise, SimConfig(step=0.005, horizon=120.0, trajectories=3000, seed=9)
    )
    fine = simulate(
        line3_model, gains, 0.05, noise, SimConfig(step=0.0025, horizon=120.0, trajectories=3000, seed=10)
    )
    gap = np.abs(coarse.pair_variance - fine.pair_variance)
    se = np.sqrt(coarse.pair_variance_se**2 + fine.pair_variance_se**2)
    assert np.all(gap <= 3.0 * se)


# --- impulse response ---------------------------------------------------------


def test_impulse_response_closed_form():
    ir = impulse_response(ScaledParams(1.0, 1.0, 0.0, 0.0))
    assert ir.integral_sq == pytest.approx(0.5, abs=1e-4)
    assert ir.parseval_value == pytest.approx(math.pi, rel=5e-4)


def test_impulse_response_step_validated():
    with pytest.raises(ValidationError):
        impulse_response(ScaledParams(1.0, 1.0, 0.0, 0.0), step=0.05)
    for bad in (0.0, -0.001, math.nan):
        with pytest.raises(ValidationError, match="step"):
            impulse_response(ScaledParams(1.0, 1.0, 0.0, 0.0), step=bad)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="t_max"):
            impulse_response(ScaledParams(1.0, 1.0, 0.0, 0.0), t_max=bad)
    # nothing is allocated up front for the horizon: a decaying response
    # under a huge t_max is the one under the default
    sp = ScaledParams(1.0, 1.0, 0.0, 0.0)
    assert impulse_response(sp, t_max=1e12).integral_sq == impulse_response(sp).integral_sq


def _impulse_response_numpy_loop(sp, step=0.002, t_max=4000.0):
    """The Heun loop on preallocated NumPy arrays, step by step: the oracle of
    ``impulse_response``, with its block envelope and refusals."""
    substeps = int(round(1.0 / step))
    h = 1.0 / substeps
    s1, s2, k1, k2 = sp.s1, sp.s2, sp.k1, sp.k2
    max_steps = int(t_max / h)
    x = np.zeros(max_steps + 1)
    v = np.zeros(max_steps + 1)
    v[0] = 1.0

    def accel(xi, vi, xd, vd):
        return -s1 * vi - s2 * xi - k2 * vd - k1 * xd

    integral = 0.0
    block = max(int(25.0 / h), 1)
    prev_block_peak = math.inf
    m = 0
    while m < max_steps:
        start, stop = m, min(m + block, max_steps)
        for i in range(start, stop):
            di = i - substeps
            xd0 = x[di] if di >= 0 else 0.0
            vd0 = v[di] if di >= 0 else 0.0
            a1 = accel(x[i], v[i], xd0, vd0)
            xp = x[i] + h * v[i]
            vp = v[i] + h * a1
            dj = i + 1 - substeps
            xd1 = x[dj] if dj >= 0 else 0.0
            vd1 = v[dj] if dj >= 0 else 0.0
            a2 = accel(xp, vp, xd1, vd1)
            x[i + 1] = x[i] + 0.5 * h * (v[i] + vp)
            v[i + 1] = v[i] + 0.5 * h * (a1 + a2)
            integral += 0.5 * h * (x[i] * x[i] + x[i + 1] * x[i + 1])
        m = stop
        peak = float(np.max(np.abs(x[start : m + 1]))) + float(np.max(np.abs(v[start : m + 1])))
        if peak < 1e-8:
            return m, integral
        if peak > 1e9 or (m > 4 * block and peak > 100.0 * prev_block_peak):
            raise InfeasibleError("impulse response grows: mode tuple is unstable")
        prev_block_peak = peak
    raise InfeasibleError(f"impulse response did not decay below 1e-8 within t_max={t_max}")


@pytest.mark.parametrize(
    "sp",
    [
        ScaledParams(1.0, 1.0, 0.3, 0.2),
        ScaledParams(0.8, 1.7, -0.6, 0.9),
        ScaledParams(np.float64(2.1), np.float64(0.5), np.float64(0.4), np.float64(-1.2)),
        # a slow decay (rate 0.2) over five blocks, the one the memory test traces
        ScaledParams(0.4, 1.0, 0.0, 0.0),
        # undamped, with negative gains that only the unit delay turns stabilising
        # (s1 + k2 < 0: the same gains without delay would destabilise the mode)
        ScaledParams(0.0, 9.87, -1.0, -0.5),
    ],
)
def test_impulse_response_bit_identical_to_numpy_loop(sp):
    # the affine recurrence reorders the Heun arithmetic: its steps and time
    # grid are the loop's bit for bit, its integral_sq agrees within 1e-10
    assert rightmost_root(sp).real <= -0.05
    # 1/150: a 25-unit block is 3749 steps, not a whole number of 150-step units
    for step in (0.002, 0.003, 1.0 / 150.0):
        steps, integral_sq = _impulse_response_numpy_loop(sp, step)
        ir = impulse_response(sp, step)
        assert ir.steps == steps
        assert ir.integral_sq == pytest.approx(integral_sq, rel=1e-10, abs=0.0)
        assert np.array_equal(ir.times, np.arange(steps + 1) * ir.step)


@pytest.mark.parametrize(
    "sp, block",
    [
        # each refused past 1e9: the envelope grows 72-fold per block (rightmost
        # root 0.17 + 1.67i), 4870-fold, then 12-fold
        (ScaledParams(0.0, 0.0, 0.0, 2.0), 5),
        (ScaledParams(0.0, 1.0, 0.0, -2.0), 3),
        (ScaledParams(0.0, 1.0, 0.0, -0.4), 9),
    ],
)
def test_impulse_response_refuses_growth_on_the_numpy_loop_block(sp, block):
    # a horizon ending one block short of the refusal is not long enough to decay;
    # both the recurrence and the oracle call it so, then refuse the same block
    for t_max in (25.0 * (block - 1), 25.0 * block):
        with pytest.raises(InfeasibleError) as oracle:
            _impulse_response_numpy_loop(sp, t_max=t_max)
        with pytest.raises(InfeasibleError) as recurrence:
            impulse_response(sp, t_max=t_max)
        assert str(recurrence.value) == str(oracle.value)
    assert "grows" in str(recurrence.value)


def test_impulse_response_overflow_in_first_block_is_growth():
    # the kick arrives through gains of 1e300 one unit late and overflows within
    # that unit; no RuntimeWarning escapes the NumPy steps of the run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InfeasibleError, match="grows"):
            impulse_response(ScaledParams(0.0, 0.0, -1e300, -1e300), t_max=100.0)


def test_impulse_response_memory_bounded_by_one_block():
    # a slow decay (rate 0.2) runs 125 time units, 1 MB of samples; the loop
    # keeps one unit delay of u (501 floats) and one unit of x and x' as raw
    # doubles, and the envelope is a running max, so the peak stays near 35 KB,
    # not one 25-unit block
    sp = ScaledParams(0.4, 1.0, 0.0, 0.0)
    tracemalloc.start()
    try:
        ir = impulse_response(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ir.steps == 62_500
    assert peak < 100_000


def test_impulse_response_unstable_raises():
    with pytest.raises(InfeasibleError):
        impulse_response(ScaledParams(0.0, 0.0, 0.0, 2.0), t_max=400.0)


def test_parseval_identity_sample():
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 5:
        sp = ScaledParams(*rng.uniform(0.4, 2.5, 2), *rng.uniform(-1.5, 1.5, 2))
        if not classify(sp).stable:
            continue
        checked += 1
        f_val = evaluate(sp, rel_tol=1e-7).value
        ir = impulse_response(sp)
        assert ir.parseval_value == pytest.approx(f_val, rel=5e-3)
