"""Monte Carlo and deterministic oracles for the delayed stochastic loop.

``simulate`` integrates the full 2n-dimensional linear stochastic delay
system with an Euler-Maruyama scheme: the step is snapped to an exact
divisor of the delay so delayed-state lookups land on grid nodes, and the
3n independent noise channels enter exactly as the diffusion structure
prescribes (load noise scaled by eta/J, measurement noise pushed through
the gain matrices with magnitude eta_meas).  Strong order 0.5 is enough
because only stationary second moments are compared against the analytic
formulas.

Reproducibility: trajectories are processed in fixed-size chunks, each
with its own counter-based Philox stream spawned from the master seed, so
the ensemble output is bit-identical no matter how the chunks are
scheduled.

``impulse_response`` integrates the deterministic unit-delay scalar mode
with a Heun scheme (delay lookups stay on the grid at both stages) from a
unit velocity kick; its squared time-integral times 2 pi must reproduce
the spectral integral, which is the package's independent check of the
delay-Lyapunov evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ValidationError
from .network import GainSpec, NetworkModel, build_laplacian, resolve_gains
from .stability import ScaledParams, network_verdict
from .stats import incidence_matrix, pair_list, NoiseParams

_CHUNK = 2048


@dataclass(frozen=True)
class SimConfig:
    """Ensemble integration settings.

    ``step`` is a request; the integrator snaps it to an exact divisor of
    the delay (and at most tau/10).  ``burn_in`` is the fraction of the
    horizon discarded before stationary averaging.  Initial history is
    constant on [-tau, 0]: ``phi_theta``/``phi_omega`` give the constant
    vectors (zeros when omitted).
    """

    step: float
    horizon: float
    trajectories: int
    burn_in: float = 0.5
    seed: int = 0
    phi_theta: np.ndarray | None = None
    phi_omega: np.ndarray | None = None

    def __post_init__(self):
        if self.step <= 0 or self.horizon <= 0:
            raise ValidationError("step and horizon must be positive")
        if not 0.0 < self.burn_in < 1.0:
            raise ValidationError("burn_in must lie in (0, 1)")
        if self.trajectories < 1:
            raise ValidationError("need at least one trajectory")


@dataclass(frozen=True)
class EnsembleStats:
    """Empirical stationary statistics with their standard errors."""

    pairs: tuple[tuple[int, int], ...]
    pair_variance: np.ndarray
    pair_variance_se: np.ndarray
    omega_second_moment: np.ndarray
    rho_hat: float
    rho_hat_se: float
    mean_drift: float       # max post-burn-in |ensemble mean theta - rho 1|
    step: float             # actual step after snapping
    steps_total: int
    steps_averaged: int


def _snap_step(step: float, tau: float) -> tuple[float, int]:
    """Largest step dividing tau exactly, at most min(step, tau/10)."""
    if tau == 0.0:
        return step, 0
    substeps = max(10, int(math.ceil(tau / step - 1e-12)))
    return tau / substeps, substeps


def simulate(
    model: NetworkModel,
    gains: GainSpec,
    tau: float,
    noise: NoiseParams,
    config: SimConfig,
    d: float | None = None,
    require_stable: bool = True,
) -> EnsembleStats:
    """Euler-Maruyama ensemble of the delayed closed loop.

    Raises InfeasibleError when stationary statistics are requested for an
    unstable configuration (set ``require_stable=False`` to force a run for
    diagnostic purposes).
    """
    spectrum = build_laplacian(model)
    if d is None:
        d = model.damping_ratio
    inertia = model.inertia
    resolved = resolve_gains(gains, spectrum)
    if require_stable and not network_verdict(spectrum, resolved, d, tau).stable:
        raise InfeasibleError("closed loop is unstable; stationary statistics undefined")

    n = spectrum.n
    h, delay_steps = _snap_step(config.step, tau)
    total_steps = max(int(round(config.horizon / h)), delay_steps + 2)
    burn_steps = int(config.burn_in * total_steps)
    steps_averaged = total_steps - burn_steps

    L = spectrum.laplacian
    M, K = resolved.M, resolved.K
    b = incidence_matrix(n)
    r = b.shape[0]

    phi_theta = np.zeros(n) if config.phi_theta is None else np.asarray(config.phi_theta, float)
    phi_omega = np.zeros(n) if config.phi_omega is None else np.asarray(config.phi_omega, float)
    if phi_theta.shape != (n,) or phi_omega.shape != (n,):
        raise ValidationError(f"initial history vectors must have shape ({n},)")

    load_scale = noise.eta / inertia
    meas_scale = noise.eta_meas
    sqrt_h = math.sqrt(h)

    master = np.random.SeedSequence(config.seed)
    n_chunks = (config.trajectories + _CHUNK - 1) // _CHUNK
    children = master.spawn(n_chunks)

    pair_acc = np.zeros((config.trajectories, r))   # per-path time-averaged y^2
    omega_acc = np.zeros((n, n))
    theta_mean_dev = 0.0
    rho_samples = np.zeros(config.trajectories)

    if resolved.mu[0] == 0.0 and resolved.kappa[0] == 0.0:
        rho_pred = float(phi_theta.sum() / n + phi_omega.sum() / (d * n))
    else:
        rho_pred = 0.0

    done = 0
    for chunk_idx in range(n_chunks):
        paths = min(_CHUNK, config.trajectories - done)
        rng = np.random.Generator(np.random.Philox(children[chunk_idx]))
        theta = np.tile(phi_theta, (paths, 1))
        omega = np.tile(phi_omega, (paths, 1))
        ring_theta = np.tile(phi_theta, (delay_steps + 1, paths, 1)).reshape(delay_steps + 1, paths, n)
        ring_omega = np.tile(phi_omega, (delay_steps + 1, paths, 1)).reshape(delay_steps + 1, paths, n)

        acc_y2 = np.zeros((paths, r))
        acc_omega = np.zeros((n, n))
        ens_theta_dev = 0.0

        for step_idx in range(total_steps):
            slot_delayed = (step_idx - delay_steps) % (delay_steps + 1)
            theta_del = ring_theta[slot_delayed]
            omega_del = ring_omega[slot_delayed]

            drift = -theta @ L - d * omega - theta_del @ M - omega_del @ K
            z = rng.standard_normal((3, paths, n))
            shock = load_scale * z[0]
            if meas_scale != 0.0:
                shock = shock + meas_scale * (z[1] @ M + z[2] @ K)
            omega_new = omega + h * drift + sqrt_h * shock
            theta_new = theta + h * omega

            theta, omega = theta_new, omega_new
            slot_new = (step_idx + 1) % (delay_steps + 1)
            ring_theta[slot_new] = theta
            ring_omega[slot_new] = omega

            if step_idx + 1 > burn_steps:
                y = theta @ b.T
                acc_y2 += y * y
                acc_omega += omega.T @ omega
                ens_theta_dev = max(ens_theta_dev, float(np.abs(theta.mean(axis=0) - rho_pred).max()))

        pair_acc[done : done + paths] = acc_y2 / steps_averaged
        omega_acc += acc_omega / steps_averaged
        rho_samples[done : done + paths] = theta.mean(axis=1)
        theta_mean_dev = max(theta_mean_dev, ens_theta_dev)
        done += paths

    pair_variance = pair_acc.mean(axis=0)
    if config.trajectories > 1:
        pair_se = pair_acc.std(axis=0, ddof=1) / math.sqrt(config.trajectories)
        rho_se = float(rho_samples.std(ddof=1) / math.sqrt(config.trajectories))
    else:
        pair_se = np.full(r, math.nan)
        rho_se = math.nan
    return EnsembleStats(
        pairs=pair_list(n),
        pair_variance=pair_variance,
        pair_variance_se=pair_se,
        omega_second_moment=omega_acc / config.trajectories,
        rho_hat=float(rho_samples.mean()),
        rho_hat_se=rho_se,
        mean_drift=theta_mean_dev,
        step=h,
        steps_total=total_steps,
        steps_averaged=steps_averaged,
    )


@dataclass(frozen=True)
class ImpulseResponse:
    """Sampled deterministic mode response to a unit velocity kick."""

    times: np.ndarray
    values: np.ndarray
    integral_sq: float
    step: float

    @property
    def parseval_value(self) -> float:
        """2 pi times the squared time-integral; matches the spectral integral."""
        return 2.0 * math.pi * self.integral_sq


def impulse_response(sp: ScaledParams, step: float = 0.002, t_max: float = 4000.0) -> ImpulseResponse:
    """Integrate x'' + s1 x' + s2 x + k2 x'(t-1) + k1 x(t-1) = 0 from x=0, x'=1.

    Heun integration with the step snapped to an exact divisor of the unit
    delay; terminates once the response envelope falls below 1e-8 and
    raises InfeasibleError when it has not decayed by ``t_max`` (or grows).
    """
    if step > 0.01:
        raise ValidationError("impulse-response step must be at most 0.01")
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
        stop = min(m + block, max_steps)
        for i in range(m, stop):
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
        peak = float(np.max(np.abs(x[max(0, m - block) : m + 1]))) + float(
            np.max(np.abs(v[max(0, m - block) : m + 1]))
        )
        if peak < 1e-8:
            times = np.arange(m + 1) * h
            return ImpulseResponse(times=times, values=x[: m + 1].copy(), integral_sq=integral, step=h)
        if peak > 1e9 or (m > 4 * block and peak > 100.0 * prev_block_peak):
            raise InfeasibleError("impulse response grows: mode tuple is unstable")
        prev_block_peak = peak
    raise InfeasibleError(f"impulse response did not decay below 1e-8 within t_max={t_max}")
