"""Monte Carlo and deterministic oracles for the delayed stochastic loop.

``simulate`` integrates the full 2n-dimensional linear stochastic delay
system with an Euler-Maruyama scheme: the step is snapped to an exact
divisor of the delay so delayed-state lookups land on grid nodes.  The
three noise channels (load noise scaled by eta/J, measurement noise pushed
through the gain matrices with magnitude eta_meas) add one Gaussian
frequency increment per step with covariance h Sigma,
Sigma = (eta/J)^2 I + eta_meas^2 (M^T M + K^T K), so each step draws one
correlated n-dimensional normal with that law instead of 3n independent
ones.  Sigma is factored in machine coordinates, not in the Laplacian
eigenbasis, so the ensemble stays independent of the modal assembly it
checks.  Strong order 0.5 is enough because only stationary second
moments are compared against the analytic formulas.

The ensemble state is one ``(2n, paths)`` array, rows theta then omega and
one column per path, so a step is two small matrix products over all paths
at once: ``step_now = [[I, hI], [-hL^T, (1-hd)I]]`` on the current state
and ``step_delayed = -h[M^T K^T]`` on the delayed one, added into the omega
rows together with the shock.

Reproducibility: trajectories are processed in fixed-size chunks, each
with its own counter-based Philox stream spawned from the master seed, so
the ensemble output is bit-identical no matter how the chunks are
scheduled.  A chunk's normals are drawn one block of steps ahead on a
one-worker ``ThreadPoolExecutor`` (``_draws``) while the main thread
integrates the previous block; NumPy releases the GIL in the Philox fill
and the matrix products, so the two overlap on two cores (on one CPU they
take turns).  The stream is unchanged: one ``(rows, paths, n)`` draw
consumes the generator exactly as ``rows`` successive ``(paths, n)``
draws do, and the blocks are drawn in step order.

``impulse_response`` integrates the deterministic unit-delay scalar mode
with a Heun scheme (delay lookups stay on the grid at both stages) from a
unit velocity kick.  The delayed channel u = k1 x + k2 x' enters one unit
late, so over the next unit it is already known and the Heun step is an
affine map of (x, x') driven by u: NumPy forms the drive, the sum of x^2
and the envelope one unit at a time, and a plain-float loop keeps only the
2x2 recurrence.  Memory is one unit delay of u and a running envelope of
each 25-unit block.  Its squared time-integral times 2 pi must reproduce
the spectral integral, the package's independent check of the
delay-Lyapunov evaluation.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ValidationError
from .network import GainSpec, NetworkModel, build_laplacian
from .stability import ScaledParams, network_verdict
from .stats import incidence_matrix, pair_list, NoiseParams

_CHUNK = 2048
# normals per block of steps: 4 steps at 2048 paths on three machines, more steps
# at fewer paths, so the executor hand-over per block stays small against the draw
# (2-step blocks ran about 5% slower); up to three blocks are live, 0.6 MB in all
_BLOCK_NORMALS = 24576
# largest delay ring (one chunk) or per-path accumulator accepted, in floats; counted before any array is built
_MAX_FLOATS = 10**8
# most Euler-Maruyama steps accepted per path (about 100 s a path at 100 ns a path-step); counted before any array is built
_MAX_STEPS = 10**9


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
        if not (0.0 < self.step < math.inf and 0.0 < self.horizon < math.inf):
            raise ValidationError(f"step and horizon must be positive reals, got {self.step}, {self.horizon}")
        if not 0.0 < self.burn_in < 1.0:
            raise ValidationError("burn_in must lie in (0, 1)")
        if not isinstance(self.trajectories, (int, np.integer)) or self.trajectories < 1:
            raise ValidationError(f"need a positive integer number of trajectories, got {self.trajectories!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True)
class EnsembleStats:
    """Empirical stationary statistics with their standard errors."""

    pairs: tuple[tuple[int, int], ...]
    pair_variance: np.ndarray
    pair_variance_se: np.ndarray
    omega_second_moment: np.ndarray
    rho_hat: float
    rho_hat_se: float
    step: float             # actual step after snapping
    steps_total: int
    steps_averaged: int


def _snap_step(step: float, tau: float) -> tuple[float, int]:
    """Largest step dividing tau exactly, at most min(step, tau/10).

    Raises ValidationError when tau/step overflows (a subnormal step).
    """
    if tau == 0.0:
        return step, 0
    ratio = tau / step
    if not math.isfinite(ratio):
        raise ValidationError(f"step {step!r} is too small for delay {tau!r}: tau/step overflows")
    substeps = max(10, int(math.ceil(ratio - 1e-12)))
    return tau / substeps, substeps


def _shock_factor(M: np.ndarray, K: np.ndarray, noise: NoiseParams, inertia: float, h: float) -> np.ndarray:
    """F with F^T F = h Sigma: ``z @ F`` (z standard normal) is one step's frequency shock.

    Sigma is singular when eta = 0 (M 1 = K 1 = 0), so eigenvalues within
    rounding of zero are clipped to exactly zero.
    """
    n = M.shape[0]
    sigma = (noise.eta / inertia) ** 2 * np.eye(n) + noise.eta_meas**2 * (M.T @ M + K.T @ K)
    w, v = np.linalg.eigh(h * sigma)
    w = np.where(w > n * np.finfo(float).eps * w.max(), w, 0.0)
    return np.sqrt(w)[:, None] * v.T


def _draws(pool, rng: np.random.Generator, steps: int, paths: int, n: int):
    """A chunk's standard normals, one ``(paths, n)`` draw per step in stream order.

    A block is as many steps as fit in ``_BLOCK_NORMALS`` normals (at least
    one, at most ``steps``).  Block k + 1 is queued on the one-worker
    ``pool`` before the caller waits for block k, so the worker goes from
    one block to the next without waiting for the caller, drawing while it
    integrates; ``result()`` re-raises a worker's error at that block.
    """
    block = min(steps, max(1, _BLOCK_NORMALS // (paths * n)))
    pending = None
    for start in range(0, steps, block):
        queued = pool.submit(rng.standard_normal, (min(block, steps - start), paths, n))
        if pending is not None:
            yield from pending.result()
        pending = queued
    yield from pending.result()


def simulate(
    model: NetworkModel,
    gains: GainSpec,
    tau: float,
    noise: NoiseParams,
    config: SimConfig,
) -> EnsembleStats:
    """Euler-Maruyama ensemble of the delayed closed loop at the model's damping ratio.

    Each step draws one n-dimensional standard normal per path and maps it
    through a factor of the step covariance h Sigma (see ``_shock_factor``),
    which has the law of the three independent noise channels; Sigma is
    factored once per call, in machine coordinates.

    The draws come from ``_draws`` on a one-worker executor per chunk,
    joined on every exit path before the chunk's statistics are reduced.
    Each chunk keeps its ``(2n, paths)`` states in a ring of
    ``delay_steps + 2`` slots: ``step_now`` writes the next state straight
    into its slot, then ``step_delayed`` and the shock are added to its
    omega rows in place.  With two slots more than the delay, the slot
    written is never the current or the delayed one (tau = 0 included), so
    no step reads a slot it is overwriting.

    Raises InfeasibleError when the loop is unstable: its stationary
    statistics are undefined, and ValidationError, before any array is built,
    when the step is too small to snap (tau/step overflows), when a chunk's
    delay ring or the per-path averages exceed ``_MAX_FLOATS``, or when the
    horizon needs more than ``_MAX_STEPS`` steps.
    """
    # not at module level: concurrent.futures imports logging, which `import wacrisk` skips
    from concurrent.futures import ThreadPoolExecutor
    spectrum = build_laplacian(model)
    d = model.damping_ratio
    inertia = model.inertia
    verdict = network_verdict(spectrum, gains, d, tau)
    if not verdict.stable:
        raise InfeasibleError("closed loop is unstable; stationary statistics undefined")

    n = spectrum.n
    r = n * (n - 1) // 2
    h, delay_steps = _snap_step(config.step, tau)
    ring_floats = (delay_steps + 2) * 2 * n * min(config.trajectories, _CHUNK)
    averages = config.trajectories * r
    if ring_floats > _MAX_FLOATS:
        raise ValidationError(f"step {config.step!r} needs a delay ring of {ring_floats} floats, over {_MAX_FLOATS}")
    if averages > _MAX_FLOATS:
        raise ValidationError(f"{config.trajectories} paths need {averages} pair averages, over {_MAX_FLOATS}")
    horizon_steps = config.horizon / h
    if not horizon_steps <= _MAX_STEPS:
        raise ValidationError(f"horizon {config.horizon!r} at step {h!r} needs {horizon_steps:.4g} steps, over {_MAX_STEPS}")
    total_steps = max(int(round(horizon_steps)), delay_steps + 2)
    burn_steps = int(config.burn_in * total_steps)
    steps_averaged = total_steps - burn_steps

    L = spectrum.laplacian
    M, K = verdict.gains.M, verdict.gains.K
    b = incidence_matrix(n)

    phi_theta = np.zeros(n) if config.phi_theta is None else np.asarray(config.phi_theta, float)
    phi_omega = np.zeros(n) if config.phi_omega is None else np.asarray(config.phi_omega, float)
    if phi_theta.shape != (n,) or phi_omega.shape != (n,):
        raise ValidationError(f"initial history vectors must have shape ({n},)")
    if not (np.all(np.isfinite(phi_theta)) and np.all(np.isfinite(phi_omega))):
        raise ValidationError("initial history vectors must be finite")

    master = np.random.SeedSequence(config.seed)
    n_chunks = (config.trajectories + _CHUNK - 1) // _CHUNK
    children = master.spawn(n_chunks)

    pair_acc = np.zeros((config.trajectories, r))   # per-path time-averaged y^2
    omega_acc = np.zeros((n, n))
    rho_samples = np.zeros(config.trajectories)

    step_now = np.block([[np.eye(n), h * np.eye(n)], [-h * L.T, (1.0 - h * d) * np.eye(n)]])
    step_delayed = -h * np.hstack([M.T, K.T])
    shock_t = _shock_factor(M, K, noise, inertia, h).T   # the shock of draws z is F^T z^T
    slots = delay_steps + 2

    done = 0
    for chunk_idx in range(n_chunks):
        paths = min(_CHUNK, config.trajectories - done)
        rng = np.random.Generator(np.random.Philox(children[chunk_idx]))
        ring = np.empty((slots, 2 * n, paths))
        ring[:, :n] = phi_theta[:, None]
        ring[:, n:] = phi_omega[:, None]
        kick = np.empty((n, paths))
        y = np.empty((r, paths))

        acc_y2 = np.zeros((r, paths))
        acc_omega = np.zeros((n, n))

        with ThreadPoolExecutor(1, thread_name_prefix="wacrisk-em-draws") as pool:
            for step_idx, z in enumerate(_draws(pool, rng, total_steps, paths, n)):
                state = ring[(step_idx + 1) % slots]
                np.matmul(step_now, ring[step_idx % slots], out=state)
                theta, omega = state[:n], state[n:]
                np.matmul(step_delayed, ring[(step_idx - delay_steps) % slots], out=kick)
                omega += kick
                np.matmul(shock_t, z.T, out=kick)
                omega += kick

                if step_idx + 1 > burn_steps:
                    np.matmul(b, theta, out=y)
                    acc_y2 += y * y
                    acc_omega += omega @ omega.T

        pair_acc[done : done + paths] = (acc_y2 / steps_averaged).T
        omega_acc += acc_omega / steps_averaged
        rho_samples[done : done + paths] = theta.mean(axis=0)
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
        step=h,
        steps_total=total_steps,
        steps_averaged=steps_averaged,
    )


@dataclass(frozen=True)
class ImpulseResponse:
    """Deterministic mode response to a unit velocity kick: the squared
    time-integral over the ``steps`` Heun steps of size ``step`` it took."""

    integral_sq: float
    step: float
    steps: int

    @property
    def times(self) -> np.ndarray:
        """Grid times 0, step, ..., steps * step of the integration."""
        return np.arange(self.steps + 1) * self.step

    @property
    def parseval_value(self) -> float:
        """2 pi times the squared time-integral; matches the spectral integral."""
        return 2.0 * math.pi * self.integral_sq


def impulse_response(sp: ScaledParams, step: float = 0.002, t_max: float = 4000.0) -> ImpulseResponse:
    """Integrate x'' + s1 x' + s2 x + k2 x'(t-1) + k1 x(t-1) = 0 from x=0, x'=1.

    Heun integration in 25-unit blocks, the step h snapped to an exact
    divisor of the unit delay.  The channel u = k1 x + k2 x' enters one
    unit late and is known that far ahead, so one Heun step is the affine
    map

        x_n = (1 - c s2) x + (h - c s1) x' - c u0,
        x'_n = h/2 (s1 h s2 - 2 s2) x + (1 + h/2 (s1^2 h - s2 h - 2 s1)) x'
               + h/2 (s1 h - 1) u0 - h/2 u1,

    c = h^2/2, u0 = u(t - 1), u1 = u(t + h - 1).  Only one unit delay of u
    is kept, so memory is O(delay): NumPy turns each run of at most one
    unit into the drive terms of the map, a plain-float loop runs the 2x2
    recurrence over it, and NumPy then takes the run's u for the next
    unit, its trapezoid sum of x^2 and its envelope.  A run also stops at
    each block end, so a block need not be a whole number of units.  The
    map reorders the Heun arithmetic: ``steps`` equals the step-by-step
    loop's, ``integral_sq`` agrees with it to rounding (about 1e-13
    relative), not bit for bit.

    The envelope of a block is max |x| + max |x'| over its samples, its first
    sample included; the loop stops once it falls below 1e-8 and raises
    InfeasibleError when the response has not decayed by ``t_max`` or grows:
    past 1e9 (an overflow, non-finite samples included, is refused as growth
    in its block) or 100-fold over the previous block after four blocks.  A
    final partial block (``t_max`` not a multiple of 25) is judged on its
    own samples.
    """
    if not 0.0 < step <= 0.01:
        raise ValidationError(f"impulse-response step must be a real in (0, 0.01], got {step!r}")
    if not 0.0 < t_max < math.inf:
        raise ValidationError(f"impulse-response t_max must be a finite real > 0, got {t_max!r}")
    substeps = int(round(1.0 / step))
    h = 1.0 / substeps
    # plain floats: NumPy scalar fields would make every product a NumPy call
    s1, s2, k1, k2 = (float(c) for c in (sp.s1, sp.s2, sp.k1, sp.k2))
    half_h = 0.5 * h
    c = half_h * h
    a11, a12 = 1.0 - c * s2, h - c * s1
    a21, a22 = half_h * (s1 * h * s2 - 2.0 * s2), 1.0 + half_h * (s1 * s1 * h - s2 * h - 2.0 * s1)
    b0 = half_h * (s1 * h - 1.0)

    max_steps = int(t_max / h)
    # u at t_i - 1, ..., t_i: zero history, then u(0) = k1 x(0) + k2 x'(0) = k2
    u = np.zeros(substeps + 1)
    u[-1] = k2
    x, v = 0.0, 1.0  # the state at t_i
    integral = 0.0
    block = max(int(25.0 / h), 1)
    prev_block_peak = math.inf
    m = 0
    # a growing response overflows to inf and nan before its unit is refused
    with np.errstate(over="ignore", invalid="ignore"):
        while m < max_steps:
            stop = min(m + block, max_steps)
            x_peak, v_peak = abs(x), abs(v)
            while m < stop:
                n = min(substeps, stop - m)
                drive_x = -c * u[:n]
                drive_v = b0 * u[:n] - half_h * u[1 : n + 1]
                # raw doubles in and out: a run holds no list of float objects
                xs, vs = array("d"), array("d")
                x_append, v_append = xs.append, vs.append
                x0 = x
                for p, q in zip(memoryview(drive_x), memoryview(drive_v)):
                    x, v = a11 * x + a12 * v + p, a21 * x + a22 * v + q
                    x_append(x)
                    v_append(v)
                run_x, run_v = np.frombuffer(xs), np.frombuffer(vs)
                run_x_peak, run_v_peak = float(np.abs(run_x).max()), float(np.abs(run_v).max())
                if not run_x_peak + run_v_peak <= 1e9:
                    raise InfeasibleError("impulse response grows: mode tuple is unstable")
                x_peak, v_peak = max(x_peak, run_x_peak), max(v_peak, run_v_peak)
                integral += half_h * (x0 * x0 + 2.0 * float(run_x @ run_x) - x * x)
                u = np.concatenate((u[n:], k1 * run_x + k2 * run_v))
                m += n
            peak = x_peak + v_peak
            if peak < 1e-8:
                return ImpulseResponse(integral_sq=integral, step=h, steps=m)
            if peak > 1e9 or (m > 4 * block and peak > 100.0 * prev_block_peak):
                raise InfeasibleError("impulse response grows: mode tuple is unstable")
            prev_block_peak = peak
    raise InfeasibleError(f"impulse response did not decay below 1e-8 within t_max={t_max}")
