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
affine map of (x, x') driven by u.  Each run of at most one unit is then
a linear function of its u and its start state: chunks of about
sqrt(1/step) steps take their particular solutions and their starts from
block-Toeplitz products of the powers of the 2x2 step matrix, so a run is
a few array products with no Python loop over steps.  Memory is one unit
delay of u, the O(1/step) product matrices and a running envelope of each
25-unit block.  Its squared time-integral times 2 pi must reproduce the
spectral integral, the package's independent check of the delay-Lyapunov
evaluation.
"""

from __future__ import annotations

import math
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
        mode = np.flatnonzero(~verdict.verdicts.stable)[0]
        raise InfeasibleError(f"mode {mode + 1} is unstable at tau={tau}; stationary statistics undefined")

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
        # scaled in place: `arange(...) * step` would make NumPy look up its call
        # stack for a reusable temporary, about 0.3 ms on its first call
        times = np.arange(self.steps + 1.0)
        times *= self.step
        return times

    @property
    def parseval_value(self) -> float:
        """2 pi times the squared time-integral; matches the spectral integral."""
        return 2.0 * math.pi * self.integral_sq


def _matrix_powers(a: np.ndarray, count: int) -> np.ndarray:
    """A^0, ..., A^(count - 1) of a 2x2 matrix, stacked, by doubling."""
    out = np.empty((count, 2, 2))
    out[0] = np.eye(2)
    have = 1
    while have < count:
        take = min(have, count - have)
        np.matmul(out[have - 1] @ a, out[:take], out=out[have : have + take])
        have += take
    return out


def _block_toeplitz(seq: np.ndarray, rows: int, cols: int, offset: int = 0) -> np.ndarray:
    """The (rows, cols) grid of blocks T[i, j] = seq[i - j + offset], zero where i - j + offset < 0."""
    lags = np.subtract.outer(np.arange(rows), np.arange(cols)) + (offset + cols)
    return np.concatenate((np.zeros((cols,) + seq.shape[1:]), seq))[lags]


def impulse_response(sp: ScaledParams, step: float = 0.002, t_max: float = 4000.0) -> ImpulseResponse:
    """Integrate x'' + s1 x' + s2 x + k2 x'(t-1) + k1 x(t-1) = 0 from x=0, x'=1.

    Heun integration in 25-unit blocks, the step h snapped to an exact
    divisor of the unit delay.  The channel u = k1 x + k2 x' enters one
    unit late and is known that far ahead, so one Heun step is the affine
    map y_{l+1} = A y_l + q0 u_l + q1 u_{l+1} of y = (x, x'),

        A = [[1 - c s2, h - c s1],
             [h/2 (s1 h s2 - 2 s2), 1 + h/2 (s1^2 h - s2 h - 2 s1)]],
        q0 = (-c, h/2 (s1 h - 1)),  q1 = (0, -h/2),

    c = h^2/2, u_l = u(t_l - 1).  Only one unit delay of u is kept, so a
    run is at most one unit (and also stops at each block end, so a block
    need not be a whole number of units), and over a run the state is
    linear in the run's u and its start.  The run is cut into chunks of
    C = ceil(sqrt(1/h)) steps, and three products give all its samples:

    - each chunk's end with a zero start, from its C + 1 values of u and
      the powers of A;
    - every chunk start, from the run's start and those ends through the
      block lower-triangular Toeplitz matrix of the powers of A^C;
    - every sample, from each chunk's u and start through the block
      Toeplitz matrix of the powers of A and the stacked A^1, ..., A^C.

    The powers and both Toeplitz matrices are built once per call and
    hold O(1/h) floats.  NumPy then takes the run's u for the next unit,
    its trapezoid sum of x^2 and its envelope.  The products reorder the
    Heun arithmetic: ``steps`` equals the step-by-step loop's,
    ``integral_sq`` agrees with it to rounding (about 1e-13 relative), not
    bit for bit.

    The envelope of a block is max |x| + max |x'| over its samples, its first
    sample included; the loop stops once it falls below 1e-8 and raises
    InfeasibleError when the response has not decayed by ``t_max`` or grows:
    past 1e9 (an overflow, non-finite samples included, is refused as growth
    in its run) or 100-fold over the previous block after four blocks.  A
    final partial block (``t_max`` not a multiple of 25) is judged on its
    own samples.
    """
    if not 0.0 < step <= 0.01:
        raise ValidationError(f"impulse-response step must be a real in (0, 0.01], got {step!r}")
    if not 0.0 < t_max < math.inf:
        raise ValidationError(f"impulse-response t_max must be a finite real > 0, got {t_max!r}")
    substeps = int(round(1.0 / step))
    h = 1.0 / substeps
    s1, s2, k1, k2 = (float(c) for c in (sp.s1, sp.s2, sp.k1, sp.k2))
    half_h = 0.5 * h
    c = half_h * h
    chunk = math.isqrt(substeps - 1) + 1
    chunks = -(-substeps // chunk)
    width = chunks * chunk  # a run's samples, padded to whole chunks

    max_steps = int(t_max / h)
    block = max(int(25.0 / h), 1)
    prev_block_peak = math.inf
    # a growing response overflows to inf and nan before its run is refused
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.array([[1.0 - c * s2, h - c * s1],
                      [half_h * (s1 * h * s2 - 2.0 * s2), 1.0 + half_h * (s1 * s1 * h - s2 * h - 2.0 * s1)]])
        q0 = np.array([-c, half_h * (s1 * h - 1.0)])
        q1 = np.array([0.0, -half_h])
        powers = _matrix_powers(a, chunk + 1)
        # lin[:, k, r]: weight of row entry k on the sample r + 1 steps into a chunk.
        # Entries 0..C are u_0..u_C of the chunk; u_k for k >= 1 drives step k - 1
        # through q1 and step k through q0, u_0 only step 0 (its q1 term is the
        # previous chunk's).  Entries C + 1 and C + 2 are the chunk's start (x, x').
        lag = np.concatenate((q1[None], powers[:chunk] @ (q0 + a @ q1)))
        lin = np.empty((2, chunk + 3, chunk))
        lin[:, : chunk + 1] = _block_toeplitz(lag, chunk, chunk + 1, 1).transpose(2, 1, 0)
        lin[:, 0] = (powers[:chunk] @ q0).T
        lin[:, chunk + 1 :] = powers[1:].transpose(1, 2, 0)
        zero_start_end = lin[:, : chunk + 1, chunk - 1].T.copy()
        # chunk start j from the run's start (e_0) and the zero-start ends e_1..e_j
        carry = _block_toeplitz(_matrix_powers(powers[chunk], chunks), chunks, chunks)
        carry = carry.transpose(0, 2, 1, 3).reshape(2 * chunks, 2 * chunks)
        gains = np.array([k1, k2])

        # u at t_i - 1, ..., t_i in u[: substeps + 1]: zero history, then
        # u(0) = k1 x(0) + k2 x'(0) = k2; the zero tail pads the last chunk.
        # u is shifted in place, so its chunk views below stay valid.
        u = np.zeros(width + 1)
        u[substeps] = k2
        u_rows, u_last = u[:width].reshape(chunks, chunk), u[chunk : width + 1 : chunk]
        rows = np.empty((chunks, chunk + 3))
        window, starts = rows[:, : chunk + 1], rows[:, chunk + 1 :]
        ends = np.empty((chunks, 2))
        samples = np.empty((2, chunks, chunk))
        x, v = 0.0, 1.0  # the state at t_i
        integral = 0.0
        m = 0
        while m < max_steps:
            stop = min(m + block, max_steps)
            x_peak, v_peak = abs(x), abs(v)
            while m < stop:
                n = min(substeps, stop - m)
                window[:, :chunk] = u_rows
                window[:, chunk] = u_last
                np.matmul(window[:-1], zero_start_end, out=ends[1:])
                ends[0] = x, v
                starts[...] = (carry @ ends.reshape(-1)).reshape(chunks, 2)
                np.matmul(rows, lin, out=samples)
                run = samples.reshape(2, width)[:, :n]
                x0 = x
                x, v = run[:, -1].tolist()
                run_x_peak, run_v_peak = np.abs(run).max(axis=1).tolist()
                if not run_x_peak + run_v_peak <= 1e9:
                    raise InfeasibleError("impulse response grows: mode tuple is unstable")
                x_peak, v_peak = max(x_peak, run_x_peak), max(v_peak, run_v_peak)
                integral += half_h * (x0 * x0 + 2.0 * float(run[0] @ run[0]) - x * x)
                keep = substeps + 1 - n
                u[:keep] = u[n : substeps + 1]
                np.matmul(gains, run, out=u[keep : substeps + 1])
                m += n
            peak = x_peak + v_peak
            if peak < 1e-8:
                return ImpulseResponse(integral_sq=integral, step=h, steps=m)
            if peak > 1e9 or (m > 4 * block and peak > 100.0 * prev_block_peak):
                raise InfeasibleError("impulse response grows: mode tuple is unstable")
            prev_block_peak = peak
    raise InfeasibleError(f"impulse response did not decay below 1e-8 within t_max={t_max}")
