"""Stationary statistics of pairwise phase differences.

With commuting gains the closed loop decomposes into scalar modes driven
by independent white noise.  Each non-consensus mode settles into a
stationary Gaussian whose variance is weight_l / (2 pi) with

    weight_l = tau^3 [eta^2/J^2 + eta_meas^2 (mu_l^2 + kappa_l^2)]
               * F(d tau, lambda_l tau^2; mu_l tau^2, kappa_l tau),

F being the spectral integral of :mod:`wacrisk.spectral`; the consensus
mode never contributes because phase differences annihilate it.  The pair
deviation then reads

    sigma_ij = sqrt( (1/2 pi) sum_{l>=2} (q_il - q_jl)^2 weight_l ).

``pair_sigma`` is the one place that evaluates sigma_ij, for weight rows of
any batch shape; ``pair_deviations``, the trade-off scan and the deviation
floor all read their deviations from it.  It reduces one row of pairs (i, j > i)
at a time, so a network of n machines costs O(n^2) memory, the size of its
eigenbasis and of its n (n-1) / 2 deviations.

F is read off the delay Lyapunov matrix of the mode, exact up to
rounding.  ``mode_weight`` is the one place that computes a mode weight:
at zero delay it takes the closed form
2 pi [eta^2/J^2 + eta_meas^2 (kappa_l^2+mu_l^2)] / (2 (d+kappa_l)(lambda_l+mu_l)),
and it returns +inf for an unstable mode.  It takes arrays of modes and
gains and evaluates them in one call of ``spectral.weights``.
``pair_deviations`` assembles the weights for every delay tau >= 0 (its
n-1 modes in one call), and the gain synthesis minimises the same
function over whole grids.  With perfect measurements (eta_meas = 0) the pair
deviation is the prefactor tau^{3/2} eta / (J sqrt(2 pi)) times the root
of the weighted spectral sum.  The mode weights are simplified
symbolically to mu^2 and kappa^2 before evaluation (rather than dividing
scaled gains by tau powers) to avoid cancellation at small delays.

Pair enumeration is row-wise — (1,2), (1,3), ..., (2,3), ... — with
generator numbering starting at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ValidationError
from .network import GainSpec, LaplacianSpectrum, ModeGains, resolve_gains
from .spectral import weights
from .stability import delay_free_stable, mode_verdicts, scaled_coordinates

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class NoiseParams:
    """Diffusion magnitudes: load volatility ``eta``, measurement noise ``eta_meas``."""

    eta: float
    eta_meas: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.eta < math.inf and 0.0 <= self.eta_meas < math.inf):
            raise ValidationError(f"noise magnitudes must be nonnegative reals, got {self.eta}, {self.eta_meas}")

    def mode_intensity_sq(self, mu: float, kappa: float, inertia: float) -> float:
        """Squared white-noise intensity driving one mode."""
        return (self.eta / inertia) ** 2 + self.eta_meas**2 * (mu * mu + kappa * kappa)


@dataclass(frozen=True)
class PairStats:
    """Stationary pair deviations plus the underlying mode decomposition.

    ``mode_weights[l]`` is 2 pi times the stationary variance of mode l
    (zero for the consensus mode), so that ``sigma`` is
    ``pair_sigma(eigenvectors, mode_weights)``.
    """

    pairs: tuple[tuple[int, int], ...]
    sigma: np.ndarray
    mode_weights: np.ndarray

    @property
    def n(self) -> int:
        return self.mode_weights.shape[0]


def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    """Row-wise pair enumeration with 1-based generator indices."""
    return tuple((i + 1, j + 1) for i in range(n) for j in range(i + 1, n))


def incidence_matrix(n: int) -> np.ndarray:
    """Complete incidence matrix: row (i, j) has +1 at i and -1 at j."""
    i, j = np.triu_indices(n, 1)
    return np.eye(n)[i] - np.eye(n)[j]


def pair_sigma(eigenvectors: np.ndarray, weights) -> np.ndarray:
    """Pair deviations sqrt(sum_l (q_il - q_jl)^2 w_l / 2 pi) of weight rows ``(..., n)``.

    Returns ``(..., n (n-1) / 2)`` in row-wise pair order, for n >= 2.  Each
    deviation is reduced along the mode axis alone (no matrix product), so it
    gives the same bits in any batch; the pairs (i, j > i) of one i are reduced
    together, so no array holds more than n - 1 pairs per weight row.
    """
    # C order keeps the mode axis contiguous, so each reduction takes the same pairwise sum
    q = np.ascontiguousarray(eigenvectors, dtype=float)
    weights = np.ascontiguousarray(weights, dtype=float)[..., None, :]
    rows = []
    for i in range(q.shape[0] - 1):
        gaps = q[i] - q[i + 1:]
        rows.append(np.sum(gaps * weights * gaps, axis=-1))
    return np.sqrt(np.concatenate(rows, axis=-1) / TWO_PI)


def mode_weight(lam, mu, kappa, d: float, tau: float, noise: NoiseParams, inertia: float):
    """Stationary weight of non-consensus modes: 2 pi times their variance.

    ``lam``, ``mu`` and ``kappa`` are floats or arrays that broadcast; the
    result is a float or an array of their common shape.  The spectral
    weight of the delay Lyapunov matrix for tau > 0, the synchronous closed
    form at tau = 0.  Returns +inf (never NaN, even at zero noise) where the
    mode is unstable (its stationary law does not exist) or its integral
    diverges, so that it serves directly as the gain-search objective.
    """
    if not 0.0 <= tau < math.inf:
        raise ValidationError(f"tau must be finite and nonnegative, got {tau}")
    lam, mu, kappa = np.asarray(lam, dtype=float), np.asarray(mu, dtype=float), np.asarray(kappa, dtype=float)
    intensity = noise.mode_intensity_sq(mu, kappa, inertia)
    # an unstable mode keeps +inf instead of the product, so zero noise cannot turn inf into nan
    if tau == 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            stable = delay_free_stable(d, lam, mu, kappa)
            weight = np.where(stable, TWO_PI * intensity / (2.0 * (d + kappa) * (lam + mu)), math.inf)
    else:
        value = weights(*scaled_coordinates(d, lam, mu, kappa, tau))  # under an errstate of its own
        with np.errstate(invalid="ignore"):
            weight = np.where(np.isinf(value), math.inf, tau**3 * intensity * value)
    return weight if weight.ndim else float(weight)


def pair_deviations(
    spectrum: LaplacianSpectrum,
    gains: GainSpec | ModeGains,
    d: float,
    tau: float,
    noise: NoiseParams,
    inertia: float,
) -> PairStats:
    """Stationary pair deviations of the closed loop at any delay tau >= 0.

    Raises InfeasibleError naming the first unstable mode.  The consensus
    mode never reaches phase differences; it is checked at every delay by the
    rule of ``network_verdict``, ``stability.mode_verdicts``.
    """
    resolved = resolve_gains(gains, spectrum)
    lams, mu, kappa = resolved.lambdas, resolved.mu, resolved.kappa
    if not mode_verdicts(d, lams[0], mu[0], kappa[0], tau).stable:
        raise InfeasibleError(f"mode 1 is unstable at tau={tau}; stationary statistics undefined")
    weights = np.zeros(spectrum.n)
    weights[1:] = mode_weight(lams[1:], mu[1:], kappa[1:], d, tau, noise, inertia)
    unstable = np.flatnonzero(np.isinf(weights))
    if unstable.size:
        raise InfeasibleError(f"mode {unstable[0] + 1} is unstable at tau={tau}; stationary statistics undefined")
    sigma = pair_sigma(resolved.eigenvectors, weights)
    return PairStats(pairs=pair_list(spectrum.n), sigma=sigma, mode_weights=weights)
