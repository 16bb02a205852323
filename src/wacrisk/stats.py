"""Stationary statistics of pairwise phase differences.

With commuting gains the closed loop decomposes into scalar modes driven
by independent white noise.  Each non-consensus mode settles into a
stationary Gaussian whose variance is weight_l / (2 pi) with

    weight_l = tau^3 [eta^2/J^2 + eta_meas^2 (mu_l^2 + kappa_l^2)]
               * F(d tau, lambda_l tau^2; mu_l tau^2, kappa_l tau),

F being the spectral integral of :mod:`wacrisk.spectral`; the consensus
mode never contributes because phase differences annihilate it.  The pair
deviation then reads

    sigma_ij = sqrt( (1/2 pi) sum_{l>=2} (q_il - q_jl)^2 weight_l ),

and the full covariance of the pair vector is
(1/2 pi) B Q diag(weight) Q^T B^T for the complete incidence matrix B.

F is read off the delay Lyapunov matrix of the mode, exact up to
rounding.  ``mode_weight`` is the one place that computes a mode weight:
at zero delay it takes the closed form
2 pi [eta^2/J^2 + eta_meas^2 (kappa_l^2+mu_l^2)] / (2 (d+kappa_l)(lambda_l+mu_l)),
and it returns +inf for an unstable mode.  ``pair_deviations`` assembles
the weights for every delay tau >= 0, and the gain synthesis minimises
the same function.  With perfect measurements (eta_meas = 0) the pair
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
from .spectral import weight_or_inf
from .stability import ScaledParams, classify, delay_free_stable

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class NoiseParams:
    """Diffusion magnitudes: load volatility ``eta``, measurement noise ``eta_meas``."""

    eta: float
    eta_meas: float = 0.0

    def __post_init__(self):
        if self.eta < 0 or self.eta_meas < 0:
            raise ValidationError("noise magnitudes must be nonnegative")

    def mode_intensity_sq(self, mu: float, kappa: float, inertia: float) -> float:
        """Squared white-noise intensity driving one mode."""
        return (self.eta / inertia) ** 2 + self.eta_meas**2 * (mu * mu + kappa * kappa)


@dataclass(frozen=True)
class PairStats:
    """Stationary pair deviations plus the underlying mode decomposition.

    ``mode_weights[l]`` is 2 pi times the stationary variance of mode l
    (zero for the consensus mode), so that
    covariance = (1/2 pi) B Q diag(mode_weights) Q^T B^T.
    """

    pairs: tuple[tuple[int, int], ...]
    sigma: np.ndarray
    mode_weights: np.ndarray
    covariance: np.ndarray

    @property
    def n(self) -> int:
        return self.mode_weights.shape[0]


def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    """Row-wise pair enumeration with 1-based generator indices."""
    return tuple((i + 1, j + 1) for i in range(n) for j in range(i + 1, n))


def incidence_matrix(n: int) -> np.ndarray:
    """Complete incidence matrix: row (i, j) has +1 at i and -1 at j."""
    pairs = pair_list(n)
    b = np.zeros((len(pairs), n))
    for row, (i, j) in enumerate(pairs):
        b[row, i - 1] = 1.0
        b[row, j - 1] = -1.0
    return b


def mode_weight(
    lam: float,
    mu: float,
    kappa: float,
    d: float,
    tau: float,
    noise: NoiseParams,
    inertia: float,
) -> float:
    """Stationary weight of one non-consensus mode: 2 pi times its variance.

    The spectral weight of the delay Lyapunov matrix for tau > 0, the
    synchronous closed form at tau = 0.  Returns +inf when the mode is
    unstable (its stationary law does not exist) or its integral diverges,
    so that it serves directly as the gain-search objective.
    """
    if tau < 0:
        raise ValidationError(f"tau must be nonnegative, got {tau}")
    if tau == 0.0:
        stable = delay_free_stable(d, lam, mu, kappa)
    else:
        value = weight_or_inf(ScaledParams.from_physical(d, lam, mu, kappa, tau))
        stable = not math.isinf(value)
    if not stable:  # kept apart so that zero noise does not turn it into nan
        return math.inf
    intensity = noise.mode_intensity_sq(mu, kappa, inertia)
    if tau == 0.0:
        return TWO_PI * intensity / (2.0 * (d + kappa) * (lam + mu))
    return tau**3 * intensity * value


def _stats_from_weights(spectrum_q: np.ndarray, weights: np.ndarray) -> PairStats:
    n = weights.shape[0]
    b = incidence_matrix(n)
    bq = b @ spectrum_q
    covariance = (bq * weights) @ bq.T / TWO_PI
    covariance = 0.5 * (covariance + covariance.T)
    sigma = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    return PairStats(
        pairs=pair_list(n),
        sigma=sigma,
        mode_weights=weights,
        covariance=covariance,
    )


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
    mode never reaches phase differences; with delay it must still be stable,
    at zero delay it is not checked.
    """
    resolved = resolve_gains(gains, spectrum)
    lams, mu, kappa = resolved.lambdas, resolved.mu, resolved.kappa
    if tau > 0 and not classify(ScaledParams.from_physical(d, lams[0], mu[0], kappa[0], tau)).stable:
        raise InfeasibleError(f"mode 1 is unstable at tau={tau}; stationary statistics undefined")
    weights = np.zeros(spectrum.n)
    for l in range(1, spectrum.n):
        weights[l] = mode_weight(lams[l], mu[l], kappa[l], d, tau, noise, inertia)
        if math.isinf(weights[l]):
            raise InfeasibleError(f"mode {l + 1} is unstable at tau={tau}; stationary statistics undefined")
    return _stats_from_weights(resolved.eigenvectors, weights)
