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
rounding.  Two specialisations simplify the assembly: with zero delay the
weight collapses to the closed form
2 pi [eta^2/J^2 + eta_meas^2 (kappa_l^2+mu_l^2)] / (2 (d+kappa_l)(lambda_l+mu_l)),
and with perfect measurements (eta_meas = 0) the general path reduces to
the prefactor tau^{3/2} eta / (J sqrt(2 pi)) times the root of the
weighted spectral sum.  The mode weights are simplified symbolically to
mu^2 and kappa^2 before evaluation (rather than dividing scaled gains by
tau powers) to avoid cancellation at small delays.

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
    rel_tol: float = 1e-6,
) -> float:
    """Stationary weight of one non-consensus mode under delayed feedback.

    Raises InfeasibleError when the mode tuple is unstable (the stationary
    law does not exist).
    """
    if tau <= 0:
        raise ValidationError("tau must be positive; use the delay-free form instead")
    value = weight_or_inf(ScaledParams.from_physical(d, lam, mu, kappa, tau))
    if math.isinf(value):
        raise InfeasibleError("mode tuple is not strictly inside the stability region or its integral diverges")
    return tau**3 * noise.mode_intensity_sq(mu, kappa, inertia) * value


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
    rel_tol: float = 1e-6,
) -> PairStats:
    """Stationary pair deviations for the delayed closed loop (tau > 0)."""
    resolved = resolve_gains(gains, spectrum)
    n = spectrum.n
    weights = np.zeros(n)
    for l in range(n):
        lam, mu, kappa = resolved.lambdas[l], resolved.mu[l], resolved.kappa[l]
        sp = ScaledParams.from_physical(d, lam, mu, kappa, tau)
        if l == 0:  # the consensus mode never reaches phase differences but must be stable
            value = 0.0 if classify(sp).stable else math.inf
        else:
            value = weight_or_inf(sp)
        if math.isinf(value):
            raise InfeasibleError(f"mode {l + 1} is unstable at tau={tau}; stationary statistics undefined")
        weights[l] = tau**3 * noise.mode_intensity_sq(mu, kappa, inertia) * value
    return _stats_from_weights(resolved.eigenvectors, weights)


def pair_deviations_no_delay(
    spectrum: LaplacianSpectrum,
    gains: GainSpec | ModeGains,
    d: float,
    noise: NoiseParams,
    inertia: float,
) -> PairStats:
    """Closed-form pair deviations for synchronous (zero-delay) feedback."""
    resolved = resolve_gains(gains, spectrum)
    n = spectrum.n
    weights = np.zeros(n)
    for l in range(1, n):
        lam, mu, kappa = resolved.lambdas[l], resolved.mu[l], resolved.kappa[l]
        if not delay_free_stable(d, lam, mu, kappa):
            raise InfeasibleError(f"mode {l + 1} fails the delay-free stability conditions")
        weights[l] = TWO_PI * noise.mode_intensity_sq(mu, kappa, inertia) / (
            2.0 * (d + kappa) * (lam + mu)
        )
    return _stats_from_weights(resolved.eigenvectors, weights)


def pair_deviations_load_noise_only(
    spectrum: LaplacianSpectrum,
    gains: GainSpec | ModeGains,
    d: float,
    tau: float,
    eta: float,
    inertia: float,
    rel_tol: float = 1e-6,
) -> PairStats:
    """Pair deviations with perfect measurements; same path as the general case."""
    return pair_deviations(
        spectrum, gains, d, tau, NoiseParams(eta=eta, eta_meas=0.0), inertia, rel_tol=rel_tol
    )


def pair_deviations_auto(
    spectrum: LaplacianSpectrum,
    gains: GainSpec | ModeGains,
    d: float,
    tau: float,
    noise: NoiseParams,
    inertia: float,
    rel_tol: float = 1e-6,
) -> PairStats:
    """Dispatch on the delay: closed form at tau = 0, Lyapunov-matrix weights otherwise."""
    if tau == 0.0:
        return pair_deviations_no_delay(spectrum, gains, d, noise, inertia)
    return pair_deviations(spectrum, gains, d, tau, noise, inertia, rel_tol=rel_tol)
