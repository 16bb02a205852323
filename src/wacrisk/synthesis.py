"""Risk-aware gain design and the limits delay and noise impose on it.

Because commuting gains act mode by mode and the pair covariance is a
positively-weighted sum of mode weights, minimising every mode weight
separately minimises every pair deviation simultaneously.  The designer
therefore runs one small 2-D minimisation per non-consensus mode (grid
seed at the requested step, then a shrinking compass polish) of
``stats.mode_weight``, the function ``pair_deviations`` sums, assembles
the optimal matrices through the shared eigenbasis, and leaves the
consensus mode untouched so the network still agrees on a phase value.

Fundamental limits quantified here:

* ``deviation_floor``: with perfect measurements the delay alone keeps the
  spectral integral of each mode above a positive minimum, which no gain
  choice can beat: sigma_ij >= sigma* for every pair;
* ``risk_floor``: the trichotomy of the least achievable risk implied by
  sigma* against a systemic set (reducible to zero / floored at a positive
  value / infinite for every gain);
* ``resistance_bounds``: consensus-structured gain networks lose stability
  at finite scalings, so their effective resistances are bounded below by
  (n-1) / (max boundary gain * lambda_max) with the boundary traced by
  bisection along rays in the (mu, kappa) quadrant;
* ``tradeoff_scan``: the empirical infimum of
  min-entry(risk) * sqrt(Xi_K + Xi_M) over stable consensus gains, the
  measurable counterpart of the risk/connectivity trade-off constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._gridopt import grid_minimize
from .errors import InfeasibleError, ValidationError
from .network import GainSpec, LaplacianSpectrum, effective_resistance
from .risk import SystemicSet, risk_profile, risk_value
from .spectral import minimize_over_gains
from .stability import ScaledParams, classify
from .stats import NoiseParams, _stats_from_weights, mode_weight, pair_deviations


@dataclass(frozen=True)
class SynthesisResult:
    """Per-mode optimal gains with the assembled matrices."""

    lambdas: np.ndarray
    mu: np.ndarray          # index 0 (consensus mode) forced to 0
    kappa: np.ndarray
    weights: np.ndarray     # achieved mode weights at the optimum
    M: np.ndarray
    K: np.ndarray

    def gain_spec(self) -> GainSpec:
        return GainSpec.eigen(self.mu, self.kappa)


@dataclass(frozen=True)
class LimitReport:
    """Least achievable deviation and the risk regime it implies."""

    sigma_star: float
    regime: str             # "reducible" | "floored" | "infinite"
    risk_floor: float


@dataclass(frozen=True)
class ResistanceBounds:
    """Delay-induced lower bounds on consensus-gain effective resistances."""

    bound_kappa: float
    bound_mu: float
    kappa_max: float
    mu_max: float


@dataclass(frozen=True)
class TradeoffScan:
    """Grid scan of risk x connectivity products over consensus gains.

    ``rows`` columns: mu, kappa, min risk entry, Xi_K, Xi_M, product.
    """

    rows: np.ndarray
    omega_hat: float


def synthesize(
    spectrum: LaplacianSpectrum,
    d: float,
    tau: float,
    noise: NoiseParams,
    inertia: float,
    gain_box: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 4.0),
    grid_step: float = 0.05,
) -> SynthesisResult:
    """Minimise every non-consensus mode weight over (mu, kappa) in ``gain_box``.

    The consensus-mode gains stay at zero so the phase agreement value of
    the unperturbed loop is preserved.  Raises InfeasibleError when some
    mode has no stable gain inside the box.
    """
    if tau <= 0:
        raise ValidationError("synthesis needs a positive delay; the zero-delay optimum is closed-form")
    n = spectrum.n
    mu = np.zeros(n)
    kappa = np.zeros(n)
    weights = np.zeros(n)

    for l in range(1, n):
        lam = float(spectrum.eigenvalues[l])
        try:
            (mu[l], kappa[l]), weights[l] = grid_minimize(
                lambda m, k: mode_weight(lam, m, k, d, tau, noise, inertia), gain_box, grid_step
            )
        except InfeasibleError as exc:
            raise InfeasibleError(f"no stable gain in the box for mode {l + 1}") from exc
    q = spectrum.eigenvectors
    M = (q * mu) @ q.T
    K = (q * kappa) @ q.T
    return SynthesisResult(
        lambdas=spectrum.eigenvalues.copy(),
        mu=mu,
        kappa=kappa,
        weights=weights,
        M=0.5 * (M + M.T),
        K=0.5 * (K + K.T),
    )


# scaled-gain box that covers the entire (compact) stability region of any
# mode: delayed stiffness dies beyond (2 pi)^2, delayed damping beyond 2 pi
_FULL_REGION_BOX = (0.0, 45.0, 0.0, 7.0)
_FULL_REGION_STEP = (1.0, 0.25)


def deviation_floor(
    spectrum: LaplacianSpectrum,
    d: float,
    tau: float,
    eta: float,
    inertia: float,
    gain_box: tuple[float, float, float, float] | None = None,
    grid_step: float = 0.05,
) -> float:
    """Delay-induced lower bound on every pair deviation (perfect measurements).

    Minimises the spectral integral of each mode over the stable gains and
    combines the minima through the eigenvector pair weights: no gain choice
    can push any sigma_ij below the returned value.  By default the
    minimisation covers the whole (compact) stability region of each mode;
    a ``gain_box`` in physical units restricts it.
    """
    if tau <= 0:
        raise ValidationError("the deviation floor is a delay effect; tau must be positive")
    n = spectrum.n
    if gain_box is None:
        scaled_box = _FULL_REGION_BOX
        scaled_step = _FULL_REGION_STEP
    else:
        mu_lo, mu_hi, kap_lo, kap_hi = gain_box
        scaled_box = (mu_lo * tau * tau, mu_hi * tau * tau, kap_lo * tau, kap_hi * tau)
        scaled_step = (grid_step * tau * tau, grid_step * tau)
    floors = np.zeros(n)
    for l in range(1, n):
        lam = float(spectrum.eigenvalues[l])
        sp = ScaledParams.from_physical(d, lam, 0.0, 0.0, tau)
        _, floors[l] = minimize_over_gains(sp.s1, sp.s2, scaled_box, grid_step=scaled_step)
    # the floors are mode weights per unit tau^3 (eta / J)^2
    sigma = _stats_from_weights(spectrum.eigenvectors, floors).sigma
    return float(tau**1.5 * eta / inertia * sigma.min())


def risk_floor(sigma_star: float, sset: SystemicSet) -> LimitReport:
    """Classify the least achievable risk implied by the deviation floor."""
    if sigma_star < 0:
        raise ValidationError("sigma_star must be nonnegative")
    if sigma_star <= sset.zero_risk_threshold:
        return LimitReport(sigma_star=sigma_star, regime="reducible", risk_floor=0.0)
    if sigma_star >= sset.infinite_risk_threshold:
        return LimitReport(sigma_star=sigma_star, regime="infinite", risk_floor=math.inf)
    return LimitReport(sigma_star=sigma_star, regime="floored", risk_floor=risk_value(sigma_star, sset))


def _consensus_stable(spectrum, d, tau, mu, kappa) -> bool:
    lam_max = spectrum.lambda_max
    sp = ScaledParams.from_physical(d, lam_max, lam_max * mu, lam_max * kappa, tau)
    return classify(sp).stable


def resistance_bounds(
    spectrum: LaplacianSpectrum,
    d: float,
    tau: float,
    rays: int = 720,
    bisect_rtol: float = 1e-6,
) -> ResistanceBounds:
    """Lower bounds on the effective resistances of consensus gain networks.

    Traces the stability boundary of the top mode in the (mu, kappa)
    scaling quadrant by bisection along ``rays`` directions from the
    origin, then bounds Xi_K > (n-1)/(kappa_max * lambda_max) and
    Xi_M > (n-1)/(mu_max * lambda_max).
    """
    if tau <= 0:
        raise ValidationError("resistance bounds are a delay effect; tau must be positive")
    if not _consensus_stable(spectrum, d, tau, 0.0, 0.0):
        raise InfeasibleError("no stable consensus gains: the open loop top mode is already unstable")
    kappa_max = 0.0
    mu_max = 0.0
    for angle in np.linspace(0.0, math.pi / 2.0, rays):
        direction = (math.cos(angle), math.sin(angle))
        lo, hi = 0.0, 1.0
        while _consensus_stable(spectrum, d, tau, hi * direction[0], hi * direction[1]):
            lo, hi = hi, hi * 2.0
            if hi > 1e9:
                raise InfeasibleError("consensus stability region appears unbounded along a ray")
        while hi - lo > bisect_rtol * hi:
            mid = 0.5 * (lo + hi)
            if _consensus_stable(spectrum, d, tau, mid * direction[0], mid * direction[1]):
                lo = mid
            else:
                hi = mid
        boundary = 0.5 * (lo + hi)
        mu_max = max(mu_max, boundary * direction[0])
        kappa_max = max(kappa_max, boundary * direction[1])
    n = spectrum.n
    lam_max = spectrum.lambda_max
    return ResistanceBounds(
        bound_kappa=(n - 1) / (kappa_max * lam_max),
        bound_mu=(n - 1) / (mu_max * lam_max),
        kappa_max=kappa_max,
        mu_max=mu_max,
    )


def tradeoff_scan(
    spectrum: LaplacianSpectrum,
    d: float,
    tau: float,
    noise: NoiseParams,
    inertia: float,
    sset: SystemicSet,
    gain_box: tuple[float, float, float, float],
    grid: tuple[int, int] = (50, 50),
    rel_tol: float = 1e-3,  # unused (the mode weight is exact); perfbench/make_reference.py passes it
) -> TradeoffScan:
    """Scan stable consensus gains and record risk x connectivity products.

    Each row holds (mu, kappa, min risk entry, Xi_K, Xi_M, product) for
    the consensus gains M = mu L, K = kappa L; omega_hat is the smallest
    product over the scan.  Zero noise is rejected: the risk would vanish
    identically and the product would be trivially zero.
    """
    if noise.eta == 0.0 and noise.eta_meas == 0.0:
        raise ValidationError("trade-off scan needs a nonzero noise source")
    if tau <= 0:
        raise ValidationError("trade-off scan needs a positive delay")
    if min(grid) < 1:
        raise ValidationError(f"trade-off grid counts must be at least 1, got {grid[0]}x{grid[1]}")
    mu_lo, mu_hi, kap_lo, kap_hi = gain_box
    if mu_lo <= 0.0 or kap_lo <= 0.0:
        raise ValidationError("consensus scalings must be strictly positive in the scan box")
    xi_l = effective_resistance(spectrum)
    rows = []
    omega_hat = math.inf
    for mu in np.linspace(mu_lo, mu_hi, grid[0]):
        for kappa in np.linspace(kap_lo, kap_hi, grid[1]):
            gains = GainSpec.consensus(mu, kappa)
            try:
                stats = pair_deviations(spectrum, gains, d, tau, noise, inertia)
            except InfeasibleError:
                continue
            profile = risk_profile(stats, sset)
            min_risk = float(np.min(profile.values))
            xi_k = xi_l / kappa
            xi_m = xi_l / mu
            product = min_risk * math.sqrt(xi_k + xi_m)
            rows.append((mu, kappa, min_risk, xi_k, xi_m, product))
            if product < omega_hat:
                omega_hat = product
    if not rows:
        raise InfeasibleError("no stable consensus gains inside the scan box")
    return TradeoffScan(rows=np.array(rows), omega_hat=omega_hat)
