"""Risk-aware gain design and the limits delay and noise impose on it.

Because commuting gains act mode by mode and each pair variance is a
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
  choice can beat (the synthesis of the delay-scaled loop finds it):
  sigma_ij >= sigma* for every pair;
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

from ._gridopt import MAX_GRID_POINTS, grid_minimize
from .errors import InfeasibleError, ValidationError
from .network import GainSpec, LaplacianSpectrum, effective_resistance, resolve_gains
from .risk import SystemicSet, risk_value
from .stability import mode_verdicts
from .stats import NoiseParams, mode_weight, pair_sigma


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
    grid_step: float | tuple[float, float] = 0.05,
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
    resolved = resolve_gains(GainSpec.eigen(mu, kappa), spectrum)
    return SynthesisResult(
        lambdas=spectrum.eigenvalues.copy(), mu=mu, kappa=kappa, weights=weights, M=resolved.M, K=resolved.K
    )


# scaled-gain box that covers the nonnegative-gain part of the (compact) stability
# region of any mode: delayed stiffness dies beyond (2 pi)^2, delayed damping beyond 2 pi
_FULL_REGION_BOX = (0.0, 45.0, 0.0, 7.0)
_FULL_REGION_STEP = (1.0, 0.25)


def deviation_floor(spectrum: LaplacianSpectrum, d: float, tau: float, eta: float, inertia: float) -> float:
    """Delay-induced lower bound on every pair deviation (perfect measurements).

    The perfect-measurement synthesis of the delay-scaled loop (eigenvalues
    times tau^2, damping d tau, unit delay, noise and inertia) minimises each
    mode's spectral integral over the nonnegative-gain part of its (compact)
    stability region; the minima combine through the eigenvector pair
    weights, so no gain in that box pushes any sigma_ij below the result.
    Negative gains are not searched; the acceptance tests check on a gain
    grid that reaches negative phase gains that none goes below it.
    """
    if tau <= 0:
        raise ValidationError("the deviation floor is a delay effect; tau must be positive")
    scaled = LaplacianSpectrum(spectrum.laplacian * tau * tau, spectrum.eigenvalues * tau * tau, spectrum.eigenvectors)
    result = synthesize(scaled, d * tau, 1.0, NoiseParams(1.0), 1.0, _FULL_REGION_BOX, _FULL_REGION_STEP)
    # the scaled weights are mode weights per unit tau^3 (eta / J)^2
    return float(tau**1.5 * eta / inertia * pair_sigma(spectrum.eigenvectors, result.weights).min())


def risk_floor(sigma_star: float, sset: SystemicSet) -> LimitReport:
    """Classify the least achievable risk implied by the deviation floor.

    The regime is read off the one ``risk_value``, so it follows that function's tie rules:
    reducible where the risk is 0, infinite where it is +inf, floored in between.
    """
    floor = risk_value(sigma_star, sset)
    regime = "reducible" if floor == 0.0 else "infinite" if math.isinf(floor) else "floored"
    return LimitReport(sigma_star=sigma_star, regime=regime, risk_floor=floor)


def resistance_bounds(
    spectrum: LaplacianSpectrum,
    d: float,
    tau: float,
    rays: int = 720,
) -> ResistanceBounds:
    """Lower bounds on the effective resistances of consensus gain networks.

    Traces the stability boundary of the top mode in the (mu, kappa)
    scaling quadrant by bisection (to relative width 1e-6) along ``rays``
    directions from the origin, all rays stepping in lockstep through one
    ``mode_verdicts`` call per step, then bounds
    Xi_K > (n-1)/(kappa_max * lambda_max) and Xi_M > (n-1)/(mu_max * lambda_max).
    """
    if tau <= 0:
        raise ValidationError("resistance bounds are a delay effect; tau must be positive")
    if not isinstance(rays, (int, np.integer)) or rays < 2:  # bools are < 2
        raise ValidationError(f"rays must be an integer >= 2, got {rays!r}")
    if not mode_verdicts(d, spectrum.lambda_max, 0.0, 0.0, tau).stable:
        raise InfeasibleError("no stable consensus gains: the open loop top mode is already unstable")
    lam_max = spectrum.lambda_max
    angles = np.linspace(0.0, math.pi / 2.0, rays)
    cos = np.array([math.cos(a) for a in angles])
    sin = np.array([math.sin(a) for a in angles])

    def stable(scale, idx):
        # the top mode at consensus gains (scale * cos, scale * sin) on rays idx
        return mode_verdicts(d, lam_max, lam_max * (scale * cos[idx]), lam_max * (scale * sin[idx]), tau).stable

    # every ray runs its own doubling and bisection; the rays step in lockstep
    lo, hi = np.zeros(rays), np.ones(rays)
    idx = np.arange(rays)
    while idx.size:
        idx = idx[stable(hi[idx], idx)]
        lo[idx], hi[idx] = hi[idx], hi[idx] * 2.0
        if np.any(hi[idx] > 1e9):
            raise InfeasibleError("consensus stability region appears unbounded along a ray")
    idx = np.flatnonzero(hi - lo > 1e-6 * hi)
    while idx.size:
        mid = 0.5 * (lo[idx] + hi[idx])
        inside = stable(mid, idx)
        lo[idx[inside]] = mid[inside]
        hi[idx[~inside]] = mid[~inside]
        idx = idx[hi[idx] - lo[idx] > 1e-6 * hi[idx]]
    boundary = 0.5 * (lo + hi)
    mu_max = max(0.0, float(np.max(boundary * cos)))
    kappa_max = max(0.0, float(np.max(boundary * sin)))
    n = spectrum.n
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
    product over the scan.  The weights of every grid point and mode come
    from one ``mode_weight`` call, the deviations of the stable points from
    one ``pair_sigma`` call and their risks from one ``risk_value`` call;
    the consensus mode, on which consensus gains vanish, is checked once.
    Zero noise is rejected: the risk would vanish identically and the
    product would be trivially zero.
    """
    if noise.eta == 0.0 and noise.eta_meas == 0.0:
        raise ValidationError("trade-off scan needs a nonzero noise source")
    if tau <= 0:
        raise ValidationError("trade-off scan needs a positive delay")
    if min(grid) < 1:
        raise ValidationError(f"trade-off grid counts must be at least 1, got {grid[0]}x{grid[1]}")
    if grid[0] * grid[1] > MAX_GRID_POINTS:
        raise ValidationError(f"trade-off grid counts {grid[0]}x{grid[1]} give more than {MAX_GRID_POINTS} points")
    mu_lo, mu_hi, kap_lo, kap_hi = gain_box
    if mu_lo <= 0.0 or kap_lo <= 0.0:
        raise ValidationError("consensus scalings must be strictly positive in the scan box")
    if not (mu_lo <= mu_hi and kap_lo <= kap_hi and all(math.isfinite(v) for v in gain_box)):
        raise ValidationError(f"scan box {tuple(gain_box)} must be finite with lo <= hi")
    xi_l = effective_resistance(spectrum)
    # consensus gains vanish on the consensus mode (eigenvalue 0): one check covers the grid
    if not mode_verdicts(d, 0.0, 0.0, 0.0, tau).stable:
        raise InfeasibleError("no stable consensus gains inside the scan box")
    mus, kappas = np.meshgrid(np.linspace(mu_lo, mu_hi, grid[0]), np.linspace(kap_lo, kap_hi, grid[1]), indexing="ij")
    mus, kappas = mus.ravel(), kappas.ravel()
    lams = spectrum.eigenvalues[1:]
    grid_weights = mode_weight(lams, np.outer(mus, lams), np.outer(kappas, lams), d, tau, noise, inertia)
    stable = ~np.isinf(grid_weights).any(axis=1)
    if not stable.any():
        raise InfeasibleError("no stable consensus gains inside the scan box")
    mus, kappas, grid_weights = mus[stable], kappas[stable], grid_weights[stable]
    # the consensus mode carries no weight
    sigma = pair_sigma(spectrum.eigenvectors, np.pad(grid_weights, ((0, 0), (1, 0))))
    min_risk = risk_value(sigma, sset).min(axis=1)
    xi_k, xi_m = xi_l / kappas, xi_l / mus
    rows = np.column_stack([mus, kappas, min_risk, xi_k, xi_m, min_risk * np.sqrt(xi_k + xi_m)])
    return TradeoffScan(rows=rows, omega_hat=float(rows[:, 5].min()))
