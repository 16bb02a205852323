"""Value-at-risk of phase incoherence against nested unsafe sets.

An unsafe family U_delta = ( zeta (1+delta)/(c+delta), inf ), delta > 0,
interpolates between the zero-risk threshold zeta/c and the hard limit
zeta.  The risk of a centred Gaussian pair difference with deviation sigma
is the smallest delta whose unsafe set is reached with probability below
the acceptance level eps; it evaluates in closed form to

    0                                      if sigma <= zeta / (c nu)
    (sigma nu c - zeta)/(zeta - sigma nu)  in between
    +inf                                   if sigma >= zeta / nu

where nu solves  integral_{-nu}^{nu} e^(-t^2/2) dt = sqrt(2 pi) (1 - eps).
``risk_value`` evaluates it on a float or elementwise on an array, so a
whole profile or scan is one call.  ``risk_search`` re-derives the same
number from the probability definition by monotone bisection, one sigma at
a time, and serves as the oracle for the closed form.  Boundary ties follow the closed form: equality at the lower
threshold maps to 0 and at the upper threshold to +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .stats import PairStats

# near machine precision: the closed-form risk amplifies quantile error
# quadratically close to its pole, so the root is resolved essentially exactly
_NU_TOL = 1e-14


def acceptance_quantile(eps: float) -> float:
    """Root nu of the two-sided Gaussian condition for acceptance level eps.

    Solved by bracketing bisection on the integral (via erf), not by an
    inverse-CDF lookup, so the tests can cross-check it independently.
    """
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"acceptance level must lie in (0, 1), got {eps}")
    target = 1.0 - eps  # integral / sqrt(2 pi)

    def gap(nu: float) -> float:
        return math.erf(nu / math.sqrt(2.0)) - target

    lo, hi = 0.0, 1.0
    while gap(hi) < 0.0:
        hi *= 2.0
        if hi > 1e3:
            raise ValidationError("acceptance quantile bracket failed")
    while hi - lo > _NU_TOL:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SystemicSet:
    """Unsafe-set family: hard limit ``zeta`` (radians), safe divisor ``c`` > 1,
    acceptance level ``eps`` in (0, 1)."""

    zeta: float
    c: float
    eps: float

    def __post_init__(self):
        if not self.zeta > 0:
            raise ValidationError("zeta must be positive")
        if not self.c > 1:
            raise ValidationError("c must exceed 1")
        if not 0.0 < self.eps < 1.0:
            raise ValidationError("eps must lie in (0, 1)")

    @cached_property
    def nu(self) -> float:
        return acceptance_quantile(self.eps)

    @property
    def zero_risk_threshold(self) -> float:
        """Largest sigma with zero risk: zeta / (c nu)."""
        return self.zeta / (self.c * self.nu)

    @property
    def infinite_risk_threshold(self) -> float:
        """Smallest sigma with infinite risk: zeta / nu."""
        return self.zeta / self.nu

    def unsafe_threshold(self, delta: float) -> float:
        """Left endpoint of U_delta; decreasing from zeta towards zeta/c as delta -> 0."""
        return self.zeta * (1.0 + delta) / (self.c + delta)


def risk_value(sigma, sset: SystemicSet):
    """Closed-form value-at-risk of centred Gaussian deviations: a float for a
    float, an array of the same shape for an array; NaN or negative entries are refused."""
    s = np.asarray(sigma, dtype=float)
    if not np.all(s >= 0):
        raise ValidationError(f"sigma must be nonnegative numbers, got {sigma}")
    nu, lo, hi = sset.nu, sset.zero_risk_threshold, sset.infinite_risk_threshold
    # the middle branch is evaluated everywhere and kept only strictly between the thresholds;
    # just above the lower one s nu c - zeta can round below 0, hence the clamp
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        middle = np.maximum((s * nu * sset.c - sset.zeta) / (sset.zeta - s * nu), 0.0)
        value = np.where(s <= lo, 0.0, np.where(s >= hi, math.inf, middle))
    return value if value.ndim else float(value)


def _tail_probability(sigma: float, threshold: float) -> float:
    """P(|N(0, sigma^2)| > threshold)."""
    if sigma == 0.0:
        return 0.0
    return math.erfc(threshold / (sigma * math.sqrt(2.0)))


def risk_search(sigma: float, sset: SystemicSet) -> float:
    """Value-at-risk straight from its definition.

    Bisects the smallest delta > 0 whose unsafe set is reached with
    probability below eps, using only the Gaussian tail; the closed-form
    ``risk_value`` must agree with this wherever it is finite.
    """
    if not sigma >= 0:
        raise ValidationError(f"sigma must be a nonnegative number, got {sigma}")
    if sigma == 0.0:
        return 0.0
    eps = sset.eps
    if _tail_probability(sigma, sset.unsafe_threshold(0.0)) <= eps:
        return 0.0
    # the probability decreases towards P(|y| > zeta) as delta grows
    if _tail_probability(sigma, sset.zeta) >= eps:
        return math.inf
    lo, hi = 0.0, 1.0
    while _tail_probability(sigma, sset.unsafe_threshold(hi)) >= eps:
        hi *= 2.0
        if hi > 1e12:
            return math.inf
    while hi - lo > 1e-12 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if _tail_probability(sigma, sset.unsafe_threshold(mid)) < eps:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RiskProfile:
    """Per-pair risk values in row-wise pair order; entries may be +inf."""

    pairs: tuple[tuple[int, int], ...]
    values: np.ndarray

    @property
    def max_finite(self) -> float:
        finite = self.values[np.isfinite(self.values)]
        return float(finite.max()) if finite.size else math.nan


def risk_profile(stats: PairStats, sset: SystemicSet) -> RiskProfile:
    """Apply the closed-form risk to every pair deviation in one ``risk_value`` call."""
    return RiskProfile(pairs=stats.pairs, values=risk_value(stats.sigma, sset))
