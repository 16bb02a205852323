"""Exact evaluation of the stationary-variance spectral integral.

Each stable scalar mode contributes the improper integral over the real
line of 1 / |c(i r)|^2, where c is the unit-delay characteristic function
of the mode; expanded, the denominator reads

    2 ((s1 k2 - k1) r^2 + s2 k1) cos r - 2 r (k2 r^2 + s1 k1 - k2 s2) sin r
      + r^4 + (s1^2 + k2^2 - 2 s2) r^2 + s2^2 + k1^2.

The integrand is even and positive on the open stability region, decays
like r^-4, and develops a non-integrable zero of the denominator exactly
on the region boundary, where the evaluator refuses to return a number.

Evaluation policy: the integral is 2 pi U(0)[1, 1], the squared H2 norm
of x' = A0 x + A1 x(t-1) + e2 w, y = e1^T x, for the delay Lyapunov matrix
U of A0 = [[0, 1], [-s2, -s1]], A1 = [[0, 0], [-k1, -k2]], W = e1 e1^T
(Kharitonov & Plischke, 2006; Jarlebring, Vanbiervliet & Michiels, IEEE
TAC 56(4), 2011).  X(t) = U(t) and Z(t) = U(t - 1) solve a linear ODE on
[0, 1], so one 8x8 matrix exponential and the consistent linear system of
Z(1) = X(0), Z(0) = X(1)^T and X0 A0 + A0^T X0 + Z0 A1 + A1^T Z0^T = -W
give U(0) exactly up to rounding.  The system turns singular on the
stability boundary: its reciprocal condition number, made scale-free by
scaling the columns with the solution and normalising the rows, decides
refusal.  An unstable tuple may still give a (meaningless) value, so
classification stays the gate.  The closed form pi / (s1 s2) at k = 0 is
a cross-check in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from ._gridopt import grid_minimize
from .errors import InfeasibleError
from .stability import ScaledParams, classify

# refusal threshold for the scaled reciprocal condition number, which is
# about 1e-4 at relative distance 1e-3 from the stability boundary
_MIN_RCOND = 1e-8

_I2, _I8 = np.eye(2), np.eye(8)
_TRANSPOSE = np.eye(4)[[0, 2, 1, 3]]  # vec(X^T) = _TRANSPOSE @ vec(X), column-major vec
_RHS = -np.eye(12)[8]  # -vec(W) in the rows of the algebraic condition


@dataclass(frozen=True)
class SpectralEvaluation:
    """Value of the mode integral with its accuracy bookkeeping: ``rcond``,
    the scaled reciprocal condition number of the Lyapunov system (about 0.1
    inside the stability region, falling in proportion to the relative
    distance to its boundary), and the forward bound value eps growth / rcond.
    """

    value: float
    abs_error_estimate: float
    rcond: float


def magnitude_sq(r, sp: ScaledParams):
    """Squared magnitude of the characteristic function on the imaginary axis."""
    r = np.asarray(r, dtype=float)
    s1, s2, k1, k2 = sp.s1, sp.s2, sp.k1, sp.k2
    r2 = r * r
    return (
        2.0 * ((s1 * k2 - k1) * r2 + s2 * k1) * np.cos(r)
        - 2.0 * r * (k2 * r2 + s1 * k1 - k2 * s2) * np.sin(r)
        + r2 * r2
        + (s1 * s1 + k2 * k2 - 2.0 * s2) * r2
        + s2 * s2
        + k1 * k1
    )


def integrand(r, sp: ScaledParams):
    """1 / |c(i r)|^2; raises when the denominator is not strictly positive."""
    den = magnitude_sq(r, sp)
    if np.any(den <= 0.0):
        raise InfeasibleError("nonpositive spectral denominator: tuple on or outside the stability boundary")
    return 1.0 / den


def _affine_parts(s1: float, s2: float, k1: float, k2: float) -> np.ndarray:
    """Generator of the (vec X, vec Z) flow stacked on the algebraic-condition
    rows: a 12x8 matrix that is affine in the tuple."""
    a0 = np.array([[0.0, 1.0], [-s2, -s1]])
    a1 = np.array([[0.0, 0.0], [-k1, -k2]])
    a0_right, a1_right = np.kron(a0.T, _I2), np.kron(a1.T, _I2)  # vec(X A) = (A^T kron I) vec X
    a0_left, a1_left = np.kron(_I2, a0.T), np.kron(_I2, a1.T)  # vec(A^T X) = (I kron A^T) vec X
    generator = np.block([[a0_right, a1_right], [-a1_left, -a0_left]])
    algebraic = np.hstack([a0_right + a0_left, a1_right + a1_left @ _TRANSPOSE])
    return np.vstack([generator, algebraic])


_PARTS_AT_ZERO = _affine_parts(0.0, 0.0, 0.0, 0.0)
_PARTS_SLOPES = np.stack([_affine_parts(*row) - _PARTS_AT_ZERO for row in np.eye(4)], axis=-1)


def _lyapunov_system(sp: ScaledParams) -> np.ndarray:
    """12x8 matrix of the boundary conditions on [vec U(0); vec U(-1)]:
    Z(1) - X(0) = 0, Z(0) - X(1)^T = 0, then the algebraic condition."""
    parts = _PARTS_AT_ZERO + _PARTS_SLOPES @ np.array([sp.s1, sp.s2, sp.k1, sp.k2])
    flow = expm(parts[:8])
    return np.vstack([flow[4:] - _I8[:4], _I8[4:] - _TRANSPOSE @ flow[:4], parts[8:]])


def _scaled_rcond(system: np.ndarray, solution: np.ndarray) -> float:
    """Reciprocal condition number with the columns scaled by the solution
    and the rows normalised; 0 when that scaling degenerates."""
    scaled = system * np.abs(solution)
    norms = np.linalg.norm(scaled, axis=1)
    if not np.all(np.isfinite(norms) & (norms > 0.0)):
        return 0.0
    sv = np.linalg.svd(scaled / norms[:, None], compute_uv=False)
    return float(sv[-1] / sv[0])


# rel_tol is unused (the value is exact); callers such as perfbench/workloads.py pass it
def evaluate(sp: ScaledParams, rel_tol: float = 1e-6, check_stability: bool = True) -> SpectralEvaluation:
    """Evaluate the mode integral, exact up to rounding: any ``rel_tol`` above
    the forward bound ``abs_error_estimate / value`` is met.  Raises
    InfeasibleError when the tuple is not strictly inside the stability
    region (unless ``check_stability`` is False) or the integral diverges.
    """
    if check_stability and not classify(sp).stable:
        raise InfeasibleError(f"mode tuple {sp} is not strictly inside the stability region")
    # a strongly damped flow overflows; the growth test below refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        system = _lyapunov_system(sp)
        # shooting across the unit delay loses accuracy in proportion to the growth
        # of the flow: near 1 for physical tuples, too large once s1 exceeds 16
        growth = max(float(np.abs(system[:8]).max()), 1.0)
        solution = np.linalg.lstsq(system, _RHS, rcond=None)[0] if growth < 1.0 / _MIN_RCOND else np.zeros(8)
        rcond = _scaled_rcond(system, solution)
    if not rcond >= _MIN_RCOND * growth:
        raise InfeasibleError(f"spectral integral diverging or out of range: Lyapunov rcond {rcond:.1e}")
    value = 2.0 * math.pi * float(solution[3])  # vec index 3 is U(0)[1, 1]
    if value <= 0.0:
        raise InfeasibleError(f"mode tuple {sp} has no positive spectral weight: it is not stable")
    return SpectralEvaluation(value=value, abs_error_estimate=value * 2.0**-52 * growth / rcond, rcond=rcond)


def weight_or_inf(sp: ScaledParams) -> float:
    """Mode integral of a strictly stable tuple, +inf when the tuple is
    unstable or the integral diverges (the gain-search objective)."""
    if not classify(sp).stable:
        return math.inf
    try:
        return evaluate(sp, check_stability=False).value
    except InfeasibleError:
        return math.inf


def minimize_over_gains(
    s1: float,
    s2: float,
    box: tuple[float, float, float, float],
    grid_step: float = 0.05,
) -> tuple[tuple[float, float], float]:
    """Minimise the mode integral over scaled gains (k1, k2) in ``box``.

    Every probe is checked for stability first; unstable or divergent
    probes count as +inf.  Returns ((k1, k2), value).  Raises
    InfeasibleError when the box contains no stable point.
    """
    return grid_minimize(lambda k1, k2: weight_or_inf(ScaledParams(s1, s2, k1, k2)), box, grid_step)
