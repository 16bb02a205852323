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

Array core: :func:`weights` takes arrays of tuples, gates them with one
``stability.classify_many`` call and solves only the stable ones, in
blocks of at most ``_BLOCK`` tuples: one stacked Pade-13 scaling-and-
squaring matrix exponential with a scaling exponent per slice (Higham,
SIAM J. Matrix Anal. Appl. 26(4), 2005) and a batched QR factorisation with
back substitution for the consistent 12x8 system.  Acceptance needs only
to know that the scaled rcond clears its threshold: a batched Cholesky
factorisation of each scaled system's Gram matrix, shifted by 12 rho^2,
proves rcond > rho = 10 _MIN_RCOND growth for the well-conditioned tuples
(in practice nearly all), and only the tuples it leaves open, those near
the boundary or with a degenerate scaling, go through the batched SVD that
gives the rcond itself.  A certified tuple is one the SVD rule accepts too,
so the values are those the SVD alone would give.  Every step acts on each
tuple alone, so a tuple's value is the same number whatever block it
shares.  :func:`evaluate` is the one-tuple call that also reports the
conditioning; it always takes the SVD.  The gain search calls
:func:`weights` on about ten tuples at a time, so its fixed cost is kept
small: one ``np.errstate`` per call, one parameter array filled by
broadcasting, and a full slice, not a copy, for a row mask that selects
every row.  The solve, QR and Cholesky steps call the LAPACK gufuncs of
``numpy.linalg._umath_linalg`` that the ``np.linalg`` wrappers call, so
their values are the wrappers' bit for bit; a slice that LAPACK refuses
(a singular Pade denominator or triangular factor, a Gram matrix without
a Cholesky factor) comes back NaN under the caller's ``np.errstate``
instead of raising for the whole stack.
:func:`magnitude_sq` is the denominator above, for quadrature cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import InfeasibleError
from .stability import ScaledParams, classify, classify_many

# refusal threshold for the scaled reciprocal condition number, which is
# about 1e-4 at relative distance 1e-3 from the stability boundary
_MIN_RCOND = 1e-8

# slack of the Gram-Cholesky certificate: covers the rounding of a Gram
# matrix of trace 12 and of its 8x8 Cholesky factorisation, both below 1e-13
_GRAM_SLACK = 1e-12

# tuples per stacked expm / QR / Cholesky / SVD: enough to amortise the per-call overhead
# (the cost per tuple flattens out by about 85), few enough to bound the
# working memory of a large grid
_BLOCK = 128

# degree-13 Pade coefficients b_0 ... b_13 of exp, and the 1-norm up to which
# that approximant is exact to double rounding (Higham 2005, table 2.3)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152

_I2, _I8 = np.eye(2), np.eye(8)
_BELOW_DIAGONAL = np.tri(8, k=-1, dtype=bool)  # np.triu zeroes these entries
_PADE_EYE = (_PADE13[0] * _I8, _PADE13[1] * _I8)  # b_0 I and b_1 I
_TRANSPOSE_ROWS = [0, 2, 1, 3]
_TRANSPOSE = np.eye(4)[_TRANSPOSE_ROWS]  # vec(X^T) = _TRANSPOSE @ vec(X), column-major vec


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
# every entry depends on at most one parameter, with slope -2, -1 or 1, so the
# product of a tuple with the flattened slopes is exact in any summation order
_SLOPES_BY_PARAMETER = _PARTS_SLOPES.reshape(-1, 4).T


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of each slice of a stack of 8x8 matrices.

    Degree-13 Pade approximant with scaling and squaring (Higham 2005) and a
    scaling exponent per slice: each slice is scaled to 1-norm at most
    theta_13 and squared back its own number of times, so its result does not
    depend on the stack it shares.  The approximant is taken as
    I + 2 (V - U)^-1 U, which equals (V - U)^-1 (V + U) and gives exp(0) = I
    exactly.  A slice with a non-finite norm or a singular Pade denominator
    V - U comes back NaN, one that overflows while squaring comes back
    non-finite, and neither disturbs the other slices.  Runs under its
    caller's ``np.errstate``, which must ignore ``invalid`` (the flag a
    singular denominator raises) and ``over``.
    """
    b = _PADE13
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    finite = np.isfinite(norm)
    everywhere = np.count_nonzero(finite) == len(finite)
    if not everywhere:  # a non-finite slice is computed from zeros and set to NaN below
        norm, a = np.where(finite, norm, 0.0), np.where(finite[:, None, None], a, 0.0)
    s = np.ceil(np.log2(np.maximum(norm / _THETA13, 1.0))).astype(int)
    a = np.ldexp(a, -s[:, None, None])  # exact: powers of two
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + _PADE_EYE[1])
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + _PADE_EYE[0]
    r = _I8 + _umath_linalg.solve(v - u, 2.0 * u)  # NaN for a singular denominator
    if not everywhere:
        r[~finite] = math.nan
    for k in range(int(s.max(initial=0))):
        r = np.where((s > k)[:, None, None], r @ r, r)
    return r


def _solve(params: np.ndarray, certify: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mode integral, scaled rcond and flow growth of each row (s1, s2, k1, k2).

    Rows go through in blocks of at most ``_BLOCK``; every step acts on each
    row alone (one exponential per slice, one QR, one SVD or Cholesky), so a
    row's results do not depend on the block it shares.  A row whose growth
    reaches 1 / _MIN_RCOND is not solved: its rcond is 0.  With ``certify``,
    a row whose rcond a Gram-Cholesky certificate bounds by 10 _MIN_RCOND
    growth reports that bound instead of its rcond, which :func:`_accepted`
    decides the same way; the other rows report the SVD rcond.
    """
    value, rcond, growth = (np.empty(len(params)) for _ in range(3))
    # a strongly damped flow overflows; the growth test refuses it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, len(params), _BLOCK):
            rows = slice(start, start + _BLOCK)
            parts = _PARTS_AT_ZERO + (params[rows] @ _SLOPES_BY_PARAMETER).reshape(-1, 12, 8)
            flow = _expm(parts[:, :8])
            # boundary conditions on [vec U(0); vec U(-1)]: Z(1) - X(0) = 0,
            # Z(0) - X(1)^T = 0, then the algebraic condition
            system = np.concatenate([flow[:, 4:] - _I8[:4], _I8[4:] - flow[:, _TRANSPOSE_ROWS], parts[:, 8:]], axis=1)
            # shooting across the unit delay loses accuracy in proportion to the growth
            # of the flow: near 1 for physical tuples, too large once s1 exceeds 16
            growth[rows] = np.maximum(np.abs(system[:, :8]).max(axis=(1, 2)), 1.0)
            solvable = _selector(growth[rows] < 1.0 / _MIN_RCOND)
            solution = np.zeros((len(system), 8))
            solution[solvable] = _least_squares(system[solvable])
            value[rows] = 2.0 * math.pi * solution[:, 3]  # vec index 3 is U(0)[1, 1]
            if certify:
                rcond[rows] = _certified_rcond(system, solution, 10.0 * _MIN_RCOND * growth[rows])
            else:
                rcond[rows] = _scaled_rcond(system, solution)
    return value, rcond, growth


def _selector(mask: np.ndarray):
    """Index of the rows ``mask`` selects: the mask, or a full slice when it
    selects every row, so that indexing with it makes views instead of copies."""
    return slice(None) if np.count_nonzero(mask) == len(mask) else mask


def _least_squares(system: np.ndarray) -> np.ndarray:
    """Solution of each consistent 12x8 system against the right-hand side
    -vec(W) = -e_8 (the first algebraic row): QR, then back substitution;
    NaN where R is singular, which is refused downstream.  Runs under its
    caller's ``np.errstate``, which must ignore ``invalid``."""
    factors = system.copy()  # the raw QR overwrites its argument with R and the reflectors
    tau = _umath_linalg.qr_r_raw(factors)
    q = _umath_linalg.qr_reduced(factors, tau)
    r = np.where(_BELOW_DIAGONAL, 0.0, factors[:, :8])  # np.triu, bit for bit
    # R is upper triangular, so the LU solve does no pivoting and is back substitution
    return _umath_linalg.solve(r, -q[:, 8, :, None])[..., 0]  # Q^T (-e_8)


def _unit_rows(system: np.ndarray, solution: np.ndarray) -> tuple[np.ndarray, np.ndarray | slice]:
    """The systems with the columns scaled by the solution and the rows
    normalised, and the index of the systems where that scaling is defined
    (every row norm finite and nonzero; an unsolved system has a zero
    solution): a mask, or a full slice when it holds for every system."""
    scaled = system * np.abs(solution)[:, None, :]
    norms = np.sqrt((scaled * scaled).sum(axis=2))  # np.linalg.norm(scaled, axis=2), bit for bit
    good = _selector((np.isfinite(norms) & (norms > 0.0)).all(axis=1))
    return scaled[good] / norms[good][:, :, None], good


def _scaled_rcond(system: np.ndarray, solution: np.ndarray) -> np.ndarray:
    """Reciprocal condition number of each system with the columns scaled by
    the solution and the rows normalised; 0 where that scaling degenerates."""
    unit, good = _unit_rows(system, solution)
    rcond = np.zeros(len(system))
    if len(unit):
        sv = np.linalg.svd(unit, compute_uv=False)
        rcond[good] = sv[:, -1] / sv[:, 0]
    return rcond


def _certified_rcond(system: np.ndarray, solution: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """``floor`` where a Gram-Cholesky certificate proves that the scaled
    rcond of a system is at least its floor, the :func:`_scaled_rcond` of
    the system elsewhere.

    The 12 unit rows of a scaled system S give its Gram matrix G = S^T S the
    trace 12, so sigma_max^2 <= 12; a Cholesky factor of G - (12 floor^2 +
    _GRAM_SLACK) I proves sigma_min^2 > 12 floor^2 and so rcond > floor.  The
    slack covers the rounding of G and of the factorisation.  Runs under its
    caller's ``np.errstate``, which must ignore ``invalid`` (the flag a shifted
    Gram matrix without a Cholesky factor raises).
    """
    unit, good = _unit_rows(system, solution)
    shift = 12.0 * floor[good] ** 2 + _GRAM_SLACK
    sure = np.zeros(len(system), dtype=bool)
    factor = _umath_linalg.cholesky_lo(np.swapaxes(unit, 1, 2) @ unit - shift[:, None, None] * _I8)
    sure[good] = ~np.isnan(factor[:, 0, 0])  # a slice without a factor comes back NaN
    rcond = np.where(sure, floor, 0.0)
    if np.count_nonzero(sure) < len(sure):
        rcond[~sure] = _scaled_rcond(system[~sure], solution[~sure])
    return rcond


def _accepted(value: np.ndarray, rcond: np.ndarray, growth: np.ndarray) -> np.ndarray:
    """Rows whose Lyapunov system is well enough conditioned and whose integral is positive."""
    return (rcond >= _MIN_RCOND * growth) & (value > 0.0)


def weights(s1, s2, k1, k2) -> np.ndarray:
    """Mode integral of each tuple (s1, s2, k1, k2), given as arrays that
    broadcast; +inf where the tuple is not strictly inside the stability
    region or its Lyapunov system is refused.  Never NaN, so that it serves
    directly as a gain-search objective.

    Only the tuples :func:`~wacrisk.stability.classify_many` finds stable
    are solved; each value equals the ``evaluate`` value of its tuple.
    """
    params = np.empty((*np.broadcast(s1, s2, k1, k2).shape, 4))  # one row (s1, s2, k1, k2) per tuple
    params[..., 0], params[..., 1], params[..., 2], params[..., 3] = s1, s2, k1, k2
    stable = classify_many(params[..., 0], params[..., 1], params[..., 2], params[..., 3]).stable
    value, rcond, growth = _solve(params[stable], certify=True)
    out = np.full(stable.shape, math.inf)
    out[stable] = np.where(_accepted(value, rcond, growth), value, math.inf)
    return out


# rel_tol is unused (the value is exact); callers such as perfbench/workloads.py pass it
def evaluate(sp: ScaledParams, rel_tol: float = 1e-6) -> SpectralEvaluation:
    """Evaluate the mode integral of one tuple, exact up to rounding: any
    ``rel_tol`` above the forward bound ``abs_error_estimate / value`` is met.
    Raises InfeasibleError when the tuple is not strictly inside the stability
    region or the integral diverges.
    """
    if not classify(sp).stable:
        raise InfeasibleError("mode tuple is not strictly inside the stability region")
    value, rcond, growth = (float(a[0]) for a in _solve(np.array([[sp.s1, sp.s2, sp.k1, sp.k2]])))
    if not rcond >= _MIN_RCOND * growth:
        raise InfeasibleError(f"spectral integral diverging or out of range: Lyapunov rcond {rcond:.1e}")
    if value <= 0.0:
        raise InfeasibleError("mode tuple has no positive spectral weight: it is not stable")
    return SpectralEvaluation(value=value, abs_error_estimate=value * 2.0**-52 * growth / rcond, rcond=rcond)
