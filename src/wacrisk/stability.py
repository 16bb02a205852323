"""Exact delay-stability classification of the decomposed feedback modes.

After diagonalising the closed loop, every network mode obeys a scalar
second-order delay equation whose unit-delay characteristic function is

    c(z) = z^2 + s1 z + k2 z e^(-z) + s2 + k1 e^(-z),

where (s1, s2) = (d*tau, lambda*tau^2) carry the grid constants and
(k1, k2) = (mu*tau^2, kappa*tau) carry the feedback gains, with the delay
tau absorbed into the coordinates.  Asymptotic stability is decided exactly
by membership in one of four parameter regions:

    W0  consensus branch (s2 = k1 = 0): the frequency sub-system is a
        first-order delay equation, stable for |k2| < s1 or up to a single
        arccot-type delay cut-off;
    W1  no imaginary crossing exists; delay-independent stability;
    W2  exactly one crossing frequency; stable until its first cut-off;
    W3  two crossing frequencies; stability holds on finitely many
        interlacing delay windows before terminal instability.

The crossing frequencies gamma+- solve |z^2 + s1 z + s2| = |k1 + i k2 z| on
the imaginary axis and their phases phi+- give the cut-off delays
(phi + 2 pi l) / gamma.  A spectral-collocation approximation of the
rightmost characteristic root provides an independent numerical oracle for
the whole classification.  The collocation keeps only the delayed channel:
writing the delayed term as A1 = U W^T, with W^T the r nonzero rows of A1,
it carries x(0) in R^m and y = W^T x at the N delayed nodes, a matrix of
size m + rN (2 + N for a scalar mode, 1 + N on the consensus branch)
instead of the m(N + 1) of the full state at every node, with the same
eigenvalues off the spurious spectrum of the node block.  It collocates on
a ladder: 32 and then 40 Chebyshev nodes, accepting the 40-node root when
it agrees with the 32-node root to 1e-9 (1 + |z|) and no root to its right
can lie outside the disc the 32-node rung resolves, and falling back to the
requested resolution (128 by default) otherwise; at that resolution, too, a
root that may have an unresolved root to its right is refused.

:func:`classify_many` is the classification: closed-form array expressions
over arrays of tuples, selected with ``np.where``, returned as one
:class:`Verdicts` record of arrays.  :func:`classify` is its one-element
call and returns the same record of 0-d entries.  The crossings
gamma+- and phases phi+- are computed in one array helper, and the number
of cut-offs below a delay in another; :func:`classify_many` and
:func:`delay_windows` call both.

Points within ``band`` of any defining inequality of the selected region
are reported as boundary and treated as unstable: the classification is an
if-and-only-if statement for the open region, and marginal tuples are not
certifiably safe.  :func:`mode_verdicts` is the per-mode rule at every
delay, over arrays of physical modes: :func:`classify_many` for tau > 0 and
the delay-free rule at tau = 0.

A verdict carries no delay windows.  In physical units a mode's crossing
frequencies do not depend on the delay, so the stable delay interval
(tau_lo, tau_hi) that holds tau follows in closed form from the cut-off
counts below tau: the next gamma+ cut-off destabilises the mode and the
last gamma- cut-off restabilised it.  :func:`delay_windows` returns it over
arrays of physical modes, NaN where :func:`mode_verdicts` is not stable;
:func:`network_verdict` derives it from its one :func:`mode_verdicts` call.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleError, ValidationError
from .network import GainSpec, LaplacianSpectrum, ModeGains, resolve_gains

BOUNDARY_BAND = 1e-9

# region labels of a verdict; ``Verdicts.region`` holds indices into this tuple
REGIONS = ("none", "W0", "W1", "W2", "W3", "delay-free")

_TWO_PI = 2.0 * math.pi

# node counts of the cheap collocation rungs tried before ``resolution``
_LADDER = (32, 40)


@dataclass(frozen=True)
class ScaledParams:
    """Delay-suppressed coordinates (s1, s2; k1, k2) of one scalar mode."""

    s1: float
    s2: float
    k1: float
    k2: float

    def __post_init__(self):
        for name in ("s1", "s2", "k1", "k2"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.s1 < 0 or self.s2 < 0:
            raise ValidationError("s1 and s2 must be nonnegative")


def scaled_coordinates(d, lam, mu, kappa, tau: float):
    """Delay-suppressed coordinates (d*tau, lam*tau^2, mu*tau^2, kappa*tau) of
    physical modes, given as floats or arrays; the one place that scales them."""
    return d * tau, lam * tau * tau, mu * tau * tau, kappa * tau


class Verdicts(NamedTuple):
    """Verdicts of tuples, one array entry per tuple."""

    stable: np.ndarray
    region: np.ndarray          # REGIONS index of "W0".."W3" (or "delay-free") when stable, else of "none"
    margin: np.ndarray          # min slack of the best region's inequalities
    boundary: np.ndarray        # within the boundary band of that region


@dataclass(frozen=True)
class NetworkStability:
    """Per-mode verdicts for a closed-loop network, one array entry per mode."""

    stable: bool
    verdicts: Verdicts
    # scaled coordinates (d tau, lam tau^2, mu tau^2, kappa tau) of each mode; all +0.0 at tau = 0
    s1: np.ndarray
    s2: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    # per-mode stable delay interval around tau (``delay_windows``), NaN where unstable
    tau_lo: np.ndarray
    tau_hi: np.ndarray
    gains: ModeGains
    # consensus limit theta -> rho * ones when mode-1 gains vanish and mode 1 converges (d > 0):
    # rho = rho_theta_coeff * sum(theta(0)) + rho_omega_coeff * sum(omega(0))
    rho_theta_coeff: float | None
    rho_omega_coeff: float | None


def delay_free_stable(d, lam, mu, kappa):
    """Stability of non-consensus modes when the feedback has no delay
    (floats, or arrays that broadcast)."""
    return (kappa + d > 0.0) & (lam + mu > 0.0)


def _crossings_many(s1, s2, k1, k2):
    """(gamma, phi, crossing, two, gap) of tuples given as NumPy arrays or
    scalars of one shape: the one place the crossings are computed.

    ``gamma`` and ``phi`` stack (gamma+, gamma-) and their phases in [0, 2 pi)
    on a new leading axis; entries that do not exist are meaningless.
    ``crossing`` marks tuples with a positive crossing frequency, ``two`` the
    side prod > 0 where gamma- can exist, and ``gap`` = 2 sqrt(prod) - delta
    is the slack of the two-crossing condition delta > 2 sqrt(prod).  Runs
    under the caller's ``np.errstate``, for the entries that do not exist.
    """
    delta = k2 * k2 + 2.0 * s2 - s1 * s1
    prod = s2 * s2 - k1 * k1  # product of the squared crossing frequencies
    gap = 2.0 * np.sqrt(np.maximum(prod, 0.0)) - delta

    # squared crossing frequencies (g+^2, g-^2): roots of g^2 - delta g + prod;
    # with prod > 0 both exist only for delta > 2 sqrt(prod), else only g+
    disc = delta * delta - 4.0 * prod
    root = np.sqrt(disc)
    squares = 0.5 * np.array([delta + root, delta - root])
    two = prod > 0.0
    crossing = np.where(two, (delta > 0.0) & (disc > 0.0) & (squares[1] > 0.0), squares[0] > 0.0)

    # phases phi+- in [0, 2 pi) at which the delayed term cancels c(i gamma)
    gamma = np.sqrt(squares)
    g2 = gamma * gamma
    denom = k2 * k2 * g2 + k1 * k1
    cos_val = -(s1 * k2 * g2 + k1 * (s2 - g2)) / denom
    sin_val = (s1 * k1 * gamma - k2 * gamma * (s2 - g2)) / denom
    phi = np.mod(np.arctan2(sin_val, cos_val), _TWO_PI)
    return gamma, phi, crossing, two, gap


def _cutoffs_below(gamma, phi):
    """Number of cut-offs (phi + 2 pi l)/gamma, l >= 0, below 1: below the
    unit multiplier, or below the delay tau when gamma is a physical
    crossing times tau (arrays; meaningless where the crossing does not exist)."""
    return np.where(gamma < phi, 0.0, np.floor((gamma - phi) / _TWO_PI) + 1.0)


def _as_arrays(*values) -> list[np.ndarray]:
    """Float arrays of the inputs; NumPy's broadcasting gives them their common shape."""
    return [np.asarray(v, dtype=float) for v in values]


def classify_many(s1, s2, k1, k2, band: float = BOUNDARY_BAND) -> Verdicts:
    """Verdicts of the tuples (s1, s2, k1, k2), given as arrays that broadcast.

    Stability is decided by exact counting of right-half-plane roots: the
    delay-free quadratic z^2 + (s1+k2) z + (s2+k1) contributes 0 or 2
    unstable roots, every cut-off of the destabilising crossing family
    below the unit multiplier adds a pair, every cut-off of the
    stabilising family removes a pair.  On the start-stable quadrant
    (k2 + s1 > 0, k1 + s2 > 0) this reproduces the four-region table
    verbatim; outside it, the count additionally recognises
    delay-stabilised tuples in the two-crossing regime, which are labelled
    W3 as well.  A permanently negative c(0) = s2 + k1 means a real
    unstable root no delay can move.  The consensus branch s2 = k1 = 0 is
    W0.  Every branch is evaluated on every entry and the verdict selected
    with ``np.where``, so the crossings, phases, root counts and slacks are
    closed-form array expressions.

    A tuple is stable only when every defining inequality of its region
    holds with slack larger than ``band``; tuples inside the band are
    flagged as boundary and treated as unstable.  Raises ValidationError
    for non-finite entries or negative s1, s2, as ScaledParams does.
    """
    s1, s2, k1, k2 = _as_arrays(s1, s2, k1, k2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a finite sum has finite terms; only a sum that is not finite, or has
        # overflowed, needs the terms checked one by one
        unsure = np.count_nonzero(~np.isfinite(s1 + s2 + k1 + k2))
        if unsure and not all(np.isfinite(v).all() for v in (s1, s2, k1, k2)):
            raise ValidationError("s1, s2, k1 and k2 must be finite")
        if np.count_nonzero(np.minimum(s1, s2) < 0.0):
            raise ValidationError("s1 and s2 must be nonnegative")
        hard = k1 + s2  # sign of c(0); negative means a permanent real unstable root
        a0 = s1 + k2
        start_stable = a0 > 0.0  # the delay-free quadratic has no unstable root
        split = s2 - np.abs(k1)
        w3 = split > 0.0  # two crossing frequencies: W3 when stable, else W2
        gamma, phi, crossing, two, gap = _crossings_many(s1, s2, k1, k2)

        # cut-offs (phi + 2 pi l)/gamma, l >= 0, below the unit multiplier, and the
        # distance of the unit multiplier to the nearest cut-off in frequency units
        cutoffs = _cutoffs_below(gamma, phi)
        slacks = np.abs(gamma - phi - _TWO_PI * np.maximum(0.0, np.rint((gamma - phi) / _TWO_PI)))
        # gamma+ cut-offs destabilise, gamma- cut-offs restabilise
        crossing_stable = np.where(start_stable, 0.0, 2.0) + 2.0 * (cutoffs[0] - np.where(two, cutoffs[1], 0.0)) == 0.0
        slack = np.where(two, np.minimum(slacks[0], slacks[1]), slacks[0])
        crossing_margin = np.minimum(
            np.minimum(np.minimum(hard, np.abs(a0)), np.where(w3, np.minimum(split, -gap), -split)), slack
        )
        crossing_margin = np.where(crossing_stable, crossing_margin, np.minimum(crossing_margin, -crossing_margin))
        # no imaginary crossing: the delay-free verdict holds for every delay
        free_margin = np.where(start_stable, np.minimum(np.minimum(np.minimum(hard, a0), split), gap), a0)

        margin = np.where(hard <= band, hard, np.where(crossing, crossing_margin, free_margin))
        stable = np.where(crossing, crossing_stable, start_stable)
        region = 2 + crossing * (1 + w3)  # W1, W2 or W3

        w0 = (s2 == 0.0) & (k1 == 0.0)
        if np.count_nonzero(w0):
            # consensus branch: stable for |k2| < s1 or up to an arccot-type cut-off
            root = np.sqrt(np.maximum(k2 * k2 - s1 * s1, 0.0))
            arccot = math.pi / 2.0 - np.arctan(-s1 / root)
            cut = (k2 > s1) & (root > 0.0)
            w0_margin = np.maximum(s1 - np.abs(k2), np.where(cut, np.minimum(k2 - s1, arccot - root), k2 - s1))
            margin = np.where(w0, w0_margin, margin)
            stable |= w0
            region = np.where(w0, 1, region)

    stable &= margin > band
    return Verdicts(stable=stable, region=region * stable, margin=margin, boundary=~stable & (np.abs(margin) <= band))


def classify(sp: ScaledParams, band: float = BOUNDARY_BAND) -> Verdicts:
    """Verdict of one scaled tuple: the one-element :func:`classify_many`."""
    return classify_many(sp.s1, sp.s2, sp.k1, sp.k2, band)


def mode_verdicts(d, lam, mu, kappa, tau: float) -> Verdicts:
    """Verdicts of physical modes (d, lam, mu, kappa), given as floats or
    arrays that broadcast, under delay ``tau``: :func:`classify_many` of their
    scaled tuples for tau > 0; at tau = 0 the delay-free rule, under which
    the consensus mode (lam = mu = 0) converges when kappa + d > 0, with
    region "delay-free" when stable, a NaN margin and no boundary flag.
    Raises ValidationError unless 0 <= tau < inf."""
    if not 0.0 <= tau < math.inf:
        raise ValidationError(f"tau must be finite and nonnegative, got {tau}")
    d, lam, mu, kappa = _as_arrays(d, lam, mu, kappa)
    if tau > 0.0:
        return classify_many(*scaled_coordinates(d, lam, mu, kappa, tau))
    stable = delay_free_stable(d, lam, mu, kappa) | ((lam == 0.0) & (mu == 0.0) & (kappa + d > 0.0))
    region, margin = np.where(stable, REGIONS.index("delay-free"), 0), np.full(stable.shape, math.nan)
    return Verdicts(stable=stable, region=region, margin=margin, boundary=np.zeros_like(stable))


def delay_windows(d, lam, mu, kappa, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Stable delay interval (tau_lo, tau_hi) holding ``tau`` of physical
    modes (d, lam, mu, kappa), given as floats or arrays that broadcast.

    Each mode is stable at every delay strictly between its edges and
    unstable just beyond them: tau_hi is the next gamma+ cut-off above tau,
    +inf when the mode has no crossing or no delayed term (mu = kappa = 0);
    tau_lo is the last gamma- cut-off below tau, 0 when there is none.  The
    crossings are taken at unit delay, so they are in physical units and do
    not depend on tau; the consensus branch's crossing is its arccot-type
    cut-off.  Both edges are NaN where :func:`mode_verdicts` is not stable,
    boundary-band modes included.  Raises ValidationError unless
    0 <= tau < inf.
    """
    d, lam, mu, kappa = _as_arrays(d, lam, mu, kappa)
    return _windows(d, lam, mu, kappa, tau, mode_verdicts(d, lam, mu, kappa, tau).stable)


def _windows(d, lam, mu, kappa, tau: float, stable) -> tuple[np.ndarray, np.ndarray]:
    """:func:`delay_windows` of modes given as arrays of one shape, with the
    ``stable`` mask of their :func:`mode_verdicts`."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gamma, phi, crossing, two, _ = _crossings_many(d, lam, mu, kappa)
        below = _cutoffs_below(gamma * tau, phi) if tau > 0.0 else np.zeros_like(gamma)
        hi = (phi[0] + _TWO_PI * below[0]) / gamma[0]
        lo = (phi[1] + _TWO_PI * (below[1] - 1.0)) / gamma[1]
        # without a delayed term the phase is 0/0, and no delay matters
        tau_hi = np.where(crossing & ((mu != 0.0) | (kappa != 0.0)), hi, math.inf)
        tau_lo = np.where(crossing & two & (below[1] > 0.0), lo, 0.0)
    return np.where(stable, tau_lo, math.nan), np.where(stable, tau_hi, math.nan)


def network_verdict(
    spectrum: LaplacianSpectrum,
    gains: GainSpec,
    d: float,
    tau: float,
) -> NetworkStability:
    """Mode-by-mode verdict for the closed loop under delay ``tau``.

    The network converges (to a consensus point on the phase axis) exactly
    when every scaled mode tuple is stable.  When the consensus-mode gains
    vanish and that mode converges (d > 0), the limit is rho * ones with rho
    determined by the initial data; the returned coefficients give rho as
    rho_theta_coeff * sum(phi_theta(0)) + rho_omega_coeff * sum(phi_omega(0)).
    ``tau_lo`` and ``tau_hi`` hold each mode's stable delay interval
    (:func:`delay_windows`); on a stable loop the smallest ``tau_hi`` is the
    critical delay.
    """
    mode_gains = resolve_gains(gains, spectrum)
    # d as an (n,) array: the record holds one scaled tuple per mode
    modes = _as_arrays(np.full(spectrum.n, float(d)), mode_gains.lambdas, mode_gains.mu, mode_gains.kappa)
    verdicts = mode_verdicts(*modes, tau)
    tau_lo, tau_hi = _windows(*modes, tau, verdicts.stable)
    # the delay-free rule has no scaled tuple: report all-zero ones (+0.0, not tau * mu = -0.0)
    s1, s2, k1, k2 = scaled_coordinates(*modes, tau) if tau > 0.0 else np.zeros((4, spectrum.n))
    if verdicts.stable[0] and mode_gains.mu[0] == 0.0 and mode_gains.kappa[0] == 0.0:
        n = spectrum.n
        rho_theta, rho_omega = 1.0 / n, 1.0 / (d * n)
    else:
        rho_theta = rho_omega = None
    return NetworkStability(
        stable=bool(verdicts.stable.all()),
        verdicts=verdicts,
        s1=s1,
        s2=s2,
        k1=k1,
        k2=k2,
        tau_lo=tau_lo,
        tau_hi=tau_hi,
        gains=mode_gains,
        rho_theta_coeff=rho_theta,
        rho_omega_coeff=rho_omega,
    )


# ---------------------------------------------------------------------------
# Rightmost characteristic root (independent numerical oracle)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _chebyshev_diff(n: int) -> np.ndarray:
    """Chebyshev differentiation matrix on the n + 1 extreme points of [-1, 0]
    (node 0 is t = 0, node n is t = -1); cached per node count, read-only."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    d *= 2.0  # map [-1, 1] -> [-1, 0]
    d.flags.writeable = False
    return d


def _collocation_matrix(a0: np.ndarray, a1: np.ndarray, nodes: int) -> np.ndarray:
    """Spectral collocation of the solution operator of x'(t) = A0 x(t) + A1 x(t-1),
    on the delayed channel only.

    A1 = U W^T exactly, with W^T the r nonzero rows of A1 and U the matching
    columns of the identity.  The state is x(0) in R^m and y_i = W^T x(t_i) at
    the ``nodes`` delayed nodes, ordered node by node; the matrix
    [[A0, 0 ... 0, U], [D_R0 (x) W^T, D_RR (x) I_r]] has size m + r * nodes.
    Its eigenvalues are those of the full m (nodes + 1) collocation off the
    spectrum of D_RR, whose eigenvalues are spurious there.
    """
    m = a0.shape[0]
    rows = np.flatnonzero(np.any(a1 != 0.0, axis=1))
    r = rows.size
    d = _chebyshev_diff(nodes)
    big = np.zeros((m + r * nodes, m + r * nodes))
    big[:m, :m] = a0
    big[rows, m + r * (nodes - 1) + np.arange(r)] = 1.0  # U y(-1)
    big[m:, :m] = (d[1:, 0, None, None] * a1[rows]).reshape(r * nodes, m)
    for k in range(r):
        big[m + k :: r, m + k :: r] = d[1:, 1:]
    return big


def rightmost_root(sp: ScaledParams, resolution: int = 128) -> complex:
    """Approximate rightmost root of c(z) = z^2+s1 z+s2 + (k2 z+k1)e^(-z).

    Spectral collocation of the delay operator provides root candidates;
    the best candidates are polished by Newton iteration on c itself.  Only
    the delayed channel k1 x + k2 x' is collocated at the N delayed nodes,
    next to (x, x') at t = 0: a (2 + N) eigenproblem (see
    ``_collocation_matrix``).  For the consensus branch (s2 = k1 = 0) the
    structural root at the origin is factored out and the reduced
    first-order equation is analysed instead, a (1 + N) eigenproblem.

    A collocation on N nodes resolves the roots in |z| <= N / 4, and it
    refuses its root z unless every root with real part at least Re z
    provably lies in that disc (see ``_modulus_bound``).  c has real
    coefficients, so of a conjugate pair the root with imag >= 0 is
    returned.

    The collocation runs on a ladder of node counts: first at 32 and at 40
    nodes.  The 40-node root z is returned when both rungs resolve their
    roots and the two polished roots agree to 1e-9 (1 + |z|).  Otherwise
    (disagreement, or InfeasibleError at either rung) the answer is
    recomputed at ``resolution`` nodes, so ``resolution`` is the resolution
    of every root the cheap rungs do not certify; for ``resolution`` <= 40
    the ladder is skipped.

    Raises ValidationError unless ``resolution`` is an integer >= 32, and
    InfeasibleError when no candidate converges at ``resolution`` nodes or
    a root right of the answer may lie beyond the disc they resolve.
    """
    if not isinstance(resolution, (int, np.integer)) or resolution < 32:  # bools are < 32
        raise ValidationError(f"resolution must be an integer >= 32, got {resolution!r}")
    if resolution > _LADDER[-1]:
        try:
            coarse = _rightmost_at(sp, _LADDER[0])
            fine = _rightmost_at(sp, _LADDER[1])
            if abs(fine - coarse) <= 1e-9 * (1.0 + abs(fine)):
                return fine
        except InfeasibleError:
            pass
    return _rightmost_at(sp, resolution)


def _modulus_bound(sp: ScaledParams, x0: float) -> float:
    """Bound on |z| over the roots of c with Re z >= x0.

    Such a root has |e^(-z)| <= E = e^(-x0), so z (z + s1) = -s2 - (k2 z + k1) e^(-z)
    gives |z|^2 <= b |z| + c with b = s1 + |k2| E and c = s2 + |k1| E, and,
    since |z + s1| >= Re z + s1 >= x0 + s1, also |z| <= c / a wherever
    a = x0 + s1 - |k2| E is positive (strongly damped tuples).
    """
    e = math.exp(min(-x0, 700.0))
    b = sp.s1 + abs(sp.k2) * e
    c = sp.s2 + abs(sp.k1) * e
    bound = 0.5 * (b + math.sqrt(b * b + 4.0 * c))
    a = x0 + sp.s1 - abs(sp.k2) * e
    return min(bound, c / a) if a > 0.0 else bound


def _rightmost_at(sp: ScaledParams, nodes: int) -> complex:
    """Rightmost root from a collocation on ``nodes`` Chebyshev nodes, Newton-polished."""
    if sp.k1 == 0.0 and sp.k2 == 0.0:
        if sp.s2 == 0.0:
            return complex(-sp.s1) if sp.s1 > 0 else 0j
        roots = np.roots([1.0, sp.s1, sp.s2])
        z = roots[np.argmax(roots.real)]
        return complex(z.real, abs(z.imag))

    if sp.s2 == 0.0 and sp.k1 == 0.0:
        # factor out the structural zero root; analyse z + s1 + k2 e^(-z)
        a0 = np.array([[-sp.s1]])
        a1 = np.array([[-sp.k2]])
        char = lambda z: z + sp.s1 + sp.k2 * cmath.exp(-z)
        deriv = lambda z: 1.0 + 0j - sp.k2 * cmath.exp(-z)
    else:
        a0 = np.array([[0.0, 1.0], [-sp.s2, -sp.s1]])
        a1 = np.array([[0.0, 0.0], [-sp.k1, -sp.k2]])
        char = lambda z: z * z + sp.s1 * z + sp.s2 + (sp.k2 * z + sp.k1) * cmath.exp(-z)
        deriv = lambda z: 2.0 * z + sp.s1 + (sp.k2 - sp.k2 * z - sp.k1) * cmath.exp(-z)

    eigs = np.linalg.eigvals(_collocation_matrix(a0, a1, nodes))
    # collocation resolves roots of moderate modulus; large spurious ones are dropped
    eigs = eigs[np.abs(eigs) <= nodes / 4.0]
    if eigs.size == 0:
        raise InfeasibleError("no resolvable characteristic root candidates")
    candidates = eigs[np.argsort(-eigs.real)][:8]

    scale = 1.0 + abs(sp.s1) + abs(sp.s2) + abs(sp.k1) + abs(sp.k2)
    refined = []
    for z0 in candidates:
        z = complex(z0)
        ok = False
        for _ in range(50):
            f = char(z)
            if abs(f) < 1e-13 * scale:
                ok = True
                break
            df = deriv(z)
            if df == 0:
                break
            step = f / df
            z -= step
            if abs(step) < 1e-14 * (1.0 + abs(z)):
                ok = abs(char(z)) < 1e-10 * scale
                break
        if ok and abs(z - z0) < 1.0 + abs(z0) / 4.0:
            refined.append(z)
    if not refined:
        raise InfeasibleError("Newton refinement of the rightmost root did not converge")
    # c has real coefficients: of a conjugate pair, return the root with imag >= 0
    z = max((complex(z.real, abs(z.imag)) for z in refined), key=lambda z: z.real)
    # the collocation sees only roots with |z| <= nodes / 4; a root right of z
    # outside that disc would go unseen
    bound = _modulus_bound(sp, z.real)
    if bound > nodes / 4.0:
        raise InfeasibleError(
            f"a root right of {z:.3g} may lie beyond |z| = {nodes / 4.0:g}, unresolved at {nodes} nodes;"
            f" about {math.ceil(4.0 * bound)} nodes would resolve it"
        )
    return z
