"""Reduced power-network model and its spectral machinery.

A network of n synchronous machines is described by per-machine constants
(inertia J, damping beta, internal voltage E), a symmetric coupling
susceptance matrix and an equilibrium phase vector.  Linearising the swing
dynamics around the equilibrium yields an inertia-normalised graph
Laplacian whose eigendecomposition drives everything downstream: each
eigenvalue is one oscillation mode of the grid, and feedback gain matrices
that commute with the Laplacian act mode by mode.

Conventions fixed here and relied upon elsewhere:

* eigenvalues are sorted ascending, the first one is forced to exactly 0
  and its eigenvector to (1/sqrt(n)) * ones (positive sign), so the
  consensus mode always sits at index 0;
* within numerically tied eigenvalue groups, columns are ordered by the
  index of their dominant component and sign-fixed to make the
  decomposition deterministic;
* gain matrices are accepted as per-mode eigenvalue lists, as scalar
  multiples of the Laplacian ("consensus"), as a uniform gain on every
  non-consensus mode, or as dense matrices symmetrised like the Laplacian,
  which the spectrum's eigenbasis (refined only inside tied eigenvalue
  groups) must diagonalise; round-off consensus-mode gains become exactly 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# lambda_2 > CONNECTIVITY_RTOL * lambda_n declares the graph connected
CONNECTIVITY_RTOL = 1e-8

# relative Frobenius norm under which commutators and off-diagonal residuals vanish
_COMMUTE_TOL = 1e-8


@dataclass(frozen=True)
class GeneratorParams:
    """Static constants of one machine: inertia (MJ/MVA), damping, voltage (pu)."""

    inertia: float
    damping: float
    voltage: float

    def __post_init__(self):
        for name in ("inertia", "damping", "voltage"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValidationError(f"generator {name} must be a positive real, got {value!r}")


def _symmetrised(value, n: int, name: str, noun: str) -> np.ndarray:
    """``value`` as a finite n x n float matrix A, returned as (A + A^T) / 2.

    The one place a symmetric part is formed, for the documents' matrices and for those built
    from them.  An A farther from it than ``np.allclose`` allows at atol 1e-10 * max(1, max|A|)
    is refused, ``noun`` naming it; an exactly symmetric A comes back bit for bit at any magnitude.
    """
    a = np.asarray(value, dtype=float)
    if a.shape != (n, n):
        raise ValidationError(f"{name} must be {n}x{n}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} entries must be finite")
    with np.errstate(over="ignore"):  # where a + a^T overflows, halving first is exact
        sym = 0.5 * (a + a.T)
    sym = np.where(np.isfinite(sym), sym, 0.5 * a + 0.5 * a.T)
    if not np.allclose(a, sym, atol=1e-10 * max(1.0, float(np.abs(a).max()))):
        raise ValidationError(f"{noun} must be symmetric")
    return sym


@dataclass(frozen=True)
class NetworkModel:
    """Reduced network: machines, coupling susceptances, equilibrium angles.

    Either ``susceptance`` or ``laplacian`` must be given; an explicit
    ``laplacian`` wins when both are present.  All machines must share the
    same inertia and damping (uniform damping-ratio model).  Negative
    susceptances within 1e-12 of zero count as zero.  Both matrices are stored symmetrised.
    """

    generators: tuple[GeneratorParams, ...]
    equilibrium_theta: np.ndarray
    susceptance: np.ndarray | None = None
    laplacian: np.ndarray | None = None

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        n = len(gens)
        if n < 2:
            raise ValidationError(f"need at least 2 generators, got {n}")

        theta = np.asarray(self.equilibrium_theta, dtype=float)
        if theta.shape != (n,):
            raise ValidationError(f"equilibrium_theta must have shape ({n},), got {theta.shape}")
        if not np.all(np.isfinite(theta)):
            raise ValidationError("equilibrium_theta entries must be finite")
        object.__setattr__(self, "equilibrium_theta", theta)

        if self.susceptance is None and self.laplacian is None:
            raise ValidationError("one of susceptance or laplacian is required")

        if self.susceptance is not None:
            y = _symmetrised(self.susceptance, n, "susceptance", "susceptance matrix")
            if np.any(np.abs(np.diag(y)) > 1e-12):
                raise ValidationError("susceptance diagonal must be zero")
            if np.any(y < -1e-12):
                raise ValidationError("susceptance entries must be nonnegative")
            y = np.where(y < 0.0, 0.0, y)  # negative entries within 1e-12 count as zero
            object.__setattr__(self, "susceptance", y)
            # equilibrium must keep every coupled pair inside the pi/2 cone
            gap = np.abs(theta[:, None] - theta)
            violations = np.argwhere(np.triu((y > 0) & (gap >= math.pi / 2), 1))
            if violations.size:
                i, j = violations[0]  # the first pair in row-major order
                raise ValidationError(f"equilibrium angle gap |theta_{i} - theta_{j}| = {gap[i, j]:.4f} >= pi/2")

        if self.laplacian is not None:
            sym = _symmetrised(self.laplacian, n, "laplacian", "laplacian")
            if np.any(np.abs(sym.sum(axis=1)) > 1e-9 * max(1.0, np.abs(sym).max())):
                raise ValidationError("laplacian rows must sum to zero")
            if np.any(sym - np.diag(np.diag(sym)) > 1e-12):
                raise ValidationError("laplacian off-diagonal entries must be nonpositive")
            object.__setattr__(self, "laplacian", sym)

        inertias = {g.inertia for g in gens}
        dampings = {g.damping for g in gens}
        if len(inertias) != 1 or len(dampings) != 1:
            raise ValidationError("all generators must share identical inertia and damping")

    @property
    def n(self) -> int:
        return len(self.generators)

    @property
    def inertia(self) -> float:
        """Common machine inertia J."""
        return self.generators[0].inertia

    @property
    def damping_ratio(self) -> float:
        """Common damping-over-inertia ratio d = beta / J."""
        return self.generators[0].damping / self.generators[0].inertia


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Inertia-normalised Laplacian with its deterministic eigendecomposition."""

    laplacian: np.ndarray
    eigenvalues: np.ndarray   # ascending, eigenvalues[0] == 0.0 exactly
    eigenvectors: np.ndarray  # orthogonal, column 0 == ones/sqrt(n)

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @classmethod
    def from_eigenvalues(cls, nonzero_eigenvalues) -> "LaplacianSpectrum":
        """Build a spectrum with prescribed nonzero mode eigenvalues.

        The eigenbasis is the deterministic Householder reflection mapping
        e_1 to ones/sqrt(n); useful when only the mode eigenvalues of a
        grid are known.
        """
        lams = np.sort(np.asarray(nonzero_eigenvalues, dtype=float))
        if lams.size == 0 or not np.all(np.isfinite(lams) & (lams > 0)):
            raise ValidationError("nonzero mode eigenvalues must be finite and positive")
        n = lams.size + 1
        ones = np.full(n, 1.0 / math.sqrt(n))
        u = np.zeros(n)
        u[0] = 1.0
        u = u - ones
        u /= np.linalg.norm(u)
        q = np.eye(n) - 2.0 * np.outer(u, u)  # symmetric orthogonal, q[:,0] = ones
        full = np.concatenate([[0.0], lams])
        lap = _symmetrised((q * full) @ q.T, n, "laplacian", "laplacian")
        return cls(laplacian=lap, eigenvalues=full, eigenvectors=q)


def _split_ties(values: np.ndarray, groups, scale: float):
    """Split each index slice in ``groups`` of ascending ``values`` at gaps above 1e-8 * scale."""
    out = []
    for a, b in groups:
        start = a
        while start < b:
            stop = start + 1
            while stop < b and values[stop] - values[stop - 1] <= 1e-8 * scale:
                stop += 1
            out.append((start, stop))
            start = stop
    return out


def _deterministic_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh with tie-broken column order and fixed column signs."""
    lams, vecs = np.linalg.eigh(matrix)
    scale = max(abs(lams[-1]), abs(lams[0]), 1.0)
    # sign fix: dominant component of every eigenvector is made positive
    dom = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[dom, np.arange(len(lams))])
    signs[signs == 0] = 1.0
    vecs = vecs * signs
    # reorder inside numerically tied groups by dominant-component index
    order = np.arange(len(lams))
    for a, b in _split_ties(lams, [(0, len(lams))], scale):
        order[a:b] = order[a:b][np.argsort(dom[a:b], kind="stable")]
    return lams[order], vecs[:, order]


def build_laplacian(model: NetworkModel) -> LaplacianSpectrum:
    """Assemble the inertia-normalised Laplacian and its spectrum.

    Off-diagonal coupling weights are E_i E_j Y_ij cos(theta_i - theta_j) / J;
    an explicit laplacian on the model overrides the assembly.  The model
    has checked every entry and the pi/2 cone; raises ValidationError if the
    coupling graph is disconnected.
    """
    n = model.n
    lap = model.laplacian
    if lap is None:
        theta = model.equilibrium_theta
        volts = np.array([g.voltage for g in model.generators])
        weights = (
            np.outer(volts, volts)
            * model.susceptance
            * np.cos(theta[:, None] - theta[None, :])
            / model.inertia
        )
        np.fill_diagonal(weights, 0.0)
        lap = np.diag(weights.sum(axis=1)) - weights

    lams, vecs = _deterministic_eigh(lap)
    if abs(lams[0]) > 1e-8 * max(1.0, lams[-1]):
        raise ValidationError("smallest eigenvalue is not numerically zero; not a Laplacian")
    if lams[-1] <= 0 or lams[1] <= CONNECTIVITY_RTOL * lams[-1]:
        raise ValidationError("coupling graph is disconnected (second eigenvalue is zero)")

    ones = np.full(n, 1.0 / math.sqrt(n))
    if abs(abs(ones @ vecs[:, 0]) - 1.0) > 1e-8:
        raise ValidationError("null eigenvector is not the constant vector")
    lams = lams.copy()
    vecs = vecs.copy()
    lams[0] = 0.0
    vecs[:, 0] = ones
    return LaplacianSpectrum(laplacian=lap, eigenvalues=lams, eigenvectors=vecs)


def effective_resistance(spectrum_or_values) -> float:
    """Sum of inverse nonzero mode eigenvalues.

    Accepts a LaplacianSpectrum (its first eigenvalue is skipped) or a
    sequence of per-mode values for l >= 2.
    """
    if isinstance(spectrum_or_values, LaplacianSpectrum):
        values = spectrum_or_values.eigenvalues[1:]
    else:
        values = np.asarray(spectrum_or_values, dtype=float)
    if values.size == 0:
        raise ValidationError("need at least one nonzero mode")
    if not np.all(np.isfinite(values) & (values > 0)):
        raise ValidationError("nonzero mode eigenvalues must be finite and strictly positive")
    return float(np.sum(1.0 / values))


@dataclass(frozen=True)
class GainSpec:
    """Feedback gain matrices in one of four shapes.

    mode "eigen":     explicit per-mode gains, aligned to ascending Laplacian
                      eigenvalues (index 0 is the consensus mode);
    mode "uniform":   one gain value on every non-consensus mode, zero on
                      the consensus mode;
    mode "consensus": M = mu * L and K = kappa * L;
    mode "dense":     explicit symmetric matrices, validated to commute.
    """

    mode: str
    mu: object = None
    kappa: object = None
    M: np.ndarray | None = None
    K: np.ndarray | None = None

    @classmethod
    def eigen(cls, mu, kappa) -> "GainSpec":
        return cls(mode="eigen", mu=np.asarray(mu, dtype=float), kappa=np.asarray(kappa, dtype=float))

    @classmethod
    def uniform(cls, mu: float, kappa: float) -> "GainSpec":
        return cls(mode="uniform", mu=float(mu), kappa=float(kappa))

    @classmethod
    def consensus(cls, mu: float, kappa: float) -> "GainSpec":
        return cls(mode="consensus", mu=float(mu), kappa=float(kappa))

    @classmethod
    def dense(cls, M, K) -> "GainSpec":
        return cls(mode="dense", M=np.asarray(M, dtype=float), K=np.asarray(K, dtype=float))

    @classmethod
    def zero(cls) -> "GainSpec":
        return cls.uniform(0.0, 0.0)


@dataclass(frozen=True)
class ModeGains:
    """Per-mode gains resolved against a concrete spectrum.

    ``lambdas`` are the spectrum's eigenvalues and ``eigenvectors`` the basis
    that diagonalises the Laplacian and both gain matrices: the spectrum's
    own, with dense gains re-diagonalised inside tied eigenvalue groups.
    """

    lambdas: np.ndarray
    mu: np.ndarray
    kappa: np.ndarray
    eigenvectors: np.ndarray
    M: np.ndarray
    K: np.ndarray


def _frobenius(a: np.ndarray) -> float:
    """Frobenius norm of a finite matrix, taken with max|a| scaled into [0.5, 1) by a power of two.

    The scaling is exact, so the value is ``np.linalg.norm``'s wherever that neither overflows nor
    underflows; it overflows only where the norm itself does, not where the squares of the entries do.
    """
    exponent = math.frexp(float(np.abs(a).max()))[1]
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(np.ldexp(a, -exponent)), exponent))


def _dense_mode_gains(M: np.ndarray, K: np.ndarray, spectrum: LaplacianSpectrum) -> ModeGains:
    """Per-mode values of dense gains in the spectrum's eigenbasis.

    M and K pass ``_symmetrised`` and are kept as their symmetric parts.
    Columns 1..n-1 inside tied Laplacian eigenvalue groups are refined
    against M and then K; the consensus column stays ones/sqrt(n).  Gains
    this basis does not diagonalise do not commute with the Laplacian (or
    with each other) and are rejected.  Consensus-mode gains within
    round-off of zero become exactly zero, as the Laplacian's own does.
    """
    n = spectrum.n
    M, K = (_symmetrised(A, n, "dense gain matrices", "dense gain matrices") for A in (M, K))
    scale = max(1.0, *(_frobenius(A) for A in (spectrum.laplacian, M, K)))
    vecs = spectrum.eigenvectors.copy()
    groups = _split_ties(spectrum.eigenvalues, [(1, n)], max(1.0, spectrum.lambda_max))
    for matrix in (M, K):
        values = np.empty(n)
        # the blocks of the whole rotated matrix: their round-off is checked against its largest entry
        rotated = _symmetrised(vecs.T @ matrix @ vecs, n, "dense gain matrices", "dense gain matrices")
        for a, b in groups:
            if b - a > 1:
                values[a:b], sub_vecs = _deterministic_eigh(rotated[a:b, a:b])
                vecs[:, a:b] = vecs[:, a:b] @ sub_vecs
        groups = _split_ties(values, groups, max(1.0, float(np.abs(matrix).max())))

    diags = []
    for A in (M, K):
        diag = np.einsum("ji,jk,ki->i", vecs, A, vecs)
        if _frobenius(vecs.T @ A @ vecs - np.diag(diag)) > _COMMUTE_TOL * scale * 10:
            raise ValidationError("dense gain matrices do not commute with the Laplacian")
        if abs(diag[0]) <= _COMMUTE_TOL * scale:
            diag[0] = 0.0
        diags.append(diag)
    return ModeGains(lambdas=spectrum.eigenvalues, mu=diags[0], kappa=diags[1], eigenvectors=vecs, M=M, K=K)


def resolve_gains(gains: GainSpec | ModeGains, spectrum: LaplacianSpectrum) -> ModeGains:
    """Turn a GainSpec into per-mode gain arrays plus dense matrices.

    Dense gains that the spectrum's eigenbasis does not diagonalise are
    rejected outright; every downstream formula requires a shared eigenbasis.
    Non-finite gains are rejected too, naming the field.  Gains already
    resolved against ``spectrum`` are returned unchanged.
    """
    if isinstance(gains, ModeGains):
        return gains
    n = spectrum.n
    q = spectrum.eigenvectors
    lams = spectrum.eigenvalues
    if gains.mode == "eigen":
        mu = np.asarray(gains.mu, dtype=float)
        kappa = np.asarray(gains.kappa, dtype=float)
        if mu.shape != (n,) or kappa.shape != (n,):
            raise ValidationError(f"eigen gains must have length {n}")
    elif gains.mode == "uniform":
        mu = np.full(n, float(gains.mu))
        kappa = np.full(n, float(gains.kappa))
        mu[0] = 0.0
        kappa[0] = 0.0
    elif gains.mode == "consensus":
        with np.errstate(over="ignore", invalid="ignore"):  # a product that is not finite is refused below
            mu = float(gains.mu) * lams
            kappa = float(gains.kappa) * lams
    elif gains.mode == "dense":
        M, K = np.asarray(gains.M, float), np.asarray(gains.K, float)
        _require_finite(M=M, K=K)
        return _dense_mode_gains(M, K, spectrum)
    else:
        raise ValidationError(f"unknown gain mode {gains.mode!r}")

    _require_finite(mu=mu, kappa=kappa)
    M = _symmetrised((q * mu) @ q.T, n, "gain M", "gain M")
    K = _symmetrised((q * kappa) @ q.T, n, "gain K", "gain K")
    return ModeGains(lambdas=lams, mu=mu, kappa=kappa, eigenvectors=q, M=M, K=K)


def _require_finite(**gains: np.ndarray) -> None:
    """Raise ValidationError naming the first gain that holds a NaN or an infinity."""
    for name, value in gains.items():
        if not np.isfinite(value).all():
            raise ValidationError(f"gain {name} must be finite")


def _read_json_object(path, what: str) -> dict:
    """The JSON object held by the file at ``path``, every number read as a float (an integer past 1e308
    as inf, which the entry's own check refuses); a ValidationError names ``what`` and the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_int=float)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
            raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} {path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def load_network(path) -> NetworkModel:
    """Read a NetworkModel from a JSON file.

    Expected document shape::

        {"generators": [{"J": .., "beta": .., "E": ..}, ...],
         "susceptance": [[..]],            # optional if laplacian given
         "equilibrium_theta": [..],
         "laplacian": [[..]]}              # optional override
    """
    doc = _read_json_object(path, "network file")
    try:
        return NetworkModel(
            generators=tuple(
                GeneratorParams(inertia=float(g["J"]), damping=float(g["beta"]), voltage=float(g["E"]))
                for g in doc["generators"]
            ),
            equilibrium_theta=doc["equilibrium_theta"],
            susceptance=doc.get("susceptance"),
            laplacian=doc.get("laplacian"),
        )
    except ValidationError:
        raise
    except KeyError as exc:
        raise ValidationError(f"malformed network document: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed network document: {exc}") from exc
