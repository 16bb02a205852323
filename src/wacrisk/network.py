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
  non-consensus mode, or as explicit dense symmetric matrices, which the
  spectrum's eigenbasis (refined only inside tied eigenvalue groups) must
  diagonalise; their round-off consensus-mode gains are stored as exactly 0.
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


@dataclass(frozen=True)
class NetworkModel:
    """Reduced network: machines, coupling susceptances, equilibrium angles.

    Either ``susceptance`` or ``laplacian`` must be given; an explicit
    ``laplacian`` wins when both are present.  All machines must share the
    same inertia and damping (uniform damping-ratio model).
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
            y = np.asarray(self.susceptance, dtype=float)
            if y.shape != (n, n):
                raise ValidationError(f"susceptance must be {n}x{n}, got {y.shape}")
            if not np.all(np.isfinite(y)):
                raise ValidationError("susceptance entries must be finite")
            if not np.allclose(y, y.T, atol=1e-12):
                raise ValidationError("susceptance matrix must be symmetric")
            if np.any(np.abs(np.diag(y)) > 1e-12):
                raise ValidationError("susceptance diagonal must be zero")
            if np.any(y < -1e-12):
                raise ValidationError("susceptance entries must be nonnegative")
            object.__setattr__(self, "susceptance", y)
            # equilibrium must keep every coupled pair inside the pi/2 cone
            gap = np.abs(theta[:, None] - theta)
            violations = np.argwhere(np.triu((y > 0) & (gap >= math.pi / 2), 1))
            if violations.size:
                i, j = violations[0]  # the first pair in row-major order
                raise ValidationError(f"equilibrium angle gap |theta_{i} - theta_{j}| = {gap[i, j]:.4f} >= pi/2")

        if self.laplacian is not None:
            lap = np.asarray(self.laplacian, dtype=float)
            if lap.shape != (n, n):
                raise ValidationError(f"laplacian must be {n}x{n}, got {lap.shape}")
            if not np.all(np.isfinite(lap)):
                raise ValidationError("laplacian entries must be finite")
            object.__setattr__(self, "laplacian", lap)

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
        if lams.size == 0 or np.any(lams <= 0):
            raise ValidationError("nonzero mode eigenvalues must be positive")
        n = lams.size + 1
        ones = np.full(n, 1.0 / math.sqrt(n))
        u = np.zeros(n)
        u[0] = 1.0
        u = u - ones
        u /= np.linalg.norm(u)
        q = np.eye(n) - 2.0 * np.outer(u, u)  # symmetric orthogonal, q[:,0] = ones
        full = np.concatenate([[0.0], lams])
        lap = (q * full) @ q.T
        lap = 0.5 * (lap + lap.T)
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
    an explicit laplacian on the model overrides the assembly.  Raises
    ValidationError if the coupling graph is disconnected or the equilibrium
    produces a negative coupling weight.
    """
    n = model.n
    if model.laplacian is not None:
        lap = 0.5 * (model.laplacian + model.laplacian.T)
        if not np.allclose(model.laplacian, lap, atol=1e-10):
            raise ValidationError("laplacian must be symmetric")
        row = np.abs(lap.sum(axis=1))
        if np.any(row > 1e-9 * max(1.0, np.abs(lap).max())):
            raise ValidationError("laplacian rows must sum to zero")
        if np.any(lap - np.diag(np.diag(lap)) > 1e-12):
            raise ValidationError("laplacian off-diagonal entries must be nonpositive")
    else:
        theta = model.equilibrium_theta
        volts = np.array([g.voltage for g in model.generators])
        weights = (
            np.outer(volts, volts)
            * model.susceptance
            * np.cos(theta[:, None] - theta[None, :])
            / model.inertia
        )
        np.fill_diagonal(weights, 0.0)
        if np.any(weights < 0):
            raise ValidationError("negative coupling weight: equilibrium outside the pi/2 cone")
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
    if np.any(values <= 0):
        raise ValidationError("all nonzero mode values must be strictly positive")
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


def _dense_mode_gains(M: np.ndarray, K: np.ndarray, spectrum: LaplacianSpectrum) -> ModeGains:
    """Per-mode values of dense gains in the spectrum's eigenbasis.

    Columns 1..n-1 inside tied Laplacian eigenvalue groups are refined
    against M and then K; the consensus column stays ones/sqrt(n).  Gains
    this basis does not diagonalise do not commute with the Laplacian (or
    with each other) and are rejected.  Consensus-mode gains within
    round-off of zero become exactly zero, as the Laplacian's own does.
    """
    n = spectrum.n
    for A in (M, K):
        if A.shape != (n, n):
            raise ValidationError(f"dense gain matrices must be {n}x{n}, got {A.shape}")
        if not np.allclose(A, A.T, atol=1e-10 * max(1.0, np.abs(A).max())):
            raise ValidationError("dense gain matrices must be symmetric")
    scale = max(1.0, *(float(np.linalg.norm(A)) for A in (spectrum.laplacian, M, K)))
    vecs = spectrum.eigenvectors.copy()
    groups = _split_ties(spectrum.eigenvalues, [(1, n)], max(1.0, spectrum.lambda_max))
    for matrix in (M, K):
        values = np.empty(n)
        for a, b in groups:
            if b - a > 1:
                block = vecs[:, a:b]
                sub = block.T @ matrix @ block
                values[a:b], sub_vecs = _deterministic_eigh(0.5 * (sub + sub.T))
                vecs[:, a:b] = block @ sub_vecs
        groups = _split_ties(values, groups, max(1.0, float(np.abs(matrix).max())))

    diags = []
    for A in (M, K):
        diag = np.einsum("ji,jk,ki->i", vecs, A, vecs)
        if np.linalg.norm(vecs.T @ A @ vecs - np.diag(diag)) > _COMMUTE_TOL * scale * 10:
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
    M = (q * mu) @ q.T
    K = (q * kappa) @ q.T
    return ModeGains(
        lambdas=lams, mu=mu, kappa=kappa, eigenvectors=q, M=0.5 * (M + M.T), K=0.5 * (K + K.T)
    )


def _require_finite(**gains: np.ndarray) -> None:
    """Raise ValidationError naming the first gain that holds a NaN or an infinity."""
    for name, value in gains.items():
        if not np.isfinite(value).all():
            raise ValidationError(f"gain {name} must be finite")


def _read_json_object(path, what: str) -> dict:
    """The JSON object held by the file at ``path``; a ValidationError names ``what`` and the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
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
