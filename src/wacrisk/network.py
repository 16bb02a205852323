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
  non-consensus mode, or as explicit dense symmetric matrices (which must
  commute with the Laplacian and with each other).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# lambda_2 > CONNECTIVITY_RTOL * lambda_n declares the graph connected
CONNECTIVITY_RTOL = 1e-8

# relative gap under which eigenvalues are treated as a tied group
_TIE_RTOL = 1e-9

_ROW_SUM_ATOL = 1e-12


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
        object.__setattr__(self, "equilibrium_theta", theta)

        if self.susceptance is None and self.laplacian is None:
            raise ValidationError("one of susceptance or laplacian is required")

        if self.susceptance is not None:
            y = np.asarray(self.susceptance, dtype=float)
            if y.shape != (n, n):
                raise ValidationError(f"susceptance must be {n}x{n}, got {y.shape}")
            if not np.allclose(y, y.T, atol=1e-12):
                raise ValidationError("susceptance matrix must be symmetric")
            if np.any(np.abs(np.diag(y)) > 1e-12):
                raise ValidationError("susceptance diagonal must be zero")
            if np.any(y < -1e-12):
                raise ValidationError("susceptance entries must be nonnegative")
            object.__setattr__(self, "susceptance", y)
            # equilibrium must keep every coupled pair inside the pi/2 cone
            for i in range(n):
                for j in range(i + 1, n):
                    if y[i, j] > 0 and abs(theta[i] - theta[j]) >= math.pi / 2:
                        raise ValidationError(
                            f"equilibrium angle gap |theta_{i} - theta_{j}| ="
                            f" {abs(theta[i] - theta[j]):.4f} >= pi/2"
                        )

        if self.laplacian is not None:
            lap = np.asarray(self.laplacian, dtype=float)
            if lap.shape != (n, n):
                raise ValidationError(f"laplacian must be {n}x{n}, got {lap.shape}")
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
    start = 0
    while start < len(lams):
        stop = start + 1
        while stop < len(lams) and lams[stop] - lams[start] <= _TIE_RTOL * scale:
            stop += 1
        if stop - start > 1:
            group = order[start:stop]
            group = group[np.argsort(dom[group], kind="stable")]
            order[start:stop] = group
        start = stop
    return lams[order], vecs[:, order]


def build_laplacian(model: NetworkModel, connectivity_rtol: float = CONNECTIVITY_RTOL) -> LaplacianSpectrum:
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
    if lams[-1] <= 0 or lams[1] <= connectivity_rtol * lams[-1]:
        raise ValidationError("coupling graph is disconnected (second eigenvalue is zero)")

    ones = np.full(n, 1.0 / math.sqrt(n))
    if abs(abs(ones @ vecs[:, 0]) - 1.0) > 1e-8:
        raise ValidationError("null eigenvector is not the constant vector")
    lams = lams.copy()
    vecs = vecs.copy()
    lams[0] = 0.0
    vecs[:, 0] = ones
    return LaplacianSpectrum(laplacian=lap, eigenvalues=lams, eigenvectors=vecs)


def kron_reduce(full_admittance: np.ndarray, generator_buses) -> np.ndarray:
    """Schur-complement elimination of every bus not in ``generator_buses``.

    Returns the reduced (complex) admittance matrix over the generator
    buses, in their given order.  Raises ValidationError when the interior
    block is singular.
    """
    y = np.asarray(full_admittance)
    n = y.shape[0]
    if y.shape != (n, n):
        raise ValidationError("admittance matrix must be square")
    if not np.allclose(y, y.T, atol=1e-10):
        raise ValidationError("admittance matrix must be symmetric")
    keep = list(generator_buses)
    if len(set(keep)) != len(keep) or any(b < 0 or b >= n for b in keep):
        raise ValidationError("generator bus indices must be distinct and in range")
    drop = [b for b in range(n) if b not in set(keep)]
    if not drop:
        return y.copy()
    ygg = y[np.ix_(keep, keep)]
    ygi = y[np.ix_(keep, drop)]
    yii = y[np.ix_(drop, drop)]
    try:
        interior = np.linalg.solve(yii, ygi.T)
    except np.linalg.LinAlgError as exc:
        raise ValidationError("interior bus block is singular") from exc
    if not np.all(np.isfinite(interior)):
        raise ValidationError("interior bus block is singular")
    reduced = ygg - ygi @ interior
    return 0.5 * (reduced + reduced.T)


def reduced_coupling(reduced_admittance: np.ndarray) -> np.ndarray:
    """Coupling susceptance matrix (zero diagonal, nonnegative) from a
    Kron-reduced, purely reactive admittance matrix."""
    y = np.asarray(reduced_admittance)
    if np.iscomplexobj(y) and np.abs(y.real).max(initial=0.0) > 1e-9 * max(1.0, np.abs(y).max()):
        raise ValidationError("admittance is not purely reactive; transfer conductance unsupported")
    b = y.imag if np.iscomplexobj(y) else np.asarray(y, dtype=float)
    coupling = b.copy()
    np.fill_diagonal(coupling, 0.0)
    if np.any(coupling < -1e-12):
        raise ValidationError("reduced network has a negative coupling susceptance")
    return np.clip(coupling, 0.0, None)


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
class SimultaneousBasis:
    """Result of the pairwise commutation check for (L, M, K)."""

    commute: bool
    eigenvectors: np.ndarray | None = None
    lambdas: np.ndarray | None = None
    mu: np.ndarray | None = None
    kappa: np.ndarray | None = None


def _split_ties(values: np.ndarray, groups, scale: float):
    """Split each index slice in ``groups`` at gaps larger than the tie tolerance."""
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


def check_commuting(L: np.ndarray, M: np.ndarray, K: np.ndarray, tol: float = 1e-8) -> SimultaneousBasis:
    """Check pairwise commutation of three symmetric matrices.

    When all commutators have Frobenius norm below ``tol`` (scaled by the
    matrix magnitudes), returns the shared orthogonal eigenbasis aligned to
    the ascending eigenvalues of L together with the per-mode gain values.
    Degenerate eigenspaces of L are refined against M and then K so the
    basis diagonalises all three matrices.
    """
    mats = [np.asarray(A, dtype=float) for A in (L, M, K)]
    n = mats[0].shape[0]
    for A in mats:
        if A.shape != (n, n):
            raise ValidationError("L, M, K must share one square shape")
        if not np.allclose(A, A.T, atol=1e-10 * max(1.0, np.abs(A).max())):
            raise ValidationError("L, M, K must be symmetric")
    L, M, K = mats
    scale = max(1.0, *(float(np.linalg.norm(A)) for A in mats))
    for A, B in ((L, M), (L, K), (M, K)):
        if np.linalg.norm(A @ B - B @ A) > tol * scale:
            return SimultaneousBasis(commute=False)

    lams, vecs = _deterministic_eigh(L)
    lam_scale = max(1.0, abs(lams[-1]), abs(lams[0]))
    groups = _split_ties(lams, [(0, n)], lam_scale)
    for matrix in (M, K):
        mat_scale = max(1.0, float(np.abs(matrix).max()))
        values = np.empty(n)
        for a, b in groups:
            block = vecs[:, a:b]
            sub = block.T @ matrix @ block
            sub = 0.5 * (sub + sub.T)
            if b - a == 1:
                values[a] = sub[0, 0]
            else:
                sub_vals, sub_vecs = _deterministic_eigh(sub)
                vecs[:, a:b] = block @ sub_vecs
                values[a:b] = sub_vals
        groups = _split_ties(values, groups, mat_scale)

    diag = {}
    for name, A in (("lams", L), ("mu", M), ("kappa", K)):
        diag[name] = np.einsum("ji,jk,ki->i", vecs, A, vecs)
        resid = vecs.T @ A @ vecs - np.diag(diag[name])
        if np.linalg.norm(resid) > max(tol, 1e-9) * scale * 10:
            return SimultaneousBasis(commute=False)
    return SimultaneousBasis(
        commute=True, eigenvectors=vecs, lambdas=diag["lams"], mu=diag["mu"], kappa=diag["kappa"]
    )


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

    ``eigenvectors``/``lambdas`` are the shared basis that diagonalises the
    Laplacian and both gain matrices; for non-dense gain specs they are the
    spectrum's own decomposition.
    """

    lambdas: np.ndarray
    mu: np.ndarray
    kappa: np.ndarray
    eigenvectors: np.ndarray
    M: np.ndarray
    K: np.ndarray


def resolve_gains(gains: GainSpec | ModeGains, spectrum: LaplacianSpectrum, tol: float = 1e-8) -> ModeGains:
    """Turn a GainSpec into per-mode gain arrays plus dense matrices.

    Dense gains that fail the commutation test are rejected outright; every
    downstream formula requires a shared eigenbasis.  Gains already resolved
    against ``spectrum`` are returned unchanged.
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
        mu = float(gains.mu) * lams
        kappa = float(gains.kappa) * lams
    elif gains.mode == "dense":
        basis = check_commuting(spectrum.laplacian, gains.M, gains.K, tol=tol)
        if not basis.commute:
            raise ValidationError("dense gain matrices do not commute with the Laplacian")
        vecs = basis.eigenvectors.copy()
        lams2 = basis.lambdas.copy()
        lams2[0] = 0.0
        vecs[:, 0] = np.full(n, 1.0 / math.sqrt(n)) * math.copysign(1.0, vecs[:, 0].sum())
        return ModeGains(
            lambdas=lams2,
            mu=basis.mu,
            kappa=basis.kappa,
            eigenvectors=vecs,
            M=np.asarray(gains.M, float),
            K=np.asarray(gains.K, float),
        )
    else:
        raise ValidationError(f"unknown gain mode {gains.mode!r}")

    M = (q * mu) @ q.T
    K = (q * kappa) @ q.T
    return ModeGains(
        lambdas=lams, mu=mu, kappa=kappa, eigenvectors=q, M=0.5 * (M + M.T), K=0.5 * (K + K.T)
    )


def load_network(source) -> NetworkModel:
    """Read a NetworkModel from a JSON file path, file object, or dict.

    Expected document shape::

        {"generators": [{"J": .., "beta": .., "E": ..}, ...],
         "susceptance": [[..]],            # optional if laplacian given
         "equilibrium_theta": [..],
         "laplacian": [[..]]}              # optional override
    """
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    try:
        gens = tuple(
            GeneratorParams(inertia=float(g["J"]), damping=float(g["beta"]), voltage=float(g["E"]))
            for g in doc["generators"]
        )
        theta = doc["equilibrium_theta"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed network document: missing field {exc}") from exc
    return NetworkModel(
        generators=gens,
        equilibrium_theta=theta,
        susceptance=doc.get("susceptance"),
        laplacian=doc.get("laplacian"),
    )
