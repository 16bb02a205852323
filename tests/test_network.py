import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wacrisk.errors import ValidationError
from wacrisk.network import (
    GainSpec,
    GeneratorParams,
    LaplacianSpectrum,
    NetworkModel,
    build_laplacian,
    effective_resistance,
    load_network,
    resolve_gains,
)
from wacrisk.stability import network_verdict
from wacrisk.stats import NoiseParams, pair_deviations
from wacrisk.synthesis import synthesize

from conftest import IEEE39_MODES, IEEE39_PARAMS


def test_generator_params_positive():
    with pytest.raises(ValidationError):
        GeneratorParams(inertia=0.0, damping=0.1, voltage=1.0)
    with pytest.raises(ValidationError):
        GeneratorParams(inertia=2.0, damping=-0.1, voltage=1.0)


def test_two_machine_spectrum(two_machine_spectrum, two_machine_model):
    assert np.allclose(two_machine_spectrum.eigenvalues, [0.0, 1.584])
    assert two_machine_model.damping_ratio == pytest.approx(0.075)
    q = two_machine_spectrum.eigenvectors
    assert np.allclose(q[:, 0], 1.0 / math.sqrt(2.0))


def test_unit_coupling_two_machine():
    gens = tuple(GeneratorParams(1.0, 0.1, 1.0) for _ in range(2))
    model = NetworkModel(
        generators=gens, equilibrium_theta=[0.0, 0.0], susceptance=[[0.0, 1.0], [1.0, 0.0]]
    )
    spec = build_laplacian(model)
    assert np.allclose(spec.laplacian, [[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(spec.eigenvalues, [0.0, 2.0])
    root = 1.0 / math.sqrt(2.0)
    assert np.allclose(np.abs(spec.eigenvectors), [[root, root], [root, root]])


def test_complete_graph_spectrum():
    # brute-force eigensolve of the explicit 3x3 coupling matrix is the oracle
    gens = tuple(GeneratorParams(1.0, 0.1, 1.0) for _ in range(3))
    y = np.ones((3, 3)) - np.eye(3)
    model = NetworkModel(generators=gens, equilibrium_theta=np.zeros(3), susceptance=y)
    spec = build_laplacian(model)
    explicit = np.diag(y.sum(axis=1)) - y
    oracle = np.sort(np.linalg.eigvalsh(explicit))
    assert np.allclose(spec.eigenvalues, oracle, atol=1e-12)
    assert np.allclose(spec.eigenvalues, [0.0, 3.0, 3.0])


def test_reconstruction_and_row_sums(two_machine_spectrum, line3_spectrum, ieee39_spectrum):
    for spec in (two_machine_spectrum, line3_spectrum, ieee39_spectrum):
        q, lams, lap = spec.eigenvectors, spec.eigenvalues, spec.laplacian
        assert np.linalg.norm(q @ q.T - np.eye(spec.n)) < 1e-12
        assert np.linalg.norm((q * lams) @ q.T - lap) <= 1e-10 * np.linalg.norm(lap)
        assert np.abs(lap.sum(axis=1)).max() < 1e-12 * max(1.0, np.abs(lap).max())


def test_disconnected_rejected():
    gens = tuple(GeneratorParams(1.0, 0.1, 1.0) for _ in range(4))
    y = np.zeros((4, 4))
    y[0, 1] = y[1, 0] = 1.0
    y[2, 3] = y[3, 2] = 1.0
    model = NetworkModel(generators=gens, equilibrium_theta=np.zeros(4), susceptance=y)
    with pytest.raises(ValidationError, match="disconnected"):
        build_laplacian(model)


def test_equilibrium_cone_enforced():
    gens = tuple(GeneratorParams(1.0, 0.1, 1.0) for _ in range(2))
    with pytest.raises(ValidationError, match="pi/2"):
        NetworkModel(
            generators=gens,
            equilibrium_theta=[0.0, 1.6],
            susceptance=[[0.0, 1.0], [1.0, 0.0]],
        )


@pytest.mark.parametrize(
    "field, fields",
    [
        ("equilibrium_theta", {"equilibrium_theta": [0.0, math.nan], "susceptance": [[0.0, 1.0], [1.0, 0.0]]}),
        ("susceptance", {"equilibrium_theta": [0.0, 0.0], "susceptance": [[0.0, math.inf], [math.inf, 0.0]]}),
        ("susceptance", {"equilibrium_theta": [0.0, 0.0], "susceptance": [[0.0, math.nan], [math.nan, 0.0]]}),
        ("laplacian", {"equilibrium_theta": [0.0, 0.0], "laplacian": [[math.inf, -1.0], [-1.0, 1.0]]}),
        ("laplacian", {"equilibrium_theta": [0.0, 0.0], "laplacian": [[1.0, math.nan], [-1.0, 1.0]]}),
    ],
)
def test_non_finite_network_fields_rejected(field, fields):
    gens = tuple(GeneratorParams(1.0, 0.1, 1.0) for _ in range(2))
    with pytest.raises(ValidationError, match=f"{field} entries must be finite"):
        NetworkModel(generators=gens, **fields)


def test_uniform_parameters_enforced():
    gens = (GeneratorParams(1.0, 0.1, 1.0), GeneratorParams(2.0, 0.1, 1.0))
    with pytest.raises(ValidationError, match="identical"):
        NetworkModel(
            generators=gens, equilibrium_theta=[0.0, 0.0], susceptance=[[0.0, 1.0], [1.0, 0.0]]
        )


# --- effective resistance ----------------------------------------------------


def test_effective_resistance_single_mode():
    assert effective_resistance([2.0]) == pytest.approx(0.5)


def test_effective_resistance_complete_graph_pinv_oracle():
    n = 6
    lap = n * np.eye(n) - np.ones((n, n))
    oracle = np.trace(np.linalg.pinv(lap))
    spec = LaplacianSpectrum.from_eigenvalues([float(n)] * (n - 1))
    assert effective_resistance(spec) == pytest.approx(oracle, rel=1e-12)
    assert effective_resistance(spec) == pytest.approx((n - 1) / n)


@settings(max_examples=50, deadline=None)
@given(
    mu=st.floats(0.01, 50.0, allow_nan=False),
    kappa=st.floats(0.01, 50.0, allow_nan=False),
)
def test_effective_resistance_consensus_ratio(mu, kappa):
    lams = np.array([1.3, 2.0, 5.5])
    xi_m = effective_resistance(mu * lams)
    xi_k = effective_resistance(kappa * lams)
    assert xi_k * kappa == pytest.approx(xi_m * mu, rel=1e-12)


def test_effective_resistance_rejects_nonpositive():
    with pytest.raises(ValidationError):
        effective_resistance([1.0, -0.5])
    # non-finite values are refused where they enter, not later as non-finite scaled tuples
    for values in ([math.nan, 2.0], [math.inf], [1.0, -math.inf]):
        with pytest.raises(ValidationError, match="eigenvalues must be finite"):
            effective_resistance(values)
        with pytest.raises(ValidationError, match="eigenvalues must be finite"):
            LaplacianSpectrum.from_eigenvalues(values)


# --- commutation -------------------------------------------------------------


def test_commuting_polynomials_in_laplacian(line3_spectrum):
    lap = line3_spectrum.laplacian
    basis = resolve_gains(GainSpec.dense(2.0 * lap, 0.5 * lap), line3_spectrum)  # raises unless they commute
    assert np.allclose(basis.mu, 2.0 * basis.lambdas, atol=1e-10)
    assert np.allclose(basis.kappa, 0.5 * basis.lambdas, atol=1e-10)


def test_commuting_identity(line3_spectrum):
    lap = line3_spectrum.laplacian
    basis = resolve_gains(GainSpec.dense(np.eye(3), lap), line3_spectrum)  # raises unless they commute
    assert np.allclose(basis.mu, 1.0)


def test_non_commuting_detected(line3_spectrum):
    # path-graph coupling against an arbitrary symmetric matrix
    lap = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(line3_spectrum.laplacian, lap)
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 3))
    m = 0.5 * (m + m.T)
    comm = lap @ m - m @ lap
    assert np.linalg.norm(comm) > 0.1  # oracle: the commutator is plainly nonzero
    with pytest.raises(ValidationError, match="commute"):
        resolve_gains(GainSpec.dense(m, lap), line3_spectrum)


def test_commuting_refines_degenerate_eigenspace():
    # complete-graph coupling has a tied eigenvalue pair; a gain matrix that
    # splits the tie must still be diagonalised by the shared basis
    lap = 3.0 * np.eye(3) - np.ones((3, 3))
    gens = tuple(GeneratorParams(1.0, 0.1, 1.0) for _ in range(3))
    spectrum = build_laplacian(NetworkModel(generators=gens, equilibrium_theta=np.zeros(3), laplacian=lap))
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    # build a matrix commuting with lap: any matrix sharing the eigenvector
    # ones/sqrt(3) and acting arbitrarily on its complement
    ones = np.full(3, 1.0 / math.sqrt(3.0))
    p = np.eye(3) - np.outer(ones, ones)
    m = 2.0 * np.outer(p @ q[:, 0], p @ q[:, 0]) + 5.0 * np.outer(ones, ones)
    basis = resolve_gains(GainSpec.dense(m, 0.1 * lap), spectrum)  # raises unless they commute
    for a, diag in ((lap, basis.lambdas), (m, basis.mu)):
        resid = basis.eigenvectors.T @ a @ basis.eigenvectors - np.diag(diag)
        assert np.linalg.norm(resid) < 1e-8


# --- gain resolution ---------------------------------------------------------


def test_resolve_uniform_gains(two_machine_spectrum):
    resolved = resolve_gains(GainSpec.uniform(0.3, 1.2), two_machine_spectrum)
    assert resolved.mu[0] == 0.0 and resolved.kappa[0] == 0.0
    assert resolved.mu[1] == pytest.approx(0.3)
    assert resolved.kappa[1] == pytest.approx(1.2)
    # assembled matrices commute with the coupling matrix
    lap = two_machine_spectrum.laplacian
    assert np.linalg.norm(lap @ resolved.K - resolved.K @ lap) < 1e-12


def test_resolve_consensus_gains(line3_spectrum):
    resolved = resolve_gains(GainSpec.consensus(0.2, 0.5), line3_spectrum)
    assert np.allclose(resolved.mu, 0.2 * line3_spectrum.eigenvalues)
    assert np.allclose(resolved.M, 0.2 * line3_spectrum.laplacian, atol=1e-12)


def test_resolve_dense_noncommuting_rejected(line3_spectrum):
    rng = np.random.default_rng(2)
    m = rng.normal(size=(3, 3))
    m = 0.5 * (m + m.T)
    with pytest.raises(ValidationError, match="commute"):
        resolve_gains(GainSpec.dense(m, np.eye(3)), line3_spectrum)


def test_resolve_dense_commuting(line3_spectrum):
    q = line3_spectrum.eigenvectors
    m = (q * np.array([0.0, 1.0, 2.0])) @ q.T
    k = (q * np.array([0.0, 0.4, 0.9])) @ q.T
    resolved = resolve_gains(GainSpec.dense(m, k), line3_spectrum)
    assert np.allclose(np.sort(resolved.mu), [0.0, 1.0, 2.0], atol=1e-9)
    assert np.allclose(np.sort(resolved.kappa), [0.0, 0.4, 0.9], atol=1e-9)


def _complete4_spectrum():
    gens = tuple(GeneratorParams(1.0, 0.1, 1.0) for _ in range(4))
    lap = 4.0 * np.eye(4) - np.ones((4, 4))
    return build_laplacian(NetworkModel(generators=gens, equilibrium_theta=np.zeros(4), laplacian=lap))


@pytest.mark.parametrize("network", ["line3", "complete4", "ieee39"])
def test_dense_gains_round_trip_through_spectrum_basis(network, line3_spectrum):
    # dense Q diag(0, g) Q^T keeps round-off consensus gains (M 1 ~ 1e-16);
    # they resolve to exact zeros and reproduce the eigen-gain statistics
    spectrum = {
        "line3": line3_spectrum,
        "complete4": _complete4_spectrum(),  # triple tied eigenvalue
        "ieee39": LaplacianSpectrum.from_eigenvalues(IEEE39_MODES),
    }[network]
    n = spectrum.n
    mu = np.concatenate([[0.0], np.linspace(0.2, 0.6, n - 1)])
    kappa = np.concatenate([[0.0], np.linspace(0.5, 1.5, n - 1)])
    q = spectrum.eigenvectors
    dense = GainSpec.dense((q * mu) @ q.T, (q * kappa) @ q.T)
    resolved = resolve_gains(dense, spectrum)
    assert resolved.mu[0] == 0.0 and resolved.kappa[0] == 0.0
    d, tau = IEEE39_PARAMS["d"], IEEE39_PARAMS["tau"]
    noise = NoiseParams(IEEE39_PARAMS["eta"], IEEE39_PARAMS["eta_meas"])
    assert network_verdict(spectrum, dense, d, tau).stable
    expected = pair_deviations(spectrum, GainSpec.eigen(mu, kappa), d, tau, noise, 2.0).sigma
    sigma = pair_deviations(spectrum, dense, d, tau, noise, 2.0).sigma
    assert sigma == pytest.approx(expected, rel=1e-12)


def _line3_polynomial_gains(spectrum, skew=0.0):
    # M = 0.2 L + 0.05 L^2 and K = 0.5 L commute with L; M gets the round-off E[0, 1] = -E[1, 0] = skew
    lap = spectrum.laplacian
    m = 0.2 * lap + 0.05 * lap @ lap
    m[0, 1] += skew
    m[1, 0] -= skew
    return GainSpec.dense(m, 0.5 * lap)


@pytest.mark.parametrize("skew", [1e-7, 1e-6, 3e-6])
def test_dense_round_off_asymmetry_resolves_as_its_symmetric_part(skew, line3_spectrum):
    # the symmetric part still commutes exactly: the skewed gains resolve as the symmetric ones do
    # and are stored exactly symmetric, as the susceptance and the Laplacian are
    resolved = resolve_gains(_line3_polynomial_gains(line3_spectrum, skew), line3_spectrum)
    assert np.array_equal(resolved.M, resolved.M.T) and np.array_equal(resolved.K, resolved.K.T)
    expected = resolve_gains(_line3_polynomial_gains(line3_spectrum), line3_spectrum)
    np.testing.assert_allclose([resolved.mu, resolved.kappa], [expected.mu, expected.kappa], rtol=1e-14, atol=0.0)
    sigma, expected_sigma = (
        pair_deviations(line3_spectrum, gains, 0.075, 0.05, NoiseParams(0.7, 0.3), 2.0).sigma
        for gains in (resolved, expected)
    )
    np.testing.assert_allclose(sigma, expected_sigma, rtol=1e-14, atol=0.0)


def test_dense_asymmetry_beyond_round_off_refused(line3_spectrum):
    with pytest.raises(ValidationError, match="dense gain matrices must be symmetric"):
        resolve_gains(_line3_polynomial_gains(line3_spectrum, 1e-5), line3_spectrum)


def test_dense_symmetric_gains_kept_byte_for_byte(line3_spectrum):
    result = synthesize(line3_spectrum, 0.075, 0.05, NoiseParams(0.7, 0.3), 2.0, grid_step=0.25)
    assert np.array_equal(result.M, result.M.T) and np.array_equal(result.K, result.K.T)
    resolved = resolve_gains(GainSpec.dense(result.M, result.K), line3_spectrum)
    assert resolved.M.tobytes() == result.M.tobytes() and resolved.K.tobytes() == result.K.tobytes()


def test_load_network_laplacian_wins(tmp_path, two_machine_spectrum):
    doc = {
        "generators": [{"J": 2.0, "beta": 0.15, "E": 1.0}, {"J": 2.0, "beta": 0.15, "E": 1.0}],
        "equilibrium_theta": [0.0, 0.0],
        "susceptance": [[0.0, 5.0], [5.0, 0.0]],
        "laplacian": [[0.792, -0.792], [-0.792, 0.792]],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    model = load_network(str(path))
    spec = build_laplacian(model)
    assert np.allclose(spec.eigenvalues, two_machine_spectrum.eigenvalues)


def test_load_network_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"generators": []}')
    with pytest.raises(ValidationError):
        load_network(str(path))


def _network_doc(n=2, **fields):
    return {"generators": [{"J": 1.0, "beta": 0.1, "E": 1.0}] * n, "equilibrium_theta": [0.0] * n, **fields}


_PAIR_LAPLACIAN = [[1.0, -1.0], [-1.0, 1.0]]


@pytest.mark.parametrize(
    "doc, message",
    [
        (_network_doc(1, susceptance=[[0.0]]), "need at least 2 generators, got 1"),
        ({**_network_doc(laplacian=_PAIR_LAPLACIAN), "equilibrium_theta": [0.0]}, "equilibrium_theta must have shape"),
        (_network_doc(), "one of susceptance or laplacian is required"),
        (_network_doc(susceptance=[[0.0, 1.0]]), "susceptance must be 2x2"),
        (_network_doc(susceptance=[[0.0, 1.0], [0.5, 0.0]]), "susceptance matrix must be symmetric"),
        (_network_doc(susceptance=[[1.0, 1.0], [1.0, 0.0]]), "susceptance diagonal must be zero"),
        (_network_doc(susceptance=[[0.0, -1e-9], [-1e-9, 0.0]]), "susceptance entries must be nonnegative"),
        (_network_doc(laplacian=[[1.0, -1.0]]), "laplacian must be 2x2"),
        (_network_doc(laplacian=[[1.0, -1.0], [-0.5, 1.0]]), "laplacian must be symmetric"),
        # refused when loaded, not first when the spectrum is built
        (_network_doc(laplacian=[[1.0, 1.0], [1.0, 1.0]]), "laplacian rows must sum to zero"),
        (_network_doc(laplacian=[[-1.0, 1.0], [1.0, -1.0]]), "laplacian off-diagonal entries must be nonpositive"),
        ({"equilibrium_theta": [0.0, 0.0], "laplacian": _PAIR_LAPLACIAN}, "malformed network document: missing field"),
        (
            {**_network_doc(laplacian=_PAIR_LAPLACIAN), "generators": [{"J": "heavy", "beta": 0.1, "E": 1.0}] * 2},
            "malformed network document: could not convert",
        ),
        ([_network_doc(laplacian=_PAIR_LAPLACIAN)], "must hold a JSON object, got list"),
        # an asymmetry beyond round-off is refused, not symmetrised
        (_network_doc(susceptance=[[0.0, 1.0], [1.0 + 1e-3, 0.0]]), "susceptance matrix must be symmetric"),
    ],
)
def test_load_network_refusals(tmp_path, doc, message):
    path = tmp_path / "network.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=message):
        load_network(str(path))


def test_susceptance_within_tolerance_of_zero_counts_as_zero(tmp_path):
    # -1e-13 passes the model's 1e-12 rule, so the spectrum builds as for an exact zero: the path 1-2-3
    spectra = []
    for y13 in (-1e-13, 0.0):
        path = tmp_path / f"line3_{y13}.json"
        path.write_text(json.dumps(_network_doc(3, susceptance=[[0.0, 1.0, y13], [1.0, 0.0, 1.0], [y13, 1.0, 0.0]])))
        spectra.append(build_laplacian(load_network(str(path))))
    for field in ("laplacian", "eigenvalues", "eigenvectors"):
        assert np.array_equal(getattr(spectra[0], field), getattr(spectra[1], field))
    assert np.allclose(spectra[0].eigenvalues, [0.0, 1.0, 3.0])


def test_susceptance_round_off_asymmetry_is_symmetrised_when_loaded(tmp_path):
    # a complete graph on three machines with y[1, 0] = 1 + 1e-6: loaded and symmetrised, it builds the
    # spectrum of the exactly symmetric document holding the mean of the two entries
    skewed = [[0.0, 1.0, 1.0], [1.0 + 1e-6, 0.0, 1.0], [1.0, 1.0, 0.0]]
    mean = 0.5 * (1.0 + (1.0 + 1e-6))
    exact = [[0.0, mean, 1.0], [mean, 0.0, 1.0], [1.0, 1.0, 0.0]]
    models = []
    for name, y in (("skewed", skewed), ("exact", exact)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_network_doc(3, susceptance=y)))
        models.append(load_network(str(path)))
    assert np.array_equal(models[0].susceptance, models[0].susceptance.T)
    assert np.array_equal(models[1].susceptance, np.array(exact))  # an exactly symmetric matrix is kept as given
    spectra = [build_laplacian(model) for model in models]
    for field in ("laplacian", "eigenvalues", "eigenvectors"):
        assert np.array_equal(getattr(spectra[0], field), getattr(spectra[1], field))


_LINE3_LAPLACIAN = [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]


@pytest.mark.parametrize(
    "gains, field",
    [
        (GainSpec.uniform(math.inf, 1.0), "mu"),
        (GainSpec.uniform(0.5, math.nan), "kappa"),
        (GainSpec.consensus(math.nan, 1.0), "mu"),
        (GainSpec.consensus(0.2, -math.inf), "kappa"),
        (GainSpec.consensus(0.2, 1e308), "kappa"),  # finite, but overflows on the modes
        (GainSpec.eigen([0.0, 0.5, math.nan], [0.0, 1.0, 1.0]), "mu"),
        (GainSpec.eigen([0.0, 0.5, 0.5], [0.0, math.inf, 1.0]), "kappa"),
        (GainSpec.dense(np.where(np.eye(3) > 0, math.nan, 0.0), _LINE3_LAPLACIAN), "M"),
        (GainSpec.dense(_LINE3_LAPLACIAN, np.where(np.eye(3) > 0, math.inf, 0.0)), "K"),
    ],
)
def test_resolve_gains_refuses_non_finite_gains(gains, field, line3_spectrum):
    # refused before any product with the eigenbasis: no RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"gain {field} must be finite"):
            resolve_gains(gains, line3_spectrum)
