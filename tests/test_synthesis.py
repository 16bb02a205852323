import math

import numpy as np
import pytest

from wacrisk import synthesis
from wacrisk.errors import InfeasibleError, ValidationError
from wacrisk.network import GainSpec, effective_resistance
from wacrisk.risk import SystemicSet, risk_profile
from wacrisk.spectral import evaluate
from wacrisk.stability import ScaledParams, classify, scaled_coordinates
from wacrisk.stats import NoiseParams, mode_weight, pair_deviations
from wacrisk.synthesis import (
    deviation_floor,
    resistance_bounds,
    risk_floor,
    synthesize,
    tradeoff_scan,
)

from conftest import IEEE39_PARAMS, uniform_gain_sigma

D2, LAM2, J2 = 0.075, 1.584, 2.0
SET_A = SystemicSet(zeta=math.pi / 3.0, c=1.5, eps=0.1)


def test_zero_noise_returns_box_corner(two_machine_spectrum):
    result = synthesize(
        two_machine_spectrum, D2, 0.1, NoiseParams(0.0, 0.0), J2, gain_box=(0.0, 0.4, 0.0, 1.0), grid_step=0.2
    )
    assert result.mu[1] == 0.0 and result.kappa[1] == 0.0
    assert np.allclose(result.weights, 0.0)


def test_synthesize_two_machine_matches_direct_search(two_machine_spectrum):
    noise = NoiseParams(0.7, 0.3)
    result = synthesize(
        two_machine_spectrum, D2, 0.1, noise, J2, gain_box=(0.0, 3.0, 0.0, 3.0), grid_step=0.25
    )
    assert result.mu[0] == 0.0 and result.kappa[0] == 0.0
    # optimality certificate: central-difference gradient of the mode weight
    mu_s, kap_s, w_s = result.mu[1], result.kappa[1], result.weights[1]

    def weight(mu, kappa):
        sp = ScaledParams(*scaled_coordinates(D2, LAM2, mu, kappa, 0.1))
        return 0.1**3 * noise.mode_intensity_sq(mu, kappa, J2) * evaluate(sp, rel_tol=1e-8).value

    step = 5e-3
    gx = (weight(mu_s + step, kap_s) - weight(mu_s - step, kap_s)) / (2 * step)
    gy = (weight(mu_s, kap_s + step) - weight(mu_s, kap_s - step)) / (2 * step)
    assert math.hypot(gx, gy) <= 1e-2 * w_s / step
    # the assembled matrices reproduce the per-mode gains and commute
    lap = two_machine_spectrum.laplacian
    assert np.linalg.norm(lap @ result.M - result.M @ lap) < 1e-10
    assert np.linalg.norm(lap @ result.K - result.K @ lap) < 1e-10
    q = two_machine_spectrum.eigenvectors
    assert np.allclose(np.diag(q.T @ result.M @ q), result.mu, atol=1e-12)


def test_synthesize_weights_are_mode_weights(two_machine_spectrum):
    noise = NoiseParams(0.7, 0.3)
    result = synthesize(
        two_machine_spectrum, D2, 0.1, noise, J2, gain_box=(0.0, 3.0, 0.0, 3.0), grid_step=0.25
    )
    for l in range(1, two_machine_spectrum.n):
        lam = float(two_machine_spectrum.eigenvalues[l])
        assert result.weights[l] == mode_weight(lam, result.mu[l], result.kappa[l], D2, 0.1, noise, J2)


def test_synthesize_probes_each_gain_once(ieee39_spectrum, monkeypatch):
    # every objective call of the nine IEEE-39 searches, recorded per mode
    requested = {}

    def recording(lam, mu, kappa, *args):
        requested.setdefault(lam, []).append((mu.copy(), kappa.copy()))
        return mode_weight(lam, mu, kappa, *args)

    monkeypatch.setattr(synthesis, "mode_weight", recording)
    p = IEEE39_PARAMS
    box = (0.0, 1.0, 0.0, 4.0)
    synthesize(ieee39_spectrum, p["d"], p["tau"], NoiseParams(p["eta"], p["eta_meas"]), p["inertia"], box, 0.25)
    assert len(requested) == 9
    # one call per polish step needed 159 calls on 1,816 tuples here; the memo needs 116
    # on 1,202, and the half-step ring 70 on 1,289
    assert sum(len(calls) for calls in requested.values()) <= 70
    assert sum(mu.size for calls in requested.values() for mu, _ in calls) <= 1289
    for calls in requested.values():
        mu, kappa = (np.concatenate(v) for v in zip(*calls))
        points = set(zip(mu.view(np.int64).tolist(), kappa.view(np.int64).tolist()))
        assert len(points) == mu.size
        assert np.all((box[0] <= mu) & (mu <= box[1]) & (box[2] <= kappa) & (kappa <= box[3]))


def test_deviation_floor_call_count(two_machine_spectrum, monkeypatch):
    calls = []

    def recording(lam, mu, kappa, *args):
        calls.append(mu.size)
        return mode_weight(lam, mu, kappa, *args)

    monkeypatch.setattr(synthesis, "mode_weight", recording)
    deviation_floor(two_machine_spectrum, D2, 0.1, 0.7, J2)
    # 37 calls on 1,569 tuples with one call per polish step, 31 on 1,423 with the memo
    assert len(calls) <= 22
    assert sum(calls) <= 1468


def test_synthesize_no_stable_gain(two_machine_spectrum):
    # a box of destabilising phase gains only
    with pytest.raises(InfeasibleError):
        synthesize(
            two_machine_spectrum,
            D2,
            0.1,
            NoiseParams(0.7, 0.0),
            J2,
            gain_box=(2.0, 5.0, 0.0, 0.0),
            grid_step=0.5,
        )


def test_deviation_floor_vanishes_with_delay(two_machine_spectrum):
    # over the full stability region the floor scales away like tau^{3/2}
    tiny = deviation_floor(two_machine_spectrum, D2, 1e-3, 0.7, J2)
    assert tiny < 5e-3


def test_deviation_floor_bounds_gain_grid(two_machine_spectrum):
    tau, eta = 0.1, 0.7
    floor = deviation_floor(two_machine_spectrum, D2, tau, eta, J2)
    # exhaustive grid oracle, weighed in one call: no gain choice beats the floor
    sigma = uniform_gain_sigma(
        two_machine_spectrum, np.linspace(-1.2, 40.0, 15), np.linspace(0.0, 40.0, 15), D2, tau, NoiseParams(eta), J2
    )
    worst = sigma.min()
    assert floor <= worst + 1e-6


def test_deviation_floor_monotone_in_delay(two_machine_spectrum):
    floors = [deviation_floor(two_machine_spectrum, D2, tau, 0.7, J2) for tau in (0.05, 0.1, 0.2)]
    assert floors[0] <= floors[1] <= floors[2]


def test_risk_floor_trichotomy():
    report = risk_floor(0.3, SET_A)
    assert report.regime == "reducible" and report.risk_floor == 0.0
    mid = 0.5 * (SET_A.zero_risk_threshold + SET_A.infinite_risk_threshold)
    report = risk_floor(mid, SET_A)
    assert report.regime == "floored" and 0.0 < report.risk_floor < math.inf
    report = risk_floor(0.7, SET_A)
    assert report.regime == "infinite" and math.isinf(report.risk_floor)


def test_risk_floor_regime_agrees_with_its_value_above_zero_risk_threshold():
    # just above zeta / (c nu) the closed form rounds to 0, and the regime must then read reducible
    sigma = SET_A.zero_risk_threshold
    for _ in range(20):
        sigma = float(np.nextafter(sigma, math.inf))
        report = risk_floor(sigma, SET_A)
        assert report.risk_floor >= 0.0
        assert (report.regime == "reducible") == (report.risk_floor == 0.0), sigma
        assert report.regime != "infinite"


def test_resistance_bounds_two_machine(two_machine_spectrum):
    bounds = resistance_bounds(two_machine_spectrum, D2, 0.1, rays=90)
    # single nonzero mode: the bound collapses to 1 / (gain_max * lambda_2)
    assert bounds.bound_kappa == pytest.approx(1.0 / (bounds.kappa_max * LAM2), rel=1e-12)
    assert bounds.bound_mu == pytest.approx(1.0 / (bounds.mu_max * LAM2), rel=1e-12)
    # any stable consensus gain keeps its effective resistance above the bound
    for kappa in (0.05, 0.3, 1.0, 3.0):
        if classify(ScaledParams(*scaled_coordinates(D2, LAM2, 0.0, LAM2 * kappa, 0.1))).stable:
            assert effective_resistance(kappa * np.array([LAM2])) > bounds.bound_kappa
    # two rays at least, counted by an integer
    assert resistance_bounds(two_machine_spectrum, D2, 0.1, rays=np.int64(2)).kappa_max > 0.0
    for rays in (0, 1, -3, 2.0, 90.5, True, math.nan):
        with pytest.raises(ValidationError, match="rays must be an integer >= 2"):
            resistance_bounds(two_machine_spectrum, D2, 0.1, rays=rays)


def test_resistance_bounds_tighten_with_delay(two_machine_spectrum):
    near = resistance_bounds(two_machine_spectrum, D2, 0.1, rays=60)
    far = resistance_bounds(two_machine_spectrum, D2, 0.2, rays=60)
    assert far.bound_kappa > near.bound_kappa
    assert far.bound_mu > near.bound_mu


def test_tradeoff_scan_rejects_zero_noise(two_machine_spectrum):
    with pytest.raises(ValidationError):
        tradeoff_scan(
            two_machine_spectrum, D2, 0.1, NoiseParams(0.0, 0.0), J2, SET_A, (0.1, 1.0, 0.1, 1.0)
        )


def test_reversed_gain_box_rejected(two_machine_spectrum):
    noise = NoiseParams(0.7, 0.3)
    with pytest.raises(ValidationError):
        synthesize(two_machine_spectrum, D2, 0.1, noise, J2, gain_box=(0.0, -1.0, 0.0, 4.0))
    for box in ((0.02, 0.01, 0.02, 2.0), (0.02, math.inf, 0.02, 2.0)):
        with pytest.raises(ValidationError, match="lo <= hi"):
            tradeoff_scan(two_machine_spectrum, D2, 0.1, noise, J2, SET_A, box)


@pytest.mark.parametrize("grid", [(-5, 5), (0, 5), (5, 0), (3163, 3163), (10**9, 10**9)])
def test_tradeoff_scan_rejects_empty_grid(two_machine_spectrum, grid):
    with pytest.raises(ValidationError, match="grid counts"):
        tradeoff_scan(
            two_machine_spectrum, D2, 0.1, NoiseParams(0.7, 0.3), J2, SET_A, (0.1, 1.0, 0.1, 1.0), grid=grid
        )


def test_tradeoff_scan_reducible_set_reaches_zero(two_machine_spectrum):
    # the zero-risk gain window makes the product infimum collapse to zero
    scan = tradeoff_scan(
        two_machine_spectrum,
        D2,
        0.1,
        NoiseParams(0.7, 0.3),
        J2,
        SET_A,
        gain_box=(0.05, 1.5, 0.05, 1.5),
        grid=(12, 12),
    )
    assert scan.omega_hat == 0.0
    assert np.all(scan.rows[:, 5] >= scan.omega_hat)


def test_tradeoff_scan_floored_set_positive(two_machine_spectrum):
    # a hard limit below the best achievable deviation leaves no zero-risk
    # gain, so the product stays bounded away from zero
    strict = SystemicSet(zeta=0.6, c=1.5, eps=0.1)
    scans = []
    for tau in (0.05, 0.1):
        scan = tradeoff_scan(
            two_machine_spectrum,
            D2,
            tau,
            NoiseParams(0.7, 0.3),
            J2,
            strict,
            gain_box=(0.05, 1.5, 0.05, 1.5),
            grid=(12, 12),
        )
        assert scan.omega_hat > 0.0
        finite = scan.rows[np.isfinite(scan.rows[:, 5])]
        assert len(finite) > 0
        scans.append(scan.omega_hat)
    assert scans[1] >= scans[0] * 0.98  # delay does not improve the trade-off


def _per_ray_bounds(spectrum, d, tau, rays):
    """resistance_bounds as one doubling-then-bisection loop per ray."""
    lam_max = spectrum.lambda_max
    stable = lambda mu, kappa: classify(
        ScaledParams(*scaled_coordinates(d, lam_max, lam_max * mu, lam_max * kappa, tau))
    ).stable
    mu_max = kappa_max = 0.0
    for angle in np.linspace(0.0, math.pi / 2.0, rays):
        direction = (math.cos(angle), math.sin(angle))
        lo, hi = 0.0, 1.0
        while stable(hi * direction[0], hi * direction[1]):
            lo, hi = hi, hi * 2.0
        while hi - lo > 1e-6 * hi:
            mid = 0.5 * (lo + hi)
            if stable(mid * direction[0], mid * direction[1]):
                lo = mid
            else:
                hi = mid
        boundary = 0.5 * (lo + hi)
        mu_max = max(mu_max, boundary * direction[0])
        kappa_max = max(kappa_max, boundary * direction[1])
    return mu_max, kappa_max


@pytest.mark.parametrize("tau", [0.1, 0.35])
def test_resistance_bounds_lockstep_equals_per_ray_bisection(two_machine_spectrum, line3_spectrum, tau):
    for spectrum in (two_machine_spectrum, line3_spectrum):
        bounds = resistance_bounds(spectrum, D2, tau, rays=37)
        assert (bounds.mu_max, bounds.kappa_max) == _per_ray_bounds(spectrum, D2, tau, 37)


def test_tradeoff_scan_equals_per_point_pair_deviations(two_machine_spectrum, line3_spectrum, ieee39_spectrum):
    # one weight, sigma and risk call over the grid gives the rows of a pair_deviations call per gain pair;
    # the IEEE-39 box holds zero, finite and infinite minimum risks at its own delay
    noise, sset = NoiseParams(0.7, 0.3), SystemicSet(zeta=0.6, c=1.5, eps=0.1)
    grid = (9, 11)
    cases = [
        (two_machine_spectrum, 0.1, (0.05, 3.0, 0.05, 6.0)),
        (line3_spectrum, 0.1, (0.05, 3.0, 0.05, 6.0)),
        (ieee39_spectrum, 0.03, (0.002, 0.2, 0.01, 1.0)),
    ]
    for spectrum, tau, box in cases:
        xi_l = effective_resistance(spectrum)
        rows = []
        for mu in np.linspace(box[0], box[1], grid[0]):
            for kappa in np.linspace(box[2], box[3], grid[1]):
                try:
                    stats = pair_deviations(spectrum, GainSpec.consensus(mu, kappa), D2, tau, noise, J2)
                except InfeasibleError:
                    continue
                min_risk = float(np.min(risk_profile(stats, sset).values))
                rows.append((mu, kappa, min_risk, xi_l / kappa, xi_l / mu, min_risk * math.sqrt(xi_l / kappa + xi_l / mu)))
        scan = tradeoff_scan(spectrum, D2, tau, noise, J2, sset, gain_box=box, grid=grid)
        assert 0 < len(rows) < grid[0] * grid[1]
        assert np.array_equal(scan.rows, np.array(rows))
        assert scan.omega_hat == min(row[5] for row in rows)
