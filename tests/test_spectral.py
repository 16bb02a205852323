import math
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg
from scipy.integrate import quad
from scipy.linalg import expm

import wacrisk
from wacrisk._gridopt import _MAX_POLISH, _axis, grid_minimize
from wacrisk.errors import InfeasibleError, ValidationError
from wacrisk.spectral import (
    _BLOCK,
    _GRAM_SLACK,
    _MIN_RCOND,
    _PADE13,
    _PARTS_AT_ZERO,
    _PARTS_SLOPES,
    _SLOPES_BY_PARAMETER,
    _THETA13,
    _TRANSPOSE,
    _accepted,
    _certified_rcond,
    _expm,
    _solve,
    evaluate,
    magnitude_sq,
    weights,
)
from wacrisk.stability import ScaledParams, classify, classify_many, scaled_coordinates
from wacrisk.stability import _crossings_many as _crossing_kernel
from wacrisk.stats import NoiseParams, mode_weight

from conftest import IEEE39_MODES, IEEE39_PARAMS


def _crossings_many(s1, s2, k1, k2):
    """The crossing kernel under the ``np.errstate`` that its callers in the
    package hold: entries that do not exist divide by zero or take roots of negatives."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _crossing_kernel(s1, s2, k1, k2)

# published per-mode optimal (mu, kappa) of the ten-machine study
IEEE39_OPTIMA = [(0.25, 2.75), (0.20, 2.75), (0.15, 2.75), (0.10, 2.75), (0.10, 2.70),
                 (0.05, 2.70), (0.05, 2.70), (0.05, 2.70), (0.05, 2.70)]


def _random_stable(rng, lo=0.05, hi=3.0):
    while True:
        sp = ScaledParams(*rng.uniform(lo, hi, 2), *rng.uniform(-3.0, 3.0, 2))
        if classify(sp).stable:
            return sp


def integrand(r, sp):
    """1 / |c(i r)|^2; raises when the denominator is not strictly positive."""
    den = magnitude_sq(r, sp)
    if np.any(den <= 0.0):
        raise InfeasibleError("nonpositive spectral denominator: tuple on or outside the stability boundary")
    return 1.0 / den


def test_integrand_at_zero_frequency():
    assert magnitude_sq(0.0, ScaledParams(1.0, 1.0, 0.0, 0.0)) == pytest.approx(1.0)
    # with a phase gain the zero-frequency denominator is (s2 + k1)^2
    assert magnitude_sq(0.0, ScaledParams(1.0, 1.0, 1.0, 0.0)) == pytest.approx(4.0)


@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(0.0, 50.0),
    s1=st.floats(0.0, 3.0),
    s2=st.floats(0.0, 3.0),
    k1=st.floats(-3.0, 3.0),
    k2=st.floats(-3.0, 3.0),
)
def test_integrand_even(r, s1, s2, k1, k2):
    sp = ScaledParams(s1, s2, k1, k2)
    assert magnitude_sq(r, sp) == pytest.approx(magnitude_sq(-r, sp), rel=1e-12, abs=1e-12)


def test_closed_form_without_gains():
    for s1, s2 in ((1.0, 1.0), (2.0, 1.5), (0.3, 0.7)):
        value = evaluate(ScaledParams(s1, s2, 0.0, 0.0), rel_tol=1e-7).value
        assert value == pytest.approx(math.pi / (s1 * s2), rel=1e-6)


def test_error_estimate_honest():
    for s1, s2 in ((0.4, 0.9), (2.5, 0.3)):
        res = evaluate(ScaledParams(s1, s2, 0.0, 0.0), rel_tol=1e-6)
        assert abs(res.value - math.pi / (s1 * s2)) <= max(res.abs_error_estimate, 1e-6 * res.value)


def test_truncation_invariance():
    # the value is exact up to rounding: the requested tolerance does not move it
    sp = ScaledParams(0.9, 1.7, 0.4, 0.8)
    loose = evaluate(sp, rel_tol=1e-5)
    tight = evaluate(sp, rel_tol=1e-9)
    assert loose.value == pytest.approx(tight.value, rel=1e-12)
    assert tight.abs_error_estimate < 1e-12 * tight.value
    # the reciprocal condition number falls monotonically towards the phase-gain edge
    lo, hi = 0.007, 0.009
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if classify(ScaledParams(0.0075, 0.01584, mid, 0.0)).stable:
            lo = mid
        else:
            hi = mid
    gaps = (1e-1, 1e-2, 1e-3, 1e-4)
    rconds = [evaluate(ScaledParams(0.0075, 0.01584, lo * (1.0 - gap), 0.0)).rcond for gap in gaps]
    assert all(b < a for a, b in zip(rconds, rconds[1:]))


def test_positivity_on_random_stable_tuples():
    rng = np.random.default_rng(21)
    for _ in range(25):
        sp = _random_stable(rng)
        assert evaluate(sp, rel_tol=1e-5).value > 0.0


def test_lower_bound_on_random_stable_tuples():
    # bound from splitting the denominator at r = 1: below it the denominator
    # is under beta1 r + alpha0, above it under (1 + beta2) r^4
    rng = np.random.default_rng(22)
    for _ in range(50):
        sp = _random_stable(rng)
        value = evaluate(sp, rel_tol=1e-6).value
        a3 = 2.0 * abs(sp.k2)
        a2 = 2.0 * abs(sp.s1 * sp.k2 - sp.k1) + abs(sp.s1**2 + sp.k2**2 - 2.0 * sp.s2)
        a1 = 2.0 * abs(sp.s1 * sp.k1 - sp.s2 * sp.k2)
        a0 = sp.s2**2 + sp.k1**2
        b1 = a1 + a2 + a3
        b2 = a0 + a1 + a2 + a3
        if b1 > 0:
            bound = (2.0 / b1) * math.log(1.0 + b1 / a0) + 2.0 / (3.0 * (1.0 + b2))
        else:
            bound = 2.0 / a0 + 2.0 / (3.0 * (1.0 + b2))
        assert value > bound


def test_monotone_vanishing_in_s1():
    values = [evaluate(ScaledParams(s1, 2.0, 0.5, 1.0), rel_tol=1e-7).value for s1 in (1.0, 2.0, 4.0, 8.0)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 0.1 * values[0]


def test_monotone_vanishing_in_s2():
    values = [evaluate(ScaledParams(1.0, s2, 0.3, 0.5), rel_tol=1e-7).value for s2 in (1.0, 2.0, 4.0, 8.0)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_unstable_tuple_rejected():
    with pytest.raises(InfeasibleError):
        evaluate(ScaledParams(0.0075, 0.01584, 0.01, 0.0))


def test_divergence_flag_on_boundary():
    # bisect the phase-gain stability edge of a lightly damped mode, then ask
    # for the integral essentially on the boundary
    lo, hi = 0.007, 0.009
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if classify(ScaledParams(0.0075, 0.01584, mid, 0.0)).stable:
            lo = mid
        else:
            hi = mid
    # the Lyapunov solve itself refuses it, without the classification
    assert not _accepted(*_solve(np.array([[0.0075, 0.01584, lo, 0.0]])))[0]


def _quad_oracle(sp):
    """Plain adaptive quadrature of the integrand over [0, inf), with the
    crossing frequencies and the resonance radius as breakpoints."""
    points = [math.sqrt(sp.s2 + abs(sp.k1))]
    gamma, _, crossing, two, _ = _crossings_many(sp.s1, sp.s2, sp.k1, sp.k2)
    if crossing:
        points += gamma[: 2 if two else 1].tolist()
    split = 4.0 * max(points + [1.0]) + 20.0
    fn = lambda r: float(integrand(r, sp))
    head = quad(fn, 0.0, split, points=sorted(points), limit=1000, epsabs=0.0, epsrel=1e-11)[0]
    tail = quad(fn, split, math.inf, limit=1000, epsabs=1e-10 * head)[0]
    return 2.0 * (head + tail)


def test_matches_independent_quadrature():
    rng = np.random.default_rng(23)
    tuples = [_random_stable(rng) for _ in range(40)]
    p = IEEE39_PARAMS
    tuples += [
        ScaledParams(*scaled_coordinates(p["d"], lam, mu, kappa, p["tau"]))
        for lam, (mu, kappa) in zip(IEEE39_MODES, IEEE39_OPTIMA)
    ]
    for sp in tuples:
        assert evaluate(sp).value == pytest.approx(_quad_oracle(sp), rel=1e-7)


def test_consensus_branch_refused():
    # s2 = k1 = 0 leaves a zero root: the integral diverges even though the
    # frequency sub-system is stable
    with pytest.raises(InfeasibleError):
        evaluate(ScaledParams(1.0, 0.0, 0.0, 0.5))


def test_closed_form_at_small_delay():
    p = IEEE39_PARAMS
    sp = ScaledParams(*scaled_coordinates(p["d"], IEEE39_MODES[0], 0.0, 0.0, 1e-3))
    assert evaluate(sp).value == pytest.approx(math.pi / (sp.s1 * sp.s2), rel=1e-9)


def test_unstable_tuple_refused_without_classification():
    assert not _accepted(*_solve(np.array([[0.0075, 0.01584, 0.01, 0.0]])))[0]


@pytest.mark.parametrize("s1", [100.0, 800.0])
def test_strongly_damped_tuple_refused_without_warnings(s1):
    # the unit-delay flow overflows; the refusal must come without RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InfeasibleError):
            evaluate(ScaledParams(s1, 1.0, 0.0, 0.0))


def test_import_leaves_integration_module_unloaded():
    # the runtime needs numpy only: neither the package nor its CLI loads any scipy module
    src = str(Path(wacrisk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, wacrisk, wacrisk.cli; "
        "print('scipy.integrate' in sys.modules, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False []"


def test_minimize_prefers_delayed_damping():
    # with light intrinsic damping a small positive k2 always beats k = 0
    s1, s2 = 0.05, 1.0
    at_zero = evaluate(ScaledParams(s1, s2, 0.0, 0.0), rel_tol=1e-7).value
    at_k2 = evaluate(ScaledParams(s1, s2, 0.0, 0.3), rel_tol=1e-7).value
    assert at_k2 < at_zero
    objective = lambda k1, k2: weights(s1, s2, k1, k2)
    (k1_star, k2_star), best = grid_minimize(objective, (-0.5, 0.9, -0.04, 2.5), 0.1)
    assert k2_star > 0.0
    assert best <= at_k2


def test_minimize_interior_gradient():
    s1, s2 = 0.3, 1.2
    objective = lambda k1, k2: weights(s1, s2, k1, k2)
    (k1_star, k2_star), best = grid_minimize(objective, (-1.0, 1.1, -0.2, 3.0), 0.1)
    # interior optimum: central differences at the reported argmin stay small
    step = 1e-3
    gx = (
        evaluate(ScaledParams(s1, s2, k1_star + step, k2_star), rel_tol=1e-8).value
        - evaluate(ScaledParams(s1, s2, k1_star - step, k2_star), rel_tol=1e-8).value
    ) / (2 * step)
    gy = (
        evaluate(ScaledParams(s1, s2, k1_star, k2_star + step), rel_tol=1e-8).value
        - evaluate(ScaledParams(s1, s2, k1_star, k2_star - step), rel_tol=1e-8).value
    ) / (2 * step)
    assert math.hypot(gx, gy) < 1e-3 * best / step


def test_minimize_empty_box():
    with pytest.raises(InfeasibleError):
        grid_minimize(lambda k1, k2: weights(0.05, 1.0, k1, k2), (5.0, 6.0, -8.0, -7.0), 0.2)


@pytest.mark.parametrize(
    "box, step",
    [
        ((0.0, 1.0, 0.0, 1.0), 0.0),
        ((0.0, 1.0, 0.0, 1.0), -0.1),
        ((0.0, 1.0, 0.0, 1.0), math.nan),
        ((0.0, 1.0, 0.0, 1.0), (0.1, math.inf)),
        ((1.0, 0.0, 0.0, 1.0), 0.1),
        ((0.0, 1.0, 1.0, 0.0), 0.1),
        ((0.0, math.nan, 0.0, 1.0), 0.1),
        ((0.0, math.inf, 0.0, 1.0), 0.1),
        ((0.0, 1.0, 0.0, 1.0), np.array(0.1)),
        ((0.0, 1.0, 0.0, 1.0), (0.1,)),
        ((0.0, 1.0, 0.0, 1.0), (0.1, 0.1, 0.1)),
        ((0.0, 1.0, 0.0, 1.0), "0.1"),
        # seed grids past MAX_GRID_POINTS, refused before any array is built
        ((0.0, 1.0, 0.0, 4.0), 1e-7),
        ((0.0, 1.0, 0.0, 4.0), 1e-300),
        ((0.0, 1.0, 0.0, 0.0), (1e-8, 1.0)),
    ],
)
def test_grid_minimize_rejects_bad_step_or_box(box, step):
    def objective(x, y):
        raise AssertionError("probed despite a bad step or box")

    with pytest.raises(ValidationError):
        grid_minimize(objective, box, step)


# --- batched weights against the one-tuple least-squares path they replaced ----


def _lstsq_weight(sp):
    """Mode integral from one 12x8 least-squares solve (numpy.linalg.lstsq), +inf when refused."""
    if not classify(sp).stable:
        return math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        parts = _PARTS_AT_ZERO + _PARTS_SLOPES @ np.array([sp.s1, sp.s2, sp.k1, sp.k2])
        flow = expm(parts[:8])
        eye = np.eye(8)
        system = np.vstack([flow[4:] - eye[:4], eye[4:] - _TRANSPOSE @ flow[:4], parts[8:]])
        growth = max(float(np.abs(system[:8]).max()), 1.0)
        if not growth < 1.0 / _MIN_RCOND:
            return math.inf
        solution = np.linalg.lstsq(system, -np.eye(12)[8], rcond=None)[0]
        scaled = system * np.abs(solution)
        norms = np.linalg.norm(scaled, axis=1)
        if not np.all(np.isfinite(norms) & (norms > 0.0)):
            return math.inf
        sv = np.linalg.svd(scaled / norms[:, None], compute_uv=False)
    value = 2.0 * math.pi * float(solution[3])
    return value if sv[-1] / sv[0] >= _MIN_RCOND * growth and value > 0.0 else math.inf


def _mixed_tuples(count, seed):
    """Stable and unstable tuples of the two sampling ranges the tests use."""
    rng = np.random.default_rng(seed)
    p = IEEE39_PARAMS
    tau = p["tau"]
    generic = np.column_stack([rng.uniform(0.0, 3.0, (count, 2)), rng.uniform(-3.0, 3.0, (count, 2))])
    ieee = np.column_stack([
        np.full(count, p["d"] * tau),
        rng.uniform(24.0, 104.0, count) * tau * tau,
        rng.uniform(0.0, 1.0, count) * tau * tau,
        rng.uniform(0.0, 4.0, count) * tau,
    ])
    mixed = np.empty((2 * count, 4))
    mixed[0::2], mixed[1::2] = generic, ieee
    return mixed


def test_batched_weights_match_least_squares_path():
    tuples = _mixed_tuples(300, 31)
    got = weights(*tuples.T)
    want = np.array([_lstsq_weight(ScaledParams(*row)) for row in tuples])
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert finite.sum() > 350
    assert np.max(np.abs(got[finite] - want[finite]) / want[finite]) <= 1e-13


def test_batched_weights_do_not_depend_on_the_batch():
    # alone, or at any position of calls of 1, 7, 128 and 300 tuples (the last
    # spans several stacked blocks), each tuple's weight is the same number
    tuples = _mixed_tuples(150, 32)
    alone = np.array([weights(*row)[()] for row in tuples])
    assert np.isfinite(alone).sum() > 150 and np.isinf(alone).any()
    for size in (1, 7, 128, 300):
        for shift in (0, 3, 101):
            rolled = np.roll(tuples, shift, axis=0)
            batched = np.concatenate([weights(*rolled[i : i + size].T) for i in range(0, len(rolled), size)])
            assert np.array_equal(batched, np.roll(alone, shift)), (size, shift)
    for row, value in zip(tuples, alone):
        try:
            assert evaluate(ScaledParams(*row)).value == value
        except InfeasibleError:
            assert value == math.inf
    # one tuple the Gram-Cholesky certificate cannot settle (relative distance 1e-6
    # from the phase-gain edge) among certified block-mates: every weight stays the
    # one it has alone, and the SVD rule still decides the uncertified tuple
    edge = np.array([[0.0075, 0.01584, _bisect_edge(np.array([[0.0075, 0.01584, 0.0, 0.0]]),
                                                   np.array([[0.0, 0.0, 1.0, 0.0]]))[0] * (1.0 - 1e-6), 0.0]])
    near = _certification(edge)
    assert not near.certified[0] and near.exact_rcond[0] >= _MIN_RCOND * near.growth[0]
    for at in (0, 5, 127):
        mixed = np.insert(tuples[:127], at, edge[0], axis=0)
        got = weights(*mixed.T)
        assert np.array_equal(got, np.insert(alone[:127], at, weights(*edge[0])[()]))
        accepted = mixed[np.isfinite(got)]
        assert np.array_equal(accepted[~_certification(accepted).certified], edge)
    # evaluate reports the exact SVD rcond and the forward bound built on it
    for row in np.vstack([tuples[np.isfinite(alone)][:20], edge]):
        value, rcond, growth = (float(a[0]) for a in _solve(row[None]))
        got = evaluate(ScaledParams(*row))
        assert (got.value, got.rcond, got.abs_error_estimate) == (value, rcond, value * 2.0**-52 * growth / rcond)
    # a tuple whose flow overflows while squaring leaves its block-mate untouched
    p = IEEE39_PARAMS
    physical = ScaledParams(*scaled_coordinates(p["d"], IEEE39_MODES[0], *IEEE39_OPTIMA[0], p["tau"]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mixed = weights([800.0, physical.s1], [1.0, physical.s2], [0.0, physical.k1], [0.0, physical.k2])
        assert mixed[0] == math.inf
        assert mixed[1] == weights(physical.s1, physical.s2, physical.k1, physical.k2)


# --- Gram-Cholesky acceptance certificate against the SVD rule -------------------


def _svd_gated(params):
    """Weight of each row with acceptance decided by the exact SVD rcond
    (``_scaled_rcond``) alone: the rule ``weights`` must reproduce bit for bit."""
    out = np.full(len(params), math.inf)
    stable = classify_many(*params.T).stable
    value, rcond, growth = _solve(params[stable])
    out[stable] = np.where(_accepted(value, rcond, growth), value, math.inf)
    return out


def _certification(params):
    """Per row: whether the certificate settled it, its exact SVD rcond, its growth.

    A settled row reports the floor 10 _MIN_RCOND growth, which must lie
    strictly below its exact rcond; an unsettled row must report the exact
    rcond itself.
    """
    _, certified_rcond, growth = _solve(params, certify=True)
    _, exact_rcond, exact_growth = _solve(params)
    assert np.array_equal(growth, exact_growth)
    certified = certified_rcond != exact_rcond
    assert np.array_equal(certified_rcond[certified], 10.0 * _MIN_RCOND * growth[certified])
    assert np.all(exact_rcond[certified] > certified_rcond[certified])
    return types.SimpleNamespace(certified=certified, exact_rcond=exact_rcond, growth=growth)


def _bisect_edge(start, direction):
    """Step t > 0 at which start + t direction leaves the stability region
    (classification), bisected to the last bit; each start must be stable and
    start + 16 direction unstable."""
    lo, hi = np.zeros(len(start)), np.full(len(start), 16.0)
    assert classify_many(*start.T).stable.all()
    assert not classify_many(*(start + hi[:, None] * direction).T).stable.any()
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        stable = classify_many(*(start + mid[:, None] * direction).T).stable
        lo, hi = np.where(stable, mid, lo), np.where(stable, hi, mid)
    return lo


def test_certified_weights_match_svd_rule_on_random_tuples():
    # criterion-07 sampling: s1, s2 uniform on [0, 3], k1, k2 uniform on [-3, 3]
    rng = np.random.default_rng(2307)
    tuples = np.column_stack([rng.uniform(0.0, 3.0, (100_000, 2)), rng.uniform(-3.0, 3.0, (100_000, 2))])
    got = weights(*tuples.T)
    assert np.array_equal(got, _svd_gated(tuples))
    assert np.isfinite(got).sum() > 30_000 and np.isinf(got).sum() > 30_000
    sample = tuples[np.isfinite(got)][:3000]
    assert _certification(sample).certified.mean() > 0.99


def test_certified_weights_match_svd_rule_near_the_stability_edge():
    # rays from a stable gain-free tuple through a random gain direction, each
    # bisected to its edge, then probed at relative distances 1e-3 ... 1e-9 inside
    rng = np.random.default_rng(2308)
    count = 150
    start = np.column_stack([rng.uniform(0.05, 3.0, (count, 2)), np.zeros((count, 2))])
    direction = np.column_stack([np.zeros((count, 2)), rng.uniform(-1.0, 1.0, (count, 2))])
    direction[:, 2] = np.abs(direction[:, 2]) + 0.5  # a large phase gain always destabilises
    edge = _bisect_edge(start, direction)
    gaps = 10.0 ** -np.arange(3.0, 10.0)
    rows = (start[:, None] + (edge[:, None, None] * (1.0 - gaps)[None, :, None]) * direction[:, None]).reshape(-1, 4)
    got = weights(*rows.T)
    assert np.array_equal(got, _svd_gated(rows))
    solved = rows[classify_many(*rows.T).stable]
    near = _certification(solved)
    accepted = near.exact_rcond >= _MIN_RCOND * near.growth
    # the SVD fallback both accepts and refuses rows the certificate leaves open
    assert near.certified.any() and (~near.certified & accepted).any() and (~near.certified & ~accepted).any()
    assert np.isfinite(got).any() and np.isinf(got[classify_many(*rows.T).stable]).any()


def test_certified_weights_match_svd_rule_on_strongly_damped_tuples():
    # growth rises with s1 until the flow overflows; RuntimeWarnings are errors
    rng = np.random.default_rng(2309)
    s1 = np.concatenate([np.linspace(10.0, 30.0, 401), [100.0, 800.0]])
    rows = np.column_stack([s1, rng.uniform(0.1, 3.0, len(s1)), rng.uniform(-0.5, 0.5, (len(s1), 2))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = weights(*rows.T)
        assert np.array_equal(got, _svd_gated(rows))
        near = _certification(rows[classify_many(*rows.T).stable])
    assert np.isfinite(got).any() and np.isinf(got[-2:]).all()
    assert near.certified.any() and (~near.certified).any()
    # each slice of the Cholesky stack is decided alone: a slice without a factor
    # comes back NaN, which is how the certificate reads a refusal
    shifted = np.stack([np.eye(8), -np.eye(8), np.eye(8), np.diag([1.0] * 7 + [-1e-12]), np.eye(8)])
    with np.errstate(invalid="ignore"):
        has_factor = ~np.isnan(_umath_linalg.cholesky_lo(shifted)[:, 0, 0])
        assert has_factor.tolist() == [True, False, True, False, True]
        assert _umath_linalg.cholesky_lo(np.zeros((0, 8, 8)))[:, 0, 0].shape == (0,)
        # the certificate on a stack alternating full-rank systems with systems that
        # leave their last column out: the floor for the first, the SVD rcond of 0 for the second
        full = np.vstack([np.eye(8), np.eye(8)[:4]])
        deficient = np.vstack([np.eye(8)[[0, 1, 2, 3, 4, 5, 6, 0]], np.eye(8)[:4]])
        systems = np.stack([full, deficient, full, deficient, full])
        floor = np.full(5, 1e-7)
        got = _certified_rcond(systems, np.ones((5, 8)), floor)
        assert np.array_equal(got, [1e-7, 0.0, 1e-7, 0.0, 1e-7])
        assert _certified_rcond(np.zeros((0, 12, 8)), np.zeros((0, 8)), np.zeros(0)).shape == (0,)


def _flow_generators(params):
    return np.stack([(_PARTS_AT_ZERO + _PARTS_SLOPES @ row)[:8] for row in params])


def test_expm_matches_scipy_on_flow_generators():
    tuples = _mixed_tuples(300, 31)
    stable = tuples[[classify(ScaledParams(*row)).stable for row in tuples]]
    # stiff stable modes: 1-norms of 29 to 61 need s = 3 or 4 squarings after scaling to theta_13
    stiff = np.array([[1.0, 25.0, 2.0, 1.0], [0.2, 40.0, 1.0, 0.5], [0.1, 60.0, 0.5, 0.2]])
    generators = _flow_generators(np.vstack([stable, stiff]))
    assert len(stable) > 350
    assert np.all(np.abs(generators[-3:]).sum(axis=1).max(axis=1) > 4.0 * _THETA13)
    got = _expm(generators)
    for mine, flow in zip(got, generators):
        want = expm(flow)
        assert np.abs(mine - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(_expm(np.zeros((2, 8, 8))), np.stack([np.eye(8)] * 2))


def test_expm_bad_slice_leaves_the_stack_intact():
    generators = _flow_generators(_mixed_tuples(4, 33)[:3])
    alone = np.stack([_expm(g[None])[0] for g in generators])
    bad = np.stack([generators[0], np.full((8, 8), math.nan), generators[1], np.full((8, 8), math.inf), generators[2]])
    got = _expm(bad)
    assert np.isnan(got[[1, 3]]).all()
    assert np.array_equal(got[[0, 2, 4]], alone)
    # a singular slice of the batched solve that _expm calls gives NaN there, not an
    # error for the stack
    lhs = np.stack([2.0 * np.eye(3), np.zeros((3, 3)), np.eye(3)])
    with np.errstate(invalid="ignore"):
        solved = _umath_linalg.solve(lhs, np.stack([np.eye(3)] * 3))
    assert np.array_equal(solved[[0, 2]], [0.5 * np.eye(3), np.eye(3)]) and np.isnan(solved[1]).all()


def test_lapack_gufuncs_keep_the_surface_the_kernel_assumes(monkeypatch):
    # spectral calls these private gufuncs of numpy.linalg directly; a NumPy release that
    # renames one or changes its core dimensions or loops fails here first
    for gufunc, signature, loop in [(_umath_linalg.solve, "(m,m),(m,n)->(m,n)", "dd->d"),
                                    (_umath_linalg.cholesky_lo, "(m,m)->(m,m)", "d->d"),
                                    (_umath_linalg.qr_r_raw, "(m,n)->(p)", "d->d"),
                                    (_umath_linalg.qr_reduced, "(m,n),(k)->(m,k)", "dd->d")]:
        assert gufunc.signature == signature and loop in gufunc.types, gufunc.__name__
    rng = np.random.default_rng(2501)
    square = rng.normal(size=(5, 8, 8))
    square[2] = 0.0  # singular, and without a Cholesky factor
    spd = np.swapaxes(square, 1, 2) @ square + np.eye(8)
    spd[3] = -np.eye(8)
    tall = rng.normal(size=(4, 12, 8))
    tall[1, :, 5] = 0.0  # rank-deficient: QR still factorises it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="ignore"):
            solved = _umath_linalg.solve(square, tall[0, :8][None].repeat(5, axis=0))
            factor = _umath_linalg.cholesky_lo(spd)
            factors = tall.copy()
            q = _umath_linalg.qr_reduced(factors, _umath_linalg.qr_r_raw(factors))
            empty = (_umath_linalg.solve(np.zeros((0, 8, 8)), np.zeros((0, 8, 1))),
                     _umath_linalg.cholesky_lo(np.zeros((0, 8, 8))),
                     _umath_linalg.qr_r_raw(np.zeros((0, 12, 8))))
    # a failed slice is NaN; its neighbours are the public wrapper's result bit for bit
    assert np.isnan(solved[2]).all() and np.isnan(factor[3]).all()
    for i in (0, 1, 3, 4):
        assert _same_bits(solved[i], np.linalg.solve(square[i], tall[0, :8]))
    for i in (0, 1, 2, 4):
        assert _same_bits(factor[i], np.linalg.cholesky(spd[i]))
    want_q, want_r = np.linalg.qr(tall)
    assert _same_bits(q, want_q) and _same_bits(np.triu(factors[:, :8]), want_r)
    assert [a.shape for a in empty] == [(0, 8, 1), (0, 8, 8), (0, 8)]
    # the kernel reaches no np.linalg solve, QR or Cholesky, and a block in which
    # no row is solvable (both flows overflow) gives an empty stack to factorise
    for name in ("solve", "qr", "cholesky"):
        monkeypatch.setattr(np.linalg, name, None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert weights(np.array([800.0, 100.0]), 1.0, 0.1, 0.1).tolist() == [math.inf, math.inf]
        assert np.isfinite(weights(0.5, 1.0, 0.2, 0.3))
        assert _solve(np.zeros((0, 4)), certify=True)[0].shape == (0,)


def test_weights_broadcast_and_refuse_without_nan():
    k1 = np.linspace(-0.5, 3.0, 8)[:, None]
    k2 = np.linspace(-1.0, 4.0, 6)
    w = weights(0.5, 1.0, k1, k2)
    assert w.shape == (8, 6)
    assert not np.isnan(w).any() and np.isinf(w).any() and np.isfinite(w).any()
    # strongly damped tuples overflow the flow; refused without warnings or NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(weights([100.0, 800.0], 1.0, 0.0, 0.0) == math.inf)
    assert weights(np.zeros(0), 1.0, 0.0, 0.0).shape == (0,)


# --- the mode-weight chain as it stood before its Python-level trims ------------
# It calls the public np.linalg wrappers, so the chain tests check the LAPACK
# gufuncs that spectral calls directly against NumPy's public API.


def _reference_expm(a):
    """``spectral._expm`` as it stood before its trims: the finite mask applied to
    every slice, and the identity and its Pade multiples built on every call."""
    b = _PADE13
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    finite = np.isfinite(norm)
    s = np.ceil(np.log2(np.maximum(np.where(finite, norm, 0.0) / _THETA13, 1.0))).astype(int)
    a = np.ldexp(np.where(finite[:, None, None], a, 0.0), -s[:, None, None])
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    try:
        r = eye + np.linalg.solve(v - u, 2.0 * u)
    except np.linalg.LinAlgError:
        r = np.full(a.shape, math.nan)
        for i, (left, right) in enumerate(zip(v - u, 2.0 * u)):
            try:
                r[i] = eye + np.linalg.solve(left, right)
            except np.linalg.LinAlgError:
                pass
    r[~finite] = math.nan
    for k in range(int(s.max(initial=0))):
        r = np.where((s > k)[:, None, None], r @ r, r)
    return r


def _reference_unit_rows(system, solution):
    scaled = system * np.abs(solution)[:, None, :]
    norms = np.linalg.norm(scaled, axis=2)
    good = np.all(np.isfinite(norms) & (norms > 0.0), axis=1)
    return scaled[good] / norms[good][:, :, None], good


def _reference_scaled_rcond(system, solution):
    unit, good = _reference_unit_rows(system, solution)
    rcond = np.zeros(len(system))
    if good.any():
        sv = np.linalg.svd(unit, compute_uv=False)
        rcond[good] = sv[:, -1] / sv[:, 0]
    return rcond


def _reference_has_cholesky(stack):
    try:
        np.linalg.cholesky(stack)
        return np.ones(len(stack), dtype=bool)
    except np.linalg.LinAlgError:
        if len(stack) == 1:
            return np.zeros(1, dtype=bool)
        half = len(stack) // 2
        return np.concatenate([_reference_has_cholesky(stack[:half]), _reference_has_cholesky(stack[half:])])


def _reference_solve(params, certify=False):
    """``spectral._solve`` as it stood before its trims: an errstate per block,
    np.linalg.norm, and every boolean compaction taken even when it keeps every row."""
    value, rcond, growth = (np.zeros(len(params)) for _ in range(3))
    for start in range(0, len(params), _BLOCK):
        rows = slice(start, start + _BLOCK)
        block = params[rows]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            parts = _PARTS_AT_ZERO + (block @ _SLOPES_BY_PARAMETER).reshape(-1, 12, 8)
            flow = _reference_expm(parts[:, :8])
            eye = np.eye(8)
            system = np.concatenate([flow[:, 4:] - eye[:4], eye[4:] - flow[:, [0, 2, 1, 3]], parts[:, 8:]], axis=1)
            growth[rows] = np.maximum(np.abs(system[:, :8]).max(axis=(1, 2)), 1.0)
            solvable = growth[rows] < 1.0 / _MIN_RCOND
            solution = np.zeros((len(block), 8))
            q, r = np.linalg.qr(system[solvable])
            x = np.full((len(q), 8), math.nan)
            regular = np.all(np.diagonal(r, axis1=1, axis2=2) != 0.0, axis=1)
            x[regular] = np.linalg.solve(r[regular], -q[regular, 8, :, None])[..., 0]
            solution[solvable] = x
            value[rows] = 2.0 * math.pi * solution[:, 3]
            if certify:
                floor = 10.0 * _MIN_RCOND * growth[rows]
                unit, good = _reference_unit_rows(system, solution)
                shift = 12.0 * floor[good] ** 2 + _GRAM_SLACK
                sure = np.zeros(len(system), dtype=bool)
                sure[good] = _reference_has_cholesky(np.swapaxes(unit, 1, 2) @ unit - shift[:, None, None] * eye)
                rcond[rows] = np.where(sure, floor, 0.0)
                if not sure.all():
                    rcond[rows][~sure] = _reference_scaled_rcond(system[~sure], solution[~sure])
            else:
                rcond[rows] = _reference_scaled_rcond(system, solution)
    return value, rcond, growth


def _reference_weights(s1, s2, k1, k2):
    """``spectral.weights`` on the reference chain."""
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (s1, s2, k1, k2)))
    out = np.full(arrays[0].shape, math.inf)
    stable = classify_many(*arrays).stable
    value, rcond, growth = _reference_solve(np.stack([a[stable] for a in arrays], axis=-1), certify=True)
    out[stable] = np.where(_accepted(value, rcond, growth), value, math.inf)
    return out


def _same_bits(got, want):
    """Equal arrays of one dtype and shape, floats compared through their int64 view
    (so -0.0 and 0.0, and NaN payloads, count as different)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype == np.float64:
        got, want = got.view(np.int64), want.view(np.int64)
    return np.array_equal(got, want)


def _reference_probe_tuples():
    """200,000 seeded criterion-07 tuples (s1, s2 on [0, 3], k1, k2 on [-3, 3]), then
    the zero faces, tuples 1e-3 ... 1e-9 inside a stability edge, strongly damped
    tuples and IEEE-39 mode tuples."""
    rng = np.random.default_rng(2407)
    random = np.column_stack([rng.uniform(0.0, 3.0, (200_000, 2)), rng.uniform(-3.0, 3.0, (200_000, 2))])
    faces = np.repeat(random[:500], 5, axis=0)
    faces[0::5, 1] = 0.0  # s2 = 0
    faces[1::5, 2] = 0.0  # k1 = 0
    faces[2::5, 1:3] = 0.0  # the consensus branch s2 = k1 = 0
    faces[3::5, 0] = 0.0  # s1 = 0
    faces[4::5, 3] = -0.0  # k2 = -0.0
    count = 60
    start = np.column_stack([rng.uniform(0.05, 3.0, (count, 2)), np.zeros((count, 2))])
    direction = np.column_stack([np.zeros((count, 2)), rng.uniform(-1.0, 1.0, (count, 2))])
    direction[:, 2] = np.abs(direction[:, 2]) + 0.5
    edge = _bisect_edge(start, direction)
    gaps = 10.0 ** -np.arange(3.0, 10.0)
    band = (start[:, None] + (edge[:, None, None] * (1.0 - gaps)[None, :, None]) * direction[:, None]).reshape(-1, 4)
    damped = np.column_stack([np.concatenate([np.linspace(10.0, 30.0, 101), [100.0, 800.0]]),
                              rng.uniform(0.1, 3.0, 103), rng.uniform(-0.5, 0.5, (103, 2))])
    return np.vstack([random, faces, band, damped, _mixed_tuples(500, 2407)])


def test_solve_and_weights_match_the_reference_chain_bit_for_bit():
    tuples = _reference_probe_tuples()
    got = weights(*tuples.T)
    assert _same_bits(got, _reference_weights(*tuples.T))
    assert np.isfinite(got).sum() > 80_000
    stable = tuples[classify_many(*tuples.T).stable]
    for certify in (True, False):
        rows = stable if certify else stable[::8]
        for mine, theirs in zip(_solve(rows, certify=certify), _reference_solve(rows, certify=certify)):
            assert _same_bits(mine, theirs), certify
    # one-tuple calls (0-d), Python lists and broadcast inputs
    for row in tuples[-300:]:
        assert _same_bits(weights(*row), _reference_weights(*row))
    lists = [list(column) for column in tuples[-50:].T]
    assert _same_bits(weights(*lists), _reference_weights(*lists))
    k1, k2 = np.linspace(-0.5, 3.0, 8)[:, None], np.linspace(-1.0, 4.0, 6)
    assert _same_bits(weights(0.5, 1.0, k1, k2), _reference_weights(0.5, 1.0, k1, k2))
    # evaluate's value, rcond and forward bound
    for row in stable[-200:]:
        value, rcond, growth = (float(a[0]) for a in _reference_solve(row[None]))
        if rcond >= _MIN_RCOND * growth and value > 0.0:
            got = evaluate(ScaledParams(*row))
            assert (got.value, got.rcond, got.abs_error_estimate) == (value, rcond, value * 2.0**-52 * growth / rcond)
        else:
            with pytest.raises(InfeasibleError):
                evaluate(ScaledParams(*row))


def test_mode_weight_matches_the_reference_chain_bit_for_bit():
    # tau > 0 through the spectral weights, tau = 0 through the closed form
    p = IEEE39_PARAMS
    noise = NoiseParams(p["eta"], p["eta_meas"])
    lam = np.array(IEEE39_MODES)[:, None]
    mus, kappas = (v.ravel() for v in np.meshgrid(np.linspace(0.0, 1.0, 11), np.linspace(-0.5, 4.0, 19)))
    intensity = (p["eta"] / p["inertia"]) ** 2 + p["eta_meas"] ** 2 * (mus * mus + kappas * kappas)
    for tau in (0.03, 0.1):
        value = _reference_weights(p["d"] * tau, lam * tau * tau, mus * tau * tau, kappas * tau)
        with np.errstate(invalid="ignore"):
            want = np.where(np.isinf(value), math.inf, tau**3 * intensity * value)
        assert _same_bits(mode_weight(lam, mus, kappas, p["d"], tau, noise, p["inertia"]), want)
    with np.errstate(divide="ignore", invalid="ignore"):
        stable = (kappas + p["d"] > 0.0) & (lam + mus > 0.0)
        want = np.where(stable, 2.0 * math.pi * intensity / (2.0 * (p["d"] + kappas) * (lam + mus)), math.inf)
    assert _same_bits(mode_weight(lam, mus, kappas, p["d"], 0.0, noise, p["inertia"]), want)


# --- memoised compass polish against a one-point-at-a-time walk -----------------


def _reference_walk(objective, box, step):
    """grid_minimize as a scalar loop: row-major seed scan, then a compass
    polish that probes one direction at a time."""
    x_lo, x_hi, y_lo, y_hi = box
    sx, sy = (step, step) if np.isscalar(step) else step
    best, best_val = None, math.inf
    for x in _axis(x_lo, x_hi, sx):
        for y in _axis(y_lo, y_hi, sy):
            val = objective(x, y)
            if val < best_val:
                best, best_val = (x, y), val
    if best is None or not math.isfinite(best_val):
        raise InfeasibleError("no feasible point on the search grid")
    hx, hy = sx / 2.0, sy / 2.0
    x, y = best
    for _ in range(_MAX_POLISH):
        if max(hx, hy) < min(sx, sy) / 64.0:
            break
        moved = False
        for dx, dy in ((hx, 0.0), (-hx, 0.0), (0.0, hy), (0.0, -hy), (hx, hy), (-hx, hy), (hx, -hy), (-hx, -hy)):
            # keeps the bound when it and x + dx are zeros of opposite sign, as grid_minimize does
            cx = min(x_hi, max(x_lo, x + dx))
            cy = min(y_hi, max(y_lo, y + dy))
            val = objective(cx, cy)
            if val < best_val:
                x, y, best_val = cx, cy, val
                moved = True
        if not moved:
            hx /= 2.0
            hy /= 2.0
    return (x, y), best_val


def _terraced(x, y):
    # flat terraces (ties everywhere) around a tilted bowl, infeasible in one corner
    value = np.floor(4.0 * ((x - 0.3) ** 2 + 2.0 * (y - 0.7) ** 2)) / 4.0 + 0.01 * np.abs(x + y - 1.0)
    return np.where((x > 0.9) & (y > 0.9), math.inf, value)


def _ieee39_mode_weight(lam):
    p = IEEE39_PARAMS
    noise = NoiseParams(p["eta"], p["eta_meas"])
    return lambda mu, kappa: mode_weight(lam, mu, kappa, p["d"], p["tau"], noise, p["inertia"])


def _lattice(seed):
    """Integers on the quarter lattice of [-1, 1]^2, 20 off it: local minima and
    ties everywhere, so the result depends on the order in which the polish
    accepts moves within a round.  The step-1 seed grid has its minimum at 0."""
    table = np.random.default_rng(seed).integers(0, 10, (9, 9)).astype(float)
    table[::4, ::4] = 9.0
    table[4, 4] = 8.0

    def objective(x, y):
        i, j = 4.0 * (x + 1.0), 4.0 * (y + 1.0)
        on = (i == np.round(i)) & (j == np.round(j))
        out = np.full(np.shape(x), 20.0)
        out[on] = table[np.round(i[on]).astype(int), np.round(j[on]).astype(int)]
        return out

    return objective


@pytest.mark.parametrize(
    "objective, box, step",
    [
        (_lattice(28), (-1.0, 1.0, -1.0, 1.0), 1.0),
        (_lattice(412), (-1.0, 1.0, -1.0, 1.0), 1.0),
        (lambda k1, k2: weights(0.3, 1.2, k1, k2), (-1.0, 1.1, -0.2, 3.0), 0.1),
        (lambda k1, k2: weights(0.05, 1.0, k1, k2), (-0.5, 0.9, -0.04, 2.5), (0.1, 0.3)),
        (lambda k1, k2: weights(0.0075, 0.01584, k1, k2), (0.0, 0.02, 0.0, 0.1), (0.002, 0.01)),
        (_terraced, (-1.0, 1.0, -1.0, 1.0), 0.125),
        (_terraced, (-1.0, 1.0, 0.5, 0.5), (0.1, 1.0)),
        (lambda x, y: np.abs(x - 0.37) + np.abs(y + 0.21), (-1.0, 1.0, -1.0, 1.0), 0.25),
        # IEEE-39 mode 10 at the criterion-10 parameters: the optimum lies on the mu = 0
        # face, where clipped candidates coincide with each other and with the walk's point
        (_ieee39_mode_weight(IEEE39_MODES[8]), (0.0, 1.0, 0.0, 4.0), 0.25),
        # a box thinner than the first half step: the compass candidates are clipped in y
        (lambda x, y: (x - 0.37) ** 2 + 3.0 * (y - 0.04) ** 2, (-1.0, 1.0, -0.05, 0.05), 0.5),
        # a -0.0 bound: a candidate clipped onto it keeps the bound's sign, not its own
        (lambda x, y: (x - 0.01) ** 2 + (y - 1.3) ** 2, (-0.0, 1.0, 0.0, 4.0), 0.25),
        # the seed axis starts at -0.0 + 0.0 = +0.0 while candidates clipped onto the
        # lower y bound are -0.0: the same value, a different point for the lookup
        (lambda x, y: (x - 0.2) ** 2 + (y + 0.3) ** 2, (0.0, 1.0, -0.0, 1.0), 0.25),
        # half steps of a quarter: every other polish candidate lands exactly on a
        # seed-grid value, looked up instead of probed
        (_lattice(7), (-1.0, 1.0, -1.0, 1.0), 0.5),
        (lambda x, y: np.abs(x - 0.6) + np.abs(y - 0.2), (0.0, 1.0, 0.0, 1.0), 0.5),
        # spans that are no multiple of the step end on an appended axis value, which
        # candidates clipped onto the upper bounds hit bit for bit
        (lambda x, y: (x - 1.2) ** 2 + (y - 0.95) ** 2, (0.0, 0.9, 0.0, 0.9), 0.25),
    ],
)
def test_grid_minimize_equals_one_point_walk(objective, box, step):
    requested = []

    def recording(x, y):
        requested.extend(zip(x.view(np.int64).tolist(), y.view(np.int64).tolist()))
        return objective(x, y)

    walked = set()

    def scalar(x, y):
        walked.add(tuple(np.array([x, y], dtype=float).view(np.int64).tolist()))
        return float(objective(np.array([x]), np.array([y]))[0])

    assert grid_minimize(recording, box, step) == _reference_walk(scalar, box, step)
    # every point the walk probes, bit for bit, is probed by the memo too (the seed
    # grid's in its one call): none is missed
    assert walked <= set(requested)
    # the memo asks for no point twice, seed-grid points included, and every probe lies inside the box
    assert len(set(requested)) == len(requested)
    xs, ys = (np.array(v, dtype=np.int64).view(float) for v in zip(*requested))
    x_lo, x_hi, y_lo, y_hi = box
    assert np.all((x_lo <= xs) & (xs <= x_hi) & (y_lo <= ys) & (ys <= y_hi))
