import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import wacrisk
from wacrisk.errors import InfeasibleError
from wacrisk.spectral import evaluate, integrand, magnitude_sq, minimize_over_gains
from wacrisk.stability import ScaledParams, classify, crossing_structure

from conftest import IEEE39_MODES, IEEE39_PARAMS

# published per-mode optimal (mu, kappa) of the ten-machine study
IEEE39_OPTIMA = [(0.25, 2.75), (0.20, 2.75), (0.15, 2.75), (0.10, 2.75), (0.10, 2.70),
                 (0.05, 2.70), (0.05, 2.70), (0.05, 2.70), (0.05, 2.70)]


def _random_stable(rng, lo=0.05, hi=3.0):
    while True:
        sp = ScaledParams(*rng.uniform(lo, hi, 2), *rng.uniform(-3.0, 3.0, 2))
        if classify(sp).stable:
            return sp


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
    with pytest.raises(InfeasibleError):
        evaluate(ScaledParams(0.0075, 0.01584, lo, 0.0), rel_tol=1e-6, check_stability=False)


def _quad_oracle(sp):
    """Plain adaptive quadrature of the integrand over [0, inf), with the
    crossing frequencies and the resonance radius as breakpoints."""
    points = [math.sqrt(sp.s2 + abs(sp.k1))]
    try:
        structure = crossing_structure(sp)
        points += [g for g in (structure.gamma_plus, structure.gamma_minus) if g is not None]
    except InfeasibleError:
        pass  # no crossing frequency
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
        ScaledParams.from_physical(p["d"], lam, mu, kappa, p["tau"])
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
    sp = ScaledParams.from_physical(p["d"], IEEE39_MODES[0], 0.0, 0.0, 1e-3)
    assert evaluate(sp).value == pytest.approx(math.pi / (sp.s1 * sp.s2), rel=1e-9)


def test_unstable_tuple_refused_without_classification():
    with pytest.raises(InfeasibleError):
        evaluate(ScaledParams(0.0075, 0.01584, 0.01, 0.0), check_stability=False)


@pytest.mark.parametrize("s1", [100.0, 800.0])
def test_strongly_damped_tuple_refused_without_warnings(s1):
    # the unit-delay flow overflows; the refusal must come without RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InfeasibleError):
            evaluate(ScaledParams(s1, 1.0, 0.0, 0.0))


def test_import_leaves_integration_module_unloaded():
    src = str(Path(wacrisk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, wacrisk; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_minimize_prefers_delayed_damping():
    # with light intrinsic damping a small positive k2 always beats k = 0
    s1, s2 = 0.05, 1.0
    at_zero = evaluate(ScaledParams(s1, s2, 0.0, 0.0), rel_tol=1e-7).value
    at_k2 = evaluate(ScaledParams(s1, s2, 0.0, 0.3), rel_tol=1e-7).value
    assert at_k2 < at_zero
    (k1_star, k2_star), best = minimize_over_gains(s1, s2, (-0.5, 0.9, -0.04, 2.5), grid_step=0.1)
    assert k2_star > 0.0
    assert best <= at_k2


def test_minimize_interior_gradient():
    s1, s2 = 0.3, 1.2
    (k1_star, k2_star), best = minimize_over_gains(s1, s2, (-1.0, 1.1, -0.2, 3.0), grid_step=0.1)
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
        minimize_over_gains(0.05, 1.0, (5.0, 6.0, -8.0, -7.0), grid_step=0.2)
