import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from wacrisk.errors import ValidationError
from wacrisk.network import GainSpec
from wacrisk.risk import (
    RiskProfile,
    SystemicSet,
    acceptance_quantile,
    risk_profile,
    risk_search,
    risk_value,
)
from wacrisk.stats import NoiseParams, PairStats, pair_deviations, pair_list

SET_A = SystemicSet(zeta=math.pi / 3.0, c=1.5, eps=0.1)


def test_acceptance_quantile_values():
    # independent oracle: the two-sided Gaussian quantile
    assert acceptance_quantile(0.1) == pytest.approx(norm.ppf(1 - 0.05), abs=1e-5)
    assert acceptance_quantile(0.1) == pytest.approx(1.64485, abs=1e-5)
    assert acceptance_quantile(0.05) == pytest.approx(1.95996, abs=1e-5)
    assert acceptance_quantile(0.999) < 2e-3


def test_acceptance_quantile_domain():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValidationError):
            acceptance_quantile(bad)


def test_systemic_set_validation():
    with pytest.raises(ValidationError):
        SystemicSet(zeta=-1.0, c=1.5, eps=0.1)
    with pytest.raises(ValidationError):
        SystemicSet(zeta=1.0, c=0.9, eps=0.1)
    with pytest.raises(ValidationError):
        SystemicSet(zeta=1.0, c=1.5, eps=1.2)


def test_nesting_of_unsafe_sets():
    deltas = [0.0, 0.2, 1.0, 5.0, 100.0]
    thresholds = [SET_A.unsafe_threshold(d) for d in deltas]
    assert all(a < b for a, b in zip(thresholds, thresholds[1:]))  # sets shrink
    assert thresholds[0] == pytest.approx(SET_A.zeta / SET_A.c)
    assert SET_A.unsafe_threshold(1e9) == pytest.approx(SET_A.zeta, rel=1e-8)


def test_risk_value_branches():
    # thresholds from the quantile: zero up to 0.4244, infinite from 0.6367
    assert SET_A.zero_risk_threshold == pytest.approx(0.42443, abs=2e-5)
    assert SET_A.infinite_risk_threshold == pytest.approx(0.63665, abs=2e-5)
    assert risk_value(0.42, SET_A) == 0.0
    assert risk_value(0.5, SET_A) == pytest.approx(0.82948, abs=1e-4)
    assert risk_value(0.7, SET_A) == math.inf
    # boundary ties: equality maps to the closed branches
    assert risk_value(SET_A.zero_risk_threshold, SET_A) == 0.0
    assert risk_value(SET_A.infinite_risk_threshold, SET_A) == math.inf


def test_risk_search_is_equivalent():
    assert risk_search(0.0, SET_A) == 0.0
    assert risk_search(0.42, SET_A) == 0.0
    assert risk_search(0.5, SET_A) == pytest.approx(risk_value(0.5, SET_A), abs=1e-6)
    assert risk_search(0.7, SET_A) == math.inf


def test_nan_sigma_refused():
    for fn in (risk_value, risk_search):
        with pytest.raises(ValidationError):
            fn(math.nan, SET_A)
        with pytest.raises(ValidationError):
            fn(-0.1, SET_A)
    for bad in (np.array(math.nan), np.array([0.1, math.nan]), np.array([[0.2, 0.3], [-0.1, 0.4]])):
        with pytest.raises(ValidationError):
            risk_value(bad, SET_A)


def _closed_form(sigma: float, sset: SystemicSet) -> float:
    """The three branches in plain Python floats, one sigma at a time."""
    if sigma <= sset.zero_risk_threshold:
        return 0.0
    if sigma >= sset.infinite_risk_threshold:
        return math.inf
    try:
        return (sigma * sset.nu * sset.c - sset.zeta) / (sset.zeta - sigma * sset.nu)
    except ZeroDivisionError:
        return math.inf


def test_risk_value_arrays_equal_scalar_calls():
    lo, hi = SET_A.zero_risk_threshold, SET_A.infinite_risk_threshold
    below_pole = float(np.nextafter(hi, 0.0))
    sigmas = [0.0, lo, float(np.nextafter(lo, math.inf)), 0.5, float(np.nextafter(below_pole, 0.0)), below_pole,
              hi, float(np.nextafter(hi, math.inf)), 2.0, math.inf]
    want = [_closed_form(s, SET_A) for s in sigmas]
    assert want[0] == want[1] == 0.0 and want[-4:] == [math.inf] * 4
    # two ulps below the pole the middle branch is finite; one ulp below, sigma nu rounds to zeta and
    # the branch divides by an exact zero, which gives +inf rather than an error
    assert math.isfinite(want[4]) and want[4] > 1e6 and want[5] == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s, w in zip(sigmas, want):
            for arg in (s, np.float64(s), np.array(s)):
                got = risk_value(arg, SET_A)
                assert type(got) is float and got == w
        assert np.array_equal(risk_value(np.array(sigmas), SET_A), want)
        square, want_square = np.array([sigmas, sigmas[::-1]]), np.array([want, want[::-1]])
        assert np.array_equal(risk_value(square, SET_A), want_square)
        assert np.array_equal(risk_value(square[:, None, :], SET_A), want_square[:, None, :])
        assert risk_value(np.empty((0, 3)), SET_A).shape == (0, 3)


def test_risk_search_inverts_middle_branch():
    # choose sigma so the infimum lands exactly at delta = 1
    delta0 = 1.0
    sigma = SET_A.zeta * (1 + delta0) / ((SET_A.c + delta0) * SET_A.nu)
    assert risk_search(sigma, SET_A) == pytest.approx(1.0, abs=1e-6)
    assert risk_value(sigma, SET_A) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=150, deadline=None)
@given(
    sigma=st.floats(0.0, 2.0),
    other=st.floats(0.0, 2.0),
)
def test_risk_monotone_in_sigma(sigma, other):
    lo, hi = sorted((sigma, other))
    assert risk_value(lo, SET_A) <= risk_value(hi, SET_A)


@settings(max_examples=100, deadline=None)
@given(
    sigma=st.floats(0.01, 1.5),
    zeta=st.floats(0.3, 2.0),
    scale=st.floats(1.05, 3.0),
)
def test_risk_monotone_in_set_parameters(sigma, zeta, scale):
    base = SystemicSet(zeta=zeta, c=1.5, eps=0.1)
    wider = SystemicSet(zeta=zeta * scale, c=1.5, eps=0.1)  # larger hard limit
    assert risk_value(sigma, wider) <= risk_value(sigma, base)
    stricter_c = SystemicSet(zeta=zeta, c=1.5 * scale, eps=0.1)
    assert risk_value(sigma, stricter_c) >= risk_value(sigma, base)
    stricter_eps = SystemicSet(zeta=zeta, c=1.5, eps=0.05)  # larger 1 - eps
    assert risk_value(sigma, stricter_eps) >= risk_value(sigma, base)


def test_branch_continuity():
    eps = 1e-9
    just_above = SET_A.zero_risk_threshold * (1 + 1e-9)
    assert risk_value(just_above, SET_A) < 1e-6
    near_pole = SET_A.infinite_risk_threshold * (1 - 1e-9)
    assert risk_value(near_pole, SET_A) > 1e6


def test_risk_oracle_equivalence_sweep():
    rng = np.random.default_rng(4)
    for _ in range(5):
        sset = SystemicSet(
            zeta=float(rng.uniform(0.4, 2.0)),
            c=float(rng.uniform(1.2, 3.0)),
            eps=float(rng.uniform(0.02, 0.4)),
        )
        # the grid steps over the pole rather than sampling it exactly
        sigmas = np.linspace(0.0, 1.7 * sset.infinite_risk_threshold, 41)
        for sigma in sigmas:
            closed = risk_value(float(sigma), sset)
            searched = risk_search(float(sigma), sset)
            if math.isinf(closed):
                assert math.isinf(searched)
            else:
                assert searched == pytest.approx(closed, abs=1e-6)


def test_risk_profile_zero_sigma():
    stats = PairStats(
        pairs=pair_list(3),
        sigma=np.zeros(3),
        mode_weights=np.zeros(3),
    )
    profile = risk_profile(stats, SET_A)
    assert np.all(profile.values == 0.0)


def test_risk_profile_two_machine_gain_interval(two_machine_spectrum):
    # frequency-only loop with measurement noise 0.3: risk-free exactly for
    # mode gains inside (0.41, 2.76)
    noise = NoiseParams(0.7, 0.3)

    def profile_at(kappa):
        stats = pair_deviations(
            two_machine_spectrum, GainSpec.uniform(0.0, kappa), 0.075, 0.0, noise, 2.0
        )
        return risk_profile(stats, SET_A)

    assert profile_at(1.0).values[0] == 0.0
    assert profile_at(0.3).values[0] > 0.0
    assert profile_at(3.0).values[0] > 0.0


def test_risk_profile_max_finite():
    values = np.array([0.0, 2.5, math.inf])
    profile = RiskProfile(pairs=pair_list(3), values=values)
    assert profile.max_finite == 2.5


def test_risk_never_negative_just_above_zero_risk_threshold():
    # there sigma nu c - zeta can round below zero while sigma > zeta / (c nu); without the clamp
    # this sample gives three negative risks
    rng = np.random.default_rng(0)
    sets = zip(rng.uniform(0.1, 3.0, 2000), rng.uniform(1.01, 5.0, 2000), rng.uniform(0.01, 0.9, 2000))
    for zeta, c, eps in sets:
        sset = SystemicSet(zeta=float(zeta), c=float(c), eps=float(eps))
        sigmas = [sset.zero_risk_threshold]
        for _ in range(20):
            sigmas.append(float(np.nextafter(sigmas[-1], math.inf)))
        assert np.all(risk_value(np.array(sigmas[1:]), sset) >= 0.0), sset
