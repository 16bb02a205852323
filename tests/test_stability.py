import math
import re
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wacrisk import stability
from wacrisk.errors import InfeasibleError, ValidationError
from wacrisk.network import GainSpec
from wacrisk.stability import (
    REGIONS,
    ScaledParams,
    classify,
    classify_many,
    delay_free_stable,
    delay_windows,
    mode_verdicts,
    network_verdict,
    rightmost_root,
    scaled_coordinates,
    _chebyshev_diff,
    _modulus_bound,
    _rightmost_at,
)
from wacrisk.stability import _crossings_many as _crossing_kernel
from wacrisk.stats import NoiseParams
from wacrisk.synthesis import synthesize

from conftest import IEEE39_PARAMS


def _crossings_many(s1, s2, k1, k2):
    """The crossing kernel under the ``np.errstate`` that its callers in the
    package hold: entries that do not exist divide by zero or take roots of negatives."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _crossing_kernel(s1, s2, k1, k2)

# --- table of explicit region predicates, kept independent of classify() ----
# so the implementation is cross-checked against a literal transcription


def _in_w0(sp):
    if sp.s2 != 0.0 or sp.k1 != 0.0:
        return False
    s1, k2 = sp.s1, sp.k2
    if abs(k2) < s1:
        return True
    if k2 > s1:
        root = math.sqrt(k2 * k2 - s1 * s1)
        if root == 0.0:  # k2*k2 - s1*s1 underflowed; degenerate boundary
            return False
        return root < math.pi / 2.0 - math.atan(-s1 / root)
    return False


def _common(sp):
    return sp.k2 + sp.s1 > 0 and sp.k1 + sp.s2 > 0


def _in_w1(sp):
    if sp.s2 == 0.0 and sp.k1 == 0.0:
        return False
    split = sp.s2**2 - sp.k1**2
    return (
        split > 0
        and _common(sp)
        and sp.k2**2 + 2 * sp.s2 - sp.s1**2 <= 2 * math.sqrt(split)
    )


def _in_w2(sp):
    if sp.s2 == 0.0 and sp.k1 == 0.0:
        return False
    if not (sp.s2**2 <= sp.k1**2 and _common(sp)):
        return False
    s = _chain(sp)
    return s.gamma_plus < s.phi_plus


def _in_w3(sp):
    if sp.s2 == 0.0 and sp.k1 == 0.0:
        return False
    split = sp.s2**2 - sp.k1**2
    if not (split > 0 and _common(sp)):
        return False
    if sp.k2**2 + 2 * sp.s2 - sp.s1**2 <= 2 * math.sqrt(split):
        return False
    s = _chain(sp)
    if s.gamma_plus < s.phi_plus:
        return True
    if s.l_star is None:
        return False
    for l in range(1, s.l_star + 1):
        if s.gamma_minus > s.phi_minus + 2 * (l - 1) * math.pi and s.gamma_plus < s.phi_plus + 2 * l * math.pi:
            return True
    return False


# --- scalar classification, kept as the oracle of the array kernel ------------


def _crossing_phase(sp, gamma):
    """Phase phi in [0, 2 pi) at which the delayed term cancels c(i gamma)."""
    s1, s2, k1, k2 = sp.s1, sp.s2, sp.k1, sp.k2
    g2 = gamma * gamma
    denom = k2 * k2 * g2 + k1 * k1
    if denom <= 0.0:
        raise InfeasibleError("crossing phase undefined for vanishing gains")
    cos_val = -(s1 * k2 * g2 + k1 * (s2 - g2)) / denom
    sin_val = (s1 * k1 * gamma - k2 * gamma * (s2 - g2)) / denom
    return math.atan2(sin_val, cos_val) % (2.0 * math.pi)


def _crossings(sp):
    """(gamma, phi) of each positive crossing frequency, gamma+ first; empty
    when none exists.  A scalar transcription, independent of the array helper."""
    s1, s2, k1, k2 = sp.s1, sp.s2, sp.k1, sp.k2
    delta = k2 * k2 + 2.0 * s2 - s1 * s1
    prod = s2 * s2 - k1 * k1  # product of the squared crossing frequencies
    disc = delta * delta - 4.0 * prod

    if prod > 0.0:
        # two-crossing side: both roots exist only for delta > 2 sqrt(prod)
        if delta <= 0.0 or disc <= 0.0:
            return []
        root = math.sqrt(disc)
        squares = (0.5 * (delta + root), 0.5 * (delta - root))
    else:
        # single-crossing side: the larger root is the only positive one
        squares = (0.5 * (delta + math.sqrt(disc)),)
    if squares[-1] <= 0.0:
        return []
    return [(gamma, _crossing_phase(sp, gamma)) for gamma in map(math.sqrt, squares)]


# --- window chain, kept as the oracle of delay_windows ---------------------------

# window chains longer than this are truncated: near-coincident crossing
# frequencies produce astronomically many switches
_MAX_WINDOWS = 4096


class _Chain(NamedTuple):
    """Crossings of one tuple and the chain of stability windows in the delay
    multiplier T; ``gamma_minus``/``phi_minus`` are None with one crossing."""

    gamma_plus: float
    phi_plus: float
    gamma_minus: float | None
    phi_minus: float | None
    l_star: int | None
    windows: list[tuple[float, float]]
    truncated: bool  # the chain ended early: no admissible switch index, or interlacing broke


def _switch_count(gp, pp, gm, pm):
    """Largest admissible window index: the unique integer in an open
    unit-width interval, or None (flagged) when the endpoints are integral."""
    spread = 2.0 * math.pi * (gp - gm)
    if spread <= 0.0:
        return None, True
    lower = (gm * (pp + 2.0 * math.pi) - pm * gp) / spread
    l_star = math.floor(lower) + 1
    if not (lower < l_star < lower + 1.0) or l_star < 1:
        return None, True
    return l_star, False


def _chain(sp):
    """Window chain of the scaled tuple: provided the delay-free part is
    stable (s1 + k2 > 0), c(z; T) = z^2+s1 z+s2 + (k2 z + k1)e^(-zT) is stable
    exactly when T lies in one of the half-open ``windows``.  Built on the
    scalar crossings; raises InfeasibleError when no crossing exists or a
    phase is undefined."""
    crossings = _crossings(sp)
    if not crossings:
        raise InfeasibleError("no positive crossing frequency for this tuple")
    (gp, pp), *minus = crossings
    windows = [(0.0, pp / gp)]
    if not minus:
        return _Chain(gp, pp, None, None, None, windows, False)
    ((gm, pm),) = minus
    l_star, truncated = _switch_count(gp, pp, gm, pm)
    cap = l_star if l_star is not None else int(math.ceil((gm - pm) / (2 * math.pi))) + 1
    if cap > _MAX_WINDOWS:
        cap, truncated = _MAX_WINDOWS, True
    for l in range(1, max(cap, 0) + 1):
        lo, hi = (pm + 2.0 * (l - 1) * math.pi) / gm, (pp + 2.0 * l * math.pi) / gp
        if lo <= windows[-1][1] or hi <= lo:
            truncated = True
            break
        windows.append((lo, hi))
    return _Chain(gp, pp, gm, pm, l_star, windows, truncated)


def _w0_margin(sp):
    """Signed slack of the consensus-branch conditions (s2 = k1 = 0 assumed)."""
    s1, k2 = sp.s1, sp.k2
    branch1 = s1 - abs(k2)
    root = math.sqrt(max(k2 * k2 - s1 * s1, 0.0))
    if k2 > s1 and root > 0.0:
        branch2 = min(k2 - s1, math.pi / 2.0 - math.atan(-s1 / root) - root)
    else:
        branch2 = k2 - s1  # nonpositive or degenerate; keeps the slack continuous
    return max(branch1, branch2)


def _crossing_count(gamma, phi):
    """Number of cut-off multipliers (phi + 2 pi l)/gamma, l >= 0, at most 1."""
    if gamma < phi:
        return 0
    return int(math.floor((gamma - phi) / (2.0 * math.pi))) + 1


def _crossing_slack(gamma, phi):
    """Distance of the unit multiplier to the nearest cut-off, in frequency units."""
    return abs(gamma - phi - 2.0 * math.pi * max(0, round((gamma - phi) / (2.0 * math.pi))))


class _Verdict(NamedTuple):
    stable: bool
    region: str
    margin: float
    boundary: bool


def _scalar_classify(sp, band=1e-9):
    """The one-tuple-at-a-time classification the array kernel replaced."""
    s1, s2, k1, k2 = sp.s1, sp.s2, sp.k1, sp.k2

    if s2 == 0.0 and k1 == 0.0:
        margin = _w0_margin(sp)
        if margin > band:
            return _Verdict(stable=True, region="W0", margin=margin, boundary=False)
        return _Verdict(stable=False, region="none", margin=margin, boundary=abs(margin) <= band)

    hard = k1 + s2
    if hard <= band:
        return _Verdict(stable=False, region="none", margin=hard, boundary=abs(hard) <= band)

    a0 = s1 + k2
    n0 = 0 if a0 > 0.0 else 2
    split = s2 - abs(k1)
    gap = 2.0 * math.sqrt(max(s2 * s2 - k1 * k1, 0.0)) - (k2 * k2 + 2.0 * s2 - s1 * s1)

    crossings = _crossings(sp)
    if not crossings:
        stable = n0 == 0
        region = "W1" if stable else "none"
        margin = min(hard, a0, split, gap) if stable else a0
    else:
        count = n0 + 2 * _crossing_count(*crossings[0]) - 2 * sum(_crossing_count(g, p) for g, p in crossings[1:])
        slack = min(_crossing_slack(g, p) for g, p in crossings)
        stable = count == 0
        if split <= 0.0:
            region = "W2"
            margin = min(hard, abs(a0), -split, slack)
        else:
            region = "W3"
            margin = min(hard, abs(a0), split, -gap, slack)
        if not stable:
            region = "none"
            margin = -abs(margin) if margin > 0 else margin

    if stable and margin > band:
        return _Verdict(stable=True, region=region, margin=margin, boundary=False)
    return _Verdict(stable=False, region="none", margin=margin, boundary=abs(margin) <= band)


def _assert_kernel_matches_oracle(tuples, band=1e-9):
    # region, stable and boundary exactly; the margin up to the last bits of the
    # transcendental functions (NumPy and libm round arctan2 differently)
    s1, s2, k1, k2 = np.array(tuples, dtype=float).T
    v = classify_many(s1, s2, k1, k2, band)
    for i, row in enumerate(tuples):
        sp = ScaledParams(*row)
        try:
            want = _scalar_classify(sp, band)
        except InfeasibleError:  # crossing phase undefined: the oracle gives no verdict
            continue
        got = (bool(v.stable[i]), REGIONS[v.region[i]], bool(v.boundary[i]))
        assert got == (want.stable, want.region, want.boundary), (sp, want, v.margin[i])
        assert v.margin[i] == pytest.approx(want.margin, rel=1e-9, abs=1e-12), (sp, want, v.margin[i])
        one = classify(sp, band)
        assert (bool(one.stable), REGIONS[one.region], bool(one.boundary)) == got
        assert float(one.margin).hex() == float(v.margin[i]).hex()


_magnitudes = st.one_of(st.just(0.0), st.floats(0.0, 40.0), st.floats(0.0, 1e-6), st.floats(0.0, 1e3))


@settings(max_examples=400, deadline=None)
@given(
    s1=_magnitudes,
    s2=_magnitudes,
    k1=st.one_of(_magnitudes, _magnitudes.map(lambda v: -v)),
    k2=st.one_of(_magnitudes, _magnitudes.map(lambda v: -v)),
    band=st.sampled_from([1e-9, 1e-3]),
)
def test_classify_many_matches_scalar_oracle(s1, s2, k1, k2, band):
    _assert_kernel_matches_oracle([(s1, s2, k1, k2)], band)


def test_classify_many_matches_scalar_oracle_on_criterion_07_sample():
    # the stream acceptance criterion 07 draws from; its 1000 tuples are among
    # the first 1001 draws, skipped ones included
    rng = np.random.default_rng(707)
    drawn = [(*rng.uniform(0.0, 3.0, 2), *rng.uniform(-3.0, 3.0, 2)) for _ in range(1200)]
    for band in (1e-9, 1e-3):
        _assert_kernel_matches_oracle(drawn, band)


def test_classify_many_broadcasts_and_validates():
    v = classify_many(0.5, 1.0, np.linspace(-2.0, 2.0, 5)[:, None], np.linspace(-1.0, 3.0, 4))
    assert v.stable.shape == v.region.shape == v.margin.shape == v.boundary.shape == (5, 4)
    empty = classify_many(np.zeros(0), 1.0, 0.0, 0.0)
    assert empty.stable.shape == (0,)
    with pytest.raises(ValidationError):
        classify_many([0.5, -0.1], 1.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        classify_many(0.5, 1.0, [0.0, math.nan], 0.0)


# --- classify_many as it stood before its Python-level trims ----------------------


def _reference_classify_many(s1, s2, k1, k2, band=stability.BOUNDARY_BAND):
    """``classify_many`` as it stood before its trims: the inputs copied into one
    (4, N) array for validation, an errstate nested in the crossing helper, and
    np.stack; the oracle the kernel must equal bit for bit."""
    s1, s2, k1, k2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (s1, s2, k1, k2)))
    values = np.array([s1, s2, k1, k2])
    if not np.isfinite(values).all():
        raise ValidationError("s1, s2, k1 and k2 must be finite")
    if not (values[:2] >= 0.0).all():
        raise ValidationError("s1 and s2 must be nonnegative")
    two_pi = 2.0 * math.pi
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hard = k1 + s2
        a0 = s1 + k2
        start_stable = a0 > 0.0
        split = s2 - np.abs(k1)
        w3 = split > 0.0
        delta = k2 * k2 + 2.0 * s2 - s1 * s1
        prod = s2 * s2 - k1 * k1
        gap = 2.0 * np.sqrt(np.maximum(prod, 0.0)) - delta
        disc = delta * delta - 4.0 * prod
        root = np.sqrt(disc)
        squares = 0.5 * np.stack([delta + root, delta - root])
        two = prod > 0.0
        crossing = np.where(two, (delta > 0.0) & (disc > 0.0) & (squares[1] > 0.0), squares[0] > 0.0)
        gamma = np.sqrt(squares)
        g2 = gamma * gamma
        denom = k2 * k2 * g2 + k1 * k1
        cos_val = -(s1 * k2 * g2 + k1 * (s2 - g2)) / denom
        sin_val = (s1 * k1 * gamma - k2 * gamma * (s2 - g2)) / denom
        phi = np.mod(np.arctan2(sin_val, cos_val), two_pi)
        cutoffs = np.where(gamma < phi, 0.0, np.floor((gamma - phi) / two_pi) + 1.0)
        slacks = np.abs(gamma - phi - two_pi * np.maximum(0.0, np.rint((gamma - phi) / two_pi)))
        crossing_stable = np.where(start_stable, 0.0, 2.0) + 2.0 * (cutoffs[0] - np.where(two, cutoffs[1], 0.0)) == 0.0
        slack = np.where(two, np.minimum(slacks[0], slacks[1]), slacks[0])
        crossing_margin = np.minimum(
            np.minimum(np.minimum(hard, np.abs(a0)), np.where(w3, np.minimum(split, -gap), -split)), slack
        )
        crossing_margin = np.where(crossing_stable, crossing_margin, np.minimum(crossing_margin, -crossing_margin))
        free_margin = np.where(start_stable, np.minimum(np.minimum(np.minimum(hard, a0), split), gap), a0)
        margin = np.where(hard <= band, hard, np.where(crossing, crossing_margin, free_margin))
        stable = np.where(crossing, crossing_stable, start_stable)
        region = 2 + crossing * (1 + w3)
        w0 = (s2 == 0.0) & (k1 == 0.0)
        if w0.any():
            root = np.sqrt(np.maximum(k2 * k2 - s1 * s1, 0.0))
            arccot = math.pi / 2.0 - np.arctan(-s1 / root)
            cut = (k2 > s1) & (root > 0.0)
            w0_margin = np.maximum(s1 - np.abs(k2), np.where(cut, np.minimum(k2 - s1, arccot - root), k2 - s1))
            margin = np.where(w0, w0_margin, margin)
            stable |= w0
            region = np.where(w0, 1, region)
    stable &= margin > band
    return stability.Verdicts(
        stable=stable, region=region * stable, margin=margin, boundary=~stable & (np.abs(margin) <= band)
    )


def _assert_same_verdicts(got, want):
    """Every field equal in dtype, shape and value; the margin through its int64
    view, so that -0.0 and 0.0 count as different."""
    for field in stability.Verdicts._fields:
        mine, theirs = np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape, field
        if mine.dtype == np.float64:
            mine, theirs = mine.view(np.int64), theirs.view(np.int64)
        assert np.array_equal(mine, theirs), field


def _reference_stream():
    """200,000 seeded criterion-07 tuples, then the zero faces and probes around
    the boundary band of the slacks hard = s2 + k1, a0 = s1 + k2 and split = s2 - |k1|."""
    rng = np.random.default_rng(2408)
    random = np.column_stack([rng.uniform(0.0, 3.0, (200_000, 2)), rng.uniform(-3.0, 3.0, (200_000, 2))])
    faces = np.repeat(random[:500], 5, axis=0)
    faces[0::5, 1] = 0.0
    faces[1::5, 2] = 0.0
    faces[2::5, 1:3] = 0.0
    faces[3::5, 0] = 0.0
    faces[4::5, 3] = -0.0
    offsets = np.array([-2e-9, -1e-9, -5e-10, -0.0, 0.0, 5e-10, 1e-9, 2e-9])
    base = np.repeat(random[:200], len(offsets), axis=0)
    eps = np.tile(offsets, 200)
    hard, a0, split = base.copy(), base.copy(), base.copy()
    hard[:, 2] = eps - hard[:, 1]
    a0[:, 3] = eps - a0[:, 0]
    split[:, 1] = np.abs(split[:, 2]) + np.abs(eps)
    return np.vstack([random, faces, hard, a0, split])


def test_classify_many_matches_the_reference_bit_for_bit():
    tuples = _reference_stream()
    for band in (stability.BOUNDARY_BAND, 1e-3):
        _assert_same_verdicts(classify_many(*tuples.T, band=band), _reference_classify_many(*tuples.T, band=band))
    # one tuple (0-d entries), Python lists and broadcast inputs
    for row in tuples[-400:]:
        _assert_same_verdicts(classify(ScaledParams(*row)), _reference_classify_many(*row))
    lists = [list(column) for column in tuples[-64:].T]
    _assert_same_verdicts(classify_many(*lists), _reference_classify_many(*lists))
    k1, k2 = np.linspace(-2.0, 2.0, 5)[:, None], np.linspace(-1.0, 3.0, 4)
    _assert_same_verdicts(classify_many(0.5, 1.0, k1, k2), _reference_classify_many(0.5, 1.0, k1, k2))
    empty = np.zeros(0)
    _assert_same_verdicts(classify_many(empty, 1.0, 0.0, 0.0), _reference_classify_many(empty, 1.0, 0.0, 0.0))


def test_mode_verdicts_match_the_reference_bit_for_bit():
    # physical modes at tau > 0 through the scaled tuples, at tau = 0 through the delay-free rule
    rng = np.random.default_rng(2409)
    d, lam = rng.uniform(0.0, 0.5, 2000), rng.uniform(0.0, 120.0, 2000)
    mu, kappa = rng.uniform(-1.0, 2.0, 2000), rng.uniform(-1.0, 5.0, 2000)
    lam[:200] = mu[:200] = 0.0
    for tau in (0.01, 0.03, 0.3):
        got = mode_verdicts(d, lam, mu, kappa, tau)
        _assert_same_verdicts(got, _reference_classify_many(*scaled_coordinates(d, lam, mu, kappa, tau)))
    stable = delay_free_stable(d, lam, mu, kappa) | ((lam == 0.0) & (mu == 0.0) & (kappa + d > 0.0))
    want = stability.Verdicts(stable, np.where(stable, REGIONS.index("delay-free"), 0),
                              np.full(2000, math.nan), np.zeros(2000, dtype=bool))
    _assert_same_verdicts(mode_verdicts(d, lam, mu, kappa, 0.0), want)


@pytest.mark.parametrize(
    "values",
    [(math.nan, 1.0, 0.0, 0.0), (0.5, math.inf, 0.0, 0.0), (0.5, 1.0, -math.inf, 0.0), (0.5, 1.0, 0.0, math.nan),
     (math.inf, 1.0, -math.inf, 0.0), (-0.1, 1.0, 0.0, 0.0), (0.5, -1e-300, 0.0, 0.0),
     (1e308, 1e308, 1e308, 1e308), (1e308, 0.0, -1e308, -1e308), (0.0, -0.0, -0.0, 0.0)],
)
def test_classify_many_validates_like_the_reference(values):
    # a finite tuple whose sum overflows is checked term by term, and passes
    try:
        want = _reference_classify_many(*values)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=re.escape(str(exc))):
            classify_many(*values)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_same_verdicts(classify_many(*values), want)


# --- delay-free conditions ----------------------------------------------------


def test_delay_free_examples():
    assert delay_free_stable(0.075, 1.584, 0.0, 0.0)
    assert not delay_free_stable(0.075, 0.0, 0.0, 0.0)
    assert not delay_free_stable(1.0, 1.0, -2.0, 0.0)


# --- crossing structure and delay windows ------------------------------------------


def test_crossing_structure_single_root():
    # closed-form root: gamma+^2 = (-1 + sqrt(5)) / 2
    gamma, phi, crossing, two, _ = _crossings_many(1.0, 0.0, 1.0, 0.0)
    assert crossing and not two
    assert gamma[0] == pytest.approx(math.sqrt((-1 + math.sqrt(5.0)) / 2.0), abs=1e-9)
    assert gamma[0] == pytest.approx(0.78615, abs=1e-5)
    assert phi[0] == pytest.approx(math.atan2(0.78615, 0.61803), abs=1e-4)
    # as a physical mode: one window, from zero delay to the first cut-off
    assert delay_windows(1.0, 0.0, 1.0, 0.0, 0.5) == (0.0, phi[0] / gamma[0])


def test_crossing_structure_pure_delayed_damping():
    gamma, _, crossing, _, _ = _crossings_many(0.0, 0.0, 0.0, 1.0)
    assert crossing and gamma[0] == pytest.approx(1.0, abs=1e-12)
    # z + e^(-z tau) is stable exactly for tau < pi / 2
    assert delay_windows(0.0, 0.0, 0.0, 1.0, 1.0) == (0.0, pytest.approx(math.pi / 2.0, rel=1e-15))


def test_crossing_structure_no_crossing():
    assert not _crossings_many(1.0, 1.0, 0.0, 0.0)[2]
    # W1 with and without a delayed term: stable at every delay
    for mode in ((1.0, 1.0, 0.0, 0.0), (2.0, 1.0, 0.1, 0.1)):
        assert not _crossings_many(*mode)[2]
        assert REGIONS[mode_verdicts(*mode, 0.3).region] == "W1"
        assert delay_windows(*mode, 0.3) == (0.0, math.inf)


def test_crossing_structure_vanishing_gains():
    # k1 = k2 = 0 with a crossing (tiny s1 = s2): the phase is 0/0, refused
    sp = ScaledParams(1.5507577558863215e-160, 1.5507577558863215e-160, 0.0, 0.0)
    with pytest.raises(InfeasibleError, match="vanishing gains"):
        _crossings(sp)
    assert _crossings_many(sp.s1, sp.s2, sp.k1, sp.k2)[2]
    # the window kernel never reads that phase: NaN on this (unstable) mode,
    # +inf on a stable mode without a delayed term, and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = delay_windows(sp.s1, sp.s2, sp.k1, sp.k2, 1.0)
        assert np.isnan(lo) and np.isnan(hi)
        assert delay_windows(np.array([sp.s1, 0.075]), np.array([sp.s2, 1.584]), 0.0, 0.0, 0.1)[1][1] == math.inf


def test_phase_unit_circle():
    # the (sin, cos) pair must sit on the unit circle at a crossing frequency
    rng = np.random.default_rng(8)
    s1, s2 = rng.uniform(0.1, 3.0, (2, 200))
    k1, k2 = rng.uniform(-3.0, 3.0, (2, 200))
    gamma, _, crossing, two, _ = _crossings_many(s1, s2, k1, k2)
    present = np.stack([crossing, crossing & two])
    assert present[0].sum() >= 25 and present[1].sum() >= 5
    g2 = gamma[present] ** 2
    s1, s2, k1, k2 = (np.broadcast_to(v, gamma.shape)[present] for v in (s1, s2, k1, k2))
    denom = k2**2 * g2 + k1**2
    cos_v = -(s1 * k2 * g2 + k1 * (s2 - g2)) / denom
    sin_v = (s1 * k1 * gamma[present] - k2 * gamma[present] * (s2 - g2)) / denom
    assert np.allclose(cos_v**2 + sin_v**2, 1.0, rtol=0.0, atol=1e-8)


def test_crossing_structure_matches_scalar_oracle():
    # the array helper against the scalar transcription on seeded tuples, a
    # quarter of them on each of the faces s2 = 0, k1 = 0 and k2 = 0
    rng = np.random.default_rng(714)
    close = lambda a, b: abs(a - b) <= 1e-15 * abs(b)
    rows = []
    for i in range(12000):
        scale = 3.0 if i < 6000 else 30.0
        row = [*rng.uniform(0.0, scale, 2), *rng.uniform(-scale, scale, 2)]
        if i % 4:
            row[(1, 2, 3)[i % 4 - 1]] = 0.0
        rows.append(row)
    gamma, phi, crossing, two, _ = _crossings_many(*np.array(rows).T)
    counts = {"none": 0, "single": 0, "two": 0}
    for i, row in enumerate(rows):
        crossings = _crossings(ScaledParams(*row))
        assert bool(crossing[i]) == bool(crossings), row
        if not crossings:
            counts["none"] += 1
            continue
        counts["two" if len(crossings) == 2 else "single"] += 1
        assert bool(two[i]) == (len(crossings) == 2), row
        got = list(zip(gamma[:, i].tolist(), phi[:, i].tolist()))[: len(crossings)]
        assert all(close(a, b) for pair, want in zip(got, crossings) for a, b in zip(pair, want)), (row, got)
    assert min(counts.values()) > 1000, counts


def test_delay_windows_match_window_chain():
    # physical modes: the chain of windows at unit delay is in physical units,
    # and delay_windows returns the window that holds tau.  Half the modes are
    # drawn around the benchmark networks' gains and delays, half from a wider
    # delay range where tau often lies in a later window of the chain
    rng = np.random.default_rng(715)
    n = 2000
    d = rng.uniform(0.05, 1.0, 2 * n)
    lam = np.concatenate([rng.uniform(0.5, 100.0, n), rng.uniform(0.5, 10.0, n)])
    mu = np.concatenate([rng.uniform(0.0, 5.0, n), rng.uniform(-1.0, 1.0, n)])
    kappa = np.concatenate([rng.uniform(0.0, 5.0, n), rng.uniform(0.0, 3.0, n)])
    tau = np.concatenate([rng.uniform(0.01, 0.3, n), rng.uniform(0.01, 5.0, n)])
    stable = np.array([bool(mode_verdicts(*mode).stable) for mode in zip(d, lam, mu, kappa, tau)])
    windows = [delay_windows(*mode) for mode in zip(d, lam, mu, kappa, tau)]
    counts = {"inf": 0, "first": 0, "later": 0}
    for i in range(2 * n):
        lo, hi = windows[i]
        if not stable[i]:
            assert np.isnan(lo) and np.isnan(hi)
            continue
        try:
            chain = _chain(ScaledParams(d[i], lam[i], mu[i], kappa[i]))
        except InfeasibleError:
            assert (lo, hi) == (0.0, math.inf)
            counts["inf"] += 1
            continue
        ((want_lo, want_hi),) = [w for w in chain.windows if w[0] <= tau[i] < w[1]]
        assert lo == pytest.approx(want_lo, rel=1e-11, abs=0.0) and hi == pytest.approx(want_hi, rel=1e-11)
        counts["later" if want_lo > 0.0 else "first"] += 1
    assert min(counts.values()) >= 50, counts


# --- region classification ------------------------------------------------------


def test_classify_examples():
    assert REGIONS[classify(ScaledParams(0.0075, 0.0, 0.0, 0.005)).region] == "W0"
    v = classify(ScaledParams(0.0075, 0.01584, 0.0, 0.0))
    assert v.stable and REGIONS[v.region] == "W1"
    assert rightmost_root(ScaledParams(0.0075, 0.01584, 0.0, 0.0)).real < 0
    # pure delayed damping beyond the pi/2 threshold
    v = classify(ScaledParams(0.0, 0.0, 0.0, 2.0))
    assert not v.stable
    assert rightmost_root(ScaledParams(0.0, 0.0, 0.0, 2.0)).real > 0


def test_classify_w2_example():
    v = classify(ScaledParams(1.0, 0.0, 1.0, 0.0))
    assert v.stable and REGIONS[v.region] == "W2"
    assert rightmost_root(ScaledParams(1.0, 0.0, 1.0, 0.0)).real < 0


def test_w0_negative_gain_branch():
    # the first-order branch is one-sided: strong negative delayed damping is
    # unstable even though the magnitude matches a stable positive gain
    s1 = 0.5
    assert classify(ScaledParams(s1, 0.0, 0.0, 1.0)).stable
    v = classify(ScaledParams(s1, 0.0, 0.0, -1.0))
    assert not v.stable
    assert rightmost_root(ScaledParams(s1, 0.0, 0.0, -1.0)).real > 0


def test_boundary_band_flag():
    v = classify(ScaledParams(0.0075, 0.0, 0.0, 0.0075 + 1e-12))
    assert not v.stable and v.boundary


@settings(max_examples=300, deadline=None)
@given(
    s1=st.floats(0.0, 3.0),
    s2=st.floats(0.0, 3.0),
    k1=st.floats(-3.0, 3.0),
    k2=st.floats(-3.0, 3.0),
)
def test_region_exclusivity(s1, s2, k1, k2):
    sp = ScaledParams(s1, s2, k1, k2)
    try:
        claims = [_in_w0(sp), _in_w1(sp), _in_w2(sp), _in_w3(sp)]
    except InfeasibleError:
        return
    assert sum(claims) <= 1


def test_classify_matches_literal_table_on_start_stable_quadrant():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 400:
        sp = ScaledParams(*rng.uniform(0.0, 3.0, 2), *rng.uniform(-3.0, 3.0, 2))
        if not (sp.k2 + sp.s1 > 1e-3 and sp.k1 + sp.s2 > 1e-3):
            continue
        v = classify(sp)
        if abs(v.margin) <= 1e-6:
            continue
        try:
            table = _in_w0(sp) or _in_w1(sp) or _in_w2(sp) or _in_w3(sp)
        except InfeasibleError:
            continue
        checked += 1
        assert table == v.stable, f"{sp} classify={v} literal-table={table}"


def test_delay_stabilised_tuple_recognised():
    # start-unstable tuple rescued by one stabilising crossing; the time-domain
    # decay rate of this mode is 0.105, matching the rightmost root
    sp = ScaledParams(1.9012593672172078, 2.7152237339489274, 0.05808097136486934, -2.167463252479364)
    v = classify(sp)
    assert v.stable and REGIONS[v.region] == "W3"
    root = rightmost_root(sp)
    assert root.real == pytest.approx(-0.105, abs=5e-3)


# --- rightmost root oracle -------------------------------------------------------


def test_rightmost_root_quadratic():
    root = rightmost_root(ScaledParams(1.0, 1.0, 0.0, 0.0))
    assert root.real == pytest.approx(-0.5, abs=1e-12)
    assert abs(root.imag) == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)


def test_rightmost_root_w0_crossing():
    root = rightmost_root(ScaledParams(0.0, 0.0, 0.0, math.pi / 2.0))
    assert abs(root.real) < 1e-9
    assert abs(root.imag) == pytest.approx(math.pi / 2.0, abs=1e-9)


def test_rightmost_root_resolution_validated():
    with pytest.raises(ValidationError):
        rightmost_root(ScaledParams(1.0, 1.0, 0.0, 0.5), resolution=8)
    for bad in (40.5, 33.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="resolution"):
            rightmost_root(ScaledParams(1.0, 1.0, 0.0, 0.5), resolution=bad)


def test_rightmost_root_ladder_matches_full_resolution():
    # the 32/40-node ladder returns a 40-node root only when the two rungs
    # agree and no root to its right can lie outside the disc they resolve;
    # either way the answer must be the 128-node root
    rng = np.random.default_rng(708)
    tuples = [
        ScaledParams(1.9012593672172078, 2.7152237339489274, 0.05808097136486934, -2.167463252479364),
        ScaledParams(0.0, 0.0, 0.0, math.pi / 2.0),
        ScaledParams(1.0, 1.0, 0.0, 0.0),
        # rightmost roots near 13j and 17j, outside the disc the low rungs
        # resolve, while both rungs agree on a root with real part near -4
        ScaledParams(0.31183145201048545, 169.33057958903026, 3.2770259382044173, -0.18160172726167745),
        ScaledParams(0.14792203578495655, 327.8506876477108, 1.8328690600325714, 0.5741938831096021),
    ]
    while len(tuples) < 65:
        sp = ScaledParams(*rng.uniform(0.0, 3.0, 2), *rng.uniform(-3.0, 3.0, 2))
        verdict = classify(sp, band=1e-3)
        if not (verdict.boundary or abs(verdict.margin) <= 1e-3):
            tuples.append(sp)
    for sp in tuples:
        try:
            full = _rightmost_at(sp, 128)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                rightmost_root(sp)
            continue
        root = rightmost_root(sp)
        # conjugate roots tie on the real part, so the sign of imag is not compared
        assert abs(root.real - full.real) <= 1e-10, sp
        assert abs(abs(root.imag) - abs(full.imag)) <= 1e-10, sp


def test_rightmost_root_refuses_unresolved_roots():
    # the rightmost roots lie near -0.14 +- 44.8j, outside the disc |z| <= 32
    # that 128 nodes resolve; the collocation finds a root near -5.93 +- 30.3j
    # and cannot rule out roots to its right
    sp = ScaledParams(0.2, 2000.0, 0.0, 0.1)
    with pytest.raises(InfeasibleError, match="unresolved at 128 nodes") as refusal:
        rightmost_root(sp)
    # the refusal names a resolution whose disc holds every root right of the one it saw
    nodes = int(re.search(r"about (\d+) nodes would resolve it", str(refusal.value)).group(1))
    assert nodes > 128
    for resolution in (nodes, 256):
        root = rightmost_root(sp, resolution=resolution)
        assert root.real == pytest.approx(-0.14108666, abs=1e-6)
        assert root.imag == pytest.approx(44.76162016, abs=1e-6)


@pytest.mark.parametrize(
    "sp",
    [
        ScaledParams(40.0, 1.0, 0.1, 0.1),
        ScaledParams(60.0, 3.0, -0.5, 2.0),
        ScaledParams(100.0, 50.0, 10.0, -5.0),
    ],
)
def test_strongly_damped_roots_resolved_at_default_resolution(sp):
    # s1 alone exceeds the disc |z| <= 32 of 128 nodes, but with Re z >= x0 a
    # root also has |z| <= c / (x0 + s1 - |k2| e^(-x0)), which keeps these
    # small real roots resolved at the default resolution
    root = rightmost_root(sp)
    assert _modulus_bound(sp, root.real) <= 1.0
    assert abs(root) <= _modulus_bound(sp, root.real) * (1.0 + 1e-12)
    full = _rightmost_at(sp, 256)
    assert abs(root - full) <= 1e-10 * (1.0 + abs(full))


def test_rightmost_root_canonical_conjugate():
    # of a conjugate pair the root with imag >= 0 comes back, at every resolution,
    # so the 32- and 40-node rungs agree whenever their roots do
    rng = np.random.default_rng(709)
    for _ in range(40):
        sp = ScaledParams(*rng.uniform(0.0, 3.0, 2), *rng.uniform(-3.0, 3.0, 2))
        try:
            rungs = [_rightmost_at(sp, nodes) for nodes in (32, 40, 128)]
        except InfeasibleError:
            continue
        assert all(z.imag >= 0.0 for z in rungs), sp
        assert abs(rungs[1] - rungs[2]) <= 1e-9 * (1.0 + abs(rungs[2])), sp
    assert rightmost_root(ScaledParams(1.0, 1.0, 0.0, 0.0)).imag > 0.0


def test_oracle_agreement_sample():
    # small pilot of the full acceptance sweep
    rng = np.random.default_rng(99)
    total = agree = 0
    while total < 120:
        sp = ScaledParams(*rng.uniform(0.0, 3.0, 2), *rng.uniform(-3.0, 3.0, 2))
        v = classify(sp, band=1e-3)
        if v.boundary or abs(v.margin) <= 1e-3:
            continue
        try:
            root = rightmost_root(sp, resolution=64)
        except InfeasibleError:
            continue
        if abs(root.real) <= 1e-6:
            continue
        total += 1
        agree += (root.real < 0) == v.stable
    assert agree == total


# --- reduced collocation against the full-state oracle ---------------------------


def _full_collocation_matrix(a0, a1, nodes):
    """The full m (nodes + 1) collocation: every state component at every node."""
    m = a0.shape[0]
    big = np.kron(_chebyshev_diff(nodes), np.eye(m))
    big[:m, :] = 0.0
    big[:m, :m] = a0
    big[:m, -m:] += a1
    return big


def _match_as_sets(eigs, full_eigs, nodes):
    """The eigenvalues of both matrices in |z| <= nodes / 4, Re z >= -5 match as
    sets to 1e-10 relative.  Further left the collocations' real spurious
    eigenvalues are so ill-conditioned that two backward-stable computations
    of them differ by up to O(1) at 128 nodes."""
    for inner, every in ((eigs, full_eigs), (full_eigs, eigs)):
        for z in inner[(np.abs(inner) <= nodes / 4.0) & (inner.real >= -5.0)]:
            gap = np.min(np.abs(every - z))
            assert gap <= 1e-10 * max(1.0, abs(z)), (z, gap, nodes)


def _rung(sp, nodes, matrix):
    """(``_rightmost_at(sp, nodes)`` on ``matrix``, None when refused; every
    collocation eigenvalue it computed)."""
    seen = []
    eigvals = np.linalg.eigvals
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "_collocation_matrix", matrix)
        mp.setattr(np.linalg, "eigvals", lambda a: seen.append(eigvals(a)) or seen[-1])
        try:
            root = _rightmost_at(sp, nodes)
        except InfeasibleError:
            root = None
    return root, seen[0]


def test_rightmost_collocation_matches_full_state_oracle():
    # the (m + N) matrix on the delayed channel has the eigenvalues of the
    # m (N + 1) full-state collocation inside the disc |z| <= N / 4 it
    # resolves (the node block's spurious spectrum lies outside it at 32, 40
    # and 128 nodes), so each rung gives the full rung's root or refusal
    rng = np.random.default_rng(719)
    sample = np.column_stack([rng.uniform(0.0, 3.0, (5000, 2)), rng.uniform(-3.0, 3.0, (5000, 2))])
    consensus = [(s1, 0.0, 0.0, k2) for s1, k2 in zip(rng.uniform(0.0, 3.0, 200), rng.uniform(-3.0, 3.0, 200))]
    damped = [(40.0, 1.0, 0.1, 0.1), (60.0, 3.0, -0.5, 2.0), (100.0, 50.0, 10.0, -5.0)]
    damped += list(np.column_stack([rng.uniform(8.0, 120.0, 20), rng.uniform(0.0, 60.0, 20),
                                    rng.uniform(-10.0, 10.0, (20, 2))]))
    # (tuple, whether to check the 128-node rung even where the ladder stops at 40)
    tuples = [(row, index % 100 == 0) for index, row in enumerate(sample)]
    tuples += [(row, index % 10 == 0) for index, row in enumerate(consensus)]
    tuples += [(row, True) for row in damped]
    reduced = stability._collocation_matrix
    counts = {"refused": 0, "fallback": 0}
    for row, spread in tuples:
        sp = ScaledParams(*(float(v) for v in row))
        channels = 1 if sp.s2 == 0.0 and sp.k1 == 0.0 else 2
        rungs = []
        for nodes in (32, 40, 128):
            if nodes == 128 and not (spread or _ladder_falls_back(rungs)):
                continue
            root, eigs = _rung(sp, nodes, reduced)
            want, full_eigs = _rung(sp, nodes, _full_collocation_matrix)
            assert eigs.size == channels + nodes and full_eigs.size == channels * (nodes + 1)
            _match_as_sets(eigs, full_eigs, nodes)
            assert (root is None) == (want is None), (sp, nodes)
            if root is not None:
                assert abs(root - want) <= 1e-12 * (1.0 + abs(want)), (sp, nodes, root, want)
            counts["refused"] += root is None
            rungs.append(root)
        counts["fallback"] += _ladder_falls_back(rungs[:2])
    assert counts["refused"] > 0 and counts["fallback"] > 0, counts


def _ladder_falls_back(rungs):
    """Whether ``rightmost_root`` goes past the 32/40 rungs with these roots."""
    coarse, fine = rungs
    return coarse is None or fine is None or abs(fine - coarse) > 1e-9 * (1.0 + abs(fine))


def test_rightmost_collocation_general_rank_two():
    # a general delayed term: A1 with two nonzero rows (0 and 2) of three
    # keeps two channels, a full-rank A1 every one
    rng = np.random.default_rng(720)
    a0 = rng.uniform(-1.0, 1.0, (3, 3)) - 1.5 * np.eye(3)
    a1 = np.zeros((3, 3))
    a1[[0, 2]] = rng.uniform(-1.0, 1.0, (2, 3))
    for nodes in (32, 40, 128):
        for delayed, channels in ((a1, 2), (a1 + np.diag([0.0, 0.4, 0.0]), 3)):
            big = stability._collocation_matrix(a0, delayed, nodes)
            assert big.shape == (3 + channels * nodes,) * 2
            eigs = np.linalg.eigvals(big)
            full_eigs = np.linalg.eigvals(_full_collocation_matrix(a0, delayed, nodes))
            assert np.count_nonzero((np.abs(eigs) <= nodes / 4.0) & (eigs.real >= -5.0)) >= 3
            _match_as_sets(eigs, full_eigs, nodes)
    # the differentiation matrix is cached read-only and shared between calls
    assert _chebyshev_diff(32) is _chebyshev_diff(32)
    with pytest.raises(ValueError):
        _chebyshev_diff(32)[0, 0] = 0.0


# --- switch windows --------------------------------------------------------------


def test_window_interlacing():
    rng = np.random.default_rng(11)
    seen = 0
    while seen < 40:
        sp = ScaledParams(*rng.uniform(0.0, 2.0, 2), *rng.uniform(-2.0, 2.0, 2))
        v = classify(sp)
        if not (v.stable and REGIONS[v.region] == "W3"):
            continue
        s = _chain(sp)
        if s.gamma_minus is None or len(s.windows) < 2:
            continue
        seen += 1
        flat = [b for w in s.windows for b in w]
        assert all(a < b for a, b in zip(flat[1:-1:1], flat[2::1])), s
        if s.l_star is not None:
            assert s.l_star >= 1


def test_l_star_interval_width_one():
    sp = ScaledParams(0.7062455895238811, 1.3041471474708985, 0.3096898428533228, 0.7895438142716777)
    s = _chain(sp)
    assert s.gamma_minus is not None and s.l_star == 2 and len(s.windows) == 3
    gp, pp, gm, pm = s.gamma_plus, s.phi_plus, s.gamma_minus, s.phi_minus
    spread = 2.0 * math.pi * (gp - gm)
    lower = (gm * (pp + 2.0 * math.pi) - pm * gp) / spread
    assert lower < s.l_star < lower + 1.0


def test_scale_consistency_delay_sweep():
    # physical mode: the delay windows computed once from the unscaled
    # parameters must agree with scaled-tuple classification at every delay,
    # and delay_windows must return the one that holds the delay
    d, lam, mu, kappa = 0.5, 4.0, 0.8, 1.1
    struct = _chain(ScaledParams(d, lam, mu, kappa))
    assert len(struct.windows) >= 2
    for tau in np.linspace(0.01, 3.0, 120):
        sp = ScaledParams.from_physical(d, lam, mu, kappa, tau)
        holding = [(lo, hi) for lo, hi in struct.windows if lo < tau < hi]
        near_edge = min(
            (abs(tau - edge) for w in struct.windows for edge in w), default=math.inf
        )
        if near_edge < 1e-3:
            continue
        assert classify(sp).stable == bool(holding), (tau, classify(sp), struct.windows)
        lo, hi = delay_windows(d, lam, mu, kappa, tau)
        if holding:
            assert (lo, hi) == pytest.approx(holding[0], rel=1e-14)
        else:
            assert np.isnan(lo) and np.isnan(hi)


def test_delay_window_edges_flip_verdict_and_root():
    # modes drawn like the acceptance sample at unit delay, start-unstable ones
    # included: the verdict flips at every finite edge, and the rightmost root
    # crosses the imaginary axis there (probes inside the boundary band excluded)
    rng = np.random.default_rng(716)
    n = 20000
    d, lam = rng.uniform(0.0, 3.0, (2, n))
    mu, kappa = rng.uniform(-3.0, 3.0, (2, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = delay_windows(d, lam, mu, kappa, 1.0)
    stable = mode_verdicts(d, lam, mu, kappa, 1.0).stable
    assert np.array_equal(np.isnan(lo), ~stable) and np.array_equal(np.isnan(hi), ~stable)
    assert np.all(lo[stable] < 1.0) and np.all(hi[stable] > 1.0)
    flips = 0
    for edge, rising in ((hi, False), (lo, True)):
        on = np.flatnonzero(np.isfinite(edge) & (edge > 0.0))
        below, above = (classify_many(*scaled_coordinates(d[on], lam[on], mu[on], kappa[on], edge[on] * f))
                        for f in (1.0 - 1e-6, 1.0 + 1e-6))
        clear = ~(below.boundary | above.boundary)
        assert clear.sum() >= 0.99 * on.size
        assert np.array_equal(below.stable[clear], ~above.stable[clear])
        assert np.array_equal(above.stable[clear], np.full(clear.sum(), rising))
        flips += clear.sum()
    assert flips > 4000

    checked = 0
    for i in np.flatnonzero(np.isfinite(hi))[:50]:
        for edge, sign in ((hi[i], 1.0), (lo[i], -1.0)):
            if edge > 0.0:
                below, above = (rightmost_root(ScaledParams.from_physical(d[i], lam[i], mu[i], kappa[i], edge * f)).real
                                for f in (1.0 - 1e-6, 1.0 + 1e-6))
                assert sign * below < 0.0 < sign * above, (i, edge, below, above)
                checked += 1
    assert checked >= 60


def test_delay_windows_special_modes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # consensus branch (lam = mu = 0): the arccot cut-off, or no crossing for |kappa| < d
        d, kappa, tau = 0.5, np.array([1.0, 2.0, 0.3, -0.3, -1.0]), 0.2
        lo, hi = delay_windows(d, 0.0, 0.0, kappa, tau)
        root = np.sqrt(kappa[:2] ** 2 - d * d)
        arccot = (math.pi / 2.0 - np.arctan(-d / root)) / root
        assert [REGIONS[r] for r in mode_verdicts(d, 0.0, 0.0, kappa, tau).region] == ["W0"] * 4 + ["none"]
        assert np.allclose(hi[:2], arccot, rtol=1e-15, atol=0.0) and hi[2:4].tolist() == [math.inf] * 2
        assert lo[:4].tolist() == [0.0] * 4 and np.isnan(lo[4]) and np.isnan(hi[4])
        # tau = 0: the delay-free rule, and the first window of every delay-free stable mode
        lam, mu, kappa = np.array([0.0, 1.0, 3.0, 1.0]), np.array([0.0, 0.0, 0.0, -2.0]), np.array([0.0, 1.0, 1.0, 1.0])
        lo, hi = delay_windows(0.075, lam, mu, kappa, 0.0)
        near = delay_windows(0.075, lam, mu, kappa, 0.01)
        assert lo[:3].tolist() == [0.0] * 3 and np.array_equal(hi[:3], near[1][:3]) and np.isfinite(hi[1:3]).all()
        assert np.isnan(lo[3]) and np.isnan(hi[3])
        # a delay-stabilised mode (start-unstable) has a positive lower edge
        sp = (1.9012593672172078, 2.7152237339489274, 0.05808097136486934, -2.167463252479364)
        lo, hi = delay_windows(*sp, 1.0)
        assert 0.0 < lo < 1.0 < hi < math.inf
        # unstable and boundary-band modes have no window
        for mode, boundary in (((0.075, 3.0, 0.0, 1.0), False), ((0.0075, 0.0, 0.0, 0.0075 + 1e-12), True)):
            v = mode_verdicts(*mode, 1.0)
            assert not v.stable and v.boundary == boundary
            assert all(np.isnan(edge) for edge in delay_windows(*mode, 1.0))
    for bad in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="tau must be finite and nonnegative"):
            delay_windows(0.075, 1.0, 0.0, 1.0, bad)


def test_ieee39_critical_delay(ieee39_spectrum):
    # at the step-0.05 synthesis optimum the top mode loses stability first,
    # at 4.6 times the design delay; the margin does not show it
    p = IEEE39_PARAMS
    result = synthesize(
        ieee39_spectrum, p["d"], p["tau"], NoiseParams(p["eta"], p["eta_meas"]), p["inertia"],
        gain_box=(0.0, 1.0, 0.0, 4.0), grid_step=0.05,
    )
    net = network_verdict(ieee39_spectrum, result.gain_spec(), p["d"], p["tau"])
    assert net.stable and np.all(net.tau_lo == 0.0)
    critical = float(np.min(net.tau_hi))
    assert int(np.argmin(net.tau_hi)) == 9 and critical == pytest.approx(0.13765, abs=1e-4)
    margins = net.verdicts.margin
    assert np.all(margins[1:] > 0.006) and np.all(margins[1:] < 0.0066)
    for factor, want in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
        at = mode_verdicts(p["d"], result.lambdas, result.mu, result.kappa, critical * factor)
        assert bool(at.stable.all()) == want


# --- network-level verdict --------------------------------------------------------


def test_network_verdict_two_machine(two_machine_spectrum):
    verdict = network_verdict(two_machine_spectrum, GainSpec.uniform(0.0, 1.0), 0.075, 0.1)
    assert verdict.stable
    assert verdict.verdicts.stable.shape == verdict.s1.shape == (2,)
    # scaled tuples: consensus mode and grid mode
    assert verdict.s2[0] == 0.0 and verdict.k1[0] == 0.0
    assert verdict.s2[1] == pytest.approx(1.584 * 0.01)
    # oracle cross-check on both scalar modes
    for row in zip(verdict.s1, verdict.s2, verdict.k1, verdict.k2):
        assert rightmost_root(ScaledParams(*row)).real < 0
    assert verdict.rho_theta_coeff == pytest.approx(0.5)
    assert verdict.rho_omega_coeff == pytest.approx(1.0 / (0.075 * 2))


def test_network_verdict_zero_gains_delay_irrelevant(two_machine_spectrum):
    for tau in (0.01, 0.5, 2.0, 10.0):
        verdict = network_verdict(two_machine_spectrum, GainSpec.zero(), 0.075, tau)
        assert verdict.stable  # matches the delay-free verdict mode by mode


def test_network_destabilises_at_large_delay(two_machine_spectrum):
    gains = GainSpec.uniform(0.0, 1.0)
    lo, hi = 0.1, 50.0
    assert network_verdict(two_machine_spectrum, gains, 0.075, lo).stable
    assert not network_verdict(two_machine_spectrum, gains, 0.075, hi).stable
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if network_verdict(two_machine_spectrum, gains, 0.075, mid).stable:
            lo = mid
        else:
            hi = mid
    # membership flips exactly where the mode root crosses the axis
    sp = ScaledParams.from_physical(0.075, 1.584, 0.0, 1.0, 0.5 * (lo + hi))
    assert abs(rightmost_root(sp).real) < 1e-4


@pytest.mark.parametrize("tau", [0.0, 0.05])
@pytest.mark.parametrize(
    "gains",
    [
        GainSpec.uniform(0.3, 1.0),
        GainSpec.eigen([-0.5, 0.3, 2.0], [0.0, 1.0, -0.2]),
        GainSpec.consensus(0.1, 0.2),
        GainSpec.eigen([0.0, -0.5, 0.3], [0.0, 1.0, -0.2]),
    ],
)
def test_mode_verdict_is_the_network_rule(line3_spectrum, gains, tau):
    # one per-mode rule: every network_verdict entry is the mode_verdicts entry of
    # that mode, whether the modes come as one array or one at a time
    fields = lambda v, i: (bool(v.stable[i]), REGIONS[v.region[i]], float(v.margin[i]).hex(), bool(v.boundary[i]))
    net = network_verdict(line3_spectrum, gains, 0.075, tau)
    g = net.gains
    batch = mode_verdicts(0.075, g.lambdas, g.mu, g.kappa, tau)
    windows = delay_windows(0.075, g.lambdas, g.mu, g.kappa, tau)
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip((net.tau_lo, net.tau_hi), windows))
    coords = np.array([net.s1, net.s2, net.k1, net.k2])
    for l, (lam, mu, kappa) in enumerate(zip(g.lambdas, g.mu, g.kappa)):
        want = fields(net.verdicts, l)
        assert fields(batch, l) == fields(mode_verdicts(0.075, lam, mu, kappa, tau), ()) == want
        one = delay_windows(0.075, lam, mu, kappa, tau)
        assert np.array_equal(one, (windows[0][l], windows[1][l]), equal_nan=True)
        if tau > 0.0:
            assert ScaledParams(*coords[:, l]) == ScaledParams.from_physical(0.075, lam, mu, kappa, tau)
    if tau == 0.0:
        # all +0.0: scaling negative gains by tau = 0 would give -0.0 and change the CLI's bytes
        assert np.all(coords == 0.0) and not np.signbit(coords).any()
    assert type(net.stable) is bool


def test_mode_verdicts_delay_free_rule_over_arrays():
    # consensus exception (lam = mu = 0: stable iff kappa + d > 0), negative
    # gains, and the delay-free verdict fields, all in one array call
    d = 0.075
    lam = np.array([0.0, 0.0, 0.0, 1.5, 1.5, 1.5, 0.0, 2.0])
    mu = np.array([0.0, 0.0, 0.0, -0.5, -2.0, 0.3, -0.2, 0.0])
    kappa = np.array([0.5, -0.075, -1.0, -0.05, 1.0, -0.2, 1.0, 0.0])
    v = mode_verdicts(d, lam, mu, kappa, 0.0)
    want = [True, False, False, True, False, False, False, True]
    assert v.stable.tolist() == want
    assert [REGIONS[r] for r in v.region] == ["delay-free" if s else "none" for s in want]
    assert np.isnan(v.margin).all() and v.margin.shape == lam.shape
    assert not v.boundary.any() and v.boundary.shape == lam.shape
    # floats and arrays broadcast as in classify_many
    grid = mode_verdicts(d, 0.0, 0.0, np.array([[-1.0], [0.5]]), 0.0)
    assert grid.stable.shape == (2, 1) and grid.stable.ravel().tolist() == [False, True]
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValidationError, match="tau must be finite and nonnegative"):
            mode_verdicts(d, lam, mu, kappa, bad)


@pytest.mark.parametrize("tau", [0.0, 0.05])
def test_mode_verdicts_and_windows_take_lists(tau):
    modes = ([0.1, 0.2], [1, 2], [0.1, 0.1], [0.5, 0.5])
    arrays = [np.array(m, dtype=float) for m in modes]
    for got, want in ((mode_verdicts(*modes, tau), mode_verdicts(*arrays, tau)),
                      (delay_windows(*modes, tau), delay_windows(*arrays, tau))):
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got, want))
    assert mode_verdicts(*modes, tau).stable.tolist() == [True, True]


@pytest.mark.parametrize("network", ["line3", "ieee39"])
@pytest.mark.parametrize("gains", [GainSpec.uniform(0.3, 1.0), GainSpec.consensus(0.1, 0.2)])
def test_network_verdict_is_one_verdict_pass(request, monkeypatch, network, gains):
    from wacrisk import stability

    spectrum = request.getfixturevalue(f"{network}_spectrum")
    calls = []
    classify_many_once = stability.classify_many

    def counted(*args, **kwargs):
        calls.append(args)
        return classify_many_once(*args, **kwargs)

    monkeypatch.setattr(stability, "classify_many", counted)
    net = network_verdict(spectrum, gains, 0.075, 0.05)
    assert len(calls) == 1
    g = net.gains
    lo, hi = delay_windows(0.075, g.lambdas, g.mu, g.kappa, 0.05)
    assert lo.tobytes() == net.tau_lo.tobytes() and hi.tobytes() == net.tau_hi.tobytes()
    assert np.isfinite(hi).any()


@pytest.mark.parametrize(
    "s1, s2, k1_hi, k2_hi",
    [(0.5, 0.5, 26.0, 8.0), (2.0, 1.5, 26.0, 9.0)],
)
def test_stable_gain_region_connected_and_bounded(s1, s2, k1_hi, k2_hi):
    # rasterised over the gain plane, the start-stable branch of the region
    # is one bounded component containing the origin (delay-stabilised
    # pockets at k2 < -s1 are genuinely separate and excluded here)
    from scipy import ndimage

    k1s = np.linspace(-s2 - 0.4, k1_hi, 211)
    k2s = np.linspace(-s1 - 0.4, k2_hi, 173)
    k1_grid, k2_grid = np.meshgrid(k1s, k2s, indexing="ij")
    stable = classify_many(s1, s2, k1_grid, k2_grid).stable & (k2_grid + s1 > 0)
    labels, count = ndimage.label(stable)
    assert count == 1
    assert not (stable[0, :].any() or stable[-1, :].any() or stable[:, 0].any() or stable[:, -1].any())
    i0 = int(np.argmin(np.abs(k1s)))
    j0 = int(np.argmin(np.abs(k2s)))
    assert stable[i0, j0]


def test_network_verdict_non_commuting_rejected(line3_spectrum):
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 3))
    m = 0.5 * (m + m.T)
    with pytest.raises(ValidationError):
        network_verdict(line3_spectrum, GainSpec.dense(m, np.eye(3)), 0.075, 0.1)
