"""Risk-aware analysis of time-delayed, noisy wide-area control for
linearised synchronous power networks.

The package decomposes the closed loop along the shared eigenbasis of the
grid Laplacian and the (commuting) feedback gain matrices, classifies each
scalar mode's delay stability exactly, evaluates the stationary
phase-difference statistics through a spectral integral, converts pair
deviations into value-at-risk figures against nested unsafe sets, and
synthesises risk-minimal gains together with the fundamental limits that
delay and measurement noise impose.  A stochastic-simulation oracle and a
rightmost-root oracle cross-validate every analytic path.
"""

__version__ = "0.1.0"

from .errors import InfeasibleError, ValidationError, WacriskError
from .network import (
    GainSpec,
    GeneratorParams,
    LaplacianSpectrum,
    ModeGains,
    NetworkModel,
    build_laplacian,
    effective_resistance,
    load_network,
    resolve_gains,
)
from .risk import (
    RiskProfile,
    SystemicSet,
    acceptance_quantile,
    risk_profile,
    risk_search,
    risk_value,
)
from .simulate import EnsembleStats, ImpulseResponse, SimConfig, impulse_response, simulate
from .spectral import SpectralEvaluation, evaluate, magnitude_sq
from .stability import (
    NetworkStability,
    ScaledParams,
    Verdicts,
    classify,
    classify_many,
    delay_free_stable,
    delay_windows,
    network_verdict,
    rightmost_root,
)
from .stats import (
    NoiseParams,
    PairStats,
    incidence_matrix,
    mode_weight,
    pair_deviations,
    pair_list,
    pair_sigma,
)
from .synthesis import (
    LimitReport,
    ResistanceBounds,
    SynthesisResult,
    TradeoffScan,
    deviation_floor,
    resistance_bounds,
    risk_floor,
    synthesize,
    tradeoff_scan,
)

__all__ = [name for name in dir() if not name.startswith("_")]
