"""Persistence exponents of autoregressive and moving-average processes.

The persistence probability of a process Z is p_n = P(Z_0, ..., Z_n all
survive), where survival means Z >= 0 or Z > 0 by convention. For the AR and
MA models here it decays like lambda**n, and this package computes the
exponent lambda three independent ways:

* Monte Carlo on sample paths (crude estimation and multilevel splitting),
* the spectral radius of a discretized persistence operator,
* closed forms for the exactly solvable cases.

The harness module cross-validates the routes against each other and runs
theorem-driven sweeps; the command line entry point is ``persistx``.
"""

from .model import (
    ARModel,
    Exponential,
    Gaussian,
    IIDInnovation,
    MAModel,
    PointMass,
    Rademacher,
    RequestedDensityOfAtomicLaw,
    StationaryAR1Gaussian,
    SurvivalConvention,
    Uniform,
    model_from_json,
    substream,
)
from .simulate import (
    AllPathsDied,
    NonPositiveProbabilityInWindow,
    PersistenceEstimate,
    PopulationExtinct,
    estimate_crude,
    estimate_splitting,
    fit_exponent,
)
from .operator import (
    MaxIterationsExceeded,
    QuadratureGrid,
    SpectralResult,
    assemble_ar,
    assemble_ma,
    build_grid,
    convergence_sweep,
    solve_operator,
    spectral_radius,
)
from .oracle import (
    BracketNotFound,
    ar1_exponential_pn,
    ar1_uniform_exponent,
    characteristic_root,
    classify_regime,
    degenerate_factorial_pn,
    ma1_exponential_exponent,
    ma1_symmetric_series,
    ma1_uniform_exponent,
    rademacher_pn,
)
from .harness import (
    ConfigError,
    canonical_json,
    compare,
    continuity_sweep,
    monotonicity_sweep,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "ARModel", "MAModel", "Uniform", "Gaussian", "Exponential", "Rademacher",
    "PointMass", "IIDInnovation", "StationaryAR1Gaussian", "SurvivalConvention",
    "RequestedDensityOfAtomicLaw", "model_from_json", "substream",
    "AllPathsDied", "PopulationExtinct", "NonPositiveProbabilityInWindow",
    "PersistenceEstimate", "estimate_crude", "estimate_splitting", "fit_exponent",
    "QuadratureGrid", "SpectralResult", "MaxIterationsExceeded", "build_grid",
    "assemble_ar", "assemble_ma", "spectral_radius", "solve_operator",
    "convergence_sweep",
    "BracketNotFound", "ar1_uniform_exponent", "ar1_exponential_pn",
    "ma1_uniform_exponent", "ma1_symmetric_series", "rademacher_pn",
    "ma1_exponential_exponent", "degenerate_factorial_pn", "characteristic_root",
    "classify_regime",
    "ConfigError", "canonical_json", "compare",
    "monotonicity_sweep", "continuity_sweep", "run_suite",
    "__version__",
]
