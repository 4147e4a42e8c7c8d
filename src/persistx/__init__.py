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

``import persistx`` loads the model layer (and numpy) only. The routes load
on first use: a name of ``simulate``, ``operator``, ``oracle`` or ``harness``
imports its module the first time it is read from the package, and so does
the submodule attribute itself (``persistx.operator``).
"""

import importlib

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

__version__ = "0.1.0"

# public name -> the route module that defines it, imported on first use
_ROUTE_NAMES = {
    **dict.fromkeys(
        ("AllPathsDied", "NonPositiveProbabilityInWindow", "PersistenceEstimate",
         "PopulationExtinct", "estimate_crude", "estimate_splitting", "fit_exponent"),
        "simulate"),
    **dict.fromkeys(
        ("MaxIterationsExceeded", "QuadratureGrid", "SpectralResult", "assemble_ar",
         "assemble_ma", "build_grid", "convergence_sweep", "solve_operator",
         "spectral_radius"),
        "operator"),
    **dict.fromkeys(
        ("BracketNotFound", "ar1_exponential_pn", "ar1_uniform_exponent",
         "characteristic_root", "classify_regime", "degenerate_factorial_pn",
         "ma1_exponential_exponent", "ma1_symmetric_series", "ma1_uniform_exponent",
         "rademacher_pn"),
        "oracle"),
    **dict.fromkeys(
        ("ConfigError", "canonical_json", "compare", "continuity_sweep",
         "monotonicity_sweep", "run_suite"),
        "harness"),
}
_ROUTES = frozenset(_ROUTE_NAMES.values())


def __getattr__(name):
    # import_module holds the module's import lock, so a first use from two
    # threads at once sees one fully executed module
    if name in _ROUTES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ROUTE_NAMES:
        value = getattr(importlib.import_module(f"{__name__}.{_ROUTE_NAMES[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_ROUTE_NAMES) | set(_ROUTES))


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
