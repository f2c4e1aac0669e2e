"""Spectral growth analysis for the generalized Rosenau equation.

The equation u_tt + delta (-Lap)^theta u_tt + mu Lap^2 u - kappa Lap u = 0
diagonalizes in Fourier space; this package evaluates the exact per-mode
solution, integrates its L2 norm with oscillation-aware radial quadrature,
instantiates the explicit growth envelopes (sqrt(t) in 1-D, sqrt(log t) in
2-D, bounded for n >= 3), scans Hardy-type Rayleigh quotients in low
dimensions, and checks the symbol-level well-posedness identities.

The public names are resolved on first use (PEP 562): ``_EXPORTS`` maps
each submodule to the names it exports, and ``import rosenau`` alone loads
no submodule, so a process pays only for the modules it calls.  A
``rosenau run`` process loads the modules its preset declares in
``cli.PRESETS`` while it parses the config.
"""

import importlib

_EXPORTS = {
    "errors": (
        "InputDomainError",
        "IntegrabilityError",
        "InvariantViolation",
        "PreconditionError",
        "RosenauError",
        "UncertifiedTailError",
    ),
    "model": (
        "BandBoundaries",
        "ModelParams",
        "SincConstants",
        "band_boundaries",
        "derivative_floor",
        "dispersion_derivatives",
        "epsilon0",
        "eval_dispersion",
        "second_derivative_bound",
        "unit_sphere_area",
    ),
    "tails": ("TailBound",),
    "evolution": (
        "GridField",
        "RadialInitialData",
        "evolve_grid",
        "evolve_grid_times",
        "total_energy",
        "total_energy_grid",
    ),
    "catalog": (
        "compact_band_data",
        "data_from_spec",
        "gaussian_position_data",
        "gaussian_profile",
        "gaussian_velocity_data",
    ),
    "moments": (
        "MomentDecomposition",
        "RadialProfile",
        "fluctuation",
        "l1_norm_and_l2_sq",
    ),
    "norms": (
        "BandSplit",
        "NormTrace",
        "QuadratureConfig",
        "band_split_norm",
        "compute_norm_trace",
        "geometric_times",
        "norm_squared",
        "write_norm_trace_csv",
    ),
    "bounds": (
        "EnvelopeReport",
        "averaged_tail_remainder",
        "envelope_report",
        "fluctuation_remainder",
        "low_band_mass",
        "lower_envelope",
        "upper_envelope",
        "weighted_gaussian_constant",
    ),
    "growth": (
        "ClassifyReport",
        "GrowthFit",
        "SandwichReport",
        "classify_growth",
        "fit_log",
        "fit_power",
        "sandwich_report",
    ),
    "hardy": (
        "BlowupScan",
        "QuotientTrace",
        "WeightFunction",
        "blowup_scan",
        "capacity_family",
        "dilation_family",
        "energy_identity_check",
        "rellich_quotient",
    ),
    "wellposed": (
        "MultiplierScan",
        "dissipativity_residual",
        "h_ratio_scan",
        "high_frequency_limit",
        "sobolev_equivalence_check",
    ),
    "cli": ("ExperimentConfig", "run_experiment"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
