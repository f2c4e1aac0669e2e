"""Spectral growth analysis for the generalized Rosenau equation.

The equation u_tt + delta (-Lap)^theta u_tt + mu Lap^2 u - kappa Lap u = 0
diagonalizes in Fourier space; this package evaluates the exact per-mode
solution, integrates its L2 norm with oscillation-aware radial quadrature,
instantiates the explicit growth envelopes (sqrt(t) in 1-D, sqrt(log t) in
2-D, bounded for n >= 3), scans Hardy-type Rayleigh quotients in low
dimensions, and checks the symbol-level well-posedness identities.
"""

from .errors import (
    InputDomainError,
    IntegrabilityError,
    InvariantViolation,
    PreconditionError,
    RosenauError,
    UncertifiedTailError,
)
from .model import (
    BandBoundaries,
    ModelParams,
    SincConstants,
    band_boundaries,
    derivative_floor,
    dispersion_derivatives,
    epsilon0,
    eval_dispersion,
    second_derivative_bound,
    unit_sphere_area,
)
from .tails import TailBound
from .evolution import (
    GridField,
    RadialInitialData,
    evolve_grid,
    evolve_grid_times,
    total_energy,
    total_energy_grid,
)
from .catalog import (
    annular_profile,
    annular_velocity_data,
    compact_band_data,
    data_from_spec,
    gaussian_position_data,
    gaussian_profile,
    gaussian_velocity_data,
)
from .moments import (
    MomentDecomposition,
    RadialProfile,
    fluctuation,
    l1_norm,
    weighted_l1_norm,
    zeroth_moment,
)
from .norms import (
    BandSplit,
    NormTrace,
    QuadratureConfig,
    band_split_norm,
    compute_norm_trace,
    geometric_times,
    norm_squared,
    write_norm_trace_csv,
)
from .bounds import (
    EnvelopeReport,
    averaged_tail_remainder,
    envelope_report,
    fluctuation_remainder,
    low_band_mass,
    lower_envelope,
    upper_envelope,
    weighted_gaussian_constant,
)
from .growth import (
    ClassifyReport,
    GrowthFit,
    SandwichReport,
    classify_growth,
    fit_log,
    fit_power,
    sandwich_report,
)
from .hardy import (
    BlowupScan,
    QuotientTrace,
    WeightFunction,
    blowup_scan,
    capacity_family,
    dilation_family,
    energy_identity_check,
    rellich_quotient,
)
from .wellposed import (
    MultiplierScan,
    dissipativity_residual,
    h_ratio_scan,
    high_frequency_limit,
    sobolev_equivalence_check,
)
from .cli import ExperimentConfig, run_experiment

__version__ = "0.1.0"
