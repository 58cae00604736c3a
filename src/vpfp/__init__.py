"""Spectral toolkit for a weakly collisional plasma near equilibrium.

The package splits into layers: semigroup and multiplier certify the
weighted-decay machinery of the linearized collisional flow, linear_theory
solves the scalar density equation, solver integrates the full nonlinear
system on a truncated Fourier lattice, and experiments packages the headline
measurement campaigns behind the CLI.
"""

__version__ = "0.1.0"

from .errors import (
    AliasingError,
    ConfigError,
    DomainError,
    HorizonError,
    InvariantError,
    NumericError,
    RangeError,
    StateEscapeError,
    VpfpError,
)
from .grids import PhaseGrid, SpectralField
from .semigroup import bar_eta, eta_ct, s_density_exponent
from .multiplier import NormSpec, norm_sobolev_moment
from .linear_theory import (
    InteractionKernel,
    VolterraProblem,
    fit_decay_rate,
    free_streaming_source,
    volterra_solve,
)
from .solver import (
    InitialData,
    Mode,
    compute_moments,
    conserved_quantities,
    init_state,
    run_simulation,
    step,
)
from .io_config import (
    RunConfig,
    canonical_text,
    config_hash,
    parse_config,
    read_manifest,
    write_csv,
    write_manifest,
)
from .experiments import (
    EXPERIMENT_KINDS,
    ExperimentSpec,
    rerun_from_manifest,
    run_experiment,
)

__all__ = [
    "AliasingError", "ConfigError", "DomainError", "HorizonError",
    "InvariantError", "NumericError", "RangeError", "StateEscapeError",
    "VpfpError",
    "PhaseGrid", "SpectralField",
    "bar_eta", "eta_ct", "s_density_exponent",
    "NormSpec", "norm_sobolev_moment",
    "InteractionKernel", "VolterraProblem", "fit_decay_rate",
    "free_streaming_source", "volterra_solve",
    "InitialData", "Mode", "compute_moments", "conserved_quantities",
    "init_state", "run_simulation", "step",
    "RunConfig", "canonical_text", "config_hash", "parse_config",
    "read_manifest", "write_csv", "write_manifest",
    "EXPERIMENT_KINDS", "ExperimentSpec", "rerun_from_manifest",
    "run_experiment",
    "__version__",
]
