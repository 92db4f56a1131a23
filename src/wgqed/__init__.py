"""Single-photon scattering and spontaneous emission for non-cascaded
multi-level emitters coupled to a single-mode waveguide of arbitrary local
polarization, with configurable non-guided loss.
"""

from .emitter import (
    EmitterModel,
    ExcitedSuperposition,
    PolarizationVector,
    effective_dipole,
    rotate_excited_basis,
    validate,
)
from .emission import (
    CHANNELS,
    DirectionalTotals,
    EmissionTrajectory,
    EmitterDensityMatrix,
    channel_flux,
    default_t_max,
    directional_totals,
    evolve,
    outcome_distance,
)
from .errors import (
    ConfigError,
    IllConditionedResponseWarning,
    ModelValidationError,
    NonDegenerateManifoldError,
    NonPhysicalStateError,
    NonUnitaryMatrixError,
    SingularResponseError,
    UnknownPresetError,
    WgqedError,
)
from .photonic import (
    CouplingBundle,
    GreensDecomposition,
    LossModel,
    WaveguideEnv,
    coupling_bundle,
    greens_decomposition,
)
from .scattering import (
    MODES,
    ScatterInput,
    ScatteringResult,
    SweepPoint,
    TwoLevelAmplitudes,
    polarization_sweep,
    scatter,
    two_level_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "CHANNELS",
    "ConfigError",
    "CouplingBundle",
    "DirectionalTotals",
    "EmissionTrajectory",
    "EmitterDensityMatrix",
    "EmitterModel",
    "ExcitedSuperposition",
    "GreensDecomposition",
    "IllConditionedResponseWarning",
    "LossModel",
    "MODES",
    "ModelValidationError",
    "NonDegenerateManifoldError",
    "NonPhysicalStateError",
    "NonUnitaryMatrixError",
    "PolarizationVector",
    "ScatterInput",
    "ScatteringResult",
    "SingularResponseError",
    "SweepPoint",
    "TwoLevelAmplitudes",
    "UnknownPresetError",
    "WaveguideEnv",
    "WgqedError",
    "channel_flux",
    "coupling_bundle",
    "default_t_max",
    "directional_totals",
    "effective_dipole",
    "evolve",
    "greens_decomposition",
    "outcome_distance",
    "polarization_sweep",
    "rotate_excited_basis",
    "scatter",
    "two_level_closed_form",
    "validate",
    "__version__",
]
