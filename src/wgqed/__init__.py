"""Single-photon scattering and spontaneous emission for non-cascaded
multi-level emitters coupled to a single-mode waveguide of arbitrary local
polarization, with configurable non-guided loss.
"""

from .emitter import (
    EmitterModel,
    ExcitedSuperposition,
    PolarizationVector,
    rotate_excited_basis,
)
from .emission import (
    CHANNELS,
    DirectionalTotals,
    EmissionTrajectory,
    EmitterDensityMatrix,
    evolve,
    outcome_forms,
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
    LossModel,
    WaveguideEnv,
    coupling_bundle,
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
    "coupling_bundle",
    "evolve",
    "outcome_forms",
    "polarization_sweep",
    "rotate_excited_basis",
    "scatter",
    "two_level_closed_form",
    "__version__",
]
