"""Exception types shared across the package.

Every error carries a short machine-readable ``code``, so that callers can
tell failures apart without parsing messages. The command line maps failures
to exit codes by type, not by ``code``: a :class:`ConfigError` exits 1, any
other :class:`WgqedError` 2.
"""

from __future__ import annotations


class WgqedError(Exception):
    """Base class for all package errors."""

    code = "error"

    def __init__(self, message: str, *, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class ModelValidationError(WgqedError, ValueError):
    """An emitter model, field, or loss tensor violates a structural invariant.

    Codes: ``dimension-mismatch``, ``empty-manifold``, ``non-finite-entry``,
    ``non-symmetric-loss-tensor``, ``non-passive-loss-tensor``,
    ``invalid-environment``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message, code=code)


class NonUnitaryMatrixError(WgqedError, ValueError):
    code = "non-unitary-matrix"


class NonDegenerateManifoldError(WgqedError, ValueError):
    code = "non-degenerate-excited-manifold"


class SingularResponseError(WgqedError, ArithmeticError):
    """The scattering response matrix is numerically singular.

    ``dark_vectors`` holds the excited-manifold eigenvectors (columns) whose
    total coupling to every included channel vanishes; these decouple on
    resonance at zero loss and make the linear system rank deficient.
    """

    code = "singular-response-matrix"

    def __init__(self, message: str, dark_vectors=None, *, code: str | None = None):
        super().__init__(message, code=code)
        self.dark_vectors = dark_vectors


class IllConditionedResponseWarning(UserWarning):
    """Condition number of the response matrix exceeds 1e12."""


class NonPhysicalStateError(WgqedError, ArithmeticError):
    code = "non-physical-state"


class ConfigError(WgqedError, ValueError):
    """A scenario configuration failed to parse or validate.

    ``field`` names the offending entry when one can be identified.
    """

    code = "config-error"

    def __init__(self, message: str, *, field: str | None = None, code: str | None = None):
        super().__init__(message, code=code)
        self.field = field


class UnknownPresetError(ConfigError):
    code = "unknown-preset"
