"""Non-cascaded multi-level emitter: level manifolds, transition dipoles, and
the purely emitter-side algebra (effective dipoles, excited-basis rotations).

Level structure is non-cascaded by construction: a dipole exists for every
(ground, excited) pair and nothing else, so excitation number is conserved.
Forbidden transitions are represented by zero dipole vectors rather than by
absent entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ModelValidationError,
    NonDegenerateManifoldError,
    NonUnitaryMatrixError,
)

UNITARY_TOL = 1e-10
DEGENERACY_TOL = 1e-9


class PolarizationVector:
    """Complex 3-vector in real space.

    One container serves both local mode fields and transition dipoles; the
    two only ever meet through dot products. Two-component input is embedded
    in the x-y plane with a zero third component.
    """

    __slots__ = ("_c",)

    def __init__(self, components: Sequence[complex] | complex, *rest: complex):
        if rest:
            components = (components, *rest)  # type: ignore[assignment]
        arr = np.asarray(components, dtype=complex).reshape(-1)
        if arr.size == 2:
            arr = np.append(arr, 0.0 + 0.0j)
        if arr.size != 3:
            raise ModelValidationError(
                "dimension-mismatch",
                f"a polarization vector has 3 components, got {arr.size}",
            )
        arr.setflags(write=False)
        self._c = arr

    @property
    def components(self) -> tuple[complex, complex, complex]:
        return (complex(self._c[0]), complex(self._c[1]), complex(self._c[2]))

    def as_array(self) -> np.ndarray:
        """Read-only ndarray view of the three components."""
        return self._c

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self._c) ** 2)))

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self._c.view(float))))

    def conjugated(self) -> "PolarizationVector":
        return PolarizationVector(np.conj(self._c))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolarizationVector):
            return NotImplemented
        return bool(np.array_equal(self._c, other._c))

    def __repr__(self) -> str:
        return f"PolarizationVector({self.components!r})"


@dataclass(frozen=True)
class EmitterModel:
    """Level energies plus the dipole matrix ``dipoles[n][m]`` linking ground
    state ``n`` to excited state ``m``. Immutable after construction."""

    ground_energies: tuple[float, ...]
    excited_energies: tuple[float, ...]
    dipoles: tuple[tuple[PolarizationVector, ...], ...]

    @classmethod
    def from_arrays(cls, ground_energies, excited_energies, dipoles) -> "EmitterModel":
        """Build from array-likes; ``dipoles`` is (n_ground, n_excited, 2 or 3)."""
        rows = tuple(
            tuple(PolarizationVector(vec) for vec in row) for row in dipoles
        )
        return cls(
            ground_energies=tuple(float(e) for e in ground_energies),
            excited_energies=tuple(float(e) for e in excited_energies),
            dipoles=rows,
        )

    @property
    def n_ground(self) -> int:
        return len(self.ground_energies)

    @property
    def n_excited(self) -> int:
        return len(self.excited_energies)

    def dipole_array(self) -> np.ndarray:
        """Dipoles as a complex (n_ground, n_excited, 3) array."""
        return np.array(
            [[vec.as_array() for vec in row] for row in self.dipoles], dtype=complex
        )


@dataclass(frozen=True)
class ExcitedSuperposition:
    """Complex amplitudes over the excited manifold."""

    amplitudes: tuple[complex, ...]

    @classmethod
    def from_sequence(cls, amplitudes) -> "ExcitedSuperposition":
        return cls(tuple(complex(a) for a in np.asarray(amplitudes, dtype=complex)))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.amplitudes, dtype=complex)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.as_array()) ** 2)))


def validate(model: EmitterModel) -> None:
    """Check the structural invariants of an emitter model.

    Raises :class:`ModelValidationError` with code ``empty-manifold``,
    ``dimension-mismatch`` or ``non-finite-entry``; returns ``None`` when the
    model is well formed.
    """
    _validated_dipoles(model)


def _validated_dipoles(model: EmitterModel) -> np.ndarray:
    """:func:`validate` the model and return its (n_g, n_e, 3) dipole array.

    The shape checks run before the array is built, so a ragged dipole
    matrix is reported as a dimension mismatch.
    """
    n_g = len(model.ground_energies)
    n_e = len(model.excited_energies)
    if n_g < 1 or n_e < 1:
        raise ModelValidationError(
            "empty-manifold",
            f"need at least one ground and one excited state, got {n_g} x {n_e}",
        )
    if len(model.dipoles) != n_g:
        raise ModelValidationError(
            "dimension-mismatch",
            f"dipole matrix has {len(model.dipoles)} rows for {n_g} ground states",
        )
    for n, row in enumerate(model.dipoles):
        if len(row) != n_e:
            raise ModelValidationError(
                "dimension-mismatch",
                f"dipole row {n} has {len(row)} entries for {n_e} excited states",
            )
    energies = np.array(model.ground_energies + model.excited_energies, dtype=float)
    if not np.isfinite(energies).all():
        raise ModelValidationError("non-finite-entry", "level energies must be finite")
    D = model.dipole_array()
    finite = np.isfinite(D).all(axis=-1)
    if not finite.all():
        n, m = np.argwhere(~finite)[0]
        raise ModelValidationError(
            "non-finite-entry", f"dipole ({n}, {m}) has a non-finite component"
        )
    return D


def effective_dipole(
    model: EmitterModel, ground_index: int, state: ExcitedSuperposition
) -> PolarizationVector:
    """Effective radiative dipole of the decay of ``state`` to ground state
    ``ground_index``: the amplitude-weighted sum of the transition dipoles.

    Linear in the amplitudes.
    """
    if not 0 <= ground_index < model.n_ground:
        raise IndexError(
            f"ground index {ground_index} out of range for {model.n_ground} ground states"
        )
    amps = state.as_array()
    if amps.size != model.n_excited:
        raise ModelValidationError(
            "dimension-mismatch",
            f"superposition has {amps.size} amplitudes for {model.n_excited} excited states",
        )
    row = model.dipole_array()[ground_index]  # (n_excited, 3)
    return PolarizationVector(amps @ row)


def rotate_excited_basis(model: EmitterModel, U) -> EmitterModel:
    """Re-express the model in a rotated excited-state basis.

    The new basis kets are ``|e'_a> = sum_x U[a, x] |e_x>`` and every dipole
    column transforms the same way, ``d'_{na} = sum_x U[a, x] d_{nx}``, which
    leaves all observables unchanged. The rotation is only defined on a
    degenerate excited manifold, where it commutes with the bare Hamiltonian;
    anything else is rejected rather than silently rotated.
    """
    D = _validated_dipoles(model)  # (n_g, n_e, 3)
    U = np.asarray(U, dtype=complex)
    n_e = model.n_excited
    if U.shape != (n_e, n_e):
        raise NonUnitaryMatrixError(
            f"rotation must be {n_e} x {n_e}, got {U.shape}"
        )
    defect = np.max(np.abs(U @ U.conj().T - np.eye(n_e)))
    if defect > UNITARY_TOL:
        raise NonUnitaryMatrixError(
            f"matrix is not unitary (max |U U^dag - 1| = {defect:.3e})"
        )
    energies = np.asarray(model.excited_energies, dtype=float)
    spread = float(np.max(energies) - np.min(energies))
    if spread > DEGENERACY_TOL * max(1.0, float(np.max(np.abs(energies)))):
        raise NonDegenerateManifoldError(
            f"excited manifold is not degenerate (energy spread {spread:.3e})"
        )
    rotated = np.einsum("ax,nxi->nai", U, D)
    return EmitterModel.from_arrays(
        model.ground_energies, model.excited_energies, rotated
    )
