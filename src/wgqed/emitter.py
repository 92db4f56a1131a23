"""Non-cascaded multi-level emitter: level manifolds, transition dipoles, and
the purely emitter-side algebra (excited-basis rotations).

Level structure is non-cascaded by construction: a dipole exists for every
(ground, excited) pair and nothing else, so excitation number is conserved.
Forbidden transitions are represented by zero dipole vectors rather than by
absent entries.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import FrozenInstanceError
from typing import Sequence

import numpy as np

from .errors import (
    ModelValidationError,
    NonDegenerateManifoldError,
    NonUnitaryMatrixError,
)

UNITARY_TOL = 1e-10
DEGENERACY_TOL = 1e-9


def _as_float(value) -> float:
    """``value`` as a float, or nan where it is a bool, not a real number or
    beyond the float range, so that one finiteness check rejects them all."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        return float(value) if real else math.nan
    except OverflowError:
        return math.nan


def _as_complex_array(value, message: str) -> np.ndarray:
    """A new complex array of ``value``. Raises :class:`ModelValidationError`
    ``dimension-mismatch`` with ``message`` where it is not an array of
    numbers: where it holds a bool, a string or any other non-number, has
    ragged rows or goes beyond the complex range. A numeric ndarray is
    judged by its dtype alone."""
    try:
        if not (isinstance(value, np.ndarray) and value.dtype.kind in "iufc"):
            value = np.array(value, dtype=object)
            if not all(isinstance(v, numbers.Complex) and not isinstance(v, bool)
                       for v in value.flat):
                raise TypeError
        return value.astype(complex)
    except (TypeError, ValueError, OverflowError):
        raise ModelValidationError("dimension-mismatch", message) from None


def _as_grid(values, name: str) -> np.ndarray:
    """A new 1-d float array of ``values``, each taken by :func:`_as_float`.
    Raises :class:`ValueError` naming ``name`` where it is not a nonempty 1-d
    array of finite values. A numeric ndarray is judged by its dtype alone."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        grid = values.astype(float)
    else:
        try:
            grid = np.array([_as_float(v) for v in values])
        except TypeError:       # not iterable
            grid = np.array(math.nan)
    if grid.ndim != 1 or grid.size == 0 or not np.isfinite(grid).all():
        raise ValueError(f"{name} must be a nonempty 1-d array of finite values")
    return grid


class _Value:
    """An immutable value, rebuilt through its constructor from the checked
    arguments ``_args()`` (by default its slots), in constructor order:
    equality, hashing, the repr, pickling and copying all come from them.
    Arrays among them are read-only, and compare and hash by their bytes with
    signed zeros made equal."""

    __slots__ = ()

    def _args(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def _key(self) -> tuple:
        # + 0.0 turns -0.0 into 0.0, so that equal arrays have equal bytes
        return tuple((a + 0.0).tobytes() if isinstance(a, np.ndarray) else a
                     for a in self._args().values())

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, *value):
        raise FrozenInstanceError(f"cannot change {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(self._args().values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}" for name, value in self._args().items())
        return f"{type(self).__name__}({args})"


class PolarizationVector(_Value):
    """Complex 3-vector in real space.

    One container serves both local mode fields and transition dipoles; the
    two only ever meet through dot products. Two-component input is embedded
    in the x-y plane with a zero third component.
    """

    __slots__ = ("_c",)

    def __init__(self, components: Sequence[complex]):
        # a copy, so that a later write to the caller's array cannot change it
        arr = _as_complex_array(components, "polarization vector components must be numbers")
        arr = arr.flatten()     # not ravel: a view would keep a second array alive
        if arr.size == 2:
            arr = np.append(arr, 0.0 + 0.0j)
        if arr.size != 3:
            raise ModelValidationError("dimension-mismatch",
                                       f"a polarization vector has 3 components, got {arr.size}")
        arr.setflags(write=False)
        object.__setattr__(self, "_c", arr)

    def _args(self) -> dict:
        return {"components": self._c}

    def as_array(self) -> np.ndarray:
        """Read-only ndarray view of the three components."""
        return self._c

    def conjugated(self) -> "PolarizationVector":
        return PolarizationVector(np.conj(self._c))


class EmitterModel(_Value):
    """Level energies plus the dipoles ``D[n, m]`` linking ground state
    ``n`` to excited state ``m``, kept as one read-only complex (n_ground,
    n_excited, 3) array copied from ``dipoles`` (two-component dipoles lie in
    the x-y plane). Construction raises :class:`ModelValidationError`, in
    this order: ``non-finite-entry`` for an energy that is not a finite real
    number, ``empty-manifold``, ``dimension-mismatch`` where the dipoles are
    not an array of numbers of that shape (the row count and lengths are
    checked before numpy sees them), and ``non-finite-entry`` for a dipole.
    """

    __slots__ = ("ground_energies", "excited_energies", "_array")

    def __init__(self, ground_energies, excited_energies, dipoles):
        try:
            ground, excited = (tuple(map(_as_float, energies))
                               for energies in (ground_energies, excited_energies))
        except TypeError:
            ground = excited = (math.nan,)
        if not all(map(math.isfinite, ground + excited)):
            raise ModelValidationError("non-finite-entry", "level energies must be finite")
        n_g, n_e = len(ground), len(excited)
        if n_g < 1 or n_e < 1:
            raise ModelValidationError("empty-manifold", "need at least one ground and one "
                                       f"excited state, got {n_g} x {n_e}")
        try:
            rows = [len(row) for row in dipoles]
        except TypeError:       # not a nested sequence: reported with the shape below
            rows = None
        if rows is not None and len(rows) != n_g:
            raise ModelValidationError("dimension-mismatch", f"dipole matrix has {len(rows)} "
                                       f"rows for {n_g} ground states")
        for n, size in enumerate(rows or ()):
            if size != n_e:
                raise ModelValidationError("dimension-mismatch", f"dipole row {n} has {size} "
                                           f"entries for {n_e} excited states")
        message = f"dipoles must form an ({n_g}, {n_e}, 3) array of numbers"
        D = _as_complex_array(dipoles, message)
        if D.ndim != 3 or D.shape[2] not in (2, 3):
            raise ModelValidationError("dimension-mismatch", message)
        if D.shape[2] == 2:
            D = np.concatenate((D, np.zeros((n_g, n_e, 1))), axis=2)
        if not np.isfinite(D).all():
            n, m = np.argwhere(~np.isfinite(D).all(axis=-1))[0]
            raise ModelValidationError("non-finite-entry",
                                       f"dipole ({n}, {m}) has a non-finite component")
        D.setflags(write=False)
        for name, value in (("ground_energies", ground), ("excited_energies", excited),
                            ("_array", D)):
            object.__setattr__(self, name, value)

    def _args(self) -> dict:
        return {"ground_energies": self.ground_energies,
                "excited_energies": self.excited_energies, "dipoles": self._array}

    @classmethod
    def from_arrays(cls, ground_energies, excited_energies, dipoles) -> "EmitterModel":
        """Build from array-likes; ``dipoles`` is (n_ground, n_excited, 2 or 3)."""
        return cls(ground_energies, excited_energies, dipoles)

    @property
    def n_ground(self) -> int:
        return len(self.ground_energies)

    @property
    def n_excited(self) -> int:
        return len(self.excited_energies)

    def dipole_array(self) -> np.ndarray:
        """Read-only complex (n_ground, n_excited, 3) array of the dipoles."""
        return self._array


class ExcitedSuperposition(_Value):
    """Complex amplitudes over the excited manifold, kept as a tuple and as
    the read-only complex array it was checked as. Construction raises
    :class:`ModelValidationError` ``dimension-mismatch`` where
    ``amplitudes`` is not a 1-d array of numbers."""

    __slots__ = ("amplitudes", "_array")

    def __init__(self, amplitudes):
        message = "amplitudes must form a 1-d array of numbers"
        arr = _as_complex_array(amplitudes, message)
        if arr.ndim != 1:
            raise ModelValidationError("dimension-mismatch", message)
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", tuple(arr.tolist()))
        object.__setattr__(self, "_array", arr)

    def _args(self) -> dict:
        return {"amplitudes": self.amplitudes}

    @classmethod
    def from_sequence(cls, amplitudes) -> "ExcitedSuperposition":
        return cls(amplitudes)

    def as_array(self) -> np.ndarray:
        """Read-only complex array of the amplitudes."""
        return self._array

    def norm(self) -> float:
        """Euclidean norm of the amplitudes, scaled so that no square overflows."""
        return math.hypot(*self._array.view(float).tolist())


@np.errstate(all="ignore")
def rotate_excited_basis(model: EmitterModel, U) -> EmitterModel:
    """Re-express the model in a rotated excited-state basis.

    The new basis kets are ``|e'_a> = sum_x U[a, x] |e_x>`` and every dipole
    column transforms the same way, ``d'_{na} = sum_x U[a, x] d_{nx}``, which
    leaves all observables unchanged. The rotation is only defined on a
    degenerate excited manifold, where it commutes with the bare Hamiltonian;
    anything else is rejected rather than silently rotated.
    """
    try:
        U = _as_complex_array(U, "rotation must be an array of numbers")
    except ModelValidationError as exc:
        raise NonUnitaryMatrixError(str(exc)) from None
    n_e = model.n_excited
    if U.shape != (n_e, n_e):
        raise NonUnitaryMatrixError(
            f"rotation must be {n_e} x {n_e}, got {U.shape}"
        )
    defect = np.max(np.abs(U @ U.conj().T - np.eye(n_e)))
    if not (defect <= UNITARY_TOL):
        raise NonUnitaryMatrixError(
            f"matrix is not unitary (max |U U^dag - 1| = {defect:.3e})"
        )
    energies = np.asarray(model.excited_energies, dtype=float)
    spread = float(np.max(energies) - np.min(energies))
    if spread > DEGENERACY_TOL * float(np.max(np.abs(energies))):     # relative: in any unit
        raise NonDegenerateManifoldError(
            f"excited manifold is not degenerate (energy spread {spread:.3e})"
        )
    rotated = np.einsum("ax,nxi->nai", U, model.dipole_array())
    return EmitterModel.from_arrays(
        model.ground_energies, model.excited_energies, rotated
    )
