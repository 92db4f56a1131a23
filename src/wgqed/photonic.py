"""Waveguide photonic environment: the guided couplings and the one effective
Hamiltonian both solvers read, and the coupling bundle (``H_eff`` and the
flux forms) consumed by the emission solver and the two-level diagnostic.

Conventions
-----------
The guided field enters through the forward Bloch polarization ``E_f`` at the
emitter location; the backward mode is its time reverse, ``E_b = conj(E_f)``.
The per-direction Green's tensors are

    G_f = i (a w / 4|v_g|) outer(E_f, E_f*),   G_b likewise with E_b,

and the stored loss tensor is rate-normalized: for a dipole d the decay rate
into non-guided modes is ``Im(d . G_loss . d*)`` directly, so
``LossModel.isotropic(s)`` yields a loss rate ``s`` for any unit dipole. The
guided sandwiches carry the usual extra factor of two (rate =
``2 Im(d . G_wg . d*)``), equivalently the loss tensor contributes to the
physical Green's function at half weight. Everything is in one set of units,
in which the reduced Planck constant and the vacuum permittivity are 1 (the
README gives the rescaling from other units). With a = w = 1 and v_g = 0.1 a
linear dipole matched to a linear field decays at rate 5 per direction, 10
total, and isotropic loss 0.2 gives a guided fraction of 10/10.2.

:func:`effective_hamiltonian` is the only place the non-Hermitian effective
Hamiltonian of the excited manifold is assembled: emission exponentiates it
(through :func:`coupling_bundle`) and scattering solves its resolvent.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .emitter import EmitterModel, PolarizationVector, _as_complex_array, _as_float, _Value
from .errors import ModelValidationError, NonPhysicalStateError

CHANNELS = ("forward", "backward", "loss")

LOSS_SYMMETRY_TOL = 1e-12
LOSS_PASSIVITY_TOL = 1e-10
_EPS = np.finfo(float).eps


class WaveguideEnv(_Value):
    """Local waveguide data: forward field, periodicity, group velocity and
    photon frequency, each kept as given once checked."""

    __slots__ = ("E_f", "a", "v_g", "omega")

    def __init__(self, E_f, a=1.0, v_g=0.1, omega=1.0):
        if not isinstance(E_f, PolarizationVector):
            try:
                E_f = PolarizationVector(E_f)
            except ModelValidationError as exc:
                raise ModelValidationError(exc.code, "E_f must be 2 or 3 numbers, "
                                           f"got {E_f!r}") from None
        if not np.isfinite(E_f.as_array()).all():
            raise ModelValidationError("non-finite-entry", "E_f has non-finite components")
        for name, value in (("a", a), ("omega", omega), ("v_g", v_g)):
            val = _as_float(value)
            if not (math.isfinite(val) and (val != 0 if name == "v_g" else val > 0)):
                rule = "nonzero" if name == "v_g" else "positive"
                raise ModelValidationError("invalid-environment", f"{name} must be {rule} "
                                           f"and finite, got {value!r}")
        for name, value in zip(self.__slots__, (E_f, a, v_g, omega)):
            object.__setattr__(self, name, value)

    @property
    def E_b(self) -> PolarizationVector:
        """Backward mode polarization, the time reverse of the forward one."""
        return self.E_f.conjugated()

    @property
    def z(self) -> float:
        """Density-of-states scale a w / (2 |v_g|); raises where it over- or underflows."""
        z = self.a * self.omega / (2.0 * abs(self.v_g))
        if not 0.0 < z < np.inf:
            raise NonPhysicalStateError(f"density-of-states scale a w / (2 |v_g|) is {z}")
        return z


class LossModel(_Value):
    """Non-guided contribution to the Green's tensor, stored as a symmetric
    complex 3x3 matrix in rate normalization (see module docstring).

    The imaginary part must induce a non-negative decay rate for every dipole
    (passivity); the real part produces level shifts. Construction copies
    ``tensor`` once into a read-only array, which is the one stored field:
    equality, hashing and the repr come from it.
    """

    __slots__ = ("tensor",)

    @np.errstate(all="ignore")      # huge finite entries may overflow the checks
    def __init__(self, tensor):
        arr = _as_complex_array(tensor, "loss tensor must be a 3x3 array of numbers")
        if arr.shape != (3, 3):
            raise ModelValidationError("dimension-mismatch",
                                       f"loss tensor must be 3x3, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ModelValidationError("non-finite-entry", "loss tensor has non-finite entries")
        scale = max(1.0, float(np.abs(arr).max()))
        if np.abs(arr - arr.T).max() > LOSS_SYMMETRY_TOL * scale:
            raise ModelValidationError("non-symmetric-loss-tensor",
                                       "loss tensor must be symmetric (reciprocal medium)")
        min_rate = np.linalg.eigvalsh(arr.imag)[0]
        if min_rate < -LOSS_PASSIVITY_TOL * scale:
            raise ModelValidationError("non-passive-loss-tensor", "loss tensor induces a "
                                       f"negative decay rate (min eig {min_rate:.3e})")
        arr.setflags(write=False)
        object.__setattr__(self, "tensor", arr)

    @classmethod
    def none(cls) -> "LossModel":
        return cls.isotropic(0.0)

    @classmethod
    def isotropic(cls, strength: float) -> "LossModel":
        """Dipole-independent loss: G_loss = i * strength * identity, i.e. two
        (in fact three) equally coupled orthogonal loss modes."""
        s = _as_float(strength)
        if not math.isfinite(s):
            raise ModelValidationError("non-finite-entry",
                                       f"loss strength must be a finite number, got {strength!r}")
        if s < 0:
            raise ModelValidationError("non-passive-loss-tensor",
                                       f"loss strength must be >= 0, got {strength}")
        return cls(1j * s * np.eye(3))

    @classmethod
    def from_array(cls, tensor) -> "LossModel":
        """Build from a 3x3 array-like; the constructor normalizes it."""
        return cls(tensor)

    def as_array(self) -> np.ndarray:
        """Read-only complex 3x3 array of the tensor."""
        return self.tensor


class CouplingBundle(NamedTuple):
    """The effective Hamiltonian of one emitter in one environment and its
    flux forms, as the emission solver consumes them.

    ``H_eff`` is the output of :func:`effective_hamiltonian` at the
    environment's field, the excited energies counted from the lowest (a real
    shift changes no observable and keeps the zero out of rounding).
    ``flux_forms[n, c]`` is the Hermitian PSD form ``Q = D_n* T_c D_n^T`` whose
    ``tr(Q rho)`` is the rate at which the excited block ``rho`` emits into
    ground state n through channel c, ordered as :data:`CHANNELS`. ``T_c`` is
    the channel's 3x3 tensor: ``z E_f E_f^dagger`` forward, its conjugate
    backward and ``Im(G_loss)`` for loss.
    """

    H_eff: np.ndarray               # (n_e, n_e) non-Hermitian, rate units
    flux_forms: np.ndarray          # (n_g, 3, n_e, n_e) Hermitian PSD

    def channel_decay_rates(self) -> dict[str, np.ndarray]:
        """Decay rate of each excited state into each channel of
        :data:`CHANNELS`, summed over the ground states: the diagonals of the
        flux forms."""
        rates = np.diagonal(self.flux_forms, axis1=-2, axis2=-1).real.sum(axis=0)
        return dict(zip(CHANNELS, rates))


def _rounding_rate(H: np.ndarray) -> np.ndarray:
    """Per matrix of ``H`` (..., n, n), the rate at or below which a rate
    from its decomposition is rounding and counts as zero, in both solvers:
    ``2 n eps max|H_ij|``, a backward error with no unit and no overflow (eig
    puts a dark mode at up to 0.75 n eps max|H_ij|, two parallel dipoles)."""
    return 2.0 * H.shape[-1] * _EPS * np.abs(H).max(axis=(-2, -1))


def guided_couplings(D: np.ndarray, E_f) -> np.ndarray:
    """Emission couplings of the (n_g, n_e, 3) dipole array ``D`` at a field
    (3,) or a stack of fields (..., 3), one column per output channel:
    ``K[x, k, ...]`` (n_e, 2 n_g, ...) is ``E_m* . d_{nx}`` with channel ``k
    = m n_g + n``, mode m forward (``E_f``) then backward (``E_b =
    conj(E_f)``) and ground state n. The stack axes come last, so that every
    operation on ``K`` loops over the fields. The conjugated column of the
    channel (m, r) is the absorption vector ``d_{r:}* . E`` of mode m.
    """
    E_f = np.asarray(E_f, dtype=complex)
    stack = E_f.shape[:-1]
    fields = np.concatenate((E_f.conj(), E_f), axis=-1).reshape(stack + (2, 3))
    K = np.einsum("nxi,...mi->xmn...", D, fields)
    return K.reshape((D.shape[1], 2 * D.shape[0]) + stack)


def effective_hamiltonian(
    D: np.ndarray, K: np.ndarray, excited_energies, env: WaveguideEnv, loss: LossModel
) -> np.ndarray:
    """Non-Hermitian effective Hamiltonian of the excited manifold (rate
    units), ``H[x, y, ...]`` (n_e, n_e, ...): one matrix per field of the
    guided couplings ``K`` (n_e, 2 n_g, ...) of :func:`guided_couplings`,
    the stack axes last as there.

    It has two parts. The field-independent one is ``H_0 = diag(E_x) + L^T /
    2`` with the loss sandwich ``L_xy = sum_n d_{nx} . G_loss* . d_{ny}*``:
    its Hermitian part shifts the levels, its anti-Hermitian part is the
    decay into non-guided modes. The guided part ``-(i/2) z sum_k K_xk*
    K_yk``, summed over the 2 n_g output channels, is pure decay and adds no
    level shift, so a sweep over fields only changes it. ``i (H_eff -
    H_eff^H)`` is the total damping matrix.
    """
    L_T = np.einsum("nxi,ij,nyj->yx", D, loss.as_array().conj(), D.conj())
    H_0 = L_T / 2.0
    H_0.flat[::len(H_0) + 1] += np.asarray(excited_energies, dtype=float)    # + diag(E_x)
    guided = np.einsum("xk...,yk...->xy...", K.conj(), K)
    guided *= 0.5j * env.z
    # H_0 with a unit axis per stack axis broadcasts over the stack
    return np.subtract(H_0[(...,) + (None,) * (K.ndim - 2)], guided, out=guided)


@np.errstate(all="ignore")
def coupling_bundle(
    model: EmitterModel, env: WaveguideEnv, loss: LossModel
) -> CouplingBundle:
    """Assemble the effective Hamiltonian and the flux forms of one emitter
    in one environment.

    A single field frequency is used for every transition, so neither
    depends on the level energies but through ``H_eff``'s differences. The
    forms are built from the dipoles apart from ``H_eff``, so that emission
    can check one against the other. An overflowing ``H_eff`` raises.
    """
    D = model.dipole_array()                      # (n_g, n_e, 3)
    K = guided_couplings(D, env.E_f.as_array())   # (n_e, 2 n_g)
    E = np.asarray(model.excited_energies, dtype=float)
    H_eff = effective_hamiltonian(D, K, E - E.min(), env, loss)
    if not np.isfinite(H_eff).all():
        raise NonPhysicalStateError("the effective Hamiltonian overflows")

    E_f = env.E_f.as_array()
    T = np.empty((3, 3, 3), dtype=complex)       # the channel tensors, ordered as CHANNELS
    np.multiply(E_f[:, None], E_f.conj(), out=T[0])
    T[0] *= env.z
    np.conjugate(T[0], out=T[1])
    T[2] = loss.as_array().imag
    flux_forms = np.einsum("nai,cij,nbj->ncab", D.conj(), T, D)

    for arr in (H_eff, flux_forms):
        arr.setflags(write=False)
    return CouplingBundle(H_eff=H_eff, flux_forms=flux_forms)
