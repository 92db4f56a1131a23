"""Waveguide photonic environment: Green's tensor decomposition, the two
dipole contractions both solvers build on, and the coupling bundle consumed
by the emission solver and the two-level diagnostic.

Conventions
-----------
The guided field enters through the forward Bloch polarization ``E_f`` at the
emitter location; the backward mode is its time reverse, ``E_b = conj(E_f)``.
The per-direction Green's tensors are

    G_f = i (a w / 4|v_g|) outer(E_f, E_f*),   G_b likewise with E_b,

and the stored loss tensor is rate-normalized: for a dipole d the decay rate
into non-guided modes is ``Im(d . G_loss . d*) / (hbar eps0)`` directly, so
``LossModel.isotropic(s)`` yields a loss rate ``s`` for any unit dipole. The
guided sandwiches carry the usual extra factor of two (rate =
``2 Im(d . G_wg . d*) / (hbar eps0)``), equivalently the loss tensor
contributes to the physical Green's function at half weight. With the default
simple units (a = w = 1, v_g = 0.1) a linear dipole matched to a linear field
decays at rate 5 per direction, 10 total, and isotropic loss 0.2 gives a
guided fraction of 10/10.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .emitter import EmitterModel, PolarizationVector, _validated_dipoles
from .errors import ModelValidationError

CHANNELS = ("forward", "backward", "loss")

LOSS_SYMMETRY_TOL = 1e-12
LOSS_PASSIVITY_TOL = 1e-10


@dataclass(frozen=True)
class WaveguideEnv:
    """Local waveguide data: forward field, periodicity, group velocity,
    photon frequency, and unit constants (simple units by default)."""

    E_f: PolarizationVector
    a: float = 1.0
    v_g: float = 0.1
    omega: float = 1.0
    epsilon0: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not isinstance(self.E_f, PolarizationVector):
            object.__setattr__(self, "E_f", PolarizationVector(self.E_f))
        if not self.E_f.is_finite():
            raise ModelValidationError("non-finite-entry", "E_f has non-finite components")
        for name in ("a", "omega", "epsilon0", "hbar"):
            val = getattr(self, name)
            if not np.isfinite(val) or val <= 0:
                raise ModelValidationError(
                    "invalid-environment", f"{name} must be positive and finite, got {val}"
                )
        if not np.isfinite(self.v_g) or self.v_g == 0:
            raise ModelValidationError(
                "invalid-environment", f"v_g must be nonzero and finite, got {self.v_g}"
            )

    @property
    def E_b(self) -> PolarizationVector:
        """Backward mode polarization, the time reverse of the forward one."""
        return self.E_f.conjugated()

    @property
    def z(self) -> float:
        """Density-of-states scale a w / (2 |v_g|)."""
        return self.a * self.omega / (2.0 * abs(self.v_g))

    @property
    def N(self) -> complex:
        """Field-normalization constant 2 |v_g| eps0 / (i a w)."""
        return 2.0 * abs(self.v_g) * self.epsilon0 / (1j * self.a * self.omega)

    def with_field(self, E_f) -> "WaveguideEnv":
        return replace(self, E_f=PolarizationVector(E_f))


@dataclass(frozen=True)
class LossModel:
    """Non-guided contribution to the Green's tensor, stored as a symmetric
    complex 3x3 matrix in rate normalization (see module docstring).

    The imaginary part must induce a non-negative decay rate for every dipole
    (passivity); the real part produces level shifts. Construction keeps the
    tensor as a read-only array and the eigenmodes of the imaginary part with
    positive rate, the loss channels of :func:`coupling_bundle`; neither
    takes part in equality, hashing or the repr.
    """

    tensor: tuple[tuple[complex, ...], ...]
    _array: np.ndarray = field(init=False, compare=False, repr=False)
    _rates: np.ndarray = field(init=False, compare=False, repr=False)    # (k,)
    _modes: np.ndarray = field(init=False, compare=False, repr=False)    # (3, k)

    def __post_init__(self):
        arr = np.array(self.tensor, dtype=complex)
        if arr.shape != (3, 3):
            raise ModelValidationError(
                "dimension-mismatch", f"loss tensor must be 3x3, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr.view(float))):
            raise ModelValidationError("non-finite-entry", "loss tensor has non-finite entries")
        scale = max(1.0, float(np.max(np.abs(arr))))
        if np.max(np.abs(arr - arr.T)) > LOSS_SYMMETRY_TOL * scale:
            raise ModelValidationError(
                "non-symmetric-loss-tensor",
                "loss tensor must be symmetric (reciprocal medium)",
            )
        rates, modes = np.linalg.eigh(arr.imag)
        if np.min(rates) < -LOSS_PASSIVITY_TOL * scale:
            raise ModelValidationError(
                "non-passive-loss-tensor",
                f"loss tensor induces a negative decay rate (min eig {np.min(rates):.3e})",
            )
        # Modes at or below the floor emit nothing and get no channel.
        emitting = rates > 1e-15
        cached = {"_array": arr, "_rates": rates[emitting], "_modes": modes[:, emitting]}
        for name, value in cached.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "tensor", tuple(map(tuple, arr.tolist())))

    @classmethod
    def none(cls) -> "LossModel":
        return cls.isotropic(0.0)

    @classmethod
    def isotropic(cls, strength: float) -> "LossModel":
        """Dipole-independent loss: G_loss = i * strength * identity, i.e. two
        (in fact three) equally coupled orthogonal loss modes."""
        if strength < 0:
            raise ModelValidationError(
                "non-passive-loss-tensor", f"loss strength must be >= 0, got {strength}"
            )
        return cls.from_array(1j * float(strength) * np.eye(3))

    @classmethod
    def from_array(cls, tensor) -> "LossModel":
        """Build from a 3x3 array-like; the constructor normalizes it."""
        return cls(tensor)

    def as_array(self) -> np.ndarray:
        """Read-only complex 3x3 array of the tensor."""
        return self._array

    def rate_for(self, dipole: PolarizationVector, env: WaveguideEnv) -> float:
        """Loss decay rate induced on a single dipole."""
        d = dipole.as_array()
        return float(np.imag(d @ self.as_array() @ d.conj()) / (env.hbar * env.epsilon0))


@dataclass(frozen=True)
class GreensDecomposition:
    """Green's tensor at the emitter location, split by channel."""

    G_f: np.ndarray
    G_b: np.ndarray
    G_loss: np.ndarray

    def total(self) -> np.ndarray:
        return self.G_f + self.G_b + self.G_loss

    def physical(self) -> np.ndarray:
        """Channel sum with the stored loss tensor at its physical half weight."""
        return self.G_f + self.G_b + 0.5 * self.G_loss


def greens_decomposition(env: WaveguideEnv, loss: LossModel) -> GreensDecomposition:
    """Assemble the per-channel Green's tensors from the local mode fields."""
    kappa = env.a * env.omega / (4.0 * abs(env.v_g))
    ef = env.E_f.as_array()
    eb = env.E_b.as_array()
    G_f = 1j * kappa * np.outer(ef, ef.conj())
    G_b = 1j * kappa * np.outer(eb, eb.conj())
    for g in (G_f, G_b):
        g.setflags(write=False)
    return GreensDecomposition(G_f=G_f, G_b=G_b, G_loss=loss.as_array())


@dataclass(frozen=True)
class CouplingBundle:
    """Coupling matrices of one emitter in one environment, as the emission
    solver consumes them.

    ``Gamma`` follows the index convention of its defining sandwich
    (unconjugated dipole on the left index); the solvers contract it through
    its transpose, which is the orientation under which probability is
    conserved and excited-basis rotations act trivially.

    The radiation channels are stacked: ``couplings[c, x, n]`` is the
    amplitude with which excited state x decays to ground state n into
    channel c, ``rate_scales[c]`` turns its mod-squared contraction with an
    excited-state amplitude vector into a rate, and ``columns[c]`` indexes
    the channel's label in :data:`CHANNELS`. The forward and backward guided
    channels come first, then one loss channel per emitting eigenmode of the
    loss tensor.
    """

    Gamma: np.ndarray               # (n_e, n_e) self-energy sandwich
    couplings: np.ndarray           # (channel, n_e, n_g)
    rate_scales: np.ndarray         # (channel,)
    columns: np.ndarray             # (channel,) index into CHANNELS
    coherent_shift: np.ndarray      # Hermitian level-shift matrix (energy units)
    excited_energies: np.ndarray

    def damping_rate_matrix(self) -> np.ndarray:
        """Hermitian PSD matrix K with dpop/dt = -K-weighted decay (rate units).

        Built from the channel couplings, so the emission fluxes and the total
        excited decay balance exactly.
        """
        C = self.couplings
        return np.einsum("c,cxn,cyn->xy", self.rate_scales, C.conj(), C)

    def total_decay_rates(self) -> np.ndarray:
        """Total spontaneous decay rate of each excited state (all channels)."""
        return np.real(np.diag(self.damping_rate_matrix()))

    def channel_decay_rates(self) -> dict[str, np.ndarray]:
        """Per-channel decay rate of each excited state, keyed by the labels
        of the channels present."""
        C = self.couplings
        rates = self.rate_scales[:, None] * np.real(np.einsum("cxn,cxn->cx", C, C.conj()))
        # Not np.unique: its first call in a process imports numpy.ma, which
        # costs the command line ~30 ms per run.
        return {CHANNELS[k]: rates[self.columns == k].sum(axis=0)
                for k in dict.fromkeys(self.columns.tolist())}


def guided_couplings(D: np.ndarray, E_f) -> np.ndarray:
    """Emission couplings ``E_f* . d_{nx}`` and ``E_b* . d_{nx}`` (E_b =
    conj(E_f)) stacked along a mode axis, (..., 2, n_e, n_g), for the
    (n_g, n_e, 3) dipole array ``D`` and a field (3,) or stack of fields
    (..., 3). The conjugated column of ground state r is the absorption
    vector ``d_{r:}* . E`` of that mode.
    """
    E_f = np.asarray(E_f, dtype=complex)
    fields = np.concatenate((E_f.conj(), E_f), axis=-1).reshape(E_f.shape[:-1] + (2, 3))
    return np.einsum("nxi,...mi->...mxn", D, fields)


def dipole_sandwich(D: np.ndarray, G: np.ndarray) -> np.ndarray:
    """``sum_n d_{nx} . G* . d_{ny}*`` (n_e, n_e) for a 3x3 tensor ``G``."""
    return np.einsum("nxi,ij,nyj->xy", D, np.conj(G), D.conj())


def coupling_bundle(
    model: EmitterModel, env: WaveguideEnv, loss: LossModel
) -> CouplingBundle:
    """Assemble the coupling matrices of one emitter in one environment.

    A single field frequency is used for every transition, so the couplings
    do not depend on the level energies. The guided part of ``Gamma`` is
    ``i kappa (B_f B_f^H + B_b B_b^H) / eps0`` with the guided couplings
    ``B``, which equals the dipole sandwich of ``G_f + G_b``; only the loss
    tensor goes through :func:`dipole_sandwich`. The loss channels are the
    eigenmodes the :class:`LossModel` kept at construction.
    """
    D = _validated_dipoles(model)                 # (n_g, n_e, 3)
    eps0, hbar = env.epsilon0, env.hbar
    kappa = env.a * env.omega / (4.0 * abs(env.v_g))

    B = guided_couplings(D, env.E_f.as_array())   # (2, n_e, n_g)
    Gamma = ((1j * kappa / eps0) * np.einsum("mxn,myn->xy", B, B.conj())
             - dipole_sandwich(D, 0.5 * loss.as_array()) / eps0)

    loss_couplings = np.einsum("nxi,ik->kxn", D, loss._modes)
    couplings = np.concatenate((B, loss_couplings))
    wg_scale = env.a * env.omega / (2.0 * abs(env.v_g) * hbar * eps0)
    rate_scales = np.concatenate(([wg_scale, wg_scale], loss._rates / (hbar * eps0)))
    columns = np.array([0, 1] + [2] * loss._rates.size)

    shift = 0.5 * (Gamma.T + Gamma.conj())
    for arr in (Gamma, couplings, rate_scales, columns, shift):
        arr.setflags(write=False)

    return CouplingBundle(
        Gamma=Gamma,
        couplings=couplings,
        rate_scales=rate_scales,
        columns=columns,
        coherent_shift=shift,
        excited_energies=np.asarray(model.excited_energies, dtype=float),
    )
