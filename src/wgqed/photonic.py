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

from dataclasses import dataclass, replace

import numpy as np

from .emitter import EmitterModel, PolarizationVector, validate
from .errors import ModelValidationError

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
    (passivity); the real part produces level shifts.
    """

    tensor: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        arr = np.asarray(self.tensor, dtype=complex)
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
        rate_eigs = np.linalg.eigvalsh(arr.imag)
        if np.min(rate_eigs) < -LOSS_PASSIVITY_TOL * scale:
            raise ModelValidationError(
                "non-passive-loss-tensor",
                f"loss tensor induces a negative decay rate (min eig {np.min(rate_eigs):.3e})",
            )
        object.__setattr__(
            self, "tensor", tuple(tuple(complex(v) for v in row) for row in arr)
        )

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
        arr = np.asarray(tensor, dtype=complex)
        return cls(tuple(tuple(complex(v) for v in row) for row in arr))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.tensor, dtype=complex)

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
class ChannelCouplings:
    """Emission couplings of one radiation channel.

    ``couplings[x, n]`` is the amplitude with which excited state x decays to
    ground state n into this channel; multiplying the mod-squared contraction
    with an excited-state amplitude vector by ``rate_scale`` gives a rate.
    """

    label: str
    rate_scale: float
    couplings: np.ndarray


@dataclass(frozen=True)
class CouplingBundle:
    """Coupling matrices of one emitter in one environment, as the emission
    solver consumes them.

    ``Gamma`` follows the index convention of its defining sandwich
    (unconjugated dipole on the left index); the solvers contract it through
    its transpose, which is the orientation under which probability is
    conserved and excited-basis rotations act trivially.
    """

    Gamma: np.ndarray               # (n_e, n_e) self-energy sandwich
    channels: tuple[ChannelCouplings, ...]
    coherent_shift: np.ndarray      # Hermitian level-shift matrix (energy units)
    excited_energies: np.ndarray

    def damping_rate_matrix(self) -> np.ndarray:
        """Hermitian PSD matrix K with dpop/dt = -K-weighted decay (rate units).

        Built from the channel couplings, so the emission fluxes and the total
        excited decay balance exactly.
        """
        n_e = self.Gamma.shape[0]
        K = np.zeros((n_e, n_e), dtype=complex)
        for ch in self.channels:
            C = ch.couplings
            K += ch.rate_scale * (C.conj() @ C.T)
        return K

    def total_decay_rates(self) -> np.ndarray:
        """Total spontaneous decay rate of each excited state (all channels)."""
        return np.real(np.diag(self.damping_rate_matrix()))

    def channel_decay_rates(self) -> dict[str, np.ndarray]:
        """Per-channel decay rate of each excited state."""
        n_e = self.Gamma.shape[0]
        out: dict[str, np.ndarray] = {}
        for ch in self.channels:
            C = ch.couplings
            rates = ch.rate_scale * np.real(np.einsum("xn,xn->x", C, C.conj()))
            out[ch.label] = out.get(ch.label, np.zeros(n_e)) + rates
        return out


def guided_couplings(D: np.ndarray, E_f) -> tuple[np.ndarray, np.ndarray]:
    """Emission couplings ``E_f* . d_{nx}`` and ``E_b* . d_{nx}`` (E_b =
    conj(E_f)), each (..., n_e, n_g), for the (n_g, n_e, 3) dipole array ``D``
    and a field (3,) or stack of fields (..., 3). The conjugated column of
    ground state r is the absorption vector ``d_{r:}* . E`` of that mode.
    """
    E_f = np.asarray(E_f, dtype=complex)
    return (np.einsum("nxi,...i->...xn", D, E_f.conj()),
            np.einsum("nxi,...i->...xn", D, E_f))


def dipole_sandwich(D: np.ndarray, G: np.ndarray) -> np.ndarray:
    """``sum_n d_{nx} . G* . d_{ny}*`` (n_e, n_e) for a 3x3 tensor ``G``."""
    return np.einsum("nxi,ij,nyj->xy", D, np.conj(G), D.conj())


def coupling_bundle(
    model: EmitterModel, env: WaveguideEnv, loss: LossModel
) -> CouplingBundle:
    """Assemble the coupling matrices of one emitter in one environment.

    A single field frequency is used for every transition, so the couplings
    do not depend on the level energies.
    """
    validate(model)
    D = model.dipole_array()                      # (n_g, n_e, 3)
    dec = greens_decomposition(env, loss)
    eps0, hbar = env.epsilon0, env.hbar

    Gamma = -dipole_sandwich(D, dec.physical()) / eps0

    B_f, B_b = guided_couplings(D, env.E_f.as_array())
    wg_scale = env.a * env.omega / (2.0 * abs(env.v_g) * hbar * eps0)
    channels = [
        ChannelCouplings("forward", wg_scale, B_f),
        ChannelCouplings("backward", wg_scale, B_b),
    ]
    # One loss channel per eigenmode of the dissipative part of the tensor.
    rate_eigs, rate_vecs = np.linalg.eigh(dec.G_loss.imag)
    for lam, u in zip(rate_eigs, rate_vecs.T):
        if lam <= 1e-15:
            continue
        C = np.einsum("nxi,i->xn", D, u.astype(complex))
        channels.append(ChannelCouplings("loss", float(lam) / (hbar * eps0), C))

    shift = 0.5 * (Gamma.T + Gamma.conj())
    for arr in (Gamma, shift):
        arr.setflags(write=False)

    return CouplingBundle(
        Gamma=Gamma,
        channels=tuple(channels),
        coherent_shift=shift,
        excited_energies=np.asarray(model.excited_energies, dtype=float),
    )
