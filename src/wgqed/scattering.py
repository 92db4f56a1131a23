"""Long-time single-photon scattering amplitudes for a multi-level emitter,
plus the scalar two-level closed form used as an independent cross-check.

The amplitude into output mode m with the emitter left in ground state k is

    gamma[m, k] = delta - (E_m* . d_k:) M^-1 (d_r:* . E_in)

with the response matrix M = X^T + i L^T / 2z + i eps0 Delta / z built from
the guided damping X, the loss sandwich L and the detuning Delta. The
bookend convention is fixed: absorption contracts the conjugated dipole with
the field, emission contracts the conjugated field with the dipole. Only X
depends on the field, so a sweep stacks M over its fields and solves the
stack in one call; :func:`scatter` is a batch of one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .emitter import EmitterModel, PolarizationVector, _validated_dipoles
from .errors import (
    IllConditionedResponseWarning,
    SingularResponseError,
)
from .photonic import LossModel, WaveguideEnv, dipole_sandwich, guided_couplings

MODES = ("forward", "backward")
DARK_COUPLING_THRESHOLD = 1e-12
COND_WARN_THRESHOLD = 1e12
COND_SINGULAR_THRESHOLD = 1e15


@dataclass(frozen=True)
class ScatterInput:
    """Input channel: photon direction, initial ground state, and photon
    frequency (defaults to the environment frequency, i.e. zero detuning
    against an excited energy equal to ``E_ground + hbar * omega``)."""

    direction: str = "forward"
    ground_index: int = 0
    photon_frequency: float | None = None

    def __post_init__(self):
        if self.direction not in MODES:
            raise ValueError(f"direction must be one of {MODES}, got {self.direction!r}")


@dataclass(frozen=True)
class ScatteringResult:
    """Amplitude table gamma[mode, ground] plus the probability scattered out
    of the waveguide and the energy-conserving output frequencies."""

    amplitudes: np.ndarray            # (2, n_ground), rows ordered as MODES
    p_loss: float
    output_frequencies: np.ndarray    # (n_ground,)
    input_direction: str
    input_ground: int

    def amplitude(self, mode: str, ground_index: int) -> complex:
        return complex(self.amplitudes[MODES.index(mode), ground_index])

    @property
    def transmission(self) -> complex:
        """Amplitude in the input mode with the emitter back in the input
        ground state."""
        return self.amplitude(self.input_direction, self.input_ground)

    @property
    def reflection(self) -> complex:
        other = "backward" if self.input_direction == "forward" else "forward"
        return self.amplitude(other, self.input_ground)

    def total_probability(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) + self.p_loss)


class TwoLevelAmplitudes(NamedTuple):
    t: complex
    r: complex
    p_loss: float


def _solve_dark(M: np.ndarray, in_vec: np.ndarray, dark_state_projection: bool) -> np.ndarray:
    """Solve a singular or ill-conditioned response slice in the subspace
    coupled to some channel, or raise naming the dark directions: the
    eigenvectors of the damping part of ``M`` with coupling below threshold.
    """
    lam, vecs = np.linalg.eigh(0.5 * (M + M.conj().T))
    dark = lam < DARK_COUPLING_THRESHOLD
    if not dark_state_projection:
        raise SingularResponseError(
            "response matrix is singular: dark excited eigenvector(s) with "
            f"couplings {lam[dark]} decouple from every channel on resonance; "
            "rerun with dark-state projection to solve in the coupled subspace",
            dark_vectors=vecs[:, dark],
        )
    keep = vecs[:, ~dark]
    M_red = keep.conj().T @ M @ keep
    return keep @ np.linalg.solve(M_red, keep.conj().T @ in_vec)


def _scatter_fields(
    model: EmitterModel,
    env: WaveguideEnv,
    loss: LossModel,
    inp: ScatterInput,
    fields: np.ndarray,
    dark_state_projection: bool,
) -> list[ScatteringResult | Exception]:
    """Scatter at every forward field of the stack ``fields`` (T, 3), all
    else shared. Returns per field a :class:`ScatteringResult` or the
    ``SingularResponseError`` / ``LinAlgError`` of that field; only singular
    or ill-conditioned slices leave the one stacked solve for the dark path.
    """
    D = _validated_dipoles(model)
    n_g = model.n_ground
    r = inp.ground_index
    if not 0 <= r < n_g:
        raise IndexError(f"ground index {r} out of range for {n_g} ground states")

    omega_f = env.omega if inp.photon_frequency is None else float(inp.photon_frequency)
    ground = np.asarray(model.ground_energies, dtype=float)
    E_int = ground[r] + env.hbar * omega_f

    B = guided_couplings(D, fields)                      # (T, mode, n_e, n_g)
    inc = MODES.index(inp.direction)
    in_vec = B[:, inc, :, r].conj()                      # d_r* . E_in

    # M = X^T + i L^T / 2z + i eps0 Delta / z; only the guided damping X
    # depends on the field.
    X_T = 0.5 * np.einsum("tmxn,tmyn->txy", B.conj(), B)
    Delta = np.diag(np.asarray(model.excited_energies, dtype=float) - E_int)
    M = X_T + ((0.5j / env.z) * dipole_sandwich(D, loss.as_array()).T
               + (1j * env.epsilon0 / env.z) * Delta)

    y = np.zeros(in_vec.shape, dtype=complex)
    errors: dict[int, Exception] = {}
    active = np.linalg.norm(in_vec, axis=1) > 0.0
    cond = np.linalg.cond(M)
    solvable = active & np.isfinite(cond) & (cond <= COND_SINGULAR_THRESHOLD)
    if solvable.any():
        y[solvable] = np.linalg.solve(M[solvable], in_vec[solvable, :, None])[..., 0]
    for t in np.flatnonzero(solvable & (cond > COND_WARN_THRESHOLD)):
        warnings.warn(
            f"response matrix condition number {cond[t]:.3e} exceeds {COND_WARN_THRESHOLD:.0e}",
            IllConditionedResponseWarning,
            stacklevel=3,
        )
    for t in np.flatnonzero(active & ~solvable):
        try:
            y[t] = _solve_dark(M[t], in_vec[t], dark_state_projection)
        except (SingularResponseError, np.linalg.LinAlgError) as exc:
            errors[t] = exc

    amplitudes = np.zeros((len(M), 2, n_g), dtype=complex)
    amplitudes[:, inc, r] = 1.0
    amplitudes -= np.einsum("tmxn,tx->tmn", B, y)
    p_loss = 1.0 - np.sum(np.abs(amplitudes) ** 2, axis=(1, 2))
    output_frequencies = omega_f + (ground[r] - ground) / env.hbar
    amplitudes.setflags(write=False)
    output_frequencies.setflags(write=False)
    return [
        errors.get(t) or ScatteringResult(
            amplitudes=amps,
            p_loss=float(p),
            output_frequencies=output_frequencies,
            input_direction=inp.direction,
            input_ground=r,
        )
        for t, (amps, p) in enumerate(zip(amplitudes, p_loss))
    ]


def scatter(
    model: EmitterModel,
    env: WaveguideEnv,
    loss: LossModel,
    inp: ScatterInput,
    *,
    dark_state_projection: bool = False,
) -> ScatteringResult:
    """Scatter one long (single-frequency) photon off the emitter.

    Returns the complex amplitude for every (output mode, final ground state)
    pair; the remaining probability is reported as ``p_loss``. Raises
    :class:`SingularResponseError` when the response matrix is singular (a
    dark excited state exactly on resonance with zero loss) unless
    ``dark_state_projection`` is set, in which case decoupled excited
    directions are removed and the system is solved in the coupled subspace.
    """
    (outcome,) = _scatter_fields(
        model, env, loss, inp, env.E_f.as_array()[None], dark_state_projection
    )
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def two_level_closed_form(
    d: PolarizationVector,
    env: WaveguideEnv,
    loss: LossModel,
    detuning: float = 0.0,
) -> TwoLevelAmplitudes:
    """Closed-form (t, r, p_loss) for a single transition with dipole ``d``.

    ``detuning`` is the transition energy minus the total input energy, in the
    same units as the level energies. Kept free of the matrix machinery so it
    can serve as an independent oracle for :func:`scatter`.
    """
    if not isinstance(d, PolarizationVector):
        d = PolarizationVector(d)
    dv = d.as_array()
    ef = env.E_f.as_array()
    eb = env.E_b.as_array()

    a_f = dv @ ef.conj()              # E_f* . d
    a_b = dv @ eb.conj()
    X = 0.5 * (abs(a_f) ** 2 + abs(a_b) ** 2)
    loss_term = (0.5j / env.z) * (dv @ loss.as_array().conj() @ dv.conj())
    M = X + loss_term + 1j * env.epsilon0 * float(detuning) / env.z
    if abs(M) == 0.0:
        raise SingularResponseError(
            "two-level denominator vanishes: zero coupling, zero loss, on resonance",
            code="singular-denominator",
        )
    excitation = np.conj(a_f)         # d* . E_f
    t = 1.0 - a_f * excitation / M
    r = -a_b * excitation / M
    p_loss = float(1.0 - abs(t) ** 2 - abs(r) ** 2)
    return TwoLevelAmplitudes(t=complex(t), r=complex(r), p_loss=p_loss)


@dataclass(frozen=True)
class SweepPoint:
    """One polarization sweep sample; exactly one of result/error is set."""

    theta: float
    result: Optional[ScatteringResult] = None
    error: Optional[Exception] = field(default=None, compare=False)

    @property
    def failed(self) -> bool:
        return self.error is not None


def polarization_sweep(
    model: EmitterModel,
    env_template: WaveguideEnv,
    loss: LossModel,
    inp: ScatterInput,
    theta_grid: Sequence[float],
    *,
    dark_state_projection: bool = False,
) -> list[SweepPoint]:
    """Scatter at E_f = (cos(theta), i sin(theta), 0) for each grid point.

    The whole grid is solved as one batch. Failed points are flagged in place
    instead of aborting the sweep; results are returned in grid order.
    """
    thetas = np.asarray(theta_grid, dtype=float)
    if thetas.size == 0 or not np.all(np.isfinite(thetas)):
        raise ValueError("theta grid must be nonempty and finite")
    if np.min(thetas) < 0.0 or np.max(thetas) > np.pi + 1e-12:
        raise ValueError("theta grid must lie within [0, pi]")

    fields = np.stack(
        [np.cos(thetas), 1j * np.sin(thetas), np.zeros_like(thetas)], axis=1
    )
    outcomes = _scatter_fields(
        model, env_template, loss, inp, fields, dark_state_projection
    )
    return [
        SweepPoint(theta=float(theta), error=out) if isinstance(out, Exception)
        else SweepPoint(theta=float(theta), result=out)
        for theta, out in zip(thetas, outcomes)
    ]
