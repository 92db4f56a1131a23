"""Long-time single-photon scattering amplitudes for a multi-level emitter,
plus the scalar two-level closed form used as an independent cross-check.

The amplitude into output mode m with the emitter left in ground state k is

    gamma[m, k] = delta - (E_m* . d_k:) M^-1 (d_r:* . E_in)

with the response matrix the resolvent form

    M = (i eps0 hbar / z) (H_eff - E_int / hbar)

of the effective Hamiltonian ``H_eff`` that emission exponentiates (see
:func:`wgqed.photonic.effective_hamiltonian`) at the total input energy
``E_int``. The scale makes the Hermitian part of M the guided damping
``sum_m B_m* B_m^T / 2`` plus the loss decay, in the units of
``DARK_COUPLING_THRESHOLD``. The bookend convention is fixed: absorption
contracts the conjugated dipole with the field, emission contracts the
conjugated field with the dipole. Only the guided part of ``H_eff`` depends
on the field, so a sweep stacks M over its fields and solves the stack in one
call; :func:`scatter` is a batch of one.

A slice is solved in the stack when its condition number is at most
``COND_SINGULAR_THRESHOLD`` and warned about above ``COND_WARN_THRESHOLD``.
Most slices are certified well conditioned without singular values, from the
damping: for a unit vector x, ``|Mx| >= |x^H M x| >= x^H Herm(M) x``, so
``sigma_min(M) >= lambda_min(Herm M)`` whenever that eigenvalue is positive.
Gershgorin's theorem on the signed diagonal gives a lower bound ``g`` on it,
and ``n max|M_ij|`` bounds ``sigma_max(M)`` from above; a slice with ``g > 0``
and ``n max|M_ij| <= 1e-4 COND_WARN_THRESHOLD g`` has a condition number
at most 1e8, four orders of magnitude inside the warning threshold and far
beyond the rounding of either bound or of the singular values (relative
errors near ``1e8 * 2.2e-16``). Such a slice is solvable and raises no
warning, which is exactly what its singular values would decide, so the
certificate changes no decision. Only the other slices, and every slice of a
stack too small for the certificate to pay, get their singular values.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .emitter import EmitterModel, PolarizationVector
from .errors import (
    IllConditionedResponseWarning,
    NonPhysicalStateError,
    SingularResponseError,
    WgqedError,
)
from .photonic import LossModel, WaveguideEnv, effective_hamiltonian, guided_couplings

MODES = ("forward", "backward")
DARK_COUPLING_THRESHOLD = 1e-12
COND_WARN_THRESHOLD = 1e12
COND_SINGULAR_THRESHOLD = 1e15
# Largest condition number the damping certificate vouches for, and the
# smallest stack it is tried on: below that, the fixed cost of its dozen
# array operations exceeds that of the singular values it saves.
_CERTIFIED_COND = COND_WARN_THRESHOLD * 1e-4
_CERTIFY_FROM = 8


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
        index = self.ground_index
        if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
            raise ValueError(f"ground_index must be an integer, got {index!r}")
        freq = self.photon_frequency
        if freq is not None and (isinstance(freq, bool) or not isinstance(freq, numbers.Real)
                                 or not math.isfinite(freq)):
            raise ValueError(f"photon_frequency must be None or a finite number, got {freq!r}")


class ScatteringResult(NamedTuple):
    """Amplitude table gamma[mode, ground] plus the probability scattered out
    of the waveguide and the energy-conserving output frequencies.

    A named tuple: a sweep builds one per field, so it costs a tuple. The
    arrays are read-only views into the sweep's stacked results."""

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


class TwoLevelAmplitudes(NamedTuple):
    t: complex
    r: complex
    p_loss: float


def _solve_dark(M: np.ndarray, in_vec: np.ndarray, dark_state_projection: bool,
                cond: float) -> np.ndarray:
    """Solve a singular or ill-conditioned response slice, of condition
    number ``cond``, in the subspace coupled to some channel, or raise naming
    the dark directions, the eigenvectors of the damping part of ``M`` with
    coupling below threshold, or saying that there are none. A slice with a
    non-finite entry raises :class:`NonPhysicalStateError`.
    """
    if not np.isfinite(M).all():
        raise NonPhysicalStateError("response matrix overflows")
    lam, vecs = np.linalg.eigh(0.5 * (M + M.conj().T))
    dark = lam < DARK_COUPLING_THRESHOLD
    if not dark_state_projection:
        if dark.any():
            cause = (f"dark excited eigenvector(s) with couplings {lam[dark]} decouple "
                     "from every channel on resonance")
        else:
            cause = (f"its condition number {cond:.3e} exceeds {COND_SINGULAR_THRESHOLD:.0e}, "
                     "but no excited direction is dark (smallest damping coupling "
                     f"{lam[0]:.3e})")
        raise SingularResponseError(
            f"response matrix is singular: {cause}; rerun with dark-state projection "
            "to solve in the coupled subspace",
            dark_vectors=vecs[:, dark],
        )
    keep = vecs[:, ~dark]
    M_red = keep.conj().T @ M @ keep
    return keep @ np.linalg.solve(M_red, keep.conj().T @ in_vec)


def _certified(M: np.ndarray) -> np.ndarray:
    """Mask of the slices of the stack ``M`` (T, n, n) whose condition number
    is at most ``_CERTIFIED_COND``, found from the damping ``Herm M`` without
    singular values (see the module docstring). A False entry decides
    nothing."""
    herm2 = np.abs(M + M.conj().swapaxes(-1, -2))           # 2 |Herm M_ij|
    # 4 Re M_ii - sum_j 2 |Herm M_ij| is twice the signed Gershgorin bound
    # Re M_ii - sum_{j != i} |Herm M_ij| where Re M_ii >= 0, and below it
    # otherwise.
    twice_g = (4.0 * M.real.diagonal(axis1=-2, axis2=-1) - herm2.sum(axis=-1)).min(axis=-1)
    twice_norm = (2.0 * M.shape[-1]) * np.abs(M).max(axis=(-2, -1))
    return (twice_g > 0.0) & (twice_norm <= _CERTIFIED_COND * twice_g)


def _condition_numbers(M: np.ndarray) -> np.ndarray:
    """``np.linalg.cond(M)`` of the stack ``M`` (T, n, n): the ratio of the
    extreme singular values, ``inf`` where the smallest is zero."""
    s = np.linalg.svd(M, compute_uv=False)
    return np.divide(s[:, 0], s[:, -1], out=np.full(len(s), np.inf), where=s[:, -1] > 0)


def _solve_gate(
    M: np.ndarray, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks of the ``active`` slices of the stack ``M`` that the stacked
    solve takes (condition number at most ``COND_SINGULAR_THRESHOLD``) and of
    those that warn (above ``COND_WARN_THRESHOLD``), plus the condition
    numbers: exact, except that a certified or inactive slice of a stack
    large enough to certify reads 0, which passes both thresholds as its
    true value would. A non-finite slice is neither; its condition number reads nan."""
    finite = np.isfinite(M).all(axis=(-2, -1))
    all_finite = finite.all()
    if not all_finite:      # the certificate and the SVD see the identity instead
        M = np.where(finite[:, None, None], M, np.eye(M.shape[-1]))
    if len(M) < _CERTIFY_FROM:
        cond = _condition_numbers(M)
    else:
        cond = np.zeros(len(M))
        exact = np.flatnonzero(active & ~_certified(M))
        if exact.size:
            cond[exact] = _condition_numbers(M[exact])
    if not all_finite:
        cond[~finite] = np.nan
    solvable = active & (cond <= COND_SINGULAR_THRESHOLD)
    return solvable, solvable & (cond > COND_WARN_THRESHOLD), cond


@np.errstate(all="ignore")
def _scatter_fields(
    model: EmitterModel,
    env: WaveguideEnv,
    loss: LossModel,
    inp: ScatterInput,
    fields: np.ndarray,
    dark_state_projection: bool,
) -> tuple[list[ScatteringResult], dict[int, Exception]]:
    """Scatter at every forward field of the stack ``fields`` (T, 3), all
    else shared. Returns a :class:`ScatteringResult` per field and the
    ``WgqedError`` or ``LinAlgError`` of each field that failed, by index;
    the result at a failed index is meaningless. Only singular,
    ill-conditioned or overflowing slices leave the one stacked solve.
    """
    D = model.dipole_array()
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

    # H_eff with the level energies counted from E_int is H_eff - E_int / hbar.
    detunings = np.asarray(model.excited_energies, dtype=float) - E_int
    M = (1j * env.epsilon0 * env.hbar / env.z) * effective_hamiltonian(D, B, detunings, env, loss)

    errors: dict[int, Exception] = {}
    active = (in_vec != 0).any(axis=1)
    solvable, warn, cond = _solve_gate(M, active)
    # the usual case: no slice to mask out, so the stack is solved as it is
    if solvable.all():
        y = np.linalg.solve(M, in_vec[..., None])[..., 0]
        failed = ()
    else:
        y = np.zeros(in_vec.shape, dtype=complex)
        if solvable.any():
            y[solvable] = np.linalg.solve(M[solvable], in_vec[solvable, :, None])[..., 0]
        # a non-finite slice fails even with no input: its couplings may overflow too
        failed = np.flatnonzero(~solvable & (active | np.isnan(cond)))
    if warn.any():
        for t in np.flatnonzero(warn):
            warnings.warn(
                f"response matrix condition number {cond[t]:.3e} exceeds {COND_WARN_THRESHOLD:.0e}",
                IllConditionedResponseWarning,
                stacklevel=4,    # past the errstate wrapper
            )
    for t in failed:
        try:
            y[t] = _solve_dark(M[t], in_vec[t], dark_state_projection, cond[t])
        except (WgqedError, np.linalg.LinAlgError) as exc:
            errors[t] = exc

    amplitudes = np.zeros((len(M), 2, n_g), dtype=complex)
    amplitudes[:, inc, r] = 1.0
    amplitudes -= np.einsum("tmxn,tx->tmn", B, y)
    p_loss = 1.0 - np.sum(np.abs(amplitudes) ** 2, axis=(1, 2))
    output_frequencies = omega_f + (ground[r] - ground) / env.hbar
    amplitudes.setflags(write=False)
    output_frequencies.setflags(write=False)
    # tuple.__new__ over zipped fields builds the records without a Python
    # frame per record.
    results = list(map(tuple.__new__, repeat(ScatteringResult), zip(
        amplitudes, p_loss.tolist(), repeat(output_frequencies),
        repeat(inp.direction), repeat(r),
    )))
    return results, errors


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
    (result,), errors = _scatter_fields(
        model, env, loss, inp, env.E_f.as_array()[None], dark_state_projection
    )
    if errors:
        raise errors[0]
    return result


@np.errstate(all="ignore")
def two_level_closed_form(
    d: PolarizationVector,
    env: WaveguideEnv,
    loss: LossModel,
    detuning: float = 0.0,
) -> TwoLevelAmplitudes:
    """Closed-form (t, r, p_loss) for a single transition with dipole ``d``.

    ``detuning`` is the transition energy minus the total input energy, in the
    same units as the level energies. Kept free of the matrix machinery so it
    can serve as an independent oracle for :func:`scatter`. Raises
    :class:`NonPhysicalStateError` when the denominator overflows.
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
    if not np.isfinite(M):
        raise NonPhysicalStateError("two-level denominator overflows")
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


class SweepPoint(NamedTuple):
    """One polarization sweep sample, a named tuple; exactly one of
    result/error is set."""

    theta: float
    result: Optional[ScatteringResult] = None
    error: Optional[Exception] = None

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
    if thetas.ndim != 1 or thetas.size == 0 or not np.isfinite(thetas).all():
        raise ValueError("theta grid must be a nonempty 1-d array of finite values")
    if np.min(thetas) < 0.0 or np.max(thetas) > np.pi + 1e-12:
        raise ValueError("theta grid must lie within [0, pi]")

    fields = np.stack(
        [np.cos(thetas), 1j * np.sin(thetas), np.zeros_like(thetas)], axis=1
    )
    results, errors = _scatter_fields(
        model, env_template, loss, inp, fields, dark_state_projection
    )
    points = list(map(tuple.__new__, repeat(SweepPoint),
                      zip(thetas.tolist(), results, repeat(None))))
    for t, exc in errors.items():
        points[t] = SweepPoint(points[t].theta, None, exc)
    return points
