"""Spontaneous-emission dynamics of an initially excited emitter.

Propagates the reduced density matrix of the emitter with the optical modes
traced out: the excited block evolves coherently under the bare energies plus
environment-induced shifts and decays under the channel couplings, while the
released population is routed into per-channel ground-state accumulators
(forward, backward, loss) built from the matching part of the Green's tensor.
The generator does not depend on time, so the propagation is exact: one block
matrix exponential per output time, with no step-size or tolerance setting.

Ground-manifold coherences between different photon channels, and between
ground states within one channel, are not tracked: the reproduced observables
(populations and direction-resolved photon probabilities) only need the
diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .emitter import EmitterModel, ExcitedSuperposition
from .errors import NonPhysicalStateError
from .photonic import CHANNELS, CouplingBundle, LossModel, WaveguideEnv, coupling_bundle

INITIAL_NORM_TOL = 1e-12
TRACE_DRIFT_TOL = 1e-8
DEFAULT_LIFETIMES = 20.0

# Degree-13 Pade coefficients and the largest 1-norm at which the unscaled
# approximant reaches double-precision accuracy (Higham 2005, table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152
# Output times exponentiated in one stack: bounds the memory of the Pade
# temporaries on long grids.
_TIMES_PER_EXPM = 32


@dataclass(frozen=True)
class EmitterDensityMatrix:
    """Reduced emitter state at one time: Hermitian excited block plus
    accumulated ground-state probabilities per radiation channel."""

    excited_block: np.ndarray        # (n_e, n_e) complex Hermitian
    ground_mode_probs: np.ndarray    # (n_g, 3) real, columns ordered as CHANNELS

    def total_trace(self) -> float:
        return float(np.trace(self.excited_block).real + np.sum(self.ground_mode_probs))

    def excited_populations(self) -> np.ndarray:
        return np.real(np.diag(self.excited_block))

    def channel_totals(self) -> tuple[float, float, float]:
        sums = np.sum(self.ground_mode_probs, axis=0)
        return (float(sums[0]), float(sums[1]), float(sums[2]))


class DirectionalTotals(NamedTuple):
    p_forward: float
    p_backward: float
    p_loss: float
    residual_excited: float


@dataclass(frozen=True)
class EmissionTrajectory:
    times: np.ndarray
    states: tuple[EmitterDensityMatrix, ...]
    final_totals: DirectionalTotals


def channel_flux(bundle: CouplingBundle, excited_block: np.ndarray) -> np.ndarray:
    """Probability flux (..., n_ground, 3) out of ``excited_block`` (or a
    stack of blocks, shape (..., n_e, n_e)) into each (ground state, channel)
    pair. Applied to the time integral of the excited block it gives the
    accumulated probabilities.

    One contraction over the stacked channel couplings gives the flux per
    (ground state, channel); the rate scales weight it and the channel
    columns sum it into the labels of :data:`CHANNELS`.
    """
    C = bundle.couplings
    per_channel = np.real(np.einsum("cxn,...xy,cyn->...nc", C, excited_block, C.conj()))
    weights = bundle.rate_scales[:, None] * np.eye(len(CHANNELS))[bundle.columns]
    return per_channel @ weights


def _coerce_initial(initial, n_e: int) -> np.ndarray:
    if isinstance(initial, ExcitedSuperposition):
        psi = initial.as_array()
        if psi.size != n_e:
            raise NonPhysicalStateError(
                f"initial superposition has {psi.size} amplitudes for {n_e} excited states"
            )
        norm = initial.norm()
        if abs(norm - 1.0) > INITIAL_NORM_TOL:
            raise NonPhysicalStateError(
                f"initial superposition norm {norm:.17g} differs from 1 beyond {INITIAL_NORM_TOL}"
            )
        return np.outer(psi, psi.conj())
    rho = np.asarray(initial, dtype=complex)
    if rho.shape != (n_e, n_e):
        raise NonPhysicalStateError(
            f"initial density matrix must be {n_e} x {n_e}, got {rho.shape}"
        )
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise NonPhysicalStateError("initial density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > INITIAL_NORM_TOL:
        raise NonPhysicalStateError("initial density matrix trace differs from 1")
    if np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) < -1e-10:
        raise NonPhysicalStateError("initial density matrix is not positive semidefinite")
    return rho


def default_t_max(bundle: CouplingBundle, lifetimes: float = DEFAULT_LIFETIMES) -> float:
    """``lifetimes`` over the smallest nonzero total decay rate."""
    rates = bundle.total_decay_rates()
    positive = rates[rates > 1e-12]
    if positive.size == 0:
        return float(lifetimes)
    return float(lifetimes / np.min(positive))


def _expm(A: np.ndarray) -> np.ndarray:
    """Exponential of every matrix in the stack ``A`` (..., n, n).

    Degree-13 Pade approximant with scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26, 2005); each matrix is scaled by its own power of
    two. Unlike an eigendecomposition this stays accurate for defective or
    nearly defective generators.
    """
    b = _PADE13
    norms = np.max(np.sum(np.abs(A), axis=-2), axis=-1)
    s = np.ceil(np.log2(np.maximum(norms / _THETA13, 1.0))).astype(int)
    X = A / (2.0 ** s)[..., None, None]
    ident = np.eye(A.shape[-1])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
             + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * ident)
    V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * ident)
    R = np.linalg.solve(V - U, V + U)
    for k in range(int(s.max())):
        R = np.where((s > k)[..., None, None], R @ R, R)
    return R


def evolve(
    model: EmitterModel,
    env: WaveguideEnv,
    loss: LossModel,
    initial,
    t_max: float | None = None,
    *,
    times: Sequence[float] | None = None,
    output_points: int = 201,
) -> EmissionTrajectory:
    """Propagate the emission of an initially excited emitter.

    ``initial`` is an :class:`ExcitedSuperposition` or an excited-block
    density matrix. Output states are stored at ``times`` (a nonempty,
    finite, strictly increasing grid starting at 0) or at ``output_points``
    uniform samples of ``[0, t_max]``; ``t_max`` defaults to 20 lifetimes of
    the slowest decaying excited state. Every sample is exact to rounding:
    the generator does not depend on time, so the excited block and its time
    integral (which the channel accumulators are linear in) follow from one
    block matrix exponential per output time (Van Loan, IEEE TAC 23, 1978).

    Raises :class:`ValueError` for an invalid time grid or ``t_max`` and
    :class:`NonPhysicalStateError` for a non-finite state or when the total
    trace drifts beyond ``TRACE_DRIFT_TOL``.
    """
    bundle = coupling_bundle(model, env, loss)    # validates the model first
    n_e = model.n_excited
    rho0 = _coerce_initial(initial, n_e)

    if times is None:
        horizon = default_t_max(bundle) if t_max is None else float(t_max)
        if not (np.isfinite(horizon) and horizon > 0):
            raise ValueError(f"t_max must be positive and finite, got {horizon}")
        t_grid = np.linspace(0.0, horizon, int(output_points))
    else:
        t_grid = np.array(times, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or not np.all(np.isfinite(t_grid)):
        raise ValueError("output times must be a nonempty 1-d array of finite values")
    if t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("output times must start at 0 and be strictly increasing")

    # Generator on [vec rho, vec int_0^t rho] (C-order vec): the excited block
    # obeys d rho/dt = -i (H_eff rho - rho H_eff^dagger), its integral has
    # derivative rho.
    H_eff = ((np.diag(bundle.excited_energies) - bundle.coherent_shift) / env.hbar
             - 0.5j * bundle.damping_rate_matrix())
    # Liouvillian -i (H_eff (x) I - I (x) H_eff^*), with the Kronecker
    # products written as broadcasts over the index pairs (a b),(c d).
    eye = np.eye(n_e)
    n_rho = n_e * n_e
    L = (H_eff[:, None, :, None] * eye[None, :, None, :]
         - eye[:, None, :, None] * H_eff.conj()[None, :, None, :])
    G = np.zeros((2 * n_rho, 2 * n_rho), dtype=complex)
    G[:n_rho, :n_rho] = -1j * L.reshape(n_rho, n_rho)
    G[n_rho:, :n_rho] = np.eye(n_rho)
    y = np.zeros((t_grid.size, 2 * n_rho), dtype=complex)
    y[0, :n_rho] = rho0.ravel()
    for k in range(1, t_grid.size, _TIMES_PER_EXPM):
        ts = t_grid[k:k + _TIMES_PER_EXPM, None, None]
        y[k:k + _TIMES_PER_EXPM] = _expm(ts * G)[:, :, :n_rho] @ rho0.ravel()
    rhos = y[:, :n_rho].reshape(-1, n_e, n_e)
    probs = channel_flux(bundle, y[:, n_rho:].reshape(-1, n_e, n_e))

    # The excited block decays through K while the accumulators integrate
    # the channel fluxes: their sum checks one against the other.
    total = np.trace(rhos, axis1=-2, axis2=-1).real + np.sum(probs, axis=(-2, -1))
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(total))):
        raise NonPhysicalStateError("non-finite state in the emission propagation")
    k = int(np.argmax(np.abs(total - 1.0)))
    if abs(total[k] - 1.0) > TRACE_DRIFT_TOL:
        raise NonPhysicalStateError(
            f"total trace drifted to {total[k]!r} at t = {t_grid[k]:.6g} "
            f"(allowed deviation {TRACE_DRIFT_TOL:.1e})"
        )

    for arr in (t_grid, rhos, probs):
        arr.setflags(write=False)
    states = tuple(
        EmitterDensityMatrix(excited_block=rho, ground_mode_probs=p)
        for rho, p in zip(rhos, probs)
    )

    last = states[-1]
    p_f, p_b, p_loss = last.channel_totals()
    totals = DirectionalTotals(
        p_forward=p_f,
        p_backward=p_b,
        p_loss=p_loss,
        residual_excited=float(np.trace(last.excited_block).real),
    )
    return EmissionTrajectory(times=t_grid, states=states, final_totals=totals)


def directional_totals(trajectory: EmissionTrajectory) -> tuple[float, float, float]:
    """Final (P_forward, P_backward, P_loss) photon probabilities."""
    if not trajectory.states:
        raise ValueError("trajectory has no states")
    ft = trajectory.final_totals
    return (ft.p_forward, ft.p_backward, ft.p_loss)


def outcome_distance(traj_a: EmissionTrajectory, traj_b: EmissionTrajectory) -> float:
    """Total-variation distance between the final (P_f, P_b, P_loss) outcome
    distributions of two runs. Ranges over [0, 1] for fully decayed states."""
    pa = np.array(directional_totals(traj_a))
    pb = np.array(directional_totals(traj_b))
    return float(0.5 * np.sum(np.abs(pa - pb)))
