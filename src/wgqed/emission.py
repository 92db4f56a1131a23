"""Spontaneous-emission dynamics of an initially excited emitter.

Propagates the reduced density matrix of the emitter with the optical modes
traced out: the excited block evolves under the non-Hermitian effective
Hamiltonian ``H_eff`` of the coupling bundle (built by
:func:`wgqed.photonic.effective_hamiltonian`, whose resolvent scattering
solves), while the released population is routed into per-channel
ground-state accumulators (forward, backward, loss) through the bundle's
flux forms ``Q``, one per (ground state, channel), whose ``tr(Q rho)`` is the
rate at which ``rho`` emits there. ``H_eff`` and the forms are built apart,
so the decay of the excited block and the channel fluxes are separate
bookkeeping, and their sum is checked against 1. The generator does
not depend on time, so the propagation is exact, with no step-size or
tolerance setting, and every piece of it is sized by the number of excited
states. One eigendecomposition ``H_eff = V diag(lam) V^-1`` gives the modes,
each of which only turns and decays, ``exp(-i lam t)``, so the excited blocks
at all output times come from one matrix product. Where the eigenvectors are
ill-conditioned (1-norm condition number above ``_MODAL_COND_MAX``, 1e3), as
near an exceptional point where two modes merge, a Pade exponential of
``-i H_eff t`` at every output time takes their place. One adjoint Lyapunov
solve gives the outcome forms ``Y``, the time integrals of the flux forms.
``Re tr(Y rho)`` is the probability that the excited block ``rho`` ever emits
there: the accumulators read ``Re tr(Y (rho0 - rho(t)))``, and the command
line's two-level diagnostic reads ``Y`` alone, with no propagation.

Ground-manifold coherences between different photon channels, and between
ground states within one channel, are not tracked: the reproduced observables
(populations and direction-resolved photon probabilities) only need the
diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
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
# Decay rate, in units of the excited-state count times eps times the
# largest |H_eff_ij|, at or below which a mode of H_eff is rounding and
# counts as non-decaying. eig puts the rate of a dark mode at up to ~0.75 of
# these units (two parallel dipoles); a mode that decays faster is resolved
# and decays, and a slower one cannot be told from a dark mode.
_ROUNDING_RATE = 2.0
# Largest 1-norm condition number of the eigenvectors of H_eff at which the
# propagator takes the modal form. Its error grows with that condition number
# as about 3e-17 times it (measured against a 35-digit exponential near an
# exceptional point), so the modal form stays within ~3e-14 of exact here.
_MODAL_COND_MAX = 1e3


class EmitterDensityMatrix(NamedTuple):
    """Reduced emitter state at one time: Hermitian excited block plus
    accumulated ground-state probabilities per radiation channel.

    A named tuple of read-only views into the trajectory's stacked arrays."""

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
    pair, columns ordered as :data:`CHANNELS`: ``tr(Q rho)`` with the flux
    forms ``Q`` of the bundle."""
    return np.real(np.einsum("ncxy,...yx->...nc", bundle.flux_forms, excited_block))


def _coerce_initial(initial, n_e: int) -> tuple[np.ndarray, np.ndarray]:
    """The initial excited block ``rho0`` and a factor ``L`` (n_e, r) with
    ``rho0 = L L^dagger`` to rounding."""
    if isinstance(initial, ExcitedSuperposition):
        psi = initial.as_array()
        if psi.size != n_e:
            raise NonPhysicalStateError(
                f"initial superposition has {psi.size} amplitudes for {n_e} excited states"
            )
        norm = initial.norm()
        if not (abs(norm - 1.0) <= INITIAL_NORM_TOL):
            raise NonPhysicalStateError(
                f"initial superposition norm {norm:.17g} differs from 1 beyond {INITIAL_NORM_TOL}"
            )
        return psi[:, None] * psi.conj(), psi[:, None]
    rho = np.asarray(initial, dtype=complex)
    if rho.shape != (n_e, n_e):
        raise NonPhysicalStateError(
            f"initial density matrix must be {n_e} x {n_e}, got {rho.shape}"
        )
    if not np.isfinite(rho).all():
        raise NonPhysicalStateError("initial density matrix has a non-finite entry")
    if not (np.max(np.abs(rho - rho.conj().T)) <= 1e-12):
        raise NonPhysicalStateError("initial density matrix is not Hermitian")
    if not (abs(np.trace(rho).real - 1.0) <= INITIAL_NORM_TOL):
        raise NonPhysicalStateError("initial density matrix trace differs from 1")
    w, Q = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    if not (np.min(w) >= -1e-10):
        raise NonPhysicalStateError("initial density matrix is not positive semidefinite")
    return rho, Q * np.sqrt(np.maximum(w, 0.0))


def _rounding_rate(H: np.ndarray) -> float:
    """The decay rate at or below which a mode of ``H`` is rounding: the
    rate the modal phases hold and the singular value the Lyapunov solve
    drops. Taken from the largest entry, so that it cannot overflow."""
    return _ROUNDING_RATE * H.shape[0] * np.finfo(float).eps * np.abs(H).max()


def _held(lam: np.ndarray, H: np.ndarray) -> np.ndarray:
    """The modes ``lam`` of ``H`` that count as non-decaying: those whose
    rate ``-2 Im lam`` is at most :func:`_rounding_rate`. A positive
    ``Im lam`` (rounding; ``H_eff`` is passive) and a nan count as held
    too."""
    return ~(-lam.imag > 0.5 * _rounding_rate(H))


def _horizon(lam: np.ndarray, H: np.ndarray) -> float:
    """``DEFAULT_LIFETIMES`` over the smallest decay rate, ``-2 Im`` of the
    modes ``lam`` of ``H`` that are not held, taken as half of that so that
    no rate overflows."""
    decaying = -lam.imag[~_held(lam, H)]
    if decaying.size == 0:
        return DEFAULT_LIFETIMES
    return float(0.5 * DEFAULT_LIFETIMES / np.min(decaying))


def default_t_max(bundle: CouplingBundle) -> float:
    """``DEFAULT_LIFETIMES`` over the smallest decay rate of the modes of
    ``H_eff``, ``-2 Im`` of its eigenvalues, among the modes that decay at
    all. A slow mode that superposes several levels sets the horizon even
    when every level decays fast."""
    return _horizon(np.linalg.eig(bundle.H_eff)[0], bundle.H_eff)


def _expm(A: np.ndarray) -> np.ndarray:
    """Exponential of every matrix in the stack ``A`` (..., n, n), whose
    1-norms the caller has checked to be finite.

    Degree-13 Pade approximant with scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26, 2005); each matrix is scaled by its own power of
    two. Unlike an eigendecomposition this stays accurate for defective or
    nearly defective generators: the propagator runs it only where the
    eigenvectors of ``H_eff`` are too ill-conditioned for the modal form
    (condition number above ``_MODAL_COND_MAX``) or an eigenvalue is not
    finite.
    """
    b = _PADE13
    norms = np.abs(A).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norms / _THETA13, 1.0)))
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
        squared = s > k
        R[squared] = R[squared] @ R[squared]
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
    uniform samples of ``[0, t_max]``, not both; ``t_max`` defaults to 20
    lifetimes of the slowest decaying mode of ``H_eff``. Every sample is
    exact to rounding: the generator does not depend on time, so the excited
    block is ``U rho0 U^dagger`` with ``U = exp(-i H_eff t)``, and each
    accumulated probability is ``tr(Y (rho0 - rho(t)))``, where ``Y``, the
    probability of eventually emitting into that channel, solves one adjoint
    Lyapunov equation (Van Loan, IEEE TAC 23, 1978). ``U`` is
    ``V diag(exp(-i lam t)) V^-1`` from one eigendecomposition of ``H_eff``
    when the 1-norm condition number of ``V`` is at most 1e3, and a
    degree-13 Pade exponential otherwise, near an exceptional point.

    Raises :class:`ValueError` for an invalid time grid, ``t_max`` or
    ``output_points``, or for both ``t_max`` and ``times``, and
    :class:`NonPhysicalStateError` for a non-finite state or when the total
    trace drifts beyond ``TRACE_DRIFT_TOL``.
    """
    bundle = coupling_bundle(model, env, loss)
    t_grid, rhos, probs = _propagate(bundle, initial, t_max, times, output_points)
    totals = DirectionalTotals(*probs[-1].sum(axis=0).tolist(), float(np.trace(rhos[-1]).real))
    # tuple.__new__ over zipped fields builds the records without a Python
    # frame per record.
    states = tuple(map(tuple.__new__, repeat(EmitterDensityMatrix), zip(rhos, probs)))
    return EmissionTrajectory(t_grid, states, totals)


@np.errstate(all="ignore")
def _outcome_forms(bundle: CouplingBundle) -> np.ndarray:
    """The outcome forms ``Y`` (n_g, 3, n_e, n_e): PSD, and summed, the
    identity less the projector on the non-decaying directions."""
    Q = bundle.flux_forms
    if not np.isfinite(Q).all():
        raise NonPhysicalStateError("non-finite channel flux in the emission propagation")
    n_e = Q.shape[-1]
    n_rho = n_e * n_e
    # With A = i H_eff, Y solves the adjoint Lyapunov equation A^dagger Y +
    # Y A = Q, that is i (H_eff^dagger Y - Y H_eff) = -Q: it is the integral
    # of U^dagger Q U over all time, with U = exp(-A t). The solve is for
    # Z = Y^T, A^T Z + Z A^* = F with F[(a b), k] = Q_k[b, a], the
    # Kronecker products as broadcasts over the index pairs (a b),(c d).
    # The operator is singular only where two non-decaying modes share a
    # frequency (a dark mode with itself included); the flux forms vanish
    # there, so the minimum-norm solution is exact. For a normal H_eff the
    # singular value of a mode with itself is that mode's rate, so the solve
    # drops the singular values that _held would hold as rates.
    A = 1j * bundle.H_eff
    eye = np.eye(n_e)
    K = (A.T[:, None, :, None] * eye[None, :, None, :]
         + eye[:, None, :, None] * A.conj().T[None, :, None, :])
    F = Q.swapaxes(-1, -2).reshape(-1, n_rho).T
    K = K.reshape(n_rho, n_rho)
    rate = _rounding_rate(bundle.H_eff)
    top = np.linalg.svd(K, compute_uv=False)[0]    # lstsq's cutoff is relative to it
    Z = np.linalg.lstsq(K, F, rcond=rate / top if top > rate else 1.0)[0]
    # Z[(a b), k] = Y_k[b, a]
    return Z.T.reshape(Q.shape).swapaxes(-1, -2)


@np.errstate(all="ignore")
def _propagate(bundle: CouplingBundle, initial, t_max: float | None = None,
               times: Sequence[float] | None = None, output_points: int = 201):
    """:func:`evolve` from an assembled coupling bundle, as the stacked
    arrays of its samples: the times (T,), the excited blocks (T, n_e, n_e)
    and the accumulated probabilities (T, n_g, 3), all read-only."""
    H = bundle.H_eff
    n_e = H.shape[0]
    if t_max is not None and times is not None:
        raise ValueError("give t_max or times, not both")
    if isinstance(t_max, bool):
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    if (isinstance(output_points, bool) or not isinstance(output_points, (int, np.integer))
            or output_points < 1):
        raise ValueError(f"output_points must be a positive integer, got {output_points!r}")
    rho0, L = _coerce_initial(initial, n_e)
    lam, V = np.linalg.eig(H)

    if times is None:
        horizon = _horizon(lam, H) if t_max is None else float(t_max)
        if not (np.isfinite(horizon) and horizon > 0):
            raise ValueError(f"t_max must be positive and finite, got {horizon}")
        t_grid = np.linspace(0.0, horizon, output_points)
    else:
        t_grid = np.array(times, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or not np.isfinite(t_grid).all():
        raise ValueError("output times must be a nonempty 1-d array of finite values")
    if t_grid[0] != 0.0 or (t_grid[1:] <= t_grid[:-1]).any():
        raise ValueError("output times must start at 0 and be strictly increasing")
    # |t H_ij| grows with t, so the last time has the largest 1-norm
    if not np.isfinite(np.abs(t_grid[-1] * H).sum(axis=0).max()):
        raise NonPhysicalStateError("H_eff t overflows at the output times")

    # The excited block obeys d rho/dt = -i (H_eff rho - rho H_eff^dagger),
    # so rho(t) = U rho0 U^dagger with U = exp(-i H_eff t).
    try:
        V_inv = np.linalg.inv(V)
    except np.linalg.LinAlgError:    # an exactly singular eigenbasis
        V_inv = np.full_like(V, np.nan)
    cond = np.abs(V).sum(axis=0).max() * np.abs(V_inv).sum(axis=0).max()
    if np.isfinite(lam).all() and cond <= _MODAL_COND_MAX:
        # rho(t) = X X^dagger with X = U L = V diag(phi) C, phi = exp(-i lam t)
        # and C = V^-1 L: X_ir = sum_a phi_a V_ia C_ar is one product over the
        # times. Its error grows with cond(V), where that of the mode-basis
        # block V^-1 rho0 V^-dagger would grow with its square. A held mode
        # only turns, as the outcome forms take it, and cannot overflow.
        phi = np.exp(-1j * t_grid[:, None] * np.where(_held(lam, H), lam.real, lam))
        VC = (V.T[:, :, None] * (V_inv @ L)[:, None, :]).reshape(n_e, -1)
        X = (phi @ VC).reshape(t_grid.size, n_e, -1)
        rhos = np.einsum("tir,tjr->tij", X, X.conj())
    else:
        U = _expm(-t_grid[:, None, None] * (1j * H))
        rhos = U @ rho0 @ U.conj().swapaxes(-1, -2)
    rhos[0] = rho0

    # d/dt tr(Y rho) = -tr(Q rho), so the accumulated probability is
    # tr(Y rho0) - tr(Y rho(t)) = sum_ab (rho0 - rho(t))_ab Z[(a b), k]; the
    # last column of W = [Z | vec I] gives tr rho(t) from the same product.
    Y = _outcome_forms(bundle)
    W = np.column_stack((Y.swapaxes(-1, -2).reshape(-1, n_e * n_e).T, np.eye(n_e).ravel()))
    read = (rhos.reshape(t_grid.size, -1) @ W).real
    probs = (read[0, :-1] - read[:, :-1]).reshape(t_grid.size, -1, len(CHANNELS))

    # The excited block decays through the sandwich-built H_eff while the
    # accumulators integrate the channel fluxes: their sum checks one
    # against the other.
    total = read[:, -1] + probs.sum(axis=(-2, -1))
    if not (np.isfinite(Y).all() and np.isfinite(rhos).all() and np.isfinite(total).all()):
        raise NonPhysicalStateError("non-finite state in the emission propagation")
    k = int(np.argmax(np.abs(total - 1.0)))
    if abs(total[k] - 1.0) > TRACE_DRIFT_TOL:
        raise NonPhysicalStateError(
            f"total trace drifted to {total[k]:.17g} at t = {t_grid[k]:.6g} "
            f"(allowed deviation {TRACE_DRIFT_TOL:.1e})"
        )

    for arr in (t_grid, rhos, probs):
        arr.setflags(write=False)
    return t_grid, rhos, probs


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
