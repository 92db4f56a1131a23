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
at all output times come from one matrix product. The outcome forms ``Y``,
the time integrals of the flux forms, solve one adjoint Lyapunov equation,
diagonal in the basis of the same modes. Where the eigenvectors are
ill-conditioned (1-norm condition number above ``_MODAL_COND_MAX``, ~31.6),
as near an exceptional point where two modes merge, exact solvers take both
jobs: a Pade exponential of ``-i H_eff t`` at every output time, and the SVD
of the ``n_e^2 x n_e^2`` Lyapunov operator. The one gate serves the
propagation and :func:`outcome_forms` alike. ``Re tr(Y rho)`` is the
probability that the excited block ``rho`` ever emits there: the
accumulators read ``Re tr(Y (rho0 - rho(t)))``, and the command line's
two-level diagnostic reads ``Y`` alone, with no propagation.

Ground-manifold coherences between different photon channels, and between
ground states within one channel, are not tracked: the reproduced observables
(populations and direction-resolved photon probabilities) only need the
diagonal.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .emitter import EmitterModel, ExcitedSuperposition, _as_complex_array, _as_float, _as_grid
from .errors import NonPhysicalStateError
from .photonic import (_EPS, CHANNELS, CouplingBundle, LossModel, WaveguideEnv, _rounding_rate,
                       coupling_bundle)

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
# Largest 1-norm condition number of the eigenvectors of H_eff at which
# emission takes the modes, for the propagation and the outcome forms alike.
# Measured against a 35-digit oracle near an exceptional point, the error of
# the modal propagator grows as about 3e-17 times that condition number and
# that of the modal forms as about 2e-17 times its square, so both stay
# within ~2e-14 of exact here.
_MODAL_COND_MAX = math.sqrt(1e3)


class EmitterDensityMatrix(NamedTuple):
    """Reduced emitter state at one time: Hermitian excited block plus
    accumulated ground-state probabilities per radiation channel.

    A named tuple of read-only views into the trajectory's stacked arrays."""

    excited_block: np.ndarray        # (n_e, n_e) complex Hermitian
    ground_mode_probs: np.ndarray    # (n_g, 3) real, columns ordered as CHANNELS


class DirectionalTotals(NamedTuple):
    p_forward: float
    p_backward: float
    p_loss: float
    residual_excited: float


class EmissionTrajectory(NamedTuple):
    times: np.ndarray
    states: tuple[EmitterDensityMatrix, ...]
    final_totals: DirectionalTotals


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
    rho = _as_complex_array(initial, "initial density matrix must be an array of numbers")
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


def _expm(A: np.ndarray) -> np.ndarray:
    """Exponential of every matrix in the stack ``A`` (..., n, n), whose
    1-norms the caller has checked to be finite.

    Degree-13 Pade approximant with scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26, 2005); each matrix is scaled by its own power of
    two. Unlike an eigendecomposition this stays accurate for defective or
    nearly defective generators: the propagator runs it where the modes of
    ``H_eff`` fail their gate (:func:`_eigenbasis`).
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
    output_points: int | None = None,
) -> EmissionTrajectory:
    """Propagate the emission of an initially excited emitter.

    ``initial`` is an :class:`ExcitedSuperposition` or an excited-block
    density matrix. Output states are stored at ``times`` (a nonempty,
    finite, strictly increasing grid starting at 0) or at ``output_points``
    (201 if not given) uniform samples of ``[0, t_max]``, not both; ``t_max``
    defaults to 20 lifetimes of the slowest decaying mode of ``H_eff``.
    Every sample is exact to rounding: the generator does not depend on
    time, so the excited block is ``U rho0 U^dagger`` with ``U = exp(-i
    H_eff t)``, and each accumulated probability is ``tr(Y (rho0 -
    rho(t)))``, where ``Y``, the probability of eventually emitting into that
    channel, solves one adjoint Lyapunov equation (Van Loan, IEEE TAC 23,
    1978). Where the 1-norm condition number of the eigenvectors ``V`` of
    ``H_eff`` is at most ~31.6, one eigendecomposition gives both: ``U`` is
    ``V diag(exp(-i lam t)) V^-1`` and ``Y`` is diagonal in the same modes.
    Elsewhere, near an exceptional point, ``U`` is a degree-13 Pade
    exponential and ``Y``, as in :func:`outcome_forms`, comes from an SVD of
    the Lyapunov operator.

    Raises :class:`ValueError` for an invalid time grid, ``t_max`` or
    ``output_points``, or for ``times`` with ``t_max`` or ``output_points``,
    and :class:`NonPhysicalStateError` for a non-finite state or when the
    total trace drifts beyond ``TRACE_DRIFT_TOL``.
    """
    bundle = coupling_bundle(model, env, loss)
    t_grid, rhos, probs, _ = _propagate(bundle, initial, t_max, times, output_points)
    totals = DirectionalTotals(*probs[-1].sum(axis=0).tolist(), float(rhos[-1].trace().real))
    # tuple.__new__ over zipped fields builds the records without a Python
    # frame per record.
    states = tuple(map(tuple.__new__, repeat(EmitterDensityMatrix), zip(rhos, probs)))
    return EmissionTrajectory(t_grid, states, totals)


@np.errstate(all="ignore")
def outcome_forms(bundle: CouplingBundle) -> np.ndarray:
    """The outcome forms ``Y`` (n_g, 3, n_e, n_e) of emission, channels
    ordered as :data:`CHANNELS`: ``Re tr(Y[n, c] rho)`` is the probability
    that an emitter whose excited block is ``rho`` ever emits into channel
    ``c`` and ends in ground state ``n``. Each form is PSD, and summed they
    are the identity less the projector on the non-decaying directions: with
    that projector the forms are a measurement (POVM) of the excited state,
    so the outcome distributions of two states differ in total variation by
    no more than the trace distance of the states.
    """
    _check_bundle(bundle)
    Z = _forms(bundle, _rounding_rate(bundle.H_eff), *_eigenbasis(bundle.H_eff))
    return Z.T.reshape(bundle.flux_forms.shape).swapaxes(-1, -2)


def _check_bundle(bundle: CouplingBundle) -> None:
    """Raise where ``H_eff`` or a flux form of ``bundle`` is not finite, as
    in a bundle built by hand."""
    if not np.isfinite(bundle.H_eff).all():
        raise NonPhysicalStateError("non-finite effective Hamiltonian in the emission propagation")
    if not np.isfinite(bundle.flux_forms).all():
        raise NonPhysicalStateError("non-finite channel flux in the emission propagation")


def _eigenbasis(H: np.ndarray):
    """``lam``, ``V``, ``V^-1`` with ``H = V diag(lam) V^-1``, and the gate of
    emission: whether the eigenvalues are finite and the 1-norm condition
    number of ``V`` (nan where ``V`` is exactly singular) is at most
    ``_MODAL_COND_MAX``. The caller ignores floating-point errors."""
    lam, V = np.linalg.eig(H)
    try:
        V_inv = np.linalg.inv(V)
    except np.linalg.LinAlgError:    # an exactly singular eigenbasis
        V_inv = np.full_like(V, np.nan)
    norms = np.add.reduce(np.abs(np.concatenate((V, V_inv), axis=1))).reshape(2, -1).max(axis=1)
    return lam, V, V_inv, np.isfinite(lam).all() and norms[0] * norms[1] <= _MODAL_COND_MAX


def _forms(bundle: CouplingBundle, rate: float, lam: np.ndarray, V: np.ndarray,
           V_inv: np.ndarray, modal: bool) -> np.ndarray:
    """The outcome forms as the solution ``Z`` (n_e * n_e, n_g * 3) of their
    Lyapunov equation, ``Z[(a b), k] = Y_k[b, a]``, with ``rate`` the
    rounding rate of ``H_eff`` and the rest its :func:`_eigenbasis`: from the
    modes where they pass the gate, else from an SVD. Both solvers scale the
    equation exactly by ``2^-k``, ``2^k >= 1`` the power of two just above
    ``max|H_eff_ij|``, so that it stays finite where a mode's full rate
    overflows. The caller checks the bundle (:func:`_check_bundle`) and
    ignores floating-point errors."""
    scale = math.ldexp(1.0, -max(math.frexp(np.abs(bundle.H_eff).max())[1], 0))
    if modal:
        return _modal_forms(bundle, rate, scale, lam, V, V_inv)
    return _lyapunov(bundle, rate, scale)


def _lyapunov(bundle: CouplingBundle, rate: float, scale: float) -> np.ndarray:
    """:func:`_forms`' ``Z`` from the SVD of the Lyapunov operator, for ill-conditioned modes."""
    Q = bundle.flux_forms
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
    # drops the singular values that _propagate holds as rates, and those at
    # the SVD's own rounding, n_e^2 eps times the largest, which several dark
    # modes at one frequency leave where the rates hold none.
    A = (1j * scale) * bundle.H_eff
    eye = np.eye(n_e)
    K = (A.T[:, None, :, None] * eye[None, :, None, :]
         + eye[:, None, :, None] * A.conj().T[None, :, None, :])
    F = Q.swapaxes(-1, -2).reshape(-1, n_rho).T * scale
    U, s, Vh = np.linalg.svd(K.reshape(n_rho, n_rho))
    keep = s > max(rate * scale, n_rho * _EPS * s[0])
    return (Vh[keep].conj().T / s[keep]) @ (U[:, keep].conj().T @ F)


def _modal_forms(bundle: CouplingBundle, rate: float, scale: float, lam: np.ndarray,
                 V: np.ndarray, V_inv: np.ndarray) -> np.ndarray:
    """:func:`_forms`' ``Z`` from the eigendecomposition ``H_eff = V
    diag(lam) V^-1``, with ``lam``, ``V`` and ``V^-1`` finite.

    In the mode basis, ``Y = V^-dagger Y' V^-1``, the Lyapunov equation is
    diagonal (Bartels and Stewart, Comm. ACM 15, 1972): ``i (lam_b -
    conj(lam_a)) Y'_ab = (V^dagger Q V)_ab``. A pair with ``|lam_b -
    conj(lam_a)|`` at most ``rate`` is held, as the SVD's cutoff holds it for
    a normal ``H_eff``, and its entry is 0. The sandwich makes the error grow
    with the square of the condition number of ``V``.

    The K = 3 n_g forms are stacked along the middle axis, ``[a, k, b]``, so
    that each of the four products of the two sandwiches, from the left or
    from the right, is one 2-d product over the whole stack: from the left
    over the columns ``(k, b)``, from the right over the rows ``(a, k)``."""
    Q = bundle.flux_forms
    n_e = Q.shape[-1]
    sl = scale * lam    # scaled before the difference, which could overflow
    den = 1j * (sl - sl.conj()[:, None])
    Y = (scale * V.conj().T) @ Q.reshape(-1, n_e, n_e).transpose(1, 0, 2).reshape(n_e, -1)
    Y = (Y.reshape(-1, n_e) @ V).reshape(n_e, -1, n_e)
    Y /= np.where(np.abs(den) > rate * scale, den, np.inf)[:, None, :]
    Y = (V_inv.conj().T @ Y.reshape(n_e, -1)).reshape(-1, n_e) @ V_inv
    # Z[(a b), k] = Y_k[b, a], stored at [b, k, a]
    return Y.reshape(n_e, -1, n_e).transpose(2, 0, 1).reshape(n_e * n_e, -1)


@np.errstate(all="ignore")
def _propagate(bundle: CouplingBundle, initial, t_max: float | None = None,
               times: Sequence[float] | None = None, output_points: int | None = None,
               geometric: bool = False):
    """:func:`evolve` from an assembled coupling bundle as the stacked arrays
    of its samples: times (T,), excited blocks (T, n_e, n_e), accumulated
    probabilities (T, n_g, 3) and the total trace (T,) checked against
    ``TRACE_DRIFT_TOL``, all read-only. Without ``times``, the grid over
    ``t_max`` (by default 20 lifetimes of the slowest decaying mode) is
    uniform, or with ``geometric`` 0 and then ``output_points - 1`` times
    spaced geometrically from ``5e-5 t_max`` to ``t_max`` (two points are 0
    and ``t_max``)."""
    H = bundle.H_eff
    n_e = H.shape[0]
    if t_max is not None and times is not None:
        raise ValueError("give t_max or times, not both")
    if output_points is not None and times is not None:
        raise ValueError("give output_points or times, not both")
    if output_points is None:
        output_points = 201
    if (isinstance(output_points, bool) or not isinstance(output_points, (int, np.integer))
            or output_points < 1):
        raise ValueError(f"output_points must be a positive integer, got {output_points!r}")
    rho0, L = _coerce_initial(initial, n_e)
    lam, V, V_inv, modal = _eigenbasis(H)
    # a mode whose rate -2 Im lam is rounding does not decay; Im lam > 0 or nan neither
    rate = _rounding_rate(H)
    held = ~(lam.imag < -0.5 * rate)

    if times is None:
        if t_max is not None:
            horizon = _as_float(t_max)
        elif held.all():
            horizon = DEFAULT_LIFETIMES
        else:    # over half the smallest rate -2 Im lam, so that no rate overflows
            horizon = float(0.5 * DEFAULT_LIFETIMES / np.min(-lam.imag[~held]))
        if not (math.isfinite(horizon) and horizon > 0):
            raise ValueError("t_max must be positive and finite, got "
                             f"{horizon if t_max is None else t_max!r}")
        if geometric:    # a subnormal horizon rounds the first time past 0 to 0
            first = horizon * 5e-5
            t_grid = (np.concatenate(([0.0], np.geomspace(first, horizon, output_points - 1)))
                      if first > 0.0 else np.zeros(output_points))
            if output_points > 1:    # geomspace(first, horizon, 1) is [first]
                t_grid[-1] = horizon
            rises = not (t_grid[1:] <= t_grid[:-1]).any()
        else:
            # np.linspace(0, horizon, output_points) to the bit, without its
            # overhead. k step rises with k where the step is positive, and
            # only a subnormal step rounded up brings the time before the
            # last to the horizon; where the step underflows to 0 both
            # repeat a time.
            t_grid = np.arange(output_points, dtype=float)
            rises = True
            if output_points > 1:
                step = horizon / (output_points - 1)
                t_grid *= step
                rises = step > 0.0 and t_grid[-2] < horizon
                t_grid[-1] = horizon
        if not rises:
            raise ValueError(f"t_max {horizon!r} is too small for {output_points} "
                             "strictly increasing output times")
    else:
        t_grid = _as_grid(times, "output times")
        if t_grid[0] != 0.0 or (t_grid[1:] <= t_grid[:-1]).any():
            raise ValueError("output times must start at 0 and be strictly increasing")
    # |t H_ij| grows with t, so the last time has the largest 1-norm. It is
    # at most n_e t max|H_ij|, half of t rate / eps, so only where that
    # bound overflows is the sum taken.
    if not (math.isfinite(t_grid[-1] * rate / _EPS)
            or math.isfinite(np.abs(t_grid[-1] * H).sum(axis=0).max())):
        raise NonPhysicalStateError("H_eff t overflows at the output times")

    # The excited block obeys d rho/dt = -i (H_eff rho - rho H_eff^dagger),
    # so rho(t) = X X^dagger with X = U L and U = exp(-i H_eff t).
    if modal:
        # X = V diag(phi) C with phi = exp(-i lam t) and C = V^-1 L: X_ir =
        # sum_a phi_a V_ia C_ar is one product over the times. Its error
        # grows with cond(V), where that of the mode-basis block V^-1 rho0
        # V^-dagger would grow with its square. A held mode only turns, as
        # the outcome forms take it, and cannot overflow.
        phi = np.exp(t_grid[:, None] * (-1j * np.where(held, lam.real, lam)))
        VC = (V.T[:, :, None] * (V_inv @ L)[:, None, :]).reshape(n_e, -1)
        X = (phi @ VC).reshape(t_grid.size, n_e, -1)
    else:
        X = _expm(-t_grid[:, None, None] * (1j * H)) @ L
    rhos = X @ X.conj().swapaxes(-1, -2)
    rhos[0] = rho0

    # d/dt tr(Y rho) = -tr(Q rho), so the accumulated probability is
    # tr(Y rho0) - tr(Y rho(t)) = sum_ab (rho0 - rho(t))_ab Z[(a b), k]; the
    # last column of W = [Z | vec I] gives tr rho(t) from the same product.
    Z = _forms(bundle, rate, lam, V, V_inv, modal)
    W = np.zeros((n_e * n_e, Z.shape[1] + 1), dtype=complex)
    W[:, :-1] = Z
    W[::n_e + 1, -1] = 1.0
    read = (rhos.reshape(t_grid.size, -1) @ W).real
    probs = (read[0, :-1] - read[:, :-1]).reshape(t_grid.size, -1, len(CHANNELS))

    # The excited block decays through the sandwich-built H_eff while the
    # accumulators integrate the channel fluxes: their sum checks one
    # against the other. A non-finite entry of a flux form, of Z or of a
    # block makes the real part of every product with it, and so the total,
    # non-finite: a total within the bound clears them all, and only a failed
    # bound scans them, so that a non-finite flux or state is named as such
    # before any drift.
    total = read[:, -1] + probs.sum(axis=(-2, -1))
    drift = np.abs(total - 1.0)
    k = drift.argmax()
    if not drift[k] <= TRACE_DRIFT_TOL:
        _check_bundle(bundle)
        if not (np.isfinite(Z).all() and np.isfinite(rhos).all() and np.isfinite(total).all()):
            raise NonPhysicalStateError("non-finite state in the emission propagation")
        raise NonPhysicalStateError(
            f"total trace drifted to {total[k]:.17g} at t = {t_grid[k]:.6g} "
            f"(allowed deviation {TRACE_DRIFT_TOL:.1e})"
        )

    for arr in (t_grid, rhos, probs, total):
        arr.setflags(write=False)
    return t_grid, rhos, probs, total

