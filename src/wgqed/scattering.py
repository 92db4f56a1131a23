"""Long-time single-photon scattering amplitudes for a multi-level emitter,
plus the scalar two-level closed form used as an independent cross-check.

The amplitude into output mode m with the emitter left in ground state k is

    gamma[m, k] = delta - (E_m* . d_k:) M^-1 (d_r:* . E_in)

with the response matrix the resolvent form

    M = (i / z) (H_eff - E_int)

of the effective Hamiltonian ``H_eff`` that emission exponentiates (see
:func:`wgqed.photonic.effective_hamiltonian`) at the total input energy
``E_int``. The scale makes the Hermitian part of M the guided damping ``sum_k
K_xk* K_yk / 2`` over the output channels k of the couplings ``K`` of
:func:`wgqed.photonic.guided_couplings` plus the loss decay. The bookend
convention is fixed: absorption contracts the conjugated dipole with the
field, emission contracts the conjugated field with the dipole. Only the
guided part of ``H_eff`` depends on the field, so the private engine
``_scatter_fields`` solves M over a stack of fields in one call and returns
stacked arrays, nan in each failed slice: the CLI reads them, :func:`scatter`
(a stack of one) and :func:`polarization_sweep` build records from them.

A slice enters the solve as it stands when its condition number is at most
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
stack too small for the certificate to pay, get their singular values. A
non-finite slice fails first, and the gate sees the identity in its place.

A stack is clean when every slice is finite, has input and reads at most
``COND_WARN_THRESHOLD``: by its exact condition number in a stack smaller
than ``_CERTIFY_FROM``, by the certificate or, where that decides nothing,
the exact number in a larger one. Each of the three is one count over the
stack. A clean stack, such as a lossy sweep or a well-conditioned point,
goes to the solve as it stands. Only another stack pays for the gate's
masks, the identity padding, the refused slices and the warnings
(``_gated_solve``), starting from the response, right-hand sides and
condition numbers already computed.

The stacked solve is one call, refused slices included (see
``_gated_solve``), its solver chosen by the stack's size (``_solve``). A stack of at
least ``_ELIMINATE_FROM`` slices with at most ``_ELIMINATE_MAX_N`` excited
levels, such as a sweep, goes to ``_eliminate``: Gaussian elimination with
partial pivoting, each step one ufunc over all slices, where LAPACK would
make one call per slice. For n <= 3 its growth factor is at most 4, so it is
as backward stable as LAPACK. Every other stack, a single point among them,
goes to ``np.linalg.solve``, whose fixed cost is the smaller one there.
"""

from __future__ import annotations

import math
import warnings
from itertools import repeat
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .emitter import EmitterModel, PolarizationVector, _as_float, _as_grid, _Value
from .errors import IllConditionedResponseWarning, NonPhysicalStateError, SingularResponseError
from .photonic import (CHANNELS, LossModel, WaveguideEnv, _rounding_rate, effective_hamiltonian,
                       guided_couplings)

MODES = CHANNELS[:2]    # the guided modes, in the order of guided_couplings' channels
COND_WARN_THRESHOLD = 1e12
COND_SINGULAR_THRESHOLD = 1e15
# Largest condition number the damping certificate vouches for, and the
# smallest stack it is tried on: below that, the fixed cost of its dozen
# array operations exceeds that of the singular values it saves.
_CERTIFIED_COND = COND_WARN_THRESHOLD * 1e-4
_CERTIFY_FROM = 8
# The smallest stack, and the largest excited manifold, that _eliminate
# solves in place of np.linalg.solve. Microseconds per stack, _eliminate /
# LAPACK, on random dense stacks (half the slices swap rows), one BLAS
# thread, 2-core x86-64 host, best of 7 timeit rounds:
#            T = 64     96      128     256      401
#   n = 2    20/22    21/32    23/40    26/74    32/114
#   n = 3    45/32    50/46    53/60    68/121   82/187
#   n = 4    82/38    88/54    97/71   131/141  166/222
# n = 1 wins from T = 32; n = 6 and 8 lose up to T = 401.
_ELIMINATE_FROM = 128
_ELIMINATE_MAX_N = 3


class ScatterInput(_Value):
    """Input channel: photon direction, initial ground state, and photon
    frequency (defaults to the environment frequency, i.e. zero detuning
    against an excited energy equal to ``E_ground + omega``)."""

    __slots__ = ("direction", "ground_index", "photon_frequency")

    def __init__(self, direction="forward", ground_index=0, photon_frequency=None):
        if not (isinstance(direction, str) and direction in MODES):
            raise ValueError(f"direction must be one of {MODES}, got {direction!r}")
        if isinstance(ground_index, bool) or not isinstance(ground_index, (int, np.integer)):
            raise ValueError(f"ground_index must be an integer, got {ground_index!r}")
        if photon_frequency is not None and not math.isfinite(_as_float(photon_frequency)):
            raise ValueError("photon_frequency must be None or a finite number, "
                             f"got {photon_frequency!r}")
        for name, value in zip(self.__slots__, (direction, ground_index, photon_frequency)):
            object.__setattr__(self, name, value)


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


def _singular_error(lam: np.ndarray, vecs: np.ndarray, dark: np.ndarray,
                    cond: float) -> SingularResponseError:
    """The error of a refused slice, naming its damping's ``dark`` eigenvectors."""
    if dark.any():
        couplings = ", ".join(f"{v:.3e}" for v in lam[dark].tolist())
        cause = (f"dark excited eigenvector(s) with couplings [{couplings}] decouple "
                 "from every channel on resonance")
    else:
        cause = (f"its condition number {cond:.3e} exceeds {COND_SINGULAR_THRESHOLD:.0e}, "
                 "but no excited direction is dark (smallest damping coupling "
                 f"{lam[0]:.3e})")
    return SingularResponseError(
        f"response matrix is singular: {cause}; rerun with dark-state projection "
        "to solve in the coupled subspace",
        dark_vectors=vecs[:, dark],
    )


def _certified(M: np.ndarray) -> np.ndarray:
    """Mask of the slices of the stack ``M`` (T, n, n) whose condition number
    is at most ``_CERTIFIED_COND``, found from the damping ``Herm M`` without
    singular values (see the module docstring). A False entry decides
    nothing. It reads ``M`` stack last, the engine's own layout, so that
    each operation loops over the slices."""
    S = M.transpose(1, 2, 0)                                # S[i, j, t] = M[t, i, j]
    herm2 = np.abs(S + S.conj().swapaxes(0, 1))             # 2 |Herm M_ij|
    # 4 Re M_ii - sum_j 2 |Herm M_ij| is twice the signed Gershgorin bound
    # Re M_ii - sum_{j != i} |Herm M_ij| where Re M_ii >= 0, and below it
    # otherwise.
    twice_g = (4.0 * S.real.diagonal().T - herm2.sum(axis=1)).min(axis=0)
    twice_norm = (2.0 * len(S)) * np.abs(S).max(axis=(0, 1))
    return (twice_g > 0.0) & (twice_norm <= _CERTIFIED_COND * twice_g)


def _condition_numbers(M: np.ndarray) -> np.ndarray:
    """``np.linalg.cond(M)`` of the stack ``M`` (T, n, n): the ratio of the
    extreme singular values, ``inf`` where the smallest is zero. The plain
    divide runs where no smallest singular value is zero; only a stack with
    such a slice pays for the masked one, which raises no floating-point
    error there."""
    s = np.linalg.svd(M, compute_uv=False)
    smallest = s[:, -1]
    if np.count_nonzero(smallest) == len(s):     # not smallest.all(), cheaper
        return s[:, 0] / smallest
    cond = np.empty(len(s))
    cond.fill(np.inf)
    return np.divide(s[:, 0], smallest, out=cond, where=smallest > 0)


def _eliminate(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A[:, :, t] y[:, t] = b[:, t]`` for every slice of the stack-last
    stack ``A`` (n, n, T), ``b`` (n, T): Gaussian elimination with partial
    pivoting on the augmented array ``[A | b]``, each step one ufunc over all
    T slices, then back-substitution. Returns ``y`` (n, T).

    The pivot of column k is its entry of largest modulus from row k down
    (the first such row on a tie), moved up by swapping rows in the slices
    that need it. So no multiplier exceeds 1 in modulus, the growth factor
    is at most ``2^(n-1)``, and for small n the solve is backward stable as
    LAPACK's is. Each slice's arithmetic is its own, so its bits do not
    depend on the rest of the stack.
    """
    n = len(A)
    W = np.empty((n, n + 1, A.shape[-1]), dtype=complex)
    W[:, :n] = A
    W[:, n] = b
    for k in range(n - 1):
        size = np.abs(W[k:, k])
        for i in range(k + 1, n):
            swap = size[i - k] > size[0]
            if np.count_nonzero(swap):      # swap.any() at a third of its fixed cost
                top, row = W[k, k:], W[i, k:]
                W[k, k:], W[i, k:] = np.where(swap, row, top), np.where(swap, top, row)
                if i + 1 < n:
                    np.maximum(size[0], size[i - k], out=size[0])
        W[k + 1:, k + 1:] -= (W[k + 1:, k] / W[k, k])[:, None] * W[k, k + 1:]
    y = W[:, n]
    for j in range(n - 1, -1, -1):
        y[j] /= W[j, j]
        y[:j] -= W[:j, j] * y[j]
    return y


def _identity_outside(keep: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``M`` with the identity in each slice ``keep`` drops; ``M`` itself if none."""
    every = np.count_nonzero(keep) == len(keep)     # keep.all() at a third of its fixed cost
    return M if every else np.where(keep[:, None, None], M, np.eye(M.shape[-1]))


def _gate_conditions(M: np.ndarray, active: np.ndarray) -> np.ndarray:
    """The condition numbers the gate reads for the finite stack ``M``:
    exact, except that a certified or inactive slice of a stack large enough
    to certify reads 0, which passes both thresholds as its true value
    would."""
    if len(M) < _CERTIFY_FROM:
        return _condition_numbers(M)
    cond = np.zeros(len(M))
    exact = np.flatnonzero(active & ~_certified(M))
    if exact.size:
        cond[exact] = _condition_numbers(M[exact])
    return cond


def _solve_gate(active: np.ndarray, cond: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the ``active`` slices with the condition numbers ``cond`` of
    :func:`_gate_conditions` that the stacked solve takes (at most
    ``COND_SINGULAR_THRESHOLD``) and of those that warn (above
    ``COND_WARN_THRESHOLD``)."""
    solvable = active & (cond <= COND_SINGULAR_THRESHOLD)
    return solvable, solvable & (cond > COND_WARN_THRESHOLD)


def _solve(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``y`` (n_e, T) with ``A[t] y[:, t] = rhs[:, t]`` for the stack ``A``
    (T, n, n): one ``_eliminate`` or one ``np.linalg.solve``, by the module
    docstring's rule."""
    if len(A) >= _ELIMINATE_FROM and len(rhs) <= _ELIMINATE_MAX_N:
        return _eliminate(A.transpose(1, 2, 0), rhs)
    return np.linalg.solve(A, rhs.T[..., None])[..., 0].T


def _gated_solve(M: np.ndarray, rhs: np.ndarray, active: np.ndarray, cond: np.ndarray,
                 errors: dict[int, Exception], dark_state_projection: bool) -> np.ndarray:
    """``y`` (n_e, T) of a stack that is not clean (see ``_scatter_fields``),
    from its finite response ``M`` (T, n, n), right-hand sides ``rhs``
    (n_e, T), ``active`` mask and gate condition numbers ``cond``. Each
    slice the gate refuses joins the one solve as the identity or, with
    projection, as its padded system: in the eigenbasis ``Q`` of its
    damping, ``Q^H M Q`` on the coupled directions and ``I`` on the dark
    ones, right-hand side ``Q^H b``, then ``y = Q y'``. The error of each
    slice that fails goes into ``errors``, by index, and each slice that
    warns warns once."""
    solvable, warn = _solve_gate(active, cond)
    A = _identity_outside(solvable, M)      # I where the gate does not pass
    refused = () if A is M else np.flatnonzero(active & ~solvable)
    if len(refused):    # one eigh gives the dark directions of every refused slice
        R = M[refused]
        damping = 0.5 * (R + R.conj().swapaxes(1, 2))
        lam, Q = np.linalg.eigh(damping)
        dark = 2.0 * lam <= _rounding_rate(damping)[:, None]     # a rate that is rounding
        if not dark_state_projection:
            for j, t in enumerate(refused.tolist()):
                errors[t] = _singular_error(lam[j], Q[j], dark[j], cond[t])
        else:
            Q = np.where(dark[:, None], 0.0, Q)
            QH = Q.conj().swapaxes(1, 2)
            P = np.where(dark[:, None] | dark[..., None], np.eye(len(rhs)), QH @ R @ Q)
            # a slice that rounding leaves singular keeps I: LAPACK would fail the stack
            singular = np.linalg.slogdet(P)[0] == 0
            A[refused] = _identity_outside(~singular, P)
            rhs[:, refused] = (QH @ rhs[:, refused].T[..., None])[..., 0].T
    y = _solve(A, rhs)
    if len(refused) and dark_state_projection:
        y[:, refused] = (Q @ y[:, refused].T[..., None])[..., 0].T
        singular |= ~np.isfinite(y[:, refused]).all(axis=0)
        for t in refused[singular].tolist():
            errors[t] = SingularResponseError(
                f"response matrix is singular (condition number {cond[t]:.3e}), also in "
                "the coupled subspace to working precision")
    for t in warn.nonzero()[0]:
        warnings.warn(
            f"response matrix condition number {cond[t]:.3e} exceeds {COND_WARN_THRESHOLD:.0e}",
            IllConditionedResponseWarning,
            stacklevel=5,    # past _scatter_fields and its errstate wrapper
        )
    return y


@np.errstate(all="ignore")
def _scatter_fields(
    model: EmitterModel,
    env: WaveguideEnv,
    loss: LossModel,
    inp: ScatterInput,
    fields: np.ndarray,
    dark_state_projection: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, Exception]]:
    """Scatter at every forward field of the stack ``fields`` (T, 3), all
    else shared. Returns the read-only amplitudes (T, 2, n_ground), ``p_loss``
    (T,) and output frequencies (n_ground,), nan in each failed slice, and
    the ``WgqedError`` of each failed slice, by index.

    The work runs stack last, so that each operation loops over the fields:
    the couplings ``K`` (n_e, 2 n_g, T) have one column per output channel
    ``k = mode n_g + ground``, the input channel's conjugated column is the
    right-hand side, and the amplitudes build up per channel, (2 n_g, T),
    in a view of the (T, 2, n_ground) result. The gate reads ``M``, the
    (T, n, n) view of the stack-last response. A clean stack, every slice
    finite, with input and at most ``COND_WARN_THRESHOLD`` by the gate's
    condition numbers, goes to the one solve as it stands; any other goes
    through ``_gated_solve``.
    """
    D = model.dipole_array()
    n_g = model.n_ground
    r = inp.ground_index
    if not 0 <= r < n_g:
        raise IndexError(f"ground index {r} out of range for {n_g} ground states")

    omega_f = env.omega if inp.photon_frequency is None else float(inp.photon_frequency)
    ground = np.asarray(model.ground_energies, dtype=float)
    E_int = ground[r] + omega_f

    K = guided_couplings(D, fields)                      # (n_e, 2 n_g, T)
    k_in = MODES.index(inp.direction) * n_g + r          # the input channel
    rhs = K[:, k_in].conj()                              # d_r* . E_in, (n_e, T)

    # H_eff with the level energies counted from E_int is H_eff - E_int.
    detunings = np.asarray(model.excited_energies, dtype=float) - E_int
    # (T, n, n) view of the stack-last response, for the gate and LAPACK
    M = ((1j / env.z) * effective_hamiltonian(D, K, detunings, env, loss)).transpose(2, 0, 1)

    errors: dict[int, Exception] = {}
    active = rhs.any(axis=0)
    if np.count_nonzero(np.isfinite(M)) < M.size:     # not np.isfinite(M).all(), cheaper
        # a non-finite slice fails even with no input: its couplings may
        # overflow too; the gate and the solve see the identity in its place
        finite = np.isfinite(M).all(axis=(-2, -1))
        for t in np.flatnonzero(~finite).tolist():
            errors[t] = NonPhysicalStateError("response matrix overflows")
        M = _identity_outside(finite, M)
        active &= finite
    cond = _gate_conditions(M, active)
    if (np.count_nonzero(active) == len(M)
            and np.count_nonzero(cond <= COND_WARN_THRESHOLD) == len(M)):
        y = _solve(M, rhs)      # clean: no slice to pad, refuse or warn about
    else:
        y = _gated_solve(M, rhs, active, cond, errors, dark_state_projection)

    amplitudes = np.zeros((len(M), 2, n_g), dtype=complex)
    by_channel = amplitudes.reshape(len(M), 2 * n_g).T   # (2 n_g, T) view
    by_channel[k_in] = 1.0
    by_channel -= np.einsum("xkt,xt->kt", K, y)
    if errors:
        amplitudes[list(errors)] = complex(math.nan, math.nan)
    p_loss = 1.0 - (np.abs(by_channel) ** 2).sum(axis=0)
    output_frequencies = omega_f + (ground[r] - ground)
    for array in (amplitudes, p_loss, output_frequencies):
        array.setflags(write=False)
    return amplitudes, p_loss, output_frequencies, errors


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
    amplitudes, p_loss, output_frequencies, errors = _scatter_fields(
        model, env, loss, inp, env.E_f.as_array()[None], dark_state_projection
    )
    if errors:
        raise errors[0]
    # tuple.__new__ skips the named tuple's Python-level constructor
    return tuple.__new__(ScatteringResult, (amplitudes[0], float(p_loss[0]),
                                            output_frequencies, inp.direction,
                                            inp.ground_index))


@np.errstate(all="ignore")
def two_level_closed_form(
    d: PolarizationVector,
    env: WaveguideEnv,
    loss: LossModel,
    detuning: float = 0.0,
) -> TwoLevelAmplitudes:
    """Closed-form (t, r, p_loss) for a single transition with dipole ``d``.

    ``detuning``, a finite real number (:class:`ValueError` otherwise), is the
    transition energy minus the total input energy, in the same units as the
    level energies. Kept free of the matrix machinery so it can serve as an
    independent oracle for :func:`scatter`; the CLI does not call it. Raises
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
    delta = _as_float(detuning)
    if not math.isfinite(delta):
        raise ValueError(f"detuning must be a finite real number, got {detuning!r}")
    M = X + loss_term + 1j * delta / env.z
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


def _theta_fields(thetas: np.ndarray) -> np.ndarray:
    """The forward fields (cos(theta), i sin(theta), 0) of a theta grid: (T, 3)."""
    fields = np.empty((len(thetas), 3), dtype=complex)
    fields[:, 0] = np.cos(thetas)
    fields[:, 1] = 1j * np.sin(thetas)
    fields[:, 2] = 0.0
    return fields


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
    thetas = _as_grid(theta_grid, "theta grid")
    if thetas.min() < 0.0 or thetas.max() > np.pi + 1e-12:
        raise ValueError("theta grid must lie within [0, pi]")

    amplitudes, p_loss, output_frequencies, errors = _scatter_fields(
        model, env_template, loss, inp, _theta_fields(thetas), dark_state_projection
    )
    # tuple.__new__ over zipped fields builds the records without a Python
    # frame per record.
    results = map(tuple.__new__, repeat(ScatteringResult), zip(
        amplitudes, p_loss.tolist(), repeat(output_frequencies),
        repeat(inp.direction), repeat(inp.ground_index),
    ))
    points = list(map(tuple.__new__, repeat(SweepPoint),
                      zip(thetas.tolist(), results, repeat(None))))
    for t, exc in errors.items():
        points[t] = SweepPoint(points[t].theta, None, exc)
    return points
