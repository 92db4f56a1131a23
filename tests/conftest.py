"""Shared helpers: random instance generators and independent oracles.

The oracles here deliberately avoid the package's solver paths: emission is
cross-checked against an eigendecomposition propagator of the dense linear
generator and against a 35-digit ``mpmath`` exponential of the generator of
the excited block, its integral taken through the inverse of that generator
or, where it is singular, from the augmented generator on [vec rho, vec int
rho] (the package instead exponentiates the effective Hamiltonian and solves
one adjoint Lyapunov equation), scattering against the N (Gamma^T - Delta)
form of the response matrix built here from per-channel Green's tensors (the
package solves the resolvent of its effective Hamiltonian instead), and the
showcase scenario against closed-form expressions.
"""

from __future__ import annotations

import numbers

import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st

from wgqed import (
    EmitterModel,
    LossModel,
    PolarizationVector,
    WaveguideEnv,
)


# Library arguments of every kind: numbers of any size (nan and inf among
# them), bools, complex numbers, strings, None, and nested ragged lists.
FUZZ_LEAVES = st.one_of(st.floats(), st.integers(-10**400, 10**400), st.booleans(),
                        st.complex_numbers(), st.text(max_size=3), st.none())
ARGUMENTS = st.recursive(FUZZ_LEAVES, lambda inner: st.lists(inner, max_size=3),
                         max_leaves=27)


def numbers_only(value) -> bool:
    """Whether every leaf of a nested list is a number and none a bool."""
    if isinstance(value, list):
        return all(map(numbers_only, value))
    return isinstance(value, numbers.Complex) and not isinstance(value, bool)


def make_env(E_f, **kwargs) -> WaveguideEnv:
    return WaveguideEnv(E_f=PolarizationVector(E_f), **kwargs)


def damping_matrix(bundle) -> np.ndarray:
    """The Hermitian PSD damping matrix ``K = i (H_eff - H_eff^dagger)`` of a
    coupling bundle: the total decay of the excited block, read from
    ``H_eff`` apart from the flux forms."""
    return 1j * (bundle.H_eff - bundle.H_eff.conj().T)


def frame_energies(model) -> np.ndarray:
    """The excited energies as ``CouplingBundle.H_eff`` counts them: from the
    lowest one."""
    return np.asarray(model.excited_energies) - min(model.excited_energies)


def random_unit_vector(rng, planar: bool = False) -> np.ndarray:
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    if planar:
        v[2] = 0.0
    return v / np.linalg.norm(v)


def random_model(rng, n_ground: int, n_excited: int, degenerate: bool = False) -> EmitterModel:
    ground = rng.uniform(-0.3, 0.3, n_ground)
    if degenerate:
        excited = np.full(n_excited, 1.0)
    else:
        excited = 1.0 + rng.uniform(-0.4, 0.4, n_excited)
    D = rng.normal(size=(n_ground, n_excited, 3)) + 1j * rng.normal(size=(n_ground, n_excited, 3))
    D /= np.linalg.norm(D, axis=2, keepdims=True)
    return EmitterModel.from_arrays(ground, excited, D)


# The largest power of two by which a test shifts every level energy: on the
# grid of dyadic_instance the shifted energies and their differences are
# exact, and it is ~1e10 times the largest decay rate of such an instance.
DYADIC_SHIFT = 2.0 ** 40


def dyadic_instance(rng, case: int) -> dict:
    """Raw arrays of a random scattering or emission instance, drawn as
    ``TestStackSlices`` draws them (1-3 ground and excited levels, level 0
    dark to a field along z, loss none, isotropic or a tensor by ``case``,
    on resonance with level 0 in odd cases), with every energy and the photon
    frequency on a grid of 2^-12, so that a shift by a power of two up to
    ``DYADIC_SHIFT`` and a scaling by any power of two are exact."""
    def grid(x):
        return np.round(x * 4096.0) / 4096.0

    n_g, n_e = (int(k) for k in rng.integers(1, 4, size=2))
    ground = grid(rng.uniform(-0.3, 0.3, n_g))
    excited = 1.0 + grid(rng.uniform(-0.4, 0.4, n_e))
    D = rng.normal(size=(n_g, n_e, 3)) + 1j * rng.normal(size=(n_g, n_e, 3))
    D[:, 0, 2] = 0.0
    r = int(rng.integers(0, n_g))
    loss = (np.zeros((3, 3)), 0.2j * np.eye(3), random_loss_tensor(rng).as_array())[case % 3]
    frequency = excited[0] - ground[r] if case % 2 else grid(rng.uniform(0.5, 1.5))
    return dict(ground=ground, excited=excited, D=D, loss=loss, r=r, frequency=frequency)


def scaled_objects(inst: dict, shift: float = 0.0, s: float = 1.0):
    """The model and loss of ``inst`` with every level energy shifted by
    ``shift``, then the energies scaled by ``s`` and the dipoles by
    ``sqrt(s)``: the same physics in a unit of energy and rate 1/s as large.
    The loss tensor is rate-normalized per unit dipole, like the guided
    scale z, so it stays as it is and its rates scale by s with the
    dipoles'."""
    model = EmitterModel.from_arrays(s * (inst["ground"] + shift), s * (inst["excited"] + shift),
                                     np.sqrt(s) * inst["D"])
    return model, LossModel.from_array(inst["loss"])


def random_unitary(rng, n: int) -> np.ndarray:
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(A)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_state(rng, n: int) -> np.ndarray:
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


def random_loss_tensor(rng, scale: float = 0.3) -> LossModel:
    """Symmetric loss tensor with reactive (real) and dissipative parts."""
    A = rng.normal(size=(3, 3))
    R = 0.5 * (A + A.T)
    B = rng.normal(size=(3, 3))
    J = B @ B.T  # positive semidefinite
    J /= max(1.0, np.max(np.abs(J)))
    return LossModel.from_array(scale * (R + 1j * J))


# ---------------------------------------------------------------------------
# showcase V-system scenario: field (2, i, 0)/sqrt(5), dipoles x and y,
# initial superposition (i, 2)/sqrt(5), no loss. Everything below follows
# from the per-direction rate |d . E*|^2 / (2 v_g) with v_g = 0.1: population
# rates 8 and 2, coherence rate 5, channel couplings proportional to
# (2, -i) and (2, i).
# ---------------------------------------------------------------------------

PARADOX_FIELD = np.array([2.0, 1.0j, 0.0]) / np.sqrt(5.0)
PARADOX_STATE = np.array([1.0j, 2.0]) / np.sqrt(5.0)


def paradox_model() -> EmitterModel:
    return EmitterModel.from_arrays([0.0], [1.0, 1.0], [[[1, 0, 0], [0, 1, 0]]])


def paradox_populations(t):
    """Excited populations (e1, e2) of the showcase scenario."""
    t = np.asarray(t, dtype=float)
    return 0.2 * np.exp(-8.0 * t), 0.8 * np.exp(-2.0 * t)


def paradox_direction_probs(t):
    """(suppressed, enhanced) direction probabilities of the showcase run.

    Obtained by integrating the interfering channel fluxes
    (4/5)(exp(-4u) -/+ exp(-u))^2 in closed form; the long-time pair is
    (9/50, 41/50).
    """
    t = np.asarray(t, dtype=float)
    common = (1.0 - np.exp(-8.0 * t)) / 8.0 + (1.0 - np.exp(-2.0 * t)) / 2.0
    cross = 0.4 * (1.0 - np.exp(-5.0 * t))
    return 0.8 * (common - cross), 0.8 * (common + cross)


# ---------------------------------------------------------------------------
# scattering oracle: the response matrix in its self-energy form
# N (Gamma^T - Delta), with Gamma the dipole sandwich of the physical Green's
# tensor assembled channel by channel below. The package solves the
# algebraically equal resolvent form (i / z)(H_eff - E_int) instead.
# ---------------------------------------------------------------------------


def oracle_greens_tensors(env: WaveguideEnv, loss: LossModel):
    """Per-channel Green's tensors (G_f, G_b, G_loss) at the emitter, from
    the local mode fields: G = i (a w / 4|v_g|) outer(E, E*) per direction,
    and the stored (rate-normalized) loss tensor."""
    kappa = env.a * env.omega / (4.0 * abs(env.v_g))
    ef = env.E_f.as_array()
    eb = env.E_b.as_array()
    return (1j * kappa * np.outer(ef, ef.conj()), 1j * kappa * np.outer(eb, eb.conj()),
            loss.as_array())


def oracle_field_normalization(env: WaveguideEnv) -> complex:
    """Field-normalization constant N = 2 |v_g| / (i a w)."""
    return 2.0 * abs(env.v_g) / (1j * env.a * env.omega)


def oracle_gamma(model: EmitterModel, env: WaveguideEnv, loss: LossModel) -> np.ndarray:
    """Self-energy sandwich -sum_n d_{nx} . G* . d_{ny}* of the physical
    Green's tensor G_f + G_b + G_loss / 2."""
    G_f, G_b, G_loss = oracle_greens_tensors(env, loss)
    G = G_f + G_b + 0.5 * G_loss
    D = model.dipole_array()
    return -np.einsum("nxi,ij,nyj->xy", D, G.conj(), D.conj())


def oracle_flux_forms(model: EmitterModel, env: WaveguideEnv, loss: LossModel) -> np.ndarray:
    """Flux forms (n_g, 3, n_e, n_e) ordered as CHANNELS, built without the
    channel tensors: per direction the outer products ``z b* b^T`` of the
    guided couplings ``b_x = E* . d_{nx}`` (E = E_f forward, E_b = E_f*
    backward), then the loss sandwich ``D_n* Im(G_loss) D_n^T``."""
    D = model.dipole_array()
    E_f = env.E_f.as_array()
    b = np.einsum("nxi,mi->nmx", D, np.stack((E_f.conj(), E_f)))
    guided = env.z * (b.conj()[..., :, None] * b[..., None, :])
    lost = D.conj() @ loss.as_array().imag @ D.swapaxes(-1, -2)
    return np.concatenate((guided, lost[:, None]), axis=1)


def oracle_response_matrix(model: EmitterModel, env: WaveguideEnv, loss: LossModel,
                           E_int: float) -> np.ndarray:
    Delta = np.diag(np.asarray(model.excited_energies, dtype=float) - E_int)
    return oracle_field_normalization(env) * (oracle_gamma(model, env, loss).T - Delta)


def oracle_loss_probability(model: EmitterModel, env: WaveguideEnv, loss: LossModel,
                            inp) -> float:
    """Probability scattered out of the waveguide, u^H (J^T / z) u, with u
    the excited response solved through the oracle response matrix and J the
    dissipative loss sandwich: independent of the amplitudes' norm."""
    omega_f = env.omega if inp.photon_frequency is None else inp.photon_frequency
    r = inp.ground_index
    M = oracle_response_matrix(model, env, loss,
                               model.ground_energies[r] + omega_f)
    D = model.dipole_array()
    E_in = (env.E_f if inp.direction == "forward" else env.E_b).as_array()
    u = np.linalg.solve(M, D[r].conj() @ E_in)
    J = np.einsum("nxi,ij,nyj->xy", D, loss.as_array().imag, D.conj())
    z = env.a * env.omega / (2.0 * abs(env.v_g))
    return float(np.real(u.conj() @ (J.T / z) @ u))


def oracle_scatter(model: EmitterModel, env: WaveguideEnv, loss: LossModel,
                   inp) -> np.ndarray:
    """Amplitude table gamma[mode, ground] (rows forward, backward) through
    the oracle response matrix, one direction at a time."""
    omega_f = env.omega if inp.photon_frequency is None else inp.photon_frequency
    r = inp.ground_index
    M = oracle_response_matrix(model, env, loss,
                               model.ground_energies[r] + omega_f)
    D = model.dipole_array()
    fields = (env.E_f.as_array(), env.E_b.as_array())
    m_in = 0 if inp.direction == "forward" else 1
    u = np.linalg.solve(M, D[r].conj() @ fields[m_in])
    amplitudes = np.zeros((2, model.n_ground), dtype=complex)
    amplitudes[m_in, r] = 1.0
    for m, E in enumerate(fields):
        amplitudes[m] -= np.einsum("nxi,i,x->n", D, E.conj(), u)
    return amplitudes


# ---------------------------------------------------------------------------
# independent emission propagator: dense linear generator + eigen-propagation
# ---------------------------------------------------------------------------


def emission_generator_matrix(model: EmitterModel, env: WaveguideEnv,
                              loss_strength: float) -> np.ndarray:
    """Dense generator acting on [vec(rho_excited), P.ravel()] built directly
    from the per-direction coupling rule, independent of the package solvers.
    Isotropic loss only."""
    D = model.dipole_array()
    n_g, n_e, _ = D.shape
    ef = np.asarray(env.E_f.as_array())
    scale_wg = env.a * env.omega / (2.0 * abs(env.v_g))

    channels = [
        (scale_wg, np.einsum("nxi,i->xn", D, ef.conj()), 0),   # forward
        (scale_wg, np.einsum("nxi,i->xn", D, ef), 1),          # backward
    ]
    for axis in np.eye(3):
        channels.append(
            (loss_strength,
             np.einsum("nxi,i->xn", D, axis.astype(complex)), 2)
        )

    K = np.zeros((n_e, n_e), dtype=complex)
    for s, C, _ in channels:
        K += s * (C.conj() @ C.T)
    H = np.diag(np.asarray(model.excited_energies, dtype=complex))

    dim_rho = n_e * n_e
    dim = dim_rho + n_g * 3
    L = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(n_e)
    # vec(A X) = kron(A, I) vec(X), vec(X B) = kron(I, B^T) vec(X) (C order)
    L_rho = (
        -1j * (np.kron(H, eye) - np.kron(eye, H.T))
        - 0.5 * (np.kron(K, eye) + np.kron(eye, K.T))
    )
    L[:dim_rho, :dim_rho] = L_rho
    for s, C, col in channels:
        for n in range(n_g):
            row = dim_rho + n * 3 + col
            coeff = s * np.outer(C[:, n], C[:, n].conj())  # acts on rho[x, y]
            L[row, :dim_rho] += coeff.ravel()
    return L


def propagate_linear(L: np.ndarray, y0: np.ndarray, times) -> np.ndarray:
    """exp(L t) y0 on a time grid via eigendecomposition."""
    w, V = np.linalg.eig(L)
    c = np.linalg.solve(V, y0)
    return np.array([V @ (np.exp(w * t) * c) for t in np.asarray(times, dtype=float)])


def oracle_emission(model: EmitterModel, env: WaveguideEnv, loss_strength: float,
                    psi0: np.ndarray, times):
    """Reference (rho blocks, P arrays) trajectories for an isotropic-loss run."""
    n_e = model.n_excited
    n_g = model.n_ground
    L = emission_generator_matrix(model, env, loss_strength)
    rho0 = np.outer(psi0, psi0.conj())
    y0 = np.concatenate([rho0.ravel(), np.zeros(n_g * 3, dtype=complex)])
    ys = propagate_linear(L, y0, times)
    rhos = ys[:, : n_e * n_e].reshape(-1, n_e, n_e)
    probs = ys[:, n_e * n_e:].real.reshape(-1, n_g, 3)
    return rhos, probs


# ---------------------------------------------------------------------------
# high-precision emission oracle: the generator of the excited block, or the
# augmented generator on [vec rho, vec int_0^t rho], exponentiated with mpmath
# ---------------------------------------------------------------------------


def augmented_generator(H_eff: np.ndarray) -> np.ndarray:
    """Generator on [vec rho, vec int_0^t rho] (C-order vec): the excited block
    obeys d rho/dt = -i (H_eff rho - rho H_eff^dagger) and its integral has
    derivative rho. The accumulated probabilities are linear in the integral."""
    n_e = H_eff.shape[0]
    n_rho = n_e * n_e
    eye = np.eye(n_e)
    G = np.zeros((2 * n_rho, 2 * n_rho), dtype=complex)
    G[:n_rho, :n_rho] = -1j * (np.kron(H_eff, eye) - np.kron(eye, H_eff.conj()))
    G[n_rho:, :n_rho] = np.eye(n_rho)
    return G


def channel_flux(bundle, excited_block: np.ndarray) -> np.ndarray:
    """Probability flux (..., n_ground, 3) out of ``excited_block`` (or a
    stack of blocks, shape (..., n_e, n_e)) into each (ground state, channel)
    pair, columns ordered as CHANNELS: ``tr(Q rho)`` with the flux forms
    ``Q`` of the bundle."""
    return np.real(np.einsum("ncxy,...yx->...nc", bundle.flux_forms, excited_block))


def mp_emission(bundle, rho0: np.ndarray, times, dps: int = 35):
    """(rho blocks, P arrays) at ``times`` at ``dps`` digits; the fluxes are
    applied to the rounded integral of the excited block.

    With ``L`` the ``n_e^2 x n_e^2`` generator of the excited block, ``rho(t)
    = exp(L t) rho0`` and its integral is ``L^-1 (exp(L t) - I) rho0``, from
    ``mpmath.expm`` of ``L`` alone. That loses about as many digits as the
    1-norm condition number of ``L`` has, so where it is above
    ``10^(dps / 2)`` (or ``L`` is singular, with a mode that does not decay)
    the augmented generator, twice the size, is exponentiated instead."""
    n_e = rho0.shape[0]
    n_rho = n_e * n_e
    G = augmented_generator(bundle.H_eff)
    rows = []
    with mpmath.workdps(dps):
        L = mpmath.matrix(G[:n_rho, :n_rho].tolist())
        try:
            L_inv = mpmath.inverse(L)
            block = mpmath.mnorm(L, 1) * mpmath.mnorm(L_inv, 1) <= mpmath.mpf(10) ** (dps // 2)
        except ZeroDivisionError:    # singular to the working precision
            block = False
        if block:
            y0_mp = mpmath.matrix(rho0.ravel().tolist())
        else:
            L = mpmath.matrix(G.tolist())
            y0_mp = mpmath.matrix(np.concatenate([rho0.ravel(), np.zeros(n_rho)]).tolist())
        for t in np.asarray(times, dtype=float):
            y = mpmath.expm(L * mpmath.mpf(t)) * y0_mp
            if block:
                y = [*y, *(L_inv * (y - y0_mp))]
            rows.append([complex(v) for v in y])
    ys = np.array(rows)
    rhos = ys[:, :n_rho].reshape(-1, n_e, n_e)
    probs = channel_flux(bundle, ys[:, n_rho:].reshape(-1, n_e, n_e))
    return rhos, probs


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
