"""Shared helpers: random instance generators and independent oracles.

The oracles here deliberately avoid the package's solver paths: emission is
cross-checked against an eigendecomposition propagator of the dense linear
generator, scattering against the N (Gamma^T - Delta) form of the response
matrix, and the showcase scenario against closed-form expressions.
"""

from __future__ import annotations

import numpy as np
import pytest

from wgqed import (
    EmitterModel,
    LossModel,
    PolarizationVector,
    WaveguideEnv,
    greens_decomposition,
)


def make_env(E_f, **kwargs) -> WaveguideEnv:
    return WaveguideEnv(E_f=PolarizationVector(E_f), **kwargs)


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
# tensor. The package assembles the algebraically equal split
# X^T + i L^T / 2z + i eps0 Delta / z instead.
# ---------------------------------------------------------------------------


def oracle_response_matrix(model: EmitterModel, env: WaveguideEnv, loss: LossModel,
                           E_int: float) -> np.ndarray:
    D = model.dipole_array()
    G = greens_decomposition(env, loss).physical()
    Gamma = -np.einsum("nxi,ij,nyj->xy", D, G.conj(), D.conj()) / env.epsilon0
    Delta = np.diag(np.asarray(model.excited_energies, dtype=float) - E_int)
    return env.N * (Gamma.T - Delta)


def oracle_scatter(model: EmitterModel, env: WaveguideEnv, loss: LossModel,
                   inp) -> np.ndarray:
    """Amplitude table gamma[mode, ground] (rows forward, backward) through
    the oracle response matrix, one direction at a time."""
    omega_f = env.omega if inp.photon_frequency is None else inp.photon_frequency
    r = inp.ground_index
    M = oracle_response_matrix(model, env, loss,
                               model.ground_energies[r] + env.hbar * omega_f)
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
    scale_wg = env.a * env.omega / (2.0 * abs(env.v_g) * env.hbar * env.epsilon0)

    channels = [
        (scale_wg, np.einsum("nxi,i->xn", D, ef.conj()), 0),   # forward
        (scale_wg, np.einsum("nxi,i->xn", D, ef), 1),          # backward
    ]
    for axis in np.eye(3):
        channels.append(
            (loss_strength / (env.hbar * env.epsilon0),
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
        (-1j / env.hbar) * (np.kron(H, eye) - np.kron(eye, H.T))
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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
