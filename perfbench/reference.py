"""Independent references for the benchmark's correctness gate.

Nothing here calls a wgqed solver: every reference is built with plain numpy
from the raw inputs (level energies, dipoles as a (n_ground, n_excited, 3)
array, the forward field, the 3x3 loss tensor and the unit constants of
simple units, a = omega = eps0 = hbar = 1 unless given).
"""

from __future__ import annotations

import math

import numpy as np


def digits(err: float) -> float:
    """-log10 of an error, capped at 15 (an error of 0 reads 15); a
    non-finite error reads 0."""
    if not math.isfinite(err):
        return 0.0
    return 15.0 if err <= 1e-15 else min(15.0, -math.log10(err))


def worst(*errors) -> float:
    """The largest of several errors, where NaN counts as an infinite error
    (``max`` would drop it)."""
    errors = [float(e) for e in errors]
    return math.inf if any(math.isnan(e) for e in errors) else max(errors)


# ---------------------------------------------------------------------------
# scattering
# ---------------------------------------------------------------------------


def _guided_couplings(D, E_f):
    """(g_f, g_b): emission couplings E* . d into the forward and the
    backward mode, indexed [excited, ground]. E_b = conj(E_f)."""
    g_f = np.einsum("nxi,i->xn", D, np.conj(E_f))
    g_b = np.einsum("nxi,i->xn", D, E_f)
    return g_f, g_b


def scatter_reference(ground, excited, D, E_f, loss_tensor, *, direction,
                      ground_index, photon_frequency, a=1.0, v_g=0.1, omega=1.0):
    """Dense resolvent solve for one single-photon scattering event.

    The excited response u solves M u = d_r* . E_in with

        M = (X + i Lambda / 2z + i Delta / z)^T,
        X = (g_f g_f^dag + g_b g_b^dag) / 2,
        Lambda[x, y] = sum_n d_nx . conj(G_loss) . conj(d_ny),

    z = a omega / 2|v_g| and Delta the detuning of each excited level from
    the input energy. A singular M (a dark excited state on resonance) is
    solved by least squares, which drops the dark directions exactly like a
    projection onto the coupled subspace. Returns the (2, n_ground) amplitude
    table (rows forward, backward) and the loss probability from the
    dissipative flux u^dag J^T u / z, J the Im(G_loss) sandwich.
    """
    D = np.asarray(D, dtype=complex)
    E_f = np.asarray(E_f, dtype=complex)
    G = np.asarray(loss_tensor, dtype=complex)
    z = a * omega / (2.0 * abs(v_g))
    g_f, g_b = _guided_couplings(D, E_f)
    X = 0.5 * (g_f @ g_f.conj().T + g_b @ g_b.conj().T)
    Lam = np.einsum("nxi,ij,nyj->xy", D, G.conj(), D.conj())
    J = np.einsum("nxi,ij,nyj->xy", D, G.imag, D.conj())
    E_in_energy = ground[ground_index] + photon_frequency
    Delta = np.diag(np.asarray(excited, dtype=float) - E_in_energy)
    M = (X + (0.5j / z) * Lam + (1j / z) * Delta).T

    E_in = E_f if direction == "forward" else np.conj(E_f)
    drive = D[ground_index].conj() @ E_in
    u = np.linalg.lstsq(M, drive, rcond=1e-13)[0]

    amps = np.zeros((2, len(ground)), dtype=complex)
    amps[0 if direction == "forward" else 1, ground_index] = 1.0
    amps[0] -= g_f.T @ u
    amps[1] -= g_b.T @ u
    p_loss = float(np.real(u.conj() @ (J.T / z) @ u))
    return amps, p_loss


def two_level_rates(d, E_f, loss_rate, *, a=1.0, v_g=0.1, omega=1.0):
    """Forward, backward and loss decay rates of a single transition d:
    |E* . d|^2 a omega / 2|v_g| per guided direction."""
    scale = a * omega / (2.0 * abs(v_g))
    d = np.asarray(d, dtype=complex)
    E_f = np.asarray(E_f, dtype=complex)
    return (scale * abs(np.conj(E_f) @ d) ** 2, scale * abs(E_f @ d) ** 2,
            float(loss_rate) * float(np.vdot(d, d).real))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def emission_generator(excited, D, E_f, loss_rate, *, a=1.0, v_g=0.1, omega=1.0):
    """Dense linear generator on y = [vec(rho_excited), P.ravel()] for
    isotropic loss, with P[n, c] the probability accumulated in ground n via
    channel c (forward, backward, loss)."""
    D = np.asarray(D, dtype=complex)
    n_g, n_e, _ = D.shape
    scale = a * omega / (2.0 * abs(v_g))
    g_f, g_b = _guided_couplings(D, np.asarray(E_f, dtype=complex))
    channels = [(scale, g_f, 0), (scale, g_b, 1)]
    channels += [(float(loss_rate), np.einsum("nxi,i->xn", D, axis), 2)
                 for axis in np.eye(3, dtype=complex)]
    K = sum(s * (C.conj() @ C.T) for s, C, _ in channels)
    H = np.diag(np.asarray(excited, dtype=complex))
    eye = np.eye(n_e)
    n_rho = n_e * n_e
    L = np.zeros((n_rho + 3 * n_g, n_rho + 3 * n_g), dtype=complex)
    # row-major vec: vec(A R) = kron(A, 1) vec(R), vec(R B) = kron(1, B^T) vec(R)
    L[:n_rho, :n_rho] = (-1j * (np.kron(H, eye) - np.kron(eye, H.T))
                         - 0.5 * (np.kron(K, eye) + np.kron(eye, K.T)))
    for s, C, col in channels:
        for n in range(n_g):
            L[n_rho + 3 * n + col, :n_rho] += s * np.outer(C[:, n], C[:, n].conj()).ravel()
    return L


def propagate(L, y0, times):
    """exp(L t) y0 at each time, by eigendecomposition of L."""
    w, V = np.linalg.eig(L)
    c = np.linalg.solve(V, y0)
    return np.array([V @ (np.exp(w * t) * c) for t in np.asarray(times, dtype=float)])


def emission_reference(excited, D, E_f, loss_rate, psi0, times):
    """Reference (rho blocks (T, n_e, n_e), P arrays (T, n_g, 3))."""
    D = np.asarray(D, dtype=complex)
    n_g, n_e, _ = D.shape
    L = emission_generator(excited, D, E_f, loss_rate)
    psi0 = np.asarray(psi0, dtype=complex)
    y0 = np.concatenate([np.outer(psi0, psi0.conj()).ravel(), np.zeros(3 * n_g)])
    ys = propagate(L, y0, times)
    return ys[:, :n_e * n_e].reshape(-1, n_e, n_e), ys[:, n_e * n_e:].real.reshape(-1, n_g, 3)


def total_decay_rates(D, E_f, loss_rate, *, a=1.0, v_g=0.1, omega=1.0):
    """Total decay rate of each excited state, summed over ground states:
    both guided directions plus isotropic loss."""
    D = np.asarray(D, dtype=complex)
    g_f, g_b = _guided_couplings(D, np.asarray(E_f, dtype=complex))
    guided = np.sum(np.abs(g_f) ** 2 + np.abs(g_b) ** 2, axis=1)
    return a * omega / (2.0 * abs(v_g)) * guided + loss_rate * np.sum(np.abs(D) ** 2, axis=(0, 2))


def paradox_closed_form(t):
    """Showcase V emitter (field (2, i, 0)/sqrt5, state (i, 2)/sqrt5, no
    loss): excited populations (e1, e2) and the unordered pair of direction
    probabilities (suppressed, enhanced), from the population rates 8 and 2
    and the coherence rate 5. The long-time pair is (9/50, 41/50)."""
    t = np.asarray(t, dtype=float)
    common = (1.0 - np.exp(-8.0 * t)) / 8.0 + (1.0 - np.exp(-2.0 * t)) / 2.0
    cross = 0.4 * (1.0 - np.exp(-5.0 * t))
    return (0.2 * np.exp(-8.0 * t), 0.8 * np.exp(-2.0 * t),
            0.8 * (common - cross), 0.8 * (common + cross))
