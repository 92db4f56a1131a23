"""The units rule of the README: a caller in units with a vacuum permittivity
eps0 and a reduced Planck constant hbar other than 1 passes every dipole as
d / sqrt(eps0 hbar) and every energy as E / hbar, with the loss tensor and
the environment unchanged, and gets the physics of those units.

Each check builds a random instance in the caller's (physical) units and
computes the expected result there, with eps0 and hbar written out, from the
Green's tensors of the environment: the self-energy Gamma = -sum_n d_{nx} .
G* . d_{ny}* / eps0, the effective Hamiltonian (diag(E) - Gamma^T) / hbar,
the per-channel rates (z |E* . d|^2 and d* Im(G_loss) d) / (eps0 hbar), the
response matrix N (Gamma^T - Delta) with N = 2 |v_g| eps0 / (i a w) and the
input energy E_ground + hbar w. The package gets only the rescaled instance.
"""

import numpy as np
import pytest

from wgqed import (
    EmitterModel,
    ExcitedSuperposition,
    LossModel,
    ScatterInput,
    coupling_bundle,
    evolve,
    polarization_sweep,
    scatter,
    two_level_closed_form,
)

from conftest import (
    augmented_generator,
    frame_energies,
    make_env,
    oracle_greens_tensors,
    propagate_linear,
    random_loss_tensor,
    random_model,
    random_state,
    random_unit_vector,
)

# (eps0, hbar): each constant apart, both together, and a pair whose
# product is 1, so the dipoles stay as they are and only the energies scale
UNIT_CONSTANTS = [(3.0, 1.0), (1.0, 3.0), (1.3, 0.7), (0.25, 4.0)]


def physical_instance(rng, eps0, hbar, n_ground=2, n_excited=2):
    """(physical model, rescaled model) of one random emitter: the physical
    one has dipoles sqrt(eps0 hbar) d and energies hbar E, where (E, d) are
    those of the rescaled one the package gets."""
    model = random_model(rng, n_ground, n_excited)
    physical = EmitterModel.from_arrays(
        hbar * np.asarray(model.ground_energies), hbar * np.asarray(model.excited_energies),
        np.sqrt(eps0 * hbar) * model.dipole_array())
    return physical, model


def physical_gamma(model, env, loss, eps0):
    G_f, G_b, G_loss = oracle_greens_tensors(env, loss)
    G = G_f + G_b + 0.5 * G_loss
    D = model.dipole_array()
    return -np.einsum("nxi,ij,nyj->xy", D, G.conj(), D.conj()) / eps0


def physical_h_eff(model, env, loss, eps0, hbar):
    # the energies counted from the lowest, as coupling_bundle counts them
    return (np.diag(frame_energies(model)) - physical_gamma(model, env, loss, eps0).T) / hbar


def physical_flux_forms(model, env, loss, eps0, hbar):
    """Flux forms (n_g, 3, n_e, n_e), channels forward, backward, loss."""
    D = model.dipole_array()
    E_f = env.E_f.as_array()
    b = np.einsum("nxi,mi->nmx", D, np.stack((E_f.conj(), E_f)))
    guided = env.z * (b.conj()[..., :, None] * b[..., None, :])
    lost = D.conj() @ loss.as_array().imag @ D.swapaxes(-1, -2)
    return np.concatenate((guided, lost[:, None]), axis=1) / (eps0 * hbar)


def physical_scatter(model, env, loss, inp, eps0, hbar):
    """(amplitudes[mode, ground], p_loss, output frequencies)."""
    r = inp.ground_index
    omega_f = env.omega if inp.photon_frequency is None else inp.photon_frequency
    E_int = model.ground_energies[r] + hbar * omega_f
    Delta = np.diag(np.asarray(model.excited_energies) - E_int)
    N = 2.0 * abs(env.v_g) * eps0 / (1j * env.a * env.omega)
    M = N * (physical_gamma(model, env, loss, eps0).T - Delta)
    D = model.dipole_array()
    fields = (env.E_f.as_array(), env.E_b.as_array())
    m_in = 0 if inp.direction == "forward" else 1
    u = np.linalg.solve(M, D[r].conj() @ fields[m_in])
    amplitudes = np.zeros((2, model.n_ground), dtype=complex)
    amplitudes[m_in, r] = 1.0
    for m, E in enumerate(fields):
        amplitudes[m] -= np.einsum("nxi,i,x->n", D, E.conj(), u)
    frequencies = omega_f + (model.ground_energies[r] - np.asarray(model.ground_energies)) / hbar
    return amplitudes, 1.0 - np.sum(np.abs(amplitudes) ** 2), frequencies


@pytest.mark.parametrize("eps0, hbar", UNIT_CONSTANTS)
class TestRescalingRule:
    def test_effective_hamiltonian(self, rng, eps0, hbar):
        for n_g, n_e in ((1, 1), (2, 3), (3, 2)):
            physical, model = physical_instance(rng, eps0, hbar, n_g, n_e)
            env = make_env(random_unit_vector(rng), a=0.7, omega=1.3, v_g=-0.2)
            for loss in (LossModel.none(), LossModel.isotropic(0.3), random_loss_tensor(rng)):
                expected = physical_h_eff(physical, env, loss, eps0, hbar)
                H = coupling_bundle(model, env, loss).H_eff
                assert np.max(np.abs(H - expected)) < 1e-13 * max(1.0, np.max(np.abs(expected)))

    def test_flux_forms_and_decay_rates(self, rng, eps0, hbar):
        physical, model = physical_instance(rng, eps0, hbar, 2, 3)
        env = make_env(random_unit_vector(rng), a=0.7, omega=1.3)
        loss = random_loss_tensor(rng)
        expected = physical_flux_forms(physical, env, loss, eps0, hbar)
        bundle = coupling_bundle(model, env, loss)
        assert np.max(np.abs(bundle.flux_forms - expected)) < 1e-13
        rates = np.diagonal(expected, axis1=-2, axis2=-1).real.sum(axis=0)
        for channel, got in zip(("forward", "backward", "loss"), rates):
            assert np.allclose(bundle.channel_decay_rates()[channel], got, rtol=1e-13, atol=0)

    def test_scattering_amplitudes(self, rng, eps0, hbar):
        env = make_env(random_unit_vector(rng), a=0.7, omega=1.3, v_g=-0.2)
        for _ in range(5):
            physical, model = physical_instance(rng, eps0, hbar, 3, 2)
            loss = random_loss_tensor(rng)
            r = int(rng.integers(0, 3))
            omega_f = float(rng.uniform(0.5, 1.5))
            for direction in ("forward", "backward"):
                inp = ScatterInput(direction, r, omega_f)
                amplitudes, p_loss, frequencies = physical_scatter(
                    physical, env, loss, inp, eps0, hbar)
                result = scatter(model, env, loss, inp)
                assert np.max(np.abs(result.amplitudes - amplitudes)) < 1e-12
                assert result.p_loss == pytest.approx(p_loss, abs=1e-12)
                assert np.max(np.abs(result.output_frequencies - frequencies)) < 1e-12

    def test_polarization_sweep(self, rng, eps0, hbar):
        physical, model = physical_instance(rng, eps0, hbar, 2, 2)
        env = make_env([1, 0, 0], a=0.7, omega=1.3)
        loss = LossModel.isotropic(0.2)
        inp = ScatterInput("backward", 1)
        thetas = np.linspace(0.0, np.pi, 7)
        for point in polarization_sweep(model, env, loss, inp, thetas):
            field = make_env([np.cos(point.theta), 1j * np.sin(point.theta), 0],
                             a=0.7, omega=1.3)
            amplitudes, p_loss, _ = physical_scatter(physical, field, loss, inp, eps0, hbar)
            assert not point.failed
            assert np.max(np.abs(point.result.amplitudes - amplitudes)) < 1e-12
            assert point.result.p_loss == pytest.approx(p_loss, abs=1e-12)

    def test_two_level_closed_form(self, rng, eps0, hbar):
        env = make_env(random_unit_vector(rng), a=0.7, omega=1.3)
        for _ in range(5):
            d = random_unit_vector(rng)
            loss = random_loss_tensor(rng)
            detuning = float(rng.uniform(-0.5, 0.5))  # physical energy
            # one ground state at 0 and the excited state detuning above
            # the input energy hbar w
            physical = EmitterModel.from_arrays(
                [0.0], [hbar * env.omega + detuning], [[np.sqrt(eps0 * hbar) * d]])
            amplitudes, p_loss, _ = physical_scatter(
                physical, env, loss, ScatterInput(), eps0, hbar)
            got = two_level_closed_form(d, env, loss, detuning / hbar)
            assert got.t == pytest.approx(amplitudes[0, 0], abs=1e-12)
            assert got.r == pytest.approx(amplitudes[1, 0], abs=1e-12)
            assert got.p_loss == pytest.approx(p_loss, abs=1e-12)

    def test_emission_trajectory(self, rng, eps0, hbar):
        physical, model = physical_instance(rng, eps0, hbar, 2, 2)
        env = make_env(random_unit_vector(rng), a=0.7, omega=1.3)
        loss = random_loss_tensor(rng)
        psi = random_state(rng, 2)
        times = np.linspace(0.0, 3.0, 13)
        # the excited block and its time integral under the physical H_eff;
        # each accumulated probability is the flux form applied to the integral
        H = physical_h_eff(physical, env, loss, eps0, hbar)
        y0 = np.concatenate([np.outer(psi, psi.conj()).ravel(), np.zeros(4, dtype=complex)])
        ys = propagate_linear(augmented_generator(H), y0, times)
        rhos = ys[:, :4].reshape(-1, 2, 2)
        Q = physical_flux_forms(physical, env, loss, eps0, hbar)
        probs = np.einsum("ncxy,tyx->tnc", Q, ys[:, 4:].reshape(-1, 2, 2)).real
        traj = evolve(model, env, loss, ExcitedSuperposition.from_sequence(psi), times=times)
        got_rhos = np.array([s.excited_block for s in traj.states])
        got_probs = np.array([s.ground_mode_probs for s in traj.states])
        assert np.max(np.abs(got_rhos - rhos)) < 1e-11
        assert np.max(np.abs(got_probs - probs)) < 1e-11
