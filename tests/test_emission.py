"""Emission dynamics: anchor scenarios, conservation laws, channel routing."""

import numpy as np
import pytest

import wgqed.emission as emission_mod
from wgqed import (
    CouplingBundle,
    EmitterModel,
    ExcitedSuperposition,
    IllConditionedResponseWarning,
    LossModel,
    ModelValidationError,
    NonPhysicalStateError,
    ScatterInput,
    SingularResponseError,
    coupling_bundle,
    evolve,
    outcome_forms,
    scatter,
)
from wgqed.cli import preset

from conftest import (
    DYADIC_SHIFT,
    PARADOX_FIELD,
    PARADOX_STATE,
    channel_flux,
    damping_matrix,
    dyadic_instance,
    make_env,
    mp_emission,
    oracle_emission,
    paradox_direction_probs,
    paradox_model,
    paradox_populations,
    random_loss_tensor,
    random_model,
    random_state,
    random_unit_vector,
    scaled_objects,
)


def two_level() -> EmitterModel:
    return EmitterModel.from_arrays([0.0], [1.0], [[[1, 0, 0]]])


def total_variation(traj_a, traj_b) -> float:
    """Total-variation distance between the final (P_f, P_b, P_loss)
    outcome distributions of two runs."""
    return 0.5 * np.abs(np.subtract(traj_a.final_totals[:3], traj_b.final_totals[:3])).sum()


def paradox_run(state=None, **kwargs):
    psi = ExcitedSuperposition.from_sequence(PARADOX_STATE if state is None else state)
    return evolve(paradox_model(), make_env(PARADOX_FIELD), LossModel.none(), psi, **kwargs)


class TestParadoxScenario:
    """V emitter in an elliptical field prepared so one direction is dark."""

    def test_initial_populations(self):
        traj = paradox_run(t_max=1.0, output_points=11)
        assert np.allclose(traj.states[0].excited_block.diagonal().real, [0.2, 0.8], atol=1e-12)

    def test_populations_follow_four_to_one_rates(self):
        traj = paradox_run(t_max=2.0, output_points=41)
        p1, p2 = paradox_populations(traj.times)
        pops = np.array([s.excited_block.diagonal().real for s in traj.states])
        assert np.max(np.abs(pops[:, 0] - p1)) < 1e-12
        assert np.max(np.abs(pops[:, 1] - p2)) < 1e-12

    def test_initial_flux_is_strictly_unidirectional(self):
        bundle = coupling_bundle(paradox_model(), make_env(PARADOX_FIELD),
                                 LossModel.none())
        rho0 = np.outer(PARADOX_STATE, PARADOX_STATE.conj())
        flux = channel_flux(bundle, rho0)
        rates = flux.sum(axis=0)
        assert min(rates[0], rates[1]) < 1e-14      # one direction exactly dark
        assert max(rates[0], rates[1]) == pytest.approx(3.2, rel=1e-12)

    def test_flux_is_the_trace_against_the_flux_forms(self, rng):
        for _ in range(10):
            model = random_model(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            ef = random_unit_vector(rng)
            env = make_env(ef, a=0.7, omega=1.3)
            loss = random_loss_tensor(rng)
            bundle = coupling_bundle(model, env, loss)
            n_e = model.n_excited
            A = rng.normal(size=(4, n_e, n_e)) + 1j * rng.normal(size=(4, n_e, n_e))
            rhos = A @ A.conj().swapaxes(-1, -2)
            expected = np.trace(bundle.flux_forms[None] @ rhos[:, None, None],
                                axis1=-2, axis2=-1).real
            assert np.max(np.abs(channel_flux(bundle, rhos) - expected)) < 1e-12
            # a pure state emits from its dipole v_n = sum_x psi_x d_nx:
            # z |E* . v_n|^2 per guided mode E, and v_n^dagger Im(G) v_n
            # into loss
            psi = random_state(rng, n_e)
            v = np.einsum("nxi,x->ni", model.dipole_array(), psi)
            direct = np.column_stack((
                env.z * np.abs(v @ ef.conj()) ** 2,
                env.z * np.abs(v @ ef) ** 2,
                np.einsum("ni,ij,nj->n", v.conj(), loss.as_array().imag, v).real,
            ))
            flux = channel_flux(bundle, np.outer(psi, psi.conj()))
            assert np.max(np.abs(flux - direct)) < 1e-12

    def test_direction_probabilities_match_closed_form(self):
        traj = paradox_run(t_max=3.0, output_points=61)
        sup, enh = paradox_direction_probs(traj.times)
        totals = np.array([s.ground_mode_probs.sum(axis=0) for s in traj.states])
        directions = np.sort(totals[:, :2], axis=1)
        expected = np.sort(np.column_stack([sup, enh]), axis=1)
        assert np.max(np.abs(directions - expected)) < 1e-12

    def test_long_time_split_is_41_to_9(self):
        traj = paradox_run()
        pf, pb, pl = traj.final_totals[:3]
        pair = sorted([pf, pb])
        assert pair[0] == pytest.approx(9.0 / 50.0, abs=2e-6)
        assert pair[1] == pytest.approx(41.0 / 50.0, abs=2e-6)
        assert pl == 0.0
        assert traj.final_totals.residual_excited < 1e-6

    def test_mirrored_state_gives_mirrored_totals(self):
        fwd = paradox_run()
        bwd = paradox_run(state=np.array([-1j, 2.0]) / np.sqrt(5.0))
        a = fwd.final_totals[:3]
        b = bwd.final_totals[:3]
        assert a[0] == pytest.approx(b[1], abs=1e-6)
        assert a[1] == pytest.approx(b[0], abs=1e-6)

    def test_nonorthogonal_states_with_opposite_unidirectional_flux(self):
        # overlap 9/25, each initially dark in opposite directions, final
        # outcome distributions differ by total variation 16/25
        psi_a = PARADOX_STATE
        psi_b = np.array([-1j, 2.0]) / np.sqrt(5.0)
        overlap = abs(np.vdot(psi_a, psi_b)) ** 2
        assert overlap == pytest.approx(9.0 / 25.0, abs=1e-14)

        bundle = coupling_bundle(paradox_model(), make_env(PARADOX_FIELD),
                                 LossModel.none())
        ra = channel_flux(bundle, np.outer(psi_a, psi_a.conj())).sum(axis=0)
        rb = channel_flux(bundle, np.outer(psi_b, psi_b.conj())).sum(axis=0)
        dark_a = int(np.argmin(ra[:2]))
        dark_b = int(np.argmin(rb[:2]))
        assert ra[dark_a] < 1e-14 and rb[dark_b] < 1e-14
        assert dark_a != dark_b

        tv = total_variation(paradox_run(state=psi_a), paradox_run(state=psi_b))
        assert tv == pytest.approx(16.0 / 25.0, abs=1e-3)


class TestTwoLevelEmission:
    def test_matched_linear_population_decays_at_rate_ten(self):
        traj = evolve(two_level(), make_env([1, 0, 0]), LossModel.none(),
                      ExcitedSuperposition.from_sequence([1.0]), t_max=1.5,
                      output_points=61)
        pops = np.array([s.excited_block[0, 0].real for s in traj.states])
        assert np.max(np.abs(pops - np.exp(-10.0 * traj.times))) < 1e-12

    def test_matched_linear_splits_evenly_between_directions(self):
        traj = evolve(two_level(), make_env([1, 0, 0]), LossModel.none(),
                      ExcitedSuperposition.from_sequence([1.0]), t_max=1.5,
                      output_points=61)
        totals = np.array([s.ground_mode_probs.sum(axis=0) for s in traj.states])
        expected = 0.5 * (1.0 - np.exp(-10.0 * traj.times))
        assert np.max(np.abs(totals[:, 0] - expected)) < 1e-12
        assert np.max(np.abs(totals[:, 1] - expected)) < 1e-12
        assert np.max(totals[:, 2]) == 0.0

    @pytest.mark.parametrize("strength", [0.2, 0.003])
    def test_guided_fraction_from_emission_split(self, strength):
        traj = evolve(two_level(), make_env([1, 0, 0]), LossModel.isotropic(strength),
                      ExcitedSuperposition.from_sequence([1.0]),
                      t_max=3.5, output_points=21)
        pf, pb, pl = traj.final_totals[:3]
        emitted = 1.0 - traj.final_totals.residual_excited
        assert (pf + pb) / emitted == pytest.approx(10.0 / (10.0 + strength), abs=1e-9)
        assert pf == pytest.approx(pb, abs=1e-12)

    def test_loss_too_weak_for_the_level_still_has_a_channel(self):
        # a 1e-16 loss on a 1e5 dipole decays at 1e-6: the loss channel must
        # collect what H_eff releases, or the trace check fails
        model = EmitterModel.from_arrays([0.0], [1.0], [[[1e5, 0, 0]]])
        traj = evolve(model, make_env([1e-5, 0, 0]), LossModel.isotropic(1e-16),
                      ExcitedSuperposition.from_sequence([1.0]), t_max=2.0)
        p_f, p_b, p_loss, _ = traj.final_totals
        emitted = 1.0 - np.exp(-(10.0 + 1e-6) * 2.0)
        assert p_loss == pytest.approx(1e-6 / (10.0 + 1e-6) * emitted, rel=1e-9)
        assert p_f + p_b == pytest.approx(10.0 / (10.0 + 1e-6) * emitted, rel=1e-12)

    @pytest.mark.parametrize("scale", [0.5**0.5, 2.0])
    def test_rate_scales_with_the_dipole_squared(self, scale):
        # the matched unit dipole decays at 10; a dipole s d at 10 s^2
        model = EmitterModel.from_arrays([0.0], [1.0], [[[scale, 0, 0]]])
        traj = evolve(model, make_env([1, 0, 0]), LossModel.none(),
                      ExcitedSuperposition.from_sequence([1.0]), t_max=2.0,
                      output_points=21)
        pops = np.array([s.excited_block[0, 0].real for s in traj.states])
        assert np.max(np.abs(pops - np.exp(-10.0 * scale**2 * traj.times))) < 1e-12

    def test_direction_split_matches_field_overlaps(self, rng):
        for _ in range(10):
            d = random_unit_vector(rng)
            ef = random_unit_vector(rng)
            model = EmitterModel.from_arrays([0.0], [1.0], [[d]])
            env = make_env(ef)
            traj = evolve(model, env, LossModel.none(),
                          ExcitedSuperposition.from_sequence([1.0]), output_points=31)
            pf, pb, _ = traj.final_totals[:3]
            wf = abs(d @ ef.conj()) ** 2
            wb = abs(d @ ef) ** 2
            assert pf / pb == pytest.approx(wf / wb, rel=1e-8)


class TestGeneratorEdgeCases:
    def test_zero_dipoles_freeze_the_state(self):
        model = EmitterModel.from_arrays([0.0], [1.0, 1.2],
                                         [[[0, 0, 0], [0, 0, 0]]])
        psi = ExcitedSuperposition.from_sequence(np.array([1.0, 1.0]) / np.sqrt(2))
        traj = evolve(model, make_env([1, 0, 0]), LossModel.none(), psi,
                      t_max=5.0, output_points=11)
        for st in traj.states:
            assert np.allclose(st.excited_block.diagonal().real, [0.5, 0.5], atol=1e-12)
            assert np.max(np.abs(st.ground_mode_probs)) == 0.0
        # detuned levels still precess the coherence: rho12 ~ exp(-i(E1-E2)t)
        final = traj.states[-1].excited_block
        assert final[0, 1] == pytest.approx(0.5 * np.exp(-1j * (1.0 - 1.2) * 5.0), abs=1e-8)

    def test_nearly_dark_level_decays_over_default_horizon(self):
        # E_f = x leaves level y only the loss rate 3e-12: the default horizon
        # spans 20 of its lifetimes, and its population ends in the loss column
        psi = ExcitedSuperposition.from_sequence([0.6, 0.8])
        traj = evolve(paradox_model(), make_env([1, 0, 0]), LossModel.isotropic(3e-12), psi)
        p_f, p_b, p_loss, residual = traj.final_totals
        assert traj.times[-1] == pytest.approx(20 / 3e-12)
        assert p_f == pytest.approx(0.18, abs=1e-12)
        assert p_b == pytest.approx(0.18, abs=1e-12)
        assert p_loss == pytest.approx(0.64 * (1 - np.exp(-20.0)), abs=1e-11)
        assert residual == pytest.approx(0.64 * np.exp(-20.0), rel=1e-12)

    def test_nearly_dark_detuned_level_decays_over_default_horizon(self):
        # detuned by 999, level y keeps its loss rate 3e-12, far below the
        # spread of H_eff but well above its rounding: the mode is not held,
        # so it sets the horizon and its population ends in the loss column
        model = EmitterModel.from_arrays([0.0], [1.0, 1000.0], [[[1, 0, 0], [0, 1, 0]]])
        psi = ExcitedSuperposition.from_sequence([0.6, 0.8])
        traj = evolve(model, make_env([1, 0, 0]), LossModel.isotropic(3e-12), psi)
        p_f, p_b, p_loss, residual = traj.final_totals
        assert traj.times[-1] == pytest.approx(20 / 3e-12)
        assert p_f == pytest.approx(0.18, abs=1e-12)
        assert p_loss == pytest.approx(0.64 * (1 - np.exp(-20.0)), abs=1e-11)
        assert residual == pytest.approx(0.64 * np.exp(-20.0), rel=1e-12)

    def test_default_horizon_follows_slow_superposed_mode(self):
        # at E_f = (cos 0.3, sin 0.3, 0) each level decays at a guided rate
        # (9.13 and 0.87), but the superposition orthogonal to E_f couples
        # only to the loss, 5e-4: the horizon spans 20 lifetimes of that mode
        E_f = np.array([np.cos(0.3), np.sin(0.3), 0.0])
        loss = LossModel.isotropic(5e-4)
        traj = evolve(paradox_model(), make_env(E_f), loss,
                      ExcitedSuperposition.from_sequence([1.0, 0.0]))
        assert traj.times[-1] == pytest.approx(20 / 5e-4, rel=1e-9)
        # level 1 overlaps the dark mode (-sin 0.3, cos 0.3) by sin^2 0.3;
        # e^-20 of it is left, the rest ends in the loss column
        dark = np.sin(0.3) ** 2
        _, _, p_loss, residual = traj.final_totals
        assert residual == pytest.approx(dark * np.exp(-20.0), rel=1e-6)
        assert p_loss == pytest.approx(dark * (1 - np.exp(-20.0)) + (1 - dark) * 5e-4 / 10.0005,
                                       abs=1e-9)

    def test_initial_rates_match_finite_difference(self):
        env = make_env(PARADOX_FIELD)
        loss = LossModel.isotropic(0.1)
        bundle = coupling_bundle(paradox_model(), env, loss)
        rho0 = np.outer(PARADOX_STATE, PARADOX_STATE.conj())
        direct = channel_flux(bundle, rho0)
        dt = 1e-7
        traj = evolve(paradox_model(), env, loss,
                      ExcitedSuperposition.from_sequence(PARADOX_STATE),
                      times=[0.0, dt])
        fd = traj.states[1].ground_mode_probs / dt
        scale = np.max(direct)
        assert np.max(np.abs(fd - direct)) < 1e-6 * scale

    def test_excited_blocks_stay_hermitian_and_positive(self, rng):
        for _ in range(10):
            model = random_model(rng, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            traj = evolve(model, make_env(random_unit_vector(rng)),
                          LossModel.isotropic(float(rng.uniform(0, 0.3))),
                          ExcitedSuperposition.from_sequence(random_state(rng, model.n_excited)),
                          output_points=21)
            for st in traj.states:
                rho = st.excited_block
                assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
                assert np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) > -1e-10
                assert np.min(st.ground_mode_probs) > -1e-10


class TestConservation:
    def test_trace_conserved_on_random_instances(self, rng):
        for i in range(40):
            model = random_model(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            loss = (LossModel.isotropic(float(rng.uniform(0, 0.5)))
                    if i % 2 else random_loss_tensor(rng))
            traj = evolve(model, make_env(random_unit_vector(rng)), loss,
                          ExcitedSuperposition.from_sequence(random_state(rng, model.n_excited)),
                          output_points=31)
            traces = np.array([s.excited_block.trace().real + s.ground_mode_probs.sum()
                               for s in traj.states])
            assert np.max(np.abs(traces - 1.0)) < 100 * 1e-9

    def test_excited_population_never_increases(self, rng):
        for _ in range(40):
            model = random_model(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            traj = evolve(model, make_env(random_unit_vector(rng)),
                          LossModel.isotropic(float(rng.uniform(0, 0.5))),
                          ExcitedSuperposition.from_sequence(random_state(rng, model.n_excited)),
                          output_points=31)
            exc = np.array([np.trace(s.excited_block).real for s in traj.states])
            assert np.max(np.diff(exc)) <= 1e-10

    @staticmethod
    def assert_matches_eigen_propagator(model, env, s, psi):
        times = np.linspace(0.0, 2.0, 9)
        traj = evolve(model, env, LossModel.isotropic(s),
                      ExcitedSuperposition.from_sequence(psi), times=times)
        rhos, probs = oracle_emission(model, env, s, psi, times)
        got_rho = np.array([st.excited_block for st in traj.states])
        got_probs = np.array([st.ground_mode_probs for st in traj.states])
        assert np.max(np.abs(got_rho - rhos)) < 1e-12
        assert np.max(np.abs(got_probs - probs)) < 1e-12

    def test_trajectory_matches_eigen_propagator(self, rng):
        for _ in range(10):
            model = random_model(rng, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            self.assert_matches_eigen_propagator(model, make_env(random_unit_vector(rng)),
                                                 float(rng.uniform(0, 0.4)),
                                                 random_state(rng, model.n_excited))

    @pytest.mark.parametrize("n_e", [4, 6, 8])
    def test_larger_manifolds_match_eigen_propagator(self, monkeypatch, rng, n_e):
        # the outcome forms come from the modes of H_eff, in evolve and in
        # outcome_forms alike: no SVD runs
        model = random_model(rng, int(rng.integers(1, 4)), n_e)
        env, s = make_env(random_unit_vector(rng)), float(rng.uniform(0.05, 0.5))
        svd_calls = counting(monkeypatch, np.linalg, "svd")
        self.assert_matches_eigen_propagator(model, env, s, random_state(rng, n_e))
        bundle = coupling_bundle(model, env, LossModel.isotropic(s))
        counted = [counting(monkeypatch, np.linalg, name) for name in ("eig", "inv")]
        Y = outcome_forms(bundle)
        assert (counted, svd_calls) == ([["eig"], ["inv"]], [])
        # and match the SVD solve, forced, as closely as TestFormSolvers asks
        rate = emission_mod._rounding_rate(bundle.H_eff)
        lam, V, V_inv, _ = emission_mod._eigenbasis(bundle.H_eff)
        Z_svd = emission_mod._forms(bundle, rate, lam, V, V_inv, False)
        Y_svd = Z_svd.T.reshape(Y.shape).swapaxes(-1, -2)
        assert np.abs(Y - Y_svd).max() <= forms_tolerance(lam, rate, Z_svd)[0]


class TestHighPrecisionOracle:
    """The propagator against a 35-digit exponential of the augmented
    generator, where the accumulators are hardest to get right: several
    coupled levels with tensor loss, and two modes whose decay rates differ
    by four orders of magnitude."""

    @staticmethod
    def assert_matches_oracle(model, env, loss, psi, times):
        traj = evolve(model, env, loss, ExcitedSuperposition.from_sequence(psi), times=times)
        bundle = coupling_bundle(model, env, loss)
        rhos, probs = mp_emission(bundle, np.outer(psi, psi.conj()), times)
        got_rho = np.array([st.excited_block for st in traj.states])
        got_probs = np.array([st.ground_mode_probs for st in traj.states])
        assert np.max(np.abs(got_rho - rhos)) < 1e-12
        assert np.max(np.abs(got_probs - probs)) < 1e-12
        return got_rho, got_probs

    def test_random_lossy_three_level_emitter(self, rng):
        model = random_model(rng, 2, 3)
        self.assert_matches_oracle(model, make_env(random_unit_vector(rng)),
                                   random_loss_tensor(rng), random_state(rng, 3),
                                   [0.0, 0.1, 0.5, 2.0])

    def test_random_lossy_four_level_emitter(self, monkeypatch, rng):
        # one time past 0: mpmath's exponential of the 16 x 16 generator is slow
        svd_calls = counting(monkeypatch, np.linalg, "svd")
        self.assert_matches_oracle(random_model(rng, 2, 4), make_env(random_unit_vector(rng)),
                                   random_loss_tensor(rng), random_state(rng, 4), [0.0, 1.0])
        assert svd_calls == []

    def test_guided_dark_mode_with_weak_loss(self, rng):
        # E_f is linear in the dipole plane, so -sin(0.3) x + cos(0.3) y emits
        # into neither direction; through the 5e-4 loss and the 0.2 detuning
        # that mixes it with the bright level, it decays ~5000 times slower
        # than the bright mode
        model = EmitterModel.from_arrays([0.0], [1.0, 1.2], [[[1, 0, 0], [0, 1, 0]]])
        env = make_env([np.cos(0.3), np.sin(0.3), 0.0])
        loss = LossModel.isotropic(5e-4)
        rates = -2.0 * np.linalg.eigvals(coupling_bundle(model, env, loss).H_eff).imag
        assert np.max(rates) / np.min(rates) > 1000
        rho, probs = self.assert_matches_oracle(model, env, loss, random_state(rng, 2),
                                                [0.0, 0.05, 1.0, 2000.0])
        # the slow mode, all that is left at t = 1, has mostly emitted by t = 2000
        populations = np.trace(rho, axis1=1, axis2=2).real
        assert populations[-1] < 0.5 * populations[2]

    def test_lossless_level_without_dipoles(self):
        # the second level never decays, so the oracle's generator of the
        # excited block is singular and it exponentiates the augmented one
        model = EmitterModel.from_arrays([0.0], [1.0, 1.3], [[[1, 0, 0], [0, 0, 0]]])
        rho, _ = self.assert_matches_oracle(model, make_env([1, 0, 0]), LossModel.none(),
                                            np.array([0.6, 0.8j]), [0.0, 0.1, 1.0, 30.0])
        assert rho[-1, 1, 1].real == pytest.approx(0.64, abs=1e-14)

    def test_lossless_dark_level_is_spectator(self):
        # E_f = x: level y is dark, so its population never leaves and the
        # probabilities are those of the bright level alone, scaled by its
        # population
        model = paradox_model()
        env = make_env([1, 0, 0])
        psi = np.array([0.6, 0.8j])
        times = np.linspace(0.0, 2.0, 41)
        mixed = evolve(model, env, LossModel.none(), ExcitedSuperposition.from_sequence(psi),
                       times=times)
        bright = evolve(model, env, LossModel.none(),
                        ExcitedSuperposition.from_sequence([1.0, 0.0]), times=times)
        for st, ref in zip(mixed.states, bright.states):
            assert abs(st.excited_block[1, 1] - 0.64) < 1e-14
            assert np.max(np.abs(st.ground_mode_probs - 0.36 * ref.ground_mode_probs)) < 1e-14
        assert mixed.final_totals.residual_excited == pytest.approx(0.64, abs=1e-8)


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)
    return calls


def force_fallback(monkeypatch):
    """Close emission's gate, so that the Pade exponential propagates and
    the SVD of the Lyapunov operator gives the outcome forms."""
    monkeypatch.setattr(emission_mod, "_MODAL_COND_MAX", 0.0)


class TestExceptionalPoint:
    """Two parallel x dipoles, lossless, at E_f = x: H_eff = diag(0, delta) -
    5i [[1, 1], [1, 1]], whose two modes merge at delta = Gamma = 10. Near
    there the eigenvectors are nearly parallel, with condition number about
    1.4 / sqrt(|delta / Gamma - 1|), and at Gamma H_eff is defective. The
    modal propagator loses about that condition number times 3e-17, and the
    outcome forms from the same modes about its square times 2e-17, so beyond
    ``_MODAL_COND_MAX`` (~31.6) the Pade exponential and the SVD solve give
    both."""

    GAMMA = 10.0
    PSI = np.array([0.6, 0.8])
    TIMES = [0.0, 0.05, 0.3, 1.0, 3.0]

    def model(self, offset):
        return EmitterModel.from_arrays([0.0], [0.0, self.GAMMA * (1.0 + offset)],
                                        [[[1, 0, 0], [1, 0, 0]]])

    def oracle_error(self, offset):
        model, env = self.model(offset), make_env([1, 0, 0])
        traj = evolve(model, env, LossModel.none(),
                      ExcitedSuperposition.from_sequence(self.PSI), times=self.TIMES)
        rhos, probs = mp_emission(coupling_bundle(model, env, LossModel.none()),
                                  np.outer(self.PSI, self.PSI), self.TIMES)
        got_rho = np.array([st.excited_block for st in traj.states])
        got_probs = np.array([st.ground_mode_probs for st in traj.states])
        return max(np.max(np.abs(got_rho - rhos)), np.max(np.abs(got_probs - probs)))

    @pytest.mark.parametrize("offset,fallback", [
        (-1e-2, False), (-1e-4, True), (1e-5, True),
        (-1e-7, True), (1e-13, True), (0.0, True),
    ], ids=["cond-14", "cond-141", "cond-447", "cond-4e3", "cond-4e6", "defective"])
    def test_matches_oracle_on_both_sides_of_the_gate(self, monkeypatch, offset, fallback):
        # one gate: evolve runs the Pade exponential exactly where it runs
        # the SVD solve, and outcome_forms takes the SVD where evolve does
        expm_calls = counting(monkeypatch, emission_mod, "_expm")
        svd_calls = counting(monkeypatch, np.linalg, "svd")
        assert self.oracle_error(offset) < 1e-15
        assert (expm_calls, svd_calls) == ((["_expm"], ["svd"]) if fallback else ([], []))
        svd_calls.clear()
        outcome_forms(coupling_bundle(self.model(offset), make_env([1, 0, 0]), LossModel.none()))
        assert svd_calls == (["svd"] if fallback else [])

    @pytest.mark.parametrize("offset", [-1e-13, 1e-13, 0.0])
    def test_modal_form_alone_misses_near_the_exceptional_point(self, monkeypatch, offset):
        # the gate is what keeps these exact: with it open, the modes run at
        # every condition number, and their outcome forms miss by so much
        # that the total trace drifts
        monkeypatch.setattr(emission_mod, "_MODAL_COND_MAX", np.inf)
        with pytest.raises(NonPhysicalStateError, match="^total trace drifted"):
            self.oracle_error(offset)

    def test_singular_eigenbasis_takes_the_pade_path(self, monkeypatch):
        # an eigenbasis that cannot be inverted at all goes to Pade too
        reference = paradox_run(t_max=3.0, output_points=31)
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig",
                            lambda H: (eig(H)[0], eig(H)[1][:, [0, 0]]))
        expm_calls = counting(monkeypatch, emission_mod, "_expm")
        traj = paradox_run(t_max=3.0, output_points=31)
        assert expm_calls == ["_expm"]
        for st, ref in zip(traj.states, reference.states):
            assert np.max(np.abs(st.excited_block - ref.excited_block)) < 1e-14
            assert np.max(np.abs(st.ground_mode_probs - ref.ground_mode_probs)) < 1e-14

    def test_growing_mode_from_rounding_is_held(self, monkeypatch):
        # H_eff is passive: a dark mode whose eigenvalue rounds to a positive
        # imaginary part must neither grow nor overflow at t = 1e300
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig",
                            lambda H: (eig(H)[0] + [0.0, 1e-16j], eig(H)[1]))
        traj = evolve(paradox_model(), make_env([1, 0, 0]), LossModel.none(),
                      ExcitedSuperposition.from_sequence([0.6, 0.8]), times=[0.0, 1e300])
        assert traj.final_totals == pytest.approx((0.18, 0.18, 0.0, 0.64), abs=1e-15)

    # (a, b) for two parallel x dipoles, drawn uniformly from [0.2, 2]
    @pytest.mark.parametrize("a, b", [
        (1.347, 0.686), (0.274, 0.23), (1.664, 1.843), (1.292, 1.513),
        (1.179, 1.883), (1.669, 0.205), (1.743, 0.26), (1.513, 0.516),
        (1.754, 1.175), (0.739, 0.961), (0.251, 0.424), (1.407, 1.365),
    ])
    def test_rounded_dark_mode_is_held_as_the_outcome_forms_hold_it(self, a, b):
        # eig gives the dark mode (b, -a) an imaginary part of rounding size;
        # the Lyapunov solve drops it as never emitting, so the propagation
        # must not decay it either, or the trace drifts by t = 1e15
        model = EmitterModel.from_arrays([0.0], [1.0, 1.0], [[[a, 0, 0], [b, 0, 0]]])
        traj = evolve(model, make_env([1, 0, 0]), LossModel.none(),
                      ExcitedSuperposition.from_sequence([1.0, 0.0]), times=[0.0, 1e15])
        dark = b * b / (a * a + b * b)
        expected = (0.5 * (1 - dark), 0.5 * (1 - dark), 0.0, dark)
        assert traj.final_totals == pytest.approx(expected, abs=1e-14)

    def test_default_horizon_and_propagation_share_one_eigendecomposition(self, monkeypatch):
        bundle = coupling_bundle(paradox_model(), make_env(PARADOX_FIELD), LossModel.none())
        eig_calls = counting(monkeypatch, np.linalg, "eig")
        eigvals_calls = counting(monkeypatch, np.linalg, "eigvals")
        times = emission_mod._propagate(
            bundle, ExcitedSuperposition.from_sequence(PARADOX_STATE))[0]
        assert times[-1] == pytest.approx(10.0)    # 20 lifetimes of the rate 2
        assert (eig_calls, eigvals_calls) == (["eig"], [])

    def test_one_evolve_decomposes_and_solves_once(self, monkeypatch):
        # t_max given: one eig and one inv for the modes, which give the
        # outcome forms too, with no decomposition of the Lyapunov operator,
        # and one rounding rate for the held modes and the forms' cutoff
        counted = [counting(monkeypatch, np.linalg, name)
                   for name in ("eig", "inv", "svd", "lstsq")]
        counted.append(counting(monkeypatch, emission_mod, "_rounding_rate"))
        evolve(paradox_model(), make_env(PARADOX_FIELD), LossModel.isotropic(0.2),
               ExcitedSuperposition(PARADOX_STATE), t_max=4.0, output_points=7)
        assert counted == [["eig"], ["inv"], [], [], ["_rounding_rate"]]


def forms_tolerance(lam, rate, Z_svd):
    """How far the modal forms may lie from the SVD solve ``Z_svd``, given
    the modes ``lam`` of ``H_eff`` and its rounding rate: both lose digits
    in proportion to the ratio of the largest to the smallest rate ``|lam_b
    - conj(lam_a)|`` the equation keeps. Also the mask of the mode pairs it
    holds."""
    unit = np.abs(lam).max() or 1.0    # so that no difference overflows; every mode may be 0
    sep = np.abs(lam / unit - (lam / unit).conj()[:, None])
    held = ~(sep > rate / unit)
    kept = sep[~held]
    kappa = kept.max() / kept.min() if kept.size else 1.0
    return max(1e-13, 64 * np.finfo(float).eps * kappa) * np.abs(Z_svd).max(), held


class TestFormSolvers:
    """The outcome forms from the modes of ``H_eff`` (``_modal_forms``)
    against the SVD solve of their Lyapunov equation (``_lyapunov``) wherever
    their dispatcher ``_forms`` may take either. Both lose digits in
    proportion to the condition number of the equation, the ratio of the
    largest to the smallest rate ``|lam_b - conj(lam_a)|`` it keeps."""

    @staticmethod
    def instances(rng):
        """Bundles with ``n_g, n_e <= 3``: lossless, isotropic and tensor
        loss, split and degenerate excited levels, every fourth with a
        lossless level that has no dipoles (a dark mode, so held pairs), and
        the two-level emitter whose total rate overflows a double."""
        for k in range(120):
            n_g, n_e = (int(n) for n in rng.integers(1, 4, size=2))
            dark = k % 4 == 0
            model = random_model(rng, n_g, n_e, degenerate=dark or k % 4 == 1)
            env = make_env(random_unit_vector(rng))
            if dark:
                D = model.dipole_array().copy()
                D[:, 0] = 0.0
                model = EmitterModel.from_arrays(model.ground_energies,
                                                 model.excited_energies, D)
            loss = (LossModel.none() if dark or k % 3 == 0 else
                    LossModel.isotropic(float(rng.uniform(0.01, 0.5))) if k % 3 == 1
                    else random_loss_tensor(rng))
            yield coupling_bundle(model, env, loss)
        yield coupling_bundle(two_level(), make_env([4e153, 0, 0]),
                              LossModel.isotropic(1.5e308))

    def test_modal_forms_match_the_svd_solve_within_the_gate(self, rng):
        within = held_pairs = 0
        for bundle in self.instances(rng):
            H = bundle.H_eff
            rate = emission_mod._rounding_rate(H)
            lam, V = np.linalg.eig(H)
            V_inv = np.linalg.inv(V)
            cond = np.abs(V).sum(axis=0).max() * np.abs(V_inv).sum(axis=0).max()
            if not cond <= emission_mod._MODAL_COND_MAX:
                continue
            within += 1
            # the dispatcher with the gate passed, and with it forced shut
            Z_modal = emission_mod._forms(bundle, rate, lam, V, V_inv, True)
            Z_svd = emission_mod._forms(bundle, rate, lam, V, V_inv, False)
            tol, held = forms_tolerance(lam, rate, Z_svd)
            assert np.abs(Z_modal - Z_svd).max() <= tol
            # in the mode basis both leave the held pairs at 0
            n_e = H.shape[0]
            for Z in (Z_svd, Z_modal):
                Y = Z.T.reshape(-1, n_e, n_e).swapaxes(-1, -2)
                assert np.abs((V.conj().T @ Y @ V)[:, held]).max(initial=0.0) <= tol
            held_pairs += held.sum()
        assert within > 100 and held_pairs > 0


def with_forms(monkeypatch, value):
    """Make every coupling bundle that ``evolve`` builds carry flux forms
    filled with ``value``, leaving ``H_eff`` as it is."""
    build = emission_mod.coupling_bundle

    def patched(*args):
        bundle = build(*args)
        return bundle._replace(flux_forms=np.full_like(bundle.flux_forms, value))
    monkeypatch.setattr(emission_mod, "coupling_bundle", patched)


class TestInterfaces:
    def test_density_matrix_initial_state(self):
        # mixed state = average over pure runs (generator is linear)
        psi_a = np.array([1.0, 0.0])
        psi_b = np.array([0.0, 1.0])
        rho = 0.5 * (np.outer(psi_a, psi_a) + np.outer(psi_b, psi_b)).astype(complex)
        env = make_env(PARADOX_FIELD)
        times = np.linspace(0.0, 1.0, 5)
        mixed = evolve(paradox_model(), env, LossModel.none(), rho, times=times)
        pure_a = evolve(paradox_model(), env, LossModel.none(),
                        ExcitedSuperposition.from_sequence(psi_a), times=times)
        pure_b = evolve(paradox_model(), env, LossModel.none(),
                        ExcitedSuperposition.from_sequence(psi_b), times=times)
        for i in range(len(times)):
            avg = 0.5 * (pure_a.states[i].excited_block + pure_b.states[i].excited_block)
            assert np.max(np.abs(mixed.states[i].excited_block - avg)) < 1e-10

    def test_unnormalized_superposition_rejected(self):
        with pytest.raises(NonPhysicalStateError) as exc:
            evolve(two_level(), make_env([1, 0, 0]), LossModel.none(),
                   ExcitedSuperposition.from_sequence([0.5]))
        assert "norm 0.5 differs" in str(exc.value)

    def test_model_error_precedes_initial_state_error(self):
        # a non-finite dipole and an unnormalized state: the model is named
        # when it is built, before any evolve can see the state
        with pytest.raises(ModelValidationError) as exc:
            EmitterModel.from_arrays([0.0], [1.0], [[[np.nan, 0, 0]]])
        assert exc.value.code == "non-finite-entry"

    @pytest.mark.parametrize("initial,message", [
        (ExcitedSuperposition.from_sequence([np.nan, 1.0]), "initial superposition norm nan"),
        (np.array([[np.nan, 0], [0, 1]], dtype=complex), "initial density matrix has a non-finite"),
        (np.array([[1, np.inf], [np.inf, 0]], dtype=complex),
         "initial density matrix has a non-finite"),
        (ExcitedSuperposition.from_sequence([1.0]),
         "initial superposition has 1 amplitudes for 2 excited states"),
        (np.eye(3), r"initial density matrix must be 2 x 2, got \(3, 3\)"),
        (np.eye(2), "initial density matrix trace differs from 1"),
        (np.diag([1.5, -0.5]), "initial density matrix is not positive semidefinite"),
    ], ids=["nan-superposition", "nan-density-matrix", "inf-density-matrix",
            "superposition-of-one-level", "density-matrix-of-three-levels", "trace-two",
            "negative-population"])
    def test_invalid_initial_state_named(self, initial, message):
        # every comparison with nan is false: the checks are written so that
        # nan fails them, and the error names the initial state
        with pytest.raises(NonPhysicalStateError, match=message):
            evolve(paradox_model(), make_env([1, 0, 0]), LossModel.none(), initial)

    def test_non_hermitian_density_matrix_rejected(self):
        rho = np.array([[0.5, 0.5], [0.1, 0.5]], dtype=complex)
        with pytest.raises(NonPhysicalStateError):
            evolve(paradox_model(), make_env([1, 0, 0]), LossModel.none(), rho)

    def test_times_must_start_at_zero(self):
        # each bad argument, and what the message names
        bad_grids = [
            (dict(times=[0.5, 1.0]), "output times"),
            (dict(times=[0.0, 0.5, 0.2]), "output times"),
            (dict(times=[0.0, 0.0, 1.0]), "output times"),
            (dict(times=[]), "output times"),
            (dict(times=[[0.0, 1.0]]), "output times"),
            (dict(times=[0.0, np.nan]), "output times"),
            (dict(times=[0.0, np.inf]), "output times"),
            (dict(t_max=-1.0), "t_max"),
            (dict(t_max=0.0), "t_max"),
            (dict(t_max=np.inf), "t_max"),
            (dict(t_max=np.nan), "t_max"),
            (dict(t_max=True), "t_max"),
            (dict(t_max="1.0", output_points=3), "t_max"),
            (dict(t_max=1j), "t_max"),
            (dict(t_max=10**400), "t_max"),
            (dict(t_max=1.0, output_points=0), "output_points"),
            (dict(t_max=1.0, output_points=2.5), "output_points"),
            (dict(t_max=1.0, output_points=True), "output_points"),
            (dict(output_points=-3), "output_points"),
            # t_max would be silently ignored
            (dict(t_max=1.0, times=[0.0, 5.0]), "t_max or times"),
            # output_points would be silently ignored
            (dict(times=[0.0, 1.0], output_points=5), "output_points or times"),
        ]
        for kwargs, named in bad_grids:
            with pytest.raises(ValueError, match=named):
                evolve(two_level(), make_env([1, 0, 0]), LossModel.none(),
                       ExcitedSuperposition.from_sequence([1.0]), **kwargs)

    def test_uniform_grid_is_linspace_to_the_bit(self, rng):
        horizons = [1e-300, 1e300, 1.0, 2.0 / 3.0, *(10.0 ** rng.uniform(-300, 300, 12))]
        state = ExcitedSuperposition([1.0])
        for n in (1, 2, 7, 201):
            for t_max in horizons:
                traj = evolve(two_level(), make_env([1, 0, 0]), LossModel.none(), state,
                              t_max=float(t_max), output_points=n)
                assert traj.times.tobytes() == np.linspace(0.0, t_max, n).tobytes()

    @pytest.mark.parametrize("n", [3, 7, 201])
    def test_subnormal_t_max_gives_a_grid_that_does_not_rise(self, n):
        # t_max / (n - 1) underflows to 0, so np.linspace would repeat a time too
        assert not (np.diff(np.linspace(0.0, 5e-324, n)) > 0).all()
        with pytest.raises(ValueError, match="strictly increasing"):
            evolve(two_level(), make_env([1, 0, 0]), LossModel.none(),
                   ExcitedSuperposition([1.0]), t_max=5e-324, output_points=n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 37])
    def test_uniform_grid_rises_where_linspace_does(self, n):
        # horizons of a few subnormal units, where the step rounds down to 0
        # or up, so far up for some that the time before the last reaches
        # the horizon: the grid is refused exactly where np.linspace repeats
        # a time, and is np.linspace elsewhere
        bundle = coupling_bundle(two_level(), make_env([1, 0, 0]), LossModel.none())
        state = ExcitedSuperposition([1.0])
        refused = 0
        for units in range(1, 3 * n):
            t_max = units * 5e-324
            grid = np.linspace(0.0, t_max, n)
            if (np.diff(grid) > 0).all():
                times = emission_mod._propagate(bundle, state, t_max, output_points=n)[0]
                assert times.tobytes() == grid.tobytes()
            else:
                refused += 1
                with pytest.raises(ValueError, match="strictly increasing"):
                    emission_mod._propagate(bundle, state, t_max, output_points=n)
        assert refused == 0 if n == 2 else refused > 0

    @pytest.mark.parametrize("n", [2, 37, 250])
    @pytest.mark.parametrize("t_max", [None, 3.0, 1e300, 1e-300])
    def test_geometric_grid_to_the_bit(self, t_max, n):
        # 0, then n - 1 times spaced geometrically from 5e-5 t_max to t_max;
        # with n = 2 that is 0 and t_max, as np.geomspace(a, b, 1) is [a]
        bundle = coupling_bundle(paradox_model(), make_env(PARADOX_FIELD), LossModel.none())
        state = ExcitedSuperposition(PARADOX_STATE)
        times = emission_mod._propagate(bundle, state, t_max, output_points=n,
                                        geometric=True)[0]
        # the default horizon is the last time of the uniform grid
        h = emission_mod._propagate(bundle, state)[0][-1] if t_max is None else t_max
        expected = (np.array([0.0, h]) if n == 2 else
                    np.concatenate(([0.0], np.geomspace(h * 5e-5, h, n - 1))))
        assert times.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("t_max", [1e-320, 5e-324])
    def test_subnormal_t_max_gives_a_geometric_grid_that_does_not_rise(self, t_max):
        bundle = coupling_bundle(two_level(), make_env([1, 0, 0]), LossModel.none())
        with pytest.raises(ValueError, match=f"t_max {t_max!r} is too small for 37 "
                                             "strictly increasing output times"):
            emission_mod._propagate(bundle, ExcitedSuperposition([1.0]), t_max,
                                    output_points=37, geometric=True)

    def test_states_are_read_only_named_tuples(self):
        traj = paradox_run(t_max=1.0, output_points=5)
        st = traj.states[2]
        assert st._fields == ("excited_block", "ground_mode_probs")
        block, probs = st
        assert block is st.excited_block and probs is st.ground_mode_probs
        with pytest.raises(AttributeError):
            st.excited_block = np.eye(2)
        with pytest.raises(AttributeError):
            st.extra = 0.0
        for arr in st:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0

    def test_single_time_returns_initial_state(self):
        psi = ExcitedSuperposition.from_sequence(PARADOX_STATE)
        traj = evolve(paradox_model(), make_env(PARADOX_FIELD), LossModel.none(), psi,
                      times=[0.0])
        assert len(traj.states) == 1
        assert np.array_equal(traj.states[0].excited_block,
                              np.outer(PARADOX_STATE, PARADOX_STATE.conj()))
        assert np.all(traj.states[0].ground_mode_probs == 0.0)

    def test_trace_guard_aborts_on_broken_balance(self, monkeypatch):
        with_forms(monkeypatch, 0.0)
        with pytest.raises(NonPhysicalStateError) as exc:
            evolve(two_level(), make_env([1, 0, 0]), LossModel.none(),
                   ExcitedSuperposition.from_sequence([1.0]), t_max=2.0)
        assert exc.value.code == "non-physical-state"
        # the message prints the trace as a plain number: e^-20 is left at t = 2
        msg = str(exc.value)
        assert "np.float64(" not in msg
        assert float(msg.split("drifted to ")[1].split()[0]) == pytest.approx(np.exp(-20.0))

    def test_non_finite_flux_aborts(self, monkeypatch):
        with_forms(monkeypatch, np.nan)
        with pytest.raises(NonPhysicalStateError, match="non-finite channel flux"):
            evolve(two_level(), make_env([1, 0, 0]), LossModel.none(),
                   ExcitedSuperposition.from_sequence([1.0]), t_max=2.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_effective_hamiltonian_in_a_built_bundle(self, value):
        # coupling_bundle refuses an overflowing H_eff; a bundle built by
        # hand is named as a non-finite state before any decomposition
        bundle = CouplingBundle(np.array([[value]], dtype=complex),
                                np.zeros((1, 3, 1, 1), dtype=complex))
        message = "^non-finite effective Hamiltonian in the emission propagation$"
        with pytest.raises(NonPhysicalStateError, match=message):
            outcome_forms(bundle)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("fallback", [False, True], ids=["modal", "pade"])
    def test_one_non_finite_flux_entry_is_named_on_every_path(self, monkeypatch, fallback,
                                                              value):
        # one entry is enough, and the flux is named before the non-finite
        # state it leads to
        build = emission_mod.coupling_bundle

        def patched(*args):
            bundle = build(*args)
            Q = bundle.flux_forms.copy()
            Q[0, 1, 0, 1] = value
            return bundle._replace(flux_forms=Q)
        monkeypatch.setattr(emission_mod, "coupling_bundle", patched)
        if fallback:
            force_fallback(monkeypatch)
        message = "^non-finite channel flux in the emission propagation$"
        with pytest.raises(NonPhysicalStateError, match=message):
            paradox_run(t_max=3.0, output_points=5)
        with pytest.raises(NonPhysicalStateError, match=message):
            outcome_forms(patched(paradox_model(), make_env(PARADOX_FIELD), LossModel.none()))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("solver", ["_modal_forms", "_lyapunov", "_expm"])
    def test_non_finite_state_is_named_before_any_drift(self, monkeypatch, solver, value):
        # a non-finite entry in the outcome forms, or in the exponential at
        # the last time, is a non-finite state, not a drifted trace
        original = getattr(emission_mod, solver)

        def patched(*args):
            out = original(*args).copy()
            out.reshape(-1)[-1] = value
            return out
        monkeypatch.setattr(emission_mod, solver, patched)
        if solver != "_modal_forms":    # so that the patched solver runs
            force_fallback(monkeypatch)
        with pytest.raises(NonPhysicalStateError,
                           match="^non-finite state in the emission propagation$"):
            paradox_run(t_max=3.0, output_points=5)

    def test_default_horizon_covers_twenty_lifetimes(self):
        traj = evolve(two_level(), make_env([1, 0, 0]), LossModel.none(),
                      ExcitedSuperposition.from_sequence([1.0]))
        assert traj.times[-1] == pytest.approx(2.0)  # rate 10
        assert traj.final_totals.residual_excited < 1e-6
        # where no mode decays, the horizon is twenty time units
        frozen = EmitterModel.from_arrays([0.0], [1.0], [[[0, 0, 0]]])
        assert evolve(frozen, make_env([1, 0, 0]), LossModel.isotropic(0.2),
                      ExcitedSuperposition([1.0])).times[-1] == 20.0

    def test_default_horizon_of_an_overflowing_rate(self):
        # loss and guided decay at 1.5e308 and 1.6e308: their sum overflows
        # a double, its half does not
        loss = LossModel.isotropic(1.5e308)
        bundle = coupling_bundle(two_level(), make_env([4e153, 0, 0]), loss)
        half_rate = -bundle.H_eff[0, 0].imag
        assert half_rate == pytest.approx(1.55e308, rel=1e-12)
        # 20 lifetimes of the rate 2 * 1.55e308
        horizon = emission_mod._propagate(bundle, ExcitedSuperposition([1.0]))[0][-1]
        assert horizon == pytest.approx(10.0 / 1.55e308, rel=1e-12, abs=0.0)

    def test_overflowing_rate_splits_into_its_channel_shares(self):
        # the same two-level emitter: forward and backward 0.8e308 each and
        # loss 1.5e308 of a total rate 3.1e308 that overflows a double; the
        # outcome forms are the shares (8, 8, 15) / 31, and the propagation
        # over 20 lifetimes keeps its trace
        env, loss = make_env([4e153, 0, 0]), LossModel.isotropic(1.5e308)
        shares = np.array([8.0, 8.0, 15.0]) / 31.0
        Y = outcome_forms(coupling_bundle(two_level(), env, loss))
        assert np.abs(Y.ravel() - shares).max() < 1e-12
        totals = evolve(two_level(), env, loss, ExcitedSuperposition([1.0])).final_totals
        assert totals.residual_excited == pytest.approx(np.exp(-20.0), rel=1e-9)
        emitted = (1.0 - totals.residual_excited) * shares
        assert np.abs(np.array(totals[:3]) - emitted).max() < 1e-12

    def test_total_variation_extremes(self):
        traj = paradox_run(t_max=4.0, output_points=21)
        assert total_variation(traj, traj) == 0.0
        # fully chiral dipoles emit in exactly one direction each
        chiral = EmitterModel.from_arrays(
            [0.0], [1.0, 1.0],
            np.array([[[1, 1j, 0], [1, -1j, 0]]]) / np.sqrt(2),
        )
        env = make_env(np.array([1, 1j, 0]) / np.sqrt(2))
        one = evolve(chiral, env, LossModel.none(),
                     ExcitedSuperposition.from_sequence([1.0, 0.0]), t_max=6.0)
        other = evolve(chiral, env, LossModel.none(),
                       ExcitedSuperposition.from_sequence([0.0, 1.0]), t_max=6.0)
        assert total_variation(one, other) == pytest.approx(1.0, abs=1e-5)


class TestOutcomeForms:
    """``Re tr(Y rho)`` is the probability that the excited block ``rho``
    ever emits into a (ground state, channel) pair."""

    @staticmethod
    def random_instance(rng, k):
        """Every third instance has a lossless level with no dipoles on a
        degenerate manifold, so that its dark directions are modes of H_eff;
        the others are lossy, with at most three excited states per ground
        state, so that they decay in every direction."""
        n_g = int(rng.integers(1, 4))
        n_e = int(rng.integers(1, min(4, 3 * n_g) + 1))
        dark = k % 3 == 0
        model = random_model(rng, n_g, n_e, degenerate=dark)
        if not dark:
            loss = LossModel.isotropic(float(rng.uniform(0.01, 0.5)))
            return model, make_env(random_unit_vector(rng)), loss
        D = model.dipole_array().copy()
        D[:, 0] = 0.0
        model = EmitterModel.from_arrays(model.ground_energies, model.excited_energies, D)
        return model, make_env(random_unit_vector(rng)), LossModel.none()

    @staticmethod
    def probabilities(Y, psi):
        return np.einsum("ncab,ba->nc", Y, np.outer(psi, psi.conj())).real

    @staticmethod
    def assert_povm_short_of_the_dark_directions(bundle):
        """Check the forms of ``bundle`` and return the number of its dark
        directions."""
        Y = outcome_forms(bundle)
        n_g, n_e = bundle.flux_forms.shape[0], bundle.H_eff.shape[0]
        assert Y.shape == (n_g, 3, n_e, n_e)
        rates, vecs = np.linalg.eigh(damping_matrix(bundle))
        dark = vecs[:, rates < 1e-10 * max(1.0, rates.max())]
        P_dark = dark @ dark.conj().T
        assert np.max(np.abs(Y.sum(axis=(0, 1)) - (np.eye(n_e) - P_dark))) < 1e-10
        assert np.max(np.abs(Y - Y.conj().swapaxes(-1, -2))) < 1e-12
        assert np.min(np.linalg.eigvalsh(Y)) > -1e-12
        return dark.shape[1]

    def test_forms_are_a_povm_short_of_the_dark_directions(self, rng):
        for k in range(60):
            model, env, loss = self.random_instance(rng, k)
            self.assert_povm_short_of_the_dark_directions(coupling_bundle(model, env, loss))

    @pytest.mark.parametrize("fallback", [False, True], ids=["modal", "svd"])
    def test_many_dark_modes_at_one_frequency(self, monkeypatch, rng, fallback):
        # one ground state and 4 to 10 degenerate excited states: the dipoles
        # span at most three directions, so at least n_e - 3 dark modes share
        # a frequency. The modes of H_eff hold every pair of them; the SVD of
        # the Lyapunov operator must drop their rounding-size singular
        # values, of which a cutoff at the rounding rate alone keeps some,
        # with errors up to 0.4 in the forms between dark directions
        if fallback:
            force_fallback(monkeypatch)
        for _ in range(20):
            n_e = int(rng.integers(4, 11))
            model = random_model(rng, 1, n_e, degenerate=True)
            bundle = coupling_bundle(model, make_env(random_unit_vector(rng)),
                                     LossModel.isotropic(float(rng.uniform(0.01, 0.5))))
            assert self.assert_povm_short_of_the_dark_directions(bundle) >= n_e - 3

    def test_forms_give_the_long_time_probabilities(self, rng):
        for k in range(60):
            model, env, loss = self.random_instance(rng, k)
            psi = random_state(rng, model.n_excited)
            p = self.probabilities(outcome_forms(coupling_bundle(model, env, loss)), psi)
            traj = evolve(model, env, loss, ExcitedSuperposition.from_sequence(psi),
                          times=[0.0, 1e300])
            assert np.max(np.abs(traj.states[-1].ground_mode_probs - p)) < 1e-12
            assert np.max(np.abs(np.array(traj.final_totals[:3]) - p.sum(axis=0))) < 1e-12

    def test_outcomes_differ_no_more_than_the_states(self, rng):
        # Helstrom: a POVM cannot tell two states apart better than their
        # trace distance allows
        for k in range(30):
            model, env, loss = self.random_instance(rng, k)
            Y = outcome_forms(coupling_bundle(model, env, loss))
            a, b = (random_state(rng, model.n_excited) for _ in range(2))
            diff = np.outer(a, a.conj()) - np.outer(b, b.conj())
            tv = 0.5 * np.sum(np.abs(self.probabilities(Y, a) - self.probabilities(Y, b)))
            assert tv <= 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))) + 1e-12

    def test_paradox_directions_are_an_unsharp_measurement(self):
        # the paradox resolved: the initial flux is strictly forward, yet
        # the state emits forward with probability 9/50, and no state emits
        # forward with probability outside [0.1, 0.9]
        Y = outcome_forms(coupling_bundle(paradox_model(), make_env(PARADOX_FIELD),
                                           LossModel.none()))
        p = self.probabilities(Y, PARADOX_STATE)
        assert p[0] == pytest.approx([9 / 50, 41 / 50, 0.0], abs=1e-14)
        assert np.linalg.eigvalsh(Y[0, 0]) == pytest.approx([0.1, 0.9], abs=1e-14)


class TestScaleFree:
    """Emission reads no energy zero and no unit of rate: shifting every
    level energy, or scaling the energies by s, the dipoles by sqrt(s) (so
    every rate by s) and the times by 1/s, changes the excited blocks, the
    accumulated probabilities and the outcome forms by rounding at most. On
    the instances of ``dyadic_instance`` the shifted and scaled inputs are
    exact, so rounding here is the solver's alone."""

    @staticmethod
    def outcome(inst, E_f, psi, times, shift=0.0, s=1.0):
        model, loss = scaled_objects(inst, shift, s)
        env = make_env(E_f, a=0.7, omega=1.3, v_g=-0.2)
        traj = evolve(model, env, loss, ExcitedSuperposition.from_sequence(psi),
                      times=np.asarray(times) / s)
        return (np.array([st.excited_block for st in traj.states]),
                np.array([st.ground_mode_probs for st in traj.states]),
                outcome_forms(coupling_bundle(model, env, loss)))

    @pytest.mark.parametrize("seed", range(3))
    def test_no_energy_zero_and_no_unit_of_rate(self, seed):
        rng = np.random.default_rng(3700 + seed)
        changes = [dict(shift=c) for c in (2.0 ** 13, 2.0 ** 27, DYADIC_SHIFT)]
        changes += [dict(s=2.0 ** k) for k in range(-40, 41, 10) if k]     # 1e-12 ... 1e12
        times = [0.0, 0.01, 0.05, 0.2, 1.0]
        for case in range(12):
            inst = dyadic_instance(rng, case)
            psi = random_state(rng, len(inst["excited"]))
            # level 0 dark, nearly dark and coupled
            for E_f in ([0, 0, 1], [1e-9, 0, 1], random_unit_vector(rng)):
                expected = self.outcome(inst, E_f, psi, times)
                for change in changes:
                    got = self.outcome(inst, E_f, psi, times, **change)
                    for a, b in zip(got, expected):
                        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("energy", [1.0, 1e6, 1e8, 1e10])
    def test_level_energies_far_from_zero(self, energy):
        # the lossless V system at E_f = (cos t, i sin t, 0), t = 5e-5: the
        # y level decays at 2.5e-8 and emits half each way, wherever the
        # energy zero is (the forms once read 0 from 1e8 on, the rounding
        # rate then growing with the energies)
        model = EmitterModel.from_arrays([0.0], [energy, energy], [[[1, 0, 0], [0, 1, 0]]])
        env = make_env([np.cos(5e-5), 1j * np.sin(5e-5), 0.0])
        Y = outcome_forms(coupling_bundle(model, env, LossModel.none()))
        assert Y[0, :, 1, 1].real == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)
        totals = evolve(model, env, LossModel.none(), ExcitedSuperposition([0, 1])).final_totals
        assert totals == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-8)


class TestDarkLevelCutoff:
    """Where emission and scattering stop telling a weakly coupled level
    from a dark one, on the lossless ``isotropic-scan`` V system (dipoles x
    and y) at ``E_f = (cos t, i sin t, 0)``, whose y level decays at ``10
    t^2``. Both count a rate as zero where it is at most the rounding rate
    ``2 n eps max|H_ij|`` of the matrix they decomposed: emission that of
    ``H_eff``, 4.44e-15 from the x level's entry ``-5i``, scattering that of
    the damping ``Herm M``, whose x entry is 1 (z = 5). In both the y level
    is dark below ``t* = sqrt(2 eps)`` ~ 2.11e-8: dark at 2e-8, coupled at
    3e-8."""

    MODEL = preset("isotropic-scan").built.model
    T_STAR = np.sqrt(2.0 * np.finfo(float).eps)

    @staticmethod
    def env(theta):
        return make_env([np.cos(theta), 1j * np.sin(theta), 0.0])

    @pytest.mark.parametrize("gate", [True, False], ids=["modal", "svd"])
    def test_emission_holds_the_y_level_below_the_rounding_rate(self, monkeypatch, gate):
        if not gate:    # so that the SVD solve gives the forms
            force_fallback(monkeypatch)
        svd_calls = counting(monkeypatch, np.linalg, "svd")
        rates, y_outcomes = [], []
        for theta in (2e-8, 3e-8):
            bundle = coupling_bundle(self.MODEL, self.env(theta), LossModel.none())
            rates.append(emission_mod._rounding_rate(bundle.H_eff))
            y_outcomes.append(outcome_forms(bundle)[0, :, 1, 1].real)
        assert rates == pytest.approx([4.44e-15] * 2, rel=1e-3)
        assert np.sqrt(rates[0] / 10.0) == pytest.approx(self.T_STAR, rel=1e-12)
        assert y_outcomes[0] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
        assert y_outcomes[1] == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)
        assert svd_calls == ([] if gate else ["svd", "svd"])

    def test_scattering_drops_the_y_level_below_t_star(self):
        inp, y = ScatterInput("forward", 0), np.array([0.0, 1.0])
        assert 2e-8 < self.T_STAR < 3e-8
        for theta, dark in ((2e-8, True), (3e-8, False)):
            # refused by the gate either way: without projection it fails,
            # naming y as dark only below t*
            with pytest.raises(SingularResponseError) as failure:
                scatter(self.MODEL, self.env(theta), LossModel.none(), inp)
            vectors = failure.value.dark_vectors
            assert vectors.shape == (2, int(dark))
            if dark:
                assert np.abs(np.abs(vectors[:, 0]) - y).max() < 1e-15
            # with projection the x level alone reflects; both levels,
            # solved in the damping eigenbasis, transmit
            res = scatter(self.MODEL, self.env(theta), LossModel.none(), inp,
                          dark_state_projection=True)
            kept = res.reflection if dark else res.transmission
            assert abs(kept) ** 2 == pytest.approx(1.0, abs=1e-12)
        with pytest.warns(IllConditionedResponseWarning):
            res = scatter(self.MODEL, self.env(5e-8), LossModel.none(), inp)
        assert abs(res.transmission) ** 2 == pytest.approx(1.0, abs=1e-12)
