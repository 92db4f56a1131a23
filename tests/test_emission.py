"""Emission dynamics: anchor scenarios, conservation laws, channel routing."""

import numpy as np
import pytest

import wgqed.emission as emission_mod
from wgqed import (
    EmitterModel,
    ExcitedSuperposition,
    LossModel,
    ModelValidationError,
    NonPhysicalStateError,
    channel_flux,
    coupling_bundle,
    directional_totals,
    evolve,
    outcome_distance,
)

from conftest import (
    PARADOX_FIELD,
    PARADOX_STATE,
    make_env,
    oracle_emission,
    paradox_direction_probs,
    paradox_model,
    paradox_populations,
    random_loss_tensor,
    random_model,
    random_state,
    random_unit_vector,
)


def two_level() -> EmitterModel:
    return EmitterModel.from_arrays([0.0], [1.0], [[[1, 0, 0]]])


def paradox_run(state=None, **kwargs):
    psi = ExcitedSuperposition.from_sequence(PARADOX_STATE if state is None else state)
    return evolve(paradox_model(), make_env(PARADOX_FIELD), LossModel.none(), psi, **kwargs)


class TestParadoxScenario:
    """V emitter in an elliptical field prepared so one direction is dark."""

    def test_initial_populations(self):
        traj = paradox_run(t_max=1.0, output_points=11)
        assert np.allclose(traj.states[0].excited_populations(), [0.2, 0.8], atol=1e-12)

    def test_populations_follow_four_to_one_rates(self):
        traj = paradox_run(t_max=2.0, output_points=41)
        p1, p2 = paradox_populations(traj.times)
        pops = np.array([s.excited_populations() for s in traj.states])
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

    def test_direction_probabilities_match_closed_form(self):
        traj = paradox_run(t_max=3.0, output_points=61)
        sup, enh = paradox_direction_probs(traj.times)
        totals = np.array([s.channel_totals() for s in traj.states])
        directions = np.sort(totals[:, :2], axis=1)
        expected = np.sort(np.column_stack([sup, enh]), axis=1)
        assert np.max(np.abs(directions - expected)) < 1e-12

    def test_long_time_split_is_41_to_9(self):
        traj = paradox_run()
        pf, pb, pl = directional_totals(traj)
        pair = sorted([pf, pb])
        assert pair[0] == pytest.approx(9.0 / 50.0, abs=2e-6)
        assert pair[1] == pytest.approx(41.0 / 50.0, abs=2e-6)
        assert pl == 0.0
        assert traj.final_totals.residual_excited < 1e-6

    def test_mirrored_state_gives_mirrored_totals(self):
        fwd = paradox_run()
        bwd = paradox_run(state=np.array([-1j, 2.0]) / np.sqrt(5.0))
        a = directional_totals(fwd)
        b = directional_totals(bwd)
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

        tv = outcome_distance(paradox_run(state=psi_a), paradox_run(state=psi_b))
        assert tv == pytest.approx(16.0 / 25.0, abs=1e-3)


class TestTwoLevelEmission:
    def test_matched_linear_population_decays_at_rate_ten(self):
        traj = evolve(two_level(), make_env([1, 0, 0]), LossModel.none(),
                      ExcitedSuperposition.from_sequence([1.0]), t_max=1.5,
                      output_points=61)
        pops = np.array([s.excited_populations()[0] for s in traj.states])
        assert np.max(np.abs(pops - np.exp(-10.0 * traj.times))) < 1e-12

    def test_matched_linear_splits_evenly_between_directions(self):
        traj = evolve(two_level(), make_env([1, 0, 0]), LossModel.none(),
                      ExcitedSuperposition.from_sequence([1.0]), t_max=1.5,
                      output_points=61)
        totals = np.array([s.channel_totals() for s in traj.states])
        expected = 0.5 * (1.0 - np.exp(-10.0 * traj.times))
        assert np.max(np.abs(totals[:, 0] - expected)) < 1e-12
        assert np.max(np.abs(totals[:, 1] - expected)) < 1e-12
        assert np.max(totals[:, 2]) == 0.0

    @pytest.mark.parametrize("strength", [0.2, 0.003])
    def test_guided_fraction_from_emission_split(self, strength):
        traj = evolve(two_level(), make_env([1, 0, 0]), LossModel.isotropic(strength),
                      ExcitedSuperposition.from_sequence([1.0]),
                      t_max=3.5, output_points=21)
        pf, pb, pl = directional_totals(traj)
        emitted = 1.0 - traj.final_totals.residual_excited
        assert (pf + pb) / emitted == pytest.approx(10.0 / (10.0 + strength), abs=1e-9)
        assert pf == pytest.approx(pb, abs=1e-12)

    def test_rate_scales_inversely_with_hbar(self):
        env = make_env([1, 0, 0], hbar=2.0)
        traj = evolve(two_level(), env, LossModel.none(),
                      ExcitedSuperposition.from_sequence([1.0]), t_max=2.0,
                      output_points=21)
        pops = np.array([s.excited_populations()[0] for s in traj.states])
        assert np.max(np.abs(pops - np.exp(-5.0 * traj.times))) < 1e-12

    def test_direction_split_matches_field_overlaps(self, rng):
        for _ in range(10):
            d = random_unit_vector(rng)
            ef = random_unit_vector(rng)
            model = EmitterModel.from_arrays([0.0], [1.0], [[d]])
            env = make_env(ef)
            traj = evolve(model, env, LossModel.none(),
                          ExcitedSuperposition.from_sequence([1.0]), output_points=31)
            pf, pb, _ = directional_totals(traj)
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
            assert np.allclose(st.excited_populations(), [0.5, 0.5], atol=1e-12)
            assert np.max(np.abs(st.ground_mode_probs)) == 0.0
        # detuned levels still precess the coherence: rho12 ~ exp(-i(E1-E2)t)
        final = traj.states[-1].excited_block
        assert final[0, 1] == pytest.approx(0.5 * np.exp(-1j * (1.0 - 1.2) * 5.0), abs=1e-8)

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
            traces = np.array([s.total_trace() for s in traj.states])
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

    def test_trajectory_matches_eigen_propagator(self, rng):
        for _ in range(10):
            model = random_model(rng, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            env = make_env(random_unit_vector(rng))
            s = float(rng.uniform(0, 0.4))
            psi = random_state(rng, model.n_excited)
            times = np.linspace(0.0, 2.0, 9)
            traj = evolve(model, env, LossModel.isotropic(s),
                          ExcitedSuperposition.from_sequence(psi), times=times)
            rhos, probs = oracle_emission(model, env, s, psi, times)
            got_rho = np.array([st.excited_block for st in traj.states])
            got_probs = np.array([st.ground_mode_probs for st in traj.states])
            assert np.max(np.abs(got_rho - rhos)) < 1e-12
            assert np.max(np.abs(got_probs - probs)) < 1e-12


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
        model = EmitterModel.from_arrays([0.0], [1.0], [[[np.nan, 0, 0]]])
        with pytest.raises(ModelValidationError) as exc:
            evolve(model, make_env([1, 0, 0]), LossModel.none(),
                   ExcitedSuperposition.from_sequence([0.5]))
        assert exc.value.code == "non-finite-entry"

    def test_non_hermitian_density_matrix_rejected(self):
        rho = np.array([[0.5, 0.5], [0.1, 0.5]], dtype=complex)
        with pytest.raises(NonPhysicalStateError):
            evolve(paradox_model(), make_env([1, 0, 0]), LossModel.none(), rho)

    def test_times_must_start_at_zero(self):
        bad_grids = [
            dict(times=[0.5, 1.0]),
            dict(times=[0.0, 0.5, 0.2]),
            dict(times=[0.0, 0.0, 1.0]),
            dict(times=[]),
            dict(times=[[0.0, 1.0]]),
            dict(times=[0.0, np.nan]),
            dict(times=[0.0, np.inf]),
            dict(t_max=-1.0),
            dict(t_max=0.0),
            dict(t_max=np.inf),
            dict(t_max=np.nan),
            dict(t_max=1.0, output_points=0),
        ]
        for kwargs in bad_grids:
            with pytest.raises(ValueError):
                evolve(two_level(), make_env([1, 0, 0]), LossModel.none(),
                       ExcitedSuperposition.from_sequence([1.0]), **kwargs)

    def test_single_time_returns_initial_state(self):
        psi = ExcitedSuperposition.from_sequence(PARADOX_STATE)
        traj = evolve(paradox_model(), make_env(PARADOX_FIELD), LossModel.none(), psi,
                      times=[0.0])
        assert len(traj.states) == 1
        assert np.array_equal(traj.states[0].excited_block,
                              np.outer(PARADOX_STATE, PARADOX_STATE.conj()))
        assert np.all(traj.states[0].ground_mode_probs == 0.0)

    def test_trace_guard_aborts_on_broken_balance(self, monkeypatch):
        monkeypatch.setattr(
            emission_mod, "channel_flux",
            lambda bundle, rho: np.zeros((1, 3)),
        )
        with pytest.raises(NonPhysicalStateError) as exc:
            evolve(two_level(), make_env([1, 0, 0]), LossModel.none(),
                   ExcitedSuperposition.from_sequence([1.0]), t_max=2.0)
        assert exc.value.code == "non-physical-state"

    def test_non_finite_flux_aborts(self, monkeypatch):
        monkeypatch.setattr(
            emission_mod, "channel_flux",
            lambda bundle, rho: np.full((1, 3), np.nan),
        )
        with pytest.raises(NonPhysicalStateError):
            evolve(two_level(), make_env([1, 0, 0]), LossModel.none(),
                   ExcitedSuperposition.from_sequence([1.0]), t_max=2.0)

    def test_default_horizon_covers_twenty_lifetimes(self):
        traj = evolve(two_level(), make_env([1, 0, 0]), LossModel.none(),
                      ExcitedSuperposition.from_sequence([1.0]))
        assert traj.times[-1] == pytest.approx(2.0)  # rate 10
        assert traj.final_totals.residual_excited < 1e-6

    def test_outcome_distance_extremes(self):
        traj = paradox_run(t_max=4.0, output_points=21)
        assert outcome_distance(traj, traj) == 0.0
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
        assert outcome_distance(one, other) == pytest.approx(1.0, abs=1e-5)
