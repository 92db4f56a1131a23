"""Scattering amplitudes: exact anchor values, conservation, equivalences."""


import numpy as np
import pytest

from wgqed import (
    EmitterModel,
    IllConditionedResponseWarning,
    LossModel,
    PolarizationVector,
    ScatterInput,
    SingularResponseError,
    polarization_sweep,
    rotate_excited_basis,
    scatter,
    two_level_closed_form,
)

from conftest import (
    make_env,
    oracle_response_matrix,
    oracle_scatter,
    paradox_model,
    random_loss_tensor,
    random_model,
    random_unit_vector,
    random_unitary,
)

X_ENV = dict(a=1.0, v_g=0.1, omega=1.0)


def two_level() -> EmitterModel:
    return EmitterModel.from_arrays([0.0], [1.0], [[[1, 0, 0]]])


def ixi_model(phase: complex = 1j) -> EmitterModel:
    off = [0, phase, 0]
    return EmitterModel.from_arrays(
        [0.0, 0.0], [1.0, 1.0],
        [[[1, 0, 0], off], [off, [1, 0, 0]]],
    )


def circular_env():
    return make_env(np.array([1, 1j, 0]) / np.sqrt(2), **X_ENV)


class TestTwoLevelClosedForm:
    def test_matched_linear_resonant_lossless_reflects(self):
        t, r, p_loss = two_level_closed_form(
            PolarizationVector([1, 0, 0]), make_env([1, 0, 0]), LossModel.none()
        )
        assert t == 0
        assert r == pytest.approx(-1.0)
        assert p_loss == pytest.approx(0.0, abs=1e-15)

    def test_decoupled_dipole_passes_photon_untouched(self):
        t, r, p_loss = two_level_closed_form(
            PolarizationVector([0, 0, 1]), make_env([1, 0, 0]), LossModel.isotropic(0.2)
        )
        assert t == pytest.approx(1.0)
        assert r == 0
        assert p_loss == pytest.approx(0.0, abs=1e-15)

    def test_guided_fraction_with_loss(self):
        # guided rate 10 against loss rate 0.2: |r| = 10/10.2 on resonance
        t, r, p_loss = two_level_closed_form(
            PolarizationVector([1, 0, 0]), make_env([1, 0, 0]), LossModel.isotropic(0.2)
        )
        assert abs(r) == pytest.approx(10.0 / 10.2, abs=1e-12)
        assert t == pytest.approx(0.2 / 10.2, abs=1e-12)
        assert p_loss == pytest.approx(2 * 10.0 * 0.2 / 10.2**2, abs=1e-12)

    def test_fully_dark_configuration_raises(self):
        with pytest.raises(SingularResponseError) as exc:
            two_level_closed_form(
                PolarizationVector([0, 0, 1]), make_env([1, 0, 0]), LossModel.none()
            )
        assert exc.value.code == "singular-denominator"

    def test_detuning_halves_response_at_half_linewidth(self):
        # total rate 10: half width at half maximum of |r| sits at detuning 5
        _, r0, _ = two_level_closed_form(
            PolarizationVector([1, 0, 0]), make_env([1, 0, 0]), LossModel.none(), 0.0
        )
        _, r5, _ = two_level_closed_form(
            PolarizationVector([1, 0, 0]), make_env([1, 0, 0]), LossModel.none(), 5.0
        )
        assert abs(r5) ** 2 == pytest.approx(0.5 * abs(r0) ** 2, rel=1e-12)

    def test_reactive_loss_part_shifts_the_resonance(self):
        # real part of the loss tensor acts as a level shift: with
        # d . Re(G_loss) . d* = 0.3 the response peaks at detuning -0.15
        loss = LossModel.from_array(0.3 * np.eye(3) + 0.2j * np.eye(3))
        env = make_env([1, 0, 0])
        d = PolarizationVector([1, 0, 0])
        peak = abs(two_level_closed_form(d, env, loss, -0.15).r)
        for delta in (-0.4, 0.0, 0.1):
            assert abs(two_level_closed_form(d, env, loss, delta).r) < peak


class TestScatterAnchors:
    def test_zero_dipoles_are_transparent(self):
        model = EmitterModel.from_arrays([0.0, 0.0], [1.0], [[[0, 0, 0]], [[0, 0, 0]]])
        res = scatter(model, make_env([1, 0, 0]), LossModel.isotropic(0.2),
                      ScatterInput("forward", 0))
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0
        assert np.array_equal(res.amplitudes, expected)
        assert res.p_loss == 0.0

    def test_two_level_matches_closed_form_on_resonance(self):
        res = scatter(two_level(), make_env([1, 0, 0]), LossModel.none(), ScatterInput())
        assert abs(res.transmission) < 1e-14
        assert res.reflection == pytest.approx(-1.0)

    @pytest.mark.parametrize("strength", [0.003, 0.2])
    def test_isotropic_v_circular_polarization_transmits_with_phase(self, strength):
        res = scatter(paradox_model(), circular_env(),
                      LossModel.isotropic(strength), ScatterInput())
        assert abs(res.reflection) < 1e-10
        t = res.transmission
        assert abs(t) < 1.0
        assert np.angle(t) == pytest.approx(np.pi)  # phase flip
        # both circular arms damped at 1/2 guided weight plus loss/10
        expected = 1.0 - 1.0 / (0.5 + strength / 10.0)
        assert t.real == pytest.approx(expected, abs=1e-12)

    def test_lossless_near_linear_polarization_still_transmits(self):
        theta = 0.01
        env = make_env([np.cos(theta), 1j * np.sin(theta), 0], **X_ENV)
        res = scatter(paradox_model(), env, LossModel.none(), ScatterInput())
        assert res.transmission == pytest.approx(-1.0, abs=1e-6)
        assert abs(res.reflection) < 1e-6

    def test_exactly_linear_lossless_is_singular_by_default(self):
        with pytest.raises(SingularResponseError) as exc:
            scatter(paradox_model(), make_env([1, 0, 0]), LossModel.none(), ScatterInput())
        dark = exc.value.dark_vectors
        assert dark.shape == (2, 1)
        # the decoupled direction is the second excited state
        assert abs(dark[1, 0]) == pytest.approx(1.0)

    def test_exactly_linear_lossless_projection_reflects_fully(self):
        res = scatter(paradox_model(), make_env([1, 0, 0]), LossModel.none(),
                      ScatterInput(), dark_state_projection=True)
        assert abs(res.reflection) == pytest.approx(1.0)
        assert abs(res.transmission) < 1e-14

    def test_near_singular_response_warns(self):
        theta = 1e-7
        env = make_env([np.cos(theta), 1j * np.sin(theta), 0], **X_ENV)
        with pytest.warns(IllConditionedResponseWarning):
            scatter(paradox_model(), env, LossModel.none(), ScatterInput())

    def test_output_frequencies_conserve_energy(self):
        model = EmitterModel.from_arrays([0.0, 0.3], [1.0, 1.0],
                                         [[[1, 0, 0], [0, 1, 0]],
                                          [[0, 1, 0], [1, 0, 0]]])
        res = scatter(model, make_env([1, 0, 0]), LossModel.isotropic(0.1),
                      ScatterInput("forward", 0, photon_frequency=1.05))
        assert np.allclose(res.output_frequencies, [1.05, 0.75])


class TestIxiScattering:
    """Crossed-dipole four-level system: parity-toggle behavior."""

    LOSS = LossModel.isotropic(0.2)
    # each excited state carries two unit transitions, so its loss rate is
    # 0.4 against a guided rate of 10: scattered amplitude 1/1.04
    BETA = 1.0 / 1.04

    def test_circular_polarization_transmits_and_flips(self):
        res = scatter(ixi_model(), circular_env(), self.LOSS, ScatterInput("forward", 0))
        assert abs(res.amplitude("backward", 0)) < 1e-12
        assert abs(res.amplitude("backward", 1)) < 1e-12
        assert res.amplitude("forward", 1) == pytest.approx(-self.BETA, abs=1e-12)
        assert res.amplitude("forward", 0) == pytest.approx(1 - self.BETA, abs=1e-12)

    def test_flip_amplitude_equals_two_level_scattered_amplitude(self):
        # same rate multiset (5, 5, loss 0.4) as a matched linear two-level
        res = scatter(ixi_model(), circular_env(), self.LOSS, ScatterInput("forward", 0))
        _, r2, _ = two_level_closed_form(
            PolarizationVector([1, 0, 0]), make_env([1, 0, 0]), LossModel.isotropic(0.4)
        )
        assert abs(res.amplitude("forward", 1)) ** 2 == pytest.approx(
            abs(r2) ** 2, abs=1e-14
        )

    def test_linear_polarization_reflects_without_flip(self):
        res = scatter(ixi_model(), make_env([1, 0, 0]), self.LOSS, ScatterInput("forward", 0))
        assert abs(res.amplitude("forward", 1)) < 1e-14
        assert abs(res.amplitude("backward", 1)) < 1e-14
        assert res.amplitude("backward", 0) == pytest.approx(-self.BETA, abs=1e-12)

    def test_real_crossed_dipoles_reflect_and_flip_instead(self):
        res = scatter(ixi_model(phase=1.0), circular_env(), self.LOSS,
                      ScatterInput("forward", 0))
        assert abs(res.amplitude("forward", 1)) < 1e-12
        assert abs(res.amplitude("backward", 0)) < 1e-12
        assert abs(res.amplitude("backward", 1)) == pytest.approx(self.BETA, abs=1e-12)

    def test_other_ground_state_also_flip_transmits(self):
        res = scatter(ixi_model(), circular_env(), self.LOSS, ScatterInput("forward", 1))
        assert res.amplitude("forward", 0) == pytest.approx(-self.BETA, abs=1e-12)

    def test_backward_input_also_flip_transmits(self):
        # the flip channel keeps magnitude beta; its phase is direction dependent
        res = scatter(ixi_model(), circular_env(), self.LOSS, ScatterInput("backward", 0))
        assert abs(res.amplitude("backward", 1)) == pytest.approx(self.BETA, abs=1e-12)
        assert abs(res.amplitude("forward", 0)) < 1e-12


class TestConservationProperties:
    def _random_case(self, rng, lossless: bool):
        n_g = int(rng.integers(1, 4))
        n_e = int(rng.integers(1, 4))
        model = random_model(rng, n_g, n_e)
        env = make_env(random_unit_vector(rng))
        s = 0.0 if lossless else float(rng.uniform(0.01, 0.5))
        inp = ScatterInput(
            direction="forward" if rng.random() < 0.5 else "backward",
            ground_index=int(rng.integers(0, n_g)),
            photon_frequency=float(rng.uniform(0.5, 1.5)),
        )
        return model, env, LossModel.isotropic(s), inp, s

    def test_lossless_scattering_is_unitary(self, rng):
        for _ in range(300):
            model, env, loss, inp, _ = self._random_case(rng, lossless=True)
            res = scatter(model, env, loss, inp)
            assert abs(np.sum(np.abs(res.amplitudes) ** 2) - 1.0) < 1e-10

    def test_lossy_scattering_is_passive_and_balanced(self, rng):
        for _ in range(300):
            model, env, loss, inp, s = self._random_case(rng, lossless=False)
            res = scatter(model, env, loss, inp)
            assert res.p_loss > -1e-9
            assert abs(res.total_probability() - 1.0) < 1e-9

    def test_p_loss_matches_loss_flux_quadratic_form(self, rng):
        # independent bookkeeping: p_loss must equal u^dag (J^T / z) u with
        # J the dissipative loss sandwich and u the solved excited response
        for _ in range(50):
            model, env, loss, inp, s = self._random_case(rng, lossless=False)
            M = oracle_response_matrix(
                model, env, loss,
                model.ground_energies[inp.ground_index] + env.hbar * inp.photon_frequency,
            )
            D = model.dipole_array()
            E_in = (env.E_f if inp.direction == "forward" else env.E_b).as_array()
            in_vec = D[inp.ground_index].conj() @ E_in
            u = np.linalg.solve(M, in_vec)
            H_J = np.einsum("nxi,ij,nyj->xy", D, loss.as_array().imag, D.conj())
            p_direct = float(np.real(u.conj() @ (H_J.T / env.z) @ u))
            res = scatter(model, env, loss, inp)
            assert res.p_loss == pytest.approx(p_direct, abs=1e-10)

    def test_unitarity_survives_nonstandard_constants(self, rng):
        # hbar, epsilon0 and the sign of v_g only rescale internals
        for kwargs in ({"hbar": 2.0}, {"epsilon0": 3.0}, {"v_g": -0.1},
                       {"a": 0.7, "omega": 1.3, "v_g": -0.25, "hbar": 0.5}):
            model = random_model(rng, 2, 2)
            env = make_env(random_unit_vector(rng), **kwargs)
            res = scatter(model, env, LossModel.none(), ScatterInput())
            assert abs(np.sum(np.abs(res.amplitudes) ** 2) - 1.0) < 1e-10

    def test_group_velocity_sign_is_immaterial(self, rng):
        model = random_model(rng, 1, 2)
        e = random_unit_vector(rng)
        loss = LossModel.isotropic(0.1)
        a = scatter(model, make_env(e, v_g=0.1), loss, ScatterInput()).amplitudes
        b = scatter(model, make_env(e, v_g=-0.1), loss, ScatterInput()).amplitudes
        assert np.max(np.abs(a - b)) < 1e-14

    def test_real_field_direction_swap_preserves_magnitudes(self, rng):
        for _ in range(50):
            model = random_model(rng, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            e = rng.normal(size=3)
            env = make_env(e / np.linalg.norm(e))
            loss = LossModel.isotropic(float(rng.uniform(0, 0.3)))
            gi = int(rng.integers(0, model.n_ground))
            fwd = scatter(model, env, loss, ScatterInput("forward", gi)).amplitudes
            bwd = scatter(model, env, loss, ScatterInput("backward", gi)).amplitudes
            assert np.max(np.abs(np.abs(fwd) - np.abs(bwd[::-1]))) < 1e-12


class TestEquivalences:
    def test_single_excited_state_reduces_to_closed_form(self, rng):
        for i in range(200):
            model = random_model(rng, 1, 1)
            env = make_env(random_unit_vector(rng))
            loss = (LossModel.isotropic(float(rng.uniform(0, 0.5)))
                    if i % 2 else random_loss_tensor(rng))
            omega_f = float(rng.uniform(0.5, 1.5))
            res = scatter(model, env, loss, ScatterInput(photon_frequency=omega_f))
            detuning = model.excited_energies[0] - model.ground_energies[0] - omega_f
            t, r, p_loss = two_level_closed_form(model.dipoles[0][0], env, loss, detuning)
            assert abs(res.transmission - t) < 1e-12
            assert abs(res.reflection - r) < 1e-12
            assert abs(res.p_loss - p_loss) < 1e-12

    def test_both_response_forms_agree(self, rng):
        for i in range(200):
            model = random_model(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            env = make_env(random_unit_vector(rng))
            loss = (LossModel.isotropic(float(rng.uniform(0, 0.5)))
                    if i % 2 else random_loss_tensor(rng))
            inp = ScatterInput(ground_index=int(rng.integers(0, model.n_ground)),
                               photon_frequency=float(rng.uniform(0.5, 1.5)))
            a = scatter(model, env, loss, inp).amplitudes
            assert np.max(np.abs(a - oracle_scatter(model, env, loss, inp))) < 1e-12

    def test_rotated_basis_leaves_amplitudes_unchanged(self, rng):
        for _ in range(100):
            n_e = int(rng.integers(2, 4))
            model = random_model(rng, int(rng.integers(1, 3)), n_e, degenerate=True)
            env = make_env(random_unit_vector(rng))
            loss = LossModel.isotropic(float(rng.uniform(0, 0.3)))
            inp = ScatterInput(ground_index=int(rng.integers(0, model.n_ground)))
            rotated = rotate_excited_basis(model, random_unitary(rng, n_e))
            a = scatter(model, env, loss, inp).amplitudes
            b = scatter(rotated, env, loss, inp).amplitudes
            assert np.max(np.abs(a - b)) < 1e-10


class TestPolarizationSweep:
    def test_circular_point_has_zero_reflection(self):
        pts = polarization_sweep(
            paradox_model(), make_env([1, 0, 0]), LossModel.isotropic(0.2),
            ScatterInput(), [np.pi / 4],
        )
        assert abs(pts[0].result.reflection) < 1e-10

    def test_ixi_linear_point_reflects_without_flip(self):
        pts = polarization_sweep(
            ixi_model(), make_env([1, 0, 0]), LossModel.isotropic(0.2),
            ScatterInput("forward", 0), [0.0],
        )
        res = pts[0].result
        assert abs(res.amplitude("backward", 0)) > 0.9
        assert abs(res.amplitude("forward", 1)) < 1e-10
        assert abs(res.amplitude("backward", 1)) < 1e-10

    def test_ixi_circular_point_transmits_with_flip(self):
        pts = polarization_sweep(
            ixi_model(), make_env([1, 0, 0]), LossModel.isotropic(0.2),
            ScatterInput("forward", 0), [np.pi / 4],
        )
        res = pts[0].result
        assert abs(res.amplitude("forward", 1)) > 0.9
        assert abs(res.amplitude("backward", 0)) < 1e-10
        assert abs(res.amplitude("backward", 1)) < 1e-10

    def test_failed_points_are_flagged_not_fatal(self):
        pts = polarization_sweep(
            paradox_model(), make_env([1, 0, 0]), LossModel.none(),
            ScatterInput(), [0.0, 0.01],
        )
        assert pts[0].failed and isinstance(pts[0].error, SingularResponseError)
        assert not pts[1].failed

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            polarization_sweep(paradox_model(), make_env([1, 0, 0]),
                               LossModel.none(), ScatterInput(), [])
        with pytest.raises(ValueError):
            polarization_sweep(paradox_model(), make_env([1, 0, 0]),
                               LossModel.none(), ScatterInput(), [4.0])

    def test_sweep_matches_pointwise_scatter(self):
        # lossless V system: theta = 0 and pi/2 are exactly dark (flagged, or
        # solved by projection), theta = 1e-7 is ill-conditioned
        thetas = np.concatenate(([0.0, 1e-7, np.pi / 2], np.linspace(0.05, np.pi - 0.05, 8)))
        template = make_env([1, 0, 0], **X_ENV)
        for projection in (False, True):
            with pytest.warns(IllConditionedResponseWarning):
                pts = polarization_sweep(paradox_model(), template, LossModel.none(),
                                         ScatterInput(), thetas,
                                         dark_state_projection=projection)
            assert [pt.theta for pt in pts] == list(thetas)
            for pt in pts:
                env = template.with_field([np.cos(pt.theta), 1j * np.sin(pt.theta), 0])
                if pt.theta == 1e-7:
                    with pytest.warns(IllConditionedResponseWarning):
                        ref = scatter(paradox_model(), env, LossModel.none(),
                                      ScatterInput(), dark_state_projection=projection)
                    assert not pt.failed
                elif pt.theta in (0.0, np.pi / 2) and not projection:
                    with pytest.raises(SingularResponseError) as exc:
                        scatter(paradox_model(), env, LossModel.none(), ScatterInput())
                    assert isinstance(pt.error, SingularResponseError)
                    assert str(pt.error) == str(exc.value)
                    continue
                else:
                    ref = scatter(paradox_model(), env, LossModel.none(), ScatterInput(),
                                  dark_state_projection=projection)
                assert np.max(np.abs(pt.result.amplitudes - ref.amplitudes)) < 1e-14
                assert abs(pt.result.p_loss - ref.p_loss) < 1e-14
        # the projected dark points reflect fully
        assert abs(pts[0].result.reflection) == pytest.approx(1.0)
        # the lossy crossed-dipole system fails nowhere, and its flip amplitude
        # changes phase when E_f is replaced by its conjugate
        loss = LossModel.isotropic(0.2)
        pts = polarization_sweep(ixi_model(), template, loss, ScatterInput(), thetas)
        for pt in pts:
            env = template.with_field([np.cos(pt.theta), 1j * np.sin(pt.theta), 0])
            ref = scatter(ixi_model(), env, loss, ScatterInput())
            assert np.max(np.abs(pt.result.amplitudes - ref.amplitudes)) < 1e-14
