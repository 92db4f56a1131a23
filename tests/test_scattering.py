"""Scattering amplitudes: exact anchor values, conservation, equivalences."""


import warnings

import numpy as np
import pytest

import wgqed.scattering
from wgqed import (
    EmitterModel,
    IllConditionedResponseWarning,
    LossModel,
    NonPhysicalStateError,
    PolarizationVector,
    ScatterInput,
    SingularResponseError,
    polarization_sweep,
    rotate_excited_basis,
    scatter,
    two_level_closed_form,
)
from wgqed.scattering import (
    COND_SINGULAR_THRESHOLD,
    COND_WARN_THRESHOLD,
    _scatter_fields,
    _solve_gate,
)

from conftest import (
    make_env,
    oracle_loss_probability,
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


class TestScatterInput:
    @pytest.mark.parametrize("frequency", [np.nan, np.inf, -np.inf])
    def test_non_finite_photon_frequency_rejected(self, frequency):
        with pytest.raises(ValueError, match="photon_frequency"):
            ScatterInput(photon_frequency=frequency)

    @pytest.mark.parametrize("frequency", [True, False, "1.0", 1j])
    def test_non_number_photon_frequency_rejected(self, frequency):
        # a bool is not taken as 1.0 or 0.0, nor a string parsed
        with pytest.raises(ValueError, match="photon_frequency"):
            ScatterInput(photon_frequency=frequency)

    @pytest.mark.parametrize("index", [True, False, 0.0, 1.5, "0", None])
    def test_non_integer_ground_index_rejected(self, index):
        # a bool is not taken as 0 or 1, a float never reaches array indexing
        with pytest.raises(ValueError, match="ground_index"):
            ScatterInput("forward", index)

    def test_numpy_integer_ground_index_accepted(self):
        inp = ScatterInput("forward", np.int64(1))
        res = scatter(ixi_model(), circular_env(), LossModel.isotropic(0.2), inp)
        assert res.input_ground == 1


class TestRecords:
    """The per-sample records are named tuples: fixed field order, no
    attribute assignment, Python floats and read-only array views."""

    def test_scattering_result(self):
        res = scatter(two_level(), make_env([1, 0, 0]), LossModel.isotropic(0.2),
                      ScatterInput())
        assert res._fields == ("amplitudes", "p_loss", "output_frequencies",
                               "input_direction", "input_ground")
        amplitudes, p_loss, _, direction, ground = res
        assert amplitudes is res.amplitudes and (direction, ground) == ("forward", 0)
        assert type(p_loss) is float
        with pytest.raises(AttributeError):
            res.p_loss = 0.0
        with pytest.raises(AttributeError):
            res.extra = 0.0
        for arr in (res.amplitudes, res.output_frequencies):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_sweep_point(self):
        pts = polarization_sweep(
            paradox_model(), make_env([1, 0, 0]), LossModel.none(),
            ScatterInput(), [0.0, 0.01, 0.02],
        )
        assert pts[0]._fields == ("theta", "result", "error")
        failed, ok = pts[0], pts[1]
        assert failed.failed and failed.result is None
        assert isinstance(failed.error, SingularResponseError)
        assert not ok.failed and ok.error is None
        assert [type(pt.theta) for pt in pts] == [float] * 3
        assert [type(pt.result.p_loss) for pt in pts[1:]] == [float] * 2
        with pytest.raises(AttributeError):
            ok.theta = 1.0
        assert not ok.result.amplitudes.flags.writeable


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
        # p_loss is 1 - sum |gamma|^2 by construction, so the balance is
        # checked against the loss flux of the oracle response instead
        for _ in range(300):
            model, env, loss, inp, s = self._random_case(rng, lossless=False)
            res = scatter(model, env, loss, inp)
            assert res.p_loss > -1e-9
            assert abs(res.p_loss - oracle_loss_probability(model, env, loss, inp)) < 1e-9

    def test_p_loss_matches_loss_flux_quadratic_form(self, rng):
        # independent bookkeeping: p_loss must equal u^dag (J^T / z) u with
        # J the dissipative loss sandwich and u the solved excited response
        for _ in range(50):
            model, env, loss, inp, s = self._random_case(rng, lossless=False)
            res = scatter(model, env, loss, inp)
            assert res.p_loss == pytest.approx(
                oracle_loss_probability(model, env, loss, inp), abs=1e-10)

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
        # a grid that is not 1-d is named as such, not met later as a
        # reshape or axis error
        for grid in (np.full((2, 3), 0.5), 0.5):
            with pytest.raises(ValueError, match="nonempty 1-d array of finite values"):
                polarization_sweep(paradox_model(), make_env([1, 0, 0]),
                                   LossModel.none(), ScatterInput(), grid)

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


def damped_stack(rng, T: int, n: int) -> np.ndarray:
    """T response slices M = D + iS: a positive semidefinite damping D (the
    Hermitian part) and a Hermitian shift S, each over many orders of
    magnitude."""
    A = rng.normal(size=(T, n, n)) + 1j * rng.normal(size=(T, n, n))
    B = rng.normal(size=(T, n, n)) + 1j * rng.normal(size=(T, n, n))
    D = A @ A.conj().swapaxes(-1, -2) * 10.0 ** rng.uniform(-14, 2, size=(T, 1, 1))
    S = (B + B.conj().swapaxes(-1, -2)) * 10.0 ** rng.uniform(-6, 1, size=(T, 1, 1))
    return D + 1j * S


def cond_oracle_gate(M: np.ndarray):
    """The gate as np.linalg.cond decides it for every slice."""
    cond = np.linalg.cond(M)
    solvable = np.isfinite(cond) & (cond <= COND_SINGULAR_THRESHOLD)
    return solvable, solvable & (cond > COND_WARN_THRESHOLD), cond


def count_singular_values(monkeypatch) -> list:
    """Slices handed to np.linalg.svd, and to np.linalg.cond, from now on."""
    slices = []
    svd, cond = np.linalg.svd, np.linalg.cond

    def counting(fn):
        def wrapper(a, *args, **kwargs):
            slices.append(len(a) if np.ndim(a) == 3 else 1)
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counting(svd))
    monkeypatch.setattr(np.linalg, "cond", counting(cond))
    return slices


def capture_response_stacks(monkeypatch) -> list:
    """The response stacks M the scattering engine forms, rebuilt bit for bit
    from the effective Hamiltonians it assembles."""
    stacks = []
    assemble = wgqed.scattering.effective_hamiltonian

    def spy(D, B, detunings, env, loss):
        H = assemble(D, B, detunings, env, loss)
        stacks.append((1j * env.epsilon0 * env.hbar / env.z) * H)
        return H

    monkeypatch.setattr(wgqed.scattering, "effective_hamiltonian", spy)
    return stacks


def count_solves(monkeypatch) -> tuple[list, list]:
    """Stacks handed to np.linalg.solve, and slices to _solve_dark, from now on."""
    solves, dark = [], []
    solve, solve_dark = np.linalg.solve, wgqed.scattering._solve_dark

    def counting_solve(a, b):
        solves.append(len(a) if np.ndim(a) == 3 else 1)
        return solve(a, b)

    def counting_dark(M, *args):
        dark.append(M)
        return solve_dark(M, *args)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(wgqed.scattering, "_solve_dark", counting_dark)
    return solves, dark


# forward fields of the lossless V system: a warning slice (condition number
# near 1e14), a dark one, one that no dipole absorbs, one whose response
# overflows, and ordinary ones
_WARN_FIELD = [np.cos(1e-7), 1j * np.sin(1e-7), 0.0]
_DARK_FIELD, _INACTIVE_FIELD, _OVERFLOW_FIELD = [1, 0, 0], [0, 0, 1], [1e200, 0, 0]


def scatter_stack_and_alone(fields, projection: bool):
    """The stacked engine at every field, and :func:`scatter` at each field
    alone: for each, the (amplitude bytes, p_loss, error) of every field and
    the warning messages, in order."""
    model, template = paradox_model(), make_env([1, 0, 0], **X_ENV)
    loss, inp = LossModel.none(), ScatterInput()

    def outcome(result, error):
        if error is not None:
            return None, None, (type(error), str(error))
        return result.amplitudes.tobytes(), result.p_loss.hex(), None

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results, errors = _scatter_fields(model, template, loss, inp,
                                          np.array(fields, dtype=complex), projection)
    stacked = [outcome(res, errors.get(t)) for t, res in enumerate(results)]
    stacked_warnings = [str(w.message) for w in caught]
    alone, alone_warnings = [], []
    for field in fields:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                res, exc = scatter(model, template.with_field(field), loss, inp,
                                   dark_state_projection=projection), None
            except (SingularResponseError, NonPhysicalStateError) as error:
                res, exc = None, error
        alone.append(outcome(res, exc))
        alone_warnings += [str(w.message) for w in caught]
    return stacked, stacked_warnings, alone, alone_warnings


class TestSolveGate:
    """The damping certificate spares singular values but changes no
    decision: which slices are solved in the stack, which warn."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_decisions_match_cond_oracle(self, n):
        rng = np.random.default_rng(1000 + n)
        parts = [damped_stack(rng, 300, n), np.zeros((2, n, n), dtype=complex)]
        dark = damped_stack(rng, 6, n)
        dark[:, -1, :] = 0.0
        dark[:, :, -1] = 0.0                     # a level that couples to nothing
        parts.append(dark)
        if n >= 2:
            # Hermitian positive definite slices with a condition number just
            # either side of each threshold
            targets = [COND_WARN_THRESHOLD * (1 - 1e-3), COND_WARN_THRESHOLD * (1 + 1e-3),
                       COND_SINGULAR_THRESHOLD * 0.7, COND_SINGULAR_THRESHOLD * 1.4]
            for c in targets * 4:
                Q = random_unitary(rng, n)
                parts.append(((Q * np.geomspace(1.0, 1.0 / c, n)) @ Q.conj().T)[None])
        M = np.concatenate(parts)[rng.permutation(sum(len(p) for p in parts))]
        solvable, warn, cond = cond_oracle_gate(M)
        assert solvable.any() and not solvable.all()
        if n >= 2:
            assert warn.any() and (cond > COND_WARN_THRESHOLD).sum() > warn.sum()
        active = np.ones(len(M), dtype=bool)
        # large stacks go through the certificate, small ones do not
        for size in (len(M), 5):
            for k in range(0, len(M), size):
                got = _solve_gate(M[k:k + size], active[k:k + size])
                np.testing.assert_array_equal(got[0], solvable[k:k + size])
                np.testing.assert_array_equal(got[1], warn[k:k + size])
                # a warning reports the condition number cond gives
                np.testing.assert_array_equal(got[2][got[1]], cond[k:k + size][got[1]])

    def test_inactive_slices_are_never_solved(self):
        rng = np.random.default_rng(7)
        M = damped_stack(rng, 40, 2)
        active = rng.random(40) < 0.5
        solvable, warn, _ = _solve_gate(M, active)
        assert not (solvable & ~active).any() and not (warn & ~active).any()

    @pytest.mark.parametrize("size", [20, 3], ids=["certified", "small"])
    def test_non_finite_slices_fail_unseen_by_certificate_and_svd(self, monkeypatch, size):
        M = damped_stack(np.random.default_rng(9), size, 2)
        M[1, 0, 0] = np.inf
        M[2, 1, 0] = np.nan
        seen = []
        for name in ("_certified", "_condition_numbers"):
            original = getattr(wgqed.scattering, name)
            monkeypatch.setattr(wgqed.scattering, name,
                                lambda S, f=original: seen.append(S) or f(S))
        solvable, warn, cond = _solve_gate(M, np.ones(size, dtype=bool))
        assert seen and all(np.isfinite(S).all() for S in seen)
        assert not solvable[1:3].any() and not warn[1:3].any() and np.isnan(cond[1:3]).all()
        assert solvable[[0, *range(3, size)]].all()

    @pytest.mark.parametrize("size", [12, 3], ids=["certified", "small"])
    def test_solvable_stack_is_one_solve(self, monkeypatch, size):
        # every slice solvable: the whole stack goes to one np.linalg.solve,
        # nothing to _solve_dark, and the warning slice warns exactly once
        rng = np.random.default_rng(31)
        fields = [random_unit_vector(rng) for _ in range(size - 1)]
        fields.insert(size // 2, _WARN_FIELD)
        solves, dark = count_solves(monkeypatch)
        stacked, stacked_warnings, alone, alone_warnings = scatter_stack_and_alone(
            fields, projection=False)
        assert solves[0] == size and len(solves) == size + 1 and dark == []
        assert len(stacked_warnings) == 1 and stacked_warnings == alone_warnings
        assert stacked == alone and all(err is None for _, _, err in stacked)

    @pytest.mark.parametrize("projection", [False, True], ids=["plain", "projected"])
    def test_mixed_stack_matches_each_slice_alone(self, monkeypatch, projection):
        rng = np.random.default_rng(32)
        fields = [random_unit_vector(rng) for _ in range(6)]
        for k, field in ((1, _DARK_FIELD), (3, _OVERFLOW_FIELD), (4, _WARN_FIELD),
                         (6, _INACTIVE_FIELD)):
            fields.insert(k, field)
        stacks = capture_response_stacks(monkeypatch)
        stacked, stacked_warnings, alone, alone_warnings = scatter_stack_and_alone(
            fields, projection)
        monkeypatch.undo()
        cond = np.linalg.cond(stacks[0][4])
        assert COND_WARN_THRESHOLD < cond <= COND_SINGULAR_THRESHOLD
        assert np.allclose(stacks[0][6], 0.0) and not np.isfinite(stacks[0][3]).all()
        assert stacked == alone and stacked_warnings == alone_warnings
        assert len(stacked_warnings) == 1
        failed = [t for t, (_, _, err) in enumerate(stacked) if err is not None]
        assert failed == ([3] if projection else [1, 3])

    def test_overflowing_response_fails_each_point(self):
        model = EmitterModel.from_arrays([0.0], [1.0], [[[1e200, 0, 0]]])
        pts = polarization_sweep(model, make_env([1, 0, 0]), LossModel.isotropic(0.2),
                                 ScatterInput(), [0.0, 0.1])
        assert [str(pt.error) for pt in pts] == ["response matrix overflows"] * 2

    def test_overflowing_uncoupled_channel_fails_the_point(self):
        # the input ground state does not couple to the field, but the
        # coupling of the other one overflows: the amplitudes are not finite
        model = EmitterModel.from_arrays([0.0, 0.0], [1.0], [[[0, 1, 0]], [[1e200, 0, 0]]])
        with pytest.raises(NonPhysicalStateError):
            scatter(model, make_env([1e200, 0, 0]), LossModel.none(), ScatterInput())

    def test_warnings_and_failures_match_cond_oracle(self, monkeypatch):
        env = make_env([1, 0, 0], **X_ENV)
        thetas = np.concatenate(([0.0, 1e-9, 1e-7, 1e-6, 1e-5, np.pi / 2],
                                 np.linspace(0.05, 3.0, 12)))
        # a loss tensor with a tolerated negative decay rate of -1e-11 along
        # the second dipole, and the lossless V system
        c, s = np.cos(0.3), np.sin(0.3)
        R = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        negative = LossModel.from_array(1j * R @ np.diag([1.0, 0.5, -1e-11]) @ R.T)
        tilted = EmitterModel.from_arrays([0.0], [1.0, 1.0], [[[1, 0, 0], list(R[:, 2])]])
        cases = [(tilted, negative), (paradox_model(), LossModel.none())]
        seen_warnings = seen_failures = 0
        for model, loss in cases:
            for projection in (False, True):
                stacks = capture_response_stacks(monkeypatch)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    pts = polarization_sweep(model, env, loss, ScatterInput(), thetas,
                                             dark_state_projection=projection)
                monkeypatch.undo()
                (M,) = stacks
                solvable, warn, cond = cond_oracle_gate(M)
                messages = [str(w.message) for w in caught
                            if issubclass(w.category, IllConditionedResponseWarning)]
                assert messages == [
                    f"response matrix condition number {v:.3e} exceeds "
                    f"{COND_WARN_THRESHOLD:.0e}" for v in cond[warn]
                ]
                if not projection:
                    assert [pt.failed for pt in pts] == (~solvable).tolist()
                seen_warnings += len(messages)
                seen_failures += sum(pt.failed for pt in pts)
        assert seen_warnings > 0 and seen_failures > 0

    @pytest.mark.parametrize("model", [paradox_model(), ixi_model()], ids=["V", "ixi"])
    def test_lossy_sweep_takes_no_singular_values(self, monkeypatch, model):
        # and is one stacked solve
        slices = count_singular_values(monkeypatch)
        solves, dark = count_solves(monkeypatch)
        pts = polarization_sweep(model, make_env([1, 0, 0], **X_ENV),
                                 LossModel.isotropic(0.2), ScatterInput(),
                                 np.linspace(0.0, np.pi, 401))
        assert slices == [] and not any(pt.failed for pt in pts)
        assert solves == [401] and dark == []

    def test_lossless_projected_sweep_takes_singular_values_at_dark_points(
            self, monkeypatch):
        slices = count_singular_values(monkeypatch)
        pts = polarization_sweep(paradox_model(), make_env([1, 0, 0], **X_ENV),
                                 LossModel.none(), ScatterInput(),
                                 np.linspace(0.0, np.pi, 401), dark_state_projection=True)
        # theta = 0, pi/2 and pi, where one dipole is dark
        assert 0 < sum(slices) <= 3 and not any(pt.failed for pt in pts)

    def test_singular_stack_raises_no_floating_point_error(self):
        thetas = np.linspace(0.0, np.pi, 41)            # holds 0, pi/2 and pi
        with np.errstate(all="raise"):
            pts = polarization_sweep(paradox_model(), make_env([1, 0, 0], **X_ENV),
                                     LossModel.none(), ScatterInput(), thetas,
                                     dark_state_projection=True)
            M = np.zeros((12, 2, 2), dtype=complex)
            M[::2] = np.eye(2)
            for stack in (M, M[:3]):
                solvable, warn, cond = _solve_gate(stack, np.ones(len(stack), dtype=bool))
                assert solvable.tolist() == [k % 2 == 0 for k in range(len(stack))]
                assert not warn.any() and np.isinf(cond[1::2]).all()
        assert not any(pt.failed for pt in pts)
