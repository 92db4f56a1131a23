"""Scattering amplitudes: exact anchor values, conservation, equivalences."""


import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wgqed.scattering
from wgqed import (
    MODES,
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
from wgqed.cli import preset
from wgqed.scattering import (
    COND_SINGULAR_THRESHOLD,
    COND_WARN_THRESHOLD,
    _ELIMINATE_FROM,
    _ELIMINATE_MAX_N,
    _condition_numbers,
    _eliminate,
    _gate_conditions,
    _scatter_fields,
    _solve_gate,
)

from conftest import (
    DYADIC_SHIFT,
    FUZZ_LEAVES,
    dyadic_instance,
    make_env,
    oracle_loss_probability,
    oracle_scatter,
    paradox_model,
    random_loss_tensor,
    random_model,
    random_unit_vector,
    random_unitary,
    scaled_objects,
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
    @pytest.mark.parametrize("frequency", [np.nan, np.inf, -np.inf, 10**400, -10**400])
    def test_non_finite_photon_frequency_rejected(self, frequency):
        # an integer beyond the float range is no finite frequency either
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

    @pytest.mark.parametrize("direction", ["sideways", "Forward", None, np.array("forward")])
    def test_unknown_direction_rejected(self, direction):
        # a 0-d array equals a mode name but is no str, and cannot be hashed
        with pytest.raises(ValueError, match="direction must be one of"):
            ScatterInput(direction)

    @settings(max_examples=200, deadline=None)
    @given(direction=st.one_of(st.sampled_from(MODES), st.sampled_from(MODES).map(np.array),
                               FUZZ_LEAVES),
           index=st.one_of(st.integers(0, 3), st.integers(0, 3).map(np.int64), FUZZ_LEAVES),
           frequency=st.one_of(st.none(), st.floats(), st.floats().map(np.float64),
                               FUZZ_LEAVES))
    def test_every_valid_input_can_be_hashed(self, direction, index, frequency):
        try:
            inp = ScatterInput(direction, index, frequency)
        except ValueError:
            return
        assert type(inp.direction) is str and inp.direction in MODES
        assert hash(inp) == hash(ScatterInput(direction, index, frequency))

    @pytest.mark.parametrize("index", [1, 5])
    def test_ground_index_beyond_the_model_rejected(self, index):
        # an index the input takes but the model has no ground state for
        with pytest.raises(IndexError, match=f"ground index {index} out of range"):
            scatter(two_level(), make_env([1, 0, 0]), LossModel.isotropic(0.2),
                    ScatterInput("forward", index))

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

    def test_equal_records_compare_by_their_arrays(self):
        # as for any tuple that holds arrays, == of two records from separate
        # calls reaches the arrays and raises; their array fields compare
        a, b = (polarization_sweep(paradox_model(), make_env([1, 0, 0]),
                                   LossModel.isotropic(0.2), ScatterInput(), [0.3])[0]
                for _ in range(2))
        for x, y in ((a, b), (a.result, b.result)):
            with pytest.raises(ValueError, match="ambiguous"):
                x == y
        assert a.theta == b.theta
        assert np.array_equal(a.result.amplitudes, b.result.amplitudes)
        assert np.array_equal(a.result.output_frequencies, b.result.output_frequencies)


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

    @pytest.mark.parametrize("detuning", [np.nan, np.inf, -np.inf, True, "0.1"])
    def test_detuning_that_is_no_finite_number_rejected(self, detuning):
        # an infinite detuning is named, not left to overflow the denominator
        with pytest.raises(ValueError, match="detuning"):
            two_level_closed_form(PolarizationVector([1, 0, 0]), make_env([1, 0, 0]),
                                  LossModel.isotropic(0.2), detuning)

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
        # the scale z and the sign of v_g only rescale internals. So does a
        # dipole scale s with every excited detuning from E_int scaled by
        # s^2: M scales by s^2 and each coupling by s, so the amplitudes,
        # lossy or not, do not change
        for kwargs in ({"v_g": -0.1}, {"a": 3.0, "omega": 0.5},
                       {"a": 0.7, "omega": 1.3, "v_g": -0.25}):
            model = random_model(rng, 2, 2)
            env = make_env(random_unit_vector(rng), **kwargs)
            E_int = model.ground_energies[0] + env.omega
            for loss in (LossModel.none(), random_loss_tensor(rng)):
                res = scatter(model, env, loss, ScatterInput())
                if loss == LossModel.none():
                    assert abs(np.sum(np.abs(res.amplitudes) ** 2) - 1.0) < 1e-10
                for s in (0.5, 3.0):
                    detunings = np.asarray(model.excited_energies) - E_int
                    scaled = EmitterModel.from_arrays(model.ground_energies,
                                                      E_int + s**2 * detunings,
                                                      s * model.dipole_array())
                    amplitudes = scatter(scaled, env, loss, ScatterInput()).amplitudes
                    assert np.max(np.abs(amplitudes - res.amplitudes)) < 1e-12

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
            t, r, p_loss = two_level_closed_form(model.dipole_array()[0, 0], env, loss, detuning)
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


def conjugate_dipoles(model: EmitterModel) -> EmitterModel:
    return EmitterModel.from_arrays(model.ground_energies, model.excited_energies,
                                    model.dipole_array().conj())


def reverse_amplitude(model, env, loss, photon_frequency, m, k, n, r):
    """gamma(n-bar, r | m-bar, k): the photon sent back from output mode m
    and ground state k, at the frequency that keeps the total energy."""
    g = model.ground_energies
    inp = ScatterInput(MODES[1 - m], k, photon_frequency + g[r] - g[k])
    return scatter(model, env, loss, inp).amplitudes[1 - n, r]


class TestReciprocity:
    """Time reversal swaps input and output: a photon in mode n from ground r
    that leaves in mode m with the emitter in ground k reverses into one in
    mode m-bar from ground k that leaves in mode n-bar in ground r, with
    conjugated dipoles. The loss tensor is symmetric, so M(D*) = M(D)^T and

        gamma(m, k | n, r; D) = gamma(n-bar, r | m-bar, k; D*).

    A circular dipole couples unequally to the two directions (the chiral
    couplings of Lodahl et al., Nature 541, 473 (2017)), so the same dipoles
    in both directions do not satisfy it."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_g=st.integers(1, 3), n_e=st.integers(1, 3),
           split_grounds=st.booleans(), tensor_loss=st.booleans())
    def test_amplitudes_obey_generalized_reciprocity(self, seed, n_g, n_e, split_grounds,
                                                     tensor_loss):
        rng = np.random.default_rng(seed)
        ground = rng.uniform(-0.3, 0.3, n_g) if split_grounds else np.zeros(n_g)
        excited = 1.0 + rng.uniform(-0.4, 0.4, n_e)
        D = rng.normal(size=(n_g, n_e, 3)) + 1j * rng.normal(size=(n_g, n_e, 3))
        model = EmitterModel.from_arrays(ground, excited, D)
        conjugated = conjugate_dipoles(model)
        env = make_env(random_unit_vector(rng))
        loss = (random_loss_tensor(rng) if tensor_loss
                else LossModel.isotropic(float(rng.uniform(0.0, 0.3))))
        omega_f = float(rng.uniform(0.5, 1.5))
        for n, r in np.ndindex(2, n_g):
            forward = scatter(model, env, loss, ScatterInput(MODES[n], r, omega_f)).amplitudes
            for m, k in np.ndindex(2, n_g):
                reverse = reverse_amplitude(conjugated, env, loss, omega_f, m, k, n, r)
                assert abs(forward[m, k] - reverse) < 1e-12

    def test_real_dipoles_obey_plain_reciprocity(self, rng):
        for i in range(40):
            n_g = int(rng.integers(1, 4))
            model = EmitterModel.from_arrays(rng.uniform(-0.3, 0.3, n_g),
                                             1.0 + rng.uniform(-0.4, 0.4, 2),
                                             rng.normal(size=(n_g, 2, 3)))
            assert conjugate_dipoles(model) == model
            env = make_env(random_unit_vector(rng))
            loss = (LossModel.isotropic(float(rng.uniform(0.0, 0.3))) if i % 2
                    else random_loss_tensor(rng))
            n, r = int(rng.integers(0, 2)), int(rng.integers(0, n_g))
            forward = scatter(model, env, loss, ScatterInput(MODES[n], r, 1.0)).amplitudes
            for m, k in np.ndindex(2, n_g):
                reverse = reverse_amplitude(model, env, loss, 1.0, m, k, n, r)
                assert abs(forward[m, k] - reverse) < 1e-12

    @pytest.mark.parametrize("name", ["isotropic-scan", "ixi-scan"])
    def test_backward_transmission_is_forward_with_conjugated_dipoles(self, name):
        config = preset(name)
        model, env, loss, _, _ = config.built
        sweep = config.sweep
        thetas = np.linspace(sweep["start"], sweep["stop"], sweep["steps"])
        for r in range(model.n_ground):
            backward = polarization_sweep(model, env, loss, ScatterInput("backward", r),
                                          thetas)
            forward = polarization_sweep(conjugate_dipoles(model), env, loss,
                                         ScatterInput("forward", r), thetas)
            t_b = np.array([pt.result.transmission for pt in backward])
            t_f = np.array([pt.result.transmission for pt in forward])
            assert np.max(np.abs(t_b - t_f)) < 1e-12


def ground_maps(model, env, loss, direction, photon_frequency=None) -> np.ndarray:
    """The single-photon maps on the ground manifold, ``S[m, k, r] = gamma(m,
    k | r)`` per output mode ``m``, from one ``scatter`` per input ground
    state ``r``."""
    return np.stack([
        scatter(model, env, loss, ScatterInput(direction, r, photon_frequency)).amplitudes
        for r in range(model.n_ground)
    ], axis=-1)


class TestGroundBasisCovariance:
    """A new basis of a degenerate ground manifold, ``D'[a] = sum_k W[a, k]
    D[k]`` with ``W`` unitary, carries each mode's map along as ``W S W^dagger``:
    the amplitudes are those of the same physical process."""

    def test_each_mode_map_rotates_as_w_s_w_dagger(self, rng):
        worst = worst_transposed = 0.0
        for _ in range(50):
            n_g, n_e = int(rng.integers(2, 4)), int(rng.integers(1, 4))
            D = rng.normal(size=(n_g, n_e, 3)) + 1j * rng.normal(size=(n_g, n_e, 3))
            excited = 1.0 + rng.uniform(-0.4, 0.4, n_e)
            W = random_unitary(rng, n_g)
            model = EmitterModel.from_arrays(np.zeros(n_g), excited, D)
            rotated = EmitterModel.from_arrays(np.zeros(n_g), excited,
                                               np.einsum("ak,kei->aei", W, D))
            env = make_env(random_unit_vector(rng))
            loss = LossModel.isotropic(float(rng.uniform(0.0, 0.3)))
            omega_f = float(rng.uniform(0.7, 1.3))    # off resonance
            for direction in MODES:
                S = ground_maps(model, env, loss, direction, omega_f)
                S_rot = ground_maps(rotated, env, loss, direction, omega_f)
                worst = max(worst, np.abs(S_rot - W @ S @ W.conj().T).max())
                worst_transposed = max(worst_transposed,
                                       np.abs(S_rot - W.conj() @ S @ W.T).max())
        assert worst < 1e-12
        # the conjugate rule W* S W^T is told apart
        assert worst_transposed > 0.5


class TestParityFromComposedMaps:
    """The abstract's parity measurement, from single-photon maps alone. On
    ``ixi`` at circular polarization a forward photon acts on the ground
    state as ``S_f = (1 - beta) I - beta sigma_x`` and is never reflected,
    with ``beta = Gamma / (Gamma + s_tot)``: Gamma = 10 is the guided rate of
    each excited state and ``s_tot = 2 loss`` its loss rate (two unit
    transitions). Well separated photons that all leave forward compose as
    ``S_f^n``; its eigenvalues are 1 on ``|->`` and ``1 - 2 beta`` on ``|+>``,
    so ``S_f^n = P_- + (1 - 2 beta)^n P_+`` with ``P_+- = (I +- sigma_x) / 2``."""

    SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])

    @staticmethod
    def beta(loss: float) -> float:
        return 10.0 / (10.0 + 2.0 * loss)

    @pytest.mark.parametrize("loss", [0.2, 2e-3, 0.0])
    def test_forward_map_is_closed_form_and_nothing_reflects(self, loss):
        S_f, S_b = ground_maps(ixi_model(), circular_env(), LossModel.isotropic(loss),
                               "forward")
        beta = self.beta(loss)
        np.testing.assert_allclose(S_f, (1 - beta) * np.eye(2) - beta * self.SIGMA_X,
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(S_b, 0.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("loss", [0.2, 2e-3, 0.0])
    def test_photon_trains_compose_as_the_eigen_closed_form(self, loss):
        S_f, _ = ground_maps(ixi_model(), circular_env(), LossModel.isotropic(loss),
                             "forward")
        lam = 1 - 2 * self.beta(loss)
        P_plus, P_minus = (np.eye(2) + self.SIGMA_X) / 2, (np.eye(2) - self.SIGMA_X) / 2
        for n in range(101):
            np.testing.assert_allclose(np.linalg.matrix_power(S_f, n),
                                       P_minus + lam ** n * P_plus, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("loss,expected", [
        (0.2, [(1, 0.924556, 5e-7), (2, 0.857542, 5e-7), (3, 0.797920, 5e-7),
               (10, 0.524999589, 5e-10)]),
        (0.0, [(n, 1.0, 1e-15) for n in (1, 2, 3, 10)]),
    ], ids=["loss-0.2", "lossless"])
    def test_all_forward_right_parity_probability(self, loss, expected):
        # from ground state 1, n photons that all leave forward put the
        # emitter in ground state 1 + (n mod 2): the photon-number parity
        S_f, _ = ground_maps(ixi_model(), circular_env(), LossModel.isotropic(loss),
                             "forward")
        for n, probability, tol in expected:
            amplitude = np.linalg.matrix_power(S_f, n)[n % 2, 0]
            assert abs(amplitude) ** 2 == pytest.approx(probability, rel=0, abs=tol)

    @pytest.mark.parametrize("loss", [0.2, 0.0])
    def test_real_dipoles_read_the_parity_backward(self, loss):
        # real crossed dipoles: a forward photon passes with no flip, and the
        # flip rides on the reflected photon, S_b = -i beta sigma_x
        S_f, S_b = ground_maps(ixi_model(phase=1.0), circular_env(),
                               LossModel.isotropic(loss), "forward")
        beta = self.beta(loss)
        np.testing.assert_allclose(S_f, (1 - beta) * np.eye(2), rtol=0, atol=1e-15)
        np.testing.assert_allclose(S_b, -1j * beta * self.SIGMA_X, rtol=0, atol=1e-15)


class TestReflectToTransmitSwitch:
    """The abstract's switch from full reflection to full transmission under
    an infinitesimal rotation of the field, as a limit in loss.

    On the ``isotropic-scan`` model (dipoles x and y, ``E_f = (cos t, i sin
    t, 0)``, ``z = a omega / (2 |v_g|) = 5``) a forward photon on resonance
    meets ``H_eff - omega = -(i/2) (z sum_m B_m B_m^dagger + s I)`` with
    ``B_f = (cos t, -i sin t)`` and ``B_b = (cos t, i sin t)`` the couplings
    to the two modes; their cross terms cancel, so the 2x2 resolvent is
    diagonal with rates ``2 z cos^2 t + s`` and ``2 z sin^2 t + s``. The
    x dipole reflects with ``-cos^2 t / (cos^2 t + eps)`` and the y dipole
    with ``+sin^2 t / (sin^2 t + eps)``, ``eps = s / (2 z)``:

        |r|^2 = (cos^2 t / (cos^2 t + eps) - sin^2 t / (sin^2 t + eps))^2.

    For small ``t`` and ``eps``, ``|r|^2 = 1 / (1 + t^2 / eps)^2``, which is
    1/2 at ``t_half = sqrt((sqrt 2 - 1) eps)``: the width of the switch goes
    as ``sqrt(s)``."""

    Z = 5.0
    LOSSES = (1e-2, 1e-4, 1e-6, 1e-8)
    MODEL = preset("isotropic-scan").built.model

    def result(self, theta: float, s: float):
        env = make_env([np.cos(theta), 1j * np.sin(theta), 0.0], **X_ENV)
        return scatter(self.MODEL, env, LossModel.isotropic(s), ScatterInput("forward", 0))

    def closed_form(self, theta: float, s: float) -> float:
        eps = s / (2 * self.Z)
        c2, s2 = np.cos(theta) ** 2, np.sin(theta) ** 2
        return (c2 / (c2 + eps) - s2 / (s2 + eps)) ** 2

    @staticmethod
    def half_point(reflectance) -> float:
        """The angle in (0, pi/4) where ``reflectance`` falls through 1/2,
        bisected until the bracket cannot shrink."""
        lo, hi = 0.0, np.pi / 4
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if reflectance(mid) > 0.5 else (lo, mid)
        return mid

    def test_half_angle_matches_closed_form_and_scales_as_sqrt_loss(self):
        limit = np.sqrt((np.sqrt(2) - 1) / (2 * self.Z))
        assert limit == pytest.approx(0.2035224, abs=1e-7)
        for s in self.LOSSES:
            half = self.half_point(lambda t: abs(self.result(t, s).reflection) ** 2)
            closed = self.half_point(lambda t: self.closed_form(t, s))
            assert half == pytest.approx(closed, rel=1e-9, abs=0)
            # the next order is O(s): -0.234 s relative
            assert abs(half / np.sqrt(s) / limit - 1) < s

    def test_full_reflection_and_transmission_in_the_lossless_limit(self):
        miss_r0 = [1 - abs(self.result(0.0, s).reflection) ** 2 for s in self.LOSSES]
        miss_t = [1 - abs(self.result(1e-2, s).transmission) ** 2 for s in self.LOSSES]
        # at t = 0 only the x dipole couples: |r|^2 = 1 / (1 + eps)^2
        assert all(0 < miss < s for miss, s in zip(miss_r0, self.LOSSES))
        # a fixed rotation of 1e-2 transmits ever more as the loss vanishes
        assert all(a > b > 0 for a, b in zip(miss_t, miss_t[1:]))
        assert miss_t[-1] < 1e-4


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
                env = make_env([np.cos(pt.theta), 1j * np.sin(pt.theta), 0], **X_ENV)
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
            env = make_env([np.cos(pt.theta), 1j * np.sin(pt.theta), 0], **X_ENV)
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


def gate(M: np.ndarray, active: np.ndarray):
    """The engine's gate on the finite stack ``M``: its solvable and warn
    masks and the condition numbers they were read from."""
    cond = _gate_conditions(M, active)
    return (*_solve_gate(active, cond), cond)


def cond_oracle_gate(M: np.ndarray):
    """The gate as np.linalg.cond decides it for every slice."""
    cond = np.linalg.cond(M)
    solvable = np.isfinite(cond) & (cond <= COND_SINGULAR_THRESHOLD)
    return solvable, solvable & (cond > COND_WARN_THRESHOLD), cond


def count_singular_values(monkeypatch) -> tuple[list, list]:
    """Slices handed to np.linalg.svd, and to np.linalg.cond, from now on."""
    svd_slices, cond_slices = [], []

    def counting(fn, slices):
        def wrapper(a, *args, **kwargs):
            slices.append(len(a) if np.ndim(a) == 3 else 1)
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd, svd_slices))
    monkeypatch.setattr(np.linalg, "cond", counting(np.linalg.cond, cond_slices))
    return svd_slices, cond_slices


def capture_response_stacks(monkeypatch) -> list:
    """The response stacks M (T, n, n) the scattering engine forms, rebuilt
    bit for bit from the stack-last effective Hamiltonians it assembles."""
    stacks = []
    assemble = wgqed.scattering.effective_hamiltonian

    def spy(D, K, detunings, env, loss):
        H = assemble(D, K, detunings, env, loss)
        stacks.append(((1j / env.z) * H).transpose(2, 0, 1))
        return H

    monkeypatch.setattr(wgqed.scattering, "effective_hamiltonian", spy)
    return stacks


def count_solves(monkeypatch) -> tuple[list, list, list]:
    """From now on, the slice counts of the stacks handed to np.linalg.solve,
    to _eliminate and to np.linalg.eigh, which finds the dark directions of
    the slices the gate refuses."""
    solves, eliminations, dark = [], [], []
    solve, eliminate, eigh = np.linalg.solve, wgqed.scattering._eliminate, np.linalg.eigh

    def counting_solve(a, b):
        solves.append(len(a) if np.ndim(a) == 3 else 1)
        return solve(a, b)

    def counting_eliminate(A, b):
        eliminations.append(A.shape[-1])
        return eliminate(A, b)

    def counting_eigh(a, *args, **kwargs):
        dark.append(len(a) if np.ndim(a) == 3 else 1)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(wgqed.scattering, "_eliminate", counting_eliminate)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return solves, eliminations, dark


# forward fields of the lossless V system: a warning slice (condition number
# near 1e14), a dark one, one that no dipole absorbs, one whose response
# overflows, and ordinary ones
_WARN_FIELD = [np.cos(1e-7), 1j * np.sin(1e-7), 0.0]
_DARK_FIELD, _INACTIVE_FIELD, _OVERFLOW_FIELD = [1, 0, 0], [0, 0, 1], [1e200, 0, 0]


def scatter_stack_and_alone(fields, projection: bool):
    """The stacked engine at every field, and :func:`scatter` at each field
    alone: for each, the (amplitude bytes, p_loss, error) of every field and
    the warning messages, in order. The engine's stacked arrays are read-only
    and nan in each failed slice."""
    model, template = paradox_model(), make_env([1, 0, 0], **X_ENV)
    loss, inp = LossModel.none(), ScatterInput()

    def outcome(amplitudes, p_loss, error):
        if error is not None:
            return None, None, (type(error), str(error))
        return amplitudes.tobytes(), float(p_loss).hex(), None

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        amplitudes, p_loss, frequencies, errors = _scatter_fields(
            model, template, loss, inp, np.array(fields, dtype=complex), projection)
    assert amplitudes.shape == (len(fields), 2, 1) and p_loss.shape == (len(fields),)
    assert not any(a.flags.writeable for a in (amplitudes, p_loss, frequencies))
    failed = sorted(errors)
    assert np.isnan(amplitudes[failed].real).all() and np.isnan(amplitudes[failed].imag).all()
    assert np.isnan(p_loss[failed]).all()
    stacked = [outcome(a, p, errors.get(t)) for t, (a, p) in enumerate(zip(amplitudes, p_loss))]
    stacked_warnings = [str(w.message) for w in caught]
    alone, alone_warnings = [], []
    for field in fields:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                res = scatter(model, make_env(field, **X_ENV), loss, inp,
                              dark_state_projection=projection)
                alone.append(outcome(res.amplitudes, res.p_loss, None))
            except (SingularResponseError, NonPhysicalStateError) as error:
                alone.append(outcome(None, None, error))
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
                got = gate(M[k:k + size], active[k:k + size])
                np.testing.assert_array_equal(got[0], solvable[k:k + size])
                np.testing.assert_array_equal(got[1], warn[k:k + size])
                # every condition number the gate computes (a certified or
                # inactive slice reads 0) is the one cond gives, to the bit
                computed = got[2] != 0
                assert computed.all() or size == len(M)
                np.testing.assert_array_equal(got[2][computed], cond[k:k + size][computed])

    def test_inactive_slices_are_never_solved(self):
        rng = np.random.default_rng(7)
        M = damped_stack(rng, 40, 2)
        active = rng.random(40) < 0.5
        solvable, warn, _ = gate(M, active)
        assert not (solvable & ~active).any() and not (warn & ~active).any()

    @pytest.mark.parametrize("size", [20, 3], ids=["certified", "small"])
    def test_non_finite_slices_fail_unseen_by_certificate_and_svd(self, monkeypatch, size):
        # the response of slice 1 overflows to inf, that of slice 2 to nan;
        # the engine fails both before the gate, which sees the identity
        rng = np.random.default_rng(9)
        fields = np.array([random_unit_vector(rng) for _ in range(size)])
        fields[1] = _OVERFLOW_FIELD
        fields[2] = [np.inf, 0, 0]
        seen = []
        for name in ("_certified", "_condition_numbers"):
            original = getattr(wgqed.scattering, name)
            monkeypatch.setattr(wgqed.scattering, name,
                                lambda S, f=original: seen.append(S) or f(S))
        amplitudes, p_loss, _, errors = _scatter_fields(
            paradox_model(), make_env([1, 0, 0], **X_ENV), LossModel.isotropic(0.2),
            ScatterInput(), fields, False)
        assert seen and all(np.isfinite(S).all() for S in seen)
        assert sorted(errors) == [1, 2]
        assert all(isinstance(exc, NonPhysicalStateError)
                   and str(exc) == "response matrix overflows" for exc in errors.values())
        assert np.isnan(p_loss[1:3]).all() and np.isfinite(np.delete(p_loss, [1, 2])).all()

    @pytest.mark.parametrize("size", [12, 3], ids=["certified", "small"])
    def test_solvable_stack_is_one_solve(self, monkeypatch, size):
        # every slice solvable: the whole stack goes to one np.linalg.solve,
        # none to np.linalg.eigh, and the warning slice warns exactly once
        rng = np.random.default_rng(31)
        fields = [random_unit_vector(rng) for _ in range(size - 1)]
        fields.insert(size // 2, _WARN_FIELD)
        solves, eliminations, dark = count_solves(monkeypatch)
        stacked, stacked_warnings, alone, alone_warnings = scatter_stack_and_alone(
            fields, projection=False)
        assert solves[0] == size and len(solves) == size + 1 and eliminations == dark == []
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
        solves, _, _ = count_solves(monkeypatch)
        stacked, stacked_warnings, alone, alone_warnings = scatter_stack_and_alone(
            fields, projection)
        monkeypatch.undo()
        assert solves[0] == len(fields)     # one solve of every slice, failed ones too
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
        # and is one elimination over the whole stack
        svd, cond = count_singular_values(monkeypatch)
        solves, eliminations, dark = count_solves(monkeypatch)
        pts = polarization_sweep(model, make_env([1, 0, 0], **X_ENV),
                                 LossModel.isotropic(0.2), ScatterInput(),
                                 np.linspace(0.0, np.pi, 401))
        assert svd == cond == [] and not any(pt.failed for pt in pts)
        assert eliminations == [401] and solves == dark == []

    @pytest.mark.parametrize("T, n_e, solver", [
        (_ELIMINATE_FROM - 1, 2, "lapack"), (_ELIMINATE_FROM, 2, "eliminate"),
        (_ELIMINATE_FROM, _ELIMINATE_MAX_N, "eliminate"),
        (401, _ELIMINATE_MAX_N + 1, "lapack"),
    ])
    def test_stack_size_and_excited_manifold_choose_the_solver(self, monkeypatch, T, n_e,
                                                               solver):
        model = random_model(np.random.default_rng(40 + n_e), 2, n_e)
        solves, eliminations, dark = count_solves(monkeypatch)
        pts = polarization_sweep(model, make_env([1, 0, 0], **X_ENV),
                                 LossModel.isotropic(0.2), ScatterInput(),
                                 np.linspace(0.0, np.pi, T))
        assert len(pts) == T and not any(pt.failed for pt in pts)
        assert (solves, eliminations) == (([T], []) if solver == "lapack" else ([], [T]))
        assert dark == []

    def test_lossless_projected_sweep_takes_singular_values_at_dark_points(
            self, monkeypatch):
        svd, cond = count_singular_values(monkeypatch)
        solves, eliminations, dark = count_solves(monkeypatch)
        pts = polarization_sweep(paradox_model(), make_env([1, 0, 0], **X_ENV),
                                 LossModel.none(), ScatterInput(),
                                 np.linspace(0.0, np.pi, 401), dark_state_projection=True)
        # theta = 0, pi/2 and pi, where one dipole is dark
        assert 0 < sum(svd) <= 3 and cond == [] and not any(pt.failed for pt in pts)
        # the gate refuses those three, and they join the one elimination
        assert dark == [3] and eliminations == [401] and solves == []

    @pytest.mark.parametrize("case", ["lossy 2x2", "lossless 1x1"])
    def test_single_point_is_one_svd_slice_and_one_solve(self, monkeypatch, case):
        # a stack of one is too small to certify: it takes the singular
        # values of its one slice, never np.linalg.cond, and one solve
        if case == "lossy 2x2":
            model, loss = ixi_model(), LossModel.isotropic(0.2)
        else:
            model, loss = two_level(), LossModel.none()
        env, inp = circular_env(), ScatterInput(photon_frequency=0.9)
        svd, cond = count_singular_values(monkeypatch)
        solves, eliminations, dark = count_solves(monkeypatch)
        res = scatter(model, env, loss, inp)
        assert svd == [1] and cond == [] and solves == [1] and eliminations == dark == []
        assert np.isfinite(res.amplitudes).all()

    def test_singular_stack_raises_no_floating_point_error(self):
        thetas = np.linspace(0.0, np.pi, 41)            # holds 0, pi/2 and pi
        with np.errstate(all="raise"):
            pts = polarization_sweep(paradox_model(), make_env([1, 0, 0], **X_ENV),
                                     LossModel.none(), ScatterInput(), thetas,
                                     dark_state_projection=True)
            M = np.zeros((12, 2, 2), dtype=complex)
            M[::2] = np.eye(2)
            for stack in (M, M[:3]):
                solvable, warn, cond = gate(stack, np.ones(len(stack), dtype=bool))
                assert solvable.tolist() == [k % 2 == 0 for k in range(len(stack))]
                assert not warn.any() and np.isinf(cond[1::2]).all()
        assert not any(pt.failed for pt in pts)


class TestCleanStack:
    """A stack whose every slice is finite, has input and is well
    conditioned goes to the solve as it stands: the gate builds no mask,
    pads no slice and warns about none. Any other stack gets the same
    answers it did before."""

    @pytest.mark.parametrize("kind", ["no zero", "one zero slice", "all zero"])
    def test_condition_numbers_are_cond_and_raise_nothing(self, kind):
        M = damped_stack(np.random.default_rng(60), 10, 3)
        if kind == "one zero slice":
            M[4] = 0.0
        elif kind == "all zero":
            M[:] = 0.0
        with np.errstate(all="raise"):
            cond = _condition_numbers(M)
        assert cond.tobytes() == np.linalg.cond(M).tobytes()
        assert np.isinf(cond).sum() == {"no zero": 0, "one zero slice": 1, "all zero": 10}[kind]

    def test_clean_point_and_sweep_skip_the_gate_bookkeeping(self, monkeypatch):
        config = preset("isotropic-scan")
        model, env, loss, inp, _ = config.built
        sweep = config.sweep
        thetas = np.linspace(sweep["start"], sweep["stop"], sweep["steps"])
        point = (ixi_model(), circular_env(), LossModel.isotropic(0.2),
                 ScatterInput(photon_frequency=0.9))

        def refuse(*args):
            raise AssertionError("a clean stack entered the gate's bookkeeping")

        for name in ("_solve_gate", "_identity_outside"):
            monkeypatch.setattr(wgqed.scattering, name, refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = scatter(*point)
            pts = polarization_sweep(model, env, loss, inp, thetas)
        assert loss.as_array().any() and point[2].as_array().any()
        assert np.isfinite(res.amplitudes).all() and res.p_loss > 0.0
        assert len(pts) == 401 and not any(pt.failed for pt in pts)

    @pytest.mark.parametrize("size", [5, 12], ids=["small", "certified"])
    @pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
    def test_input_free_slice_keeps_its_stack_of_one_bits(self, monkeypatch, size, lossy):
        # lossless, the input-free slice's response is 0, which no solve
        # survives; lossy, LAPACK would solve it, and the identity still
        # stands in for it
        rng = np.random.default_rng(61)
        fields = [random_unit_vector(rng) for _ in range(size - 1)]
        fields.insert(size // 2, _INACTIVE_FIELD)
        fields = np.array(fields, dtype=complex)
        model, env = paradox_model(), make_env([1, 0, 0], **X_ENV)
        loss, inp = (LossModel.isotropic(0.2) if lossy else LossModel.none()), ScatterInput()
        entered = []
        gated = wgqed.scattering._gated_solve
        monkeypatch.setattr(wgqed.scattering, "_gated_solve",
                            lambda *args: entered.append(len(args[0])) or gated(*args))
        stacked, stacked_warnings = stacked_outcomes(model, env, loss, inp, fields, False)
        alone, alone_warnings = [], []
        for t in range(size):
            outcome, caught = stacked_outcomes(model, env, loss, inp, fields[t:t + 1], False)
            alone += outcome
            alone_warnings += caught
        assert stacked == alone and stacked_warnings == alone_warnings == []
        assert entered[:2] == [size, 1] and len(entered) == 2   # the input-free slice alone
        # the input-free slice scatters nothing, to +0 in every zero
        delta = np.array([[1.0], [0.0]], dtype=complex)
        assert stacked[size // 2] == (delta.tobytes(), np.float64(0.0).tobytes())


def isotropic_model() -> EmitterModel:
    """The J = 0 -> 1 emitter: one ground state and degenerate x, y and z
    dipoles."""
    return EmitterModel.from_arrays([0.0], [1.0, 1.0, 1.0],
                                    [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]])


class TestIsotropicEmitter:
    """Lossless in a transverse field, the isotropic emitter's z level is dark
    at every polarization, so the gate refuses every slice of a sweep."""

    THETAS = np.linspace(0.0, np.pi, 401)     # cos and sin round off at pi/2 and pi

    def sweep(self, model, projection):
        return polarization_sweep(model, make_env([1, 0, 0], **X_ENV), LossModel.none(),
                                  ScatterInput(), self.THETAS,
                                  dark_state_projection=projection)

    def test_projected_sweep_is_the_v_system_in_one_solve(self, monkeypatch):
        v_system = self.sweep(paradox_model(), True)
        solves, eliminations, dark = count_solves(monkeypatch)
        pts = self.sweep(isotropic_model(), True)
        # one eigh over every refused slice, and no solve but the stacked one
        assert dark == [401] and eliminations == [401] and solves == []
        for pt, v in zip(pts, v_system):
            assert pt.error is None and pt.theta == v.theta
            assert pt.result.amplitudes.tobytes() == v.result.amplitudes.tobytes()
            assert pt.result.p_loss.hex() == v.result.p_loss.hex()

    def test_unprojected_sweep_names_the_dark_directions_at_every_point(self):
        pts = self.sweep(isotropic_model(), False)
        x, y, z = np.eye(3)
        for k, pt in enumerate(pts):
            assert pt.result is None and isinstance(pt.error, SingularResponseError)
            # z, plus y where the field is along x and x where it is along y
            span = {0: [y, z], 200: [x, z], 400: [y, z]}.get(k, [z])
            dark = pt.error.dark_vectors
            assert dark.shape == (3, len(span))
            np.testing.assert_allclose(dark @ dark.conj().T, np.transpose(span) @ span,
                                       atol=1e-15)


class TestSingularCoupledSubspace:
    """Levels detuned by 1e37 and 1e83 dwarf couplings near 1e-12, so rounding
    can leave a refused slice singular in its coupled directions too: that
    slice fails, and the rest of the stack is solved."""

    MODEL = EmitterModel.from_arrays(
        [0.0], [1.0, -1e83, 1e37],
        1e-6 * np.array([[[2, -1, -1j], [1 + 1j, 1j, 1 + 1j], [1, 1, 0]]]))

    def sweep(self, thetas):
        return polarization_sweep(self.MODEL, make_env([1, 0, 0], **X_ENV), LossModel.none(),
                                  ScatterInput(), thetas, dark_state_projection=True)

    @pytest.mark.parametrize("T", [41, 401], ids=["lapack", "eliminate"])
    def test_the_slice_fails_and_the_stack_is_solved(self, T):
        thetas = np.linspace(0.0, np.pi, T)
        pts = self.sweep(thetas)
        failed = [k for k, pt in enumerate(pts) if pt.failed]
        assert failed and all(isinstance(pts[k].error, SingularResponseError)
                              and "coupled subspace to working precision" in str(pts[k].error)
                              for k in failed)
        assert all(np.isfinite(pt.result.amplitudes).all() for pt in pts if not pt.failed)
        # each slice alone (LAPACK) fails where it finds an exact zero pivot;
        # the elimination also fails the slices it leaves non-finite
        alone = [k for k, theta in enumerate(thetas) if self.sweep([theta])[0].failed]
        assert set(alone) <= set(failed)
        if T < _ELIMINATE_FROM:
            assert failed == alone


def stacked_outcomes(model, env, loss, inp, fields, projection):
    """Per slice of the stacked engine at ``fields``: the amplitude and
    p_loss bytes, or the error's type and message; and the warning messages."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        amplitudes, p_loss, _, errors = _scatter_fields(model, env, loss, inp, fields,
                                                        projection)
    assert amplitudes.flags.c_contiguous and amplitudes.shape == (len(fields), 2, model.n_ground)
    outcomes = [(type(errors[t]), str(errors[t])) if t in errors
                else (amplitudes[t].tobytes(), p_loss[t].tobytes()) for t in range(len(fields))]
    return outcomes, [str(w.message) for w in caught]


class TestStackSlices:
    """A slice of a stack is the one-field answer, bit for bit: its
    amplitudes, its p_loss, whether it fails and why, and its warning. With
    projection that holds for the slices the gate refuses too."""

    @pytest.mark.parametrize("seed", range(6))
    def test_slice_equals_stack_of_one(self, seed):
        rng = np.random.default_rng(2700 + seed)
        env = make_env([1, 0, 0], a=0.7, omega=1.3, v_g=-0.2)
        projected = 0
        for case in range(24):
            n_g, n_e = (int(k) for k in rng.integers(1, 4, size=2))
            ground = rng.uniform(-0.3, 0.3, n_g)
            excited = 1.0 + rng.uniform(-0.4, 0.4, n_e)
            D = rng.normal(size=(n_g, n_e, 3)) + 1j * rng.normal(size=(n_g, n_e, 3))
            D[:, 0, 2] = 0.0        # level 0 is dark to a field along z
            r = int(rng.integers(0, n_g))
            model = EmitterModel.from_arrays(ground, excited, D)
            loss = (LossModel.none(), LossModel.isotropic(0.2), random_loss_tensor(rng))[case % 3]
            # on resonance with level 0 in half the cases, so that lossless
            # it is singular at the dark field
            frequency = excited[0] - ground[r] if case % 2 else float(rng.uniform(0.5, 1.5))
            fields = [random_unit_vector(rng) for _ in range(int(rng.integers(0, 14)))]
            # dark, nearly dark (refused), nearly dark (warns), overflowing,
            # non-finite and inactive
            for extra in ([0, 0, 1], [1e-9, 0, 1], [1e-7, 0, 1], [1e200, 0, 0],
                          [np.inf, 0, 0], [0, 0, 0]):
                fields.insert(int(rng.integers(0, len(fields) + 1)), extra)
            fields = np.array(fields, dtype=complex)
            for direction in MODES:
                inp = ScatterInput(direction, r, frequency)
                for projection in (False, True):
                    stacked, stacked_warnings = stacked_outcomes(model, env, loss, inp,
                                                                 fields, projection)
                    alone, alone_warnings = [], []
                    for t in range(len(fields)):
                        outcome, caught = stacked_outcomes(model, env, loss, inp,
                                                           fields[t:t + 1], projection)
                        alone += outcome
                        alone_warnings += caught
                    assert stacked == alone and stacked_warnings == alone_warnings
                    singular = {t for t, (kind, _) in enumerate(stacked)
                                if kind is SingularResponseError}
                    if projection:      # refused slices solved in the stack
                        projected += len(refused - singular)
                    refused = singular
        assert projected > 0


class TestScaleFree:
    """The amplitudes and every decision of the engine (which slices fail and
    why, which warn, which directions are dark) read no energy zero and no
    unit of rate: shifting every level energy, or scaling the detunings by
    s and the dipoles by sqrt(s), and so every rate by s, changes them by
    rounding at most. On the instances of ``dyadic_instance`` the shifted
    and scaled inputs are exact, so rounding here is the engine's alone."""

    ENV = make_env([1, 0, 0], a=0.7, omega=1.3, v_g=-0.2)

    def outcome(self, inst, fields, direction, projection, shift=0.0, s=1.0):
        """Amplitudes, failed slices by type and the number of warnings."""
        model, loss = scaled_objects(inst, shift, s)
        inp = ScatterInput(direction, inst["r"], s * inst["frequency"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            amplitudes, p_loss, _, errors = _scatter_fields(model, self.ENV, loss, inp, fields,
                                                            projection)
        return amplitudes, p_loss, {t: type(exc) for t, exc in errors.items()}, len(caught)

    @pytest.mark.parametrize("seed", range(3))
    def test_no_energy_zero_and_no_unit_of_rate(self, seed):
        rng = np.random.default_rng(3600 + seed)
        changes = [dict(shift=c) for c in (2.0 ** 13, 2.0 ** 27, DYADIC_SHIFT)]
        changes += [dict(s=2.0 ** k) for k in range(-40, 41, 10) if k]     # 1e-12 ... 1e12
        refused = 0
        for case in range(12):
            inst = dyadic_instance(rng, case)
            fields = [random_unit_vector(rng) for _ in range(int(rng.integers(0, 6)))]
            # dark, nearly dark (refused) and nearly dark (warns)
            for extra in ([0, 0, 1], [1e-9, 0, 1], [1e-7, 0, 1]):
                fields.insert(int(rng.integers(0, len(fields) + 1)), extra)
            fields = np.array(fields, dtype=complex)
            for direction in MODES:
                for projection in (False, True):
                    amplitudes, p_loss, failed, warned = self.outcome(inst, fields, direction,
                                                                      projection)
                    refused += len(failed)
                    for change in changes:
                        got = self.outcome(inst, fields, direction, projection, **change)
                        assert got[2:] == (failed, warned)
                        np.testing.assert_allclose(got[0], amplitudes, rtol=0, atol=1e-12)
                        np.testing.assert_allclose(got[1], p_loss, rtol=0, atol=1e-12)
        assert refused > 0

    @pytest.mark.parametrize("s", [1.0, 1e-5, 1e-7, 1e-9, 1e7])
    def test_dark_state_projection_in_any_unit_of_rate(self, s):
        # the lossless V system at theta = 0: y is dark, x alone reflects,
        # whatever the dipoles' scale (the projection once kept no direction
        # at 1e-7, whose coupled damping fell under an absolute threshold)
        model = EmitterModel.from_arrays([0.0], [1.0, 1.0], s * np.array([[[1, 0, 0], [0, 1, 0]]]))
        res = scatter(model, make_env([1, 0, 0], **X_ENV), LossModel.none(), ScatterInput(),
                      dark_state_projection=True)
        assert abs(res.reflection) ** 2 == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(SingularResponseError) as failure:
            scatter(model, make_env([1, 0, 0], **X_ENV), LossModel.none(), ScatterInput())
        assert np.abs(failure.value.dark_vectors).T.tolist() == [[0.0, 1.0]]


_EPS = np.finfo(float).eps


def spy_eliminations(monkeypatch) -> list:
    """Copies of the stack-last stack ``A`` (n, n, T), right-hand side ``b``
    (n, T) and solution ``y`` (n, T) of every _eliminate call from now on."""
    calls = []
    eliminate = wgqed.scattering._eliminate

    def spy(A, b):
        y = eliminate(A, b)
        calls.append((A.copy(), b.copy(), y.copy()))
        return y

    monkeypatch.setattr(wgqed.scattering, "_eliminate", spy)
    return calls


def engine_outcome(model, env, loss, inp, fields, projection):
    """The stacked engine at ``fields``: amplitudes, p_loss, each failed
    slice's error type and message by index, and the warning messages."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        amplitudes, p_loss, _, errors = _scatter_fields(model, env, loss, inp, fields,
                                                        projection)
    failures = {t: (type(exc), str(exc)) for t, exc in errors.items()}
    return amplitudes, p_loss, failures, [str(w.message) for w in caught]


def relative_residuals(A: np.ndarray, b: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``|A y - b| / (|A| |y|)`` of each slice of a stack-last solve, 2-norms,
    with the residual formed in extended precision."""
    wide = np.clongdouble
    r = np.einsum("ijt,jt->it", A.astype(wide), y.astype(wide)) - b.astype(wide)
    r_norm = np.sqrt((np.abs(r) ** 2).sum(axis=0)).astype(float)
    A_norm = np.linalg.norm(A.transpose(2, 0, 1), 2, axis=(1, 2))
    return r_norm / (A_norm * np.linalg.norm(y, axis=0))


class TestLargeStacks:
    """A stack large enough for _eliminate gives each slice the failure, the
    error message and the warning of its stack-of-one LAPACK call, solves
    each slice to a backward-stable residual, agrees with LAPACK to within
    the condition number, and gives a slice the same bits wherever it sits
    in the stack. With projection, a slice the gate refuses is solved as its
    padded system in its damping eigenbasis, and held to the same bounds."""

    @pytest.mark.parametrize("seed", range(3))
    def test_slices_match_lapack_alone(self, monkeypatch, seed):
        rng = np.random.default_rng(2800 + seed)
        env = make_env([1, 0, 0], a=0.7, omega=1.3, v_g=-0.2)
        checked = projected = 0
        for case in range(6):
            n_g, n_e = (int(k) for k in rng.integers(1, 4, size=2))
            if case == 3:   # lossless on resonance: a refused slice keeps a level
                n_e = max(n_e, 2)
            ground = rng.uniform(-0.3, 0.3, n_g)
            excited = 1.0 + rng.uniform(-0.4, 0.4, n_e)
            D = rng.normal(size=(n_g, n_e, 3)) + 1j * rng.normal(size=(n_g, n_e, 3))
            D[:, 0, 2] = 0.0        # level 0 is dark to a field along z
            r = int(rng.integers(0, n_g))
            model = EmitterModel.from_arrays(ground, excited, D)
            loss = (LossModel.none(), LossModel.isotropic(0.2), random_loss_tensor(rng))[case % 3]
            frequency = excited[0] - ground[r] if case % 2 else float(rng.uniform(0.5, 1.5))
            fields = [random_unit_vector(rng) for _ in range(_ELIMINATE_FROM)]
            # dark, nearly dark (refused), nearly dark (warns), overflowing,
            # non-finite and inactive
            for extra in ([0, 0, 1], [1e-9, 0, 1], [1e-7, 0, 1], [1e200, 0, 0],
                          [np.inf, 0, 0], [0, 0, 0]) * 2:
                fields.insert(int(rng.integers(0, len(fields) + 1)), extra)
            fields = np.array(fields, dtype=complex)
            K = wgqed.photonic.guided_couplings(model.dipole_array(), fields)
            with np.errstate(all="ignore"):
                K_norm = np.linalg.norm(np.nan_to_num(K).transpose(2, 0, 1), 2, axis=(1, 2))
            for direction in MODES:
                inp = ScatterInput(direction, r, frequency)
                for projection in (False, True):
                    stacks = capture_response_stacks(monkeypatch)
                    calls = spy_eliminations(monkeypatch)
                    amplitudes, p_loss, failures, caught = engine_outcome(
                        model, env, loss, inp, fields, projection)
                    monkeypatch.undo()
                    (M,), ((A, b, y),) = stacks, calls
                    # the slices the elimination solved: their response, or
                    # the padded system of a refused slice, not the identity
                    # put in place of a slice it must not take
                    solved = ~(A == np.eye(n_e)[..., None]).all(axis=(0, 1)) & b.any(axis=0)
                    padded = solved & ~(A == M.transpose(1, 2, 0)).all(axis=(0, 1))
                    if projection:      # exactly the slices that fail singular without
                        assert np.flatnonzero(padded).tolist() == refused
                        projected += len(refused)
                    else:
                        assert not padded.any()
                        refused = sorted(t for t, f in failures.items()
                                         if f[0] is SingularResponseError)
                    residuals = relative_residuals(A[..., solved], b[:, solved], y[:, solved])
                    assert (residuals <= 8 * n_e * _EPS).all()
                    cond = np.linalg.cond(A[..., solved].transpose(2, 0, 1))
                    alone = [engine_outcome(model, env, loss, inp, fields[t:t + 1], projection)
                             for t in range(len(fields))]
                    assert failures == {t: f[0] for t, (_, _, f, _) in enumerate(alone) if f}
                    assert caught == [w for *_, ws in alone for w in ws]
                    for t, c in zip(np.flatnonzero(solved), cond):
                        a, p = alone[t][0][0], alone[t][1][0]
                        bound = 16 * n_e * _EPS * (1.0 + c * K_norm[t] * np.linalg.norm(y[:, t]))
                        diff = np.abs(amplitudes[t] - a)
                        assert diff.max() <= bound
                        assert abs(p_loss[t] - p) <= 2 * ((np.abs(a) + diff) * diff).sum() \
                            + 16 * n_g * _EPS
                    for t in np.flatnonzero(~solved):
                        if t not in failures:     # inactive, or solved in its dark subspace
                            assert amplitudes[t].tobytes() == alone[t][0][0].tobytes()
                            assert p_loss[t].tobytes() == alone[t][1][0].tobytes()
                    checked += int(solved.sum())
                    # a slice's bits do not depend on the rest of its stack
                    for order in (np.arange(len(fields))[::-1], rng.permutation(len(fields))):
                        moved = engine_outcome(model, env, loss, inp, fields[order], projection)
                        assert moved[0].tobytes() == amplitudes[order].tobytes()
                        assert moved[1].tobytes() == p_loss[order].tobytes()
                        assert moved[2] == {k: failures[t] for k, t in enumerate(order.tolist())
                                            if t in failures}
                        assert sorted(moved[3]) == sorted(caught)
        assert checked > 0 and projected > 0


def mp_solutions(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``y`` (n, T) of each slice of the stack-last ``A`` (n, n, T) and ``b``
    (n, T), from a 40-digit mpmath LU solve."""
    y = np.empty(b.shape, dtype=complex)
    with mpmath.workdps(40):
        for t in range(b.shape[-1]):
            x = mpmath.lu_solve(mpmath.matrix(A[..., t].tolist()),
                                mpmath.matrix(b[:, t].tolist()))
            y[:, t] = [complex(v) for v in x]
    return y


def random_complex(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def crafted_stack(kind: str, n: int, rng, T: int = 48) -> np.ndarray:
    """A stack-last stack (n, n, T) that makes the pivoting work."""
    if kind == "swap":
        # the first column's largest entry, of modulus 1, lies below the
        # diagonal, and the others span 1e-6 to 1e-1: any other pivot makes
        # a multiplier above 10
        A = random_complex(rng, n, n, T)
        A[:, 0] *= 10.0 ** rng.uniform(-6, -1, size=(n, T)) / np.abs(A[:, 0])
        big, rows = rng.integers(1, n, size=T), np.arange(T)
        A[big, 0, rows] /= np.abs(A[big, 0, rows])
        assert (np.abs(A[1:, 0]).max(axis=0) > np.abs(A[0, 0])).all()
        return A
    if kind == "two swaps":
        # row 1 holds the first pivot; once it is eliminated, row 2 holds the
        # second, since row 0's entry in column 1 nearly cancels
        A = random_complex(rng, 3, 3, T)
        A[1, 0] = np.exp(2j * np.pi * rng.random(T))
        A[0, 0] *= 0.4 / np.abs(A[0, 0])
        A[2, 0] *= 0.3 / np.abs(A[2, 0])
        A[0, 1] = A[0, 0] / A[1, 0] * A[1, 1] + 1e-3 * random_complex(rng, T)
        r0 = A[0, 1] - A[0, 0] / A[1, 0] * A[1, 1]
        r2 = A[2, 1] - A[2, 0] / A[1, 0] * A[1, 1]
        col = np.abs(A[:, 0])
        assert (col[1] > col[0]).all() and (col[1] > col[2]).all()
        assert (np.abs(r2) > np.abs(r0)).all()
        return A
    if kind == "reactive":
        # a reactive-loss response: damping 1e-14 to 1e-8 on the diagonal
        # under Hermitian couplings 1 to 1e3 between the levels; without a
        # row swap the first multiplier is ~1e8 to 1e17
        S = random_complex(rng, n, n, T) * 10.0 ** rng.uniform(0, 3, size=(1, 1, T))
        S = S + S.conj().swapaxes(0, 1)
        S[np.arange(n), np.arange(n)] = 0.0
        A = 1j * S
        A[np.arange(n), np.arange(n)] = 10.0 ** rng.uniform(-14, -8, size=(n, T))
        assert (np.abs(A[1:, 0]).max(axis=0) > 1e7 * np.abs(A[0, 0])).all()
        return A
    # "extreme": entries near 1e150 or near 1e-150, a scale per slice
    scale = 10.0 ** (rng.choice([-150.0, 150.0], size=T) + rng.uniform(-2, 2, size=T))
    return random_complex(rng, n, n, T) * scale


class TestEliminate:
    """_eliminate against a 40-digit mpmath solve, on stacks made to need the
    row swaps: each slice's error is within ``16 n eps cond``."""

    @pytest.mark.parametrize("kind, n", [
        ("swap", 2), ("swap", 3), ("two swaps", 3), ("reactive", 2), ("reactive", 3),
        ("extreme", 1), ("extreme", 2), ("extreme", 3),
    ])
    def test_slices_match_mpmath(self, kind, n):
        rng = np.random.default_rng(4100 + 10 * n + len(kind))
        A = crafted_stack(kind, n, rng)
        scale = np.abs(A).max(axis=(0, 1))
        b = random_complex(rng, n, A.shape[-1]) * scale
        y = _eliminate(A, b)
        assert y.shape == b.shape and np.isfinite(y).all()
        exact = mp_solutions(A, b)
        cond = np.linalg.cond(A.transpose(2, 0, 1))
        error = np.linalg.norm(y - exact, axis=0) / np.linalg.norm(exact, axis=0)
        assert (error <= 16 * n * _EPS * cond).all()

    def test_leaves_its_arguments_unchanged(self):
        rng = np.random.default_rng(4200)
        A, b = crafted_stack("swap", 3, rng), random_complex(rng, 3, 48)
        before = A.copy(), b.copy()
        _eliminate(A, b)
        assert np.array_equal(A, before[0]) and np.array_equal(b, before[1])
