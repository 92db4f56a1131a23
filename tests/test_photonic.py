"""Green's tensors, loss models, the effective Hamiltonian and the coupling
bundle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgqed import (
    CHANNELS,
    EmitterModel,
    LossModel,
    ModelValidationError,
    PolarizationVector,
    ScatterInput,
    WaveguideEnv,
    SingularResponseError,
    coupling_bundle,
    scatter,
    two_level_closed_form,
)
from wgqed.photonic import effective_hamiltonian, guided_couplings

from conftest import (
    ARGUMENTS,
    FUZZ_LEAVES,
    PARADOX_FIELD,
    damping_matrix,
    frame_energies,
    make_env,
    numbers_only,
    oracle_field_normalization,
    oracle_flux_forms,
    oracle_gamma,
    oracle_greens_tensors,
    paradox_model,
    random_loss_tensor,
    random_model,
    random_unit_vector,
)


X_DIPOLE = PolarizationVector([1, 0, 0])


def two_level() -> EmitterModel:
    return EmitterModel.from_arrays([0.0], [1.0], [[[1, 0, 0]]])


def per_direction_rate(d, E, v_g=0.1):
    """Reference emission rate |d* . E|^2 / (2 v_g) into one direction."""
    d = np.asarray(d, dtype=complex)
    E = np.asarray(E, dtype=complex)
    return abs(d.conj() @ E) ** 2 / (2.0 * v_g)


class TestWaveguideEnv:
    def test_backward_field_is_conjugate(self):
        env = make_env([0, 1j, 0])
        assert env.E_b == PolarizationVector([0, -1j, 0])

    def test_density_of_states_scale(self):
        env = make_env([1, 0, 0], a=1.0, v_g=0.1, omega=1.0)
        assert env.z == pytest.approx(5.0)
        assert oracle_field_normalization(env) == pytest.approx(0.2 / 1j)

    @pytest.mark.parametrize("kwargs", [
        {"a": 0.0}, {"omega": -1.0}, {"v_g": 0.0}, {"a": -1.0}, {"omega": 0.0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ModelValidationError):
            make_env([1, 0, 0], **kwargs)

    @pytest.mark.parametrize("name", ["a", "v_g", "omega"])
    @pytest.mark.parametrize("value", [True, False, "1.0", 1j, None, 10**400, -10**400])
    def test_non_number_parameters_rejected_naming_the_field(self, name, value):
        with pytest.raises(ModelValidationError, match=f"^{name} must be") as exc:
            make_env([1, 0, 0], **{name: value})
        assert exc.value.code == "invalid-environment"

    @pytest.mark.parametrize("E_f,code", [
        (object(), "dimension-mismatch"), ("abc", "dimension-mismatch"),
        (["1", 0, 0], "dimension-mismatch"), ([True, 0, 0], "dimension-mismatch"),
        ([np.nan, 0, 0], "non-finite-entry"), ([0, 1j * np.inf, 0], "non-finite-entry"),
        ([1, 0, 0, 0], "dimension-mismatch"),
    ], ids=["object", "string", "numeric-string", "bool", "nan", "inf", "four-components"])
    def test_field_of_non_numbers_or_non_finite_numbers_rejected(self, E_f, code):
        # named like the scalar fields
        with pytest.raises(ModelValidationError, match="^E_f ") as exc:
            WaveguideEnv(E_f=E_f)
        assert exc.value.code == code

    def test_numpy_and_integer_parameters_accepted(self):
        env = make_env([1, 0, 0], a=np.float64(2.0), v_g=-1, omega=np.int64(3))
        assert env.z == pytest.approx(3.0)

    @settings(max_examples=200, deadline=None)
    @given(values=st.fixed_dictionaries(
        {}, optional={name: FUZZ_LEAVES for name in ("a", "v_g", "omega")}),
           E_f=st.one_of(st.just([1, 0, 0]), ARGUMENTS,
                         st.lists(FUZZ_LEAVES, min_size=3, max_size=3)))
    def test_any_argument_builds_or_raises_a_validation_error(self, values, E_f):
        # the field is checked first; only numbers build
        try:
            env = WaveguideEnv(E_f=E_f, **values)
        except ModelValidationError as exc:
            # [True, 0, 0] == [1, 0, 0] as well, but it is no field of numbers
            valid_field = numbers_only(E_f) and E_f == [1, 0, 0]
            assert exc.code == "invalid-environment" or not valid_field
            return
        assert numbers_only(E_f) and np.isfinite(env.E_f.as_array()).all()
        for name in values:
            assert np.isfinite(getattr(env, name))


class TestLossModel:
    def test_isotropic_tensor(self):
        arr = LossModel.isotropic(0.2).as_array()
        assert np.allclose(arr, 0.2j * np.eye(3))

    def test_zero_loss(self):
        assert np.allclose(LossModel.none().as_array(), 0.0)

    def test_gain_rejected(self):
        with pytest.raises(ModelValidationError) as exc:
            LossModel.from_array(-0.1j * np.eye(3))
        assert exc.value.code == "non-passive-loss-tensor"

    def test_non_symmetric_rejected(self):
        t = 0.2j * np.eye(3)
        t[0, 1] = 0.1
        with pytest.raises(ModelValidationError) as exc:
            LossModel.from_array(t)
        assert exc.value.code == "non-symmetric-loss-tensor"

    def test_array_is_read_only(self):
        arr = LossModel.isotropic(0.2).as_array()
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0

    def test_later_write_to_the_input_array_leaves_it_alone(self):
        t = 0.2j * np.eye(3)
        loss = LossModel.from_array(t)
        t[0, 0] = np.nan
        assert loss == LossModel.isotropic(0.2)
        assert loss.as_array()[0, 0] == 0.2j

    def test_signed_zeros_hash_equal(self):
        t = 0.2j * np.eye(3)
        t[0, 1] = t[1, 0] = complex(-0.0, -0.0)
        a, b = LossModel.from_array(t), LossModel.isotropic(0.2)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_loss_model_is_frozen(self):
        with pytest.raises(AttributeError):
            LossModel.none().tensor = np.zeros((3, 3))

    @pytest.mark.parametrize("tensor,message", [
        (np.eye(2), "loss tensor must be 3x3, got (2, 2)"),
        ([[0.2j, 0, 0], [0, 0.2j], [0, 0, 0.2j]], "loss tensor must be a 3x3 array of numbers"),
        ([["x"] * 3] * 3, "loss tensor must be a 3x3 array of numbers"),
        ([[10**400] * 3] * 3, "loss tensor must be a 3x3 array of numbers"),
        ([["0.2j", 0, 0], [0, "0.2j", 0], [0, 0, "0.2j"]],
         "loss tensor must be a 3x3 array of numbers"),
        ("0.2", "loss tensor must be a 3x3 array of numbers"),
        ([[True, False, False]] * 3, "loss tensor must be a 3x3 array of numbers"),
        (np.eye(3, dtype=bool), "loss tensor must be a 3x3 array of numbers"),
        (True, "loss tensor must be a 3x3 array of numbers"),
    ])
    def test_wrongly_shaped_tensor_rejected(self, tensor, message):
        with pytest.raises(ModelValidationError) as exc:
            LossModel.from_array(tensor)
        assert exc.value.code == "dimension-mismatch"
        assert str(exc.value) == message

    @pytest.mark.parametrize("entry", [np.inf, np.nan, complex(0, -np.inf)])
    def test_non_finite_tensor_rejected(self, entry):
        with pytest.raises(ModelValidationError, match="non-finite entries") as exc:
            LossModel(np.full((3, 3), entry))
        assert exc.value.code == "non-finite-entry"

    @pytest.mark.parametrize("strength", [True, False, "0.2", 1j, None, 10**400, np.nan, np.inf])
    def test_isotropic_takes_only_a_finite_number(self, strength):
        with pytest.raises(ModelValidationError, match="loss strength must be a finite number"):
            LossModel.isotropic(strength)

    @settings(max_examples=300, deadline=None)
    @given(tensor=st.one_of(ARGUMENTS, st.lists(st.lists(FUZZ_LEAVES, min_size=3, max_size=3),
                                                min_size=3, max_size=3)),
           strength=FUZZ_LEAVES)
    def test_any_argument_builds_or_raises_a_validation_error(self, tensor, strength):
        # never a TypeError, an OverflowError, a numpy error or a warning,
        # and nothing but numbers builds
        for arg, build in ((tensor, LossModel.from_array), (strength, LossModel.isotropic)):
            try:
                loss = build(arg)
            except ModelValidationError:
                continue
            assert numbers_only(arg)
            assert loss.as_array().shape == (3, 3) and not loss.as_array().flags.writeable
            assert hash(loss) == hash(LossModel.from_array(loss.as_array()))

    def test_equality_hash_and_repr_come_from_the_array(self):
        a = LossModel.isotropic(0.2)
        b = LossModel.from_array(0.2j * np.eye(3))
        assert a == b and hash(a) == hash(b)
        assert a.tensor is a.as_array()
        assert a != LossModel.isotropic(0.3)
        assert repr(a) == f"LossModel(tensor={a.as_array()!r})"

    def test_rate_on_unit_dipole_equals_strength(self, rng):
        # the loss channel of a single transition decays at the strength
        env = make_env([1, 0, 0])
        loss = LossModel.isotropic(0.37)
        for _ in range(10):
            model = EmitterModel.from_arrays([0.0], [1.0], [[random_unit_vector(rng)]])
            rates = coupling_bundle(model, env, loss).channel_decay_rates()
            assert rates["loss"][0] == pytest.approx(0.37, rel=1e-12)


class TestGreensDecomposition:
    """The per-channel Green's tensors of the scattering oracle, and the same
    channel split seen through the package's effective Hamiltonian."""

    def test_matched_linear_field_tensors(self):
        env = make_env([1, 0, 0], a=1.0, v_g=0.1, omega=1.0)
        G_f, G_b, G_loss = oracle_greens_tensors(env, LossModel.none())
        expected = 2.5j * np.diag([1.0, 0.0, 0.0])
        assert np.allclose(G_f, expected)
        assert np.allclose(G_b, expected)
        assert (G_f + G_b + G_loss)[0, 0] == pytest.approx(5j)
        # the x dipole decays at 2 Im(G_f + G_b)_xx = 10: H_eff = -5i, its
        # one energy counted from itself
        bundle = coupling_bundle(two_level(), env, LossModel.none())
        assert bundle.H_eff[0, 0] == pytest.approx(-5j)

    def test_zero_field_leaves_only_loss(self, rng):
        env = make_env([0, 0, 0])
        loss = LossModel.isotropic(0.2)
        G_f, G_b, G_loss = oracle_greens_tensors(env, loss)
        assert np.allclose(G_f, 0.0) and np.allclose(G_b, 0.0)
        assert np.allclose(G_f + G_b + G_loss, 0.2j * np.eye(3))
        # with no guided field the damping is the isotropic loss alone:
        # K = 0.2 sum_n D_n* D_n^T
        model = random_model(rng, 2, 2)
        D = model.dipole_array()
        K = damping_matrix(coupling_bundle(model, env, loss))
        assert np.allclose(K, 0.2 * np.einsum("nxi,nyi->xy", D.conj(), D), atol=1e-14)

    def test_forward_backward_swap_symmetric_for_real_field(self, rng):
        e = rng.normal(size=3)
        env = make_env(e / np.linalg.norm(e))
        G_f, G_b, _ = oracle_greens_tensors(env, LossModel.none())
        assert np.allclose(G_f, G_b)
        rates = coupling_bundle(random_model(rng, 2, 2), env,
                                LossModel.none()).channel_decay_rates()
        assert np.allclose(rates["forward"], rates["backward"], rtol=1e-12)


class TestGuidedCouplings:
    @pytest.mark.parametrize("stack", [(), (4,), (2, 3)], ids=["single", "stack", "grid"])
    def test_channel_columns_are_mode_then_ground(self, rng, stack):
        # K[x, m n_g + n, ...] = E_m* . d_{nx}, forward (E_f) then backward
        # (E_b = conj E_f), every stack axis last
        n_g, n_e = 3, 2
        D = rng.normal(size=(n_g, n_e, 3)) + 1j * rng.normal(size=(n_g, n_e, 3))
        E_f = rng.normal(size=stack + (3,)) + 1j * rng.normal(size=stack + (3,))
        K = guided_couplings(D, E_f)
        assert K.shape == (n_e, 2 * n_g) + stack
        for index in np.ndindex(*stack):
            for m, E in enumerate((E_f[index], E_f[index].conj())):
                for n in range(n_g):
                    for x in range(n_e):
                        assert abs(K[(x, m * n_g + n) + index] - np.vdot(E, D[n, x])) < 1e-14


class TestEffectiveHamiltonian:
    @pytest.mark.parametrize("stack", [1, 5])
    def test_energies_as_tuple_list_or_array_give_the_same_bits(self, rng, stack):
        # coupling_bundle passes a float array of energies counted from the
        # lowest, the scattering engine one of detunings; a tuple, a list or
        # an array of energies all match the assembly
        # diag(E) + L^T / 2 - (i/2) z sum_m B_m* B_m^T bit for bit, built
        # with the couplings B (T, mode, n_e, n_g) on a mode axis, stack
        # first, and transposed into the stack-last layout; no input array is
        # written
        model = random_model(rng, 2, 3)
        env = make_env(random_unit_vector(rng), a=0.7, omega=1.3, v_g=-0.2)
        D = np.array(model.dipole_array())
        E_f = np.array([random_unit_vector(rng) for _ in range(stack)])
        K = guided_couplings(D, E_f)
        assert K.shape == (3, 4, stack)
        B = np.einsum("nxi,tmi->tmxn", D, np.stack([E_f.conj(), E_f], axis=1))
        energies = model.excited_energies
        as_array = np.array(energies, dtype=float)
        inputs = (D, K, as_array)
        before = [a.tobytes() for a in inputs]
        for loss in (LossModel.none(), LossModel.isotropic(0.2), random_loss_tensor(rng)):
            L_T = np.einsum("nxi,ij,nyj->yx", D, loss.as_array().conj(), D.conj())
            guided = np.einsum("...mxn,...myn->...xy", B.conj(), B)
            expected = np.diag(as_array) + L_T / 2.0 - (0.5j * env.z) * guided
            expected = np.ascontiguousarray(expected.transpose(1, 2, 0))
            for given in (energies, list(energies), as_array):
                H = effective_hamiltonian(D, K, given, env, loss)
                assert H.shape == (3, 3, stack) and H.tobytes() == expected.tobytes()
        assert [a.tobytes() for a in inputs] == before

    def test_grid_of_fields_gives_each_field_alone(self, rng):
        # any number of stack axes, each slice the one-field matrix bit for bit
        model = random_model(rng, 2, 3)
        env, loss = make_env(random_unit_vector(rng)), random_loss_tensor(rng)
        D = np.array(model.dipole_array())
        E_f = np.array([[random_unit_vector(rng) for _ in range(3)] for _ in range(2)])
        H = effective_hamiltonian(D, guided_couplings(D, E_f), model.excited_energies, env, loss)
        assert H.shape == (3, 3, 2, 3)
        for index in np.ndindex(2, 3):
            alone = effective_hamiltonian(D, guided_couplings(D, E_f[index]),
                                          model.excited_energies, env, loss)
            assert H[(...,) + index].tobytes() == alone.tobytes()


class TestCouplingBundle:
    def test_detuning_matrix_is_diagonal_energy_offset(self):
        # each excited state is detuned by its own offset E_x - E_int, here
        # (0.2, -0.1): a field along one of two orthogonal dipoles sees a
        # two-level emitter detuned by that state's offset
        model = EmitterModel.from_arrays([0.0], [1.2, 0.9], [[[1, 0, 0], [0, 1, 0]]])
        for axis, detuning in ((0, 0.2), (1, -0.1)):
            field = np.eye(3)[axis]
            env = make_env(field)
            res = scatter(model, env, LossModel.none(), ScatterInput(photon_frequency=1.0))
            t, r, _ = two_level_closed_form(PolarizationVector(field), env,
                                            LossModel.none(), detuning)
            assert abs(res.transmission - t) < 1e-12
            assert abs(res.reflection - r) < 1e-12

    def test_elliptical_field_gives_four_to_one_decay_ratio(self):
        # |E_f . d_11|^2 = 4 |E_f . d_12|^2 for E_f = (2, i, 0)/sqrt(5)
        bundle = coupling_bundle(paradox_model(), make_env(PARADOX_FIELD),
                                 LossModel.none())
        decay = -np.imag(np.diag(bundle.H_eff))
        assert decay[0] / decay[1] == pytest.approx(4.0)
        assert np.allclose(bundle.H_eff, np.diag([-4j, -1j]), atol=1e-14)

    def test_zero_dipoles_give_zero_matrices(self):
        model = EmitterModel.from_arrays([0.0], [1.0, 1.0],
                                         [[[0, 0, 0], [0, 0, 0]]])
        bundle = coupling_bundle(model, make_env([1, 0, 0]),
                                 LossModel.isotropic(0.2))
        for mat in (bundle.H_eff, damping_matrix(bundle)):
            assert np.max(np.abs(mat)) == 0.0

    def test_matched_two_level_total_rate(self):
        # oracle: per-direction rate formula, 5 forward + 5 backward
        env = make_env([1, 0, 0], v_g=0.1)
        bundle = coupling_bundle(two_level(), env, LossModel.none())
        expected = per_direction_rate([1, 0, 0], [1, 0, 0]) * 2
        assert damping_matrix(bundle)[0, 0].real == pytest.approx(expected)
        assert expected == pytest.approx(10.0)

    def test_channel_rates_match_direction_formula(self, rng):
        for _ in range(50):
            d = random_unit_vector(rng)
            ef = random_unit_vector(rng)
            model = EmitterModel.from_arrays([0.0], [1.0], [[d]])
            env = make_env(ef, v_g=0.1)
            rates = coupling_bundle(model, env, LossModel.none()).channel_decay_rates()
            assert rates["forward"][0] == pytest.approx(
                per_direction_rate(d, ef), rel=1e-12)
            assert rates["backward"][0] == pytest.approx(
                per_direction_rate(d, ef.conj()), rel=1e-12)

    def test_linear_polarization_couples_directions_equally(self, rng):
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        for _ in range(20):
            d = random_unit_vector(rng)
            forward = abs(d.conj() @ e)
            backward = abs(d.conj() @ e.conj())
            assert abs(forward - backward) < 1e-15

    def test_gamma_matches_direct_sandwich(self, rng):
        # recompute the self-energy Gamma from the Green's tensor sandwich:
        # H_eff is its self-energy form diag(E) - Gamma^T
        model = random_model(rng, 2, 2)
        for env in (make_env(random_unit_vector(rng)),
                    make_env(random_unit_vector(rng), a=0.7, omega=1.3, v_g=-0.2)):
            for loss in (LossModel.isotropic(0.3), random_loss_tensor(rng)):
                bundle = coupling_bundle(model, env, loss)
                direct = oracle_gamma(model, env, loss)
                expected = np.diag(frame_energies(model)) - direct.T
                assert np.max(np.abs(bundle.H_eff - expected)) < 1e-13

    def test_loss_channels_rebuild_imaginary_loss_sandwich(self, rng):
        # anisotropic passive tensor whose imaginary part has rank 1 or 2;
        # summed over the ground states, the loss forms must equal
        # sum_n D_n* Im(G) D_n^T, built here from the eigenmodes of Im(G)
        # with positive rate
        env = make_env(random_unit_vector(rng), a=0.7, omega=1.3)
        for rank in (1, 2):
            for _ in range(10):
                A = rng.normal(size=(3, 3))
                U = rng.normal(size=(3, rank))
                tensor = 0.2 * (A + A.T) + 1j * (U @ U.T)
                loss = LossModel.from_array(tensor)
                model = random_model(rng, 2, 3)
                bundle = coupling_bundle(model, env, loss)
                forms = bundle.flux_forms[:, CHANNELS.index("loss")].sum(axis=0)
                rates, modes = np.linalg.eigh(tensor.imag)
                keep = rates > 1e-12
                assert keep.sum() == rank
                C = np.einsum("nxi,ik->kxn", model.dipole_array(), modes[:, keep])
                direct = np.einsum("k,kxn,kyn->xy", rates[keep], C.conj(), C)
                assert np.max(np.abs(forms - direct)) < 1e-13

    def test_damping_matrix_consistent_with_gamma(self, rng):
        model = random_model(rng, 2, 3)
        env = make_env(random_unit_vector(rng))
        loss = LossModel.isotropic(0.15)
        bundle = coupling_bundle(model, env, loss)
        go = oracle_gamma(model, env, loss).T
        from_gamma = (go - go.conj().T) / 2j * 2.0
        K = damping_matrix(bundle)
        assert np.max(np.abs(K - from_gamma)) < 1e-13
        # the flux forms, built apart from H_eff, sum to the same K
        from_forms = bundle.flux_forms.sum(axis=(0, 1))
        assert np.max(np.abs(K - from_forms)) < 1e-13
        assert np.max(np.abs(from_forms - from_gamma)) < 1e-13

    def test_common_energy_shift_leaves_couplings_unchanged(self, rng):
        model = random_model(rng, 2, 2)
        env = make_env(random_unit_vector(rng))
        loss = LossModel.isotropic(0.1)
        a = coupling_bundle(model, env, loss)
        shifted = EmitterModel.from_arrays(
            np.asarray(model.ground_energies) + 0.7,
            model.excited_energies,
            model.dipole_array(),
        )
        b = coupling_bundle(shifted, env, loss)
        for name in ("H_eff", "flux_forms"):
            assert np.max(np.abs(getattr(a, name) - getattr(b, name))) < 1e-14

    def test_reactive_loss_gives_half_sandwich_level_shift(self):
        # d . Re(G_loss) . d* = 0.3 on a matched dipole gives the self-energy
        # level shift -0.15, which enters H_eff with a minus sign: the
        # effective transition energy moves by +0.15
        loss = LossModel.from_array(0.3 * np.eye(3) + 0.2j * np.eye(3))
        bundle = coupling_bundle(two_level(), make_env([1, 0, 0]), loss)
        assert -bundle.H_eff[0, 0].real == pytest.approx(-0.15)
        assert damping_matrix(bundle)[0, 0].real == pytest.approx(10.2)

    def test_damping_is_positive_semidefinite(self, rng):
        for _ in range(30):
            model = random_model(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            env = make_env(random_unit_vector(rng))
            loss = LossModel.isotropic(float(rng.uniform(0, 0.5)))
            K = damping_matrix(coupling_bundle(model, env, loss))
            assert np.min(np.linalg.eigvalsh(K)) > -1e-12

    def test_flux_forms_are_hermitian_psd(self, rng):
        for _ in range(30):
            n_g, n_e = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            model = random_model(rng, n_g, n_e)
            env = make_env(random_unit_vector(rng), a=0.7, omega=1.3)
            for loss in (LossModel.isotropic(float(rng.uniform(0, 0.5))),
                         random_loss_tensor(rng)):
                Q = coupling_bundle(model, env, loss).flux_forms
                assert Q.shape == (n_g, len(CHANNELS), n_e, n_e)
                assert not Q.flags.writeable
                scale = max(1.0, np.max(np.abs(Q)))
                assert np.max(np.abs(Q - Q.conj().swapaxes(-1, -2))) < 1e-14 * scale
                assert np.min(np.linalg.eigvalsh(Q)) > -1e-13 * scale

    def test_flux_forms_match_the_guided_coupling_outer_products(self, rng):
        # the one contraction D_n* T_c D_n^T against the oracle's outer
        # products and loss sandwich: equal to the rounding of either, a few
        # eps of the same sums taken over absolute values
        eps = np.finfo(float).eps
        for n_g, n_e in itertools.product((1, 2, 3), repeat=2):
            for _ in range(4):
                model = random_model(rng, n_g, n_e)
                env = make_env(random_unit_vector(rng), a=0.7, omega=1.3, v_g=-0.2)
                for loss in (LossModel.none(), LossModel.isotropic(0.3),
                             random_loss_tensor(rng)):
                    bundle = coupling_bundle(model, env, loss)
                    expected = oracle_flux_forms(model, env, loss)
                    E = np.abs(env.E_f.as_array())
                    guided = np.outer(E, E) * env.z
                    T = np.stack((guided, guided, np.abs(loss.as_array().imag)))
                    D = np.abs(model.dipole_array())
                    sums = np.einsum("nai,cij,nbj->ncab", D, T, D)
                    assert np.all(np.abs(bundle.flux_forms - expected) <= 8 * eps * sums)
                    rates = bundle.channel_decay_rates()
                    expected_rates = np.diagonal(expected, axis1=-2, axis2=-1).real.sum(axis=0)
                    sum_rates = np.diagonal(sums, axis1=-2, axis2=-1).sum(axis=0)
                    assert tuple(rates) == CHANNELS
                    for c, name in enumerate(CHANNELS):
                        assert np.all(np.abs(rates[name] - expected_rates[c])
                                      <= 8 * eps * sum_rates[c])

    def test_lossless_rates_have_a_zero_loss_entry(self):
        rates = coupling_bundle(two_level(), make_env([1, 0, 0]),
                                LossModel.none()).channel_decay_rates()
        assert tuple(rates) == CHANNELS
        assert [rates[c].tolist() for c in CHANNELS] == [[5.0], [5.0], [0.0]]

    def test_dark_state_means_one_thing_in_both_solvers(self):
        # the dark directions scattering reports for the lossless V system at
        # E_f = x lie in the kernel of the damping matrix emission decays by
        model = paradox_model()
        env = make_env([1, 0, 0])
        with pytest.raises(SingularResponseError) as exc:
            scatter(model, env, LossModel.none(), ScatterInput(photon_frequency=1.0))
        dark = exc.value.dark_vectors
        assert dark.shape == (2, 1)
        K = damping_matrix(coupling_bundle(model, env, LossModel.none()))
        assert np.linalg.norm(K @ dark) < 1e-12
