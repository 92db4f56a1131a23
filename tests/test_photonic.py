"""Green's decomposition, loss models, and the coupling bundle."""

import numpy as np
import pytest

from wgqed import (
    CHANNELS,
    EmitterModel,
    LossModel,
    ModelValidationError,
    PolarizationVector,
    ScatterInput,
    coupling_bundle,
    greens_decomposition,
    scatter,
    two_level_closed_form,
)

from conftest import make_env, paradox_model, PARADOX_FIELD, random_model, random_unit_vector


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
        assert env.N == pytest.approx(0.2 / 1j)

    @pytest.mark.parametrize("kwargs", [
        {"a": 0.0}, {"omega": -1.0}, {"v_g": 0.0}, {"epsilon0": 0.0}, {"hbar": -1.0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ModelValidationError):
            make_env([1, 0, 0], **kwargs)


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

    def test_cached_modes_leave_equality_hash_and_repr_alone(self):
        a = LossModel.isotropic(0.2)
        b = LossModel.from_array(0.2j * np.eye(3))
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((a.tensor,))
        assert a != LossModel.isotropic(0.3)
        assert repr(a) == f"LossModel(tensor={a.tensor!r})"

    def test_rate_on_unit_dipole_equals_strength(self, rng):
        env = make_env([1, 0, 0])
        loss = LossModel.isotropic(0.37)
        for _ in range(10):
            d = PolarizationVector(random_unit_vector(rng))
            assert loss.rate_for(d, env) == pytest.approx(0.37, rel=1e-12)


class TestGreensDecomposition:
    def test_matched_linear_field_tensors(self):
        env = make_env([1, 0, 0], a=1.0, v_g=0.1, omega=1.0)
        dec = greens_decomposition(env, LossModel.none())
        expected = 2.5j * np.diag([1.0, 0.0, 0.0])
        assert np.allclose(dec.G_f, expected)
        assert np.allclose(dec.G_b, expected)
        assert dec.total()[0, 0] == pytest.approx(5j)

    def test_zero_field_leaves_only_loss(self):
        env = make_env([0, 0, 0])
        loss = LossModel.isotropic(0.2)
        dec = greens_decomposition(env, loss)
        assert np.allclose(dec.G_f, 0.0) and np.allclose(dec.G_b, 0.0)
        assert np.allclose(dec.total(), 0.2j * np.eye(3))

    def test_forward_backward_swap_symmetric_for_real_field(self, rng):
        e = rng.normal(size=3)
        env = make_env(e / np.linalg.norm(e))
        dec = greens_decomposition(env, LossModel.none())
        assert np.allclose(dec.G_f, dec.G_b)


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
        diag = np.diag(bundle.Gamma)
        assert diag[0] / diag[1] == pytest.approx(4.0)
        assert np.allclose(bundle.Gamma, np.diag([4j, 1j]), atol=1e-14)

    def test_zero_dipoles_give_zero_matrices(self):
        model = EmitterModel.from_arrays([0.0], [1.0, 1.0],
                                         [[[0, 0, 0], [0, 0, 0]]])
        bundle = coupling_bundle(model, make_env([1, 0, 0]),
                                 LossModel.isotropic(0.2))
        for mat in (bundle.Gamma, bundle.coherent_shift, bundle.damping_rate_matrix()):
            assert np.max(np.abs(mat)) == 0.0

    def test_matched_two_level_total_rate(self):
        # oracle: per-direction rate formula, 5 forward + 5 backward
        env = make_env([1, 0, 0], v_g=0.1)
        bundle = coupling_bundle(two_level(), env, LossModel.none())
        expected = per_direction_rate([1, 0, 0], [1, 0, 0]) * 2
        assert bundle.total_decay_rates()[0] == pytest.approx(expected)
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
        # recompute Gamma from the Green's tensor sandwich
        model = random_model(rng, 2, 2)
        env = make_env(random_unit_vector(rng))
        loss = LossModel.isotropic(0.3)
        bundle = coupling_bundle(model, env, loss)
        D = model.dipole_array()
        dec = greens_decomposition(env, loss)
        G = dec.G_f + dec.G_b + 0.5 * dec.G_loss
        direct = -np.einsum("nxi,ij,nyj->xy", D, G.conj(), D.conj()) / env.epsilon0
        assert np.max(np.abs(bundle.Gamma - direct)) < 1e-13

    def test_loss_channels_rebuild_imaginary_loss_sandwich(self, rng):
        # anisotropic passive tensor whose imaginary part has rank 1 or 2, so
        # eigenmodes of zero rate are dropped; summed over the loss channels,
        # rate * C* C^T must equal sum_n D_n* Im(G) D_n^T / (hbar eps0)
        env = make_env(random_unit_vector(rng), hbar=0.7, epsilon0=1.3)
        for rank in (1, 2):
            for _ in range(10):
                A = rng.normal(size=(3, 3))
                U = rng.normal(size=(3, rank))
                tensor = 0.2 * (A + A.T) + 1j * (U @ U.T)
                loss = LossModel.from_array(tensor)
                model = random_model(rng, 2, 3)
                bundle = coupling_bundle(model, env, loss)
                lossy = bundle.columns == CHANNELS.index("loss")
                C = bundle.couplings[lossy]
                rebuilt = np.einsum("c,cxn,cyn->xy", bundle.rate_scales[lossy], C.conj(), C)
                D = model.dipole_array()
                direct = np.einsum("nxi,ij,nyj->xy", D.conj(), tensor.imag, D)
                direct /= env.hbar * env.epsilon0
                assert np.max(np.abs(rebuilt - direct)) < 1e-13

    def test_damping_matrix_consistent_with_gamma(self, rng):
        model = random_model(rng, 2, 3)
        env = make_env(random_unit_vector(rng))
        bundle = coupling_bundle(model, env, LossModel.isotropic(0.15))
        go = bundle.Gamma.T
        from_gamma = (go - go.conj().T) / (2j * env.hbar) * 2.0
        assert np.max(np.abs(bundle.damping_rate_matrix() - from_gamma)) < 1e-13

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
        for name in ("Gamma", "coherent_shift"):
            assert np.max(np.abs(getattr(a, name) - getattr(b, name))) < 1e-14

    def test_reactive_loss_gives_half_sandwich_level_shift(self):
        # d . Re(G_loss) . d* = 0.3 on a matched dipole shifts the effective
        # transition energy by +0.15 (coherent_shift enters with a minus sign)
        loss = LossModel.from_array(0.3 * np.eye(3) + 0.2j * np.eye(3))
        bundle = coupling_bundle(two_level(), make_env([1, 0, 0]), loss)
        assert bundle.coherent_shift[0, 0] == pytest.approx(-0.15)
        assert bundle.total_decay_rates()[0] == pytest.approx(10.2)

    def test_damping_is_positive_semidefinite(self, rng):
        for _ in range(30):
            model = random_model(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            env = make_env(random_unit_vector(rng))
            loss = LossModel.isotropic(float(rng.uniform(0, 0.5)))
            K = coupling_bundle(model, env, loss).damping_rate_matrix()
            assert np.min(np.linalg.eigvalsh(K)) > -1e-12
