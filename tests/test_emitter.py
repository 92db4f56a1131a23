"""Emitter model construction, validation, effective dipoles, basis rotation."""

import numpy as np
import pytest

from wgqed import (
    EmitterModel,
    ExcitedSuperposition,
    LossModel,
    ModelValidationError,
    NonDegenerateManifoldError,
    NonUnitaryMatrixError,
    PolarizationVector,
    coupling_bundle,
    effective_dipole,
    rotate_excited_basis,
    validate,
)

from conftest import make_env, random_model, random_unitary


def v_system() -> EmitterModel:
    return EmitterModel.from_arrays([0.0], [1.0, 1.0], [[[1, 0, 0], [0, 1, 0]]])


class TestPolarizationVector:
    def test_components_and_norm(self):
        v = PolarizationVector([3, 4j, 0])
        assert v.components == (3 + 0j, 4j, 0j)
        assert v.norm() == pytest.approx(5.0)

    def test_two_component_input_embeds_in_plane(self):
        v = PolarizationVector([1, 1j])
        assert v.components == (1 + 0j, 1j, 0j)

    def test_varargs_form(self):
        assert PolarizationVector(1, 2, 3) == PolarizationVector([1, 2, 3])

    def test_wrong_length_rejected(self):
        with pytest.raises(ModelValidationError) as exc:
            PolarizationVector([1, 2, 3, 4])
        assert exc.value.code == "dimension-mismatch"

    def test_conjugated(self):
        v = PolarizationVector([1, 1j, 0])
        assert v.conjugated() == PolarizationVector([1, -1j, 0])

    def test_array_view_is_read_only(self):
        v = PolarizationVector([1, 0, 0])
        with pytest.raises(ValueError):
            v.as_array()[0] = 2.0


class TestValidate:
    def test_well_formed_v_system(self):
        validate(v_system())  # 1 ground, 2 excited, 2 dipoles

    def test_dipole_row_count_mismatch(self):
        vec = PolarizationVector([1, 0, 0])
        model = EmitterModel(
            ground_energies=(0.0,),
            excited_energies=(1.0,),
            dipoles=((vec,), (vec,)),  # 2 x 1 dipole matrix, 1 ground declared
        )
        with pytest.raises(ModelValidationError) as exc:
            validate(model)
        assert exc.value.code == "dimension-mismatch"

    def test_ragged_row_rejected(self):
        vec = PolarizationVector([1, 0, 0])
        model = EmitterModel(
            ground_energies=(0.0,),
            excited_energies=(1.0, 1.0),
            dipoles=((vec,),),
        )
        with pytest.raises(ModelValidationError) as exc:
            validate(model)
        assert exc.value.code == "dimension-mismatch"

    def test_nan_dipole_rejected(self):
        model = EmitterModel.from_arrays([0.0], [1.0], [[[np.nan, 0, 0]]])
        with pytest.raises(ModelValidationError) as exc:
            validate(model)
        assert exc.value.code == "non-finite-entry"

    def test_first_non_finite_dipole_in_row_major_order_named(self):
        D = np.ones((2, 2, 3), dtype=complex)
        D[1, 0, 0] = np.nan
        D[0, 1, 2] = complex(0.0, np.inf)
        model = EmitterModel.from_arrays([0.0, 0.0], [1.0, 1.0], D)
        with pytest.raises(ModelValidationError) as exc:
            validate(model)
        assert exc.value.code == "non-finite-entry"
        assert "dipole (0, 1)" in str(exc.value)

    def test_ragged_rows_reported_before_non_finite_entries(self):
        # rows of unequal length cannot form a dipole array; the mismatch is
        # reported as such, not as a numpy error or a non-finite entry
        vec = PolarizationVector([1, 0, 0])
        bad = PolarizationVector([np.nan, 0, 0])
        model = EmitterModel(
            ground_energies=(0.0, 0.0),
            excited_energies=(1.0, 1.0),
            dipoles=((bad, vec), (vec,)),
        )
        for check in (validate, lambda m: coupling_bundle(m, make_env([1, 0, 0]),
                                                           LossModel.none())):
            with pytest.raises(ModelValidationError) as exc:
                check(model)
            assert exc.value.code == "dimension-mismatch"

    @pytest.mark.parametrize("ground,excited", [((), (1.0,)), ((0.0,), ())])
    def test_empty_manifold_rejected(self, ground, excited):
        model = EmitterModel(ground_energies=ground, excited_energies=excited, dipoles=())
        with pytest.raises(ModelValidationError) as exc:
            validate(model)
        assert exc.value.code == "empty-manifold"


class TestEffectiveDipole:
    def test_weighted_sum_of_arms(self):
        # (i |e1> + 2 |e2>)/sqrt(5) over x and y dipoles
        state = ExcitedSuperposition.from_sequence(np.array([1j, 2]) / np.sqrt(5))
        d = effective_dipole(v_system(), 0, state)
        expected = np.array([1j, 2, 0]) / np.sqrt(5)
        assert np.allclose(d.as_array(), expected, atol=1e-15)

    def test_single_amplitude_returns_that_dipole(self):
        state = ExcitedSuperposition.from_sequence([1.0, 0.0])
        d = effective_dipole(v_system(), 0, state)
        assert d == PolarizationVector([1, 0, 0])

    def test_balanced_orthogonal_arms_have_unit_norm(self):
        state = ExcitedSuperposition.from_sequence(np.array([1, 1]) / np.sqrt(2))
        assert effective_dipole(v_system(), 0, state).norm() == pytest.approx(1.0)

    def test_linearity_in_amplitudes(self, rng):
        model = random_model(rng, 2, 3)
        for _ in range(25):
            a = rng.normal(size=3) + 1j * rng.normal(size=3)
            b = rng.normal(size=3) + 1j * rng.normal(size=3)
            lam = complex(rng.normal(), rng.normal())
            lhs = effective_dipole(
                model, 1, ExcitedSuperposition.from_sequence(a + lam * b)
            ).as_array()
            rhs = (
                effective_dipole(model, 1, ExcitedSuperposition.from_sequence(a)).as_array()
                + lam
                * effective_dipole(model, 1, ExcitedSuperposition.from_sequence(b)).as_array()
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-14 * max(1.0, np.max(np.abs(rhs)))

    def test_ground_index_out_of_range(self):
        state = ExcitedSuperposition.from_sequence([1.0, 0.0])
        with pytest.raises(IndexError):
            effective_dipole(v_system(), 3, state)


class TestRotateExcitedBasis:
    def test_identity_leaves_model_unchanged(self):
        model = v_system()
        rotated = rotate_excited_basis(model, np.eye(2))
        assert rotated == model

    def test_swap_permutes_dipoles(self):
        rotated = rotate_excited_basis(v_system(), [[0, 1], [1, 0]])
        assert rotated.dipoles[0][0] == PolarizationVector([0, 1, 0])
        assert rotated.dipoles[0][1] == PolarizationVector([1, 0, 0])

    def test_linear_pair_maps_to_circular_pair(self):
        U = np.array([[1, 1j], [1, -1j]]) / np.sqrt(2)
        rotated = rotate_excited_basis(v_system(), U)
        got = rotated.dipole_array()[0]
        expected = np.array([[1, 1j, 0], [1, -1j, 0]]) / np.sqrt(2)
        assert np.allclose(got, expected, atol=1e-15)
        assert rotated.excited_energies == v_system().excited_energies

    def test_rotation_roundtrip(self, rng):
        model = random_model(rng, 2, 3, degenerate=True)
        U = random_unitary(rng, 3)
        back = rotate_excited_basis(rotate_excited_basis(model, U), U.conj().T)
        assert np.max(np.abs(back.dipole_array() - model.dipole_array())) < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitaryMatrixError):
            rotate_excited_basis(v_system(), [[1, 0], [0, 2]])

    def test_wrong_shape_rejected(self):
        with pytest.raises(NonUnitaryMatrixError):
            rotate_excited_basis(v_system(), np.eye(3))

    def test_non_degenerate_manifold_rejected(self):
        model = EmitterModel.from_arrays(
            [0.0], [1.0, 1.5], [[[1, 0, 0], [0, 1, 0]]]
        )
        with pytest.raises(NonDegenerateManifoldError):
            rotate_excited_basis(model, np.eye(2))
