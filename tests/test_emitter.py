"""Emitter model construction, validation, excited superpositions, basis
rotation, the immutable value types, and the number rule of the library's
arguments."""

import copy
import math
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgqed import (
    EmitterModel,
    ExcitedSuperposition,
    LossModel,
    ModelValidationError,
    NonDegenerateManifoldError,
    NonUnitaryMatrixError,
    PolarizationVector,
    ScatterInput,
    evolve,
    polarization_sweep,
    rotate_excited_basis,
    two_level_closed_form,
)
from wgqed.cli import preset
from wgqed.emitter import _Value

from conftest import (
    ARGUMENTS,
    FUZZ_LEAVES,
    make_env,
    numbers_only,
    random_model,
    random_unitary,
)


def v_system() -> EmitterModel:
    return EmitterModel.from_arrays([0.0], [1.0, 1.0], [[[1, 0, 0], [0, 1, 0]]])


class TestPolarizationVector:
    def test_components_and_norm(self):
        v = PolarizationVector([3, 4j, 0])
        assert v.as_array().tolist() == [3 + 0j, 4j, 0j]
        assert np.linalg.norm(v.as_array()) == pytest.approx(5.0)

    def test_two_component_input_embeds_in_plane(self):
        v = PolarizationVector([1, 1j])
        assert v.as_array().tolist() == [1 + 0j, 1j, 0j]

    def test_wrong_length_rejected(self):
        with pytest.raises(ModelValidationError) as exc:
            PolarizationVector([1, 2, 3, 4])
        assert exc.value.code == "dimension-mismatch"

    @pytest.mark.parametrize("components", [
        ["1", 0, 0], [True, 0, 0], [None, 0, 0], "abc", object(), [[1, 0], [0]],
        np.array(["1", "0", "0"]), np.array([True, False, False]), [10**400, 0, 0],
    ], ids=["numeric-string", "bool", "none", "string", "object", "ragged",
            "string-array", "bool-array", "beyond-complex-range"])
    def test_non_number_components_rejected(self, components):
        for build, message in (
            (PolarizationVector, "polarization vector components must be numbers"),
            (ExcitedSuperposition, "amplitudes must form a 1-d array of numbers"),
        ):
            with pytest.raises(ModelValidationError) as exc:
                build(components)
            assert exc.value.code == "dimension-mismatch"
            assert str(exc.value) == message

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.float32, np.complex64, object])
    def test_numeric_arrays_of_any_kind_accepted(self, dtype):
        v = PolarizationVector(np.array([1, 0, 2], dtype=dtype))
        assert v == PolarizationVector([1, 0, 2]) and v.as_array().dtype == complex

    @settings(max_examples=300, deadline=None)
    @given(value=st.one_of(ARGUMENTS, st.lists(FUZZ_LEAVES, min_size=1, max_size=3)))
    def test_any_argument_builds_or_raises_a_validation_error(self, value):
        # never a TypeError, an OverflowError or a numpy error, and nothing
        # but numbers builds
        for build in (PolarizationVector, ExcitedSuperposition,
                      ExcitedSuperposition.from_sequence):
            try:
                build(value)
            except ModelValidationError:
                continue
            assert numbers_only(value)

    def test_conjugated(self):
        v = PolarizationVector([1, 1j, 0])
        assert v.conjugated() == PolarizationVector([1, -1j, 0])

    def test_array_view_is_read_only(self):
        v = PolarizationVector([1, 0, 0])
        with pytest.raises(ValueError):
            v.as_array()[0] = 2.0

    def test_later_write_to_the_input_array_leaves_it_alone(self):
        a = np.array([1, 0, 0], dtype=complex)
        v = PolarizationVector(a)
        a[0] = 2.0
        assert v == PolarizationVector([1, 0, 0])


class TestValidate:
    """The model checks itself when it is built."""

    def test_well_formed_v_system(self):
        D = v_system().dipole_array()  # 1 ground, 2 excited, 2 dipoles
        np.testing.assert_array_equal(D, [[[1, 0, 0], [0, 1, 0]]])
        assert D.dtype == complex

    def test_dipole_array_is_read_only(self):
        with pytest.raises(ValueError):
            v_system().dipole_array()[0, 0, 0] = 2.0

    def test_later_write_to_the_input_array_leaves_the_model_alone(self):
        D = np.array([[[1, 0, 0], [0, 1, 0]]], dtype=complex)
        model = EmitterModel.from_arrays([0.0], [1.0, 1.0], D)
        D[0, 0, 0] = np.nan
        assert model == v_system()
        np.testing.assert_array_equal(model.dipole_array(), v_system().dipole_array())

    def test_equality_and_hash_come_from_energies_and_array(self):
        a, b = v_system(), v_system()
        assert a == b and hash(a) == hash(b)
        assert a != EmitterModel.from_arrays([0.0], [1.0, 1.0], [[[1, 0, 0], [0, 0, 1]]])
        assert a != EmitterModel.from_arrays([0.0], [1.0, 1.1], [[[1, 0, 0], [0, 1, 0]]])
        assert a != EmitterModel.from_arrays([0.0, 0.0], [1.0], [[[1, 0, 0]], [[0, 1, 0]]])
        assert EmitterModel.from_arrays([0.0], [1.0, 1.0], [[[1, 0], [0, 1]]]) == a

    def test_signed_zeros_hash_equal(self):
        D = np.array([[[1, 0, 0], [0, 1, 0]]], dtype=complex)
        D_neg = np.array([[[1, complex(-0.0, -0.0), -0.0], [complex(0.0, -0.0), 1, 0]]])
        a = EmitterModel.from_arrays([0.0], [1.0, 1.0], D)
        b = EmitterModel.from_arrays([-0.0], [1.0, 1.0], D_neg)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_model_is_frozen(self):
        with pytest.raises(AttributeError):
            v_system().ground_energies = (1.0,)

    def test_dipole_row_count_mismatch(self):
        with pytest.raises(ModelValidationError) as exc:
            # 2 x 1 dipole matrix, 1 ground declared
            EmitterModel.from_arrays([0.0], [1.0], [[[1, 0, 0]], [[1, 0, 0]]])
        assert exc.value.code == "dimension-mismatch"
        assert str(exc.value) == "dipole matrix has 2 rows for 1 ground states"

    def test_ragged_row_rejected(self):
        with pytest.raises(ModelValidationError) as exc:
            EmitterModel.from_arrays([0.0], [1.0, 1.0], [[[1, 0, 0]]])
        assert exc.value.code == "dimension-mismatch"
        assert str(exc.value) == "dipole row 0 has 1 entries for 2 excited states"

    @pytest.mark.parametrize("n_e,dipoles", [
        (1, [[[1, 0, 0, 0]]]),          # four components
        (1, [[[1]]]),                   # one component
        (1, [[1]]),                     # a number, not a vector
        (1, [[[[1, 0, 0]]]]),           # one level too deep
        (2, [[[1, 0], [0, 1, 0]]]),     # vectors of unequal length
        (1, [[["x", 0, 0]]]),           # not a number
        (1, [[["1", "0j", 0]]]),        # numeric strings
        (1, [[[True, 0, 0]]]),          # a bool
        (1, np.array([[[True, False, False]]])),
        (1, np.array([[["1", "0", "0"]]])),
        (1, [[[10**400, 0, 0]]]),       # beyond the complex range
        (1, [[None]]),
        (1, 5),
    ])
    def test_wrongly_shaped_dipoles_rejected(self, n_e, dipoles):
        with pytest.raises(ModelValidationError) as exc:
            EmitterModel.from_arrays([0.0], [1.0] * n_e, dipoles)
        assert exc.value.code == "dimension-mismatch"
        assert str(exc.value) == f"dipoles must form an (1, {n_e}, 3) array of numbers"

    @pytest.mark.parametrize("ground,excited", [([np.nan], [1.0]), ([0.0], [np.inf])])
    def test_non_finite_energy_rejected(self, ground, excited):
        with pytest.raises(ModelValidationError) as exc:
            EmitterModel.from_arrays(ground, excited, [[[1, 0, 0]]])
        assert exc.value.code == "non-finite-entry"
        assert str(exc.value) == "level energies must be finite"

    def test_nan_dipole_rejected(self):
        with pytest.raises(ModelValidationError) as exc:
            EmitterModel.from_arrays([0.0], [1.0], [[[np.nan, 0, 0]]])
        assert exc.value.code == "non-finite-entry"

    def test_first_non_finite_dipole_in_row_major_order_named(self):
        D = np.ones((2, 2, 3), dtype=complex)
        D[1, 0, 0] = np.nan
        D[0, 1, 2] = complex(0.0, np.inf)
        with pytest.raises(ModelValidationError) as exc:
            EmitterModel.from_arrays([0.0, 0.0], [1.0, 1.0], D)
        assert exc.value.code == "non-finite-entry"
        assert str(exc.value) == "dipole (0, 1) has a non-finite component"

    def test_ragged_rows_reported_before_non_finite_entries(self):
        # rows of unequal length cannot form a dipole array; the mismatch is
        # reported as such, not as a numpy error or a non-finite entry
        with pytest.raises(ModelValidationError) as exc:
            EmitterModel.from_arrays(
                [0.0, 0.0], [1.0, 1.0], [[[np.nan, 0, 0], [1, 0, 0]], [[1, 0, 0]]]
            )
        assert exc.value.code == "dimension-mismatch"
        assert str(exc.value) == "dipole row 1 has 1 entries for 2 excited states"

    @pytest.mark.parametrize("ground,excited", [((), (1.0,)), ((0.0,), ())])
    def test_empty_manifold_rejected(self, ground, excited):
        with pytest.raises(ModelValidationError) as exc:
            EmitterModel(ground_energies=ground, excited_energies=excited, dipoles=())
        assert exc.value.code == "empty-manifold"

    @pytest.mark.parametrize("energy", [None, "x", "0.5", True, np.bool_(False), 1j, 10**400,
                                        [0.0]])
    def test_non_number_energy_rejected(self, energy):
        with pytest.raises(ModelValidationError) as exc:
            EmitterModel.from_arrays([energy], [1.0], [[[1, 0, 0]]])
        assert exc.value.code == "non-finite-entry"
        assert str(exc.value) == "level energies must be finite"

    @settings(max_examples=300, deadline=None)
    @given(ground=st.one_of(ARGUMENTS, st.just([0.0])),
           excited=st.one_of(ARGUMENTS, st.just([1.0])),
           dipoles=st.one_of(ARGUMENTS, st.lists(FUZZ_LEAVES, min_size=2, max_size=3)
                             .map(lambda vec: [[vec]])))
    def test_any_argument_builds_or_raises_a_validation_error(self, ground, excited, dipoles):
        # never a TypeError, an OverflowError or a numpy error, and nothing
        # but numbers builds
        try:
            model = EmitterModel.from_arrays(ground, excited, dipoles)
        except ModelValidationError:
            return
        assert numbers_only(ground) and numbers_only(excited) and numbers_only(dipoles)
        D = model.dipole_array()
        assert D.shape == (model.n_ground, model.n_excited, 3) and not D.flags.writeable
        assert np.isfinite(D).all() and hash(model) == hash(EmitterModel.from_arrays(
            model.ground_energies, model.excited_energies, D))


class TestExcitedSuperposition:
    @pytest.mark.parametrize("amplitudes", [[[1, 0]], np.ones((2, 1)), 1.0])
    def test_superposition_must_be_one_dimensional(self, amplitudes):
        # directly or through from_sequence; non-numbers are rejected in
        # TestPolarizationVector
        for build in (ExcitedSuperposition, ExcitedSuperposition.from_sequence):
            with pytest.raises(ModelValidationError,
                               match="amplitudes must form a 1-d array of numbers"):
                build(amplitudes)
        assert ExcitedSuperposition(np.array([1, 0])).amplitudes == (1 + 0j, 0j)

    @pytest.mark.parametrize("amplitudes,norm", [
        ([1e308, 0], 1e308),
        ([1e308j, -1e308], math.hypot(1e308, 1e308)),
        ([1.7e308 + 1.7e308j, 0], math.inf),
        ([3e-200, 4e-200j], 5e-200),
        ([0.6, 0.8j], 1.0),
    ], ids=["huge", "huge-pair", "beyond-the-float-range", "tiny", "unit"])
    def test_norm_neither_overflows_nor_underflows(self, amplitudes, norm):
        # a square of these would overflow (a RuntimeWarning, an error in
        # tier-1) or underflow to 0
        assert ExcitedSuperposition(amplitudes).norm() == pytest.approx(norm, rel=1e-15, abs=0.0)

    def test_superposition_keeps_a_read_only_copy_of_its_array(self):
        a = np.array([1j, 2.0]) / np.sqrt(5.0)
        state = ExcitedSuperposition(a)
        expected = tuple(a.tolist())
        a[0] = 0.0
        arr = state.as_array()
        assert arr is state.as_array() and not arr.flags.writeable
        assert state.amplitudes == expected and tuple(arr.tolist()) == expected


class TestRotateExcitedBasis:
    def test_identity_leaves_model_unchanged(self):
        model = v_system()
        rotated = rotate_excited_basis(model, np.eye(2))
        assert rotated == model

    def test_swap_permutes_dipoles(self):
        rotated = rotate_excited_basis(v_system(), [[0, 1], [1, 0]])
        np.testing.assert_array_equal(rotated.dipole_array(), [[[0, 1, 0], [1, 0, 0]]])

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_rotation_rejected(self, bad):
        U = np.eye(2, dtype=complex)
        U[0, 1] = bad
        with pytest.raises(NonUnitaryMatrixError, match="not unitary"):
            rotate_excited_basis(v_system(), U)

    def test_overflowing_rotation_rejected(self):
        # finite entries whose U U^dagger overflows to inf - inf = nan, so
        # the defect is nan: the check is written so that nan fails it
        with pytest.raises(NonUnitaryMatrixError, match="not unitary"):
            rotate_excited_basis(v_system(), [[1e300, 1e300], [1e300, -1e300]])

    def test_wrong_shape_rejected(self):
        with pytest.raises(NonUnitaryMatrixError):
            rotate_excited_basis(v_system(), np.eye(3))

    @pytest.mark.parametrize("energy", [1e-12, 1.0, 1e12])
    def test_degeneracy_is_relative_to_the_energies(self, energy):
        # a spread of 1e-10 of the energies is degenerate and 1e-8 is not,
        # in any unit: no floor makes 1e-8 of 1e-12 degenerate
        for spread, degenerate in ((1e-10, True), (1e-8, False)):
            model = EmitterModel.from_arrays([0.0], [energy, energy * (1.0 + spread)],
                                             [[[1, 0, 0], [0, 1, 0]]])
            if degenerate:
                rotated = rotate_excited_basis(model, [[0, 1], [1, 0]])
                assert rotated.dipole_array()[0, 0].tolist() == [0, 1, 0]
            else:
                with pytest.raises(NonDegenerateManifoldError):
                    rotate_excited_basis(model, [[0, 1], [1, 0]])

    def test_non_degenerate_manifold_rejected(self):
        model = EmitterModel.from_arrays(
            [0.0], [1.0, 1.5], [[[1, 0, 0], [0, 1, 0]]]
        )
        with pytest.raises(NonDegenerateManifoldError):
            rotate_excited_basis(model, np.eye(2))


# One value of each immutable type, and its read-only array.
_VALUES = [
    (PolarizationVector([1, -0.0, 2j]), PolarizationVector.as_array),
    (v_system(), EmitterModel.dipole_array),
    (LossModel.from_array(0.3 * np.eye(3) + 0.2j * np.eye(3)), LossModel.as_array),
    (ExcitedSuperposition([1j, -0.0]), ExcitedSuperposition.as_array),
    (make_env([1, 1j], a=2.0, v_g=-0.5, omega=3), lambda env: env.E_f.as_array()),
    (ScatterInput("backward", 1, 1.25), None),      # holds no array
    (preset("two-level"), None),                    # holds its text and built objects
]
_VALUE_IDS = [type(value).__name__ for value, _ in _VALUES]


class TestValueTypes:
    """Polarization vectors, emitter models, loss models, excited
    superpositions, waveguide environments, scatter inputs and scenario
    configs are values: no attribute can change, and a copy is an equal,
    hash-equal value whose array, if it has one, is read-only."""

    def test_every_value_type_has_a_case(self):
        # a value type that wgqed or wgqed.cli defines cannot skip the contract
        types, todo = set(), [_Value]
        while todo:
            subclasses = todo.pop().__subclasses__()
            types.update(subclasses)
            todo.extend(subclasses)
        defined = {t for t in types if t.__module__.split(".")[0] == "wgqed"}
        assert defined == {type(value) for value, _ in _VALUES}

    @pytest.mark.parametrize("value,array", _VALUES, ids=_VALUE_IDS)
    @pytest.mark.parametrize("duplicate", [
        lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_copies_are_equal_read_only_values(self, value, array, duplicate):
        other = duplicate(value)
        assert type(other) is type(value)
        assert other == value and hash(other) == hash(value)
        assert repr(other) == repr(value)
        if array is None:
            return
        assert not array(other).flags.writeable
        np.testing.assert_array_equal(array(other), array(value))

    @pytest.mark.parametrize("value,array", _VALUES, ids=_VALUE_IDS)
    def test_no_attribute_can_be_set_or_deleted(self, value, array):
        before = hash(value)
        with pytest.raises(FrozenInstanceError):
            value.extra = 0
        for name in value.__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert hash(value) == before

    def test_values_of_different_types_are_unequal(self):
        vector = PolarizationVector([0, 0, 0])
        loss = LossModel.from_array(np.zeros((3, 3)))
        assert vector != loss and vector != vector.as_array().tolist()
        assert np.array_equal(vector.as_array(), loss.as_array()[0])


def _emit(initial=ExcitedSuperposition([1.0, 0.0]), times=(0.0, 1.0)):
    return evolve(v_system(), make_env([1, 0, 0]), LossModel.isotropic(0.2), initial,
                  times=times)


# each array or scalar argument with a non-number put in: the call, the error
# class of the argument's shape check and the name its message gives
_NUMBER_ARGUMENTS = {
    "theta_grid": (lambda x: polarization_sweep(v_system(), make_env([1, 0, 0]),
                                                LossModel.isotropic(0.2), ScatterInput(), [x]),
                   ValueError, "theta grid"),
    "times": (lambda x: _emit(times=[0, x]), ValueError, "output times"),
    "initial": (lambda x: _emit(initial=[[x, 0], [0, 0]]), ModelValidationError,
                "initial density matrix"),
    "U": (lambda x: rotate_excited_basis(v_system(), [[x, 0], [0, 1]]),
          NonUnitaryMatrixError, "rotation"),
    "detuning": (lambda x: two_level_closed_form([1, 0, 0], make_env([1, 0, 0]),
                                                 LossModel.isotropic(0.2), x),
                 ValueError, "detuning"),
}


class TestNumberRule:
    """Array and scalar arguments take numbers only: a numeric string, a
    bool, an integer beyond the float range or any other object raises the
    error class of the argument's shape check, naming the argument."""

    @pytest.mark.parametrize("value", ["1", True, 10**400, object()],
                             ids=["numeric-string", "bool", "beyond-float-range", "object"])
    @pytest.mark.parametrize("argument", list(_NUMBER_ARGUMENTS))
    def test_non_number_rejected(self, argument, value):
        call, error, name = _NUMBER_ARGUMENTS[argument]
        with pytest.raises(error) as exc:
            call(value)
        assert type(exc.value) is error and name in str(exc.value)
        if error is ModelValidationError:
            assert exc.value.code == "dimension-mismatch"

    @pytest.mark.parametrize("argument", list(_NUMBER_ARGUMENTS))
    def test_numbers_accepted(self, argument):
        # the same call with a number in place: each rejection above is the value's
        _NUMBER_ARGUMENTS[argument][0](1)
