import json

import numpy as np
import pytest

import uncertainty_lab as ul
from helpers import rand_hermitian


class TestInner:
    def test_unit_norm(self):
        assert ul.inner([1, 0, 0], [1, 0, 0]) == pytest.approx(1.0)

    def test_orthogonal_basis(self):
        assert ul.inner([1, 0, 0], [0, 1, 0]) == 0

    def test_conjugate_pair_cancels(self):
        u = np.array([1, 1j, 0]) / np.sqrt(2)
        v = np.array([1, -1j, 0]) / np.sqrt(2)
        # (1*1 + conj(i)*(-i)) / 2 = (1 - 1) / 2
        assert abs(ul.inner(u, v)) <= 1e-15

    def test_conjugate_linearity_first_argument(self):
        u = np.array([1 + 2j, -0.5j, 0.25])
        v = np.array([0.5, 1j, -1 - 1j])
        assert ul.inner(2j * u, v) == pytest.approx((-2j) * ul.inner(u, v))

    def test_conjugate_symmetry(self, rng):
        for _ in range(50):
            u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert ul.inner(u, v) == pytest.approx(np.conj(ul.inner(v, u)), abs=1e-12)

    def test_accepts_state_vectors(self, phi2):
        assert ul.inner(phi2, phi2) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ul.DimensionMismatch):
            ul.inner([1, 0], [1, 0, 0])


class TestCommutator:
    def test_self_commutator_vanishes(self, l4):
        assert np.all(ul.commutator(l4, l4) == 0)

    def test_lambda3_lambda4_gives_minus_i_lambda5(self, l3, l4, l5):
        assert np.allclose(ul.commutator(l3, l4), -1j * l5.matrix, atol=1e-15)

    def test_diagonal_pair_commutes(self):
        a = ul.validate_observable(np.diag([1.0, 2.0, 3.0]).astype(complex))
        b = ul.validate_observable(np.diag([3.0, 4.0, -1.0]).astype(complex))
        assert np.linalg.norm(ul.commutator(a, b)) <= ul.DEFAULT_TOLERANCES.tol_zero * 3

    def test_antisymmetry(self, rng):
        a, b = rand_hermitian(rng, 4), rand_hermitian(rng, 4)
        assert np.array_equal(ul.commutator(a, b), -ul.commutator(b, a))

    def test_result_anti_hermitian(self, rng):
        a, b = rand_hermitian(rng, 5), rand_hermitian(rng, 5)
        m = ul.commutator(a, b)
        assert np.max(np.abs(m + m.conj().T)) <= 1e-12

    def test_dimension_mismatch(self, l3):
        with pytest.raises(ul.DimensionMismatch):
            ul.commutator(l3, ul.identity(4))


class TestValidateObservable:
    def test_accepts_lambda4(self):
        mat = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)
        obs = ul.validate_observable(mat)
        assert obs.dim == 3
        assert np.array_equal(obs.matrix, mat)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ul.ValidationError, match="not Hermitian"):
            ul.validate_observable([[0, 1], [0, 0]])

    def test_rejects_defect_beyond_tolerance(self):
        with pytest.raises(ul.ValidationError):
            ul.validate_observable([[1, 1e-6j], [0, 1]])
        # same shape of defect, but below an explicitly loosened tolerance
        ul.validate_observable([[1, 1e-6j], [0, 1]], ul.Tolerances(tol_herm=1e-5))

    def test_accepts_defect_within_tolerance(self):
        ul.validate_observable([[1, 1e-13j], [-1e-13j, 1]])

    def test_rejects_tiny_defect_under_tight_tolerance(self):
        with pytest.raises(ul.ValidationError):
            ul.validate_observable([[1, 1e-13j], [0, 1]], ul.Tolerances(tol_herm=1e-14))

    def test_large_entries_are_judged_relative_to_their_size(self):
        # a rotated Hermitian matrix carries roundoff of the size of its
        # entries; at 1e4 that is far above the absolute tol_herm
        rng = np.random.default_rng(44)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        rotated = q @ (1e4 * (m + m.conj().T) / 2) @ q.conj().T
        assert np.max(np.abs(rotated - rotated.conj().T)) > ul.DEFAULT_TOLERANCES.tol_herm
        ul.validate_observable(rotated)
        with pytest.raises(ul.ValidationError, match="not Hermitian"):
            ul.validate_observable(1e4 * np.array([[1, 1e-6j], [0, 1]]))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ul.ValidationError, match="finite"):
            ul.validate_observable([[np.nan, 0], [0, 1]])
        with pytest.raises(ul.ValidationError, match="finite"):
            ul.validate_observable([[1, 0], [0, np.inf]])

    def test_rejects_small_dimension(self):
        with pytest.raises(ul.ValidationError):
            ul.validate_observable([[1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ul.ValidationError):
            ul.validate_observable([[1, 0, 0], [0, 1, 0]])

    def test_matrix_is_read_only(self, l3):
        with pytest.raises(ValueError):
            l3.matrix[0, 0] = 5.0
        with pytest.raises(AttributeError):
            l3.matrix = np.eye(3)


class TestObservableArithmetic:
    def test_sum_and_negation(self, l3, l4):
        s = l3 + l4
        assert np.array_equal(s.matrix, l3.matrix + l4.matrix)
        assert np.array_equal((-l3).matrix, -l3.matrix)
        assert np.array_equal((l3 - l4).matrix, l3.matrix - l4.matrix)

    def test_real_scaling(self, l3):
        assert np.array_equal((2.5 * l3).matrix, 2.5 * l3.matrix)

    def test_complex_scaling_rejected(self, l3):
        with pytest.raises(ul.ValidationError):
            (1j * l3)  # noqa: B018

    def test_sum_dimension_mismatch(self, l3):
        with pytest.raises(ul.DimensionMismatch):
            l3 + ul.identity(4)


class TestStateVector:
    def test_norm_validation(self):
        with pytest.raises(ul.ValidationError, match="not normalized"):
            ul.StateVector([1.0, 1.0])
        ul.StateVector(np.array([1.0, 1.0]) / np.sqrt(2))

    def test_normalized_classmethod(self):
        phi = ul.StateVector.normalized([3.0, 4.0])
        assert np.allclose(phi.amps, [0.6, 0.8])

    def test_zero_vector_rejected(self):
        with pytest.raises(ul.ValidationError, match="zero vector"):
            ul.StateVector.normalized([0.0, 0.0])

    @pytest.mark.parametrize("raw, expected", [
        ([1e200, 1e200j], [1 / np.sqrt(2), 1j / np.sqrt(2)]),  # the sum of squares overflows
        ([1e-320, 0.0], [1.0, 0.0]),  # the sum of squares underflows to zero
        ([1.7e308 + 1.7e308j, 0.0], [(1 + 1j) / np.sqrt(2), 0.0]),  # the modulus overflows
    ])
    def test_normalized_at_extreme_scales(self, raw, expected):
        phi = ul.StateVector.normalized(raw)
        assert np.max(np.abs(phi.amps - expected)) <= 1e-15
        assert abs(np.linalg.norm(phi.amps) - 1.0) <= 1e-15

    def test_normalized_keeps_every_check(self):
        for raw in ([0.0, -0.0], [np.nan, 1.0], [np.inf, 1.0],
                    [1.0, complex(0, np.inf)], [[1.0, 0.0]], 1.0, []):
            with pytest.raises(ul.ValidationError):
                ul.StateVector.normalized(raw)
        with pytest.raises(ul.ValidationError, match="not normalized"):
            ul.StateVector.normalized([1.0, 1.0], ul.Tolerances(tol_norm=1e-300))

    def test_normalized_ordinary_input_divides_by_the_norm(self, rng):
        # the rescaling never touches ordinary inputs, so their digits do not move
        for scale in (1e-70, 1e-3, 1.0, 1e3, 1e70):
            raw = scale * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
            expected = raw / np.linalg.norm(raw)
            assert ul.StateVector.normalized(raw).amps.tobytes() == expected.tobytes()

    def test_nan_rejected(self):
        with pytest.raises(ul.ValidationError):
            ul.StateVector([np.nan, 0.0])

    def test_immutable(self, phi2):
        with pytest.raises(ValueError):
            phi2.amps[0] = 0.0


class TestTolerances:
    def test_defaults(self):
        tol = ul.Tolerances()
        assert tol.tol_herm == 1e-12
        assert tol.tol_norm == 1e-12
        assert tol.tol_zero == 1e-10
        assert tol.eps_spread == 1e-6

    @pytest.mark.parametrize("field", ["tol_herm", "tol_norm", "tol_zero", "eps_spread"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ul.ValidationError):
            ul.Tolerances(**{field: 0.0})
        with pytest.raises(ul.ValidationError):
            ul.Tolerances(**{field: -1e-9})


class TestHaarState:
    def test_normalized(self, rng):
        assert np.linalg.norm(ul.haar_state(5, rng).amps) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_per_seed(self):
        a = ul.haar_state(4, np.random.default_rng(42))
        b = ul.haar_state(4, np.random.default_rng(42))
        assert np.array_equal(a.amps, b.amps)


class TestJson:
    def test_observable_round_trip(self, l5):
        doc = json.loads(json.dumps(ul.observable_to_json_dict(l5)))
        back = ul.observable_from_json_dict(doc)
        assert np.array_equal(back.matrix, l5.matrix)

    def test_state_round_trip(self, phi2):
        doc = json.loads(json.dumps(ul.state_to_json_dict(phi2)))
        back = ul.state_from_json_dict(doc)
        assert np.array_equal(back.amps, phi2.amps)

    def test_complex_scalar_encoding(self):
        assert ul.complex_to_pair(1 - 2j) == [1.0, -2.0]
        assert ul.complex_from_pair([1.0, -2.0]) == 1 - 2j

    @pytest.mark.parametrize(
        "doc",
        [
            {"entries": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},  # missing dim
            {"dim": 2},  # missing entries
            {"dim": 2, "entries": [[[0, 0], [1, 0]]]},  # wrong row count
            {"dim": 2, "entries": [[[0, 0], [1, 0]], [[1, 0]]]},  # ragged row
            {"dim": 2, "entries": [[[0, 0], "x"], [[1, 0], [0, 0]]]},  # bad scalar
            {"dim": 2.5, "entries": []},  # non-integer dim
            {"dim": 2, "entries": [[[0, 0], [1, 0]], [[1, 0], [True, 0]]]},  # boolean entry
            {"dim": 2, "entries": [[[0, 0], [1, None]], [[1, None], [0, 0]]]},  # null entry
            {"dim": 2, "entries": [[[0, 0], ["1", "0"]], [["1", "0"], [0, 0]]]},  # string pair
            {"dim": 2, "entries": [[[0, 0], [1, 0, 0]], [[1, 0], [0, 0]]]},  # 3-element pair
            {"dim": 2, "entries": [[[[0, 0]], [[1, 0]]], [[[1, 0]], [[0, 0]]]]},  # extra nesting
            {"dim": 2, "entries": [[[0, 0], [10**400, 0]], [[10**400, 0], [0, 0]]]},  # huge int
        ],
    )
    def test_observable_schema_violations(self, doc):
        with pytest.raises(ul.ValidationError):
            ul.observable_from_json_dict(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"dim": 2},
            {"amps": [[1, 0], [0, 0]]},
            {"dim": 3, "amps": [[1, 0], [0, 0]]},
            {"dim": 2, "amps": [[1, 0], [0, 0, 0]]},
            {"dim": 2, "amps": [[1, 0], [False, 0]]},  # boolean entry
            {"dim": 2, "amps": [[1, 0], [None, 0]]},  # null entry
            {"dim": 2, "amps": [["1", "0"], [0, 0]]},  # string pair
            {"dim": 2, "amps": [[1, 0, 0], [0, 0, 0]]},  # 3-element pairs
            {"dim": 2, "amps": [[[1, 0]], [[0, 0]]]},  # extra nesting
            {"dim": 2, "amps": [[10**400, 0], [0, 0]]},  # huge int
            {"dim": 2, "amps": [[1, 0], "x"]},  # bad scalar
        ],
    )
    def test_state_schema_violations(self, doc):
        with pytest.raises(ul.ValidationError):
            ul.state_from_json_dict(doc)

    def test_encoding_matches_the_per_entry_form(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m = (m + m.conj().T) / 2.0
        m[0, 0] = complex(-0.0, -0.0)
        m[1, 2], m[2, 1] = complex(-0.0, 0.5), complex(-0.0, -0.5)
        obs = ul.validate_observable(m)
        phi = ul.StateVector.normalized(m[:, 3])
        per_entry = [[[z.real, z.imag] for z in row] for row in obs.matrix.tolist()]
        amps = [[z.real, z.imag] for z in phi.amps.tolist()]
        assert "-0.0" in json.dumps(per_entry)
        # json text, so that the sign of each zero is compared too
        assert json.dumps(ul.observable_to_json_dict(obs)) == json.dumps(
            {"dim": 8, "entries": per_entry}
        )
        assert json.dumps(ul.state_to_json_dict(phi)) == json.dumps({"dim": 8, "amps": amps})
        assert np.array_equal(
            ul.observable_from_json_dict(json.loads(json.dumps({"dim": 8, "entries": per_entry})))
            .matrix.view(float),
            obs.matrix.view(float),
        )


def test_identity_helper():
    eye = ul.identity(3)
    assert np.array_equal(eye.matrix, np.eye(3))
    with pytest.raises(ul.ValidationError):
        ul.identity(1)
