import numpy as np
import pytest

import uncertainty_lab as ul


LAMBDA3 = np.diag([1.0, -1.0, 0.0]).astype(complex)
LAMBDA4 = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)
LAMBDA5 = np.array([[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]], dtype=complex)


class TestSu3Matrices:
    def test_lambda3_display(self, l3):
        assert np.array_equal(l3.matrix, LAMBDA3)

    def test_lambda4_display(self, l4):
        assert np.array_equal(l4.matrix, LAMBDA4)

    def test_lambda5_display(self, l5):
        assert np.array_equal(l5.matrix, LAMBDA5)

    def test_commutator_identity(self, l3, l4, l5):
        assert np.allclose(ul.commutator(l3, l4), -1j * l5.matrix, atol=1e-15)

    def test_other_antisymmetric_generators_keep_common_convention(self):
        assert np.array_equal(
            ul.su3_lambda(2).matrix, np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
        )
        assert np.array_equal(
            ul.su3_lambda(7).matrix, np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]])
        )

    def test_lambda8(self):
        expected = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3)
        assert np.allclose(ul.su3_lambda(8).matrix, expected, atol=1e-15)

    def test_index_range(self):
        with pytest.raises(ul.ValidationError):
            ul.su3_lambda(0)
        with pytest.raises(ul.ValidationError):
            ul.su3_lambda(9)

    @pytest.mark.parametrize("k", [True, 2.0, "3", None])
    def test_non_integer_index_rejected(self, k):
        with pytest.raises(ul.ValidationError, match="lambda index"):
            ul.su3_lambda(k)

    def test_numbering_picks_the_named_generators_bitwise(self):
        basis = ul.gell_mann(3)
        named = [basis.symmetric(1, 2), basis.antisymmetric(1, 2), basis.diagonal(1),
                 basis.symmetric(1, 3), basis.antisymmetric(1, 3), basis.symmetric(2, 3),
                 basis.antisymmetric(2, 3), basis.diagonal(2)]
        for k, expected in enumerate(named, start=1):
            assert ul.su3_lambda(k).matrix.tobytes() == expected.matrix.tobytes()


class TestGellMannBasis:
    def test_dimension_two_gives_paulis(self):
        basis = ul.gell_mann(2)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        got = [m.matrix for m in basis.matrices]
        assert len(got) == 3
        for pauli in (sx, sy, sz):
            assert any(np.array_equal(m, pauli) for m in got)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_invariants(self, dim):
        basis = ul.gell_mann(dim)
        mats = [m.matrix for m in basis.matrices]
        assert len(mats) == dim * dim - 1
        for m in mats:
            assert abs(np.trace(m)) <= 1e-10  # traceless
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12  # hermitian
        for i, mi in enumerate(mats):
            for j, mj in enumerate(mats):
                expected = 2.0 if i == j else 0.0
                assert abs(np.trace(mi @ mj) - expected) <= 1e-10

    def test_ordering_symmetric_then_antisymmetric_then_diagonal(self):
        basis = ul.gell_mann(4)
        pairs = [(j, k) for j in range(1, 4) for k in range(j + 1, 5)]
        for idx, (j, k) in enumerate(pairs):
            assert basis.matrices[idx] is basis.symmetric(j, k)
            assert basis.matrices[len(pairs) + idx] is basis.antisymmetric(j, k)
        for l in range(1, 4):
            assert basis.matrices[2 * len(pairs) + l - 1] is basis.diagonal(l)

    def test_accessor_bounds(self):
        basis = ul.gell_mann(3)
        with pytest.raises(ul.ValidationError):
            basis.symmetric(2, 2)
        with pytest.raises(ul.ValidationError):
            basis.antisymmetric(0, 1)
        with pytest.raises(ul.ValidationError):
            basis.diagonal(3)

    @pytest.mark.parametrize("accessor, indices", [
        ("symmetric", (1.5, 2)), ("symmetric", (True, 2)), ("symmetric", (1, "2")),
        ("antisymmetric", (1, 2.0)), ("diagonal", (1.0,)), ("diagonal", (True,)),
    ])
    def test_accessors_refuse_non_integer_indices(self, accessor, indices):
        with pytest.raises(ul.ValidationError, match="must be an integer"):
            getattr(ul.gell_mann(3), accessor)(*indices)

    def test_accessors_take_numpy_integers(self):
        basis = ul.gell_mann(3)
        one, two = np.int64(1), np.int64(2)
        assert basis.symmetric(one, two) is basis.symmetric(1, 2)
        assert basis.antisymmetric(one, np.int32(3)) is basis.antisymmetric(1, 3)
        assert basis.diagonal(one) is basis.diagonal(1)

    def test_dimension_guard(self):
        with pytest.raises(ul.ValidationError):
            ul.gell_mann(1)

    @pytest.mark.parametrize("builder", [ul.gell_mann, ul.uniform_superposition])
    @pytest.mark.parametrize("dim", [2.5, True, "3", 0])
    def test_unusable_size_rejected_by_name(self, builder, dim):
        with pytest.raises(ul.ValidationError, match="dim"):
            builder(dim)

    def test_note_documents_sign_convention(self):
        assert "negative of the common convention" in ul.gell_mann(3).note
        assert "negative" not in ul.gell_mann(4).note


class TestExampleStates:
    def test_two_level_state_normalization(self):
        phi = ul.two_level_state(3, 4j)
        assert np.allclose(phi.amps, [0.6, 0.8j, 0.0])

    def test_two_level_state_rejects_double_zero(self):
        with pytest.raises(ul.ValidationError):
            ul.two_level_state(0, 0)

    def test_single_component_becomes_eigenvector(self, l3):
        # a = i, b = 0 is allowed; it is an eigenvector of lambda3
        phi = ul.two_level_state(1j, 0)
        assert ul.is_eigenstate(l3, phi)
        assert ul.classify(l3, ul.su3_lambda(4), phi).eigen_a

    def test_uniform_superposition(self):
        phi = ul.uniform_superposition(5)
        assert phi.dim == 5
        assert np.allclose(phi.amps, np.full(5, 1 / np.sqrt(5)))

    def test_zero_correlation_family(self, l3, l4, rng):
        # every (a, b) with both nonzero kills the correlation but not the spreads
        for _ in range(50):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) + 0.1
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) + 0.1j
            phi = ul.two_level_state(a, b)
            assert abs(ul.correlation(l3, l4, phi)) <= 1e-12
            assert ul.std_dev(l3, phi) > 0
            assert ul.std_dev(l4, phi) > 0
