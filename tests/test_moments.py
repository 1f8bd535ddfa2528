import sys
import warnings

import numpy as np
import pytest

import uncertainty_lab as ul
from uncertainty_lab import moments
from helpers import oracle_std, rand_hermitian, rand_state


class TestExpectation:
    def test_lambda3_vanishes_on_uniform_state(self, l3, phi2):
        assert abs(ul.expectation(l3, phi2)) <= 1e-12

    def test_lambda5_vanishes_on_uniform_state(self, l5, phi2):
        assert abs(ul.expectation(l5, phi2)) <= 1e-12

    def test_identity_on_any_state(self, rng):
        for d in (2, 3, 5):
            assert ul.expectation(ul.identity(d), rand_state(rng, d)) == pytest.approx(1.0)

    def test_dimension_mismatch(self, l3):
        with pytest.raises(ul.DimensionMismatch):
            ul.expectation(l3, ul.StateVector([1.0, 0.0]))

    def test_large_entries_are_not_taken_for_non_hermitian(self, rng):
        # roundoff in Im <F> grows with ||F phi||, which is ~1e6 here
        for d in (3, 8, 32):
            for _ in range(20):
                ul.expectation(1e6 * rand_hermitian(rng, d), rand_state(rng, d))

    def test_non_hermitian_matrix_is_rejected(self):
        nilpotent = ul.Observable._wrap(np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ul.ValidationError, match="expectation is real"):
            ul.expectation(nilpotent, ul.StateVector.normalized([1.0, 1j]))


class TestDeviationVector:
    # delta_phi1 lambda3 |phi1> = (2|b|^2 a, -2|a|^2 b, 0) / N^3 and
    # delta_phi1 lambda4 |phi1> = (0, 0, a) / N for phi1 = (a, b, 0) / N.
    @pytest.mark.parametrize("a,b", [(1, 1), (1 + 2j, -0.3 + 0.7j), (2, 1j)])
    def test_two_level_state_formulas(self, l3, l4, a, b):
        n = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
        phi1 = ul.two_level_state(a, b)
        dv3 = ul.deviation_vector(l3, phi1)
        expected3 = np.array([2 * abs(b) ** 2 * a, -2 * abs(a) ** 2 * b, 0]) / n**3
        assert np.allclose(dv3.vec, expected3, atol=1e-14)
        dv4 = ul.deviation_vector(l4, phi1)
        assert np.allclose(dv4.vec, np.array([0, 0, a]) / n, atol=1e-14)

    def test_eigenvector_gives_zero_vector(self, rng):
        b = rand_hermitian(rng, 4)
        _, vecs = np.linalg.eigh(b.matrix)
        phi = ul.StateVector.normalized(vecs[:, 1])
        dv = ul.deviation_vector(b, phi)
        assert dv.norm <= 1e-12

    def test_norm_matches_vector(self, rng):
        f = rand_hermitian(rng, 5)
        phi = rand_state(rng, 5)
        dv = ul.deviation_vector(f, phi)
        assert dv.norm == pytest.approx(np.linalg.norm(dv.vec), rel=1e-12)

    def test_orthogonal_to_state(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 7))
            f = rand_hermitian(rng, d)
            phi = rand_state(rng, d)
            dv = ul.deviation_vector(f, phi)
            assert abs(ul.inner(phi, dv.vec)) <= ul.DEFAULT_TOLERANCES.tol_zero


class TestStdDev:
    def test_lambda3_on_balanced_two_level_state(self, l3):
        # norm of (2, -2, 0) / (sqrt 2)^3
        assert ul.std_dev(l3, ul.two_level_state(1, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_lambda4_on_balanced_two_level_state(self, l4):
        # norm of (0, 0, 1) / sqrt 2
        phi1 = ul.two_level_state(1, 1)
        assert ul.std_dev(l4, phi1) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_eigenvector_has_zero_spread(self, rng):
        b = rand_hermitian(rng, 5)
        _, vecs = np.linalg.eigh(b.matrix)
        phi = ul.StateVector.normalized(vecs[:, 0])
        assert ul.std_dev(b, phi) <= 1e-12

    def test_agrees_with_moment_formula(self, rng):
        for _ in range(2000):
            d = int(rng.integers(2, 7))
            f = rand_hermitian(rng, d)
            phi = rand_state(rng, d)
            got = ul.std_dev(f, phi)
            want = oracle_std(f.matrix, phi.amps)
            assert abs(got - want) <= 1e-10 * max(1.0, got, want)

    def test_shift_invariance(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 7))
            f = rand_hermitian(rng, d)
            phi = rand_state(rng, d)
            c = float(rng.uniform(-5, 5))
            shifted = f + c * ul.identity(d)
            assert abs(ul.std_dev(shifted, phi) - ul.std_dev(f, phi)) <= 1e-12

    def test_zero_spread_iff_eigenvector(self, rng):
        eps = ul.DEFAULT_TOLERANCES.eps_spread
        f = rand_hermitian(rng, 4)
        _, vecs = np.linalg.eigh(f.matrix)
        for k in range(4):
            phi = ul.StateVector.normalized(vecs[:, k])
            assert ul.std_dev(f, phi) <= eps
            residual = f.matrix @ phi.amps - ul.expectation(f, phi) * phi.amps
            assert np.linalg.norm(residual) <= eps
        for _ in range(20):
            phi = rand_state(rng, 4)
            assert ul.std_dev(f, phi) > eps
            residual = f.matrix @ phi.amps - ul.expectation(f, phi) * phi.amps
            assert np.linalg.norm(residual) > eps


class TestOrthogonalUnit:
    def test_direction_of_two_level_deviation(self, l4):
        u = ul.orthogonal_unit(l4, ul.two_level_state(1, 1))
        assert u is not None
        # (0, 0, 1) up to a global phase
        assert abs(abs(u[2]) - 1.0) <= 1e-12
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)

    def test_absent_for_eigenvector(self, l3):
        assert ul.orthogonal_unit(l3, ul.StateVector([1.0, 0.0, 0.0])) is None

    def test_orthogonal_to_state(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 7))
            f = rand_hermitian(rng, d)
            phi = rand_state(rng, d)
            u = ul.orthogonal_unit(f, phi)
            if u is not None:
                assert abs(ul.inner(phi, u)) <= ul.DEFAULT_TOLERANCES.tol_zero


class TestIsEigenstate:
    def test_basis_vector_of_diagonal(self, l3):
        assert ul.is_eigenstate(l3, ul.StateVector([1.0, 0.0, 0.0]))

    def test_uniform_state_spreads(self, l3, phi2):
        # spread is sqrt(2/3), far from zero
        assert ul.std_dev(l3, phi2) == pytest.approx(np.sqrt(2 / 3), abs=1e-12)
        assert not ul.is_eigenstate(l3, phi2)

    def test_identity_always_eigenstate(self, rng):
        assert ul.is_eigenstate(ul.identity(4), rand_state(rng, 4))


class TestSharedRecord:
    def test_no_call_writes_to_the_shared_record(self, rng):
        # the record and its three spreads are built whole, so threads share them read-only
        a, b, phi = rand_hermitian(rng, 4), rand_hermitian(rng, 4), rand_state(rng, 4)
        moments._shared.cache_clear()
        shared = moments._shared(a, b, phi)
        parts = (shared, shared.a, shared.b, shared.sum)
        before = [dict(vars(part)) for part in parts]
        b2 = rand_hermitian(rng, 4)
        for call in (
            lambda: ul.evaluate(a, b, phi),
            lambda: ul.hr_bound(a, b, phi),
            lambda: ul.schrodinger_bound(a, b, phi),
            lambda: ul.sum_relations(a, b, phi),
            lambda: ul.correlation(a, b, phi),
            lambda: ul.correlation_record(a, b, phi),
            lambda: ul.pearson(a, b, phi),
            lambda: ul.decomposition(a, b, phi),
            lambda: ul.classify(a, b, phi),
            lambda: ul.verify_candidate(a, b, phi),
            # last, as it reads (a, b, phi) first and then puts other triples in the slot
            lambda: ul.correlation_properties_check(a, b, b2, phi),
        ):
            assert moments._shared(a, b, phi) is shared
            call()
            for part, snapshot in zip(parts, before):
                assert vars(part).keys() == snapshot.keys()
                assert all(vars(part)[key] is value for key, value in snapshot.items())

    def test_one_slot_keyed_on_the_objects_not_on_tol(self, rng):
        a, b, phi = rand_hermitian(rng, 3), rand_hermitian(rng, 3), rand_state(rng, 3)
        moments._shared.cache_clear()
        ul.evaluate(a, b, phi)
        ul.classify(a, b, phi, ul.Tolerances(eps_spread=0.5))
        ul.sum_relations(a, b, phi)
        assert moments._shared.cache_info()[:2] == (2, 1)  # (hits, misses)
        # equal arrays in other objects are another triple, and take the slot
        ul.evaluate(ul.Observable(a.matrix), b, phi)
        ul.evaluate(a, b, phi)
        assert moments._shared.cache_info()[:2] == (2, 3)


class TestOneAlgebra:
    def test_a_fault_in_the_algebra_fires_in_classify_and_in_a_scan(
        self, l3, l4, phi2, monkeypatch
    ):
        # the per-state record and the scan block run one text: a defect in C's
        # moment form there is caught by the C-forms check on both paths
        init = moments._Moments.__init__

        def faulty(self, *args):
            init(self, *args)
            self.c = self.c * (1 + 1e-3)

        monkeypatch.setattr(moments._Moments, "__init__", faulty)
        moments._shared.cache_clear()
        fails = "^correlation: moment form = deviation form fails"
        try:
            with pytest.raises(ArithmeticError, match=fails):
                ul.classify(l3, l4, phi2)
            with pytest.raises(ArithmeticError, match=fails):
                next(ul.membership_scan(l3, l4, ul.ScanConfig(samples=10, seed=1)))
        finally:
            moments._shared.cache_clear()  # the slot holds the faulty record


class TestSpreadNorm:
    def test_matches_linalg_norm(self):
        rng = np.random.default_rng(1164)
        for d in range(2, 65):
            for _ in range(20):
                f, phi = rand_hermitian(rng, d), rand_state(rng, d)
                step = moments._Spread.of(f.matrix, phi.amps)
                assert step.norm == pytest.approx(np.linalg.norm(step.vec), rel=1e-15, abs=0)


class TestCommutingGuard:
    """The guard's verdict is scale-free in floating point too."""

    @pytest.mark.parametrize("s", [1e-200, 1e-150, 1e-120, 1e-80, 1.0, 1e80, 1e150])
    def test_scale_free_in_floating_point(self, s, l3, l4, phi2):
        # the squared sizes of these pairs under- or overflow at the extremes
        ul.classify(s * l3, s * l4, phi2)
        with pytest.raises(ul.CommutingPair, match=r"= 7\.071e-01 <= tol_zero"):
            ul.classify(s * l3, s * l4, phi2, ul.Tolerances(tol_zero=0.9))
        diag_a = ul.validate_observable(np.diag([1.0, 2.0, 3.0]).astype(complex))
        diag_b = ul.validate_observable(np.diag([0.0, 1.0, -1.0]).astype(complex))
        with pytest.raises(ul.CommutingPair, match=r"= 0\.000e\+00 <= tol_zero"):
            ul.classify(s * diag_a, s * diag_b, phi2)

    def test_a_zero_observable_commutes(self, l4, phi2):
        zero = ul.validate_observable(np.zeros((3, 3)))
        with pytest.raises(ul.CommutingPair, match=r"= 0\.000e\+00 <= tol_zero"):
            ul.classify(zero, l4, phi2)

    @pytest.mark.parametrize("s", [1e155, 1e300, 5e-324])
    def test_no_square_under_or_overflows(self, s, l3, l4):
        with np.errstate(all="raise"):
            moments._refuse_commuting(
                moments._sized(s * l3), moments._sized(s * l4), ul.DEFAULT_TOLERANCES
            )


class TestFloatRange:
    """The range check refuses a pair whose moments could overflow, and itself never does."""

    @pytest.mark.parametrize("s", [1e154, 1e155, 1e300])
    def test_refuses_squared_sizes_past_a_quarter_of_the_range(self, s, l3, l4):
        with np.errstate(all="raise"), pytest.raises(OverflowError, match=r"\|\|A\|\|_F\^2"):
            moments._refuse_past_range(moments._sized(s * l3), "A")
        with np.errstate(all="raise"), pytest.raises(OverflowError, match=r"\|\|B\|\|_F\^2"):
            moments._refuse_past_range(moments._sized(l3), "A")
            moments._refuse_past_range(moments._sized(s * l4), "B")

    @pytest.mark.parametrize("s", [5e-324, 1e-200, 1.0, 1e150, 4e153])
    def test_passes_pairs_inside_the_range(self, s, l3, l4):
        # ||s l3||_F^2 = 2 s^2: 4 * 2 * (4e153)^2 ~ 1.3e308 still fits
        with np.errstate(all="raise"):
            moments._refuse_past_range(moments._sized(s * l3), "A")
            moments._refuse_past_range(moments._sized(s * l4), "B")

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("huge", ["A", "B", "AB"])
    def test_every_pair_function_refuses_such_a_pair(self, dim, huge):
        # ||F||_F^2 = 0.998 * the largest float: before the check, sum_relations
        # warned of an overflow in a matmul and find raised a bare OverflowError
        rng = np.random.default_rng(3)
        a, b = rand_hermitian(rng, dim), rand_hermitian(rng, dim)
        phi = rand_state(rng, dim)
        size = np.sqrt(0.998 * sys.float_info.max)
        if "A" in huge:
            a = size / np.linalg.norm(a.matrix) * a
        if "B" in huge:
            b = size / np.linalg.norm(b.matrix) * b
        calls = [
            lambda: ul.evaluate(a, b, phi),
            lambda: ul.hr_bound(a, b, phi),
            lambda: ul.schrodinger_bound(a, b, phi),
            lambda: ul.sum_relations(a, b, phi),
            lambda: ul.correlation(a, b, phi),
            lambda: ul.correlation_record(a, b, phi),
            lambda: ul.pearson(a, b, phi),
            lambda: ul.decomposition(a, b, phi),
            lambda: ul.correlation_properties_check(a, b, b, phi),
            lambda: ul.classify(a, b, phi),
        ]
        if dim >= 3:  # find refuses d = 2 first, whatever the pair
            calls.append(lambda: ul.find(a, b))
        for call in calls:
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                with pytest.raises(OverflowError, match=rf"\|\|{huge[0]}\|\|_F\^2 ~ 10\^308"):
                    call()

    @pytest.mark.parametrize("huge", ["A", "B", "AB"])
    def test_find_and_scans_refuse_a_commuting_pair_past_the_range_as_commuting(
        self, huge, l3
    ):
        # lambda_3 and lambda_8 commute: the commuting guard speaks before the range check
        l8 = ul.su3_lambda(8)
        a = 1e155 * l3 if "A" in huge else l3
        b = 1e155 * l8 if "B" in huge else l8
        config = ul.ScanConfig(samples=1, seed=0)
        for call in (lambda: ul.find(a, b), lambda: ul.membership_scan(a, b, config)):
            with np.errstate(all="raise"), pytest.raises(ul.CommutingPair, match="commutes"):
                call()

    def test_find_and_scans_size_each_observable_once(self, l3, l4, monkeypatch):
        real, sized = moments._sized, []
        monkeypatch.setattr(moments, "_sized", lambda f: sized.append(f) or real(f))
        for run in (lambda: ul.find(l3, l4),
                    lambda: list(ul.membership_scan(l3, l4, ul.ScanConfig(samples=3000, seed=0)))):
            sized.clear()
            run()  # the scan spans three blocks at d = 3
            assert len(sized) == 2 and sized[0] is l3 and sized[1] is l4

    def test_a_fresh_classify_sizes_each_observable_once(self, l3, l4, phi2, monkeypatch):
        # the record's range checks size A and B; the commuting guard reads those sizes
        real, sized = moments._sized, []
        monkeypatch.setattr(moments, "_sized", lambda f: sized.append(f) or real(f))
        moments._shared.cache_clear()
        ul.classify(l3, l4, phi2)
        assert len(sized) == 2 and sized[0] is l3 and sized[1] is l4
        with pytest.raises(ul.CommutingPair):
            ul.classify(l3, ul.su3_lambda(8), phi2)
        assert len(sized) == 4

    @pytest.mark.parametrize("dim", [2, 3])
    def test_every_function_of_one_observable_refuses_such_an_observable(self, dim):
        # before the check, std_dev warned of an overflow in a matmul and
        # expectation judged its imaginary part against ||F phi|| = inf
        rng = np.random.default_rng(5)
        f, g, phi = rand_hermitian(rng, dim), rand_hermitian(rng, dim), rand_state(rng, dim)
        huge = np.sqrt(0.998 * sys.float_info.max) / np.linalg.norm(f.matrix) * f
        calls = [
            lambda: ul.expectation(huge, phi),
            lambda: ul.deviation_vector(huge, phi),
            lambda: ul.std_dev(huge, phi),
            lambda: ul.orthogonal_unit(huge, phi),
            lambda: ul.is_eigenstate(huge, phi),
            lambda: ul.sum_relation_n([huge, g], phi),
            lambda: ul.sum_relation_n([g, huge], phi),
        ]
        for call in calls:
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                with pytest.raises(OverflowError, match=r"\|\|F\|\|_F\^2 ~ 10\^308"):
                    call()
