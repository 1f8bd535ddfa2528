import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import uncertainty_lab as ul
from uncertainty_lab import core, moments
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

    def test_tolerances_move_no_bit(self, rng):
        # tol is accepted for symmetry with expectation; no check reads it
        huge = ul.Tolerances(tol_herm=1e300, tol_norm=1e300, tol_zero=1e300, eps_spread=1e300)
        tiny = ul.Tolerances(tol_herm=5e-324, tol_norm=5e-324, tol_zero=5e-324, eps_spread=5e-324)
        for d in (2, 3, 8, 64):
            f, phi = rand_hermitian(rng, d), rand_state(rng, d)
            spread = ul.std_dev(f, phi).hex()
            assert ul.std_dev(f, phi, huge).hex() == spread == ul.std_dev(f, phi, tiny).hex()

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


    def test_threads_share_the_record_read_only(self, rng):
        # four threads on two alternating triples, which take the one slot in
        # turn, get every result of a single thread bit for bit
        triples = [(rand_hermitian(rng, d), rand_hermitian(rng, d), rand_state(rng, d))
                   for d in (3, 5)]
        calls = (ul.evaluate, ul.correlation_record, ul.classify, ul.sum_relations)

        def run(rounds):
            return [repr(call(*triples[i % 2])) for i in range(rounds) for call in calls]

        expected = run(200)
        results = [None] * 4

        def worker(slot):
            results[slot] = run(200)

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 4


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
                step = ul.deviation_vector(f, phi)
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
            moments._refuse_commuting(s * l3, s * l4, ul.DEFAULT_TOLERANCES)


def _guard_message(a, b, tol):
    """The guard's verdict without a certificate: its message, or None."""
    try:
        moments._refuse_commuting(a, b, tol)
    except ul.CommutingPair as error:
        return str(error)
    return None


def _binary_scaled(f, k):
    return ul.Observable._wrap(np.ldexp(f.matrix.view(float), k).view(complex))


@st.composite
def _guarded_triples(draw):
    """(A, B, phi, tol) around the guard's threshold: random, near-commuting
    (B = A^2 + eps R, eps putting ||[A,B]|| / (||A|| ||B||) within a decade of
    tol_zero), commuting and smuggled non-Hermitian pairs, each scaled by
    2^k_A and 2^k_B, at unit states and at states of norm 0.5 to 1.4."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # 5e-324 stands for 0, which Tolerances refuses
    tol_zero = draw(st.sampled_from([5e-324, 1e-12, 1e-10, 1e-8, 0.5]))
    kind = draw(st.sampled_from(["random", "near", "commuting", "smuggled"]))
    dim = 3 if kind == "smuggled" else draw(st.integers(2, 6))
    a = rand_hermitian(rng, dim)
    if kind == "random":
        b = rand_hermitian(rng, dim)
    elif kind == "near":
        r, square = rand_hermitian(rng, dim).matrix, a.matrix @ a.matrix
        comm = np.linalg.norm(a.matrix @ r - r @ a.matrix)
        eps = tol_zero * np.linalg.norm(a.matrix) * np.linalg.norm(square) / comm
        b = square + eps * 10.0 ** rng.uniform(-1.0, 1.0) * r
        b = ul.validate_observable((b + b.conj().T) / 2.0)
    elif kind == "commuting":
        b = ul.Observable._wrap(a.matrix @ a.matrix - 2.0 * a.matrix)
    else:  # E_12 and lambda_4, in either order
        e12 = ul.Observable._wrap(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex))
        a, b = (e12, ul.su3_lambda(4))[:: draw(st.sampled_from([1, -1]))]
    k_a, k_b = draw(st.integers(-600, 600)), draw(st.integers(-600, 600))
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if draw(st.booleans()):
        tol = ul.Tolerances(tol_zero=tol_zero, tol_norm=0.5)
        phi = ul.StateVector(raw * (rng.uniform(0.5, 1.4) / np.linalg.norm(raw)), tol)
    else:
        tol = ul.Tolerances(tol_zero=tol_zero)
        phi = ul.StateVector.normalized(raw)
    return _binary_scaled(a, k_a), _binary_scaled(b, k_b), phi, tol


class TestCommutingCertificate:
    """``classify`` skips [A,B] when its record proves the pair non-commuting."""

    @given(_guarded_triples())
    @settings(max_examples=400, deadline=None)
    def test_classify_refuses_exactly_what_the_guard_refuses(self, triple):
        a, b, phi, tol = triple
        got = None
        try:
            ul.classify(a, b, phi, tol)
        except ul.CommutingPair as error:
            got = str(error)
        except OverflowError:
            return  # the range check refuses the pair before the guard is asked
        except ArithmeticError:
            pass  # a smuggled pair fails a check after the guard
        assert got == _guard_message(a, b, tol)

    def test_forms_the_commutator_only_when_the_certificate_fails(self, l3, l4, monkeypatch):
        formed = []
        commutator = moments.commutator
        monkeypatch.setattr(moments, "commutator", lambda a, b: formed.append(1) or commutator(a, b))
        rng = np.random.default_rng(3131)
        for _ in range(500):
            d = int(rng.integers(2, 65))
            ul.classify(rand_hermitian(rng, d), rand_hermitian(rng, d), rand_state(rng, d))
        assert formed == []
        # <[lambda3, lambda4]> = 0 at these two states: nothing is certified
        for phi in (ul.uniform_superposition(3), ul.two_level_state(1, 1)):
            ul.classify(l3, l4, phi)
            assert len(formed) == 1
            formed.clear()
        with pytest.raises(ul.CommutingPair):
            ul.classify(l3, ul.su3_lambda(8), ul.uniform_superposition(3))
        assert len(formed) == 1

    def test_an_observable_near_the_underflow_is_not_certified(self):
        # A|phi> underflows, so the record's |<[A,B]>| (~1e-174) is all roundoff of
        # a commuting pair; a floor on h alone would certify it
        a = ul.validate_observable(np.diag([2.0**-1074, 2.0**-1073]).astype(complex))
        b = ul.validate_observable(np.diag([2.0**500, -(2.0**500)]).astype(complex))
        phi = ul.StateVector.normalized([0.3 + 0.9j, 0.7 - 0.2j])
        assert moments._shared(a, b, phi).hr > 2.0**-900
        with pytest.raises(ul.CommutingPair, match=r"= 0\.000e\+00 <= tol_zero"):
            ul.classify(a, b, phi)

    def test_an_overflowed_record_is_not_certified(self):
        # a loose tol_norm admits a state so large that <AB> overflows: the record's
        # |<[A,B]>| reads inf for this commuting pair, A = 2^505 M, B = 2^500 (M^2 + M / 2)
        m = rand_hermitian(np.random.default_rng(5), 3).matrix
        a = _binary_scaled(ul.Observable._wrap(m), 505)
        b = _binary_scaled(ul.Observable._wrap(m @ m + 0.5 * m), 500)
        amps = ul.uniform_superposition(3).amps
        size = abs(np.vdot(a.matrix @ amps, b.matrix @ amps))
        loose = ul.Tolerances(tol_norm=1e300)
        phi = ul.StateVector(amps * np.sqrt(sys.float_info.max / size), loose)
        with np.errstate(over="ignore", invalid="ignore"):
            assert moments._shared(a, b, phi).hr == np.inf
            with pytest.raises(ul.CommutingPair):
                ul.classify(a, b, phi, loose)


class TestFloatRange:
    """The range check refuses a pair whose moments could overflow, and itself never does."""

    @pytest.mark.parametrize("s", [1e154, 1e155, 1e300])
    def test_refuses_squared_sizes_past_a_quarter_of_the_range(self, s, l3, l4):
        with np.errstate(all="raise"), pytest.raises(OverflowError, match=r"\|\|A\|\|_F\^2"):
            moments._refuse_past_range(s * l3, "A")
        with np.errstate(all="raise"), pytest.raises(OverflowError, match=r"\|\|B\|\|_F\^2"):
            moments._refuse_past_range(l3, "A")
            moments._refuse_past_range(s * l4, "B")

    @pytest.mark.parametrize("s", [5e-324, 1e-200, 1.0, 1e150, 4e153])
    def test_passes_pairs_inside_the_range(self, s, l3, l4):
        # ||s l3||_F^2 = 2 s^2: 4 * 2 * (4e153)^2 ~ 1.3e308 still fits
        with np.errstate(all="raise"):
            moments._refuse_past_range(s * l3, "A")
            moments._refuse_past_range(s * l4, "B")

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

    @staticmethod
    def sizings(monkeypatch):
        # sizing takes the Frobenius norm of F; core's other norms are of vectors
        real, sized = core._norm, []

        def norm(v):
            if v.ndim == 2:
                sized.append(v)
            return real(v)

        monkeypatch.setattr(core, "_norm", norm)
        return sized

    def test_find_and_scans_size_each_observable_once(self, l3, l4, monkeypatch):
        sized = self.sizings(monkeypatch)
        a, b = ul.validate_observable(l3.matrix), ul.validate_observable(l4.matrix)
        assert len(sized) == 2 and sized[0] is a.matrix and sized[1] is b.matrix
        assert ul.find(a, b).converged
        assert len(list(ul.membership_scan(a, b, ul.ScanConfig(samples=3000, seed=0)))) == 3000
        assert len(sized) == 2  # the scan above spans three blocks at d = 3

    def test_a_fresh_classify_sizes_each_observable_once(self, l3, l4, phi2, monkeypatch):
        # the record's range checks and the commuting guard read the sizes A and B hold
        sized = self.sizings(monkeypatch)
        moments._shared.cache_clear()
        a, b = ul.validate_observable(l3.matrix), ul.validate_observable(l4.matrix)
        ul.classify(a, b, phi2)
        assert len(sized) == 2 and sized[0] is a.matrix and sized[1] is b.matrix
        l8 = ul.validate_observable(ul.su3_lambda(8).matrix)
        assert len(sized) == 2 + 1 + 1  # su3_lambda builds and sizes lambda_8 alone
        with pytest.raises(ul.CommutingPair):
            ul.classify(a, l8, phi2)
        assert len(sized) == 4

    def test_each_observable_is_sized_once_in_its_lifetime(self, l3, l4, monkeypatch):
        sized = self.sizings(monkeypatch)
        a, b = ul.validate_observable(l3.matrix), ul.validate_observable(l4.matrix)
        assert len(sized) == 2 and sized[0] is a.matrix and sized[1] is b.matrix
        states = (ul.uniform_superposition(3), ul.two_level_state(1, 1j),
                  rand_state(np.random.default_rng(28), 3))
        for phi in states:
            for call in (ul.evaluate, ul.correlation_record, ul.classify, ul.sum_relations):
                call(a, b, phi)
        assert len(sized) == 2
        tiny = 2**-700 * a  # its own norm, then that of its copy scaled by 2^699, a / 2
        scaled, size, exponent = tiny._sized
        assert len(sized) == 4 and sized[3] is scaled.matrix and exponent == -699
        assert scaled._sized == (None, size, 0) and a._sized == (None, 2.0 * size, 0)

    def test_one_guard_order_range_then_dimension(self, l3):
        # a 3-dim F past the range and a 2-dim phi: expectation alone checked
        # the dimension first
        huge, phi = 1e155 * l3, ul.StateVector([1.0, 0.0])
        for call in (ul.expectation, ul.std_dev, ul.deviation_vector, ul.orthogonal_unit,
                     ul.is_eigenstate):
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                with pytest.raises(OverflowError, match=r"^\|\|F\|\|_F\^2 ~ 10\^310"):
                    call(huge, phi)

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
