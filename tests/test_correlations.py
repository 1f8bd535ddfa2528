import json

import numpy as np
import pytest

import uncertainty_lab as ul
from helpers import (ks_distance, ks_two_sample, oracle_corr, rand_hermitian, rand_state,
                     recorded_checks)


class TestCorrelation:
    def test_uniform_state_golden(self, l3, l4, phi2):
        assert abs(ul.correlation(l3, l4, phi2) - 1 / 3) <= 1e-12

    def test_two_level_family_vanishes(self, l3, l4):
        for a, b in [(1, 1), (2, 1j), (1 + 2j, -0.3 + 0.7j), (-5, 0.01j)]:
            assert abs(ul.correlation(l3, l4, ul.two_level_state(a, b))) <= 1e-12

    def test_self_correlation_is_variance(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 7))
            a = rand_hermitian(rng, d)
            phi = rand_state(rng, d)
            c = ul.correlation(a, a, phi)
            assert c.imag == pytest.approx(0.0, abs=1e-12)
            assert c.real == pytest.approx(ul.std_dev(a, phi) ** 2, abs=1e-10)

    def test_matches_oracle(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 7))
            a, b = rand_hermitian(rng, d), rand_hermitian(rng, d)
            phi = rand_state(rng, d)
            got = ul.correlation(a, b, phi)
            assert got == pytest.approx(oracle_corr(a.matrix, b.matrix, phi.amps), abs=1e-12)

    def test_pair_hermiticity(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 7))
            a, b = rand_hermitian(rng, d), rand_hermitian(rng, d)
            phi = rand_state(rng, d)
            c_ab = ul.correlation(a, b, phi)
            c_ba = ul.correlation(b, a, phi)
            assert abs((c_ab + c_ba).imag) <= ul.DEFAULT_TOLERANCES.tol_zero
            assert abs((c_ab - c_ba).real) <= ul.DEFAULT_TOLERANCES.tol_zero

    def test_imaginary_part_is_commutator_expectation(self, rng):
        # 2 Im C(A,B) = -i <phi|[A,B]|phi> as real numbers
        for _ in range(50):
            d = int(rng.integers(2, 7))
            a, b = rand_hermitian(rng, d), rand_hermitian(rng, d)
            phi = rand_state(rng, d)
            c = ul.correlation(a, b, phi)
            val = -1j * ul.inner(phi, ul.commutator(a, b) @ phi.amps)
            assert abs(val.imag) <= 1e-12
            assert abs(2 * c.imag - val.real) <= 1e-10

    def test_found_zero_correlation_states_in_other_units(self, rng):
        # |C| ~ 0 on these states, while the compared terms are ~||A phi|| ||B phi||
        for d in (3, 4, 8):
            a, b = rand_hermitian(rng, d), rand_hermitian(rng, d)
            phi = ul.find(a, b, ul.FinderConfig(seed=d)).state
            for scale in (1e3, 1e4):
                ul.correlation(scale * a, scale * b, phi)
                ul.evaluate(scale * a, scale * b, phi)
                ul.classify(scale * a, scale * b, phi)

    def test_dimension_mismatch(self, l3, l4):
        with pytest.raises(ul.DimensionMismatch):
            ul.correlation(l3, l4, ul.StateVector([1.0, 0.0]))


def _gamma(n: int, u: float) -> float:
    return n * u / (1.0 - n * u)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps, reason="long double is no wider"
)
def test_c_is_within_its_rounding_bound_of_a_long_double_reference():
    # The library forms C = <A^dag phi|B phi> - <A><B>, with <F> = Re <phi|F phi>.
    # Its error bound (Higham, Accuracy and Stability of Numerical Algorithms,
    # ch. 3), with u the unit roundoff, gamma_n = n u / (1 - n u), N = ||A||_F ||B||_F
    # and ||phi|| = 1, in the standard model of complex arithmetic:
    # - a complex product errs by at most sqrt(2) gamma_2 <= gamma_3 relatively and a
    #   complex sum by u (Lemma 3.5), so a length-d inner product, in any order, errs
    #   by at most gamma_(d+2) |x|^T |y|, and F|phi> (or F^dag|phi>) by a vector of
    #   norm at most gamma_(d+2) || |F| |phi| || <= gamma_(d+2) ||F||_F;
    # - <A^dag phi|B phi>, from two such products and one inner product, errs by at
    #   most ((1 + gamma_(d+2))^3 - 1) N <= gamma_(3d+6) N, as ||F phi|| <= ||F||_F;
    # - <A> errs by at most ((1 + gamma_(d+2))^2 - 1) ||A||_F <= gamma_(2d+4) ||A||_F,
    #   so the product <A><B>, rounded once, by gamma_(4d+9) N;
    # - the last subtraction adds at most u (|<AB>| + |<A><B>|) <= 2u (1 + gamma_(4d+9)) N.
    # Summed with Lemma 3.3, |fl(C) - C| <= gamma_(7d+17) N.  The reference is the same
    # formula on the same (exactly widened) inputs in long double, which errs by at most
    # gamma_(7d+17) N in long double's own unit roundoff.
    u, u_long = np.finfo(np.float64).eps / 2, np.finfo(np.longdouble).eps / 2
    rng = np.random.default_rng(2025)
    for d in range(2, 65):
        for _ in range(2):
            a, b, phi = rand_hermitian(rng, d), rand_hermitian(rng, d), rand_state(rng, d)
            wa, wb, wphi = (x.astype(np.clongdouble) for x in (a.matrix, b.matrix, phi.amps))
            mean_a, mean_b = np.vdot(wphi, wa @ wphi).real, np.vdot(wphi, wb @ wphi).real
            reference = np.vdot(wa.conj().T @ wphi, wb @ wphi) - mean_a * mean_b
            error = float(abs(np.clongdouble(ul.correlation(a, b, phi)) - reference))
            size = np.linalg.norm(a.matrix) * np.linalg.norm(b.matrix)
            bound = (_gamma(7 * d + 17, u) + _gamma(7 * d + 17, float(u_long))) * size
            assert error <= bound, (d, error, bound)


class TestPearson:
    def test_self_pearson_is_one(self, rng):
        for d in (2, 3, 5):
            a = rand_hermitian(rng, d)
            phi = rand_state(rng, d)
            assert ul.pearson(a, a, phi) == pytest.approx(1.0, abs=1e-12)
            assert ul.pearson(a, a, phi) <= 1.0  # clamped, never above 1

    def test_two_level_state_uncorrelated(self, l3, l4):
        assert ul.pearson(l3, l4, ul.two_level_state(1, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_state_golden(self, l3, l4, phi2):
        # (1/3) / (sqrt(2/3) * sqrt(2)/3) = sqrt(3)/2
        assert ul.pearson(l3, l4, phi2) == pytest.approx(0.8660254037844386, abs=1e-12)

    def test_symmetric(self, rng, l3, l4, phi2):
        assert ul.pearson(l3, l4, phi2) == pytest.approx(ul.pearson(l4, l3, phi2), abs=1e-12)

    def test_degenerate_spread_raises(self, l3, l4):
        with pytest.raises(ul.DegenerateSpread):
            ul.pearson(l3, l4, ul.StateVector([1.0, 0.0, 0.0]))

    def test_dimension_two_rigidity(self, rng):
        # the orthogonal complement of phi is one ray, so the coefficient is 1
        for _ in range(500):
            a, b = rand_hermitian(rng, 2), rand_hermitian(rng, 2)
            phi = rand_state(rng, 2)
            try:
                r = ul.pearson(a, b, phi)
            except ul.DegenerateSpread:
                continue
            assert r >= 1.0 - 1e-9


class TestDecomposition:
    def test_two_level_state_both_parts_zero(self, l3, l4):
        cov_term, imag_term = ul.decomposition(l3, l4, ul.two_level_state(1, 1))
        assert cov_term == pytest.approx(0.0, abs=1e-12)
        assert imag_term == pytest.approx(0.0, abs=1e-12)

    def test_uniform_state_golden(self, l3, l4, phi2):
        # C real = 1/3, product of spreads = 2/(3 sqrt 3): (1/3 / that)^2 = 3/4
        cov_term, imag_term = ul.decomposition(l3, l4, phi2)
        assert cov_term == pytest.approx(0.75, abs=1e-12)
        assert imag_term == pytest.approx(0.0, abs=1e-12)

    def test_self_pair(self, rng):
        a = rand_hermitian(rng, 3)
        phi = rand_state(rng, 3)
        cov_term, imag_term = ul.decomposition(a, a, phi)
        assert cov_term == pytest.approx(1.0, abs=1e-9)
        assert imag_term == pytest.approx(0.0, abs=1e-12)

    def test_sums_to_pearson_squared(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 7))
            a, b = rand_hermitian(rng, d), rand_hermitian(rng, d)
            phi = rand_state(rng, d)
            try:
                cov_term, imag_term = ul.decomposition(a, b, phi)
            except ul.DegenerateSpread:
                continue
            r = ul.pearson(a, b, phi)
            assert abs(cov_term + imag_term - r * r) <= 1e-9

    def test_terms_and_pearson_agree_near_a_large_mean(self, rng):
        # C's moment form cancels ~8 digits at <A>, <B> ~ 1e4: the terms and r
        # must come from the same form, so their sum check stays a rounding check
        for _ in range(50):
            a, b = rand_hermitian(rng, 3), rand_hermitian(rng, 3)
            shift = 1e4 * np.eye(3)
            a, b = ul.validate_observable(a.matrix + shift), ul.validate_observable(b.matrix + shift)
            phi = rand_state(rng, 3)
            cov_term, imag_term = ul.decomposition(a, b, phi)
            r = ul.pearson(a, b, phi)
            assert abs(cov_term + imag_term - r * r) <= 1e-9

    def test_degenerate_spread_raises(self, l3, l4):
        with pytest.raises(ul.DegenerateSpread):
            ul.decomposition(l3, l4, ul.StateVector([0.0, 0.0, 1.0]))


class TestPropertiesCheck:
    def test_identities_go_through_the_check_hook(self, monkeypatch, l3, l4, l5, phi2):
        recorded = recorded_checks(monkeypatch)
        identities = ["conjugate symmetry C(A,B) = conj(C(B,A))",
                      "additivity C(A, B1+B2) = C(A,B1) + C(A,B2)"]
        assert ul.correlation_properties_check(l3, l4, l5, phi2)
        assert recorded[-3:] == identities + ["pearson symmetry r(A,B) = r(B,A)"]
        recorded.clear()
        # (1, 0, 0) is an eigenvector of lambda3: no pearson coefficient to compare
        assert ul.correlation_properties_check(l3, l4, l5, ul.StateVector([1.0, 0.0, 0.0]))
        assert recorded[-2:] == identities and identities[0] not in recorded[:-2]

    def test_random_triples(self, rng):
        for _ in range(5):
            a, b1, b2 = (rand_hermitian(rng, 4) for _ in range(3))
            assert ul.correlation_properties_check(a, b1, b2, rand_state(rng, 4))

    def test_holds_in_other_units(self, rng):
        for d in (3, 4, 8):
            a, b1, b2 = (1e4 * rand_hermitian(rng, d) for _ in range(3))
            assert ul.correlation_properties_check(a, b1, b2, rand_state(rng, d))

    def test_degenerate_instance(self, l3, phi2):
        assert ul.correlation_properties_check(l3, l3, l3, phi2)

    def test_zero_correlation_family(self, l3, l4):
        phi1 = ul.two_level_state(1, 1)
        assert ul.correlation_properties_check(l3, l4, l4, phi1)
        assert ul.pearson(l3, l4, phi1) == pytest.approx(0.0, abs=1e-12)
        assert ul.pearson(l4, l3, phi1) == pytest.approx(0.0, abs=1e-12)


class TestCorrelationRecord:
    def test_fields_consistent(self, l3, l4, phi2):
        rec = ul.correlation_record(l3, l4, phi2)
        assert rec.cov_real == rec.c.real
        assert rec.imag_part == rec.c.imag
        assert rec.pearson is not None
        assert rec.transition_prob == pytest.approx(rec.pearson**2, abs=1e-12)
        assert 0.0 <= rec.pearson <= 1.0

    def test_absent_on_eigenstate(self, l3, l4):
        rec = ul.correlation_record(l3, l4, ul.StateVector([1.0, 0.0, 0.0]))
        assert rec.pearson is None
        assert rec.transition_prob is None

    def test_json_uses_explicit_null(self, l3, l4):
        rec = ul.correlation_record(l3, l4, ul.StateVector([1.0, 0.0, 0.0]))
        doc = json.loads(json.dumps(rec.to_json_dict()))
        assert doc["pearson"] is None
        assert doc["transition_prob"] is None
        assert doc["c"] == [0.0, 0.0]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_near_eigenstates_pass_the_pearson_checks(self, dim):
        # r = |C| / (dA dB) carries the roundoff of C, ~1e-16 ||A phi|| ||B phi||,
        # divided by dA dB: large when phi is close to an eigenvector of A
        rng = np.random.default_rng(dim)
        for _ in range(600):
            a, b = rand_hermitian(rng, dim), rand_hermitian(rng, dim)
            eigvec = np.linalg.eigh(a.matrix)[1][:, rng.integers(dim)]
            noise = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            phi = ul.StateVector.normalized(eigvec + 10.0 ** rng.uniform(-6, -3) * noise)
            record = ul.correlation_record(a, b, phi)
            cls = ul.classify(a, b, phi)
            assert cls.eigen_a == (record.pearson is None)


@pytest.mark.parametrize("dim", [3, 8, 16])
def test_pearson_square_follows_the_beta_law(dim):
    # GUE A, B are unitarily invariant, so for a Haar phi their deviation
    # directions are independent uniform unit vectors in phi^perp = C^(d-1),
    # and r^2 = |<u|v>|^2 ~ Beta(1, d - 2): P(r^2 <= x) = 1 - (1 - x)^(d - 2).
    # x = Re C / (dA dB) is one real coordinate of a uniform unit vector in
    # R^(2d-2), of density ~ (1 - x^2)^(d - 5/2), so x^2 ~ Beta(1/2, d - 3/2);
    # so is Im C / (dA dB), and arg C is uniform
    rng = np.random.default_rng(11)
    n = 2000
    records = [
        ul.correlation_record(rand_hermitian(rng, dim), rand_hermitian(rng, dim),
                              rand_state(rng, dim))
        for _ in range(n)
    ]
    r, c = np.array([rec.pearson for rec in records]), np.array([rec.c for rec in records])
    bound = 1.95 / np.sqrt(n)  # the KS critical value at the 0.1% level
    assert ks_distance(r**2, lambda x: 1.0 - (1.0 - x) ** (dim - 2)) <= bound
    # P(|x| <= t): the density integrated by the trapezoid rule
    grid = np.linspace(0.0, 1.0, 20001)
    density = (1.0 - grid**2) ** (dim - 2.5)
    cdf = np.concatenate(([0.0], np.cumsum(density[1:] + density[:-1])))
    cdf /= cdf[-1]
    for part in (c.real, c.imag):
        x = r * np.abs(part) / np.abs(c)  # |Re C| / (dA dB), |Im C| / (dA dB)
        assert ks_distance(x, lambda t: np.interp(t, grid, cdf)) <= bound
    assert ks_distance(np.angle(c), lambda t: (t + np.pi) / (2.0 * np.pi)) <= bound


@pytest.mark.parametrize("dim", [3, 8, 16])
def test_arg_c_is_independent_of_r(dim):
    # the draws of test_pearson_square_follows_the_beta_law: the deviation
    # directions u, v are independent uniform unit vectors, so <u|v> has a
    # phase uniform on the circle and independent of its modulus r
    rng = np.random.default_rng(11)
    n = 2000
    records = [
        ul.correlation_record(rand_hermitian(rng, dim), rand_hermitian(rng, dim),
                              rand_state(rng, dim))
        for _ in range(n)
    ]
    r, c = np.array([rec.pearson for rec in records]), np.array([rec.c for rec in records])
    low = r <= np.median(r)
    halves = np.angle(c[low]), np.angle(c[~low])
    m = n // 2
    assert all(len(half) == m for half in halves)
    for half in halves:  # the KS critical value at the 0.1% level, for m draws
        assert ks_distance(half, lambda t: (t + np.pi) / (2.0 * np.pi)) <= 1.95 / np.sqrt(m)
    # the two-sample KS critical value at the 0.1% level, for m and m draws
    assert ks_two_sample(*halves) <= 1.95 * np.sqrt(2.0 / m)
