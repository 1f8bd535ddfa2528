import dataclasses

import numpy as np
import pytest

import uncertainty_lab as ul
from helpers import rand_hermitian, rand_state, recorded_checks


class TestHrBound:
    def test_uniform_state_kills_commutator_bound(self, l3, l4, phi2):
        assert ul.hr_bound(l3, l4, phi2) <= 1e-12

    def test_readme_line_holds_exactly(self, l3, l4, phi2):
        # <AB> and <BA> are each the one product s^2 (s = 1/sqrt(3)), so they cancel to 0.0
        assert ul.hr_bound(l3, l4, phi2) == 0.0

    def test_self_pair(self, rng):
        a = rand_hermitian(rng, 4)
        assert ul.hr_bound(a, a, rand_state(rng, 4)) <= 1e-12

    def test_basis_state(self, l3, l4):
        # <e0|lambda5|e0> = 0, so the bound is |<lambda5>| / 2 = 0
        assert ul.hr_bound(l3, l4, ul.StateVector([1.0, 0.0, 0.0])) <= 1e-15


class TestSchrodingerBound:
    def test_uniform_state_golden(self, l3, l4, phi2):
        assert ul.schrodinger_bound(l3, l4, phi2) == pytest.approx(1 / 3, abs=1e-12)

    def test_two_level_state(self, l3, l4):
        assert ul.schrodinger_bound(l3, l4, ul.two_level_state(1, 1)) <= 1e-12

    def test_eigenvector_input(self, l3, l4):
        # (0, 0, 1) is an eigenvector of lambda3; both Schwartz sides collapse
        assert ul.schrodinger_bound(l4, l3, ul.StateVector([0.0, 0.0, 1.0])) <= 1e-12

    def test_never_below_hr_bound(self, rng):
        for _ in range(300):
            d = int(rng.integers(2, 7))
            a, b = rand_hermitian(rng, d), rand_hermitian(rng, d)
            phi = rand_state(rng, d)
            assert ul.hr_bound(a, b, phi) <= ul.schrodinger_bound(a, b, phi) + 1e-10


@pytest.mark.parametrize("dim", [2, 3, 8, 64])
def test_bounds_match_the_matrix_formulas(dim):
    # reference: [A,B] and AB + BA formed as matrices, against the bounds'
    # route through A(B phi) and B(A phi)
    rng = np.random.default_rng(5000 + dim)
    for _ in range(20):
        a, b = rand_hermitian(rng, dim), rand_hermitian(rng, dim)
        phi = rand_state(rng, dim)
        amps, mat_a, mat_b = phi.amps, a.matrix, b.matrix
        hr = 0.5 * abs(np.vdot(amps, ul.commutator(a, b) @ amps))
        anti = np.vdot(amps, (mat_a @ mat_b + mat_b @ mat_a) @ amps).real
        mean_a, mean_b = np.vdot(amps, mat_a @ amps).real, np.vdot(amps, mat_b @ amps).real
        schrodinger = np.hypot(0.5 * anti - mean_a * mean_b, hr)
        scale = np.linalg.norm(mat_a @ amps) * np.linalg.norm(mat_b @ amps)
        assert abs(ul.hr_bound(a, b, phi) - hr) <= 1e-12 * scale
        assert abs(ul.schrodinger_bound(a, b, phi) - schrodinger) <= 1e-12 * scale


class TestEvaluate:
    def test_uniform_state_golden(self, l3, l4, phi2):
        rep = ul.evaluate(l3, l4, phi2)
        assert rep.product == pytest.approx(2 / (3 * np.sqrt(3)), abs=1e-12)
        assert rep.hr_bound <= 1e-12
        assert rep.general_bound == pytest.approx(1 / 3, abs=1e-12)
        assert rep.schrodinger_bound == pytest.approx(1 / 3, abs=1e-12)
        assert not rep.tight
        assert rep.slack_general == pytest.approx(rep.product - 1 / 3, abs=1e-12)

    def test_two_level_state_all_bounds_zero(self, l3, l4):
        rep = ul.evaluate(l3, l4, ul.two_level_state(1, 1))
        assert rep.product == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert rep.hr_bound <= 1e-12
        assert rep.schrodinger_bound <= 1e-12
        assert rep.general_bound <= 1e-12

    def test_self_pair_is_tight(self, rng):
        a = rand_hermitian(rng, 4)
        phi = rand_state(rng, 4)
        rep = ul.evaluate(a, a, phi)
        assert rep.tight
        assert rep.product == pytest.approx(rep.general_bound, abs=1e-10)
        assert rep.product == pytest.approx(ul.std_dev(a, phi) ** 2, abs=1e-10)

    def test_tightness_matches_pearson(self, rng, l3, l4, phi2):
        a = rand_hermitian(rng, 3)
        phi = rand_state(rng, 3)
        assert ul.evaluate(a, a, phi).tight
        assert ul.pearson(a, a, phi) == pytest.approx(1.0, abs=1e-8)
        assert not ul.evaluate(l3, l4, phi2).tight
        assert ul.pearson(l3, l4, phi2) < 1.0 - 1e-8

    def test_random_instances_satisfy_invariants(self, rng):
        # evaluate() raises ArithmeticError if any internal cross-check fails
        for _ in range(500):
            d = int(rng.integers(2, 7))
            rep = ul.evaluate(rand_hermitian(rng, d), rand_hermitian(rng, d), rand_state(rng, d))
            assert rep.product == pytest.approx(rep.delta_a * rep.delta_b, rel=1e-12)

    def test_real_pair_bound_is_real_part(self, rng):
        # real symmetric observables + real state => Im C = 0, so the bound
        # reduces to |Re C| (the restricted form on commutator-free states)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            m1 = rng.standard_normal((d, d))
            m2 = rng.standard_normal((d, d))
            a = ul.validate_observable((m1 + m1.T) / 2)
            b = ul.validate_observable((m2 + m2.T) / 2)
            phi = ul.StateVector.normalized(rng.standard_normal(d))
            c = ul.correlation(a, b, phi)
            assert abs(c.imag) <= ul.DEFAULT_TOLERANCES.tol_zero
            rep = ul.evaluate(a, b, phi)
            assert rep.general_bound == pytest.approx(abs(c.real), abs=1e-10)

    def test_tolerances_move_no_bit(self, rng):
        # tol is accepted for symmetry with the other functions of a pair; no check reads it
        huge = ul.Tolerances(tol_herm=1e300, tol_norm=1e300, tol_zero=1e300, eps_spread=1e300)
        tiny = ul.Tolerances(tol_herm=5e-324, tol_norm=5e-324, tol_zero=5e-324, eps_spread=5e-324)
        for d in (2, 3, 8, 64):
            a, b, phi = rand_hermitian(rng, d), rand_hermitian(rng, d), rand_state(rng, d)
            bits = [
                [v.hex() if isinstance(v, float) else v
                 for v in dataclasses.astuple(ul.evaluate(a, b, phi, *tol))]
                for tol in ((), (huge,), (tiny,))
            ]
            assert bits[0] == bits[1] == bits[2]


class TestSumRelations:
    def test_eigenstate_input_is_trivial(self, rng):
        a = rand_hermitian(rng, 4)
        b = rand_hermitian(rng, 4)
        _, vecs = np.linalg.eigh(b.matrix)
        phi = ul.StateVector.normalized(vecs[:, 2])
        rep = ul.sum_relations(a, b, phi)
        assert rep.degenerate is ul.Degeneracy.EIGENSTATE_TRIVIAL
        assert rep.spread_of_sum == pytest.approx(ul.std_dev(a, phi), abs=1e-10)

    def test_two_level_state_is_pythagorean(self, l3, l4):
        phi1 = ul.two_level_state(1, 1)
        rep = ul.sum_relations(l3, l4, phi1)
        assert rep.degenerate is ul.Degeneracy.PYTHAGORAS
        assert rep.spread_of_sum**2 == pytest.approx(rep.quad_lhs, abs=1e-9)
        assert rep.spread_of_sum**2 == pytest.approx(1.5, abs=1e-12)

    def test_uniform_state_not_degenerate(self, l3, l4, phi2):
        rep = ul.sum_relations(l3, l4, phi2)
        assert rep.degenerate is ul.Degeneracy.NONE
        assert rep.sum_of_spreads > rep.spread_of_sum + 1e-3
        assert rep.quad_lhs > rep.quad_rhs + 1e-3

    def test_inequalities_on_random_instances(self, rng):
        for _ in range(300):
            d = int(rng.integers(2, 7))
            rep = ul.sum_relations(
                rand_hermitian(rng, d), rand_hermitian(rng, d), rand_state(rng, d)
            )
            assert rep.sum_of_spreads >= rep.spread_of_sum - 1e-10
            assert rep.quad_lhs >= rep.quad_rhs - 1e-10

    def test_json_dict_in_field_order_with_the_plain_degeneracy(self, l3, l4):
        rep = ul.sum_relations(l3, l4, ul.two_level_state(1, 1))
        doc = rep.to_json_dict()
        assert list(doc) == [
            "sum_of_spreads", "spread_of_sum", "quad_lhs", "quad_rhs", "degenerate"]
        assert type(doc["degenerate"]) is str and doc["degenerate"] == "pythagoras"
        assert doc["quad_lhs"] == rep.quad_lhs


class TestSumRelationN:
    def test_asserts_its_identity_through_the_check_hook(self, monkeypatch, l3, l4, phi2):
        recorded = recorded_checks(monkeypatch)
        ul.sum_relation_n([l3, l4], phi2)
        variance = "variance: norm form = moment form"
        assert recorded == [variance] * 3 + ["n-term triangle inequality"]

    def test_copies_of_same_observable(self, rng):
        a = rand_hermitian(rng, 3)
        phi = rand_state(rng, 3)
        lhs, rhs = ul.sum_relation_n([a, a, a, a], phi)
        assert lhs == pytest.approx(4 * ul.std_dev(a, phi), rel=1e-12)
        assert rhs == pytest.approx(lhs, abs=1e-10)

    def test_copies_in_other_units(self, rng):
        # equality case: the check's residual is pure roundoff of size ~ lhs
        for d in (3, 8, 32):
            a, phi = 1e6 * rand_hermitian(rng, d), rand_state(rng, d)
            for k in (3, 5, 7):
                lhs, rhs = ul.sum_relation_n([a] * k, phi)
                assert rhs == pytest.approx(lhs, rel=1e-12)

    def test_gell_mann_triple(self, l3, l4, l5, phi2):
        lhs, rhs = ul.sum_relation_n([l3, l4, l5], phi2)
        assert lhs == pytest.approx(2 * np.sqrt(2 / 3) + np.sqrt(2) / 3, abs=1e-12)
        assert rhs == pytest.approx(np.sqrt(20) / 3, abs=1e-12)
        assert lhs >= rhs

    def test_cancelling_pair(self, rng):
        a = rand_hermitian(rng, 4)
        phi = rand_state(rng, 4)
        lhs, rhs = ul.sum_relation_n([a, -a], phi)
        assert rhs <= 1e-12
        assert lhs == pytest.approx(2 * ul.std_dev(a, phi), rel=1e-12)

    def test_requires_at_least_two(self, rng, l3):
        phi = ul.uniform_superposition(3)
        with pytest.raises(ValueError):
            ul.sum_relation_n([], phi)
        with pytest.raises(ValueError):
            ul.sum_relation_n([l3], phi)

    def test_holds_on_random_triples(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 6))
            obs = [rand_hermitian(rng, d) for _ in range(3)]
            lhs, rhs = ul.sum_relation_n(obs, rand_state(rng, d))
            assert lhs >= rhs - 1e-10


class TestCsvRow:
    def test_round_trip(self, l3, l4, phi2):
        rep = ul.evaluate(l3, l4, phi2)
        cls = ul.classify(l3, l4, phi2)
        row = ul.relations.report_csv_row(
            3, 7, rep, cls.pearson,
            (cls.eigen_a, cls.eigen_b, cls.in_s_ab, cls.in_s_comm, cls.in_s_anti),
        )
        header = ul.relations.REPORT_CSV_HEADER.split(",")
        fields = row.split(",")
        assert len(fields) == len(header)
        assert fields[0] == "3"
        assert float(fields[header.index("general_bound")]) == pytest.approx(1 / 3, abs=1e-12)
        assert fields[header.index("s_comm")] == "1"

    def test_absent_pearson_is_empty_field(self, l3, l4):
        rep = ul.evaluate(l3, l4, ul.StateVector([1.0, 0.0, 0.0]))
        row = ul.relations.report_csv_row(3, 0, rep, None, (True, False, False, False, False))
        assert ",," in row
