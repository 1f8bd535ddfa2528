import numpy as np
import pytest

import uncertainty_lab as ul
from uncertainty_lab import state_sets
from helpers import pauli_pair, rand_hermitian, rand_state


def _rows(a, b, **config):
    scan = ul.membership_scan(a, b, ul.ScanConfig(**config))
    return [(phi.amps.tobytes(), cls) for phi, cls in scan]


class TestClassify:
    def test_two_level_state_in_s_ab(self, l3, l4):
        cls = ul.classify(l3, l4, ul.two_level_state(1, 1))
        assert cls.in_s_ab
        # |C| = 0 forces both parts to vanish: inclusion in the other two sets
        assert cls.in_s_comm and cls.in_s_anti
        assert not cls.eigen_a and not cls.eigen_b
        assert cls.pearson == pytest.approx(0.0, abs=1e-12)

    def test_uniform_state_in_s_comm_only(self, l3, l4, phi2):
        cls = ul.classify(l3, l4, phi2)
        assert cls.in_s_comm
        assert not cls.in_s_ab
        assert not cls.in_s_anti  # Re C = 1/3
        assert cls.pearson == pytest.approx(0.8660254037844386, abs=1e-12)

    def test_eigenvector_excluded_from_all_sets(self, l3, l4):
        cls = ul.classify(l3, l4, ul.StateVector([1.0, 0.0, 0.0]))
        assert cls.eigen_a
        assert not cls.eigen_b
        assert not (cls.in_s_ab or cls.in_s_comm or cls.in_s_anti)
        assert cls.pearson is None

    def test_commuting_pair_rejected(self, l3, phi2):
        with pytest.raises(ul.CommutingPair):
            ul.classify(l3, l3, phi2)
        a = ul.validate_observable(np.diag([1.0, 2.0, 3.0]).astype(complex))
        b = ul.validate_observable(np.diag([0.0, 1.0, -1.0]).astype(complex))
        with pytest.raises(ul.CommutingPair):
            ul.classify(a, b, phi2)

    def test_pairs_in_small_units_pass_the_commuting_guard(self, rng):
        # ||[A,B]|| ~ 1e-12 here, below the absolute tol_zero; the guard is
        # judged relative to ||A|| ||B||, so no path rejects these pairs
        cfg = ul.FinderConfig(restarts=1, max_iters=1)
        for _ in range(100):
            a, b = 1e-6 * rand_hermitian(rng, 4), 1e-6 * rand_hermitian(rng, 4)
            ul.classify(a, b, rand_state(rng, 4))
            assert len(list(ul.membership_scan(a, b, ul.ScanConfig(samples=2, seed=0)))) == 2
            ul.find(a, b, cfg)

    def test_formulations_agree_on_random_states(self, rng):
        # classify cross-checks |<[A,B]>| against 2 |Im C| internally and
        # raises if they drift apart
        for _ in range(500):
            d = int(rng.integers(2, 7))
            a, b = rand_hermitian(rng, d), rand_hermitian(rng, d)
            try:
                ul.classify(a, b, rand_state(rng, d))
            except ul.CommutingPair:
                continue

    def test_commutator_expectation_equals_twice_imag_part(self, rng):
        # the two membership formulations measure the same number
        for _ in range(10_000):
            d = int(rng.integers(2, 7))
            a, b = rand_hermitian(rng, d), rand_hermitian(rng, d)
            phi = rand_state(rng, d)
            comm_expect = abs(ul.inner(phi, ul.commutator(a, b) @ phi.amps))
            im_c = abs(ul.correlation(a, b, phi).imag)
            assert abs(comm_expect - 2 * im_c) <= 1e-10

    def test_records_tolerances(self, l3, l4, phi2):
        tol = ul.Tolerances(tol_zero=1e-8)
        assert ul.classify(l3, l4, phi2, tol).tolerances_used is tol

    def test_json_round_trip(self, l3, l4, phi2):
        doc = ul.classify(l3, l4, phi2).to_json_dict()
        assert doc["in_s_comm"] is True
        assert doc["tolerances_used"]["tol_zero"] == 1e-10


class TestMembershipScan:
    def test_deterministic_per_seed(self, l3, l4):
        cfg = ul.ScanConfig(samples=50, seed=9)
        first = [(phi.amps.tobytes(), cls) for phi, cls in ul.membership_scan(l3, l4, cfg)]
        second = [(phi.amps.tobytes(), cls) for phi, cls in ul.membership_scan(l3, l4, cfg)]
        assert first == second

    def test_prefix_independent_of_sample_count(self, l3, l4):
        def rows(samples):
            scan = ul.membership_scan(l3, l4, ul.ScanConfig(samples=samples, seed=5))
            return [(phi.amps.tobytes(), cls) for phi, cls in scan]

        short, long = rows(40), rows(75)
        assert len(long) == 75
        assert short == long[:40]

    def test_zero_samples_empty_stream(self, l3, l4):
        assert list(ul.membership_scan(l3, l4, ul.ScanConfig(samples=0, seed=0))) == []

    def test_commuting_pair_rejected(self, l3):
        with pytest.raises(ul.CommutingPair):
            list(ul.membership_scan(l3, l3, ul.ScanConfig(samples=1, seed=0)))

    def test_dimension_two_never_hits_s_ab(self):
        sx, sz = pauli_pair()
        rows = list(ul.membership_scan(sx, sz, ul.ScanConfig(samples=2000, seed=3)))
        assert len(rows) == 2000
        assert not any(cls.in_s_ab for _, cls in rows)

    def test_strict_membership_is_measure_zero_but_witnessed(self, l3, l4, phi2):
        # Haar sampling never lands on the zero sets at the strict tolerance;
        # nonemptiness is witnessed exactly by the uniform superposition.
        hits = sum(cls.in_s_comm for _, cls in ul.membership_scan(
            l3, l4, ul.ScanConfig(samples=500, seed=5)))
        assert hits == 0
        assert ul.classify(l3, l4, phi2).in_s_comm

    def test_loose_tolerance_finds_members(self, l3, l4):
        loose = ul.Tolerances(tol_zero=0.02)
        cfg = ul.ScanConfig(samples=2000, seed=5, tolerances=loose)
        rows = [cls for _, cls in ul.membership_scan(l3, l4, cfg)]
        assert sum(cls.in_s_comm for cls in rows) > 0
        assert sum(cls.in_s_ab for cls in rows) > 0

    def test_inclusion_structure_over_scans(self, l3, l4, rng):
        configs = [
            (l3, l4, ul.ScanConfig(samples=1500, seed=5, tolerances=ul.Tolerances(tol_zero=0.05))),
            (l3, l4, ul.ScanConfig(samples=1500, seed=6)),
            (rand_hermitian(rng, 4), rand_hermitian(rng, 4), ul.ScanConfig(samples=500, seed=7)),
        ]
        for a, b, cfg in configs:
            for _, cls in ul.membership_scan(a, b, cfg):
                if cls.in_s_ab:
                    assert cls.in_s_comm and cls.in_s_anti

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            ul.ScanConfig(samples=-1, seed=0)

    def test_negative_start_and_seed_rejected(self, l3, l4):
        with pytest.raises(ValueError, match="start"):
            ul.ScanConfig(samples=1, seed=0, start=-1)
        with pytest.raises(ValueError):
            ul.membership_scan(l3, l4, ul.ScanConfig(samples=1, seed=-1))  # eagerly

    @pytest.mark.parametrize(
        "dim, total, cuts", [(3, 1500, (1, 2, 1370)), (64, 200, (37, 100, 101))]
    )
    def test_partition_does_not_change_a_row(self, rng, dim, total, cuts):
        # blocks hold 4096 // d rows (1365 at d = 3, 64 at d = 64): every cut
        # falls inside a block, some ranges cross block boundaries, and
        # [2, 3) and [100, 101) are one-row ranges
        a, b = (rand_hermitian(rng, dim) for _ in range(2))
        whole = _rows(a, b, samples=total, seed=8)
        bounds = (0, *cuts, total)
        parts = [
            row
            for lo, hi in zip(bounds, bounds[1:])
            for row in _rows(a, b, samples=hi - lo, seed=8, start=lo)
        ]
        assert len(whole) == total
        assert parts == whole

    def test_states_are_haar_distributed(self, l3, l4):
        # for Haar states at d = 3: E phi_k = 0, E|phi_k|^2 = 1/3 and
        # E|phi_k|^4 = 2 / (d (d + 1)) = 1/6; bounds are ~6 standard errors
        scan = ul.membership_scan(l3, l4, ul.ScanConfig(samples=6000, seed=12))
        amps = np.array([phi.amps for phi, _ in scan])
        p = np.abs(amps) ** 2
        assert np.all(np.abs(amps.mean(axis=0)) < 0.04)
        assert np.all(np.abs(p.mean(axis=0) - 1 / 3) < 0.02)
        assert np.all(np.abs((p**2).mean(axis=0) - 1 / 6) < 0.02)


class TestScanKernel:
    """The batched scan kernel against the per-state path, and its draw."""

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    @pytest.mark.parametrize("tol_zero", [1e-10, 0.05])
    def test_rows_agree_with_classify(self, dim, tol_zero):
        rng = np.random.default_rng(1000 + dim)
        a, b = (rand_hermitian(rng, dim) for _ in range(2))
        tol = ul.Tolerances(tol_zero=tol_zero)
        config = ul.ScanConfig(samples=300, seed=dim, tolerances=tol, start=50)
        scanned = 0
        for block in state_sets._scan_blocks(a, b, config):
            for phi, c, pearson, flags in zip(block.phis, block.c, block.pearson, block.flags):
                phi = ul.StateVector(phi)
                cls = ul.classify(a, b, phi, tol)
                scale = np.linalg.norm(a.matrix @ phi.amps) * np.linalg.norm(b.matrix @ phi.amps)
                assert abs(c - ul.correlation(a, b, phi)) <= 1e-12 * max(1.0, scale)
                assert pearson == pytest.approx(cls.pearson, rel=1e-12, abs=1e-12)
                assert tuple(flags[:2]) == (cls.eigen_a, cls.eigen_b)
                sets = (cls.in_s_ab, cls.in_s_comm, cls.in_s_anti)
                for flag, expected, value in zip(flags[2:], sets, (abs(c), c.imag, c.real)):
                    # a flag may differ only where its value rounds onto tol_zero
                    assert flag == expected or tol_zero / 10 < abs(value) < tol_zero * 10
                scanned += 1
        assert scanned == 300

    def test_membership_scan_yields_the_kernel_rows(self, l3, l4):
        config = ul.ScanConfig(samples=20, seed=3, start=5)
        (block,) = state_sets._scan_blocks(l3, l4, config)
        rows = list(ul.membership_scan(l3, l4, config))
        assert block.start == 5
        assert [phi.amps.tobytes() for phi, _ in rows] == [phi.tobytes() for phi in block.phis]
        assert [cls.pearson for _, cls in rows] == block.pearson
        assert all(isinstance(cls.in_s_ab, bool) for _, cls in rows)

    @pytest.mark.parametrize("dim", [2, 3, 5, 64])
    def test_draw_of_a_range_is_the_same_rows_of_a_draw_from_zero(self, dim):
        key = np.random.SeedSequence(21).generate_state(2, np.uint64)
        full = state_sets._gaussian_rows(key, 0, 150, dim)
        for start, n in [(0, 1), (1, 1), (7, 13), (64, 64), (99, 51), (149, 1)]:
            part = state_sets._gaussian_rows(key, start, n, dim)
            assert np.array_equal(part, full[start : start + n])
