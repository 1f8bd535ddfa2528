import numpy as np
import pytest

import uncertainty_lab as ul
from uncertainty_lab import moments, state_sets
from helpers import ks_distance, pauli_pair, rand_hermitian, rand_state


def _rows(a, b, **config):
    scan = ul.membership_scan(a, b, ul.ScanConfig(**config))
    return [(phi.amps.tobytes(), cls) for phi, cls in scan]


# eps_spread per dimension at which some, not all, rows of the tests' random
# pairs have an eigen flag, and so no Pearson value
_MIXED_EPS = {2: 0.1, 3: 1.0, 8: 2.0, 64: 7.5}


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

    def test_pair_past_the_float_range_rejected_eagerly(self, l3, l4):
        with pytest.raises(OverflowError, match="largest float"):
            ul.membership_scan(1e155 * l3, 1e155 * l4, ul.ScanConfig(samples=1, seed=0))

    def test_range_past_the_philox_counters_rejected_eagerly(self, l3, l4):
        # at d = 3 a 1365-sample block takes 2730 counters; sample 2^255 would
        # sit at counter 2^256, which Philox wraps to 0
        with pytest.raises(ul.ValidationError, match="2\\^256"):
            ul.membership_scan(l3, l4, ul.ScanConfig(samples=2, seed=0, start=2**255))

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

    @pytest.mark.parametrize("field, value", [
        ("samples", 2.5), ("samples", True), ("samples", "3"),
        ("seed", 1.5), ("seed", False), ("seed", None), ("start", np.float64(1.0)),
    ])
    def test_unusable_integer_setting_rejected_by_name(self, field, value):
        with pytest.raises(ul.ValidationError, match=field):
            ul.ScanConfig(**{"samples": 1, "seed": 0, field: value})

    @pytest.mark.parametrize("value", [None, {"tol_zero": 0.05}, 1e-10])
    def test_tolerances_must_be_a_tolerances(self, value):
        with pytest.raises(ul.ValidationError, match="tolerances"):
            ul.ScanConfig(samples=1, seed=0, tolerances=value)

    def test_numpy_integers_stored_as_int(self):
        cfg = ul.ScanConfig(samples=np.int64(3), seed=np.uint32(5), start=np.int8(2))
        assert [(type(v), v) for v in (cfg.samples, cfg.seed, cfg.start)] == [
            (int, 3), (int, 5), (int, 2)]

    @pytest.mark.parametrize(
        "dim, total, cuts",
        [(3, 1500, (1, 2, 1370)), (64, 200, (37, 100, 101)), (3, 1500, (1, 2, 2, 1370))],
    )
    def test_partition_does_not_change_a_row(self, rng, dim, total, cuts):
        # blocks hold 4096 // d rows (1365 at d = 3, 64 at d = 64): every cut
        # falls inside a block, some ranges cross block boundaries,
        # [2, 3) and [100, 101) are one-row ranges and [2, 2), off a block
        # boundary, is empty; at the second eps_spread
        # some rows have an eigen flag and no Pearson value
        a, b = (rand_hermitian(rng, dim) for _ in range(2))
        for eps_spread in (ul.DEFAULT_TOLERANCES.eps_spread, _MIXED_EPS[dim]):
            tol = ul.Tolerances(eps_spread=eps_spread)
            whole = _rows(a, b, samples=total, seed=8, tolerances=tol)
            bounds = (0, *cuts, total)
            parts = [
                row
                for lo, hi in zip(bounds, bounds[1:])
                for row in _rows(a, b, samples=hi - lo, seed=8, start=lo, tolerances=tol)
            ]
            assert len(whole) == total
            assert parts == whole
            no_pearson = [cls.pearson is None for _, cls in whole]
            assert no_pearson == [cls.eigen_a or cls.eigen_b for _, cls in whole]
            assert any(no_pearson) == (eps_spread == _MIXED_EPS[dim]) and not all(no_pearson)

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
        # at the second eps_spread some rows have an eigen flag and no Pearson value
        for eps_spread in (ul.DEFAULT_TOLERANCES.eps_spread, _MIXED_EPS[dim]):
            tol = ul.Tolerances(tol_zero=tol_zero, eps_spread=eps_spread)
            config = ul.ScanConfig(samples=300, seed=dim, tolerances=tol, start=50)
            scanned = no_pearson = 0
            for block in state_sets._scan_blocks(a, b, config):
                for phi, c, pearson, flags in zip(block.phis, block.c, block.pearson, block.flags):
                    phi = ul.StateVector(phi)
                    cls = ul.classify(a, b, phi, tol)
                    scale = (np.linalg.norm(a.matrix @ phi.amps)
                             * np.linalg.norm(b.matrix @ phi.amps))
                    assert abs(c - ul.correlation(a, b, phi)) <= 1e-12 * max(1.0, scale)
                    if cls.pearson is None:
                        assert np.isnan(pearson)
                        no_pearson += 1
                    else:
                        assert pearson == pytest.approx(cls.pearson, rel=1e-12, abs=1e-12)
                    assert tuple(flags[:2]) == (cls.eigen_a, cls.eigen_b)
                    sets = (cls.in_s_ab, cls.in_s_comm, cls.in_s_anti)
                    for flag, expected, value in zip(flags[2:], sets, (abs(c), c.imag, c.real)):
                        # a flag may differ only where its value rounds onto tol_zero
                        assert flag == expected or tol_zero / 10 < abs(value) < tol_zero * 10
                    scanned += 1
            assert scanned == 300
            assert (no_pearson > 0) == (eps_spread == _MIXED_EPS[dim]) and no_pearson < 300

    def test_membership_scan_yields_the_kernel_rows(self, l3, l4):
        # at eps_spread 0.6 some rows have an eigen flag and no Pearson value
        for eps_spread in (ul.DEFAULT_TOLERANCES.eps_spread, 0.6):
            tol = ul.Tolerances(eps_spread=eps_spread)
            config = ul.ScanConfig(samples=20, seed=3, start=5, tolerances=tol)
            (block,) = state_sets._scan_blocks(l3, l4, config)
            rows = list(ul.membership_scan(l3, l4, config))
            assert block.start == 5
            assert [phi.amps.tobytes() for phi, _ in rows] == [phi.tobytes() for phi in block.phis]
            flags = [(cls.eigen_a, cls.eigen_b, cls.in_s_ab, cls.in_s_comm, cls.in_s_anti)
                     for _, cls in rows]
            assert flags == [tuple(row) for row in block.flags.tolist()]
            # None in the results and NaN in the block exactly on the eigen rows
            no_pearson = block.flags[:, :2].any(axis=1)
            assert [cls.pearson is None for _, cls in rows] == no_pearson.tolist()
            assert np.isnan(block.pearson).tolist() == no_pearson.tolist()
            assert [cls.pearson for _, cls in rows if cls.pearson is not None] == (
                block.pearson[~no_pearson].tolist())
            assert no_pearson.any() == (eps_spread == 0.6)
            assert all(isinstance(cls.in_s_ab, bool) for _, cls in rows)

    @pytest.mark.parametrize("dim", [2, 3, 5, 64])
    def test_draw_of_a_range_is_the_same_rows_of_a_draw_from_zero(self, dim):
        key = np.random.SeedSequence(21).generate_state(2, np.uint64)
        full = state_sets._gaussian_rows(key, 0, 150, dim)
        for start, n in [(0, 1), (1, 1), (7, 13), (64, 64), (99, 51), (149, 1)]:
            part = state_sets._gaussian_rows(key, start, n, dim)
            assert np.array_equal(part, full[start : start + n])

    @pytest.mark.parametrize("dim", [3, 16, 32])
    def test_rows_follow_the_haar_laws(self, dim):
        # for a Haar phi in C^d and a fixed unit e, |<e|phi>|^2 ~ Beta(1, d - 1),
        # P(|<e|phi>|^2 <= x) = 1 - (1 - x)^(d - 1), and arg phi_d is uniform;
        # each KS distance is held to the 0.1% critical value
        rng = np.random.default_rng(dim)
        a, b = rand_hermitian(rng, dim), rand_hermitian(rng, dim)
        e = rand_state(np.random.default_rng(4), dim).amps
        n = 3000
        phis = np.concatenate([
            block.phis for block in state_sets._scan_blocks(a, b, ul.ScanConfig(samples=n, seed=5))
        ])
        assert phis.shape == (n, dim)
        overlap = np.abs(phis @ e.conj()) ** 2
        assert ks_distance(overlap, lambda x: 1.0 - (1.0 - x) ** (dim - 1)) <= 1.95 / np.sqrt(n)
        phase = np.angle(phis[:, -1])
        assert ks_distance(phase, lambda x: (x + np.pi) / (2.0 * np.pi)) <= 1.95 / np.sqrt(n)


def _scan_counts(a, b, samples, tol, count):
    """The sum of ``count(block)`` over the blocks of a seed-0 scan."""
    config = ul.ScanConfig(samples=samples, seed=0, tolerances=tol)
    return sum(count(block) for block in state_sets._scan_blocks(a, b, config))


class TestCodimension:
    """How fast the scan's counts near the zero sets fall with the tolerance.

    The states within eps of a set of real codimension k are a share ~eps^k,
    so from eps = 0.1 to 0.01 their count falls by 10^k: 10^1 for s_comm
    (Im C = 0), 10^2 for s_ab (C = 0) and for r <= eps (orthogonal deviation
    directions).  The bounds on k, [0.85, 1.15] and [1.6, 2.4], leave room
    for the sampling noise of counts >= 150 and for the curvature of the
    sets at eps = 0.1; they are not fitted to the seeds.
    """

    def test_s_comm_has_codimension_one_and_s_ab_two(self, l3, l4):
        counts = np.array([
            _scan_counts(l3, l4, 120_000, ul.Tolerances(tol_zero=eps),
                         lambda block: block.flags.sum(axis=0))
            for eps in (0.1, 0.01)
        ])
        assert counts[1, 2:4].min() >= 150
        s_ab, s_comm = np.log10(counts[0, 2:4] / counts[1, 2:4])
        assert 1.6 <= s_ab <= 2.4
        assert 0.85 <= s_comm <= 1.15

    def test_orthogonal_deviation_directions_have_codimension_two(self):
        rng = np.random.default_rng(8)
        a, b = (rand_hermitian(rng, 8) for _ in range(2))
        counts = _scan_counts(a, b, 300_000, ul.DEFAULT_TOLERANCES, lambda block: np.array(
            [np.count_nonzero(block.pearson <= eps) for eps in (0.1, 0.01)]))
        assert counts[1] >= 150
        assert 1.6 <= np.log10(counts[0] / counts[1]) <= 2.4


def _below(x: float) -> float:
    """The largest float below ``x``."""
    return float(np.nextafter(x, 0.0))


class TestOneRule:
    """Every site decides by one rule: at a tolerance equal to the value it
    judges, each says zero, and one float below that value none does."""

    @pytest.mark.parametrize("dim", [3, 8])
    def test_every_eigen_site_agrees_at_eps_spread(self, dim):
        rng = np.random.default_rng(60 + dim)
        for _ in range(10):
            a, b, phi = rand_hermitian(rng, dim), rand_hermitian(rng, dim), rand_state(rng, dim)
            da, db = ul.std_dev(a, phi), ul.std_dev(b, phi)
            for f, spread, which in ((a, da, "eigen_a"), (b, db, "eigen_b")):
                # at eps_spread = the spread; then one float below the smaller spread
                for eps, eigen in ((spread, True), (_below(min(da, db)), False)):
                    tol = ul.Tolerances(eps_spread=eps)
                    try:
                        ul.pearson(a, b, phi, tol)
                        degenerate = False
                    except ul.DegenerateSpread:
                        degenerate = True
                    assert [
                        ul.is_eigenstate(f, phi, tol),
                        ul.orthogonal_unit(f, phi, tol) is None,
                        ul.correlation_record(a, b, phi, tol).pearson is None,
                        degenerate,
                        ul.sum_relations(a, b, phi, tol).degenerate
                        == ul.Degeneracy.EIGENSTATE_TRIVIAL,
                        getattr(ul.classify(a, b, phi, tol), which),
                    ] == [eigen] * 6

    @pytest.mark.parametrize("dim", [3, 8])
    def test_every_zero_site_agrees_at_tol_zero(self, dim):
        # found states have |C| ~ 1e-13, far below the pair's commuting ratio
        rng = np.random.default_rng(70 + dim)
        for seed in range(3):
            a, b = rand_hermitian(rng, dim), rand_hermitian(rng, dim)
            phi = ul.find(a, b, ul.FinderConfig(seed=seed)).state
            c = ul.correlation(a, b, phi)
            for value in (abs(c), abs(c.imag), abs(c.real)):
                for tol_zero in (value, _below(value)):
                    cls = ul.classify(a, b, phi, ul.Tolerances(tol_zero=tol_zero))
                    assert (cls.eigen_a, cls.eigen_b) == (False, False)
                    assert (cls.in_s_ab, cls.in_s_comm, cls.in_s_anti) == (
                        abs(c) <= tol_zero, abs(c.imag) <= tol_zero, abs(c.real) <= tol_zero)
            # find's acceptance rule, in verify_candidate: |C| by the zero test,
            # the smaller spread by the spread test
            assert ul.verify_candidate(a, b, phi, ul.Tolerances(tol_zero=abs(c)))
            assert not ul.verify_candidate(a, b, phi, ul.Tolerances(tol_zero=_below(abs(c))))
            low = min(ul.std_dev(a, phi), ul.std_dev(b, phi))
            assert not ul.verify_candidate(a, b, phi, ul.Tolerances(eps_spread=low))
            assert ul.verify_candidate(a, b, phi, ul.Tolerances(eps_spread=_below(low)))
            # the Pythagoras diagnosis judges the deviation form <dev_A|dev_B> of C
            overlap = abs(np.vdot(ul.deviation_vector(a, phi).vec, ul.deviation_vector(b, phi).vec))
            for tol_zero, kind in ((overlap, ul.Degeneracy.PYTHAGORAS),
                                   (_below(overlap), ul.Degeneracy.NONE)):
                tol = ul.Tolerances(tol_zero=tol_zero)
                assert ul.sum_relations(a, b, phi, tol).degenerate == kind

    def test_tight_follows_the_slack_constant(self, l3, l4, phi2, monkeypatch):
        slack = ul.evaluate(l3, l4, phi2).slack_general
        for constant, tight in ((slack, True), (_below(slack), False)):
            monkeypatch.setattr(moments, "_TIGHT_SLACK", constant)
            assert ul.evaluate(l3, l4, phi2).tight is tight

    @pytest.mark.parametrize("dim", [3, 8])
    def test_scan_rows_agree_at_tol_zero(self, dim):
        # the symmetric and antisymmetric generators of (1, 2) have
        # ||[A,B]|| / (||A|| ||B||) = sqrt(2), above any |C| <= dA dB <= 1, so
        # no tol_zero below makes the pair commute
        basis = ul.gell_mann(dim)
        a, b = basis.symmetric(1, 2), basis.antisymmetric(1, 2)
        (block,) = state_sets._scan_blocks(a, b, ul.ScanConfig(samples=12, seed=dim))
        for i in range(12):
            # the row's own values, as the kernel computed them
            values = [np.abs(block.c)[i], np.abs(block.c.imag)[i], np.abs(block.c.real)[i]]
            for tol_zero in [v for value in values for v in (float(value), _below(value))]:
                config = ul.ScanConfig(samples=1, seed=dim, start=i,
                                       tolerances=ul.Tolerances(tol_zero=tol_zero))
                (row,) = state_sets._scan_blocks(a, b, config)
                assert row.c[0] == block.c[i]  # no number of a row depends on tol
                assert row.flags[0].tolist() == [False, False] + [v <= tol_zero for v in values]
