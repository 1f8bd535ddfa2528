import json

import numpy as np
import pytest

import uncertainty_lab as ul
from uncertainty_lab import finder
from helpers import pauli_pair, rand_hermitian


def fd_gradient(a, b, x, h=1e-6, cfg=None):
    d = len(x)
    out = np.zeros(2 * d)
    for i in range(2 * d):
        dx = np.zeros(d, dtype=complex)
        if i < d:
            dx[i] = h
        else:
            dx[i - d] = 1j * h
        out[i] = (ul.objective(a, b, x + dx, cfg) - ul.objective(a, b, x - dx, cfg)) / (2 * h)
    return out


class TestObjective:
    def test_zero_on_two_level_state(self, l3, l4):
        # C = 0 and both spreads (1 and 1/sqrt 2) clear the 0.1 floor
        assert ul.objective(l3, l4, ul.two_level_state(1, 1).amps) <= 1e-15

    def test_uniform_state_value(self, l3, l4, phi2):
        assert ul.objective(l3, l4, phi2.amps) == pytest.approx(1 / 9, abs=1e-12)

    def test_eigenvector_pays_full_floor_penalty(self, l3, l4):
        # e0 is an eigenvector of lambda3: C = 0, spread hinge fully active
        cfg = ul.FinderConfig()
        val = ul.objective(l4, l3, np.array([1.0, 0, 0], dtype=complex), cfg)
        assert val == pytest.approx(cfg.penalty_weight * cfg.spread_floor**2, abs=1e-12)

    def test_scale_and_phase_invariant(self, rng, l3, l4):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        base = ul.objective(l3, l4, x)
        assert ul.objective(l3, l4, 3.7 * x) == pytest.approx(base, rel=1e-12)
        assert ul.objective(l3, l4, np.exp(0.9j) * x) == pytest.approx(base, rel=1e-12)

    def test_zero_vector_rejected(self, l3, l4):
        with pytest.raises(ul.ValidationError):
            ul.objective(l3, l4, np.zeros(3, dtype=complex))

    @pytest.mark.parametrize("fn", [ul.objective, ul.gradient])
    def test_malformed_point_rejected(self, l3, l4, fn):
        with pytest.raises(ul.DimensionMismatch):
            fn(l3, l4, np.ones(4, dtype=complex))
        for x in ([1.0, np.nan, 0.0], [[1.0], [0.0], [0.0]], 1.0):
            with pytest.raises(ul.ValidationError):
                fn(l3, l4, x)


class TestGradient:
    def test_matches_finite_differences(self, rng):
        worst = 0.0
        for d in (3, 4, 5):
            for _ in range(10):
                a, b = rand_hermitian(rng, d), rand_hermitian(rng, d)
                x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                ga = ul.gradient(a, b, x)
                gf = fd_gradient(a, b, x)
                mask = np.maximum(np.abs(ga), np.abs(gf)) > 1e-8
                if mask.any():
                    rel = np.abs(ga - gf)[mask] / np.maximum(np.abs(ga), np.abs(gf))[mask]
                    worst = max(worst, float(rel.max()))
        assert worst <= 1e-5

    def test_matches_finite_differences_with_both_hinges_active(self, rng):
        # the floor lies above every spread these pairs reach (a few pass 3 at
        # d = 5), so both penalty terms are on
        cfg = ul.FinderConfig(spread_floor=5.0)
        worst = 0.0
        for d in (3, 4, 5):
            for _ in range(10):
                a, b = rand_hermitian(rng, d), rand_hermitian(rng, d)
                x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                phi = ul.StateVector.normalized(x)
                assert ul.std_dev(a, phi) < cfg.spread_floor
                assert ul.std_dev(b, phi) < cfg.spread_floor
                ga = ul.gradient(a, b, x, cfg)
                gf = fd_gradient(a, b, x, cfg=cfg)
                worst = max(worst, float(np.linalg.norm(ga - gf) / np.linalg.norm(gf)))
                # f is scale invariant, so the radial derivative vanishes
                radial = np.concatenate([x.real, x.imag])
                assert abs(ga @ radial) <= 1e-9 * np.linalg.norm(ga) * np.linalg.norm(radial)
        assert worst <= 1e-5

    def test_phase_direction_derivative_vanishes(self, rng, l3, l4):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        g = ul.gradient(l3, l4, x)
        ix = 1j * x  # tangent of the global-phase orbit
        direction = np.concatenate([ix.real, ix.imag])
        assert abs(g @ direction) <= 1e-10

    def test_small_at_converged_minimizer(self, l3, l4):
        result = ul.find(l3, l4, ul.FinderConfig(seed=7))
        assert result.converged
        x = result.state.amps
        g = ul.gradient(l3, l4, x)
        # project out the flat scale and phase directions before measuring
        for tangent in (x, 1j * x):
            t = np.concatenate([tangent.real, tangent.imag])
            t = t / np.linalg.norm(t)
            g = g - (g @ t) * t
        assert np.linalg.norm(g) <= 1e-6

    def test_zero_vector_rejected(self, l3, l4):
        with pytest.raises(ul.ValidationError):
            ul.gradient(l3, l4, np.zeros(3, dtype=complex))


def fd_jacobian(obj, x, h=1e-6):
    d = len(x)
    cols = []
    for i in range(2 * d):
        dx = np.zeros(d, dtype=complex)
        dx[i % d] = h if i < d else 1j * h
        cols.append((obj.residual(x + dx)[0] - obj.residual(x - dx)[0]) / (2 * h))
    return np.array(cols).T


def real_coords(v):
    return np.concatenate([v.real, v.imag])


class TestResidual:
    def test_jacobian_matches_finite_differences_with_both_hinges_active(self, rng):
        cfg = ul.FinderConfig(spread_floor=5.0)
        worst = 0.0
        for d in (3, 4, 5):
            for _ in range(10):
                a, b = rand_hermitian(rng, d), rand_hermitian(rng, d)
                x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                obj = finder._Objective(a, b, cfg)
                r, jac = obj.residual(x)
                assert r.shape == (4,) and jac.shape == (4, 2 * d)
                fd = fd_jacobian(obj, x)
                worst = max(worst, float(np.linalg.norm(jac - fd) / np.linalg.norm(fd)))
        assert worst <= 1e-5

    def test_residual_and_jacobian_give_objective_and_gradient(self, rng):
        # 2 J^T r is the gradient, so it must match differences of the objective
        for floor in (0.1, 5.0):
            cfg = ul.FinderConfig(spread_floor=floor)
            for d in (3, 4, 5):
                a, b = rand_hermitian(rng, d), rand_hermitian(rng, d)
                x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                r, jac = finder._Objective(a, b, cfg).residual(x)
                fd = fd_gradient(a, b, x, cfg=cfg)
                assert r @ r == pytest.approx(ul.objective(a, b, x, cfg), rel=1e-12)
                assert np.linalg.norm(2.0 * jac.T @ r - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_inactive_hinges_leave_two_rows(self, l3, l4):
        r, jac = finder._Objective(l3, l4, ul.FinderConfig()).residual(
            ul.two_level_state(1, 1).amps
        )
        assert r.shape == (2,) and jac.shape == (2, 6)

    def test_correlation_jacobian_has_rank_two_on_the_qutrit_family(self, l3, l4):
        # At phi = (a, b, 0)/N, C = 0 and (Re C, Im C) has rank 2 on the
        # tangent space modulo phase, so S_AB is locally a smooth manifold of
        # real dimension 2d - 4 = 2 in CP^2; the family's own two tangent
        # directions span the kernel.
        obj = finder._Objective(l3, l4, ul.FinderConfig())
        for a in (1.0, 0.3, 2.0, 1 + 1j, 0.5j):
            for b in (1.0, -0.7, 0.2 + 0.9j, 3.0):
                x = np.array([a, b, 0], dtype=complex)
                x /= np.linalg.norm(x)
                r, jac = obj.residual(x)
                assert np.max(np.abs(r[:2])) <= 1e-15
                flat = np.array([real_coords(x), real_coords(1j * x)]).T
                on_tangent = jac[:2] @ (np.eye(6) - flat @ flat.T)
                sv = np.linalg.svd(on_tangent, compute_uv=False)
                assert np.linalg.matrix_rank(on_tangent) == 2
                assert sv[1] >= 0.1 * sv[0]
                w = np.array([-np.conj(b), np.conj(a), 0])
                w /= np.linalg.norm(w)
                for t in (w, 1j * w):
                    assert np.linalg.norm(jac[:2] @ real_coords(t)) <= 1e-14


def textbook_parts_and_rows(a, b, x, cfg):
    """(objective, |C|, dA, dB), r and the real Jacobian of r from separate matvecs."""
    s = np.vdot(x, x).real
    ax, bx = a @ x, b @ x
    mean_a, mean_b = np.vdot(x, ax).real / s, np.vdot(x, bx).real / s
    c = np.vdot(ax, bx) / s - mean_a * mean_b
    u_a, u_b = ax - mean_a * x, bx - mean_b * x
    var_a, var_b = np.vdot(u_a, u_a).real / s, np.vdot(u_b, u_b).real / s
    d_a, d_b = np.sqrt(var_a), np.sqrt(var_b)
    # 2 dC/dxbar and 2 dCbar/dxbar
    d_c = (a @ u_b - mean_a * u_b - c * x) / s
    d_cbar = (b @ u_a - mean_b * u_a - np.conj(c) * x) / s
    r, rows = [c.real, c.imag], [d_c + d_cbar, (d_cbar - d_c) * 1j]
    root_w = np.sqrt(cfg.penalty_weight)
    for f, u, mean, var, d in ((a, u_a, mean_a, var_a, d_a), (b, u_b, mean_b, var_b, d_b)):
        if d < cfg.spread_floor:
            r.append(root_w * (cfg.spread_floor - d))
            rows.append(-root_w / (d * s) * (f @ u - mean * u - var * x))
    hinges = sum(max(cfg.spread_floor - d, 0.0) ** 2 for d in (d_a, d_b))
    parts = (abs(c) ** 2 + cfg.penalty_weight * hinges, abs(c), d_a, d_b)
    rows = np.array(rows)
    return parts, np.array(r), np.concatenate((rows.real, rows.imag), axis=1)


class TestKernelReference:
    @pytest.mark.parametrize("dim", [3, 4, 8, 64])
    def test_parts_and_residual_match_textbook_formulas(self, dim):
        rng = np.random.default_rng(1000 + dim)
        hinge_counts = set()
        for floor in (0.1, 5.0):
            cfg = ul.FinderConfig(spread_floor=floor)
            for scale_a, scale_b in ((1.0, 1.0), (1.0, 1e-3), (1e-3, 1e-3)):
                a = rand_hermitian(rng, dim) * scale_a
                b = rand_hermitian(rng, dim) * scale_b
                x = 3.7 * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
                obj = finder._Objective(a, b, cfg)
                parts = obj.parts(x)
                r, jac = obj.residual(x)
                ref_parts, ref_r, ref_jac = textbook_parts_and_rows(a.matrix, b.matrix, x, cfg)
                tol = 1e-12 * max(1.0, np.linalg.norm(a.matrix) * np.linalg.norm(b.matrix))
                assert r.shape == ref_r.shape and jac.shape == ref_jac.shape
                hinge_counts.add(len(r) - 2)
                assert np.max(np.abs(np.array(parts) - ref_parts)) <= tol * max(1.0, ref_parts[0])
                assert np.max(np.abs(r - ref_r)) <= tol
                assert np.max(np.abs(jac - ref_jac)) <= tol
        assert hinge_counts == {0, 1, 2}


class TestFinderConfig:
    def test_default_step_rule_is_gauss_newton(self):
        assert ul.FinderConfig().step_rule == "gauss-newton"

    @pytest.mark.parametrize("field, value", [
        ("spread_floor", float("nan")), ("spread_floor", float("inf")),
        ("penalty_weight", float("inf")), ("penalty_weight", float("nan")),
        ("converge_tol", float("nan")), ("converge_tol", float("inf")),
        ("restarts", 2.5), ("restarts", True), ("max_iters", 3.0), ("max_iters", False),
        ("seed", -1), ("seed", 1.0), ("seed", True), ("seed", "1"),
    ])
    def test_unusable_setting_rejected_by_name(self, field, value):
        with pytest.raises(ul.ValidationError, match=field):
            ul.FinderConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = ul.FinderConfig(restarts=np.int64(2), seed=np.uint32(5))
        assert (cfg.restarts, cfg.seed) == (2, 5)
        assert json.loads(json.dumps(cfg.to_json_dict()))["seed"] == 5

    def test_validation(self):
        with pytest.raises(ul.ValidationError):
            ul.FinderConfig(restarts=0)
        with pytest.raises(ul.ValidationError):
            ul.FinderConfig(step_rule="newton")
        with pytest.raises(ul.ValidationError):
            ul.FinderConfig(spread_floor=1e-7)
        with pytest.raises(ul.ValidationError):
            ul.FinderConfig(penalty_weight=0.0)


class TestFind:
    def test_gell_mann_pair_converges(self, l3, l4):
        result = ul.find(l3, l4, ul.FinderConfig(seed=7))
        assert result.converged
        assert result.objective <= 1e-10
        assert abs(ul.correlation(l3, l4, result.state)) <= 1e-10
        assert result.delta_a >= 0.1 and result.delta_b >= 0.1
        # acceptance is via classification, not via matching any particular state
        assert ul.classify(l3, l4, result.state).in_s_ab
        assert ul.verify_candidate(l3, l4, result.state)

    def test_deterministic(self, l3, l4):
        cfg = ul.FinderConfig(seed=123)
        r1 = ul.find(l3, l4, cfg)
        r2 = ul.find(l3, l4, cfg)
        assert r1.state.amps.tobytes() == r2.state.amps.tobytes()
        assert (r1.objective, r1.delta_a, r1.delta_b, r1.iterations, r1.restart_index,
                r1.converged) == (r2.objective, r2.delta_a, r2.delta_b, r2.iterations,
                                  r2.restart_index, r2.converged)

    def test_fixed_step_rule_also_converges(self, l3, l4):
        result = ul.find(l3, l4, ul.FinderConfig(seed=3, step_rule="fixed"))
        assert result.converged
        assert ul.verify_candidate(l3, l4, result.state)

    def test_fixed_rule_takes_constant_steps_along_the_gradient(self, l3, l4):
        # reference loop: x <- normalize(x - size * grad f), each step decreasing f
        cfg = ul.FinderConfig(step_rule="fixed", max_iters=20)
        size = min(0.5 / (np.linalg.norm(l3.matrix) * np.linalg.norm(l4.matrix)) ** 2,
                   0.1 / cfg.penalty_weight)
        x0 = ul.haar_state(3, np.random.default_rng((3, 0))).amps
        x = x0.copy()
        for _ in range(cfg.max_iters):
            g = ul.gradient(l3, l4, x, cfg)
            x_new = x - size * (g[:3] + 1j * g[3:])
            x_new /= np.linalg.norm(x_new)
            assert ul.objective(l3, l4, x_new, cfg) < ul.objective(l3, l4, x, cfg)
            x = x_new
        out, f, iters, ok = finder._descend(
            finder._Objective(l3, l4, cfg), x0, cfg, ul.DEFAULT_TOLERANCES
        )
        assert (iters, ok) == (cfg.max_iters, False)
        assert np.max(np.abs(out - x)) <= 1e-13
        assert f == pytest.approx(ul.objective(l3, l4, x, cfg), rel=1e-9)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_default_converges_on_every_noncommuting_gell_mann_pair(self, dim):
        basis = ul.gell_mann(dim).matrices
        pairs = [(a, b) for i, a in enumerate(basis) for b in basis[i + 1:]
                 if np.linalg.norm(a.matrix @ b.matrix - b.matrix @ a.matrix) > 1e-9]
        assert len(pairs) == {3: 25, 4: 80}[dim]
        for a, b in pairs:
            result = ul.find(a, b)
            assert result.converged
            assert ul.verify_candidate(a, b, result.state)

    def test_random_pairs_converge(self, rng):
        # failures may only ever be "not converged", never a false positive
        outcomes = []
        for d in (3, 4, 5, 6):
            for k in range(20):
                a, b = rand_hermitian(rng, d), rand_hermitian(rng, d)
                result = ul.find(a, b, ul.FinderConfig(seed=k))
                outcomes.append(result.converged)
                if result.converged:
                    assert ul.verify_candidate(a, b, result.state)
        assert sum(outcomes) >= 0.95 * len(outcomes)

    def test_dimension_two_rejected(self):
        sx, sz = pauli_pair()
        with pytest.raises(ul.DimensionTooSmall):
            ul.find(sx, sz)

    def test_commuting_pair_rejected(self, l3):
        with pytest.raises(ul.CommutingPair):
            ul.find(l3, l3)

    def test_unconverged_result_still_returned(self, l3, l4):
        result = ul.find(l3, l4, ul.FinderConfig(seed=0, restarts=1, max_iters=2))
        assert not result.converged
        assert result.objective > 0.0
        assert result.restart_index == 0

    def test_converged_restart_beats_lower_stalled_objective(self, l3, l4, monkeypatch):
        # restart 0 stalls just short of convergence with a tiny objective;
        # restart 1 converges on a true zero-correlation state
        target = ul.two_level_state(1, 1).amps
        starts = []

        def fake_descend(pair, x0, cfg, tol):
            starts.append(x0)
            if len(starts) == 1:
                return x0, 8e-26, 7, False
            return target.copy(), 1e-20, 3, True

        monkeypatch.setattr(finder, "_descend", fake_descend)
        result = ul.find(l3, l4, ul.FinderConfig(restarts=4))
        assert result.converged
        assert result.restart_index == 1
        assert len(starts) == 2
        assert np.allclose(result.state.amps, target)

    def test_restart_failing_at_reported_state_does_not_end_search(self, l3, l4, monkeypatch):
        # restart 0 claims convergence, but its normalized state fails the
        # test (as when a spread slips below the floor in renormalization);
        # the search must go on to restart 1
        target = ul.two_level_state(1, 1).amps
        calls = []

        def fake_descend(pair, x0, cfg, tol):
            calls.append(x0)
            if len(calls) == 1:
                return 2.0 * ul.uniform_superposition(3).amps, 1e-20, 5, True
            return target.copy(), 1e-20, 3, True

        monkeypatch.setattr(finder, "_descend", fake_descend)
        result = ul.find(l3, l4, ul.FinderConfig(restarts=4))
        assert result.converged
        assert result.restart_index == 1
        assert len(calls) == 2
        assert ul.verify_candidate(l3, l4, result.state)

    def test_json_round_trip(self, l3, l4):
        result = ul.find(l3, l4, ul.FinderConfig(seed=7))
        doc = json.loads(json.dumps(result.to_json_dict()))
        state = ul.state_from_json_dict(doc["state"])
        assert np.allclose(state.amps, result.state.amps)
        assert doc["converged"] is True


class TestVerifyCandidate:
    def test_accepts_two_level_state(self, l3, l4):
        assert ul.verify_candidate(l3, l4, ul.two_level_state(1, 1))

    def test_rejects_correlated_state(self, l3, l4, phi2):
        assert not ul.verify_candidate(l3, l4, phi2)  # |C| = 1/3

    def test_rejects_eigenvector(self, l3, l4):
        assert not ul.verify_candidate(l3, l4, ul.StateVector([1.0, 0.0, 0.0]))

    def test_gram_matrix_of_accepted_triple(self, l3, l4):
        phi = ul.two_level_state(1, 1)
        u_a = ul.orthogonal_unit(l3, phi)
        u_b = ul.orthogonal_unit(l4, phi)
        gram = np.array([[ul.inner(u, v) for v in (phi.amps, u_a, u_b)]
                         for u in (phi.amps, u_a, u_b)])
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-8
