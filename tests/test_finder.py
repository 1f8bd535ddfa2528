import json
import re
import warnings

import numpy as np
import pytest

import uncertainty_lab as ul
from uncertainty_lab import finder
from helpers import oracle_corr, pauli_pair, rand_hermitian


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
        assert val == pytest.approx(cfg.spread_floor**2, abs=1e-12)

    def test_scale_and_phase_invariant(self, rng, l3, l4):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        base = ul.objective(l3, l4, x)
        assert ul.objective(l3, l4, 3.7 * x) == pytest.approx(base, rel=1e-12)
        assert ul.objective(l3, l4, np.exp(0.9j) * x) == pytest.approx(base, rel=1e-12)

    def test_zero_vector_rejected(self, l3, l4):
        with pytest.raises(ul.ValidationError):
            ul.objective(l3, l4, np.zeros(3, dtype=complex))

    @pytest.mark.parametrize("pair", ["lambda3/lambda4", "d=8"])
    def test_exact_at_every_power_of_two_scale(self, l3, l4, pair):
        if pair == "d=8":
            rng = np.random.default_rng(2028)
            a, b = rand_hermitian(rng, 8), rand_hermitian(rng, 8)
            x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        else:
            a, b, x = l3, l4, np.array([1.0, 0.5, 0.2j])
        value, grad = ul.objective(a, b, x), ul.gradient(a, b, x)
        for j in (-1000, -540, -200, -1, 1, 200, 540, 1000):
            scaled = np.ldexp(x.view(np.float64), j).view(np.complex128)
            assert np.float64(ul.objective(a, b, scaled)).tobytes() == np.float64(value).tobytes()
            assert np.ldexp(ul.gradient(a, b, scaled), j).tobytes() == grad.tobytes()

    def test_finite_at_extreme_scales(self, l3, l4):
        # at 1e-170 x the norm of x underflowed to zero, at 1e160 x its products overflowed
        x = np.array([1.0, 0.5, 0.2j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (1e-170, 1e160):
                assert ul.objective(l3, l4, s * x) == pytest.approx(ul.objective(l3, l4, x),
                                                                    rel=1e-12)
                assert np.isfinite(ul.gradient(l3, l4, s * x)).all()
            for fn in (ul.objective, ul.gradient):
                with pytest.raises(ul.ValidationError, match="undefined at the zero vector"):
                    fn(l3, l4, np.zeros(3, dtype=complex))

    @pytest.mark.parametrize("fn", [ul.objective, ul.gradient])
    @pytest.mark.parametrize("huge", ["A", "B", "AB"])
    def test_pair_past_the_float_range_refused_by_name(self, l3, l4, fn, huge):
        # before the check: a matmul overflow warning, then a bare OverflowError
        a = 1e155 * l3 if "A" in huge else l3
        b = 1e155 * l4 if "B" in huge else l4
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=rf"^\|\|{huge[0]}\|\|_F\^2 ~ 10\^310"):
                fn(a, b, np.ones(3, dtype=complex))

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
    for f, u, mean, var, d in ((a, u_a, mean_a, var_a, d_a), (b, u_b, mean_b, var_b, d_b)):
        if d < cfg.spread_floor:
            r.append(cfg.spread_floor - d)
            rows.append(-1.0 / (d * s) * (f @ u - mean * u - var * x))
    hinges = sum(max(cfg.spread_floor - d, 0.0) ** 2 for d in (d_a, d_b))
    parts = (abs(c) ** 2 + hinges, abs(c), d_a, d_b)
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


class _GivenRows:
    """Stand-in objective for one Gauss-Newton step: its residual and rows are
    given, and every trial point is recorded and accepted (objective 0)."""

    def __init__(self, r, w):
        self.r, self.w, self.trials = np.asarray(r, dtype=float), w, []

    def _rows(self, p):
        return self.r, self.w

    def _point(self, x):
        self.trials.append(x.copy())
        return finder._Point((0.0, 0.0, 1.0, 1.0), None, 1.0, 0.0, 0.0, 0j, 1.0, 1.0)


def _step_from_zero(r, w):
    """The step dx that ``_gauss_newton_step`` tries first from x = 0, unnormalized, or None."""
    # with x = 0 the first trial point is dx itself: only ``_point`` normalizes
    obj = _GivenRows(r, w)
    start = finder._Point((1.0, 0.0, 1.0, 1.0), np.zeros((3, w.shape[1]), complex),
                          1.0, 0.0, 0.0, 0j, 1.0, 1.0)
    accepted = finder._gauss_newton_step(obj, start)
    assert (accepted is None) == (not obj.trials)
    return obj.trials[0] if obj.trials else None


class TestGaussNewtonSolve:
    @pytest.fixture
    def lstsq_calls(self, monkeypatch):
        calls, lstsq = [], np.linalg.lstsq

        def spy(*args, **kwargs):
            calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        return calls

    @pytest.mark.parametrize("dim", [3, 8, 64])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_step_matches_linalg_solve(self, dim, k, lstsq_calls):
        # k = 2 is the closed form, k = 3, 4 np.linalg.solve itself
        rng = np.random.default_rng(1400 + 10 * dim + k)
        for _ in range(25):
            w = rng.standard_normal((k, dim)) + 1j * rng.standard_normal((k, dim))
            w[1] *= 10.0 ** rng.uniform(-3, 3)
            r = rng.standard_normal(k)
            # the real Jacobian in (re x, im x) order, as ``residual`` returns it
            jac = np.concatenate((w.real, w.imag), axis=1)
            ref = -(np.linalg.solve(jac @ jac.T, r) @ jac)
            ref = ref[:dim] + 1j * ref[dim:]
            dx = _step_from_zero(r, w)
            assert np.max(np.abs(dx - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert not lstsq_calls

    @pytest.mark.parametrize("second, r, descends", [
        (0.0, (0.3, -1.2), True),   # zero row: det = 0
        (2.0, (0.3, -1.2), True),   # parallel rows: det = 0
        (0.0, (0.0, 1.0), False),   # r orthogonal to the range of J: no descent
    ])
    def test_singular_two_row_gram_takes_lstsq(self, lstsq_calls, second, r, descends):
        rng = np.random.default_rng(1414)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        w = np.array([v, second * v])
        jac = w.view(np.float64)
        (g00, g01), (_, g11) = (jac @ jac.T).tolist()
        assert g00 * g11 - g01 * g01 <= 0.0
        dx = _step_from_zero(r, w)
        assert len(lstsq_calls) == 1
        if descends:
            # slope 2 r.(J dx) < 0: a descent direction for f = ||r||^2
            assert float(np.dot(r, jac @ dx.view(np.float64))) < 0.0
        else:
            assert dx is None


def _recording_points(obj):
    """Make obj record every point record its ``_point`` returns; returns the list."""
    records, point = [], obj._point

    def recording(x):
        records.append(point(x))
        return records[-1]

    obj._point = recording
    return records


class TestGaussNewtonStep:
    @pytest.mark.parametrize("dim", [3, 8, 64])
    @pytest.mark.parametrize("hinges", [0, 1, 2])
    def test_first_trial_is_the_normalized_pseudoinverse_step(self, dim, hinges):
        # one whole step on a real objective from an unnormalized x: its first
        # trial is normalize(x - J^+ r), with J^+ r from lstsq on the textbook
        # Jacobian, and the step returns that trial whenever it is accepted
        rng = np.random.default_rng(2700 + 10 * dim + hinges)
        accepted_first = 0
        for _ in range(8):
            a, b = rand_hermitian(rng, dim), rand_hermitian(rng, dim)
            x = 3.7 * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            phi = ul.StateVector.normalized(x)
            d_a, d_b = ul.std_dev(a, phi), ul.std_dev(b, phi)
            cfg = ul.FinderConfig(spread_floor=(0.1, (d_a + d_b) / 2, 2.0 * max(d_a, d_b))[hinges])
            _, r, jac = textbook_parts_and_rows(a.matrix, b.matrix, x, cfg)
            assert len(r) == 2 + hinges
            step = np.linalg.lstsq(jac, r, rcond=None)[0]
            y = x - (step[:dim] + 1j * step[dim:])
            obj = finder._Objective(a, b, cfg)
            start = obj._point(x)
            trials = _recording_points(obj)
            accepted = finder._gauss_newton_step(obj, start)
            first = trials[0].v[0]
            assert np.linalg.norm(first - y / np.linalg.norm(y)) <= 1e-10 * np.linalg.norm(first)
            accepted_first += accepted is trials[0]
        assert accepted_first >= 4

    def test_no_point_is_evaluated_twice(self, l3, l4, monkeypatch):
        # _descend's promise: one _point call per start (P after D) and per
        # trial (P after R), one _rows call (R) per step (S), on the point
        # the start or the last step gave, and the trials at x + 2^-i dx
        log = []

        def logged(kind, fn):
            def wrapper(*args):
                log.append([kind, args[-1], None])
                entry = log[-1]
                entry[2] = fn(*args)
                return entry[2]
            return wrapper

        monkeypatch.setattr(finder._Objective, "_point", logged("P", finder._Objective._point))
        monkeypatch.setattr(finder._Objective, "_rows", logged("R", finder._Objective._rows))
        monkeypatch.setattr(finder, "_gauss_newton_step", logged("S", finder._gauss_newton_step))
        monkeypatch.setattr(finder, "_descend", logged("D", finder._descend))
        rng = np.random.default_rng(2800)
        pairs = [(l3, l4)] * 4 + [(rand_hermitian(rng, 8), rand_hermitian(rng, 8)) for _ in range(4)]
        for seed, (a, b) in enumerate(pairs):
            assert ul.find(a, b, ul.FinderConfig(seed=seed)).converged
        kinds = "".join(kind for kind, _, _ in log)
        assert re.fullmatch(r"(DP(SRP{0,%d})*)+" % finder._GN_HALVINGS, kinds), kinds
        assert kinds.count("S") >= 2 * len(pairs)
        for i in (i for i, kind in enumerate(kinds) if kind == "S"):
            p, accepted = log[i][1], log[i][2]
            assert p is log[i - 1][2] and log[i + 1][1] is p
            trials = log[i + 2:i + 2 + len(re.match("P*", kinds[i + 2:])[0])]
            moves = [y - p.v[0] for _, y, _ in trials]
            for move, half in zip(moves, moves[1:]):
                assert np.allclose(half, move / 2.0, rtol=1e-9, atol=1e-12)
            if accepted is None:  # no descent direction, or no trial passed
                assert len(trials) in (0, finder._GN_HALVINGS)
            else:
                assert trials and accepted is trials[-1][2]


class TestFinderConfig:
    @pytest.mark.parametrize("field, value", [
        ("spread_floor", float("nan")), ("spread_floor", float("inf")),
        ("spread_floor", True), ("spread_floor", "0.2"), ("spread_floor", None),
        ("restarts", 2.5), ("restarts", True), ("max_iters", 3.0), ("max_iters", False),
        ("seed", -1), ("seed", 1.0), ("seed", True), ("seed", "1"),
        pytest.param("spread_floor", 10**400, id="spread_floor-10**400"),
    ])
    def test_unusable_setting_rejected_by_name(self, field, value):
        with pytest.raises(ul.ValidationError, match=field):
            ul.FinderConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = ul.FinderConfig(restarts=np.int64(2), seed=np.uint32(5))
        assert (cfg.restarts, cfg.seed) == (2, 5)
        assert json.loads(json.dumps(cfg.to_json_dict()))["seed"] == 5

    @pytest.mark.parametrize("value", [1, np.float32(0.25), np.int64(2)])
    def test_spread_floor_stored_as_float(self, value):
        cfg = ul.FinderConfig(spread_floor=value)
        assert type(cfg.spread_floor) is float and cfg.spread_floor == float(value)

    def test_validation(self):
        with pytest.raises(ul.ValidationError):
            ul.FinderConfig(restarts=0)
        with pytest.raises(TypeError):
            ul.FinderConfig(step_rule="gauss-newton")
        with pytest.raises(TypeError):
            ul.FinderConfig(penalty_weight=1.0)
        with pytest.raises(TypeError):
            ul.FinderConfig(converge_tol=1.0)
        with pytest.raises(ul.ValidationError):
            ul.FinderConfig(spread_floor=1e-7)


def found_state_pairs():
    """Every 5th non-commuting Gell-Mann pair at d = 3, 4 and every 4th of 12
    seeded random pairs at each of d = 3..64."""
    pairs = []
    for dim in (3, 4):
        basis = ul.gell_mann(dim).matrices
        pairs += [(a, b) for i, a in enumerate(basis) for b in basis[i + 1:]
                  if np.linalg.norm(a.matrix @ b.matrix - b.matrix @ a.matrix) > 1e-9]
    pairs = pairs[::5]
    rng = np.random.default_rng(5)
    for d in (3, 4, 8, 16, 64):
        pairs += [(rand_hermitian(rng, d), rand_hermitian(rng, d)) for _ in range(12)][::4]
    assert len(pairs) == 21 + 15
    return pairs


def as_complex(x):
    half = len(x) // 2
    return x[:half] + 1j * x[half:]


def tangent_jacobian(mat_a, mat_b, phi):
    """An orthonormal basis Q of phi's orthogonal complement (no norm or phase
    direction) and the 2 x 2(d-1) Jacobian of (Re C, Im C) at phi along
    Q(s + i t): to first order dC = <delta|u> + <w|delta> with u = M phi,
    w = M^dag phi and M = AB - <B> A - <A> B."""
    a_phi, b_phi = mat_a @ phi, mat_b @ phi
    mean_a, mean_b = np.vdot(phi, a_phi).real, np.vdot(phi, b_phi).real
    shared = mean_b * a_phi + mean_a * b_phi
    u, w = mat_a @ b_phi - shared, mat_b @ a_phi - shared
    basis = np.linalg.svd(phi.conj()[None, :])[2][1:].conj().T
    p, q = basis.conj().T @ u, (basis.conj().T @ w).conj()
    dc = np.concatenate([p + q, -1j * p + 1j * q])
    return basis, np.array([dc.real, dc.imag])


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

        def fake_descend(obj, x0, cfg, tol):
            starts.append(x0)
            if len(starts) == 1:
                p = obj._point(x0)
                return p._replace(parts=(8e-26,) + p.parts[1:]), 7, False
            p = obj._point(target.copy())
            return p._replace(parts=(1e-20,) + p.parts[1:]), 3, True

        monkeypatch.setattr(finder, "_descend", fake_descend)
        result = ul.find(l3, l4, ul.FinderConfig(restarts=4))
        assert result.converged
        assert result.restart_index == 1
        assert len(starts) == 2
        assert np.allclose(result.state.amps, target)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_reports_the_point_the_search_judged(self, seed, monkeypatch):
        # the result is the chosen restart's last point, bit for bit, with
        # the parts and verdict it was judged by: nothing is re-evaluated
        basis = ul.gell_mann(3).matrices
        pairs = [(a, b) for i, a in enumerate(basis) for b in basis[i + 1:]
                 if np.linalg.norm(a.matrix @ b.matrix - b.matrix @ a.matrix) > 1e-9]
        rng = np.random.default_rng(5)
        pairs += [(rand_hermitian(rng, d), rand_hermitian(rng, d)) for d in (8, 64) for _ in range(6)]
        descend, returned = finder._descend, []

        def recording_descend(*args):
            returned.append(descend(*args))
            return returned[-1]

        monkeypatch.setattr(finder, "_descend", recording_descend)
        for a, b in pairs:
            returned.clear()
            result = ul.find(a, b, ul.FinderConfig(seed=seed))
            point, iters, ok = returned[result.restart_index]
            assert result.state.amps.tobytes() == point.v[0].tobytes()
            f, _, d_a, d_b = point.parts
            assert (result.objective, result.delta_a, result.delta_b) == (f, d_a, d_b)
            assert (result.iterations, result.converged) == (iters, ok)
            assert result.converged and ul.verify_candidate(a, b, result.state)

    def test_abstract_holds_at_found_states(self):
        # PAPER.md's abstract, at states that are not eigenstates: C = 0, every
        # lower bound on dA dB is zero, and the sum relations are Pythagorean.
        tol = ul.DEFAULT_TOLERANCES
        for a, b in found_state_pairs():
            phi = ul.find(a, b).state
            sizes = [np.linalg.norm(f.matrix @ phi.amps) for f in (a, b)]
            scale = max(1.0, sizes[0] * sizes[1])  # the scale of the checks (see moments)
            report = ul.evaluate(a, b, phi)
            bounds = (report.hr_bound, report.schrodinger_bound, report.general_bound)
            assert max(bounds) <= tol.tol_zero * scale and report.product > 0.0
            assert ul.sum_relations(a, b, phi).degenerate is ul.Degeneracy.PYTHAGORAS
            flags = ul.classify(a, b, phi)
            assert flags.in_s_ab and not (flags.eigen_a or flags.eigen_b)

    def test_s_ab_is_a_manifold_at_found_states(self):
        # The README's local dimension 2d - 4: modulo norm and phase, the
        # Jacobian of (Re C, Im C) has rank 2 at each found state (regular-value
        # theorem, Lee Thm 5.12), so a step along its null space followed by
        # Gauss-Newton steps back onto C = 0 gives a second zero-correlation
        # state, a step away from the first.
        h = 1e-2
        for a, b in found_state_pairs():
            phi = ul.find(a, b).state.amps
            basis, jac = tangent_jacobian(a.matrix, b.matrix, phi)
            _, sigma, rows = np.linalg.svd(jac)
            assert sigma[1] / sigma[0] >= 1e-3
            psi = phi + h * (basis @ as_complex(rows[2]))
            psi /= np.linalg.norm(psi)
            for _ in range(2):
                c = oracle_corr(a.matrix, b.matrix, psi)
                basis, jac = tangent_jacobian(a.matrix, b.matrix, psi)
                step = np.linalg.lstsq(jac, -np.array([c.real, c.imag]), rcond=None)[0]
                psi = psi + basis @ as_complex(step)
                psi /= np.linalg.norm(psi)
            assert ul.verify_candidate(a, b, ul.StateVector.normalized(psi))
            assert np.arccos(min(1.0, abs(np.vdot(phi, psi)))) >= h / 2  # Fubini-Study

    def test_spread_at_eps_spread_never_counts_as_converged(self, l3, l4):
        # a tol whose eps_spread exceeds the floor: find must not report a
        # state that verify_candidate (and classify) call an eigenstate
        tol = ul.Tolerances(eps_spread=0.6)
        for seed in range(8):
            result = ul.find(l3, l4, ul.FinderConfig(seed=seed), tol)
            assert result.converged
            assert min(result.delta_a, result.delta_b) > 0.6
            assert ul.verify_candidate(l3, l4, result.state, tol)

    def test_hinge_at_eps_spread_above_the_floor(self, l3, l4):
        # with eps_spread above the floor the penalty hinges at eps_spread,
        # where acceptance starts, so restarts are rarely needed
        tol = ul.Tolerances(eps_spread=0.6)
        results = [ul.find(l3, l4, ul.FinderConfig(seed=seed), tol) for seed in range(40)]
        for result in results:
            assert result.converged and ul.verify_candidate(l3, l4, result.state, tol)
        assert np.mean([result.restart_index for result in results]) <= 1.0

    def test_default_tolerances_keep_the_objective(self, rng, l3, l4):
        # FinderConfig keeps the floor above the default eps_spread
        cfg = ul.FinderConfig()
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert finder._Objective(l3, l4, cfg, ul.DEFAULT_TOLERANCES).floor == cfg.spread_floor
        assert finder._Objective(l3, l4, cfg).parts(x) == finder._Objective(
            l3, l4, cfg, ul.Tolerances(eps_spread=0.05)).parts(x)

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

    @pytest.mark.parametrize("floor", [float("nan"), float("inf"), -1.0, 0.0, 1e-6, True, "0.2",
                                       pytest.param(10**400, id="10**400")])
    def test_unusable_floor_rejected_by_name(self, l3, l4, floor):
        # the state passes every usable floor up to 1/sqrt(2): these must raise, not judge it
        with pytest.raises(ul.ValidationError, match="spread_floor"):
            ul.verify_candidate(l3, l4, ul.two_level_state(1, 1), spread_floor=floor)

    def test_gram_matrix_of_accepted_triple(self, l3, l4):
        phi = ul.two_level_state(1, 1)
        u_a = ul.orthogonal_unit(l3, phi)
        u_b = ul.orthogonal_unit(l4, phi)
        gram = np.array([[ul.inner(u, v) for v in (phi.amps, u_a, u_b)]
                         for u in (phi.amps, u_a, u_b)])
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-8
