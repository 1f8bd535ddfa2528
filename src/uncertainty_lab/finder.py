"""Numerical search for states where the correlation of a pair vanishes.

For a non-commuting pair (A, B) in dimension d >= 3 the search looks for a
normalized state phi with C_phi(A,B) = 0 while both spreads stay above a
floor, i.e. a state whose two deviation vectors are nonzero and mutually
orthogonal.  Such states make the lower bound on dA * dB exactly zero; they
do not exist in dimension 2, where the orthogonal complement of phi is a
single ray.

The search minimizes

    f(x) = |C_phi(A,B)|^2
         + w * (hinge(floor - dA)^2 + hinge(floor - dB)^2),   phi = x / ||x||

over raw complex coordinates x.  f is invariant under scaling and global
phase of x, so the unconstrained landscape is benign; x is renormalized after
every accepted step purely for conditioning.  The penalty (rather than a
barrier) keeps f finite at random starts that violate the floor.  Convergence
is declared on the objective value together with the zero-correlation test
|C| <= tol_zero -- the target value is known to be zero, which is stronger
information than stationarity.

f = ||r||^2 for the residual r = [Re C, Im C, sqrt(w) h_A, sqrt(w) h_B] (a
hinge row only while its hinge is active), which has 2 to 4 rows against 2d
real unknowns.  The default step rule, "gauss-newton", takes the
minimum-norm Gauss-Newton step dx = -J^T (J J^T)^-1 r of this
underdetermined system, halved until f meets the sufficient-decrease test
f(x + t dx) < f + c t f'(x; dx); it converges quadratically near a zero of
r, typically in 3 to 5 steps.  The rule "fixed" takes a constant step along
the gradient 2 J^T r instead.

With s = <x|x>, u_F = (F - <F>)|x> and means taken at phi, every term comes
from A|x>, B|x> and the deviation vectors, so no matrix product is formed:

    C = <Ax|Bx>/s - <A><B>,
    dC/dxbar = ((A - <A>) u_B - C x) / s,
    dVar_F/dxbar = ((F - <F>) u_F - Var_F x) / s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    DimensionTooSmall,
    Observable,
    StateVector,
    Tolerances,
    ValidationError,
    _check_same_dim,
    haar_state,
    state_to_json_dict,
)
from .moments import _require_noncommuting, _StateMoments

__all__ = ["FinderConfig", "FinderResult", "find", "gradient", "objective", "verify_candidate"]

_STEP_RULES = ("gauss-newton", "fixed")
# sufficient-decrease constant c of the Gauss-Newton halving
_ARMIJO_C = 1e-4
# A Gauss-Newton step that needs t < 2^-9 has left the region where r is
# near linear, as on pairs whose spread floor is barely reachable; the
# restart ends there rather than creeping on.  In a 2160-find stress set
# this cut failed restarts from 25 to 9 iterations at the median, and the
# same restarts converged.
_GN_HALVINGS = 10
_GRAM_TOL = 1e-8
# (objective, |C|, dA, dB) at one point
_Parts = tuple[float, float, float, float]


@dataclass(frozen=True)
class FinderConfig:
    restarts: int = 32
    max_iters: int = 2000
    step_rule: str = "gauss-newton"
    spread_floor: float = 0.1
    penalty_weight: float = 10.0
    converge_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.max_iters < 1:
            raise ValidationError("restarts and max_iters must be positive")
        if self.step_rule not in _STEP_RULES:
            raise ValidationError(f"step_rule must be one of {_STEP_RULES}")
        if self.spread_floor <= DEFAULT_TOLERANCES.eps_spread:
            raise ValidationError("spread_floor must exceed eps_spread")
        if self.penalty_weight <= 0.0 or self.converge_tol <= 0.0:
            raise ValidationError("penalty_weight and converge_tol must be positive")

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "restarts": self.restarts,
            "max_iters": self.max_iters,
            "step_rule": self.step_rule,
            "spread_floor": self.spread_floor,
            "penalty_weight": self.penalty_weight,
            "converge_tol": self.converge_tol,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class FinderResult:
    state: StateVector
    objective: float
    delta_a: float
    delta_b: float
    iterations: int
    restart_index: int
    converged: bool

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "state": state_to_json_dict(self.state),
            "objective": self.objective,
            "delta_a": self.delta_a,
            "delta_b": self.delta_b,
            "iterations": self.iterations,
            "restart_index": self.restart_index,
            "converged": self.converged,
        }


class _Objective:
    """f(x), its parts, residual and gradient from A|x>, B|x> and the deviation vectors.

    Reads the pair's matrices directly rather than the checked per-state
    record ``_StateMoments``: a value evaluation read from the record (state
    validation and cross-checks included) measured ~5x dearer (83 vs 17 us
    at d=3), step trials are most of a search's evaluations, and the
    median find-sweep op took ~2.2x as long with it.
    """

    def __init__(self, a: Observable, b: Observable, cfg: FinderConfig):
        _check_same_dim(a.dim, b.dim)
        self.a = a.matrix
        self.b = b.matrix
        self.floor = cfg.spread_floor
        self.weight = cfg.penalty_weight

    def _moments(self, x: np.ndarray):
        """Normalization, A|x>, B|x>, means, correlation and variances at phi = x/||x||."""
        s = np.vdot(x, x).real
        if s == 0.0:
            raise ValidationError("objective and gradient are undefined at the zero vector")
        ax = self.a @ x
        bx = self.b @ x
        mean_a = np.vdot(x, ax).real / s
        mean_b = np.vdot(x, bx).real / s
        c = np.vdot(ax, bx) / s - mean_a * mean_b
        var_a = max(np.vdot(ax, ax).real / s - mean_a**2, 0.0)
        var_b = max(np.vdot(bx, bx).real / s - mean_b**2, 0.0)
        return s, ax, bx, mean_a, mean_b, c, var_a, var_b

    def parts(self, x: np.ndarray) -> _Parts:
        """(objective, |C|, dA, dB) in one pass."""
        _, _, _, _, _, c, var_a, var_b = self._moments(x)
        d_a, d_b = float(np.sqrt(var_a)), float(np.sqrt(var_b))
        h_a = max(self.floor - d_a, 0.0)
        h_b = max(self.floor - d_b, 0.0)
        f = float(abs(c) ** 2 + self.weight * (h_a**2 + h_b**2))
        return f, float(abs(c)), d_a, d_b

    def residual(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residual r with f = ||r||^2 and its k x 2d real Jacobian, k <= 4.

        r = [Re C, Im C, sqrt(w) h_A, sqrt(w) h_B], with a hinge row only
        while its hinge is active.  By Wirtinger calculus, row j of the
        Jacobian in the coordinates (re x, im x) is (2 Re v_j, 2 Im v_j) for
        v_j = dr_j/dxbar.
        """
        s, ax, bx, mean_a, mean_b, c, var_a, var_b = self._moments(x)
        u_a, u_b = ax - mean_a * x, bx - mean_b * x
        d_c = (self.a @ u_b - mean_a * u_b - c * x) / s
        d_cbar = (self.b @ u_a - mean_b * u_a - np.conj(c) * x) / s
        root_w = np.sqrt(self.weight)
        r = [c.real, c.imag]
        # the rows are 2 v_j: 2 d(Re C)/dxbar = d_c + d_cbar,
        # 2 d(Im C)/dxbar = (d_c - d_cbar)/i and
        # 2 d(sqrt(w) h_F)/dxbar = -sqrt(w)/(dF s) ((F - <F>) u_F - Var_F x)
        v2 = [d_c + d_cbar, (d_cbar - d_c) * 1j]
        for mat, mean, u, var in ((self.a, mean_a, u_a, var_a), (self.b, mean_b, u_b, var_b)):
            d = np.sqrt(var)
            h = self.floor - d
            if h > 0.0:
                r.append(root_w * h)
                # dF is not differentiable at zero; its row is zero there
                v2.append(-(root_w / (d * s)) * (mat @ u - mean * u - var * x)
                          if d > 1e-30 else np.zeros_like(x))
        rows = np.array(v2)
        return np.array(r), np.concatenate((rows.real, rows.imag), axis=1)

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Gradient 2 J^T r of the objective in the 2d real coordinates (re x, im x)."""
        r, jac = self.residual(x)
        return 2.0 * (r @ jac)


def _converged(parts: _Parts, cfg: FinderConfig, tol: Tolerances) -> bool:
    """Objective at the tolerance, |C| at tol_zero and both spreads at the floor."""
    f, c_mod, d_a, d_b = parts
    return (
        f <= cfg.converge_tol
        and c_mod <= tol.tol_zero
        and d_a >= cfg.spread_floor
        and d_b >= cfg.spread_floor
    )


def objective(
    a: Observable, b: Observable, x: Any, cfg: FinderConfig | None = None
) -> float:
    """Penalized squared-correlation objective at the normalization of x."""
    vec = np.asarray(x, dtype=np.complex128)
    return _Objective(a, b, cfg or FinderConfig()).parts(vec)[0]


def gradient(
    a: Observable, b: Observable, x: Any, cfg: FinderConfig | None = None
) -> np.ndarray:
    """Analytic gradient of ``objective`` with respect to (re x, im x).

    Returned as a real vector of length 2d: the first d entries differentiate
    with respect to the real parts of x, the last d with respect to the
    imaginary parts.
    """
    vec = np.asarray(x, dtype=np.complex128)
    return _Objective(a, b, cfg or FinderConfig()).grad(vec)


def _to_complex(xr: np.ndarray, d: int) -> np.ndarray:
    return xr[:d] + 1j * xr[d:]


def _gauss_newton_step(
    obj: _Objective, x: np.ndarray, f: float
) -> tuple[np.ndarray, _Parts] | None:
    """Minimum-norm step dx = -J^T (J J^T)^-1 r, halved to sufficient decrease.

    J J^T is at most 4 x 4; lstsq takes over only when it is singular.  A
    trial step t dx is taken once f(x + t dx) < f + c t f'(x; dx), where the
    directional derivative f'(x; dx) = 2 r.(J dx) is -2f whenever J dx = -r.
    Returns the normalized new point with its parts, or None when no step
    down to t = 2^-(_GN_HALVINGS - 1) passes the test.
    """
    r, jac = obj.residual(x)
    try:
        dxr = -jac.T @ np.linalg.solve(jac @ jac.T, r)
    except np.linalg.LinAlgError:
        dxr = -np.linalg.lstsq(jac, r, rcond=None)[0]
    slope = 2.0 * float(r @ (jac @ dxr))
    if not slope < 0.0:
        return None
    dx = _to_complex(dxr, x.shape[0])
    t = 1.0
    for _ in range(_GN_HALVINGS):
        accepted = _normalized(obj, x + t * dx)
        if accepted[1][0] < f + _ARMIJO_C * t * slope:
            return accepted
        t *= 0.5
    return None


def _fixed_step(
    obj: _Objective, x: np.ndarray, f: float, size: float
) -> tuple[np.ndarray, _Parts] | None:
    """One step of constant length along -grad f; None when f does not decrease."""
    accepted = _normalized(obj, x - size * _to_complex(obj.grad(x), x.shape[0]))
    return accepted if accepted[1][0] < f else None


def _normalized(obj: _Objective, x: np.ndarray) -> tuple[np.ndarray, _Parts]:
    """x / ||x|| with its parts."""
    x = x / np.linalg.norm(x)
    return x, obj.parts(x)


def _descend(
    obj: _Objective, x0: np.ndarray, cfg: FinderConfig, tol: Tolerances
) -> tuple[np.ndarray, float, int, bool]:
    """Minimize from one start; returns (x, objective, iterations, converged).

    Every accepted point is renormalized, purely for conditioning.
    """
    x = x0.copy()
    if cfg.step_rule == "fixed":
        # Conservative constant step scaled to the curvature of |C|^2 and
        # of the penalty term.
        scale = (np.linalg.norm(obj.a) * np.linalg.norm(obj.b)) ** 2
        size = min(0.5 / max(scale, 1e-30), 0.1 / obj.weight)
    parts = obj.parts(x)
    for it in range(cfg.max_iters):
        f = parts[0]
        if _converged(parts, cfg, tol):
            return x, f, it, True
        if cfg.step_rule == "fixed":
            accepted = _fixed_step(obj, x, f, size)
        else:
            accepted = _gauss_newton_step(obj, x, f)
        if accepted is None:
            return x, f, it, False
        x, parts = accepted
    return x, parts[0], cfg.max_iters, _converged(parts, cfg, tol)


def find(
    a: Observable,
    b: Observable,
    cfg: FinderConfig | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> FinderResult:
    """Search for a zero-correlation state of a non-commuting pair.

    Restarts draw Haar-random initial states from RNG substreams keyed by
    (seed, restart_index), are tried in order, and the search stops at and
    returns the first converged restart, even when an earlier stalled restart
    reached a lower objective; otherwise the best final objective wins, ties
    broken by lower restart index.  The whole procedure is deterministic for
    a fixed config.  A failed search still returns the best candidate, with
    ``converged`` False.
    """
    cfg = cfg or FinderConfig()
    obj = _Objective(a, b, cfg)
    if a.dim < 3:
        raise DimensionTooSmall(
            "zero-correlation states with nonzero spreads need dimension >= 3; "
            f"got dimension {a.dim}"
        )
    _require_noncommuting(a, b, tol)
    best: tuple[float, int, StateVector, _Parts, int, bool] | None = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng((cfg.seed, restart))
        x0 = haar_state(a.dim, rng).amps
        x, f, iters, ok = _descend(obj, x0, cfg, tol)
        # Judge the restart at the exact state it would report, so the
        # converged flag and the reported fields cannot disagree by
        # renormalization roundoff, and a restart whose spread slips below
        # the floor in that roundoff does not end the search.
        state = StateVector.normalized(x)
        parts = obj.parts(state.amps)
        ok = ok and _converged(parts, cfg, tol)
        if ok or best is None or f < best[0]:
            best = (f, restart, state, parts, iters, ok)
        if ok:
            break
    assert best is not None
    _, restart, state, (f_final, _, d_a, d_b), iters, converged = best
    return FinderResult(
        state=state,
        objective=f_final,
        delta_a=d_a,
        delta_b=d_b,
        iterations=iters,
        restart_index=restart,
        converged=converged,
    )


def verify_candidate(
    a: Observable,
    b: Observable,
    state: StateVector,
    tol: Tolerances = DEFAULT_TOLERANCES,
    spread_floor: float = 0.1,
) -> bool:
    """Independent acceptance check for a candidate zero-correlation state.

    Recomputes the correlation through both of its defining forms and
    cross-checks them, requires |C| <= tol_zero and both spreads at or above
    the floor, and checks that the state and its two normalized deviation
    directions form an orthonormal triple.
    """
    m = _StateMoments(a, b, state, tol)
    if abs(m.c) > tol.tol_zero:
        return False
    if m.a.spread < spread_floor or m.b.spread < spread_floor or not m.spreads_ok:
        return False
    triple = (state.amps, m.a.vec / m.a.norm, m.b.vec / m.b.norm)
    gram = np.array([[np.vdot(u, v) for v in triple] for u in triple])
    return bool(np.max(np.abs(gram - np.eye(3))) <= _GRAM_TOL)
