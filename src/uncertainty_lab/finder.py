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

Each point costs one product with the stacked operator [I; A; B] (3d x d),
which gives V = [x; Ax; Bx]; its 3 x 3 Gram matrix gives s = <x|x>, both
means, C = <Ax|Bx>/s - <A><B> and both variances.  A step costs one more,
of the deviations u_F = (F - <F>) x, whose products give every row of J.
Each product takes at most three vectors, so no d x d matrix product is
formed.  The point a step accepts is carried into the next step, not
evaluated again.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Any

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    DimensionTooSmall,
    Observable,
    StateVector,
    Tolerances,
    ValidationError,
    _as_complex_array,
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
        for name, low in (("restarts", 1), ("max_iters", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
                raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
            object.__setattr__(self, name, int(value))  # numpy integers serialize as int
        if self.step_rule not in _STEP_RULES:
            raise ValidationError(f"step_rule must be one of {_STEP_RULES}")
        for name, low in (("spread_floor", DEFAULT_TOLERANCES.eps_spread),
                          ("penalty_weight", 0.0), ("converge_tol", 0.0)):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > low):
                raise ValidationError(f"{name} must be finite and exceed {low}, got {value!r}")

    def to_json_dict(self) -> dict[str, Any]:
        return dict(vars(self))


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
        return {**vars(self), "state": state_to_json_dict(self.state)}


# One evaluation at phi = x/||x||: the parts, V = [x; Ax; Bx] and what its
# 3 x 3 Gram matrix gives (s = <x|x>, both means, C and both variances).
_Point = namedtuple("_Point", "parts v s mean_a mean_b c var_a var_b")


class _Objective:
    """f(x), its parts, residual and gradient from products with the stacked [I; A; B].

    Not read from the checked per-state record ``_StateMoments``: with its
    state validation and cross-checks an evaluation measured ~5x dearer,
    and the median find-sweep op took ~2.2x as long.
    """

    def __init__(self, a: Observable, b: Observable, cfg: FinderConfig):
        _check_same_dim(a.dim, b.dim)
        self.a = a.matrix
        self.b = b.matrix
        # [I; A; B]^T, stored contiguous: every product is rows times it
        self.ops_t = np.concatenate((np.eye(a.dim, dtype=complex), a.matrix.T, b.matrix.T), 1)
        self.floor = cfg.spread_floor
        self.weight = cfg.penalty_weight

    def _point(self, x: np.ndarray) -> _Point:
        """The point record at x, from one product V = [x; Ax; Bx] and its Gram <V_i|V_j>."""
        v = (x @ self.ops_t).reshape(3, -1)
        (s, xa, xb), (_, aa, ab), (_, _, bb) = (v.conj() @ v.T).tolist()
        s = s.real
        if s == 0.0:
            raise ValidationError("objective and gradient are undefined at the zero vector")
        mean_a, mean_b = xa.real / s, xb.real / s
        c = ab / s - mean_a * mean_b
        var_a = max(aa.real / s - mean_a**2, 0.0)
        var_b = max(bb.real / s - mean_b**2, 0.0)
        d_a, d_b = math.sqrt(var_a), math.sqrt(var_b)
        hinges = max(self.floor - d_a, 0.0) ** 2 + max(self.floor - d_b, 0.0) ** 2
        f = abs(c) ** 2 + self.weight * hinges
        return _Point((f, abs(c), d_a, d_b), v, s, mean_a, mean_b, c, var_a, var_b)

    def _rows(self, p: _Point) -> tuple[np.ndarray, np.ndarray]:
        """Residual r and the complex rows w_j of its Jacobian, k <= 4.

        r = [Re C, Im C, sqrt(w) h_A, sqrt(w) h_B], with a hinge row only
        while its hinge is active.  By Wirtinger calculus, row j of the real
        Jacobian in the coordinates (re x, im x) is (Re w_j, Im w_j) for
        w_j = 2 dr_j/dxbar.  With u_F = (F - <F>) x,

            s w_ReC = (A - <A>) u_B + (B - <B>) u_A - 2 Re C x,
            s w_ImC = i ((B - <B>) u_A - (A - <A>) u_B) - 2 Im C x,
            s w_hF  = -sqrt(w)/dF ((F - <F>) u_F - Var_F x),

        so every row is a fixed combination of the nine vectors that one
        product of [x; u_A; u_B] with [I; A; B]^T gives.
        """
        ma, mb, c = p.mean_a, p.mean_b, p.c
        _, _, d_a, d_b = p.parts
        x = p.v[0]
        # rows x, Ax, Bx, u_A, A u_A, B u_A, u_B, A u_B, B u_B
        z = ((p.v - np.array([[0.0], [ma], [mb]]) * x) @ self.ops_t).reshape(9, -1)
        r = [c.real, c.imag]
        coef = [[-2.0 * c.real, 0, 0, -mb, 0, 1, -ma, 1, 0],
                [-2.0 * c.imag, 0, 0, -1j * mb, 0, 1j, 1j * ma, -1j, 0]]
        root_w = math.sqrt(self.weight)
        for d_f, row in ((d_a, (-p.var_a, 0, 0, -ma, 1, 0, 0, 0, 0)),
                         (d_b, (-p.var_b, 0, 0, 0, 0, 0, -mb, 0, 1))):
            if self.floor - d_f > 0.0:
                r.append(root_w * (self.floor - d_f))
                # dF is not differentiable at zero; its row is zero there
                k = -root_w / d_f if d_f > 1e-30 else 0.0
                coef.append([k * e for e in row])
        return np.array(r), (np.array(coef) @ z) / p.s

    def parts(self, x: np.ndarray) -> _Parts:
        """(objective, |C|, dA, dB) in one pass."""
        return self._point(x).parts

    def residual(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residual r with f = ||r||^2 and its k x 2d real Jacobian, k <= 4."""
        r, w = self._rows(self._point(x))
        return r, np.concatenate((w.real, w.imag), axis=1)

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


def _vector(a: Observable, x: Any) -> np.ndarray:
    vec = _as_complex_array(x, 1)
    _check_same_dim(a.dim, vec.shape[0])
    return vec


def objective(
    a: Observable, b: Observable, x: Any, cfg: FinderConfig | None = None
) -> float:
    """Penalized squared-correlation objective at the normalization of x."""
    return _Objective(a, b, cfg or FinderConfig()).parts(_vector(a, x))[0]


def gradient(
    a: Observable, b: Observable, x: Any, cfg: FinderConfig | None = None
) -> np.ndarray:
    """Analytic gradient of ``objective`` with respect to (re x, im x).

    Returned as a real vector of length 2d: the first d entries differentiate
    with respect to the real parts of x, the last d with respect to the
    imaginary parts.
    """
    return _Objective(a, b, cfg or FinderConfig()).grad(_vector(a, x))


def _gauss_newton_step(obj: _Objective, p: _Point) -> _Point | None:
    """Minimum-norm step dx = -J^T (J J^T)^-1 r, halved to sufficient decrease.

    In complex form J J^T = Re(conj(W) W^T) for the rows W of ``_rows``, at
    most 4 x 4, and J^T y = y W; lstsq on the real J takes over only when
    J J^T is singular.  A trial step t dx is taken once
    f(x + t dx) < f + c t f'(x; dx), where the directional derivative
    f'(x; dx) = 2 r.(J dx), with J dx = Re(conj(W) dx), is -2f whenever
    J dx = -r.  Returns the point at the normalized new x, or None when no
    step down to t = 2^-(_GN_HALVINGS - 1) passes the test.
    """
    r, w = obj._rows(p)
    wc = w.conj()
    try:
        dx = -(np.linalg.solve((wc @ w.T).real, r) @ w)
    except np.linalg.LinAlgError:
        dxr = np.linalg.lstsq(np.concatenate((w.real, w.imag), axis=1), r, rcond=None)[0]
        dx = -(dxr[: w.shape[1]] + 1j * dxr[w.shape[1]:])
    slope = 2.0 * float(r @ (wc @ dx).real)
    if not slope < 0.0:
        return None
    f, x = p.parts[0], p.v[0]
    for _ in range(_GN_HALVINGS):
        trial = _normalized(obj, x + dx)
        if trial.parts[0] < f + _ARMIJO_C * slope:
            return trial
        # halve t: f'(x; t dx) = t f'(x; dx)
        dx, slope = 0.5 * dx, 0.5 * slope
    return None


def _fixed_step(obj: _Objective, p: _Point, size: float) -> _Point | None:
    """One step of constant length along -grad f = -2 r W; None when f does not decrease."""
    r, w = obj._rows(p)
    trial = _normalized(obj, p.v[0] - (2.0 * size) * (r @ w))
    return trial if trial.parts[0] < p.parts[0] else None


def _normalized(obj: _Objective, x: np.ndarray) -> _Point:
    """The point at x / ||x||."""
    return obj._point(x / math.sqrt(np.vdot(x, x).real))


def _descend(
    obj: _Objective, x0: np.ndarray, cfg: FinderConfig, tol: Tolerances
) -> tuple[np.ndarray, float, int, bool]:
    """Minimize from one start; returns (x, objective, iterations, converged).

    Every accepted point is renormalized, purely for conditioning, and its
    record is carried into the next step, so no point is evaluated twice.
    """
    step = partial(_gauss_newton_step, obj)
    if cfg.step_rule == "fixed":
        # Conservative constant step scaled to the curvature of |C|^2 and
        # of the penalty term.
        scale = (np.linalg.norm(obj.a) * np.linalg.norm(obj.b)) ** 2
        step = partial(_fixed_step, obj, size=min(0.5 / max(scale, 1e-30), 0.1 / obj.weight))
    p = obj._point(x0)
    it, ok = 0, _converged(p.parts, cfg, tol)
    while not ok and it < cfg.max_iters:
        accepted = step(p)
        if accepted is None:
            break
        p, it, ok = accepted, it + 1, _converged(accepted.parts, cfg, tol)
    return p.v[0], p.parts[0], it, ok


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
    return FinderResult(state=state, objective=f_final, delta_a=d_a, delta_b=d_b,
                        iterations=iters, restart_index=restart, converged=converged)


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
