"""Numerical search for states where the correlation of a pair vanishes.

For a non-commuting pair (A, B) in dimension d >= 3 the search looks for a
normalized state phi with C_phi(A,B) = 0 while both spreads stay above a
floor, i.e. a state whose two deviation vectors are nonzero and mutually
orthogonal.  Such states make the lower bound on dA * dB exactly zero; they
do not exist in dimension 2, where the orthogonal complement of phi is a
single ray.

The search minimizes

    f(x) = |C_phi(A,B)|^2 + hinge(floor - dA)^2 + hinge(floor - dB)^2,   phi = x / ||x||

over raw complex coordinates x.  f is invariant under scaling and global
phase of x, so the unconstrained landscape is benign; each evaluated point is
normalized purely for conditioning.  The penalty (rather than a
barrier) keeps f finite at random starts that violate the floor.  Convergence
is declared on |C| <= tol_zero with both spreads at or above the floor (and
above eps_spread), the one rule ``verify_candidate`` also applies -- the
target value is known to be zero, which is stronger information than
stationarity.  ``find`` reports the point that rule judged, as it is.

f = ||r||^2 for the residual r = [Re C, Im C, h_A, h_B] (a hinge row only
while its hinge is active): k = 2 to 4 rows against 2d real unknowns.  Each
step is the minimum-norm Gauss-Newton step dx = -J^T (J J^T)^-1 r, halved
until f(x + t dx) < f + c t f'(x; dx); it converges quadratically near a
zero of r, typically in 3 to 5 steps.  J is the real view of the complex
rows ((re, im) columns interleaved); J J^T y = r is solved on Python floats
at k = 2, else by ``np.linalg.solve``, and by lstsq when det <= 0 or it raises.

Each point costs one product with the stacked operator [I; A; B] (3d x d),
[x; Ax; Bx], kept over sqrt(s) as V = [phi; A phi; B phi]; its 3 x 3 Gram
matrix gives s = <x|x>, both means, C = <Ax|Bx>/s - <A><B> and both
variances.  A step costs one more, of the deviations u_F = (F - <F>) phi,
whose products give every row of J.  Each product takes at most three
vectors, so no d x d matrix product is formed.  The point a step accepts is
carried into the next step, not evaluated again.
"""

from __future__ import annotations

import contextlib
import math
from collections import namedtuple
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
    _as_complex_array,
    _check_int,
    _check_real,
    _check_same_dim,
    _haar_amps,
    state_to_json_dict,
)
from .moments import _c, _is_eigen, _is_zero, _require_pair, _shared, _spreads

__all__ = ["FinderConfig", "FinderResult", "find", "gradient", "objective", "verify_candidate"]

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
    spread_floor: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("restarts", 1), ("max_iters", 1), ("seed", 0)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), low))
        floor = _check_real("spread_floor", self.spread_floor, DEFAULT_TOLERANCES.eps_spread)
        object.__setattr__(self, "spread_floor", floor)

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


# One evaluation at phi = x/||x||: the parts, V = [phi; A phi; B phi] and what
# the Gram matrix of [x; Ax; Bx] gives (s = <x|x>, both means, C and both variances).
_Point = namedtuple("_Point", "parts v s mean_a mean_b c var_a var_b")


class _Objective:
    """f(x), its parts, residual and Jacobian from products with the stacked [I; A; B].

    Not read from the checked shared ``moments`` record: with its
    state validation and cross-checks an evaluation measured ~5x dearer,
    and the median find-sweep op took ~2.2x as long.
    """

    def __init__(self, a: Observable, b: Observable, cfg: FinderConfig,
                 tol: Tolerances = DEFAULT_TOLERANCES):
        _check_same_dim(a.dim, b.dim)
        # [I; A; B]^T, stored contiguous: every product is rows times it
        self.ops_t = np.concatenate((np.eye(a.dim, dtype=complex), a.matrix.T, b.matrix.T), 1)
        # a spread at or below eps_spread is never accepted, so hinge there too
        self.floor = max(cfg.spread_floor, tol.eps_spread)

    def _point(self, x: np.ndarray) -> _Point:
        """The point record at x, from one product [x; Ax; Bx] over sqrt(s) and its Gram."""
        v = (x @ self.ops_t).reshape(3, -1)
        (s, xa, xb), (_, aa, ab), (_, _, bb) = (v.conj() @ v.T).tolist()
        s = s.real
        if s == 0.0:
            raise ValidationError("objective and gradient are undefined at the zero vector")
        mean_a, mean_b = xa.real / s, xb.real / s
        c, var_a, var_b = ab / s - mean_a * mean_b, aa.real / s - mean_a**2, bb.real / s - mean_b**2
        # clamp rounding below zero (a NaN stays); ** raises OverflowError past the float range
        var_a, var_b = 0.0 if var_a < 0.0 else var_a, 0.0 if var_b < 0.0 else var_b
        d_a, d_b, c_mod = math.sqrt(var_a), math.sqrt(var_b), abs(c)
        h_a, h_b = self.floor - d_a, self.floor - d_b
        f = c_mod**2 + (0.0 if h_a < 0.0 else h_a**2) + (0.0 if h_b < 0.0 else h_b**2)
        return _Point((f, c_mod, d_a, d_b), v / math.sqrt(s), s, mean_a, mean_b, c, var_a, var_b)

    def _rows(self, p: _Point) -> tuple[list[float], np.ndarray]:
        """Residual r and the complex rows w_j of its Jacobian at phi = V_0, k <= 4.

        r = [Re C, Im C, h_A, h_B], a hinge row only while its hinge is active.
        By Wirtinger calculus, row j of the real Jacobian in (re x, im x) is
        (Re w_j, Im w_j) for w_j = 2 dr_j/dxbar.  With u_F = (F - <F>) phi,

            w_ReC = (A - <A>) u_B + (B - <B>) u_A - 2 Re C phi,
            w_ImC = i ((B - <B>) u_A - (A - <A>) u_B) - 2 Im C phi,
            w_hF  = -1/dF ((F - <F>) u_F - Var_F phi),

        so every row is a fixed combination of the nine vectors that one
        product of [phi; u_A; u_B] with [I; A; B]^T gives.
        """
        ma, mb, c = p.mean_a, p.mean_b, p.c
        _, _, d_a, d_b = p.parts
        # rows phi, A phi, B phi, u_A, A u_A, B u_A, u_B, A u_B, B u_B
        z = ((p.v - np.multiply.outer((0.0, ma, mb), p.v[0])) @ self.ops_t).reshape(9, -1)
        r = [c.real, c.imag]
        coef = [[-2.0 * c.real, 0.0, 0.0, -mb, 0.0, 1.0, -ma, 1.0, 0.0],
                [-2.0 * c.imag, 0.0, 0.0, -1j * mb, 0.0, 1j, 1j * ma, -1j, 0.0]]
        for d_f, row in ((d_a, (-p.var_a, 0.0, 0.0, -ma, 1.0, 0.0, 0.0, 0.0, 0.0)),
                         (d_b, (-p.var_b, 0.0, 0.0, 0.0, 0.0, 0.0, -mb, 0.0, 1.0))):
            if self.floor - d_f > 0.0:
                r.append(self.floor - d_f)
                # dF is not differentiable at zero; its row is zero there
                k = -1.0 / d_f if d_f > 1e-30 else 0.0
                coef.append([k * e for e in row])
        return r, np.array(coef) @ z

    def parts(self, x: np.ndarray) -> _Parts:
        """(objective, |C|, dA, dB) in one pass."""
        return self._point(x).parts

    def residual(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residual r with f = ||r||^2 and its k x 2d real Jacobian at x, k <= 4."""
        p = self._point(x)
        r, w = self._rows(p)  # r is scale invariant, so its rows at x are those at phi over ||x||
        return np.array(r), np.concatenate((w.real, w.imag), axis=1) / math.sqrt(p.s)


def _accepted(c_mod: float, d_a: float, d_b: float, floor: float, tol: Tolerances) -> bool:
    """The acceptance rule of ``find`` and ``verify_candidate``: |C| zero by
    the zero test, and both spreads at or above the floor and nonzero by the
    spread test (which a ``tol`` of its own may set above the floor)."""
    low = min(d_a, d_b)
    return _is_zero(c_mod, tol) and low >= floor and not _is_eigen(low, tol)


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
    """Analytic gradient 2 J^T r of ``objective`` with respect to (re x, im x).

    Returned as a real vector of length 2d: the first d entries differentiate
    with respect to the real parts of x, the last d with respect to the
    imaginary parts.
    """
    r, jac = _Objective(a, b, cfg or FinderConfig()).residual(_vector(a, x))
    return 2.0 * (r @ jac)


def _gauss_newton_step(obj: _Objective, p: _Point) -> _Point | None:
    """Minimum-norm step dx = -J^T (J J^T)^-1 r, halved to sufficient decrease.

    J is the float64 view of the rows W of ``_rows`` (the real Jacobian, its
    (re, im) columns interleaved), and dx = J^T lam is lam.W.  At d <= 16 NumPy
    calls set the cost, so k = 2 is solved in closed form on the Python floats
    of r and J J^T, k = 3, 4 by ``np.linalg.solve``; lstsq on J runs when
    det <= 0 or ``solve`` raises.  A trial step t dx is taken once f(x + t dx)
    < f + c t f'(x; dx), where f'(x; dx) = 2 r.(J J^T lam) is -2f whenever
    J J^T lam = -r.  Returns the point at x + t dx, which ``_point`` normalizes,
    or None when no step down to t = 2^-(_GN_HALVINGS - 1) passes the test.
    """
    r, w = obj._rows(p)
    jac = w.view(np.float64)  # J, the (re, im) columns of each coordinate interleaved
    gram, dx = jac @ jac.T, None  # dx = J^T lam, where J J^T lam = -r
    if len(r) == 2:
        (g00, g01), (_, g11) = gram.tolist()
        (r0, r1), det = r, g00 * g11 - g01 * g01
        if det > 0.0:
            l0, l1 = (g01 * r1 - g11 * r0) / det, (g01 * r0 - g00 * r1) / det
            dx = np.dot((l0, l1), w)
            slope = 2.0 * (r0 * (g00 * l0 + g01 * l1) + r1 * (g01 * l0 + g11 * l1))
    else:
        with contextlib.suppress(np.linalg.LinAlgError):
            lam = -np.linalg.solve(gram, r)
            dx, slope = lam @ w, 2.0 * float(np.dot(r, gram @ lam))
    if dx is None:
        dxr = -np.linalg.lstsq(jac, r, rcond=None)[0]
        dx, slope = dxr.view(np.complex128), 2.0 * float(np.dot(r, jac @ dxr))
    if not slope < 0.0:
        return None
    for _ in range(_GN_HALVINGS):
        trial = obj._point(p.v[0] + dx)
        if trial.parts[0] < p.parts[0] + _ARMIJO_C * slope:
            return trial
        # halve t: f'(x; t dx) = t f'(x; dx)
        dx, slope = 0.5 * dx, 0.5 * slope
    return None


def _descend(
    obj: _Objective, x0: np.ndarray, cfg: FinderConfig, tol: Tolerances
) -> tuple[_Point, int, bool]:
    """Minimize from one start; returns (last point, iterations, converged).

    Each point is judged once, by ``_accepted``, and its record is carried
    into the next step, so no point is evaluated twice.
    """
    p = obj._point(x0)
    it, ok = 0, _accepted(*p.parts[1:], obj.floor, tol)
    while not ok and it < cfg.max_iters:
        accepted = _gauss_newton_step(obj, p)
        if accepted is None:
            break
        p, it, ok = accepted, it + 1, _accepted(*accepted.parts[1:], obj.floor, tol)
    return p, it, ok


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

    The reported state is the chosen restart's last accepted point, normalized
    once, and ``objective``, ``delta_a``, ``delta_b`` and ``converged`` are
    those the search judged it by, with the rule ``verify_candidate`` applies.
    """
    cfg = cfg or FinderConfig()
    obj = _Objective(a, b, cfg, tol)
    if a.dim < 3:
        raise DimensionTooSmall(
            "zero-correlation states with nonzero spreads need dimension >= 3; "
            f"got dimension {a.dim}"
        )
    _require_pair(a, b, tol)
    best: tuple[_Point, int, int, bool] | None = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng((cfg.seed, restart))
        p, iters, ok = _descend(obj, _haar_amps(a.dim, rng), cfg, tol)
        if ok or best is None or p.parts[0] < best[0].parts[0]:
            best = (p, restart, iters, ok)
        if ok:
            break
    assert best is not None
    p, restart, iters, converged = best
    f, _, d_a, d_b = p.parts
    return FinderResult(state=StateVector(p.v[0]), objective=f, delta_a=d_a, delta_b=d_b,
                        iterations=iters, restart_index=restart, converged=converged)


def verify_candidate(
    a: Observable,
    b: Observable,
    state: StateVector,
    tol: Tolerances = DEFAULT_TOLERANCES,
    spread_floor: float = FinderConfig.spread_floor,
) -> bool:
    """Independent acceptance check for a candidate zero-correlation state.

    Reads C and the spreads from the shared moments record, asserting their
    identities in this call, judges them by ``find``'s acceptance rule
    (the floor checked as ``FinderConfig`` checks it), and checks that the
    state and its two normalized deviation directions form an orthonormal
    triple.
    """
    spread_floor = _check_real("spread_floor", spread_floor, DEFAULT_TOLERANCES.eps_spread)
    n = _shared(a, b, state)
    if not _accepted(abs(_c(n)), *_spreads(n), spread_floor, tol):
        return False
    triple = (state.amps, n.a.vec / n.a.norm, n.b.vec / n.b.norm)
    gram = np.array([[np.vdot(u, v) for v in triple] for u in triple])
    return bool(np.max(np.abs(gram - np.eye(3))) <= _GRAM_TOL)
