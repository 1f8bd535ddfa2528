"""First and second moments of an observable in a pure state.

The standard deviation of ``F`` in ``phi`` is the norm of the deviation
vector ``(F - <F> I)|phi>``; it must agree with the moment form
``sqrt(<F^2> - <F>^2)``, and both routes are computed here so drift in
either one is caught immediately.

Every per-state function of a pair reads from one ``_StateMoments`` record
per call, which computes each value at most once and asserts each identity
between two routes when the value is first read.  The record forms no matrix
product: <[A,B]> and <{A,B}> come from A(B|phi>) and B(A|phi>).  The pair's
one product, [A,B], is formed by the commuting guard ``_require_noncommuting``.

Every internal check goes through ``_check``: a residual passes up to
``tol * max(1, scale)``, ``scale`` being the size of the compared terms
(Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3): ``<F^2>``
for the variance, ``||A phi|| ||B phi||`` (which bounds ``|<AB>|``, ``|C|``,
``dA dB`` and every bound) for correlation forms and bounds, the spreads for
the triangle relations, 1 for dimensionless ratios.  No check thus depends
on the units of the observables.  ``_check_rows`` applies the rule to a
block of rows (the scans of ``state_sets``), through ``_check`` on the row
nearest to failing.  ``expectation`` judges its imaginary part by the same
rule, with the user's ``tol_zero`` as base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    CommutingPair,
    Observable,
    StateVector,
    Tolerances,
    ValidationError,
    _check_same_dim,
    _freeze,
    commutator,
)

__all__ = [
    "DeviationVector",
    "deviation_vector",
    "expectation",
    "is_eigenstate",
    "orthogonal_unit",
    "std_dev",
]

_TOL = 1e-10  # base tolerance of the internal checks; see the module docstring
_SUM_TOL = 1e-9  # for sums of squares (decomposition, Pythagoras)

# The identities that scans also assert, once per block of rows (state_sets)
_VARIANCE = "variance: norm form = moment form"
_C_FORMS = "correlation: moment form = deviation form"
_COMMUTATOR = "|<[A,B]>| = 2|Im C|"
_OVERLAP = "pearson: |C| / (dA dB) = direction overlap"
_PEARSON_MAX = "pearson <= 1"


@dataclass(frozen=True)
class DeviationVector:
    """The vector (F - <F> I)|phi> together with its norm (the spread of F)."""

    vec: np.ndarray
    norm: float


def _check(
    identity: str, residual: float, scale: float, tol: float = _TOL, error: type = ArithmeticError
) -> None:
    """Raise ``error`` naming the identity if ``residual > tol * max(1, scale)``."""
    # residual > tol * max(1, scale), written so the usual residual ~0 costs one comparison
    if residual > tol and residual > tol * scale:
        limit = tol * max(1.0, scale)
        raise error(f"{identity} fails: residual {residual!r} exceeds tolerance {limit!r}")


def _check_rows(
    identity: str,
    residuals: np.ndarray,
    scales: np.ndarray | float,
    tol: float = _TOL,
    error: type = ArithmeticError,
) -> None:
    """``_check`` over a block of rows, applied to the row nearest to failing
    (the largest ``residual / max(1, scale)``; a NaN residual passes, as in
    ``_check``)."""
    scales = np.broadcast_to(scales, residuals.shape)
    ratios = residuals / np.maximum(1.0, scales)
    worst = int(np.argmax(np.where(np.isnan(ratios), -np.inf, ratios)))
    _check(identity, float(residuals[worst]), float(scales[worst]), tol, error)


class _Spread:
    """One observable in phi: F|phi>, <F> and the deviation vector with its norm."""

    def __init__(self, matrix: np.ndarray, amps: np.ndarray):
        _check_same_dim(matrix.shape[0], amps.shape[0])
        self.matrix = matrix
        self.amps = amps
        self.f_phi = matrix @ amps
        self.mean = complex(np.vdot(amps, self.f_phi)).real
        self.vec = self.f_phi - self.mean * amps
        self.norm = float(np.linalg.norm(self.vec))

    @cached_property
    def spread(self) -> float:
        """The norm, after comparing its square with <F^2> - <F>^2 (variances,
        because the square root is ill-conditioned near eigenstates)."""
        m2 = complex(np.vdot(self.amps, self.matrix @ self.f_phi)).real
        residual = abs(self.norm**2 - (m2 - self.mean * self.mean))
        _check(_VARIANCE, residual, abs(m2))
        return self.norm


def expectation(f: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Expectation value <phi|F|phi>, guaranteed real for a valid observable."""
    _check_same_dim(f.dim, phi.dim)
    f_phi = f.matrix @ phi.amps
    val = complex(np.vdot(phi.amps, f_phi))
    size = float(np.linalg.norm(f_phi))  # bounds |<F>|, so its roundoff scales with it
    _check("expectation is real", abs(val.imag), size, tol.tol_zero, ValidationError)
    return val.real


def deviation_vector(f: Observable, phi: StateVector) -> DeviationVector:
    """(F - <F> I)|phi>.  Always orthogonal to |phi> up to roundoff."""
    step = _Spread(f.matrix, phi.amps)
    return DeviationVector(vec=_freeze(step.vec), norm=step.norm)


def std_dev(f: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Standard deviation of F in phi, computed as the deviation-vector norm
    and cross-checked against the moment form sqrt(<F^2> - <F>^2)."""
    return _Spread(f.matrix, phi.amps).spread


def orthogonal_unit(
    f: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray | None:
    """Unit vector along the deviation vector, or None when the spread vanishes.

    The result is orthogonal to |phi>.  Its global phase is inherited from the
    raw deviation vector; every consumer uses moduli of inner products, which
    are phase-invariant.
    """
    step = _Spread(f.matrix, phi.amps)
    if step.norm <= tol.eps_spread:
        return None
    return _freeze(step.vec / step.norm)


def is_eigenstate(f: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """True when the spread of F in phi is numerically zero (eps_spread)."""
    return std_dev(f, phi, tol) <= tol.eps_spread


def _require_noncommuting(a: Observable, b: Observable, tol: Tolerances) -> None:
    """Raise CommutingPair when ||[A,B]||_F <= tol_zero ||A||_F ||B||_F (scale-free)."""
    # Frobenius norms as sqrt(<M|M>), at half the cost of np.linalg.norm for small d
    sizes = [math.sqrt(np.vdot(m, m).real) for m in (commutator(a, b), a.matrix, b.matrix)]
    norm, limit = sizes[0], tol.tol_zero * sizes[1] * sizes[2]
    if norm <= limit:
        raise CommutingPair(
            f"the pair commutes: ||[A,B]|| = {norm:.3e} <= tol_zero ||A|| ||B|| = {limit:.3e}"
        )


class _StateMoments:
    """Spreads, correlation, bounds and their cross-checks for (A, B, phi).

    Both one-observable steps run on construction; every other value is
    computed, and its identity asserted, when first read.
    """

    def __init__(
        self, a: Observable, b: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES
    ):
        _check_same_dim(a.dim, b.dim)
        self.amps = phi.amps
        self.tol = tol
        self.a = _Spread(a.matrix, phi.amps)
        self.b = _Spread(b.matrix, phi.amps)
        # ||A phi|| ||B phi||, as ||F phi||^2 = <F>^2 + dF^2 (see the module docstring)
        self.scale = math.hypot(self.a.mean, self.a.norm) * math.hypot(self.b.mean, self.b.norm)

    @property
    def spreads_ok(self) -> bool:
        return min(self.a.spread, self.b.spread) > self.tol.eps_spread

    @cached_property
    def overlap(self) -> complex:
        """<dev_A|dev_B>: the deviation form of C."""
        return complex(np.vdot(self.a.vec, self.b.vec))

    @cached_property
    def ab_ba(self) -> tuple[np.ndarray, np.ndarray]:
        """(A B|phi>, B A|phi>), from the B|phi> and A|phi> already held."""
        return self.a.matrix @ self.b.f_phi, self.b.matrix @ self.a.f_phi

    @cached_property
    def c(self) -> complex:
        """C = <AB> - <A><B> in moment form, checked against the deviation form."""
        c = complex(np.vdot(self.amps, self.ab_ba[0])) - self.a.mean * self.b.mean
        _check(_C_FORMS, abs(c - self.overlap), self.scale)
        return c

    @cached_property
    def pearson(self) -> float | None:
        """|C| / (dA dB), checked against the overlap of the deviation
        directions; None when either spread is below eps_spread."""
        if not self.spreads_ok:
            return None
        delta_a, delta_b = self.a.spread, self.b.spread
        r = abs(self.c) / (delta_a * delta_b)
        overlap = abs(complex(np.vdot(self.a.vec / delta_a, self.b.vec / delta_b)))
        _check(_OVERLAP, abs(r - overlap), 1.0)
        _check(_PEARSON_MAX, r - 1.0, 1.0, _TOL, ValidationError)
        return min(r, 1.0)

    @cached_property
    def hr(self) -> float:
        """|<[A,B]>| / 2, with [A,B]|phi> = AB|phi> - BA|phi>."""
        return 0.5 * abs(complex(np.vdot(self.amps, self.ab_ba[0] - self.ab_ba[1])))

    @cached_property
    def schrodinger(self) -> float:
        """Bound from <{A,B}> = <AB> + <BA> and the commutator bound, checked against |C|."""
        anti_mean = complex(np.vdot(self.amps, self.ab_ba[0] + self.ab_ba[1])).real
        bound = float(np.hypot(0.5 * anti_mean - (self.a.mean * self.b.mean), self.hr))
        _check("Schrodinger bound = |C|", abs(bound - abs(self.c)), self.scale)
        return bound

    def check_commutator(self) -> None:
        c = self.c
        _check(_COMMUTATOR, abs(2.0 * self.hr - 2.0 * abs(c.imag)), self.scale)

    def check_bound_chain(self) -> None:
        product = self.a.spread * self.b.spread
        hr, sch, gen, scale = self.hr, self.schrodinger, abs(self.c), self.scale
        _check("commutator bound <= Schrodinger bound", hr - sch, scale)
        _check("Schrodinger bound = |C| in the bound chain", abs(sch - gen), scale)
        _check("commutator bound <= dA dB", hr - product, scale)
        _check("|C| <= dA dB", gen - product, scale)

    def decomposition(self) -> tuple[float, float]:
        """((Re C / dA dB)^2, (Im C / dA dB)^2), checked to sum to pearson^2;
        only for nondegenerate spreads."""
        r = self.pearson
        denom = self.a.spread * self.b.spread
        cov_term, imag_term = (self.c.real / denom) ** 2, (self.c.imag / denom) ** 2
        residual = abs(cov_term + imag_term - r * r)
        _check("decomposition terms sum to pearson^2", residual, 1.0, _SUM_TOL)
        return cov_term, imag_term

    def sum_relations(self) -> tuple[float, str]:
        """d(A+B) and the degeneracy of the triangle relations, after asserting
        them: ``eigenstate_trivial`` when either spread vanishes,
        ``pythagoras`` (with d(A+B)^2 = dA^2 + dB^2 asserted) when the
        deviation vectors are orthogonal, ``none`` otherwise."""
        da, db = self.a.spread, self.b.spread
        squares = da**2 + db**2
        sos = _Spread(self.a.matrix + self.b.matrix, self.amps).spread
        if not self.spreads_ok:
            kind = "eigenstate_trivial"
        elif abs(self.overlap) <= self.tol.tol_zero:
            residual = abs(sos**2 - squares)
            _check("orthogonal deviations: d(A+B)^2 = dA^2 + dB^2", residual, squares, _SUM_TOL)
            kind = "pythagoras"
        else:
            kind = "none"
        _check("triangle inequality dA + dB >= d(A+B)", sos - (da + db), da + db)
        residual = 0.5 * sos**2 - squares
        _check("squared triangle inequality dA^2 + dB^2 >= d(A+B)^2 / 2", residual, squares)
        return sos, kind
