"""First and second moments of an observable in a pure state.

The standard deviation of ``F`` in ``phi`` is the norm of the deviation
vector ``(F - <F> I)|phi>``; it must agree with the moment form
``sqrt(<F^2> - <F>^2)``, and both routes are computed here so drift in
either one is caught immediately.

Every per-state function of a pair reads from one ``_StateMoments`` record
per call, which computes each value at most once and asserts each identity
between two routes when the value is first read.
"""

from __future__ import annotations

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
)

__all__ = [
    "DeviationVector",
    "deviation_vector",
    "expectation",
    "is_eigenstate",
    "orthogonal_unit",
    "std_dev",
]

# Agreement gate between the norm-form and moment-form variances, relative to
# the second moment (the natural scale of the computation).
_CROSS_CHECK_TOL = 1e-10
_IDENTITY_TOL = 1e-10
_DECOMP_TOL = 1e-9
# Pearson values in (1, 1 + _PEARSON_EXCESS] are clamped to 1; anything larger
# signals broken inputs.
_PEARSON_EXCESS = 1e-10
# Slack below which an inequality is considered violated (broken arithmetic).
_INEQ_SLACK = 1e-10
# Identity agreement between independently computed bounds.
_BOUND_IDENT_TOL = 1e-10
_PYTHAGORAS_TOL = 1e-9
_EQUIV_TOL = 1e-10


@dataclass(frozen=True)
class DeviationVector:
    """The vector (F - <F> I)|phi> together with its norm (the spread of F)."""

    vec: np.ndarray
    norm: float


def _check(identity: str, residual: float, tol: float, error: type = ArithmeticError) -> None:
    """Raise ``error`` naming the identity when its residual exceeds ``tol``."""
    if residual > tol:
        raise error(f"{identity} fails: residual {residual!r} exceeds tolerance {tol!r}")


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
        """The norm, after comparing its square with the moment form
        <F^2> - <F>^2.  The comparison is made on the variances (scaled by the
        second moment) because the square root is ill-conditioned near
        eigenstates."""
        m2 = complex(np.vdot(self.amps, self.matrix @ self.f_phi)).real
        residual = abs(self.norm**2 - (m2 - self.mean * self.mean))
        _check("variance: norm form = moment form", residual, _CROSS_CHECK_TOL * max(1.0, abs(m2)))
        return self.norm


def expectation(f: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Expectation value <phi|F|phi>, guaranteed real for a valid observable."""
    _check_same_dim(f.dim, phi.dim)
    val = complex(np.vdot(phi.amps, f.matrix @ phi.amps))
    if abs(val.imag) > tol.tol_zero:
        raise ValidationError(
            f"expectation has imaginary part {val.imag:.3e} beyond tol_zero; "
            "the observable is effectively non-Hermitian"
        )
    return val.real


def deviation_vector(f: Observable, phi: StateVector) -> DeviationVector:
    """(F - <F> I)|phi>.  Always orthogonal to |phi> up to roundoff."""
    step = _Spread(f.matrix, phi.amps)
    return DeviationVector(vec=_freeze(step.vec), norm=step.norm)


def std_dev(f: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Standard deviation of F in phi, computed as the deviation-vector norm.

    The moment form sqrt(<F^2> - <F>^2) is evaluated as a cross-check.
    """
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


class _PairContext:
    """A validated pair; [A,B] and {A,B} are built from AB and BA on first use."""

    def __init__(self, a: Observable, b: Observable):
        _check_same_dim(a.dim, b.dim)
        self.a = a.matrix
        self.b = b.matrix

    @cached_property
    def comm_anti(self) -> tuple[np.ndarray, np.ndarray]:
        ab, ba = self.a @ self.b, self.b @ self.a
        return ab - ba, ab + ba

    def require_noncommuting(self, tol: Tolerances) -> None:
        norm = float(np.linalg.norm(self.comm_anti[0]))
        if norm <= tol.tol_zero:
            raise CommutingPair(
                f"the pair commutes: ||[A,B]|| = {norm:.3e} is below tol_zero = {tol.tol_zero:.3e}"
            )


class _StateMoments:
    """Spreads, correlation, bounds and their cross-checks for (A, B, phi).

    Both one-observable steps run on construction; every other value is
    computed, and its identity asserted, when first read.
    """

    def __init__(self, pair: _PairContext, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES):
        self.pair = pair
        self.amps = phi.amps
        self.tol = tol
        self.a = _Spread(pair.a, phi.amps)
        self.b = _Spread(pair.b, phi.amps)

    @property
    def spreads_ok(self) -> bool:
        delta_a, delta_b = self.a.spread, self.b.spread
        return not (delta_a <= self.tol.eps_spread or delta_b <= self.tol.eps_spread)

    @cached_property
    def overlap(self) -> complex:
        """<dev_A|dev_B>: the deviation form of C."""
        return complex(np.vdot(self.a.vec, self.b.vec))

    @cached_property
    def c(self) -> complex:
        """C = <AB> - <A><B> in moment form, checked against the deviation form."""
        c = complex(np.vdot(self.amps, self.pair.a @ self.b.f_phi)) - self.a.mean * self.b.mean
        tol = _IDENTITY_TOL * max(1.0, abs(c))
        _check("correlation: moment form = deviation form", abs(c - self.overlap), tol)
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
        _check("pearson: |C| / (dA dB) = direction overlap", abs(r - overlap), _IDENTITY_TOL)
        _check("pearson <= 1", r - 1.0, _PEARSON_EXCESS, ValidationError)
        return min(r, 1.0)

    @cached_property
    def hr(self) -> float:
        """|<[A,B]>| / 2 from the commutator matrix."""
        return 0.5 * abs(complex(np.vdot(self.amps, self.pair.comm_anti[0] @ self.amps)))

    @cached_property
    def schrodinger(self) -> float:
        """Bound from the anticommutator and commutator, checked against |C|."""
        anti_mean = complex(np.vdot(self.amps, self.pair.comm_anti[1] @ self.amps)).real
        bound = float(np.hypot(0.5 * anti_mean - (self.a.mean * self.b.mean), self.hr))
        c_mod = abs(self.c)
        _check("Schrodinger bound = |C|", abs(bound - c_mod), _BOUND_IDENT_TOL * max(1.0, c_mod))
        return bound

    def check_commutator(self) -> None:
        c = self.c
        _check("|<[A,B]>| = 2|Im C|", abs(2.0 * self.hr - 2.0 * abs(c.imag)), _EQUIV_TOL)

    def check_bound_chain(self) -> None:
        product = self.a.spread * self.b.spread
        hr, sch, gen = self.hr, self.schrodinger, abs(self.c)
        _check("commutator bound <= Schrodinger bound", hr - sch, _BOUND_IDENT_TOL)
        _check("Schrodinger bound = |C| in the bound chain", abs(sch - gen), _BOUND_IDENT_TOL)
        _check("commutator bound <= dA dB", hr - product, _INEQ_SLACK)
        _check("|C| <= dA dB", gen - product, _INEQ_SLACK)

    def decomposition(self) -> tuple[float, float]:
        """((Re C / dA dB)^2, (Im C / dA dB)^2), checked to sum to pearson^2;
        only for nondegenerate spreads."""
        r = self.pearson
        denom = self.a.spread * self.b.spread
        cov_term, imag_term = (self.c.real / denom) ** 2, (self.c.imag / denom) ** 2
        residual = abs(cov_term + imag_term - r * r)
        _check("decomposition terms sum to pearson^2", residual, _DECOMP_TOL)
        return cov_term, imag_term

    def sum_relations(self) -> tuple[float, str]:
        """d(A+B) and the degeneracy of the triangle relations, after asserting
        them: ``eigenstate_trivial`` when either spread vanishes,
        ``pythagoras`` (with d(A+B)^2 = dA^2 + dB^2 asserted) when the
        deviation vectors are orthogonal, ``none`` otherwise."""
        da, db = self.a.spread, self.b.spread
        sos = _Spread(self.pair.a + self.pair.b, self.amps).spread
        if not self.spreads_ok:
            kind = "eigenstate_trivial"
        elif abs(self.overlap) <= self.tol.tol_zero:
            residual = abs(sos**2 - (da**2 + db**2))
            _check("orthogonal deviations: d(A+B)^2 = dA^2 + dB^2", residual, _PYTHAGORAS_TOL)
            kind = "pythagoras"
        else:
            kind = "none"
        _check("triangle inequality dA + dB >= d(A+B)", sos - (da + db), _INEQ_SLACK)
        residual = 0.5 * sos**2 - (da**2 + db**2)
        _check("squared triangle inequality dA^2 + dB^2 >= d(A+B)^2 / 2", residual, _INEQ_SLACK)
        return sos, kind
