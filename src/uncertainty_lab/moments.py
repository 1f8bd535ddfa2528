"""First and second moments of an observable in a pure state.

The standard deviation of ``F`` in ``phi`` is the norm of the deviation
vector ``(F - <F> I)|phi>``; it must agree with the moment form
``sqrt(<F^2> - <F>^2)``, and both routes are computed here so drift in
either one is caught immediately.

Every per-state function of a pair reads the numbers of (A, B, phi) from one
shared, unchecked ``_StateMoments`` record, computed whole on construction and
never written after, so threads share it read-only.  The reads several
functions share (the spreads, C, r, the Schrodinger bound) are checked by a
second route in ``_spreads``, ``_c``, ``_pearson`` and ``_schrodinger``; a call
reads each once and passes the checked values on, and each report asserts its
other identities itself, through ``moments._check`` (one hook sees them all).
A call asserts its own identities, whatever came before.
``_shared`` keeps the record of the last triple, keyed on the identities of A,
B and phi (no ``__eq__``, read-only arrays; the slot keeps them alive, so no id
is reused) and not on ``tol``, on which no number depends.  Its norms are
``sqrt(<v|v>)``, and it forms no d x d array: as in a scan, <F^2>, <AB>, <BA>
and A + B's moments are inner products of F|phi> and F^dag|phi> (formed as
(F^T conj(phi))^*).  Every new record sizes A and B once (``_sized``
scales F by an exact power of two when ||F||_F lies outside (1e-60, 1e60)),
refuses a pair whose moments can leave the float range (``_refuse_past_range``,
an OverflowError) and keeps the sizes for ``classify``'s commuting guard
``_refuse_commuting``, which forms the pair's one product, [A,B], on them, so
its verdict is scale-free.  ``find`` and the scans run both checks, the guard
first, as ``_require_pair``; functions of one observable check F's range.

Every verdict is made by one of three tests: ``_is_eigen`` (a spread at or
below eps_spread counts as zero), ``_is_zero`` (|x| at or below tol_zero) and
``_is_tight`` (a slack dA dB - |C| at or below ``_TIGHT_SLACK``); ``_flags``
gives the five class flags of ``classify`` and of the scans from the first two.

Every internal check goes through ``_check``: a residual passes up to
``tol * max(1, scale)``, ``scale`` being the size of the compared terms
(Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3): ``<F^2>``
for the variance, ``||A phi|| ||B phi||`` (which bounds ``|<AB>|``, ``|C|``,
``dA dB`` and every bound) for correlation forms and bounds, that over
``dA dB`` for the Pearson checks (as ``r = |C| / (dA dB)`` divides the
roundoff of ``C``; the overlap is judged as ``|<dev_A|dev_B>| / (dA dB)``
here and in the scan), the spreads for the triangle relations, 1 for the
decomposition.  No check thus depends on the units of the observables.
``_check_rows`` applies the rule to a block of rows (the scans of
``state_sets``), through ``_check`` on the row nearest to failing.
``expectation`` judges its imaginary part by the same rule, with the user's
``tol_zero`` as base.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

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
    _norm,
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
# Equality detection for the product-of-spreads bound, looser than the
# arithmetic tolerance to absorb the flop count of the evaluation.
_TIGHT_SLACK = 1e-8

# The identities that scans also assert, once per block of rows (state_sets)
_VARIANCE = "variance: norm form = moment form"
_C_FORMS = "correlation: moment form = deviation form"
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
    scales: np.ndarray,
    tol: float = _TOL,
    error: type = ArithmeticError,
) -> None:
    """``_check`` over a block of rows, applied to the row nearest to failing
    (the largest ``residual / max(1, scale)``; a NaN residual passes, as in
    ``_check``)."""
    ratios = residuals / np.maximum(1.0, scales)
    worst = int(np.argmax(np.where(np.isnan(ratios), -np.inf, ratios)))
    _check(identity, float(residuals[worst]), float(scales[worst]), tol, error)


def _is_eigen(spread, tol: Tolerances):
    """The spread test: the spread counts as zero, phi as an eigenstate (elementwise on arrays)."""
    return spread <= tol.eps_spread


def _is_zero(x, tol: Tolerances):
    """The zero test: |x| counts as zero (elementwise on arrays)."""
    return abs(x) <= tol.tol_zero


def _is_tight(slack: float) -> bool:
    """The tight test: the slack dA dB - |C| of a report counts as zero."""
    return slack <= _TIGHT_SLACK


def _flags(spread_a, spread_b, c, tol: Tolerances) -> tuple:
    """(eigen_a, eigen_b, in_s_ab, in_s_comm, in_s_anti) of one state, or of
    a block of states when the arguments are arrays: the spread test on each
    spread, and the zero test on C, Im C and Re C where neither flag is set."""
    eigen_a, eigen_b = _is_eigen(spread_a, tol), _is_eigen(spread_b, tol)
    neither = (eigen_a | eigen_b) ^ True  # "not" for a bool and for a bool array alike
    return (eigen_a, eigen_b, neither & _is_zero(c, tol),
            neither & _is_zero(c.imag, tol), neither & _is_zero(c.real, tol))


class _Spread:
    """One observable in phi: F|phi>, F^dag|phi>, <F>, <F^2>, the deviation vector and its norm."""

    def __init__(self, f_phi: np.ndarray, adj_phi: np.ndarray, amps: np.ndarray):
        self.f_phi, self.adj_phi = f_phi, adj_phi
        self.mean = complex(np.vdot(amps, f_phi)).real
        self.vec = f_phi - self.mean * amps
        self.norm = _norm(self.vec)
        self.m2 = complex(np.vdot(adj_phi, f_phi)).real  # <F^2> = <F^dag phi|F phi>

    @classmethod
    def of(cls, matrix: np.ndarray, amps: np.ndarray) -> _Spread:
        _check_same_dim(matrix.shape[0], amps.shape[0])
        return cls(matrix @ amps, (matrix.T @ amps.conj()).conj(), amps)

    @property
    def spread(self) -> float:
        """The norm, after comparing its square with <F^2> - <F>^2 (variances,
        because the square root is ill-conditioned near eigenstates), on every read."""
        residual = abs(self.norm**2 - (self.m2 - self.mean * self.mean))
        _check(_VARIANCE, residual, abs(self.m2))
        return self.norm


def expectation(f: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Expectation value <phi|F|phi>, guaranteed real for a valid observable."""
    _check_same_dim(f.dim, phi.dim)
    _refuse_past_range(_sized(f), "F")
    f_phi = f.matrix @ phi.amps
    val = complex(np.vdot(phi.amps, f_phi))
    size = _norm(f_phi)  # bounds |<F>|, so its roundoff scales with it
    _check("expectation is real", abs(val.imag), size, tol.tol_zero, ValidationError)
    return val.real


def deviation_vector(f: Observable, phi: StateVector) -> DeviationVector:
    """(F - <F> I)|phi>.  Always orthogonal to |phi> up to roundoff."""
    _refuse_past_range(_sized(f), "F")
    step = _Spread.of(f.matrix, phi.amps)
    return DeviationVector(vec=_freeze(step.vec), norm=step.norm)


def std_dev(f: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Standard deviation of F in phi, computed as the deviation-vector norm
    and cross-checked against the moment form sqrt(<F^2> - <F>^2)."""
    _refuse_past_range(_sized(f), "F")
    return _Spread.of(f.matrix, phi.amps).spread


def orthogonal_unit(
    f: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray | None:
    """Unit vector along the deviation vector, or None when the spread vanishes.

    The result is orthogonal to |phi>.  Its global phase is inherited from the
    raw deviation vector; every consumer uses moduli of inner products, which
    are phase-invariant.
    """
    _refuse_past_range(_sized(f), "F")
    step = _Spread.of(f.matrix, phi.amps)
    if _is_eigen(step.norm, tol):
        return None
    return _freeze(step.vec / step.norm)


def is_eigenstate(f: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """True when the spread of F in phi is numerically zero (eps_spread)."""
    return _is_eigen(std_dev(f, phi, tol), tol)


_Sized = tuple[Observable, float, int]


def _sized(f: Observable) -> _Sized:
    """``(F 2^-k, ||F 2^-k||_F, k)``: ``k = 0`` when ``||F||_F`` lies in
    (1e-60, 1e60), else the power of two that brings F's largest |Re| or |Im|
    entry into [1/2, 1).  The scaling is exact, and the squares of the scaled
    entries and size neither under- nor overflow."""
    size = _norm(f.matrix)
    if 1e-60 < size < 1e60:
        return f, size, 0
    parts = f.matrix.view(np.float64)
    exponent = int(np.frexp(np.abs(parts).max())[1])  # 0 for a zero matrix
    f = Observable._wrap(np.ldexp(parts, -exponent).view(np.complex128))
    return f, _norm(f.matrix), exponent


def _refuse_commuting(sized_a: _Sized, sized_b: _Sized, tol: Tolerances) -> None:
    """Raise CommutingPair when ||[A,B]||_F <= tol_zero ||A||_F ||B||_F, on
    the ``_sized`` A and B (scale-free)."""
    (a, size_a, _), (b, size_b, _) = sized_a, sized_b
    # Both products: P - P^dag (P = AB) is [A,B] only for Hermitian A and B
    norm = _norm(commutator(a, b))
    if norm <= tol.tol_zero * size_a * size_b:
        ratio = norm / (size_a * size_b) if norm else 0.0
        raise CommutingPair(
            f"the pair commutes: ||[A,B]|| / (||A|| ||B||) = {ratio:.3e} "
            f"<= tol_zero = {tol.tol_zero:.3e}"
        )


def _refuse_past_range(sized: _Sized, name: str) -> None:
    """Raise OverflowError, calling F ``name``, when ``4 ||F||_F^2`` exceeds the
    largest float: ``||F||_F^2`` bounds <F^2>, ``||A||_F ||B||_F`` (at most the larger
    square) bounds |<AB>| and |C|, and 4 covers the sums of two such terms (AB + BA,
    A + B).  The size comes from ``_sized``, so the check itself cannot overflow."""
    _, size, exponent = sized
    try:
        math.ldexp(4.0 * size * size, 2 * exponent)
    except OverflowError:
        decades = 2.0 * (math.log10(size) + exponent * math.log10(2.0))
        raise OverflowError(
            f"||{name}||_F^2 ~ 10^{decades:.1f} is past a quarter of the largest float, "
            f"{sys.float_info.max / 4:.3e}"
        ) from None


def _require_pair(a: Observable, b: Observable, tol: Tolerances) -> None:
    """The checks of ``find`` and the scans, sizing A and B once: the
    commuting guard, then the range check of A and that of B."""
    sized_a, sized_b = _sized(a), _sized(b)
    _refuse_commuting(sized_a, sized_b, tol)
    _refuse_past_range(sized_a, "A")
    _refuse_past_range(sized_b, "B")


class _StateMoments:
    """The numbers of (A, B, phi) and the sizes of A and B, unchecked, computed on construction."""

    def __init__(self, a: Observable, b: Observable, phi: StateVector):
        _check_same_dim(a.dim, b.dim)
        self.sized = _sized(a), _sized(b)
        _refuse_past_range(self.sized[0], "A")
        _refuse_past_range(self.sized[1], "B")
        amps = phi.amps
        self.a = _Spread.of(a.matrix, amps)
        self.b = _Spread.of(b.matrix, amps)
        # ||A phi|| ||B phi||, as ||F phi||^2 = <F>^2 + dF^2 (see the module docstring)
        self.scale = math.hypot(self.a.mean, self.a.norm) * math.hypot(self.b.mean, self.b.norm)
        self.overlap = complex(np.vdot(self.a.vec, self.b.vec))  # the deviation form of C
        # <AB> = <A^dag phi|B phi> and <BA> = <B^dag phi|A phi>, from the vectors already held
        ab = complex(np.vdot(self.a.adj_phi, self.b.f_phi))
        ba = complex(np.vdot(self.b.adj_phi, self.a.f_phi))
        self.c = ab - self.a.mean * self.b.mean  # the moment form
        self.hr = 0.5 * abs(ab - ba)  # |<[A,B]>| / 2
        # the Schrodinger bound, from <{A,B}> = <AB> + <BA> and the commutator bound
        self.schrodinger = math.hypot(0.5 * (ab + ba).real - (self.a.mean * self.b.mean), self.hr)
        self.sum = _Spread(self.a.f_phi + self.b.f_phi, self.a.adj_phi + self.b.adj_phi, amps)


@functools.lru_cache(maxsize=1)
def _shared(a: Observable, b: Observable, phi: StateVector) -> _StateMoments:
    """The record of the last triple asked for (see the module docstring)."""
    return _StateMoments(a, b, phi)


def _spreads(n: _StateMoments) -> tuple[float, float]:
    """(dA, dB), each checked against its moment form."""
    return n.a.spread, n.b.spread


def _c(n: _StateMoments) -> complex:
    """C in moment form, checked against the deviation form."""
    _check(_C_FORMS, abs(n.c - n.overlap), n.scale)
    return n.c


def _pearson(
    n: _StateMoments, spreads: tuple[float, float], c: complex, tol: Tolerances
) -> float | None:
    """|C| / (dA dB) from the checked ``spreads`` and ``c``, checked against
    |<dev_A|dev_B>| / (dA dB), the overlap of the deviation directions; None
    when the spread test finds either spread zero."""
    if _is_eigen(min(spreads), tol):
        return None
    product = math.prod(spreads)
    r, scale = abs(c) / product, n.scale / product  # C's roundoff, divided like C
    _check(_OVERLAP, abs(r - abs(n.overlap) / product), scale)
    _check(_PEARSON_MAX, r - 1.0, scale, _TOL, ValidationError)
    return min(r, 1.0)


def _schrodinger(n: _StateMoments, c: complex) -> float:
    """The Schrodinger bound, checked against |C| (``c``, already checked)."""
    _check("Schrodinger bound = |C|", abs(n.schrodinger - abs(c)), n.scale)
    return n.schrodinger
