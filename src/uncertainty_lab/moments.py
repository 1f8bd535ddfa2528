"""First and second moments of observables in a pure state, in one algebra.

The standard deviation of ``F`` in ``phi`` is the norm of the deviation
vector ``(F - <F> I)|phi>``; it must agree with the moment form
``sqrt(<F^2> - <F>^2)``, and both routes are computed here so drift in
either one is caught immediately.

Every function here forms F|phi> and F^dag|phi> from an ``Observable`` in
one helper, ``_applied``: F's range check, the dimension check, then F|phi>
and F^dag|phi> = (F^T conj(phi))^*, which copies no matrix.  One observable
in phi is one ``_Spread`` (<F>, the deviation vector, its norm and <F^2> =
<F^dag phi|F phi>), in the record, in the scan block and in the functions of
one observable alike.

The moment algebra of a pair is written once, in ``_Moments``: from phi,
A|phi>, B|phi>, A^dag|phi> and B^dag|phi> it forms the ``_Spread`` of A and
of B, <AB> = <A^dag phi|B phi> and <BA>, C in both forms, |<[A,B]>| / 2, the
Schrodinger bound and the pair scale ||A phi|| ||B phi||, and it holds the
variance, C-forms, commutator and Pearson checks.
It runs on one state (``_shared``) and on a block of states (the scans of
``state_sets``), a state per column of (d, n) arrays, where a per-state
number broadcasts as a Python float does against a (d,) vector.  Only four
primitives differ, so each side rounds as it would alone: the inner product,
norm and hypot (``_STATE``: ``complex(np.vdot)``, ``sqrt(<v|v>)``,
``math.hypot``; ``state_sets._COLUMNS``: a column ``einsum``,
``np.linalg.norm(axis=0)``, ``np.hypot``) and the check (``_check`` or
``_check_rows``), which the caller passes each time a check runs, so a hook
set on either module attribute sees it.

Every per-state function of a pair reads the numbers of (A, B, phi) from one
shared, unchecked record, ``_shared``: the algebra of the state, with the
spread of A + B, computed whole on construction and never written after, so
threads share it read-only.  The reads several
functions share (the spreads, C, r, the Schrodinger bound) are checked by a
second route in ``_spreads``, ``_c``, ``_pearson`` and ``_schrodinger``; a call
reads each once and passes the checked values on, and each report asserts its
other identities itself, through ``moments._check`` (one hook sees them all).
A call asserts its own identities, whatever came before.
``_shared`` keeps the record of the last triple, keyed on the identities of A,
B and phi (no ``__eq__``, read-only arrays; the slot keeps them alive, so no id
is reused) and not on ``tol``, on which no number depends.  It forms no d x d
array: the moments of A + B come from A|phi> + B|phi> and A^dag|phi> + B^dag|phi>.
Each ``Observable`` sizes itself once, when it is built (``Observable._sized``).
On those sizes every new record refuses a pair whose moments can leave the
float range (``_refuse_past_range``, an OverflowError), and ``classify``'s
commuting guard ``_refuse_commuting`` judges ||[A,B]||_F on the scaled A and
B, so its verdict is scale-free.  ``classify`` first hands it the record's
|<[A,B]>| = 2 ``hr`` and phi: since |<phi|[A,B]|phi>| <= ||[A,B]||_F <phi|phi>,
a commutator expectation clearly above the threshold proves the pair
non-commuting, and [A,B] (two d x d products, the only O(d^3) step of a
state) is formed only when that certificate fails.  Its rounding margin and
its range conditions make every verdict the one the products give.
``find`` and the scans run both checks, the guard first and without a
certificate, as ``_require_pair``; the record and the functions of one
observable check the range of each observable in ``_applied``, before its
products are formed.

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
decomposition.  At a scale of 1 or more the limit is relative, so it does not
depend on the units of the observables there.  Below 1 it is the absolute
``tol``, so the checks lose sight of defects as the observables shrink: a
relative error of 1e-3 in C's moment form fails the C-forms check at scale
1e-2 but passes at 1e-4.  This is a known gap.
``_check_rows`` applies the rule to a block of rows (the scans of
``state_sets``), through ``_check`` on the row nearest to failing.
``expectation`` judges its imaginary part by the same rule, with the user's
``tol_zero`` as base.
"""

from __future__ import annotations

import collections
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

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
_COMMUTATOR = "|<[A,B]>| = 2|Im C|"


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


# The primitives the moment algebra runs on (see the module docstring), and those of one
# state: (d,) vectors and Python numbers
_Primitives = collections.namedtuple("_Primitives", "inner norm hypot")
_STATE = _Primitives(lambda x, y: complex(np.vdot(x, y)), _norm, math.hypot)


class _Spread:
    """One observable F in phi, from F|phi> and F^dag|phi>: <F>, the deviation
    vector (F - <F> I)|phi>, its norm and <F^2>."""

    def __init__(self, f_phi: np.ndarray, adj_phi: np.ndarray, amps: np.ndarray,
                 ops: _Primitives = _STATE):
        self.mean = ops.inner(amps, f_phi).real
        self.vec = f_phi - self.mean * amps
        self.norm = ops.norm(self.vec)
        self.m2 = ops.inner(adj_phi, f_phi).real  # <F^2> = <F^dag phi|F phi>

    def spread(self, check: Callable) -> float:
        """The norm, after ``check`` compares its square with <F^2> - <F>^2
        (variances, because the square root is ill-conditioned near eigenstates)."""
        check(_VARIANCE, abs(self.norm**2 - (self.m2 - self.mean * self.mean)), abs(self.m2))
        return self.norm


class _Moments:
    """The moment algebra of (A, B) in phi, unchecked, computed on
    construction from phi, A|phi>, B|phi>, A^dag|phi> and B^dag|phi> with the
    primitives ``ops``; its methods run the checks it holds with ``check``."""

    def __init__(self, amps: np.ndarray, a_phi: np.ndarray, b_phi: np.ndarray,
                 adj_a: np.ndarray, adj_b: np.ndarray, ops: _Primitives = _STATE):
        self.a, self.b = _Spread(a_phi, adj_a, amps, ops), _Spread(b_phi, adj_b, amps, ops)
        mean_ab = self.a.mean * self.b.mean
        # ||A phi|| ||B phi||, as ||F phi||^2 = <F>^2 + dF^2 (see the module docstring)
        self.scale = ops.hypot(self.a.mean, self.a.norm) * ops.hypot(self.b.mean, self.b.norm)
        self.overlap = ops.inner(self.a.vec, self.b.vec)  # the deviation form of C
        # <AB> = <A^dag phi|B phi> and <BA> = <B^dag phi|A phi>
        ab, ba = ops.inner(adj_a, b_phi), ops.inner(adj_b, a_phi)
        self.c = ab - mean_ab  # the moment form
        self.hr = 0.5 * abs(ab - ba)  # |<[A,B]>| / 2
        # the Schrodinger bound, from <{A,B}> = <AB> + <BA> and the commutator bound
        self.schrodinger = ops.hypot(0.5 * (ab + ba).real - mean_ab, self.hr)

    def correlation(self, check: Callable):
        """C in moment form, checked against the deviation form."""
        check(_C_FORMS, abs(self.c - self.overlap), self.scale)
        return self.c

    def commutator(self, check: Callable, c) -> None:
        """Check |<[A,B]>| = 2|Im C| on ``c``, C already checked."""
        check(_COMMUTATOR, abs(2.0 * self.hr - 2.0 * abs(c.imag)), self.scale)

    def pearson(self, check: Callable, product, c, keep=True):
        """r = |C| / ``product`` (dA dB), from ``c`` (C, already checked),
        checked against |<dev_A|dev_B>| / product, the overlap of the deviation
        directions, and r <= 1, on the rows where ``keep`` holds (a residual
        times False is 0, or NaN, which passes)."""
        r, scale = abs(c) / product, self.scale / product  # C's roundoff, divided like C
        check(_OVERLAP, keep * abs(r - abs(self.overlap) / product), scale)
        check(_PEARSON_MAX, keep * (r - 1.0), scale, _TOL, ValidationError)
        return r


def _applied(f: Observable, phi: StateVector, name: str = "F") -> tuple[np.ndarray, np.ndarray]:
    """(F|phi>, F^dag|phi>), after F's range check (calling F ``name``) and the
    dimension check; F^dag|phi> is formed as (F^T conj(phi))^*, which copies no matrix."""
    _refuse_past_range(f, name)
    _check_same_dim(f.dim, phi.dim)
    amps = phi.amps
    return f.matrix @ amps, (f.matrix.T @ amps.conj()).conj()


def expectation(f: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Expectation value <phi|F|phi>, guaranteed real for a valid observable."""
    f_phi = _applied(f, phi)[0]
    val = complex(np.vdot(phi.amps, f_phi))
    size = _norm(f_phi)  # bounds |<F>|, so its roundoff scales with it
    _check("expectation is real", abs(val.imag), size, tol.tol_zero, ValidationError)
    return val.real


def deviation_vector(f: Observable, phi: StateVector) -> DeviationVector:
    """(F - <F> I)|phi>.  Always orthogonal to |phi> up to roundoff."""
    step = _Spread(*_applied(f, phi), phi.amps)
    return DeviationVector(vec=_freeze(step.vec), norm=step.norm)


def std_dev(f: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Standard deviation of F in phi, computed as the deviation-vector norm
    and cross-checked against the moment form sqrt(<F^2> - <F>^2).

    ``tol`` is accepted for symmetry with ``expectation``; no check reads it."""
    return _Spread(*_applied(f, phi), phi.amps).spread(_check)


def orthogonal_unit(
    f: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray | None:
    """Unit vector along the deviation vector, or None when the spread vanishes.

    The result is orthogonal to |phi>.  Its global phase is inherited from the
    raw deviation vector; every consumer uses moduli of inner products, which
    are phase-invariant.
    """
    step = _Spread(*_applied(f, phi), phi.amps)
    if _is_eigen(step.norm, tol):
        return None
    return _freeze(step.vec / step.norm)


def is_eigenstate(f: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """True when the spread of F in phi is numerically zero (eps_spread)."""
    return _is_eigen(std_dev(f, phi), tol)


def _refuse_commuting(
    a: Observable, b: Observable, tol: Tolerances, h: float = 0.0, phi: StateVector | None = None
) -> None:
    """Raise CommutingPair when ||[A,B]||_F <= tol_zero ||A||_F ||B||_F, on
    A and B as ``Observable._sized`` scales them (scale-free).

    ``h`` is |<phi|[A,B]|phi>| as a record holds it, at ``phi``: when it proves
    the norm above the threshold, [A,B] is not formed.  The verdict, and so the
    message, is the same with or without it."""
    (scaled_a, size_a, k_a), (scaled_b, size_b, k_b) = a._sized, b._sized
    # The certificate.  For any A and B (a smuggled non-Hermitian one too),
    # <A^dag phi|B phi> - <B^dag phi|A phi> = <phi|[A,B]|phi>, and |<phi|M|phi>| <=
    # ||M||_2 <phi|phi> <= ||M||_F <phi|phi>, so H = 2^-(k_A + k_B) h / <phi|phi> bounds
    # the guard's norm on the scaled pair from below.  Rounding (Higham, ch. 3; u = 2^-53)
    # moves H and the guard's two products by at most ~24 (d + 2) u size_A size_B, and
    # the three sums of d^2 squares (the guard's norm, both sizes) move the comparison by
    # at most ~3 (d^2 + 2) u size_A size_B (no tol_zero above 2 is ever certified, as
    # ||[A,B]||_F <= 2 ||A||_F ||B||_F); the margin 2^-46 d^2 = 128 d^2 u covers both at
    # every d.  These bounds hold off the ends of the float range: ||A||_F and ||B||_F
    # >= 2^-900 (k > -900), <phi|phi> >= 2^-100 and h >= 2^-900 keep what underflow
    # loses below d^1.5 2^-120 ||A||_F ||B||_F <phi|phi>, and a finite h means that the
    # record did not overflow (with a loose tol_norm it can: an inf in A|phi>, B|phi>,
    # their adjoints, <AB> or <BA> leaves h inf or NaN).  The record exists only past the
    # range checks (||F||_F <= 2^511), so H cannot overflow either.
    if min(k_a, k_b) > -900 and 2.0**-900 <= h < math.inf:
        amps = phi.amps
        norm2 = float(np.vdot(amps, amps).real)
        if norm2 >= 2.0**-100 and math.ldexp(h / norm2, -(k_a + k_b)) > (
            (tol.tol_zero + 2.0**-46 * len(amps) ** 2) * size_a * size_b
        ):
            return
    # Both products: P - P^dag (P = AB) is [A,B] only for Hermitian A and B
    norm = _norm(commutator(scaled_a or a, scaled_b or b))
    if norm <= tol.tol_zero * size_a * size_b:
        ratio = norm / (size_a * size_b) if norm else 0.0
        raise CommutingPair(
            f"the pair commutes: ||[A,B]|| / (||A|| ||B||) = {ratio:.3e} "
            f"<= tol_zero = {tol.tol_zero:.3e}"
        )


def _refuse_past_range(f: Observable, name: str) -> None:
    """Raise OverflowError, calling F ``name``, when ``4 ||F||_F^2`` exceeds the
    largest float: ``||F||_F^2`` bounds <F^2>, ``||A||_F ||B||_F`` (at most the larger
    square) bounds |<AB>| and |C|, and 4 covers the sums of two such terms (AB + BA,
    A + B).  The size comes from ``Observable._sized``, so the check itself cannot
    overflow."""
    _, size, exponent = f._sized
    try:
        math.ldexp(4.0 * size * size, 2 * exponent)
    except OverflowError:
        decades = 2.0 * (math.log10(size) + exponent * math.log10(2.0))
        raise OverflowError(
            f"||{name}||_F^2 ~ 10^{decades:.1f} is past a quarter of the largest float, "
            f"{sys.float_info.max / 4:.3e}"
        ) from None


def _require_pair(a: Observable, b: Observable, tol: Tolerances) -> None:
    """The checks of ``find`` and the scans, on the sizes A and B hold: the
    commuting guard, then the range check of A and that of B."""
    _refuse_commuting(a, b, tol)
    _refuse_past_range(a, "A")
    _refuse_past_range(b, "B")


@functools.lru_cache(maxsize=1)
def _shared(a: Observable, b: Observable, phi: StateVector) -> _Moments:
    """The record of the last triple asked for (see the module docstring)."""
    _check_same_dim(a.dim, b.dim)
    (a_phi, adj_a), (b_phi, adj_b) = _applied(a, phi, "A"), _applied(b, phi, "B")
    n = _Moments(phi.amps, a_phi, b_phi, adj_a, adj_b)
    n.sum = _Spread(a_phi + b_phi, adj_a + adj_b, phi.amps)  # the spread of A + B
    return n


def _spreads(n: _Moments) -> tuple[float, float]:
    """(dA, dB) of one state, each checked against its moment form."""
    return n.a.spread(_check), n.b.spread(_check)


def _c(n: _Moments) -> complex:
    """C of one state in moment form, checked against the deviation form."""
    return n.correlation(_check)


def _pearson(
    n: _Moments, spreads: tuple[float, float], c: complex, tol: Tolerances
) -> float | None:
    """|C| / (dA dB) from the checked ``spreads`` and ``c``, checked against
    |<dev_A|dev_B>| / (dA dB), the overlap of the deviation directions; None
    when the spread test finds either spread zero."""
    if _is_eigen(min(spreads), tol):
        return None
    return min(n.pearson(_check, math.prod(spreads), c), 1.0)


def _schrodinger(n: _Moments, c: complex) -> float:
    """The Schrodinger bound, checked against |C| (``c``, already checked)."""
    _check("Schrodinger bound = |C|", abs(n.schrodinger - abs(c)), n.scale)
    return n.schrodinger
