"""Quantum correlation function of an observable pair and derived coefficients.

``correlation(A, B, phi)`` is the complex number ``<AB> - <A><B>``.  Its real
part is the classical covariance, its imaginary part carries the commutator
expectation, and its modulus divided by the product of spreads is a quantum
analogue of the Pearson coefficient, always in [0, 1].  Restricting attention
to the real part alone discards the imaginary contribution, which is why both
are exposed side by side and no operation silently substitutes one for the
modulus.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Any

from .core import (
    DEFAULT_TOLERANCES,
    DegenerateSpread,
    Observable,
    StateVector,
    Tolerances,
)
from . import moments
from .moments import _SUM_TOL, _c, _is_eigen, _pearson, _shared, _spreads

__all__ = [
    "CorrelationRecord",
    "correlation",
    "correlation_record",
    "correlation_properties_check",
    "decomposition",
    "pearson",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CorrelationRecord:
    """Correlation function of a pair in a state, with derived coefficients.

    ``pearson`` and ``transition_prob`` are None when either spread is
    numerically zero, since the coefficient is undefined there.
    """

    c: complex
    cov_real: float
    imag_part: float
    pearson: float | None
    transition_prob: float | None

    def to_json_dict(self) -> dict[str, Any]:
        return {**vars(self), "c": [self.c.real, self.c.imag]}


def correlation(a: Observable, b: Observable, phi: StateVector) -> complex:
    """<phi|AB|phi> - <A><B>, cross-checked against the deviation-vector form.

    The same number is the inner product of the two deviation vectors, so both
    routes are evaluated and compared before the moment form is returned.
    """
    return _c(_shared(a, b, phi))


def _nondegenerate(
    a: Observable, b: Observable, phi: StateVector, tol: Tolerances, what: str
) -> tuple[tuple[float, float], complex, float]:
    """(spreads, C, r), read in that order; DegenerateSpread, before C is
    read, when the spread test finds either spread zero."""
    n = _shared(a, b, phi)
    spreads = _spreads(n)
    if _is_eigen(min(spreads), tol):
        raise DegenerateSpread(
            f"{what} undefined: spreads ({spreads[0]:.3e}, {spreads[1]:.3e}) "
            f"must both exceed eps_spread = {tol.eps_spread:.3e}"
        )
    c = _c(n)
    return spreads, c, _pearson(n, spreads, c, tol)


def pearson(
    a: Observable, b: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """|C(A,B)| / (dA * dB) in [0, 1]; the overlap modulus of the two
    normalized deviation directions.

    Raises DegenerateSpread when either standard deviation is at or below
    eps_spread: the coefficient is only defined for states where both
    observables actually spread out.
    """
    return _nondegenerate(a, b, phi, tol, "pearson coefficient")[2]


def decomposition(
    a: Observable, b: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[float, float]:
    """Split of the squared pearson coefficient into its covariance and
    imaginary-part terms: ((Re C / dA dB)^2, (Im C / dA dB)^2).

    The two terms sum to pearson^2; dropping the second one is exactly the
    information lost by using only the real part of C.
    """
    spreads, c, r = _nondegenerate(a, b, phi, tol, "decomposition")
    denom = math.prod(spreads)
    cov_term, imag_term = (c.real / denom) ** 2, (c.imag / denom) ** 2
    residual = abs(cov_term + imag_term - r * r)
    moments._check("decomposition terms sum to pearson^2", residual, 1.0, _SUM_TOL)
    return cov_term, imag_term


def correlation_properties_check(
    a: Observable, b1: Observable, b2: Observable, phi: StateVector
) -> bool:
    """Diagnostic: verify the algebraic identities of the correlation function.

    Checks C(A,B1) = conj(C(B1,A)), additivity C(A, B1+B2) = C(A,B1) + C(A,B2),
    and symmetry of the pearson coefficient where it is defined, each by the
    rule of the internal cross-checks.  Returns True when all hold; otherwise
    logs each violation and returns False.
    """
    n_ab, n_ba = _shared(a, b1, phi), _shared(b1, a, phi)
    n_ab2, n_sum = _shared(a, b2, phi), _shared(a, b1 + b2, phi)
    c_sum, c_ab, c_ab2, c_ba = _c(n_sum), _c(n_ab), _c(n_ab2), _c(n_ba)
    scale = n_ab.scale
    checks = [
        ("conjugate symmetry C(A,B) = conj(C(B,A))", abs(c_ab - c_ba.conjugate()), scale),
        ("additivity C(A, B1+B2) = C(A,B1) + C(A,B2)", abs(c_sum - (c_ab + c_ab2)),
         scale + n_ab2.scale),
    ]
    r_ab = _pearson(n_ab, _spreads(n_ab), c_ab, DEFAULT_TOLERANCES)
    if r_ab is not None:
        r_ba = _pearson(n_ba, _spreads(n_ba), c_ba, DEFAULT_TOLERANCES)
        checks.append(("pearson symmetry r(A,B) = r(B,A)", abs(r_ab - r_ba), 1.0))
    holds = True
    for identity, residual, scale in checks:
        try:
            moments._check(identity, residual, scale)
        except ArithmeticError as exc:
            logger.warning("correlation identity violated: %s", exc)
            holds = False
    return holds


def correlation_record(
    a: Observable, b: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES
) -> CorrelationRecord:
    """Full correlation record; pearson/transition_prob absent on degenerate spreads."""
    n = _shared(a, b, phi)
    c = _c(n)
    r = _pearson(n, _spreads(n), c, tol)
    return CorrelationRecord(
        c=c,
        cov_real=c.real,
        imag_part=c.imag,
        pearson=r,
        transition_prob=None if r is None else r * r,
    )
