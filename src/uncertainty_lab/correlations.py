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
from dataclasses import dataclass
from typing import Any

from .core import (
    DEFAULT_TOLERANCES,
    DegenerateSpread,
    Observable,
    StateVector,
    Tolerances,
)
from .moments import _check, _StateMoments

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
        return {
            "c": [self.c.real, self.c.imag],
            "cov_real": self.cov_real,
            "imag_part": self.imag_part,
            "pearson": self.pearson,
            "transition_prob": self.transition_prob,
        }


def correlation(a: Observable, b: Observable, phi: StateVector) -> complex:
    """<phi|AB|phi> - <A><B>, cross-checked against the deviation-vector form.

    The same number is the inner product of the two deviation vectors, so both
    routes are evaluated and compared before the moment form is returned.
    """
    return _StateMoments(a, b, phi).c


def _nondegenerate(m: _StateMoments, what: str) -> float:
    r = m.pearson
    if r is None:
        raise DegenerateSpread(
            f"{what} undefined: spreads ({m.a.spread:.3e}, {m.b.spread:.3e}) "
            f"must both exceed eps_spread = {m.tol.eps_spread:.3e}"
        )
    return r


def pearson(
    a: Observable, b: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """|C(A,B)| / (dA * dB) in [0, 1]; the overlap modulus of the two
    normalized deviation directions.

    Raises DegenerateSpread when either standard deviation is below
    eps_spread: the coefficient is only defined for states where both
    observables actually spread out.
    """
    return _nondegenerate(_StateMoments(a, b, phi, tol), "pearson coefficient")


def decomposition(
    a: Observable, b: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[float, float]:
    """Split of the squared pearson coefficient into its covariance and
    imaginary-part terms: ((Re C / dA dB)^2, (Im C / dA dB)^2).

    The two terms sum to pearson^2; dropping the second one is exactly the
    information lost by using only the real part of C.
    """
    m = _StateMoments(a, b, phi, tol)
    _nondegenerate(m, "decomposition")
    return m.decomposition()


def correlation_properties_check(
    a: Observable, b1: Observable, b2: Observable, phi: StateVector
) -> bool:
    """Diagnostic: verify the algebraic identities of the correlation function.

    Checks C(A,B1) = conj(C(B1,A)), additivity C(A, B1+B2) = C(A,B1) + C(A,B2),
    and symmetry of the pearson coefficient where it is defined, each by the
    rule of the internal cross-checks.  Returns True when all hold; otherwise
    logs each violation and returns False.
    """
    m_ab = _StateMoments(a, b1, phi)
    m_ba = _StateMoments(b1, a, phi)
    m_ab2 = _StateMoments(a, b2, phi)
    m_sum = _StateMoments(a, b1 + b2, phi)
    additivity = abs(m_sum.c - (m_ab.c + m_ab2.c))
    checks = [
        ("conjugate symmetry C(A,B) = conj(C(B,A))", abs(m_ab.c - m_ba.c.conjugate()), m_ab.scale),
        ("additivity C(A, B1+B2) = C(A,B1) + C(A,B2)", additivity, m_ab.scale + m_ab2.scale),
    ]
    if m_ab.pearson is not None:
        checks.append(("pearson symmetry r(A,B) = r(B,A)", abs(m_ab.pearson - m_ba.pearson), 1.0))
    holds = True
    for identity, residual, scale in checks:
        try:
            _check(identity, residual, scale)
        except ArithmeticError as exc:
            logger.warning("correlation identity violated: %s", exc)
            holds = False
    return holds


def correlation_record(
    a: Observable, b: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES
) -> CorrelationRecord:
    """Full correlation record; pearson/transition_prob absent on degenerate spreads."""
    m = _StateMoments(a, b, phi, tol)
    c, r = m.c, m.pearson
    return CorrelationRecord(
        c=c,
        cov_real=c.real,
        imag_part=c.imag,
        pearson=r,
        transition_prob=None if r is None else r * r,
    )
