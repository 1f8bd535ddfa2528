"""Classification of states by which parts of the correlation function vanish.

For a fixed non-commuting pair (A, B), a state with both spreads positive is
classified into three (overlapping) sets:

* ``s_ab``:   |C(A,B)| = 0 -- the deviation vectors are orthogonal, the lower
  bound on dA * dB is zero, and the observables are uncorrelated;
* ``s_comm``: Im C(A,B) = 0, equivalently <[A,B]> = 0 -- the commutator bound
  collapses while the correlation bound may stay positive;
* ``s_anti``: Re C(A,B) = 0 -- the classical covariance vanishes.

``s_ab`` is the intersection of the other two, and membership is always
relative to the zero tolerance recorded in the result.  Eigenstates of A or B
are excluded from all three sets by definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from .core import DEFAULT_TOLERANCES, Observable, StateVector, Tolerances, haar_state
from .moments import _PairContext, _StateMoments

__all__ = ["ClassificationResult", "ScanConfig", "classify", "membership_scan"]


@dataclass(frozen=True)
class ClassificationResult:
    """Membership flags for one state, with the tolerances that produced them."""

    eigen_a: bool
    eigen_b: bool
    in_s_ab: bool
    in_s_comm: bool
    in_s_anti: bool
    pearson: float | None
    tolerances_used: Tolerances

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "eigen_a": self.eigen_a,
            "eigen_b": self.eigen_b,
            "in_s_ab": self.in_s_ab,
            "in_s_comm": self.in_s_comm,
            "in_s_anti": self.in_s_anti,
            "pearson": self.pearson,
            "tolerances_used": self.tolerances_used.to_json_dict(),
        }


@dataclass(frozen=True)
class ScanConfig:
    """Monte-Carlo scan over Haar-random states; deterministic per seed."""

    samples: int
    seed: int
    tolerances: Tolerances = DEFAULT_TOLERANCES

    def __post_init__(self) -> None:
        if self.samples < 0:
            raise ValueError(f"samples must be nonnegative, got {self.samples}")


def classify(
    a: Observable, b: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES
) -> ClassificationResult:
    """Classify one state for a non-commuting pair.

    Membership in ``s_comm`` is decided on Im C; the commutator expectation
    <[A,B]> = 2i Im C is computed independently and the two formulations are
    cross-checked against each other.  Deciding on Im C makes the inclusion
    s_ab => s_comm and s_anti hold structurally even at tolerance boundaries.
    """
    m = _StateMoments(_PairContext(a, b), phi, tol)
    m.pair.require_noncommuting(tol)
    return _classification(m)


def _classification(m: _StateMoments) -> ClassificationResult:
    tol = m.tol
    eigen_a = m.a.spread <= tol.eps_spread
    eigen_b = m.b.spread <= tol.eps_spread
    spreads_ok = not eigen_a and not eigen_b
    m.check_commutator()
    c = m.c
    return ClassificationResult(
        eigen_a=eigen_a,
        eigen_b=eigen_b,
        in_s_ab=spreads_ok and abs(c) <= tol.tol_zero,
        in_s_comm=spreads_ok and abs(c.imag) <= tol.tol_zero,
        in_s_anti=spreads_ok and abs(c.real) <= tol.tol_zero,
        pearson=m.pearson,
        tolerances_used=tol,
    )


def _classified_rows(
    a: Observable, b: Observable, config: ScanConfig
) -> Iterator[tuple[StateVector, _StateMoments, ClassificationResult]]:
    """Scan rows with the record each classification was read from; the guard
    runs, and [A,B] is built, once per scan."""
    pair = _PairContext(a, b)
    pair.require_noncommuting(config.tolerances)

    def rows() -> Iterator[tuple[StateVector, _StateMoments, ClassificationResult]]:
        for index in range(config.samples):
            phi = haar_state(a.dim, np.random.default_rng((config.seed, index)))
            m = _StateMoments(pair, phi, config.tolerances)
            yield phi, m, _classification(m)

    return rows()


def membership_scan(
    a: Observable, b: Observable, config: ScanConfig
) -> Iterator[tuple[StateVector, ClassificationResult]]:
    """Classify Haar-random states drawn from the configured seed.

    Guards are checked eagerly; the rows stream lazily.  Sample i is
    generated from an RNG substream keyed by (seed, i), so the output is
    deterministic, independent of how the index range might be partitioned
    across workers, and ordered by sample index.
    """
    return ((phi, cls) for phi, _, cls in _classified_rows(a, b, config))
