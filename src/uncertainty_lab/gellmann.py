"""Generalized Gell-Mann matrices and the reference example states.

``gell_mann(d)`` builds the d^2 - 1 traceless Hermitian generators in three
families, ordered as: all symmetric pairs (j < k, lexicographic), then all
antisymmetric pairs, then the diagonal matrices.  They satisfy
``trace(g_i g_j) = 2 delta_ij``, and at d = 2 reduce to the Pauli matrices
(sigma_x, sigma_y, sigma_z).

Sign convention: the antisymmetric generator for the pair (j, k) is
``-i |j><k| + i |k><j|``, except the (1, 3) generator at d = 3, which is
negated so that ``su3_lambda(5)`` is

    [[0, 0, i], [0, 0, 0], [-i, 0, 0]]

and the commutator identity reads [lambda_3, lambda_4] = -i lambda_5.  This
is the negative of the more common textbook matrix; the commutator golden
tests in this package are written against it, and the choice is recorded in
``GellMannBasis.note``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import Observable, StateVector, ValidationError, _check_int

__all__ = [
    "GellMannBasis",
    "gell_mann",
    "su3_lambda",
    "two_level_state",
    "uniform_superposition",
]

_D3_NOTE = (
    "antisymmetric generators use -i|j><k| + i|k><j| (j < k); at d = 3 the "
    "(1, 3) generator is negated, so lambda_5 = [[0,0,i],[0,0,0],[-i,0,0]], "
    "the negative of the common convention, and [lambda_3, lambda_4] = -i lambda_5"
)
_GENERIC_NOTE = "antisymmetric generators use -i|j><k| + i|k><j| (j < k)"


@dataclass(frozen=True)
class GellMannBasis:
    """Ordered basis: symmetric pairs, antisymmetric pairs, then diagonals."""

    dim: int
    matrices: tuple[Observable, ...]
    note: str

    def _pair_offset(self, j: int, k: int) -> int:
        d = self.dim
        if not (_check_int("j", j, 1) < _check_int("k", k, 1) <= d):
            raise ValidationError(f"need 1 <= j < k <= {d}, got ({j}, {k})")
        return (j - 1) * d - (j - 1) * j // 2 + (k - j - 1)

    def symmetric(self, j: int, k: int) -> Observable:
        """|j><k| + |k><j| for 1 <= j < k <= dim."""
        return self.matrices[self._pair_offset(j, k)]

    def antisymmetric(self, j: int, k: int) -> Observable:
        """The antisymmetric generator for the pair (j, k); see module note."""
        return self.matrices[self.dim * (self.dim - 1) // 2 + self._pair_offset(j, k)]

    def diagonal(self, l: int) -> Observable:
        """sqrt(2/(l(l+1))) diag(1, ..., 1, -l, 0, ..., 0) with l ones."""
        if _check_int("l", l, 1) > self.dim - 1:
            raise ValidationError(f"need 1 <= l <= {self.dim - 1}, got {l}")
        return self.matrices[self.dim * (self.dim - 1) + l - 1]


def _matrices(dim: int) -> Iterator[np.ndarray]:
    """The matrices of ``gell_mann(dim)``, in its order, built one at a time."""
    pairs = [(j, k) for j in range(dim - 1) for k in range(j + 1, dim)]
    for j, k in pairs:
        s = np.zeros((dim, dim), dtype=np.complex128)
        s[j, k] = 1.0
        s[k, j] = 1.0
        yield s
    for j, k in pairs:
        a = np.zeros((dim, dim), dtype=np.complex128)
        a[j, k] = -1.0j
        a[k, j] = 1.0j
        yield -a if dim == 3 and (j, k) == (0, 2) else a
    for l in range(1, dim):
        entries = np.zeros(dim, dtype=np.complex128)
        entries[:l] = 1.0
        entries[l] = -l
        yield np.sqrt(2.0 / (l * (l + 1))) * np.diag(entries)


def gell_mann(dim: int) -> GellMannBasis:
    """Generalized Gell-Mann basis of dimension ``dim`` (at least 2)."""
    dim = _check_int("dim", dim, 2)
    return GellMannBasis(
        dim=dim,
        matrices=tuple(map(Observable._wrap, _matrices(dim))),
        note=_D3_NOTE if dim == 3 else _GENERIC_NOTE,
    )


# Position in ``gell_mann(3).matrices`` of lambda_1..lambda_8 (standard
# numbering): symmetric (1,2), (1,3), (2,3) are 0-2, antisymmetric 3-5,
# diagonals 6-7.
_SU3_ORDER = (0, 3, 6, 1, 4, 2, 5, 7)


def su3_lambda(k: int) -> Observable:
    """The d = 3 matrix lambda_k (k = 1..8) in standard numbering.

    lambda_5 follows this package's sign convention (see module docstring).
    """
    if _check_int("lambda index k", k, 1) > 8:
        raise ValidationError(f"lambda index k must be 1..8, got {k}")
    return Observable._wrap(next(itertools.islice(_matrices(3), _SU3_ORDER[k - 1], None)))


def two_level_state(a: complex, b: complex) -> StateVector:
    """Qutrit state (a, b, 0) / N supported on the first two basis vectors.

    For the pair (lambda_3, lambda_4) every such state with a != 0 and b != 0
    has zero correlation while both spreads stay positive.
    """
    if a == 0 and b == 0:
        raise ValidationError("two_level_state needs a and b not both zero")
    return StateVector.normalized(np.array([a, b, 0.0], dtype=np.complex128))


def uniform_superposition(dim: int = 3) -> StateVector:
    """The state (1, ..., 1) / sqrt(dim)."""
    return StateVector.normalized(np.ones(_check_int("dim", dim, 1), dtype=np.complex128))
