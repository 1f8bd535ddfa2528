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

``classify`` judges one state from its ``_StateMoments`` record.  A scan
(``membership_scan`` and the CLI ``scan``) judges a block of Haar-random
states at a time with one batched kernel.  It asserts the identities that
``classify`` asserts, in the same order, once per block over all of the
block's rows in the scan's range, so a failing check raises before any row
of its block is yielded.  Both decide membership by one rule, ``_flags``.

Scan sample ``i`` is a pure function of ``(seed, i)``: its amplitudes come
from the counter-based generator Philox-4x64 (Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3", SC'11) at counters ``i * ceil(2d/4)`` on, by
one Box-Muller step per pair of words (``_rng_scheme``).  Blocks are aligned
to multiples of a fixed row count and always computed whole, so not even the
rounding of a row depends on where a scan starts or how many samples it
takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple

import numpy as np

from .core import DEFAULT_TOLERANCES, Observable, StateVector, Tolerances, ValidationError
from .moments import (
    _C_FORMS,
    _COMMUTATOR,
    _OVERLAP,
    _PEARSON_MAX,
    _VARIANCE,
    _check_rows,
    _require_noncommuting,
    _StateMoments,
)

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
    """Monte-Carlo scan over Haar-random states: samples ``start`` to
    ``start + samples - 1`` of the stream that ``seed`` determines."""

    samples: int
    seed: int
    tolerances: Tolerances = DEFAULT_TOLERANCES
    start: int = 0

    def __post_init__(self) -> None:
        if self.samples < 0:
            raise ValueError(f"samples must be nonnegative, got {self.samples}")
        if self.start < 0:
            raise ValueError(f"start must be nonnegative, got {self.start}")


def _flags(spread_a, spread_b, c, tol: Tolerances) -> tuple:
    """(eigen_a, eigen_b, in_s_ab, in_s_comm, in_s_anti) of one state, or of
    a block of states when the arguments are arrays."""
    spreads_ok = (spread_a > tol.eps_spread) & (spread_b > tol.eps_spread)
    return (
        spread_a <= tol.eps_spread,
        spread_b <= tol.eps_spread,
        spreads_ok & (abs(c) <= tol.tol_zero),
        spreads_ok & (abs(c.imag) <= tol.tol_zero),
        spreads_ok & (abs(c.real) <= tol.tol_zero),
    )


def classify(
    a: Observable, b: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES
) -> ClassificationResult:
    """Classify one state for a non-commuting pair.

    Membership in ``s_comm`` is decided on Im C; the commutator expectation
    <[A,B]> = 2i Im C is computed independently and the two formulations are
    cross-checked against each other.  Deciding on Im C makes the inclusion
    s_ab => s_comm and s_anti hold structurally even at tolerance boundaries.
    """
    m = _StateMoments(a, b, phi, tol)
    _require_noncommuting(a, b, tol)
    spread_a, spread_b = m.a.spread, m.b.spread
    m.check_commutator()
    return ClassificationResult(*_flags(spread_a, spread_b, m.c, tol), m.pearson, tol)


_BLOCK_AMPLITUDES = 4096  # a scan block holds max(1, 4096 // d) samples


class _ScanBlock(NamedTuple):
    """The classified rows of one scan block."""

    start: int  # sample index of the first row
    phis: np.ndarray  # (n, d) states
    c: np.ndarray  # (n,) correlation C, moment form
    pearson: list  # n Pearson coefficients, None where a spread is below eps_spread
    flags: np.ndarray  # (n, 5) class flags in ``ClassificationResult`` order


def _counter_steps(dim: int) -> int:
    """Philox counter steps per sample: each gives four words, a sample needs 2d."""
    return -(-2 * dim // 4)


def _gaussian_rows(key: np.ndarray, first: int, rows: int, dim: int) -> np.ndarray:
    """Complex Gaussian amplitudes of samples ``first`` to ``first + rows - 1``:
    each uses the first 2d words of its counter steps, as pairs (u1, u2) in
    (0, 1], each pair giving ``sqrt(-2 ln u1) exp(2 pi i u2)``."""
    steps = _counter_steps(dim)
    words = np.random.Philox(key=key, counter=first * steps).random_raw(rows * 4 * steps)
    u = ((words.reshape(rows, 4 * steps)[:, : 2 * dim] >> 11) + 1) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u[:, 0::2])) * np.exp(2j * np.pi * u[:, 1::2])


def _rng_scheme(dim: int) -> dict[str, Any]:
    """How ``_gaussian_rows`` draws scan samples at dimension ``dim``, for manifests."""
    return {
        "generator": "Philox-4x64 (numpy.random.Philox)",
        "key": "numpy.random.SeedSequence(seed).generate_state(2, numpy.uint64)",
        "counter_stride": _counter_steps(dim),
        "counter_of_sample": "index * counter_stride",
        "transform": "Box-Muller: amplitude = sqrt(-2 ln u1) exp(2 pi i u2) per word pair, "
        "u = ((word >> 11) + 1) / 2^53",
    }


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x_i|y_i> for every row i."""
    return np.einsum("ij,ij->i", x.conj(), y)


def _scan_blocks(a: Observable, b: Observable, config: ScanConfig) -> Iterator[_ScanBlock]:
    """The scan's rows, block by block; the guards and the seed are checked
    once, eagerly, and the blocks stream lazily."""
    tol = config.tolerances
    _require_noncommuting(a, b, tol)
    key = np.random.SeedSequence(config.seed).generate_state(2, np.uint64)
    dim = a.dim
    # A phi, B phi, A^dag phi and B^dag phi of a row phi, side by side
    operators = np.concatenate((a.matrix.T, b.matrix.T, a.matrix.conj(), b.matrix.conj()), axis=1)
    rows = max(1, _BLOCK_AMPLITUDES // dim)
    stop = config.start + config.samples

    def blocks() -> Iterator[_ScanBlock]:
        for first in range(config.start - config.start % rows, stop, rows):
            keep = slice(max(config.start - first, 0), min(stop - first, rows))
            yield _scan_block(_gaussian_rows(key, first, rows, dim), operators, first, keep, tol)

    return blocks()


def _scan_block(
    raw: np.ndarray, operators: np.ndarray, first: int, keep: slice, tol: Tolerances
) -> _ScanBlock:
    """Normalize, measure, check and classify the ``keep`` rows of a block.

    Every step up to the row slicing runs on the whole block, whatever
    ``keep`` is: matrix products may round a row differently in a block of
    another size (a one-row block takes another BLAS route).
    """
    n, dim = raw.shape
    phis = raw / np.linalg.norm(raw, axis=1)[:, None]
    a_phi, b_phi, adj_a, adj_b = (phis @ operators).reshape(n, 4, dim).transpose(1, 0, 2)
    mean_a, mean_b = _rowdot(phis, a_phi).real, _rowdot(phis, b_phi).real
    dev_a, dev_b = a_phi - mean_a[:, None] * phis, b_phi - mean_b[:, None] * phis
    rowwise = (
        phis,
        np.linalg.norm(phis, axis=1),
        mean_a,
        mean_b,
        np.linalg.norm(dev_a, axis=1),
        np.linalg.norm(dev_b, axis=1),
        _rowdot(adj_a, a_phi).real,  # <A^2> = <A^dag phi|A phi>
        _rowdot(adj_b, b_phi).real,
        _rowdot(adj_a, b_phi) - mean_a * mean_b,  # C = <AB> - <A><B>
        _rowdot(dev_a, dev_b),  # C in deviation form
        0.5 * np.abs(_rowdot(adj_a, b_phi) - _rowdot(adj_b, a_phi)),  # |<[A,B]>| / 2
    )
    phis, norm, mean_a, mean_b, da, db, a2, b2, c, overlap, hr = (x[keep] for x in rowwise)
    if not np.all(np.abs(norm - 1.0) <= tol.tol_norm):
        worst = float(norm[np.argmax(np.abs(norm - 1.0))])
        raise ValidationError(f"state is not normalized: ||amps|| = {worst!r}")
    # ||A phi|| ||B phi||, the scale of the pair checks (see moments)
    scale = np.hypot(mean_a, da) * np.hypot(mean_b, db)
    _check_rows(_VARIANCE, np.abs(da**2 - (a2 - mean_a * mean_a)), np.abs(a2))
    _check_rows(_VARIANCE, np.abs(db**2 - (b2 - mean_b * mean_b)), np.abs(b2))
    _check_rows(_C_FORMS, np.abs(c - overlap), scale)
    _check_rows(_COMMUTATOR, np.abs(2.0 * hr - 2.0 * np.abs(c.imag)), scale)
    flags = _flags(da, db, c, tol)
    spreads_ok = ~(flags[0] | flags[1])
    product = np.where(spreads_ok, da * db, 1.0)
    r = np.abs(c) / product
    _check_rows(_OVERLAP, np.where(spreads_ok, np.abs(r - np.abs(overlap) / product), 0.0), 1.0)
    _check_rows(_PEARSON_MAX, np.where(spreads_ok, r - 1.0, 0.0), 1.0, error=ValidationError)
    pearson = [
        p if ok else None for p, ok in zip(np.minimum(r, 1.0).tolist(), spreads_ok.tolist())
    ]
    return _ScanBlock(first + keep.start, phis, c, pearson, np.stack(flags, axis=1))


def membership_scan(
    a: Observable, b: Observable, config: ScanConfig
) -> Iterator[tuple[StateVector, ClassificationResult]]:
    """Classify Haar-random states drawn from the configured seed.

    Guards and the seed are checked eagerly; the rows stream lazily, in
    blocks.  Sample i is a pure function of (seed, i) (see the module
    docstring), so the rows are ordered by sample index and do not depend on
    how the index range is partitioned: scanning [0, n) gives the rows of
    [0, k) followed by those of [k, n), bit for bit.  The identities
    ``classify`` asserts are asserted once per block, over all of its rows
    in the range, so a failing check raises before any row of its block is
    yielded.
    """
    tol = config.tolerances
    return (
        (StateVector._wrap(phi), ClassificationResult(*flags, pearson, tol))
        for block in _scan_blocks(a, b, config)
        for phi, pearson, flags in zip(block.phis, block.pearson, block.flags.tolist())
    )
