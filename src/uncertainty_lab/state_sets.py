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

``classify`` judges one state from the shared ``moments`` record, reading the
checked spreads, C and Pearson coefficient that several functions share, and
asserts the commutator identity, all through ``moments._check``; the record's
|<[A,B]>| is its commuting guard's certificate, so [A,B] is formed only at
states where that expectation does not prove the pair non-commuting.  A scan
(``membership_scan`` and the CLI ``scan``) judges a block of Haar-random
states at a time, and runs the same moment algebra (``moments._Moments``) as
the record: one matrix product gives A|phi>, B|phi>, A^dag|phi> and
B^dag|phi> of every row, and the algebra runs on (d, n) views of it, a state
per column, with the block primitives ``_COLUMNS`` and ``_check_rows``.  It
asserts the identities that ``classify`` asserts, in the same order, once per
block over all of the block's rows in the scan's range, so a failing check
raises before any row of its block is yielded; an empty range has no block.
The Pearson checks (``_Moments.pearson``) run there on the rows where neither
spread counts as zero.  Both take their flags from ``moments._flags``, built
on the spread and zero tests behind every verdict of the package.

Scan sample ``i`` is a pure function of ``(seed, i)``: its amplitudes come
from the counter-based generator Philox-4x64 (Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3", SC'11) at counters ``i * ceil(2d/4)`` on, by
one Box-Muller step per pair of words (``_rng_scheme``).  The counter wraps
at 2^256, so a scan whose last block would reach past it is refused.  Blocks
are aligned to multiples of a fixed row count, and each block's one matrix
product runs on the whole block (every later step is row by row), so not
even the rounding of a row depends on where a scan starts or how many
samples it takes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple

import numpy as np

from .core import (DEFAULT_TOLERANCES, Observable, StateVector, Tolerances, ValidationError,
                   _check_int)
from . import moments
from .moments import (_Moments, _Primitives, _c, _check_rows, _flags, _pearson, _refuse_commuting,
                      _require_pair, _shared, _spreads)

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
        return {**vars(self), "tolerances_used": self.tolerances_used.to_json_dict()}


@dataclass(frozen=True)
class ScanConfig:
    """Monte-Carlo scan over Haar-random states: samples ``start`` to
    ``start + samples - 1`` of the stream that ``seed`` determines."""

    samples: int
    seed: int
    tolerances: Tolerances = DEFAULT_TOLERANCES
    start: int = 0

    def __post_init__(self) -> None:
        for name in ("samples", "seed", "start"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), 0))
        if not isinstance(self.tolerances, Tolerances):
            raise ValidationError(f"tolerances must be a Tolerances, got {self.tolerances!r}")


def classify(
    a: Observable, b: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES
) -> ClassificationResult:
    """Classify one state for a non-commuting pair.

    Membership in ``s_comm`` is decided on Im C; the commutator expectation
    <[A,B]> = 2i Im C is computed independently and the two formulations are
    cross-checked against each other.  Deciding on Im C makes the inclusion
    s_ab => s_comm and s_anti hold structurally even at tolerance boundaries.
    """
    n = _shared(a, b, phi)
    _refuse_commuting(a, b, tol, 2.0 * n.hr, phi)
    spreads, c = _spreads(n), _c(n)
    n.commutator(moments._check, c)
    return ClassificationResult(*_flags(*spreads, c, tol), _pearson(n, spreads, c, tol), tol)


_BLOCK_AMPLITUDES = 4096  # a scan block holds max(1, 4096 // d) samples


class _ScanBlock(NamedTuple):
    """The classified rows of one scan block."""

    start: int  # sample index of the first row
    phis: np.ndarray  # (n, d) states
    c: np.ndarray  # (n,) correlation C, moment form
    pearson: np.ndarray  # (n,) Pearson coefficients, NaN on rows with an eigen flag
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


def _coldot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x_j|y_j> for every column j."""
    return np.einsum("ij,ij->j", x.conj(), y)


# the primitives of a block, whose states are the columns of (d, n) arrays
_COLUMNS = _Primitives(_coldot, functools.partial(np.linalg.norm, axis=0), np.hypot)


def _scan_blocks(a: Observable, b: Observable, config: ScanConfig) -> Iterator[_ScanBlock]:
    """The scan's rows, block by block; the guards, the float range of the
    pair, the seed and the sample range are checked once, eagerly, and the
    blocks stream lazily."""
    tol = config.tolerances
    _require_pair(a, b, tol)
    key = np.random.SeedSequence(config.seed).generate_state(2, np.uint64)
    dim = a.dim
    # A phi, B phi, A^dag phi and B^dag phi of a row phi, side by side
    operators = np.concatenate((a.matrix.T, b.matrix.T, a.matrix.conj(), b.matrix.conj()), axis=1)
    rows = max(1, _BLOCK_AMPLITUDES // dim)
    stop = config.start + config.samples
    # Philox counters wrap at 2^256: a block past it would repeat block 0's samples
    end = -(-stop // rows) * rows * _counter_steps(dim)
    if end > 2**256:
        raise ValidationError(
            f"samples up to {stop - 1} need Philox counters up to {end - 1}, "
            f"beyond the generator's 2^256"
        )

    def blocks() -> Iterator[_ScanBlock]:
        for first in range(config.start - config.start % rows, stop, rows):
            keep = slice(max(config.start - first, 0), min(stop - first, rows))
            yield _scan_block(_gaussian_rows(key, first, rows, dim), operators, first, keep, tol)

    # with no samples, range() above would still give the block holding ``start``
    return blocks() if config.samples else iter(())


def _scan_block(
    raw: np.ndarray, operators: np.ndarray, first: int, keep: slice, tol: Tolerances
) -> _ScanBlock:
    """Normalize, measure, check and classify the ``keep`` rows of a block.

    The normalization and the product with ``operators`` run on the whole
    block, whatever ``keep`` is: a matrix product may round a row differently
    in a block of another size (a one-row block takes another BLAS route).
    Every later step is row by row and runs on the ``keep`` rows only: the
    moment algebra, on the rows as columns, with its Pearson checks masked.
    """
    phis = raw / np.linalg.norm(raw, axis=1)[:, None]
    products = (phis @ operators)[keep]
    phis = phis[keep]
    norm = np.linalg.norm(phis, axis=1)
    if not np.all(np.abs(norm - 1.0) <= tol.tol_norm):
        worst = float(norm[np.argmax(np.abs(norm - 1.0))])
        raise ValidationError(f"state is not normalized: ||amps|| = {worst!r}")
    # the moment algebra on (d, n) views: A phi, B phi, A^dag phi and B^dag phi of each row
    n = _Moments(phis.T, *products.T.reshape(4, raw.shape[1], -1), _COLUMNS)
    da, db, c = n.a.spread(_check_rows), n.b.spread(_check_rows), n.correlation(_check_rows)
    n.commutator(_check_rows, c)
    flags = np.stack(_flags(da, db, c, tol), axis=1)
    spreads_ok = ~flags[:, :2].any(axis=1)
    r = n.pearson(_check_rows, np.where(spreads_ok, da * db, 1.0), c, spreads_ok)
    pearson = np.where(spreads_ok, np.minimum(r, 1.0), np.nan)
    return _ScanBlock(first + keep.start, phis, c, pearson, flags)


def membership_scan(
    a: Observable, b: Observable, config: ScanConfig
) -> Iterator[tuple[StateVector, ClassificationResult]]:
    """Classify Haar-random states drawn from the configured seed.

    Guards, the float range of the pair (``OverflowError``), the seed and
    the sample range (its last block must end within Philox's 2^256
    counters) are checked eagerly; the rows stream lazily, in blocks.
    Sample i is a pure function of (seed, i) (see the module docstring), so
    the rows are ordered by sample index and do not depend on how the index
    range is partitioned: scanning [0, n) gives the rows of [0, k) followed
    by those of [k, n), bit for bit.  The identities ``classify`` asserts
    are asserted once per block, over all of its rows in the range, so a
    failing check raises before any row of its block is yielded.
    """
    tol = config.tolerances
    return (
        (StateVector._wrap(phi), ClassificationResult(*flags, None if any(flags[:2]) else r, tol))
        for block in _scan_blocks(a, b, config)
        for phi, r, flags in zip(block.phis, block.pearson.tolist(), block.flags.tolist())
    )
