"""Shared test utilities: random instances and independent brute-force oracles.

The oracle functions work directly on raw numpy arrays via the moment
formulas, deliberately bypassing the package's validated objects and its
deviation-vector route, so that tests compare two independent computations.
"""

import numpy as np

import uncertainty_lab as ul
from uncertainty_lab import moments


def rand_hermitian(rng: np.random.Generator, dim: int) -> ul.Observable:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return ul.validate_observable((m + m.conj().T) / 2.0)


def rand_state(rng: np.random.Generator, dim: int) -> ul.StateVector:
    return ul.haar_state(dim, rng)


def oracle_expect(matrix: np.ndarray, vec: np.ndarray) -> complex:
    return complex(np.vdot(vec, matrix @ vec))


def oracle_std(matrix: np.ndarray, vec: np.ndarray) -> float:
    m1 = oracle_expect(matrix, vec).real
    m2 = oracle_expect(matrix @ matrix, vec).real
    return float(np.sqrt(max(m2 - m1 * m1, 0.0)))


def oracle_corr(mat_a: np.ndarray, mat_b: np.ndarray, vec: np.ndarray) -> complex:
    return (
        oracle_expect(mat_a @ mat_b, vec)
        - oracle_expect(mat_a, vec).real * oracle_expect(mat_b, vec).real
    )


def ks_distance(sample: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample and a continuous CDF."""
    x = np.sort(sample)
    n = len(x)
    f = cdf(x)
    return float(max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n)))


def ks_two_sample(x: np.ndarray, y: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between the empirical CDFs of two samples."""
    x, y = np.sort(x), np.sort(y)
    points = np.concatenate((x, y))
    fx = np.searchsorted(x, points, side="right") / len(x)
    fy = np.searchsorted(y, points, side="right") / len(y)
    return float(np.max(np.abs(fx - fy)))


def recorded_checks(monkeypatch) -> list:
    """The identities passed to ``moments._check`` from now on, in order; each
    check still runs."""
    seen = []
    check = moments._check

    def record(identity, *args):
        seen.append(identity)
        check(identity, *args)

    monkeypatch.setattr(moments, "_check", record)
    return seen


def pauli_pair() -> tuple[ul.Observable, ul.Observable]:
    sx = ul.validate_observable(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    sz = ul.validate_observable(np.diag([1.0, -1.0]).astype(complex))
    return sx, sz


def scan_csv_rows(block) -> bytes:
    """The CSV rows of a scan block as version 0.10.0 wrote them, with one
    ``repr`` per number: the oracle for the CLI's block formatter."""
    n = len(block.c)
    numbers = np.concatenate((block.phis.view(float), block.c.view(float).reshape(n, 2)), axis=1)
    flags = np.where(block.flags, "1", "0").tolist()
    lines = []
    for index, values, pearson, row_flags in zip(
        range(block.start, block.start + n), numbers.tolist(), block.pearson.tolist(), flags
    ):
        # an eigen flag leaves the Pearson field blank
        r = "" if "1" in row_flags[:2] else repr(pearson)
        lines.append(f"{index},{','.join(map(repr, values))},{r},{','.join(row_flags)}\n")
    return "".join(lines).encode()
