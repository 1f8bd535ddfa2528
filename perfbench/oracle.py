"""Independent numpy oracle for the benchmark's output checks.

Every quantity is recomputed from raw complex arrays with the moment
formulas (``<F> = <phi|F|phi>``, ``<F^2> = ||F phi||^2``,
``C = <A phi|B phi> - <A><B>``), bypassing the package's validated objects
and its deviation-vector route.  Checks compare values, not hashes, so a
legitimate change of RNG scheme or CSV float formatting does not break them.
"""

from __future__ import annotations

import numpy as np

# Agreement between the program and the oracle, relative to the natural
# scale ||A|| * ||B|| of the pair (both sides round differently).
REL_TOL = 1e-9
# The program's default tolerances (core.Tolerances); the benchmark runs
# every workload with them.
TOL_ZERO = 1e-10
EPS_SPREAD = 1e-6


def moments(mat_a: np.ndarray, mat_b: np.ndarray, phis: np.ndarray):
    """Spreads and correlation for a batch of states (rows of ``phis``).

    Returns ``(delta_a, delta_b, c)``, each of length ``len(phis)``.
    """
    a_phi = phis @ mat_a.T
    b_phi = phis @ mat_b.T
    mean_a = np.einsum("ij,ij->i", phis.conj(), a_phi).real
    mean_b = np.einsum("ij,ij->i", phis.conj(), b_phi).real
    var_a = np.einsum("ij,ij->i", a_phi.conj(), a_phi).real - mean_a**2
    var_b = np.einsum("ij,ij->i", b_phi.conj(), b_phi).real - mean_b**2
    c = np.einsum("ij,ij->i", a_phi.conj(), b_phi) - mean_a * mean_b
    return np.sqrt(np.maximum(var_a, 0.0)), np.sqrt(np.maximum(var_b, 0.0)), c


def scale(mat_a: np.ndarray, mat_b: np.ndarray) -> float:
    """Absolute tolerance for values of the size of ``<AB>``."""
    return REL_TOL * max(1.0, float(np.linalg.norm(mat_a, 2) * np.linalg.norm(mat_b, 2)))


def near(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol


def _flag_ok(flag: bool, value: float, spreads_ok: bool) -> bool:
    """A membership flag must match the oracle unless the oracle value sits
    within a factor 10 of the zero tolerance, where rounding may decide."""
    if spreads_ok and TOL_ZERO / 10 < abs(value) < TOL_ZERO * 10:
        return True
    return flag == (spreads_ok and abs(value) <= TOL_ZERO)


def check_scan_csv(text: str, rows: int, dim: int, mat_a: np.ndarray, mat_b: np.ndarray) -> int:
    """Number of rows of a ``scan`` CSV that fail the oracle (missing rows fail).

    Per row: the index, a normalized state, ``re_c``/``im_c`` and Pearson
    ``r`` re-derived from the amplitudes, the eigenstate flags, and the
    flag consistency ``s_ab => s_comm and s_anti``.
    """
    lines = text.splitlines()
    n_amp = 2 * dim
    n_cols = 1 + n_amp + 8
    table = [line.split(",") for line in lines]
    body = table[1:]
    if len(body) != rows or any(len(f) != n_cols for f in table):
        return rows
    amps = np.array([f[1 : 1 + n_amp] for f in body], dtype=float)
    phis = amps[:, 0::2] + 1j * amps[:, 1::2]
    da, db, c = moments(mat_a, mat_b, phis)
    tol = scale(mat_a, mat_b)
    bad = 0
    for i, fields in enumerate(body):
        re_c, im_c, pearson = fields[1 + n_amp : 4 + n_amp]
        eigen_a, eigen_b, s_ab, s_comm, s_anti = (f == "1" for f in fields[4 + n_amp :])
        spreads_ok = da[i] > EPS_SPREAD and db[i] > EPS_SPREAD
        ok = (
            fields[0] == str(i)
            and abs(np.linalg.norm(phis[i]) - 1.0) <= 1e-12
            and near(float(re_c), c[i].real, tol)
            and near(float(im_c), c[i].imag, tol)
            and eigen_a == (da[i] <= EPS_SPREAD)
            and eigen_b == (db[i] <= EPS_SPREAD)
            and (not s_ab or (s_comm and s_anti))
            and _flag_ok(s_ab, abs(c[i]), spreads_ok)
            and _flag_ok(s_comm, c[i].imag, spreads_ok)
            and _flag_ok(s_anti, c[i].real, spreads_ok)
        )
        if ok and spreads_ok:
            ok = pearson != "" and near(float(pearson), abs(c[i]) / (da[i] * db[i]), 1e-8)
        elif ok:
            ok = pearson == ""
        bad += not ok
    return bad


def check_report(mat_a, mat_b, phi, report, record, cls, sums) -> bool:
    """hr <= |C| = Schrodinger <= dA*dB, each value checked against the oracle,
    plus the correlation record, the classification and the sum relations."""
    da, db, c = (v[0] for v in moments(mat_a, mat_b, phi[None, :]))
    comm = mat_a @ mat_b - mat_b @ mat_a
    hr = 0.5 * abs(np.vdot(phi, comm @ phi))
    sym = 0.5 * np.vdot(phi, (mat_a @ mat_b + mat_b @ mat_a) @ phi).real - (
        np.vdot(phi, mat_a @ phi).real * np.vdot(phi, mat_b @ phi).real
    )
    sch = float(np.hypot(sym, hr))
    d_sum = moments(mat_a + mat_b, mat_b, phi[None, :])[0][0]
    tol = scale(mat_a, mat_b)
    spreads_ok = da > EPS_SPREAD and db > EPS_SPREAD
    r = abs(c) / (da * db) if spreads_ok else None
    return bool(
        near(report.delta_a, da, tol)
        and near(report.delta_b, db, tol)
        and near(report.product, da * db, tol)
        and near(report.hr_bound, hr, tol)
        and near(report.schrodinger_bound, sch, tol)
        and near(report.general_bound, abs(c), tol)
        and hr <= abs(c) + tol
        and near(abs(c), sch, tol)
        and abs(c) <= da * db + tol
        and near(record.c.real, c.real, tol)
        and near(record.c.imag, c.imag, tol)
        and (record.pearson is None) == (r is None)
        and (r is None or near(record.pearson, r, 1e-8))
        and cls.eigen_a == (da <= EPS_SPREAD)
        and cls.eigen_b == (db <= EPS_SPREAD)
        and (not cls.in_s_ab or (cls.in_s_comm and cls.in_s_anti))
        and _flag_ok(cls.in_s_ab, abs(c), spreads_ok)
        and _flag_ok(cls.in_s_comm, c.imag, spreads_ok)
        and _flag_ok(cls.in_s_anti, c.real, spreads_ok)
        and near(sums.sum_of_spreads, da + db, tol)
        and near(sums.spread_of_sum, d_sum, tol)
        and sums.spread_of_sum <= sums.sum_of_spreads + tol
    )


def check_found(mat_a, mat_b, phi, spread_floor: float) -> bool:
    """The returned state has |C| <= tol_zero and both spreads >= the floor,
    with a rounding margin far below either threshold."""
    if abs(np.linalg.norm(phi) - 1.0) > 1e-12:
        return False
    da, db, c = (v[0] for v in moments(mat_a, mat_b, phi[None, :]))
    return bool(abs(c) <= TOL_ZERO + 1e-13 and da >= spread_floor - 1e-12 and db >= spread_floor - 1e-12)


def check_find_fields(mat_a, mat_b, phi, delta_a: float, delta_b: float) -> bool:
    """A ``find`` result, converged or not, holds a normalized state and
    reports that state's spreads."""
    if abs(np.linalg.norm(phi) - 1.0) > 1e-12:
        return False
    da, db, _ = (v[0] for v in moments(mat_a, mat_b, phi[None, :]))
    return near(delta_a, da, REL_TOL * max(1.0, float(np.linalg.norm(mat_a, 2)))) and near(
        delta_b, db, REL_TOL * max(1.0, float(np.linalg.norm(mat_b, 2)))
    )
