"""The internal cross-checks: each still runs, and each fires on broken input.

A non-Hermitian matrix smuggled past validation breaks the identities the
per-state functions assert; every such failure must surface as an
ArithmeticError that names the identity.  The recorded check sequences pin
which identities each public function asserts on valid input.
"""

import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import uncertainty_lab as ul
from uncertainty_lab import cli, moments
from helpers import rand_hermitian, rand_state, recorded_checks

VARIANCE = "variance: norm form = moment form"
C_FORMS = "correlation: moment form = deviation form"
OVERLAP = "pearson: |C| / (dA dB) = direction overlap"
PEARSON_MAX = "pearson <= 1"
SCHRODINGER = "Schrodinger bound = |C|"
COMMUTATOR = "|<[A,B]>| = 2|Im C|"
CHAIN = [
    "commutator bound <= Schrodinger bound",
    "Schrodinger bound = |C| in the bound chain",
    "commutator bound <= dA dB",
    "|C| <= dA dB",
]
DECOMPOSITION = "decomposition terms sum to pearson^2"
PYTHAGORAS = "orthogonal deviations: d(A+B)^2 = dA^2 + dB^2"
TRIANGLES = [
    "triangle inequality dA + dB >= d(A+B)",
    "squared triangle inequality dA^2 + dB^2 >= d(A+B)^2 / 2",
]


@pytest.fixture
def nilpotent() -> ul.Observable:
    return ul.Observable._wrap(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex))


@pytest.mark.parametrize(
    "func, identity",
    [(ul.evaluate, VARIANCE), (ul.correlation, C_FORMS), (ul.classify, VARIANCE)],
)
def test_non_hermitian_input_fires_a_named_check(nilpotent, l4, phi2, func, identity):
    with pytest.raises(ArithmeticError) as info:
        func(nilpotent, l4, phi2)
    message = str(info.value)
    assert message.startswith(identity)
    assert "residual" in message and "tolerance" in message


def test_non_hermitian_input_fails_a_scan(nilpotent, l4, tmp_path, monkeypatch, capsys):
    config = ul.ScanConfig(samples=10, seed=1)
    with pytest.raises(ArithmeticError, match=r"^variance: norm form = moment form fails"):
        list(ul.membership_scan(nilpotent, l4, config))
    # the CLI validates its inputs, so the matrix is smuggled past the loader
    paths = []
    for name, obs in (("n", nilpotent), ("l4", l4)):
        paths.append(str(tmp_path / f"{name}.json"))
        (tmp_path / f"{name}.json").write_text(json.dumps(ul.observable_to_json_dict(obs)))
    monkeypatch.setattr(
        cli,
        "observable_from_json_dict",
        lambda doc, tol: ul.Observable._wrap(
            np.array([[complex(*z) for z in row] for row in doc["entries"]])
        ),
    )
    out = tmp_path / "scan.csv"
    assert cli.main(["scan", *paths, "--samples", "10", "--out", str(out)]) == 4
    assert VARIANCE in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def recorded(monkeypatch):
    return recorded_checks(monkeypatch)


def test_each_function_asserts_its_identities_once(recorded, l3, l4, phi2):
    expected = {
        ul.std_dev: [VARIANCE],
        ul.correlation: [C_FORMS],
        ul.hr_bound: [],
        ul.schrodinger_bound: [C_FORMS, SCHRODINGER],
        ul.pearson: [VARIANCE, VARIANCE, C_FORMS, OVERLAP, PEARSON_MAX],
        ul.decomposition: [VARIANCE, VARIANCE, C_FORMS, OVERLAP, PEARSON_MAX, DECOMPOSITION],
        ul.correlation_record: [C_FORMS, VARIANCE, VARIANCE, OVERLAP, PEARSON_MAX],
        ul.evaluate: [VARIANCE, VARIANCE, C_FORMS, SCHRODINGER] + CHAIN,
        ul.classify: [VARIANCE, VARIANCE, C_FORMS, COMMUTATOR, OVERLAP, PEARSON_MAX],
        ul.sum_relations: [VARIANCE] * 3 + TRIANGLES,
    }
    for func, identities in expected.items():
        recorded.clear()
        func(l3, phi2) if func is ul.std_dev else func(l3, l4, phi2)
        assert recorded == identities, func.__name__


def test_an_eigenstate_asserts_what_each_function_reads(recorded, l3, l4):
    # (1, 0, 0) is an eigenvector of lambda3: no Pearson coefficient, so no
    # Pearson checks, and pearson and decomposition raise before reading C
    phi = ul.StateVector([1.0, 0.0, 0.0])
    expected = {
        ul.correlation: [C_FORMS],
        ul.schrodinger_bound: [C_FORMS, SCHRODINGER],
        ul.correlation_record: [C_FORMS, VARIANCE, VARIANCE],
        ul.evaluate: [VARIANCE, VARIANCE, C_FORMS, SCHRODINGER] + CHAIN,
        ul.classify: [VARIANCE, VARIANCE, C_FORMS, COMMUTATOR],
        ul.sum_relations: [VARIANCE] * 3 + TRIANGLES,
        ul.verify_candidate: [C_FORMS, VARIANCE, VARIANCE],
    }
    for func, identities in expected.items():
        recorded.clear()
        func(l3, l4, phi)
        assert recorded == identities, func.__name__
    for func in (ul.pearson, ul.decomposition):
        recorded.clear()
        with pytest.raises(ul.DegenerateSpread):
            func(l3, l4, phi)
        assert recorded == [VARIANCE, VARIANCE], func.__name__


def test_each_scan_block_asserts_the_classify_identities_once(recorded, l3, l4):
    per_block = [VARIANCE, VARIANCE, C_FORMS, COMMUTATOR, OVERLAP, PEARSON_MAX]
    assert len(list(ul.membership_scan(l3, l4, ul.ScanConfig(samples=30, seed=2)))) == 30
    assert recorded == per_block
    recorded.clear()
    # d = 64: blocks of 64 rows; rows 60 to 139 span three of them
    rng = np.random.default_rng(64)
    a, b = (ul.validate_observable((m + m.conj().T) / 2) for m in (
        rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)) for _ in range(2)))
    list(ul.membership_scan(a, b, ul.ScanConfig(samples=80, seed=2, start=60)))
    assert recorded == per_block * 3


def test_zero_correlation_state_asserts_pythagoras(recorded, l3, l4):
    phi1 = ul.two_level_state(1, 1)
    report = ul.sum_relations(l3, l4, phi1)
    assert report.degenerate is ul.Degeneracy.PYTHAGORAS
    assert recorded == [VARIANCE] * 3 + [PYTHAGORAS] + TRIANGLES
    recorded.clear()
    assert ul.verify_candidate(l3, l4, phi1)
    assert recorded == [C_FORMS, VARIANCE, VARIANCE]


PER_STATE = [
    ul.std_dev, ul.correlation, ul.hr_bound, ul.schrodinger_bound, ul.pearson,
    ul.decomposition, ul.correlation_record, ul.evaluate, ul.classify, ul.sum_relations,
]


def call(func, a, b, phi, *tol):
    return func(a, phi, *tol) if func is ul.std_dev else func(a, b, phi, *tol)


def copies(a, b, phi):
    return ul.Observable(a.matrix), ul.Observable(b.matrix), ul.StateVector(phi.amps)


def test_calls_sharing_a_triple_assert_what_cold_calls_assert(recorded, l3, l4, phi2):
    cold = {}
    for func in PER_STATE:
        recorded.clear()
        call(func, *copies(l3, l4, phi2))
        cold[func] = list(recorded)
    for func in PER_STATE + PER_STATE + PER_STATE[::-1]:
        recorded.clear()
        call(func, l3, l4, phi2)
        assert recorded == cold[func], func.__name__


def test_a_shared_record_does_not_swallow_a_failure(nilpotent, l4, phi2):
    moments._shared.cache_clear()
    expected = [(ul.evaluate, VARIANCE), (ul.classify, VARIANCE), (ul.correlation, C_FORMS)]
    for func, identity in expected * 2:
        with pytest.raises(ArithmeticError, match=f"^{re.escape(identity)} fails"):
            func(nilpotent, l4, phi2)
    info = moments._shared.cache_info()
    assert (info.misses, info.hits) == (1, 5)


def test_results_match_calls_on_fresh_copies_whatever_the_tolerances(rng):
    loose = ul.Tolerances(eps_spread=0.6)
    funcs = (ul.evaluate, ul.classify, ul.correlation_record, ul.sum_relations)
    calls = [(func, tol) for func in funcs for tol in (ul.DEFAULT_TOLERANCES, loose)]
    for dim in (2, 3, 8, 64):
        a, b, phi = rand_hermitian(rng, dim), rand_hermitian(rng, dim), rand_state(rng, dim)
        b = b * (0.3 / ul.std_dev(b, phi))  # dB = 0.3: a spread only under the default tolerances
        for order in (calls, calls[::-1]):
            shared = [repr(func(a, b, phi, tol)) for func, tol in order]
            fresh = [repr(func(*copies(a, b, phi), tol)) for func, tol in order]
            assert shared == fresh
        assert ul.classify(a, b, phi, loose).eigen_b and not ul.classify(a, b, phi).eigen_b


def test_threads_sharing_triples_match_the_serial_results(rng):
    triples = [(rand_hermitian(rng, d), rand_hermitian(rng, d), rand_state(rng, d))
               for d in (2, 3, 4, 8, 64) for _ in range(2)]
    funcs = (ul.evaluate, ul.correlation_record, ul.classify, ul.sum_relations, ul.pearson)

    def results(order):
        return [(i, [repr(f(*triples[i])) for f in funcs]) for i in order]

    serial = dict(results(range(len(triples))))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            orders = [[(i + k) % len(triples) for i in range(len(triples))] * 5 for k in range(4)]
            threaded = list(pool.map(results, orders, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(got == serial[i] for rows in threaded for i, got in rows)
