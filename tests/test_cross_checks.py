"""The internal cross-checks: each still runs, and each fires on broken input.

A non-Hermitian matrix smuggled past validation breaks the identities the
per-state functions assert; every such failure must surface as an
ArithmeticError that names the identity.  The recorded check sequences pin
which identities each public function asserts on valid input.
"""

import json

import numpy as np
import pytest

import uncertainty_lab as ul
from uncertainty_lab import cli, moments

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
    seen = []
    original = moments._check

    def record(identity, residual, tol, *args):
        seen.append(identity)
        original(identity, residual, tol, *args)

    monkeypatch.setattr(moments, "_check", record)
    return seen


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
