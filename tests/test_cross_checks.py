"""The internal cross-checks: each still runs, and each fires on broken input.

A non-Hermitian matrix smuggled past validation breaks the identities the
per-state functions assert; every such failure must surface as an
ArithmeticError that names the identity.  The recorded check sequences pin
which identities each public function asserts on valid input.
"""

import numpy as np
import pytest

import uncertainty_lab as ul
from uncertainty_lab import moments

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


def test_zero_correlation_state_asserts_pythagoras(recorded, l3, l4):
    phi1 = ul.two_level_state(1, 1)
    report = ul.sum_relations(l3, l4, phi1)
    assert report.degenerate is ul.Degeneracy.PYTHAGORAS
    assert recorded == [VARIANCE] * 3 + [PYTHAGORAS] + TRIANGLES
    recorded.clear()
    assert ul.verify_candidate(l3, l4, phi1)
    assert recorded == [C_FORMS, VARIANCE, VARIANCE]
