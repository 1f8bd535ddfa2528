"""Uncertainty relations for a pair of observables in a pure state.

Three lower bounds on the product of spreads dA * dB are evaluated, from
weakest to strongest:

* commutator bound:   |<[A,B]>| / 2
* anticommutator form: sqrt((<AB+BA>/2 - <A><B>)^2 + (|<[A,B]>|/2)^2)
* correlation form:   |C(A,B)| = |<AB> - <A><B>|

The last two are the same number written differently; each is computed by its
own route and the identity between them is asserted as a cross-check rather
than assumed.  Triangle-inequality sum relations (dA + dB >= d(A+B) and its
squared variant) are reported with a diagnosis of the two degenerate cases:
an eigenstate input, which makes them trivial, and orthogonal deviation
vectors, which make the spread of the sum exactly Pythagorean.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Sequence

from .core import DEFAULT_TOLERANCES, Observable, StateVector, Tolerances
from . import moments
from .moments import (_SUM_TOL, _c, _is_eigen, _is_tight, _is_zero, _schrodinger, _shared,
                      _spreads, std_dev)

__all__ = [
    "Degeneracy",
    "REPORT_CSV_HEADER",
    "SumRelationReport",
    "UncertaintyReport",
    "evaluate",
    "hr_bound",
    "report_csv_row",
    "schrodinger_bound",
    "sum_relation_n",
    "sum_relations",
]


@dataclass(frozen=True)
class UncertaintyReport:
    """Spreads, bounds and slacks for one (A, B, phi) evaluation."""

    delta_a: float
    delta_b: float
    product: float
    hr_bound: float
    schrodinger_bound: float
    general_bound: float
    slack_hr: float
    slack_general: float
    tight: bool

    def to_json_dict(self) -> dict[str, Any]:
        return dict(vars(self))


class Degeneracy(str, enum.Enum):
    NONE = "none"
    EIGENSTATE_TRIVIAL = "eigenstate_trivial"
    PYTHAGORAS = "pythagoras"


@dataclass(frozen=True)
class SumRelationReport:
    """Triangle-inequality relations between the spreads of A, B and A + B."""

    sum_of_spreads: float
    spread_of_sum: float
    quad_lhs: float
    quad_rhs: float
    degenerate: Degeneracy

    def to_json_dict(self) -> dict[str, Any]:
        return {**vars(self), "degenerate": self.degenerate.value}


def hr_bound(a: Observable, b: Observable, phi: StateVector) -> float:
    """Commutator lower bound |<phi|[A,B]|phi>| / 2."""
    return _shared(a, b, phi).hr


def schrodinger_bound(a: Observable, b: Observable, phi: StateVector) -> float:
    """sqrt((<AB+BA>/2 - <A><B>)^2 + (|<[A,B]>|/2)^2).

    Computed from <{A,B}> and <[A,B]>, read off <A^dag phi|B phi> and <B^dag phi|A phi>,
    then cross-checked against |C(A,B)|, to which it is identically equal.
    """
    n = _shared(a, b, phi)
    return _schrodinger(n, _c(n))


def evaluate(
    a: Observable, b: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES
) -> UncertaintyReport:
    """Evaluate every bound for (A, B, phi) and assert the chain between them."""
    n = _shared(a, b, phi)
    delta_a, delta_b = _spreads(n)
    product = delta_a * delta_b
    c = _c(n)
    hr, sch, general, scale = n.hr, _schrodinger(n, c), abs(c), n.scale
    moments._check("commutator bound <= Schrodinger bound", hr - sch, scale)
    moments._check("Schrodinger bound = |C| in the bound chain", abs(sch - general), scale)
    moments._check("commutator bound <= dA dB", hr - product, scale)
    moments._check("|C| <= dA dB", general - product, scale)
    return UncertaintyReport(
        delta_a=delta_a,
        delta_b=delta_b,
        product=product,
        hr_bound=hr,
        schrodinger_bound=sch,
        general_bound=general,
        slack_hr=product - hr,
        slack_general=product - general,
        tight=_is_tight(product - general),
    )


def sum_relations(
    a: Observable, b: Observable, phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES
) -> SumRelationReport:
    """Evaluate dA + dB >= d(A+B) and dA^2 + dB^2 >= d(A+B)^2 / 2.

    Degeneracy diagnosis: ``eigenstate_trivial`` when phi is an eigenstate of
    A or of B (the relations then carry no information about the other
    spread), ``pythagoras`` when the deviation vectors are orthogonal, in
    which case d(A+B)^2 = dA^2 + dB^2 is additionally asserted.
    """
    n = _shared(a, b, phi)
    da, db = _spreads(n)
    squares = da**2 + db**2
    sos = n.sum.spread
    if _is_eigen(min(da, db), tol):
        degenerate = Degeneracy.EIGENSTATE_TRIVIAL
    elif _is_zero(n.overlap, tol):
        identity = "orthogonal deviations: d(A+B)^2 = dA^2 + dB^2"
        moments._check(identity, abs(sos**2 - squares), squares, _SUM_TOL)
        degenerate = Degeneracy.PYTHAGORAS
    else:
        degenerate = Degeneracy.NONE
    moments._check("triangle inequality dA + dB >= d(A+B)", sos - (da + db), da + db)
    residual = 0.5 * sos**2 - squares
    moments._check("squared triangle inequality dA^2 + dB^2 >= d(A+B)^2 / 2", residual, squares)
    return SumRelationReport(
        sum_of_spreads=da + db,
        spread_of_sum=sos,
        quad_lhs=squares,
        quad_rhs=0.5 * sos**2,
        degenerate=degenerate,
    )


def sum_relation_n(
    observables: Sequence[Observable], phi: StateVector, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[float, float]:
    """n-observable triangle relation: (sum of spreads, spread of the sum)."""
    if len(observables) < 2:
        raise ValueError("sum_relation_n needs at least two observables")
    total = observables[0]
    lhs = std_dev(observables[0], phi, tol)
    for obs in observables[1:]:
        total = total + obs
        lhs += std_dev(obs, phi, tol)
    rhs = std_dev(total, phi, tol)
    moments._check("n-term triangle inequality", rhs - lhs, lhs)
    return lhs, rhs


# CSV row form used for batch scans over random instances.
REPORT_CSV_HEADER = (
    "dim,seed,delta_a,delta_b,product,hr_bound,general_bound,pearson,"
    "eigen_a,eigen_b,s_ab,s_comm,s_anti"
)


def report_csv_row(
    dim: int,
    seed: int,
    report: UncertaintyReport,
    pearson: float | None,
    flags: Sequence[bool],
) -> str:
    """One CSV row matching REPORT_CSV_HEADER; flags are the five class flags."""
    if len(flags) != 5:
        raise ValueError("expected five class flags (eigen_a, eigen_b, s_ab, s_comm, s_anti)")
    fields = [
        str(dim),
        str(seed),
        repr(report.delta_a),
        repr(report.delta_b),
        repr(report.product),
        repr(report.hr_bound),
        repr(report.general_bound),
        "" if pearson is None else repr(pearson),
    ] + [str(int(bool(f))) for f in flags]
    return ",".join(fields)
