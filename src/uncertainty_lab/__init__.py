"""Finite-dimensional laboratory for quantum uncertainty relations.

Compute spreads, correlation functions and Pearson-type coefficients of
Hermitian observable pairs in pure states; evaluate the commutator,
anticommutator-form and correlation-modulus lower bounds and the
triangle-inequality sum relations; classify states by which parts of the
correlation function vanish; and numerically find states whose deviation
vectors are orthogonal, i.e. for which the lower bound on the product of
spreads is exactly zero.
"""

__version__ = "0.10.1"

from .core import (
    CommutingPair,
    DEFAULT_TOLERANCES,
    DegenerateSpread,
    DimensionMismatch,
    DimensionTooSmall,
    Observable,
    StateVector,
    Tolerances,
    ValidationError,
    commutator,
    complex_from_pair,
    complex_to_pair,
    haar_state,
    identity,
    inner,
    observable_from_json_dict,
    observable_to_json_dict,
    state_from_json_dict,
    state_to_json_dict,
    validate_observable,
)
from .correlations import (
    CorrelationRecord,
    correlation,
    correlation_properties_check,
    correlation_record,
    decomposition,
    pearson,
)
from .finder import FinderConfig, FinderResult, find, gradient, objective, verify_candidate
from .gellmann import (
    GellMannBasis,
    gell_mann,
    su3_lambda,
    two_level_state,
    uniform_superposition,
)
from .moments import (
    DeviationVector,
    deviation_vector,
    expectation,
    is_eigenstate,
    orthogonal_unit,
    std_dev,
)
from .relations import (
    Degeneracy,
    SumRelationReport,
    UncertaintyReport,
    evaluate,
    hr_bound,
    schrodinger_bound,
    sum_relation_n,
    sum_relations,
)
from .state_sets import ClassificationResult, ScanConfig, classify, membership_scan

__all__ = [
    "ClassificationResult",
    "CommutingPair",
    "CorrelationRecord",
    "DEFAULT_TOLERANCES",
    "Degeneracy",
    "DegenerateSpread",
    "DeviationVector",
    "DimensionMismatch",
    "DimensionTooSmall",
    "FinderConfig",
    "FinderResult",
    "GellMannBasis",
    "Observable",
    "ScanConfig",
    "StateVector",
    "SumRelationReport",
    "Tolerances",
    "UncertaintyReport",
    "ValidationError",
    "__version__",
    "classify",
    "commutator",
    "complex_from_pair",
    "complex_to_pair",
    "correlation",
    "correlation_properties_check",
    "correlation_record",
    "decomposition",
    "deviation_vector",
    "evaluate",
    "expectation",
    "find",
    "gell_mann",
    "gradient",
    "haar_state",
    "hr_bound",
    "identity",
    "inner",
    "is_eigenstate",
    "membership_scan",
    "objective",
    "observable_from_json_dict",
    "observable_to_json_dict",
    "orthogonal_unit",
    "pearson",
    "schrodinger_bound",
    "state_from_json_dict",
    "state_to_json_dict",
    "std_dev",
    "su3_lambda",
    "sum_relation_n",
    "sum_relations",
    "two_level_state",
    "uniform_superposition",
    "validate_observable",
    "verify_candidate",
]
