"""Finite-dimensional laboratory for quantum uncertainty relations.

Compute spreads, correlation functions and Pearson-type coefficients of
Hermitian observable pairs in pure states; evaluate the commutator,
anticommutator-form and correlation-modulus lower bounds and the
triangle-inequality sum relations; classify states by which parts of the
correlation function vanish; and numerically find states whose deviation
vectors are orthogonal, i.e. for which the lower bound on the product of
spreads is exactly zero.

``import uncertainty_lab`` loads no submodule: each public name, and each
submodule as an attribute (``uncertainty_lab.relations``), is imported on
first use and then kept as an ordinary attribute of the package (PEP 562).
"""

from importlib import import_module

__version__ = "0.10.2"

# Each public name once, under the submodule that defines it ("" for a submodule with none).
_NAMES = {
    "core": "CommutingPair DEFAULT_TOLERANCES DegenerateSpread DimensionMismatch "
            "DimensionTooSmall Observable StateVector Tolerances ValidationError commutator "
            "complex_from_pair complex_to_pair haar_state identity inner "
            "observable_from_json_dict observable_to_json_dict state_from_json_dict "
            "state_to_json_dict validate_observable",
    "correlations": "CorrelationRecord correlation correlation_properties_check "
                    "correlation_record decomposition pearson",
    "finder": "FinderConfig FinderResult find gradient objective verify_candidate",
    "gellmann": "GellMannBasis gell_mann su3_lambda two_level_state uniform_superposition",
    "moments": "DeviationVector deviation_vector expectation is_eigenstate orthogonal_unit "
               "std_dev",
    "relations": "Degeneracy SumRelationReport UncertaintyReport evaluate hr_bound "
                 "schrodinger_bound sum_relation_n sum_relations",
    "state_sets": "ClassificationResult ScanConfig classify membership_scan",
    "cli": "",
    "_floatrepr": "",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = sorted([*_MODULE_OF, "__version__"])


def __getattr__(name: str):
    """Import a public name's submodule, or a submodule, on first use and keep it."""
    if name in _NAMES:
        value = import_module(f"{__name__}.{name}")
    elif name in _MODULE_OF:
        value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads find it without this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_NAMES})
