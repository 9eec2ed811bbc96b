"""Polynomial ARX/NARX system identification.

Identifies parsimonious polynomial input-output models from time series by
searching many orthogonal-forward-regression paths, screening candidates
with a constant-input stability probe, and choosing among the survivors by
BIC on free-run simulation error.  Term selection along each path uses
either the error reduction ratio or the PRESS (leave-one-out) statistic, so
models cross-validate themselves without a held-out set.
"""

from .benchmarks import (
    DC_MOTOR_COEFFICIENTS,
    Multitone,
    Prbs,
    WhiteNoise,
    dc_motor_reference,
    dc_motor_terms,
    generate_signal,
)
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    IdentificationError,
    InsufficientDataError,
    LeverageError,
    NarxidError,
    SingularityError,
)
from .ofr import (
    Criterion,
    SelectionPath,
    back_substitute,
    err_of,
    ofr_select,
    press_of,
)
from .pipeline import IdentificationReport, ReductionMethod, identify, overfit_preselect
from .regression import IoData, RegressionProblem, build_problem, least_squares
from .search import (
    ModelPool, Outcome, PoolEntry, SearchConfig, SearchResult, bic_of, iterative_ofr,
)
from .simulation import (
    FreeRunResult,
    Model,
    StabilityVerdict,
    predict_one_step,
    simulate_free_run,
    stability_probe,
)
from .terms import (
    CONSTANT,
    Dictionary,
    Factor,
    LagSpec,
    Signal,
    Term,
    build_linear_dictionary,
    expand_dictionary,
    parse_term,
    reduce_dictionary,
)
from .validation import CorrelationTest, ValidationReport, residual_tests

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # terms
    "Signal", "Factor", "Term", "CONSTANT", "LagSpec", "Dictionary",
    "build_linear_dictionary", "expand_dictionary", "reduce_dictionary",
    "parse_term",
    # regression
    "IoData", "RegressionProblem", "build_problem", "least_squares",
    # ofr
    "Criterion", "SelectionPath", "ofr_select", "err_of",
    "press_of", "back_substitute",
    # simulation
    "Model", "FreeRunResult", "StabilityVerdict", "simulate_free_run",
    "predict_one_step", "stability_probe",
    # search
    "SearchConfig", "SearchResult", "ModelPool", "PoolEntry", "Outcome", "bic_of",
    "iterative_ofr",
    # pipeline
    "ReductionMethod", "IdentificationReport", "identify", "overfit_preselect",
    # validation
    "ValidationReport", "CorrelationTest", "residual_tests",
    # benchmarks
    "WhiteNoise", "Multitone", "Prbs", "generate_signal",
    "dc_motor_reference", "dc_motor_terms", "DC_MOTOR_COEFFICIENTS",
    # errors
    "NarxidError", "ConfigError", "DataError", "InsufficientDataError",
    "SingularityError", "LeverageError", "DivergenceError",
    "IdentificationError",
]
