"""End-to-end identification: linear stage, nonlinear stage, model choice.

The pipeline always identifies a linear (ARX) model first.  When the lag
specification asks for a polynomial degree above 1 it builds the polynomial
candidate dictionary, optionally shrinks the search using one of four
reduction methods, runs the iterative search, and finally keeps the
nonlinear model only if its BIC (on free-run error) strictly beats the
linear one.

Reduction methods (all optional):

* ``M1`` - restrict the nonlinear dictionary to monomials over the linear
  model's variables and seed every path from it.
* ``M2`` - seed the paths of the full dictionary from the terms of a
  deliberately overfit single-path model.
* ``M3`` - both: overfit seeding inside the restricted dictionary.
* ``M4`` - overfit seeding from the restricted dictionary, searching the
  full dictionary.

Candidate-evaluation counters and wall-clock timings are recorded per stage
so the cost of each method is observable.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

from .errors import ConfigError, IdentificationError
from .ofr import Criterion, back_substitute, default_max_terms, ofr_select
from .regression import IoData, RegressionProblem, build_problem
from .search import ModelPool, Outcome, SearchConfig, SearchResult, iterative_ofr
from .simulation import PROBE_SETTLE
from .terms import (
    LagSpec,
    Term,
    build_linear_dictionary,
    expand_dictionary,
    reduce_dictionary,
)

__all__ = [
    "ReductionMethod",
    "TableRow",
    "IdentificationReport",
    "check_lag_bound",
    "identify",
    "overfit_preselect",
]

logger = logging.getLogger(__name__)


class ReductionMethod(Enum):
    NONE = "none"
    M1 = "m1"
    M2 = "m2"
    M3 = "m3"
    M4 = "m4"

    @classmethod
    def _missing_(cls, value):
        # the digits 0-4 name NONE and M1-M4
        if value in ("0", "1", "2", "3", "4"):
            return list(cls)[int(value)]
        return None


# each method's plan: the dictionary it searches and the one its overfit
# sketch runs over (None: no sketch, every member seeds a path); reduced is a
# subset of full, so every sketch term is in the searched dictionary
_PLANS = {
    ReductionMethod.NONE: ("full", None),
    ReductionMethod.M1: ("reduced", None),
    ReductionMethod.M2: ("full", "full"),
    ReductionMethod.M3: ("reduced", "reduced"),
    ReductionMethod.M4: ("full", "reduced"),
}


class TableRow(NamedTuple):
    term: str
    ms_press: float
    err: float
    coefficient: float


@dataclass(frozen=True)
class IdentificationReport:
    """Everything a run produced: both stages, the choice, the term table."""

    arx: SearchResult
    narx: SearchResult | None
    chosen: str  # "ARX" | "NARX"
    lag_spec: LagSpec
    method: ReductionMethod
    timings: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    @property
    def chosen_stage(self) -> SearchResult:
        return self.narx if self.chosen == "NARX" else self.arx

    @property
    def chosen_model(self):
        return self.chosen_stage.model

    @property
    def table(self) -> tuple[TableRow, ...]:
        """Per-term metric rows for the chosen stage's winner, in dictionary order."""
        path = self.chosen_stage.best.path
        dictionary = self.chosen_stage.dictionary
        theta = back_substitute(path)
        rows = [
            (step.term_index,
             TableRow(str(dictionary[step.term_index]), step.ms_press, step.err, float(coef)))
            for step, coef in zip(path.steps, theta)
        ]
        rows.sort(key=lambda r: r[0])
        return tuple(r[1] for r in rows)


def overfit_preselect(problem: RegressionProblem, size: int) -> tuple[list[Term], int]:
    """Terms of a deliberately overfit single-path model, as path seeds.

    Runs one ERR-driven path over ``problem.dictionary`` with the term cap
    raised to ``size``; the result is a cheap, likely superset-ish sketch of
    the relevant terms.  Returns the terms and the path's
    candidate-evaluation count.
    """
    dictionary = problem.dictionary
    if size > len(dictionary):
        raise ConfigError(
            f"overfit size {size} exceeds dictionary size {len(dictionary)}"
        )
    path = ofr_select(
        problem, criterion=Criterion.ERR, forced_first=None, max_terms=size
    )
    return [dictionary[i] for i in path.term_indices], path.n_evaluated


def _overfit_size(n_arx_terms: int, problem: RegressionProblem, cfg: SearchConfig) -> int:
    n_terms = len(problem.dictionary)
    cap = cfg.max_terms or default_max_terms(n_terms, problem.n_rows)
    return max(1, min(2 * n_arx_terms + 5, cap, n_terms))


def check_lag_bound(spec: LagSpec) -> None:
    """Reject a lag bound beyond the ``PROBE_SETTLE`` samples the stability
    probe discards: the probe cannot judge a model that reads further back."""
    if spec.max_lag > PROBE_SETTLE:
        raise ConfigError(
            f"lag bound {spec.max_lag} (the larger of n_a and n_b) exceeds the "
            f"stability probe's {PROBE_SETTLE}-sample settle window"
        )


def identify(
    data: IoData,
    spec: LagSpec,
    method: ReductionMethod = ReductionMethod.NONE,
    cfg: SearchConfig = SearchConfig(),
) -> IdentificationReport:
    """Run the full identification pipeline on ``data``.

    The linear stage searches the degree-1 dictionary seeded by all of its
    terms.  The nonlinear stage (when ``spec.degree > 1``) searches the
    degree-``spec.degree`` dictionary under the chosen reduction method.  The
    returned report's ``chosen`` field is "NARX" only when the nonlinear
    model exists, is genuinely different from the linear one, and has
    strictly lower BIC; a nonlinear stage with no probe-stable candidate
    leaves ``narx`` None and a note of the rejection counts.  A linear stage
    with none raises :class:`IdentificationError`.  A lag bound beyond the
    stability probe's settle window is a :class:`ConfigError`, raised before
    any search runs, as is a ``method`` that is not a :class:`ReductionMethod`.
    """
    if not isinstance(method, ReductionMethod):
        raise ConfigError(f"method must be a ReductionMethod, got {method!r}")
    check_lag_bound(spec)
    timings: dict[str, float] = {}
    notes: list[str] = []

    d_linear = build_linear_dictionary(spec)
    t0 = time.perf_counter()
    try:
        arx = iterative_ofr(d_linear, None, data, cfg)
    except IdentificationError as exc:
        raise IdentificationError(f"linear (ARX) stage: {exc}", pool=exc.pool) from None
    timings["arx_s"] = time.perf_counter() - t0
    logger.debug(
        "linear stage: %d terms, bic %.3f", arx.model.n_terms, arx.best.bic
    )

    narx = None
    chosen = "ARX"
    if spec.degree > 1:
        t0 = time.perf_counter()
        searched, sketched = _PLANS[method]
        dictionaries = {}
        if "full" in (searched, sketched):
            dictionaries["full"] = expand_dictionary(d_linear, spec.degree, spec.include_constant)
        if "reduced" in (searched, sketched):
            dictionaries["reduced"] = reduce_dictionary(
                arx.model.terms, spec.degree, spec.include_constant
            )
        preselect, sketch_evals = None, 0
        if sketched is not None:
            sketch_problem = build_problem(data, dictionaries[sketched])
            preselect, sketch_evals = overfit_preselect(
                sketch_problem,
                _overfit_size(arx.model.n_terms, sketch_problem, cfg),
            )

        try:
            narx = iterative_ofr(dictionaries[searched], preselect, data, cfg)
        except IdentificationError as exc:
            # no nonlinear candidate can beat the stable linear model
            notes.append(_rejection_note(exc.pool))
        else:
            narx = replace(narx, n_evaluations=narx.n_evaluations + sketch_evals)
            if frozenset(narx.model.terms) == frozenset(arx.model.terms):
                notes.append("nonlinear stage returned the linear term set")
            elif narx.best.bic < arx.best.bic:
                chosen = "NARX"
        timings["narx_s"] = time.perf_counter() - t0
        if searched == "reduced":
            notes.append(
                "reduced-dictionary search: term sets can differ from the "
                "full search when the data is noisy"
            )

    return IdentificationReport(
        arx=arx,
        narx=narx,
        chosen=chosen,
        lag_spec=spec,
        method=method,
        timings=timings,
        notes=tuple(notes),
    )


def _rejection_note(pool: ModelPool) -> str:
    """Why each candidate of a stage with no selectable one was rejected."""
    counts = Counter(e.outcome for e in pool)
    # the rejections; as many terms as fitted rows only when some candidate had it
    reasons = list(Outcome)[: 4 if counts[Outcome.NO_BIC] else 3]
    *head, last = (f"{counts[o]} {o.value}" for o in reasons)
    return (
        f"nonlinear stage found no stable candidate, so the linear model is kept: "
        f"of {len(pool)} candidates, {', '.join(head)} and {last}"
    )
