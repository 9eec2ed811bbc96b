"""Iterative multi-path term search with simulation-based model choice.

One iteration runs an OFR path per seed term, turning each path into a
candidate model; candidates are screened by the constant-input stability
probe, scored by BIC on the mean squared free-run error over the training
record, and the winner's terms become the next iteration's seed set.  The
best of the iterations' winners is returned, so the result can only improve
as iterations proceed.  Iterations end when the winning term set repeats or
the iteration cap is reached.

Model scoring is deterministic: BIC ties break toward fewer terms, then
toward the earlier seed position.  Free-run errors below the numerical
floor (``RegressionProblem.msse_floor``, relative to the output scale) are
clamped before ranking so that parsimony, not floating-point noise, decides
between models that are all numerically exact.  It is the floor at which
``ofr_select`` ends a PRESS path (stop reason ``"PRESS floor"``), so a path
stops at its first exact fit; it can still end there carrying a term that
helped when it was selected and that later terms made redundant.  When an
iteration's winner fits to within the floor, such terms are pruned and the
reduced model competes as one more candidate.

A candidate is keyed by its term set, and one route makes every record:
the first path or pruned winner, in run order, to end on a set is built
into a model, probed, free-run and pooled, and every later one is ranked
as that record.  A path depends on the problem, its forced first term and
its length cap, and a capped path is a prefix of the uncapped one, so a
later iteration that seeds a term again only re-ranks the record its
uncut path reached (Guo, Guo, Billings & Wei, Int. J. Systems Science 2015).

No k-term candidate can score a BIC below ``bic_of(floor, n, k)``.  Once an
iteration has scored a selectable candidate, a path that reaches the first
length whose bound exceeds that BIC cannot win the iteration, so it is cut
there (see :func:`_length_cap`): it is not built into a model, probed,
free-run or pooled, and its prefix never stands in for a set.  A later
iteration that seeds it under a weaker bound runs it again.  The choice is
the one the uncut search makes when it keeps each set's first record, but a
path run again can find its set's record made since by another path.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError, IdentificationError, InsufficientDataError, SingularityError, check_integer,
)
from .ofr import Criterion, SelectionPath, back_substitute, default_max_terms, ofr_select
from .regression import IoData, RegressionProblem, build_problem, least_squares
from .simulation import PROBE_EPSILON, Model, StabilityVerdict, simulate_free_run, stability_probe
from .terms import Dictionary, Term

__all__ = [
    "SearchConfig",
    "Outcome",
    "PoolEntry",
    "ModelPool",
    "SearchResult",
    "bic_of",
    "iterative_ofr",
    "build_model",
]

logger = logging.getLogger(__name__)

# A path is cut only where its BIC bound exceeds the iteration's best by more
# than this many units of roundoff in the magnitudes summed: see _length_cap.
_BIC_ROUNDING = 16


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the iterative search.

    ``epsilon`` is the stability probe's variance threshold, an absolute
    variance in output units: scaling ``y`` by ``c`` scales the probe
    variances by ``c**2`` and leaves ``epsilon`` as it is.  ``max_terms`` of
    None uses the identifiability default.  ``max_iterations`` and
    ``max_terms`` must be ``int`` (not ``bool``), ``epsilon`` a real number
    and ``criterion`` a :class:`Criterion`; a value of another type or out
    of range raises :class:`ConfigError`.
    """

    max_iterations: int = 10
    epsilon: float = PROBE_EPSILON
    criterion: Criterion = Criterion.PRESS
    max_terms: int | None = None

    def __post_init__(self):
        check_integer("max_iterations", self.max_iterations, 1)
        if self.max_terms is not None:
            check_integer("max_terms", self.max_terms, 1)
        if not isinstance(self.epsilon, numbers.Real) or isinstance(self.epsilon, bool):
            raise ConfigError(f"epsilon must be a number, got {self.epsilon!r}")
        if not isinstance(self.criterion, Criterion):
            raise ConfigError(f"criterion must be a Criterion, got {self.criterion!r}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")


class Outcome(Enum):
    """What the search made of a path: rejections first, in the note's order and words."""

    PROBE_DIVERGED = "diverged under the probe"
    PROBE_VARIANCE = "had probe variance above epsilon"
    RUN_DIVERGED = "diverged on the training run"
    NO_BIC = "had as many terms as fitted rows (BIC undefined)"
    SCORED = "scored"
    EMPTY = "empty path"
    CUT = "cut at the BIC bound"


@dataclass(frozen=True)
class PoolEntry:
    """One path's outcome and, unless the path was empty or cut, its model
    with the screening and scoring behind it.  Only ``SCORED`` is selectable."""

    model: Model | None
    verdict: StabilityVerdict | None
    msse: float
    bic: float
    path: SelectionPath | None = field(default=None, compare=False)
    outcome: Outcome = field(kw_only=True)


class ModelPool(tuple):
    """All candidate models scored by a search, stable or not: an immutable
    tuple of :class:`PoolEntry`, one per distinct term set, in the order the
    sets were first reached.  Empty and cut paths are not candidates.

    Unstable entries are retained for reporting but never selected.
    """

    __slots__ = ()

    def stable(self) -> list[PoolEntry]:
        return [e for e in self if e.outcome is Outcome.SCORED]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of :func:`iterative_ofr`.

    The pool's paths index into ``dictionary``, the one the search ran over.
    ``n_evaluations`` sums the candidates evaluated by every path the search
    ran, cut, run again or pruned; ``n_cut`` counts the runs cut at the BIC
    bound.
    """

    dictionary: Dictionary
    pool: ModelPool
    best: PoolEntry
    iterations: int
    n_evaluations: int
    converged: bool
    iteration_bics: tuple[float, ...]
    n_cut: int = 0

    @property
    def model(self) -> Model:
        return self.best.model


def bic_of(msse: float, n_samples: int, n_params: int) -> float:
    """Bayesian information criterion on the simulated error variance.

    ``n ln(msse + guard) + k ln(n)`` with a tiny additive guard against
    log(0).  Only the ranking matters, so the constant convention is fixed
    here and used consistently.
    """
    if msse < 0:
        raise ValueError("msse must be non-negative")
    if n_samples <= n_params:
        raise ValueError("need more samples than parameters")
    return float(n_samples * np.log(msse + 1e-300) + n_params * np.log(n_samples))


def build_model(
    dictionary: Dictionary,
    path: SelectionPath,
    criterion: Criterion,
    data_hash: str | None = None,
) -> Model:
    """Turn a finished path into a :class:`Model`.

    Coefficients come from back substitution; a selected constant candidate
    is folded into the model bias.
    """
    theta = back_substitute(path)
    terms: list[Term] = []
    coefficients: list[float] = []
    bias = 0.0
    for step, coef in zip(path.steps, theta):
        term = dictionary[step.term_index]
        if term.is_constant:
            bias += float(coef)
        else:
            terms.append(term)
            coefficients.append(float(coef))
    provenance = {
        "criterion": criterion.value,
        "selection": tuple(
            (str(dictionary[s.term_index]), s.err, s.ms_press, s.g)
            for s in path.steps
        ),
        "stop_reason": path.stop_reason,
        "data_hash": data_hash,
    }
    return Model(tuple(terms), tuple(coefficients), bias=bias, provenance=provenance)


def _score_entry(
    path: SelectionPath,
    data: IoData,
    problem: RegressionProblem,
    cfg: SearchConfig,
    cap: int | None = None,
) -> PoolEntry:
    """The record of ``path``; one that reached ``cap`` steps is cut unbuilt."""
    k = len(path.steps)
    if not k or (cap is not None and k >= cap):
        outcome = Outcome.CUT if k else Outcome.EMPTY
        return PoolEntry(None, None, math.inf, math.inf, path, outcome=outcome)
    model = build_model(problem.dictionary, path, cfg.criterion, data.fingerprint)
    verdict = stability_probe(model, cfg.epsilon)
    msse = bic = math.inf
    if not verdict.stable:
        outcome = Outcome.PROBE_DIVERGED if verdict.diverged else Outcome.PROBE_VARIANCE
    else:
        run = simulate_free_run(model, data.u, data.y)
        if not run.diverged:
            err = problem.target - run.output[problem.offset :]
            msse = float(np.mean(err**2))
        if not math.isfinite(msse):
            outcome = Outcome.RUN_DIVERGED
        elif problem.n_rows <= k:
            outcome = Outcome.NO_BIC
        else:
            outcome, bic = Outcome.SCORED, bic_of(max(msse, problem.msse_floor), problem.n_rows, k)
    return PoolEntry(model, verdict, msse, bic, path, outcome=outcome)


def _exact_fit_columns(problem: RegressionProblem, path: SelectionPath) -> tuple[int, ...] | None:
    """The path's terms that a numerically exact fit needs, as sorted
    dictionary indices.

    Terms are tried for removal from the last selected back to the first;
    one goes when the least-squares one-step mean-square residual of the
    rest stays at or below ``problem.msse_floor``.  Returns None when no term can go.
    """
    keep = list(path.term_indices)
    for index in reversed(path.term_indices):
        rest = [i for i in keep if i != index]
        if not rest:
            continue
        try:
            theta = least_squares(problem, rest)
        except SingularityError:
            continue
        resid = problem.target - problem.phi[:, rest] @ theta
        if float(np.mean(resid**2)) <= problem.msse_floor:
            keep = rest
    return None if len(keep) == len(path.steps) else tuple(sorted(keep))


def _exact_fit_prune(
    problem: RegressionProblem,
    path: SelectionPath,
    columns: tuple[int, ...],
    criterion: Criterion,
) -> SelectionPath:
    """The path cut to ``columns`` (from :func:`_exact_fit_columns`).

    Those terms are selected again by an ordinary :func:`ofr_select` run
    (the path's first term first when it is kept, stopping rules off), so
    the path's PRESS, ERR and coefficients stay consistent.
    """
    # rows stay aligned with the parent problem, so its offset is kept
    sub = RegressionProblem(
        problem.phi[:, list(columns)],
        problem.target,
        Dictionary(tuple(problem.dictionary[i] for i in columns)),
        problem.offset,
    )
    seed = path.term_indices[0]
    sub_path = ofr_select(
        sub,
        criterion=criterion,
        forced_first=columns.index(seed) if seed in columns else None,
        max_terms=len(columns),
        stop=False,
    )
    dropped = sorted(set(path.term_indices) - set(columns))
    names = ", ".join(str(problem.dictionary[i]) for i in dropped)
    return replace(
        sub_path,
        steps=tuple(
            s._replace(term_index=columns[s.term_index]) for s in sub_path.steps
        ),
        stop_reason=f"exact-fit pruning (dropped {names})",
    )


def _rank(entry: PoolEntry) -> tuple[float, int]:
    """BIC, then fewer terms: ``min`` keeps the first of equals, so a full
    tie goes to the earlier seed or iteration."""
    return entry.bic, entry.model.n_terms


def _length_cap(best: float, msse_floor: float, n: int, k_max: int) -> int | None:
    """The first path length ``k``, at most ``k_max`` and below ``n``, whose
    ``bic_of(msse_floor, n, k)`` exceeds ``best`` beyond rounding, so that
    no ``k``-step candidate can score a BIC at or below ``best`` on ``n``
    rows; None when no such length exists.

    A ``k``-step candidate's BIC is ``bic_of`` of an error clamped to at
    least ``msse_floor``, so exactly it is at least ``bic_of(msse_floor, n,
    k)``.  Computed, the two can differ by the roundings of the logarithm,
    the product and the sum: a few units of roundoff in ``n |ln floor|`` and
    in the BIC.  A length is kept unless its bound exceeds ``best`` by
    ``_BIC_ROUNDING`` such units, so a cut never rests on ``np.log`` being
    monotone to the last bit.  A path takes at most ``k_max`` steps (its
    term cap or the dictionary size), so the scan is short.
    """
    eps = np.finfo(float).eps
    limit = best + _BIC_ROUNDING * eps * (abs(bic_of(msse_floor, n, 0)) + abs(best))
    for k in range(1, min(k_max, n - 1) + 1):
        if bic_of(msse_floor, n, k) > limit:
            return k
    return None


def iterative_ofr(
    dictionary: Dictionary,
    preselect: Sequence[Term] | None,
    data: IoData,
    cfg: SearchConfig = SearchConfig(),
) -> SearchResult:
    """Search orthogonalization paths seeded by ``preselect`` terms.

    ``preselect`` of None or empty seeds the first iteration with the whole
    dictionary.  Raises :class:`InsufficientDataError` on one fitted row and
    :class:`IdentificationError` (carrying the pool) when no iteration
    produces a stable candidate.
    """
    problem = build_problem(data, dictionary)
    n = problem.n_rows
    if n < 2:  # build_problem leaves at least one
        raise InsufficientDataError("only 1 fitted row: a BIC needs more fitted rows than terms")
    # the most steps a path can take: ofr_select's term cap, or the dictionary
    k_max = min(cfg.max_terms or default_max_terms(len(dictionary), n), len(dictionary))
    try:
        # dictionary indices of the seed terms, in first-seen order
        seeds = (
            list(dict.fromkeys(dictionary.index(t) for t in preselect))
            if preselect else range(len(dictionary))
        )
    except KeyError as exc:
        raise ConfigError(f"preselect term not in dictionary: {exc}") from None
    # The candidate table, the pool: sorted columns -> their first record (record() makes
    # every one); runs: forced-first index -> its set's record, or its own if empty or cut.
    table: dict[tuple[int, ...], PoolEntry] = {}
    runs: dict[int, PoolEntry] = {}
    winners: list[PoolEntry] = []
    # id(winning record) -> its _exact_fit_columns, so a winner that repeats is checked once
    exact_fits: dict[int, tuple[int, ...] | None] = {}
    converged = False
    n_evaluations = n_cut = 0

    def record(path: SelectionPath, cap: int | None = None) -> PoolEntry:
        """Count a finished path, then return its set's record or score and pool a new one."""
        nonlocal n_evaluations
        n_evaluations += path.n_evaluated
        key = tuple(sorted(path.term_indices))
        entry = table.get(key)
        if entry is None or (cap is not None and len(path.steps) >= cap):
            entry = _score_entry(path, data, problem, cfg, cap)
            if entry.model is not None:
                table[key] = entry
        return entry

    for iterations in range(1, cfg.max_iterations + 1):
        # best: the lowest BIC among this iteration's selectable entries so
        # far; cap: the path length at which a path cannot beat it
        best, cap = math.inf, None
        n_run, cut_before = 0, n_cut
        for index in seeds:
            entry = runs.get(index)
            # run a path not run yet, or one cut under a stronger bound
            if entry is None or (
                entry.outcome is Outcome.CUT and (cap is None or cap > len(entry.path.steps))
            ):
                path = ofr_select(
                    problem,
                    criterion=cfg.criterion,
                    forced_first=index,
                    max_terms=cfg.max_terms if cap is None else cap,
                )
                n_run += 1
                entry = runs[index] = record(path, cap)
                n_cut += entry.outcome is Outcome.CUT
            if entry.outcome is Outcome.SCORED and entry.bic < best:
                best = entry.bic
                cap = _length_cap(best, problem.msse_floor, n, k_max)
        logger.debug(
            "iteration %d: %d paths run, %d cut, k_cap %s",
            iterations, n_run, n_cut - cut_before, None if cap is None else cap - 1,
        )
        ranked = [e for e in (runs[i] for i in seeds) if e.outcome is Outcome.SCORED]
        if not ranked:
            logger.debug("iteration %d produced no stable model", iterations)
            break
        winner = min(ranked, key=_rank)

        if winner.msse <= problem.msse_floor:
            if id(winner) not in exact_fits:
                exact_fits[id(winner)] = _exact_fit_columns(problem, winner.path)
            columns = exact_fits[id(winner)]
            if columns is not None:
                entry = table.get(columns) or record(
                    _exact_fit_prune(problem, winner.path, columns, cfg.criterion)
                )
                if entry.outcome is Outcome.SCORED and entry.bic <= winner.bic:
                    winner = entry

        converged = any(w is winner for w in winners)
        winners.append(winner)
        if converged:
            break
        seeds = winner.path.term_indices

    pool = ModelPool(table.values())
    if not winners:
        raise IdentificationError(
            "no stable candidate model in any iteration", pool=pool
        )
    return SearchResult(
        dictionary,
        pool,
        min(winners, key=_rank),
        iterations,
        n_evaluations,
        converged,
        tuple(w.bic for w in winners),
        n_cut,
    )
