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
floor (:func:`narxid.ofr.noise_floor`, relative to the output scale) are
clamped before ranking so that parsimony, not floating-point noise, decides
between models that are all numerically exact.  It is the floor at which
``ofr_select`` ends a PRESS path (stop reason ``"PRESS floor"``), so a path
stops at its first exact fit; it can still end there carrying a term that
helped when it was selected and that later terms made redundant.  When an
iteration's winner fits to within the floor, such terms are pruned and the
reduced model competes as one more candidate.

A path is a pure function of the problem and its forced first term, and so
are its model, probe verdict and score.  Each is therefore computed, probed
and pooled once per search: a later iteration that seeds a term again only
re-ranks the candidate it already has.  A pruned candidate is keyed by the
terms it keeps, so winners that prune to the same set share the one
selected from the first of them (Guo, Guo, Billings & Wei, "An iterative
orthogonal forward regression algorithm", Int. J. Systems Science 2015).
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, IdentificationError, SingularityError
from .ofr import Criterion, SelectionPath, back_substitute, noise_floor, ofr_select
from .regression import IoData, RegressionProblem, build_problem, least_squares
from .simulation import PROBE_EPSILON, Model, StabilityVerdict, simulate_free_run, stability_probe
from .terms import Dictionary, Term

__all__ = [
    "SearchConfig",
    "PoolEntry",
    "ModelPool",
    "SearchResult",
    "bic_of",
    "iterative_ofr",
    "build_model",
]

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the iterative search.

    ``epsilon`` is the stability probe's variance threshold, an absolute
    variance in output units: scaling ``y`` by ``c`` scales the probe
    variances by ``c**2`` and leaves ``epsilon`` as it is.  ``max_terms`` of
    None uses the identifiability default.  Out-of-range values raise
    :class:`ConfigError`.
    """

    max_iterations: int = 10
    epsilon: float = PROBE_EPSILON
    criterion: Criterion = Criterion.PRESS
    max_terms: int | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_terms is not None and self.max_terms < 1:
            raise ConfigError(f"max_terms must be >= 1, got {self.max_terms}")


@dataclass(frozen=True)
class PoolEntry:
    """One candidate model with its screening and scoring record."""

    model: Model
    verdict: StabilityVerdict
    msse: float
    bic: float
    path: SelectionPath | None = field(default=None, compare=False)

    @property
    def selectable(self) -> bool:
        return self.verdict.stable and np.isfinite(self.bic)


class ModelPool(tuple):
    """All candidate models examined by a search, stable or not: an
    immutable tuple of :class:`PoolEntry` in the order they were computed.

    Unstable entries are retained for reporting but never selected.
    """

    __slots__ = ()

    def stable(self) -> list[PoolEntry]:
        return [e for e in self if e.selectable]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of :func:`iterative_ofr`.

    The pool's paths index into ``dictionary``, the one the search ran over.
    """

    dictionary: Dictionary
    pool: ModelPool
    best: PoolEntry
    iterations: int
    n_evaluations: int
    converged: bool
    iteration_bics: tuple[float, ...]

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


def data_fingerprint(data: IoData) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(data.u).tobytes())
    digest.update(np.ascontiguousarray(data.y).tobytes())
    return digest.hexdigest()[:16]


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
    msse_floor: float,
    data_hash: str,
) -> PoolEntry | None:
    if not path.steps:
        return None
    model = build_model(problem.dictionary, path, cfg.criterion, data_hash)
    verdict = stability_probe(model, cfg.epsilon)
    n = problem.n_rows
    k = len(path.steps)
    msse = float("inf")
    bic = float("inf")
    if verdict.stable:
        run = simulate_free_run(model, data.u, data.y)
        if not run.diverged:
            err = data.y[problem.offset :] - run.output[problem.offset :]
            msse = float(np.mean(err**2))
            if n > k:
                bic = bic_of(max(msse, msse_floor), n, k)
    return PoolEntry(model, verdict, msse, bic, path)


def _exact_fit_columns(
    problem: RegressionProblem, path: SelectionPath, msse_floor: float
) -> tuple[int, ...] | None:
    """The path's terms that a numerically exact fit needs, as sorted
    dictionary indices.

    Terms are tried for removal from the last selected back to the first;
    one goes when the least-squares one-step mean-square residual of the
    rest stays at or below ``msse_floor``.  Returns None when no term can go.
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
        if float(np.mean(resid**2)) <= msse_floor:
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


def iterative_ofr(
    dictionary: Dictionary,
    preselect: Sequence[Term] | None,
    data: IoData,
    cfg: SearchConfig = SearchConfig(),
) -> SearchResult:
    """Search orthogonalization paths seeded by ``preselect`` terms.

    ``preselect`` of None or empty seeds the first iteration with the whole
    dictionary.  Raises :class:`IdentificationError` (carrying the pool)
    when no iteration produces a stable candidate.
    """
    problem = build_problem(data, dictionary)
    data_hash = data_fingerprint(data)
    msse_floor = noise_floor(problem.target)
    try:
        # dictionary indices of the seed terms, in first-seen order
        seeds = (
            list(dict.fromkeys(dictionary.index(t) for t in preselect))
            if preselect else range(len(dictionary))
        )
    except KeyError as exc:
        raise ConfigError(f"preselect term not in dictionary: {exc}") from None
    # The candidate table: forced-first index -> its entry (None: empty
    # path), the sorted columns a pruned winner keeps -> its pruned entry.
    # Its entries, in the order they were computed, are the pool.
    table: dict[int | tuple[int, ...], PoolEntry | None] = {}
    winners: list[PoolEntry] = []
    converged = False

    for iterations in range(1, cfg.max_iterations + 1):
        for index in seeds:
            if index not in table:
                path = ofr_select(
                    problem,
                    criterion=cfg.criterion,
                    forced_first=index,
                    max_terms=cfg.max_terms,
                )
                table[index] = _score_entry(
                    path, data, problem, cfg, msse_floor, data_hash
                )
        ranked = [
            e for e in (table[i] for i in seeds) if e is not None and e.selectable
        ]
        if not ranked:
            logger.debug("iteration %d produced no stable model", iterations - 1)
            break
        winner = min(ranked, key=_rank)

        if winner.msse <= msse_floor:
            columns = _exact_fit_columns(problem, winner.path, msse_floor)
            if columns is not None:
                if columns not in table:
                    pruned = _exact_fit_prune(problem, winner.path, columns, cfg.criterion)
                    table[columns] = _score_entry(
                        pruned, data, problem, cfg, msse_floor, data_hash
                    )
                entry = table[columns]
                if entry is not None and entry.selectable and entry.bic <= winner.bic:
                    winner = entry

        term_set = set(winner.path.term_indices)
        converged = any(set(w.path.term_indices) == term_set for w in winners)
        winners.append(winner)
        if converged:
            break
        seeds = winner.path.term_indices

    pool = ModelPool(e for e in table.values() if e is not None)
    if not winners:
        raise IdentificationError(
            "no stable candidate model in any iteration", pool=pool
        )
    # an empty forced path evaluates nothing (its first step stops before
    # any scoring), so the pool's paths hold every evaluation made
    return SearchResult(
        dictionary,
        pool,
        min(winners, key=_rank),
        iterations,
        sum(e.path.n_evaluated for e in pool),
        converged,
        tuple(w.bic for w in winners),
    )
