"""Iterative multi-path term search with simulation-based model choice.

One iteration runs an OFR path per seed term, turning each path into a
candidate model; candidates are screened by the constant-input stability
probe, scored by BIC on the mean squared free-run error over the training
record, and the winner's terms become the next iteration's seed set.  The
best of the iterations' winners is returned, so the result can only improve
as iterations proceed.  Iterations end when the winning term set repeats or
the iteration cap is reached.

Model scoring is deterministic: BIC ties break toward fewer terms, then
toward the earlier seed position.  Free-run errors below a numerical floor
(relative to the output scale) are clamped before ranking so that parsimony,
not floating-point noise, decides between models that are all numerically
exact.  A path can still end numerically exact while carrying a term that
helped when it was selected and that later terms made redundant; when an
iteration's winner fits to within that floor, such terms are pruned and the
reduced model competes as one more candidate.

A path is a pure function of the problem and its forced first term, and so
are its model, probe verdict and score; a pruned path is a function of the
winner path it came from.  Each is therefore computed, probed and pooled
once per search: a later iteration that seeds a term again only re-ranks
the candidate it already has (Guo, Guo, Billings & Wei, "An iterative
orthogonal forward regression algorithm", Int. J. Systems Science 2015).
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, IdentificationError, SingularityError
from .ofr import Criterion, SelectionPath, back_substitute, ofr_select
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

# Free-run MSSE values below this fraction of the target's mean square are
# indistinguishable from floating-point noise; clamp before BIC ranking.
MSSE_FLOOR_REL = 1e-24


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
    seed_term: Term | None
    verdict: StabilityVerdict
    msse: float
    bic: float
    path: SelectionPath | None = field(default=None, compare=False)

    @property
    def selectable(self) -> bool:
        return self.verdict.stable and np.isfinite(self.bic)


@dataclass
class ModelPool:
    """All candidate models examined by a search, stable or not.

    Unstable entries are retained for reporting but never selected.
    """

    entries: list[PoolEntry] = field(default_factory=list)

    def stable(self) -> list[PoolEntry]:
        return [e for e in self.entries if e.selectable]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


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
    seed_term: Term | None,
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
        run = simulate_free_run(model, data.u, data.y[: model.max_output_lag])
        if not run.diverged:
            err = data.y[problem.offset :] - run.output[problem.offset :]
            msse = float(np.mean(err**2))
            if n > k:
                bic = bic_of(max(msse, msse_floor), n, k)
    return PoolEntry(model, seed_term, verdict, msse, bic, path)


def _exact_fit_prune(
    problem: RegressionProblem,
    path: SelectionPath,
    criterion: Criterion,
    msse_floor: float,
) -> SelectionPath | None:
    """The path's terms without those a numerically exact fit does not need.

    Terms are tried for removal from the last selected back to the first;
    one goes when the least-squares one-step mean-square residual of the
    rest stays at or below ``msse_floor``.  The remaining terms are selected
    again by an ordinary :func:`ofr_select` run (same first term, stopping
    rules off), so the path's PRESS, ERR and coefficients stay consistent.
    Returns None when no term can go.
    """
    keep = list(path.term_indices)
    dropped = []
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
            dropped.append(index)
    if not dropped:
        return None

    columns = sorted(keep)
    # rows stay aligned with the parent problem, so its offset is kept
    sub = RegressionProblem(
        problem.phi[:, columns],
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
    names = ", ".join(str(problem.dictionary[i]) for i in sorted(dropped))
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
    msse_floor = MSSE_FLOOR_REL * float(np.mean(problem.target**2))
    try:
        # dictionary indices of the seed terms, in first-seen order
        seeds = (
            list(dict.fromkeys(dictionary.index(t) for t in preselect))
            if preselect else range(len(dictionary))
        )
    except KeyError as exc:
        raise ConfigError(f"preselect term not in dictionary: {exc}") from None
    # The candidate table: forced-first index -> its entry (None: empty
    # path), winner path -> its pruned entry (None: nothing to prune).  Its
    # entries, in the order they were computed, are the pool.
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
                    path, dictionary[index], data, problem, cfg, msse_floor, data_hash
                )
        ranked = [
            e for e in (table[i] for i in seeds) if e is not None and e.selectable
        ]
        if not ranked:
            logger.debug("iteration %d produced no stable model", iterations - 1)
            break
        winner = min(ranked, key=_rank)

        if winner.msse <= msse_floor:
            key = winner.path.term_indices
            if key not in table:
                pruned = _exact_fit_prune(
                    problem, winner.path, cfg.criterion, msse_floor
                )
                table[key] = None if pruned is None else _score_entry(
                    pruned, winner.seed_term, data, problem, cfg, msse_floor,
                    data_hash,
                )
            entry = table[key]
            if entry is not None and entry.selectable and entry.bic <= winner.bic:
                winner = entry

        term_set = set(winner.path.term_indices)
        converged = any(set(w.path.term_indices) == term_set for w in winners)
        winners.append(winner)
        if converged:
            break
        seeds = winner.path.term_indices

    pool = ModelPool([e for e in table.values() if e is not None])
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
