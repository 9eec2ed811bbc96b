"""Iterative multi-path search: stability screening, BIC choice, convergence."""

import functools
import logging
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import narxid.pipeline
import narxid.search
from narxid import (
    Criterion,
    FreeRunResult,
    IdentificationError,
    IoData,
    LagSpec,
    ModelPool,
    Multitone,
    Outcome,
    Prbs,
    SearchConfig,
    SearchResult,
    WhiteNoise,
    back_substitute,
    bic_of,
    build_linear_dictionary,
    build_problem,
    dc_motor_reference,
    dc_motor_terms,
    expand_dictionary,
    generate_signal,
    identify,
    iterative_ofr,
    least_squares,
    ofr_select,
    parse_term,
    simulate_free_run,
    stability_probe,
)
from narxid.errors import ConfigError, DivergenceError
from narxid.ofr import default_max_terms
from narxid.regression import noise_floor
from narxid.search import (
    _BIC_ROUNDING,
    _exact_fit_columns,
    _exact_fit_prune,
    _length_cap,
    _score_entry,
)


def benchmark_data(n=300, seed=332, train=None):
    u = np.random.default_rng(seed).normal(size=n)
    y = dc_motor_reference(u)
    stop = train or n
    return IoData(u[:stop], y[:stop])


def pruned(entry):
    return entry.model.provenance["stop_reason"].startswith("exact-fit pruning")


def full_dictionary():
    return expand_dictionary(
        build_linear_dictionary(LagSpec(2, 2, include_constant=False)), 2
    )


class TestBicOf:
    def test_unit_msse_no_params(self):
        assert bic_of(1.0, 100, 0) == pytest.approx(0.0, abs=1e-9)

    def test_penalty_monotone_in_params(self):
        assert bic_of(0.5, 100, 3) > bic_of(0.5, 100, 2)

    def test_ranking_matches_recomputation(self):
        rng = np.random.default_rng(0)
        entries = [(rng.uniform(0.1, 2.0), rng.integers(1, 8)) for _ in range(10)]
        ours = [bic_of(m, 200, int(k)) for m, k in entries]
        reference = [200 * np.log(m) + k * np.log(200) for m, k in entries]
        assert np.argsort(ours).tolist() == np.argsort(reference).tolist()

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bic_of(-1.0, 10, 1)
        with pytest.raises(ValueError):
            bic_of(1.0, 3, 3)


class TestIterativeOfr:
    def test_noise_free_recovery_first_iteration(self):
        data = benchmark_data(train=120)
        d = full_dictionary()
        result = iterative_ofr(d, None, data, SearchConfig())
        model = result.model
        true_terms, true_coefs = dc_motor_terms()
        assert set(model.terms) == set(true_terms)
        want = dict(zip(true_terms, true_coefs))
        for term, coef in zip(model.terms, model.coefficients):
            assert coef == pytest.approx(want[term], abs=1e-6)

    def test_exact_dictionary_recovers_everything(self):
        # dictionary containing exactly the true terms: one iteration must
        # select all of them with near-exact coefficients
        from narxid.terms import Dictionary

        data = benchmark_data(train=120)
        true_terms, true_coefs = dc_motor_terms()
        d = Dictionary(true_terms)
        result = iterative_ofr(d, None, data, SearchConfig())
        model = result.model
        assert set(model.terms) == set(true_terms)
        want = dict(zip(true_terms, true_coefs))
        for term, coef in zip(model.terms, model.coefficients):
            assert coef == pytest.approx(want[term], abs=1e-6)

    def test_single_seed_single_iteration_runs_one_path(self):
        data = benchmark_data(train=120)
        d = full_dictionary()
        cfg = SearchConfig(max_iterations=1)
        result = iterative_ofr(d, [d[0]], data, cfg)
        assert result.iterations == 1
        # the seed's own path, then at most its pruned re-selection
        first, *pruned = result.pool
        assert first.path.term_indices[0] == 0
        assert len(pruned) <= 1
        assert all(e.path.stop_reason.startswith("exact-fit pruning") for e in pruned)

    def test_preselect_term_outside_the_dictionary(self):
        outside = parse_term("y(t-3)")
        with pytest.raises(ConfigError, match="preselect term not in dictionary"):
            iterative_ofr(full_dictionary(), [outside], benchmark_data(train=120))

    def test_matches_exhaustive_path_search_on_small_dictionary(self):
        data = benchmark_data(train=150)
        base = build_linear_dictionary(LagSpec(2, 2, include_constant=False))
        d = expand_dictionary(base, 2)
        small = type(d)(d.terms[:10])
        cfg = SearchConfig(max_iterations=1)
        # exhaustive: every single-path run, scored identically
        exhaustive = iterative_ofr(small, list(small.terms), data, cfg)
        seeded = iterative_ofr(small, None, data, cfg)
        assert seeded.best.bic == exhaustive.best.bic
        assert set(seeded.model.terms) == set(exhaustive.model.terms)

    def test_incumbent_bic_non_increasing(self):
        data = benchmark_data(train=90)
        d = full_dictionary()
        result = iterative_ofr(d, [d.terms[2]], data, SearchConfig())
        bics = result.iteration_bics
        incumbents = np.minimum.accumulate(bics)
        assert all(b >= i - 1e-12 for b, i in zip(bics, incumbents))
        assert result.best.bic == pytest.approx(min(bics))

    def test_unstable_models_retained_but_not_selected(self):
        # explosive record y(t) = 1.1 y(t-1) + 1: every candidate model the
        # paths can fit reproduces the unstable pole plus bias, which the
        # constant-input probe sees diverge; search must fail with the pool
        y = np.empty(60)
        y[0] = 1.0
        for t in range(1, 60):
            y[t] = 1.1 * y[t - 1] + 1.0
        data = IoData(np.zeros(60), y)
        d = build_linear_dictionary(LagSpec(1, 0, include_constant=True))
        with pytest.raises(IdentificationError) as exc_info:
            iterative_ofr(d, None, data, SearchConfig())
        pool = exc_info.value.pool
        assert len(pool) >= 1
        assert all(not e.verdict.stable for e in pool)

    def test_model_terms_subset_of_dictionary(self):
        data = benchmark_data(train=100)
        d = full_dictionary()
        result = iterative_ofr(d, None, data, SearchConfig())
        assert set(result.model.terms) <= set(d.terms)
        assert len(result.model.terms) == len(result.model.coefficients)

    def test_free_run_msse_matches_entry(self):
        data = benchmark_data(train=100)
        d = full_dictionary()
        result = iterative_ofr(d, None, data, SearchConfig())
        model = result.model
        run = simulate_free_run(model, data.u, data.y[: model.max_output_lag])
        expected = float(np.mean((data.y[2:] - run.output[2:]) ** 2))
        assert result.best.msse == pytest.approx(expected, rel=1e-12)


def chosen_terms(dictionary, data):
    """The chosen term set, or None when the search finds no stable model."""
    try:
        return set(iterative_ofr(dictionary, None, data).model.terms)
    except IdentificationError:
        return None


class TestDictionaryPermutation:
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(seed=st.integers(1, 10_000), order=st.permutations(range(14)))
    def test_permuting_the_dictionary_keeps_the_chosen_terms(self, seed, order):
        # a search ranks seeds by position and breaks ties toward the lower
        # index, and its sums round by where a column sits; on a noisy DC
        # motor record no two candidates tie, so the order of the
        # dictionary must not change the outcome
        u = generate_signal(WhiteNoise(length=200, seed=seed))
        try:
            y = dc_motor_reference(u)
        except DivergenceError:
            assume(False)
        noisy = IoData(u, y + 0.05 * np.random.default_rng(seed).normal(size=200))
        d = full_dictionary()
        permuted = type(d)(tuple(d[i] for i in order))
        assert chosen_terms(permuted, noisy) == chosen_terms(d, noisy)


@pytest.fixture(scope="module")
def multitone_search():
    # noise-free record on which the winning path ends numerically exact
    # with a term that later terms made redundant
    u = generate_signal(Multitone(length=1000, sample_period=0.1))
    data = IoData(u[:200], dc_motor_reference(u)[:200])
    d = full_dictionary()
    return data, d, iterative_ofr(d, None, data, SearchConfig())


class TestExactFitPruning:
    def test_pruned_winner_is_true_structure(self, multitone_search):
        _, _, result = multitone_search
        assert pruned(result.best)
        assert "y(t-1)^2" in result.best.model.provenance["stop_reason"]
        true_terms, _ = dc_motor_terms()
        assert set(result.model.terms) == set(true_terms)
        # the padded parent stays in the pool, so pruning added a candidate
        assert any(
            not pruned(e) and set(true_terms) < set(e.model.terms)
            for e in result.pool
        )

    def test_pruned_path_matches_least_squares(self, multitone_search):
        data, d, result = multitone_search
        best = result.best
        assert pruned(best)
        indices = list(best.path.term_indices)
        assert best.model.terms == tuple(d[i] for i in indices)
        problem = build_problem(data, d)
        reference = least_squares(problem, indices)
        assert_allclose(best.model.coefficients, reference, rtol=1e-9, atol=1e-12)
        resid = problem.target - problem.phi[:, indices] @ reference
        path_resid = problem.target - problem.phi[:, indices] @ back_substitute(best.path)
        assert float(path_resid @ path_resid) == pytest.approx(
            float(resid @ resid), abs=1e-20
        )

    def test_pruned_search_repeats(self, multitone_search):
        data, d, first = multitone_search
        second = iterative_ofr(d, None, data, SearchConfig())
        assert first.n_evaluations == second.n_evaluations
        assert len(first.pool) == len(second.pool)
        assert first.best.model.terms == second.best.model.terms
        assert (
            first.best.model.provenance["stop_reason"]
            == second.best.model.provenance["stop_reason"]
        )

    @pytest.mark.parametrize("record", ["white-3-3", "multitone-err"])
    def test_pruned_reselection_runs_without_stop_rules(self, record):
        # the re-selection must take every kept column: with the stop rules
        # on, the white-noise path ends on a PRESS increase after 6 of its 9
        # columns and the search keeps 12 terms ("PRESS floor"); the
        # multitone ERR search keeps 10 ("cumulative ERR threshold")
        if record == "white-3-3":
            u = generate_signal(WhiteNoise(length=60, seed=2))
            data = IoData(u, dc_motor_reference(u))
            spec, criterion = LagSpec(3, 3, 2, include_constant=False), Criterion.PRESS
        else:
            u = generate_signal(Multitone(length=300, sample_period=0.12))
            data = IoData(u[:200], dc_motor_reference(u)[:200])
            spec, criterion = LagSpec(2, 2, 2, include_constant=False), Criterion.ERR
        d = expand_dictionary(build_linear_dictionary(spec), 2)
        result = iterative_ofr(d, None, data, SearchConfig(criterion=criterion))
        true_terms, _ = dc_motor_terms()
        assert pruned(result.best)
        assert sorted(map(str, result.model.terms)) == sorted(map(str, true_terms))

    def test_one_term_winner_is_kept(self):
        # y(t) = u(t-1): an ERR path seeded by u(t-1) fits exactly in one
        # step, and pruning cannot drop the only term it has
        u = np.random.default_rng(1).normal(size=100)
        y = np.concatenate(([0.0], u[:-1]))
        d = build_linear_dictionary(LagSpec(2, 2, 1, False))
        data = IoData(u, y)
        result = iterative_ofr(d, None, data, SearchConfig(criterion=Criterion.ERR))
        assert result.model.terms == (parse_term("u(t-1)"),)
        assert not pruned(result.best)
        assert not any(pruned(e) for e in result.pool)
        problem = build_problem(data, d)
        seed = d.index(parse_term("u(t-1)"))
        for criterion in Criterion:
            path = ofr_select(problem, criterion, forced_first=seed, max_terms=1)
            assert _exact_fit_columns(problem, path) is None

    @pytest.mark.parametrize("stop", [True, False])
    def test_winners_pruning_to_one_set_share_its_entry(self, stop, monkeypatch):
        # y(t) = u(t-1): paths that run past the exact fit (stop unset)
        # give two iterations winners that both prune to u(t-1), which is
        # selected again and pooled once; stopped at the floor, the path
        # forced by u(t-1) ends after it and nothing is pruned
        select = functools.partial(ofr_select, stop=stop)
        prunes = []

        def counting_prune(*args):
            prunes.append(args[2])
            return _exact_fit_prune(*args)

        monkeypatch.setattr(narxid.search, "ofr_select", select)
        monkeypatch.setattr(narxid.search, "_exact_fit_prune", counting_prune)
        u = np.random.default_rng(1).normal(size=100)
        y = np.concatenate(([0.0], u[:-1]))
        d = build_linear_dictionary(LagSpec(2, 2, 1, False))
        result = iterative_ofr(d, None, IoData(u, y), SearchConfig())
        one_term = (parse_term("u(t-1)"),)
        assert result.model.terms == one_term
        assert [e.model.terms for e in result.pool].count(one_term) == 1
        assert len(prunes) == len(set(prunes)) == (0 if stop else 1)

    def test_noisy_record_never_pruned(self):
        data = benchmark_data(train=120)
        rng = np.random.default_rng(7)
        noisy = IoData(data.u, data.y + 0.01 * rng.normal(size=len(data.y)))
        result = iterative_ofr(full_dictionary(), None, noisy, SearchConfig())
        floor = noise_floor(noisy.y[2:])
        assert result.best.msse > floor
        assert not any(pruned(e) for e in result.pool)


def reference_iterative_ofr(
    dictionary, preselect, data, cfg=SearchConfig(), visits=None
):
    """The search loop without reuse or BIC bound: every seed's path, probe
    and free run are computed again in every iteration that seeds it.  The
    first result, in run order, that ends on a term set is the set's record:
    later results with that set are ranked as it, and the pool holds each
    record once.  ``iterative_ofr`` must choose exactly what this loop
    chooses.  A ``visits`` list receives a (record, 0-based iteration) pair
    for every path and pruned re-selection that the loop scores.
    """
    problem = build_problem(data, dictionary)
    msse_floor = noise_floor(problem.target)
    seeds = list(dict.fromkeys(preselect)) if preselect else list(dictionary.terms)
    seen_sets = set()
    records = {}
    incumbent = incumbent_key = None
    n_evaluations = 0
    iteration_bics = []
    converged = False
    iterations = 0

    def record(entry, iteration):
        entry = records.setdefault(tuple(sorted(entry.path.term_indices)), entry)
        if visits is not None:
            visits.append((entry, iteration))
        return entry

    for iteration in range(cfg.max_iterations):
        iterations = iteration + 1
        try:
            seed_indices = [dictionary.index(t) for t in seeds]
        except KeyError as exc:
            raise ConfigError(f"preselect term not in dictionary: {exc}") from None

        paths = [
            ofr_select(
                problem,
                criterion=cfg.criterion,
                forced_first=i,
                max_terms=cfg.max_terms,
            )
            for i in seed_indices
        ]

        iteration_best = iteration_best_key = None
        for order, path in enumerate(paths):
            n_evaluations += path.n_evaluated
            entry = _score_entry(path, data, problem, cfg)
            if entry.outcome is Outcome.EMPTY:
                continue
            entry = record(entry, iteration)
            if entry.outcome is not Outcome.SCORED:
                continue
            key = (entry.bic, entry.model.n_terms, order)
            if iteration_best_key is None or key < iteration_best_key:
                iteration_best, iteration_best_key = entry, key

        if iteration_best is None:
            break

        if iteration_best.msse <= msse_floor:
            columns = _exact_fit_columns(problem, iteration_best.path)
            if columns is not None:
                pruned = _exact_fit_prune(
                    problem, iteration_best.path, columns, cfg.criterion
                )
                n_evaluations += pruned.n_evaluated
                entry = _score_entry(pruned, data, problem, cfg)
                if entry.outcome is not Outcome.EMPTY:
                    entry = record(entry, iteration)
                    if entry.outcome is Outcome.SCORED and entry.bic <= iteration_best.bic:
                        iteration_best = entry
                        iteration_best_key = (
                            entry.bic, entry.model.n_terms, iteration_best_key[2]
                        )

        iteration_bics.append(iteration_best.bic)
        if incumbent_key is None or iteration_best_key[:2] < incumbent_key[:2]:
            incumbent, incumbent_key = iteration_best, iteration_best_key

        term_set = frozenset(dictionary[i] for i in iteration_best.path.term_indices)
        if term_set in seen_sets:
            converged = True
            break
        seen_sets.add(term_set)
        seeds = list(
            dict.fromkeys(dictionary[i] for i in iteration_best.path.term_indices)
        )

    if incumbent is None:
        raise IdentificationError(
            "no stable candidate model in any iteration", pool=ModelPool(records.values())
        )
    return SearchResult(
        dictionary, ModelPool(records.values()), incumbent, iterations, n_evaluations,
        converged, tuple(iteration_bics),
    )


def _dc_white():
    return benchmark_data(n=120)


def _dc_white_noisy():
    data = benchmark_data(n=120, seed=1)
    noise = 0.3 * np.random.default_rng(101).normal(size=120)
    return IoData(data.u, data.y + noise)


def _dc_prbs():
    u = generate_signal(Prbs(length=300, levels=(0.0, 1.0), hold=5, seed=332))
    return IoData(u, dc_motor_reference(u))


def _linear(seed=90_000):
    # the criterion-9 system with output noise of std 0.1
    rng = np.random.default_rng(seed)
    u = rng.normal(size=400)
    clean = np.zeros(400)
    for t in range(2, 400):
        clean[t] = 1.6 * clean[t - 1] - 0.81 * clean[t - 2] + u[t - 1] + 0.5 * u[t - 2]
    return IoData(u, clean + 0.1 * rng.normal(size=400))


def _multitone():
    # the exact-fit pruning record of TestExactFitPruning
    u = generate_signal(Multitone(length=1000, sample_period=0.1))
    return IoData(u[:200], dc_motor_reference(u)[:200])


def _dc_white_194():
    return benchmark_data(n=194, seed=1070)


def _zero_input():
    # u = 0 leaves every u-term column zero, so their forced-first paths are
    # empty; the output is a noise-free damped oscillation
    y = np.zeros(120)
    y[:2] = 1.0, 0.9
    for t in range(2, 120):
        y[t] = 1.6 * y[t - 1] - 0.81 * y[t - 2]
    return IoData(np.zeros(120), y)


SEARCH_CASES = {
    "dc-white": (_dc_white, None, SearchConfig()),
    "dc-white-noisy": (_dc_white_noisy, None, SearchConfig()),
    "dc-white-err": (_dc_white_noisy, None, SearchConfig(criterion=Criterion.ERR)),
    "dc-prbs": (_dc_prbs, None, SearchConfig()),
    "linear": (_linear, None, SearchConfig()),
    "multitone-pruned": (_multitone, None, SearchConfig()),
    # the path seeded by u(t-1)^2 (11 steps) wins iteration 1 and prunes to
    # a set without its seed, led by y(t-1); iteration 1 cut the paths of
    # y(t-1) and y(t-2) (12 steps each), and iteration 2 runs them again:
    # y(t-1) under no bound yet, y(t-2) under the weaker bound y(t-1) sets
    "rerun": (_multitone, [11, 0, 1], SearchConfig()),
    "zero-input": (_zero_input, None, SearchConfig()),
    # the bound caps paths below a max_terms far above the dictionary size
    "huge-max-terms": (_dc_white, None, SearchConfig(max_terms=10**9)),
    # with these seeds the winner changes once more: three iterations
    "preselect": (_dc_white_noisy, [6, 0, 3, 11, 1], SearchConfig()),
    "preselect-one": (_dc_white_noisy, [12], SearchConfig()),
    # iteration 1 scores the paths of u(t-2) (10 steps, with y(t-1)^2) and
    # y(t-2)^2 (9 steps), then cuts the path of y(t-2)*u(t-1) at 10 steps,
    # on u(t-2)'s set; iteration 2 cuts five more paths there: a cut path
    # keeps its own record, even on a set that is pooled
    "cut-on-pooled-set": (_dc_white_194, [3, 8, 9], SearchConfig()),
    "capped": (_dc_white_noisy, [12], SearchConfig(max_iterations=2)),
}


def run_case(name, search):
    make_data, preselect, cfg = SEARCH_CASES[name]
    d = full_dictionary()
    seeds = None if preselect is None else [d[i] for i in preselect]
    return search(d, seeds, make_data(), cfg)


def bits(model):
    """Coefficients and bias as integers, so that -0.0 and 0.0 differ."""
    return np.array([*model.coefficients, model.bias]).view(np.int64).tolist()


def term_set(entry):
    """A record's key in the search's candidate table: its sorted columns."""
    return tuple(sorted(entry.path.term_indices))


def assert_matches_reference(dictionary, preselect, data, cfg, run_order=True):
    """``iterative_ofr`` chooses what the reference loop chooses, and pools
    one record for each set the reference pools, less the sets that only
    paths its BIC bound cut reach, with the reference's records.  With
    ``run_order`` they are in the reference's order; a search that runs a
    cut path again pools its set later than the reference does."""
    ours = iterative_ofr(dictionary, preselect, data, cfg)
    visits = []
    ref = reference_iterative_ofr(dictionary, preselect, data, cfg, visits)
    assert ours.best.model.terms == ref.best.model.terms
    assert bits(ours.best.model) == bits(ref.best.model)
    assert ours.best.msse == ref.best.msse
    assert ours.best.bic == ref.best.bic
    assert ours.iteration_bics == ref.iteration_bics
    assert ours.iterations == ref.iterations
    assert ours.converged == ref.converged
    assert ours.best.path.stop_reason == ref.best.path.stop_reason
    # one record per set, and every set is one the reference pools
    records = {term_set(e): e for e in ref.pool}
    keys = [term_set(e) for e in ours.pool]
    assert len(set(keys)) == len(keys)
    assert set(keys) <= set(records)
    assert [e.model for e in ours.pool] == [records[k].model for k in keys]
    if run_order:
        # the pool is a subsequence of the reference pool
        remaining = iter(records)
        assert all(key in remaining for key in keys)
    # and what it dropped was cut: in every iteration that reached it, it is
    # longer than the bound its iteration's winner allows, and scores worse
    problem = build_problem(data, dictionary)
    floor = noise_floor(problem.target)
    n = problem.n_rows
    k_max = min(cfg.max_terms or default_max_terms(len(dictionary), n), len(dictionary))
    dropped = set(records) - set(keys)
    for entry, iteration in visits:
        if term_set(entry) in dropped:
            winner_bic = ref.iteration_bics[iteration]
            cap = _length_cap(winner_bic, floor, n, k_max)
            assert cap is not None and len(entry.path.steps) >= cap
            assert entry.bic > winner_bic
    assert ours.n_evaluations <= ref.n_evaluations
    return ours


@pytest.mark.parametrize("name", sorted(SEARCH_CASES))
class TestSearchReuse:
    """Each distinct term set is computed once per search unless the BIC
    bound cut the paths that reach it, and the choice is the one the loop
    without reuse makes."""

    def test_matches_reference_loop(self, name):
        # rerun: the reference pools the set of y(t-1)'s path in iteration 1,
        # where the search cuts it; the search pools it in iteration 2, after
        # iteration 1's pruned winner
        search = functools.partial(assert_matches_reference, run_order=name != "rerun")
        run_case(name, search)

    def test_one_record_per_term_set(self, name):
        keys = [term_set(e) for e in run_case(name, iterative_ofr).pool]
        assert len(set(keys)) == len(keys)

    def test_each_path_and_probe_once(self, name, monkeypatch):
        # caps[-1]: the length cap in force in the current iteration, from
        # the bound's last result since the iteration's log line
        calls, probes, outcomes, caps = [], [], {}, [None]

        def counting_select(problem, *args, **kwargs):
            path = ofr_select(problem, *args, **kwargs)
            key = problem.dictionary.terms, kwargs["forced_first"]
            calls.append((key, kwargs, path, caps[-1]))
            return path

        def recording_cap(*args):
            caps.append(_length_cap(*args))
            return caps[-1]

        class IterationLog:
            def debug(self, message, *args):
                if "paths run" in message:
                    caps.append(None)

        def counting_probe(model, *args, **kwargs):
            probes.append(model)
            return stability_probe(model, *args, **kwargs)

        def recording_score(path, *args):
            entry = _score_entry(path, *args)
            outcomes[id(path)] = entry.outcome
            return entry

        monkeypatch.setattr(narxid.search, "ofr_select", counting_select)
        monkeypatch.setattr(narxid.search, "stability_probe", counting_probe)
        monkeypatch.setattr(narxid.search, "_score_entry", recording_score)
        monkeypatch.setattr(narxid.search, "_length_cap", recording_cap)
        monkeypatch.setattr(narxid.search, "logger", IterationLog())
        result = run_case(name, iterative_ofr)
        # a cut path is a forced-first path (pruned re-selections pass stop)
        # that reached the cap in force, whatever set it ends on; the search
        # scored it as cut, and it ran under that cap
        cut = {
            id(path) for _, kwargs, path, cap in calls
            if "stop" not in kwargs and cap is not None and len(path.steps) >= cap
        }
        assert cut == {i for i, outcome in outcomes.items() if outcome is Outcome.CUT}
        runs = {}
        for key, kwargs, path, _ in calls:
            runs.setdefault(key, []).append(path)
            if id(path) in cut:
                assert len(path.steps) == kwargs["max_terms"]
        # a path runs again only if its earlier runs were cut
        for paths in runs.values():
            assert all(id(p) in cut for p in paths[:-1])
        assert result.n_cut == len(cut)
        # the record of a set is the first uncut path, in run order, that
        # ends on it (None: a pruned re-selection, whose problem holds only
        # its columns), and a set that a path reached is not re-selected
        d = result.dictionary
        first = {}
        for (terms, _), kwargs, path, _ in calls:
            if path.steps and id(path) not in cut:
                columns = tuple(sorted(d.index(terms[i]) for i in path.term_indices))
                if "stop" in kwargs:
                    assert columns not in first
                first.setdefault(columns, None if "stop" in kwargs else path)
        assert list(first) == [term_set(e) for e in result.pool]
        for entry in result.pool:
            path = first[term_set(entry)]
            assert pruned(entry) if path is None else entry.path is path
        assert len(probes) == len(result.pool)
        assert result.n_evaluations == sum(path.n_evaluated for _, _, path, _ in calls)


@pytest.mark.parametrize("name", ["multitone-pruned", "dc-white"])
def test_exact_fit_check_once_per_winning_record(name, monkeypatch):
    # a winner that repeats (the converging iteration's, at least) is not
    # checked again, and each check finds what the reference loop's does
    checks = {"search": [], "reference": []}
    check = _exact_fit_columns

    def spy(calls):
        def recording_check(problem, path):
            columns = check(problem, path)
            calls.append((tuple(sorted(path.term_indices)), columns))
            return columns
        return recording_check

    monkeypatch.setattr(narxid.search, "_exact_fit_columns", spy(checks["search"]))
    run_case(name, iterative_ofr)
    monkeypatch.setitem(globals(), "_exact_fit_columns", spy(checks["reference"]))
    run_case(name, reference_iterative_ofr)
    ours, ref = checks["search"], checks["reference"]
    assert len(ours) < len(ref)
    assert len({key for key, _ in ours}) == len(ours)
    assert ours == list(dict.fromkeys(ref))


@pytest.mark.parametrize("record", range(4))
def test_linear_stage_pools_the_first_path_of_its_one_set(record):
    # the linear records of the small-batch benchmark at seed 332: every
    # forced-first path of the 4-term ARX dictionary ends on all 4 terms, so
    # the stage has one candidate, the path forced by y(t-1); four records
    # of one set would leave the winner to BIC differences of about 1e-15
    data = _linear(seed=[332, record])
    report = identify(data, LagSpec(2, 2, 2, include_constant=False))
    (entry,) = report.arx.pool
    assert entry.path.term_indices[0] == 0
    assert report.arx.best is entry


def derived_outcome(entry):
    """An entry's outcome as read off its fields: probe divergence, else
    probe variance, else a non-finite training error, else a non-finite BIC."""
    if entry.verdict.diverged:
        return Outcome.PROBE_DIVERGED
    if not entry.verdict.stable:
        return Outcome.PROBE_VARIANCE
    if not np.isfinite(entry.msse):
        return Outcome.RUN_DIVERGED
    if not np.isfinite(entry.bic):
        return Outcome.NO_BIC
    return Outcome.SCORED


def assert_outcomes_derived(pool):
    assert [e.outcome for e in pool] == [derived_outcome(e) for e in pool]
    selectable = [e for e in pool if e.verdict.stable and np.isfinite(e.bic)]
    assert [id(e) for e in pool.stable()] == [id(e) for e in selectable]


class TestOutcome:
    """The outcome the search names is the one its entry's verdict, training
    error and BIC imply, and ``stable()`` lists the entries with a stable
    verdict and a finite BIC."""

    @pytest.mark.parametrize("name", sorted(SEARCH_CASES))
    def test_search_records(self, name):
        assert_outcomes_derived(run_case(name, iterative_ofr).pool)

    def test_rejection_note_records(self, monkeypatch):
        pools = []

        def recording_note(pool):
            pools.append(pool)
            return note(pool)

        note = narxid.pipeline._rejection_note
        monkeypatch.setattr(narxid.pipeline, "_rejection_note", recording_note)
        # case E at seed 2: every nonlinear candidate fails the probe
        u = generate_signal(Prbs(length=1000, levels=(0.0, 1.0), hold=5, seed=2))
        y = dc_motor_reference(u) + 0.01 * np.random.default_rng(2).normal(size=1000)
        identify(IoData(u, y), LagSpec(2, 2, 2, include_constant=True))
        # an ERR path without the leverage guard takes a term per fitted row
        rng = np.random.default_rng(2)
        u = rng.normal(size=12)
        y = dc_motor_reference(u) + rng.normal(0, 0.05, 12)
        cfg = SearchConfig(criterion=Criterion.ERR, max_terms=100)
        with pytest.warns(UserWarning, match="usable rows"):
            identify(IoData(u, y), LagSpec(2, 2, 2, False), cfg=cfg)
        assert len(pools) == 2
        outcomes = {e.outcome for pool in pools for e in pool}
        assert outcomes == {
            Outcome.PROBE_DIVERGED, Outcome.PROBE_VARIANCE, Outcome.NO_BIC
        }
        for pool in pools:
            assert_outcomes_derived(pool)

    def test_linear_stage_without_a_stable_candidate(self):
        u = np.random.default_rng(24).normal(size=1000)
        data = IoData(u[:60], dc_motor_reference(u)[:60])
        with pytest.raises(IdentificationError) as info:
            identify(data, LagSpec(2, 2, 2, include_constant=False))
        assert len(info.value.pool) > 0
        assert_outcomes_derived(info.value.pool)

    def test_training_run_divergence(self, monkeypatch):
        # no record here has a probe-stable model whose training run
        # diverges, so the free run is made to diverge at its first sample
        def diverging_run(model, u, y_init=()):
            return FreeRunResult(np.full(len(u), np.nan), diverged_at=0)

        data = benchmark_data(train=100)
        problem = build_problem(data, full_dictionary())
        path = ofr_select(problem, forced_first=0)
        monkeypatch.setattr(narxid.search, "simulate_free_run", diverging_run)
        entry = _score_entry(path, data, problem, SearchConfig())
        assert entry.verdict.stable
        assert entry.outcome is derived_outcome(entry) is Outcome.RUN_DIVERGED
        assert narxid.pipeline._rejection_note(ModelPool([entry])).endswith(
            "of 1 candidates, 0 diverged under the probe, 0 had probe variance "
            "above epsilon and 1 diverged on the training run"
        )

    def test_empty_and_cut_paths_have_no_model(self):
        data = _zero_input()
        d = full_dictionary()
        problem = build_problem(data, d)
        # u = 0 leaves the u(t-1) column zero: its forced-first path is empty
        empty = ofr_select(problem, forced_first=d.index(parse_term("u(t-1)")))
        path = ofr_select(problem, forced_first=0)
        args = data, problem, SearchConfig()
        records = [
            (_score_entry(empty, *args), Outcome.EMPTY),
            (_score_entry(path, *args, len(path.steps)), Outcome.CUT),
        ]
        for entry, outcome in records:
            assert entry.outcome is outcome
            assert entry.model is entry.verdict is None
            assert entry.msse == entry.bic == np.inf
        assert _score_entry(path, *args, len(path.steps) + 1).outcome is Outcome.SCORED


@st.composite
def noise_free_searches(draw):
    """A noise-free DC-motor record and a preselect order of the full
    dictionary: a random subset of its terms, in random order."""
    n = draw(st.integers(80, 200))
    seed = draw(st.integers(0, 2**16))
    order = draw(st.permutations(range(14)))
    size = draw(st.integers(1, 14))
    criterion = draw(st.sampled_from(list(Criterion)))
    try:
        data = benchmark_data(n=n, seed=seed)
    except DivergenceError:
        assume(False)
    return data, order[:size], SearchConfig(criterion=criterion)


class TestBicBound:
    """Paths that cannot beat their iteration's best BIC are cut, and the
    choice stays the one the search without the bound makes."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(noise_free_searches())
    def test_random_preselect_orders_match_the_reference(self, search):
        data, order, cfg = search
        d = full_dictionary()
        assert_matches_reference(d, [d[i] for i in order], data, cfg)

    def test_cut_path_runs_again_under_a_weaker_bound(self, monkeypatch):
        runs = []

        def counting_select(problem, *args, **kwargs):
            path = ofr_select(problem, *args, **kwargs)
            runs.append((kwargs["forced_first"], kwargs.get("max_terms"), len(path.steps)))
            return path

        monkeypatch.setattr(narxid.search, "ofr_select", counting_select)
        result = run_case("rerun", iterative_ofr)
        # iteration 1: u(t-1)^2 scores 11 steps, so y(t-1) and y(t-2) are
        # cut at 12; iteration 2 seeds y(t-1) first and runs it under no
        # bound, then y(t-2) under the cap of y(t-1)'s 12 steps
        assert runs[:3] == [(11, None, 11), (0, 12, 12), (1, 12, 12)]
        assert runs[4:6] == [(0, None, 12), (1, 13, 12)]
        assert result.n_cut == 2
        # the second runs are pooled after iteration 1's pruned winner, and
        # the paths of y(t-1) and y(t-2) end on one set, which one record holds
        assert [(e.path.term_indices[0], pruned(e)) for e in result.pool] == [
            (11, False), (0, True), (0, False), (6, False)
        ]

    def test_huge_max_terms_cuts_like_the_default(self):
        huge = run_case("huge-max-terms", iterative_ofr)
        default = run_case("dc-white", iterative_ofr)
        assert huge.n_cut == default.n_cut > 0
        assert huge.n_evaluations == default.n_evaluations
        huge_paths, default_paths = (
            [(e.path.term_indices, e.path.stop_reason) for e in r.pool] for r in (huge, default)
        )
        assert huge_paths == default_paths
        assert bits(huge.model) == bits(default.model)

    @pytest.mark.parametrize("name, cuts", [
        ("dc-white", True), ("dc-prbs", True), ("zero-input", True),
        ("dc-white-noisy", False), ("linear", False), ("dc-white-err", False),
    ])
    def test_only_near_exact_records_are_cut(self, name, cuts):
        assert (run_case(name, iterative_ofr).n_cut > 0) == cuts

    def test_each_iteration_logs_its_paths_and_cuts(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="narxid.search"):
            result = run_case("dc-white", iterative_ofr)
        lines = [r.getMessage() for r in caplog.records if r.name == "narxid.search"]
        first = re.fullmatch(r"iteration 1: (\d+) paths run, (\d+) cut, k_cap (\d+)", lines[0])
        assert first and int(first[1]) == len(full_dictionary())
        # the two iterations' cuts add up to the result's
        cuts = [int(m[1]) for m in (re.search(r"(\d+) cut", line) for line in lines) if m]
        assert sum(cuts) == result.n_cut

    @pytest.mark.parametrize("n", [60, 496, 20_000])
    @pytest.mark.parametrize("floor", [1e-30, 1e-24, 1.0, 1e6])
    def test_length_cap_is_the_first_length_that_cannot_win(self, n, floor):
        # best: a k_best-term candidate with msse a factor e^(excess / n)
        # above the floor, as _score_entry computes it; k_max = n puts no
        # limit below n, and no length reaches n
        for k_best in (1, 9, 30):
            for excess in (0.0, 1e-9, 0.5, 3.0, 1e4):
                best = bic_of(floor * np.exp(excess / n), n, k_best)
                cap = _length_cap(best, floor, n, n)
                assert _length_cap(best, floor, n, 10 * n) == cap
                if cap is None:
                    # every length below n is within rounding of best
                    assert bic_of(floor, n, n - 1) <= best + 1e-6 * abs(best)
                    continue
                assert k_best < cap < n
                assert bic_of(floor, n, cap) > best
                assert bic_of(floor, n, cap - 1) <= best + 1e-9 * (abs(best) + 1.0)
                # a first length beyond the longest path, k_max, cuts nothing
                assert _length_cap(best, floor, n, cap) == cap
                assert _length_cap(best, floor, n, cap - 1) is None
            # a length whose bound is above best by rounding only is kept
            edge = np.nextafter(bic_of(floor, n, k_best), -np.inf)
            cap = _length_cap(edge, floor, n, n)
            assert cap is None or cap > k_best

    @pytest.mark.parametrize("best, floor, n, cap", [
        (-1073775.845314504, 1.7513209783196401e-236, 1979, 70),
        (538.5042989420959, 0.7545919663248629, 10633, 381),
    ], ids=["near-exact", "noisy"])
    def test_length_cap_matches_a_scan_of_every_length(self, best, floor, n, cap):
        # inputs near the edge of rounding, on which a closed-form inverse of
        # the bound is off by two (first) and by one (second)
        limit = best + _BIC_ROUNDING * np.finfo(float).eps * (
            abs(bic_of(floor, n, 0)) + abs(best)
        )
        kept = [k for k in range(n) if bic_of(floor, n, k) <= limit]
        assert _length_cap(best, floor, n, n) == kept[-1] + 1 == cap
        assert _length_cap(best, floor, n, cap - 1) is None
