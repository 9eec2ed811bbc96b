"""Iterative multi-path search: stability screening, BIC choice, convergence."""

import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import narxid.search
from narxid import (
    Criterion,
    IdentificationError,
    IoData,
    LagSpec,
    ModelPool,
    Multitone,
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
    iterative_ofr,
    least_squares,
    ofr_select,
    parse_term,
    simulate_free_run,
    stability_probe,
)
from narxid.errors import ConfigError, DivergenceError
from narxid.ofr import noise_floor
from narxid.search import (
    _exact_fit_columns,
    _exact_fit_prune,
    _score_entry,
    data_fingerprint,
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
        floor = noise_floor(problem.target)
        seed = d.index(parse_term("u(t-1)"))
        for criterion in Criterion:
            path = ofr_select(problem, criterion, forced_first=seed, max_terms=1)
            assert _exact_fit_columns(problem, path, floor) is None

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


def reference_iterative_ofr(dictionary, preselect, data, cfg=SearchConfig()):
    """The search loop without reuse: every seed's path, probe and free run
    are computed again in every iteration that seeds it, and every result is
    pooled.  ``iterative_ofr`` must choose exactly what this loop chooses.
    """
    problem = build_problem(data, dictionary)
    data_hash = data_fingerprint(data)
    msse_floor = noise_floor(problem.target)
    seeds = list(dict.fromkeys(preselect)) if preselect else list(dictionary.terms)
    seen_sets = set()
    pool = []
    incumbent = incumbent_key = None
    n_evaluations = 0
    iteration_bics = []
    converged = False
    iterations = 0

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
            entry = _score_entry(path, data, problem, cfg, msse_floor, data_hash)
            if entry is None:
                continue
            pool.append(entry)
            if not entry.selectable:
                continue
            key = (entry.bic, entry.model.n_terms, order)
            if iteration_best_key is None or key < iteration_best_key:
                iteration_best, iteration_best_key = entry, key

        if iteration_best is None:
            break

        if iteration_best.msse <= msse_floor:
            columns = _exact_fit_columns(problem, iteration_best.path, msse_floor)
            if columns is not None:
                pruned = _exact_fit_prune(
                    problem, iteration_best.path, columns, cfg.criterion
                )
                n_evaluations += pruned.n_evaluated
                entry = _score_entry(
                    pruned, data, problem, cfg, msse_floor, data_hash
                )
                if entry is not None:
                    pool.append(entry)
                    if entry.selectable and entry.bic <= iteration_best.bic:
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
            "no stable candidate model in any iteration", pool=ModelPool(pool)
        )
    return SearchResult(
        dictionary, ModelPool(pool), incumbent, iterations, n_evaluations,
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


def _linear():
    # the criterion-9 system with output noise of std 0.1
    rng = np.random.default_rng(90_000)
    u = rng.normal(size=400)
    clean = np.zeros(400)
    for t in range(2, 400):
        clean[t] = 1.6 * clean[t - 1] - 0.81 * clean[t - 2] + u[t - 1] + 0.5 * u[t - 2]
    return IoData(u, clean + 0.1 * rng.normal(size=400))


def _multitone():
    # the exact-fit pruning record of TestExactFitPruning
    u = generate_signal(Multitone(length=1000, sample_period=0.1))
    return IoData(u[:200], dc_motor_reference(u)[:200])


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
    "zero-input": (_zero_input, None, SearchConfig()),
    # with these seeds the winner changes once more: three iterations
    "preselect": (_dc_white_noisy, [6, 0, 3, 11, 1], SearchConfig()),
    "preselect-one": (_dc_white_noisy, [12], SearchConfig()),
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


def path_key(entry):
    return entry.path.term_indices, entry.path.stop_reason


@pytest.mark.parametrize("name", sorted(SEARCH_CASES))
class TestSearchReuse:
    """Each candidate is computed once per search, and the choice is the
    one the loop without reuse makes."""

    def test_matches_reference_loop(self, name):
        ours = run_case(name, iterative_ofr)
        ref = run_case(name, reference_iterative_ofr)
        assert ours.best.model.terms == ref.best.model.terms
        assert bits(ours.best.model) == bits(ref.best.model)
        assert ours.best.msse == ref.best.msse
        assert ours.best.bic == ref.best.bic
        assert ours.iteration_bics == ref.iteration_bics
        assert ours.iterations == ref.iterations
        assert ours.converged == ref.converged
        assert ours.best.path.stop_reason == ref.best.path.stop_reason
        # the pool is the reference pool with repeats dropped
        first_seen = {}
        for entry in ref.pool:
            first_seen.setdefault(path_key(entry), entry)
        assert [path_key(e) for e in ours.pool] == list(first_seen)
        assert [e.model for e in ours.pool] == [e.model for e in first_seen.values()]
        assert ours.n_evaluations <= ref.n_evaluations

    def test_each_path_and_probe_once(self, name, monkeypatch):
        calls, probes = [], []

        def counting_select(problem, *args, **kwargs):
            path = ofr_select(problem, *args, **kwargs)
            calls.append(((problem.dictionary.terms, kwargs["forced_first"]), path))
            return path

        def counting_probe(model, *args, **kwargs):
            probes.append(model)
            return stability_probe(model, *args, **kwargs)

        monkeypatch.setattr(narxid.search, "ofr_select", counting_select)
        monkeypatch.setattr(narxid.search, "stability_probe", counting_probe)
        result = run_case(name, iterative_ofr)
        keys = [key for key, _ in calls]
        assert len(keys) == len(set(keys))
        assert len(probes) == len(result.pool)
        assert result.n_evaluations == sum(path.n_evaluated for _, path in calls)
