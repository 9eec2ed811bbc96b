"""Free-run simulation, one-step prediction, and the stability probe."""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from narxid import (
    ConfigError,
    Criterion,
    Dictionary,
    InsufficientDataError,
    IoData,
    LagSpec,
    Model,
    Signal,
    build_linear_dictionary,
    build_problem,
    dc_motor_reference,
    dc_motor_terms,
    expand_dictionary,
    ofr_select,
    parse_term,
    predict_one_step,
    simulate_free_run,
    stability_probe,
)
from narxid import search, simulation
from narxid.search import SearchConfig, _score_entry, build_model
from narxid.simulation import DIVERGENCE_LIMIT, _compiled_recursion, _recursion_source


def linear_model(a=0.5, b=1.0):
    """y(t) = a y(t-1) + b u(t-1)"""
    return Model((parse_term("y(t-1)"), parse_term("u(t-1)")), (a, b))


def dc_motor_model():
    terms, coefficients = dc_motor_terms()
    return Model(terms, coefficients)


class TestModel:
    def test_validates_counts(self):
        with pytest.raises(ConfigError):
            Model((parse_term("y(t-1)"),), (1.0, 2.0))

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigError):
            Model((parse_term("y(t-1)"),), (np.inf,))

    def test_rejects_constant_in_terms(self):
        with pytest.raises(ConfigError):
            Model((parse_term("1"),), (1.0,))

    def test_lag_bounds_checked(self):
        with pytest.raises(ConfigError):
            Model((parse_term("y(t-3)"),), (0.5,), lag_spec=LagSpec(2, 2))

    def test_lag_properties(self):
        m = Model((parse_term("y(t-2)^2*u(t-1)"),), (1.0,))
        assert m.max_output_lag == 2
        assert m.max_input_lag == 1
        assert m.max_lag == 2

    @given(case=st.integers(0, 2**32 - 1).map(lambda s: random_model(np.random.default_rng(s))))
    @settings(max_examples=60, deadline=None)
    def test_cached_lags_equal_factor_walk(self, case):
        factors = [f for t in case.terms for f in t.factors]
        walk_y = max((f.lag for f in factors if f.signal is Signal.OUTPUT), default=0)
        walk_u = max((f.lag for f in factors if f.signal is Signal.INPUT), default=0)
        for _ in range(2):  # first read fills the cache, second reads it
            assert (case.max_output_lag, case.max_input_lag, case.max_lag) == (
                walk_y, walk_u, max(walk_y, walk_u)
            )
        twin = Model(case.terms, case.coefficients, bias=case.bias)
        assert twin == case and hash(twin) == hash(case)


class TestSimulateFreeRun:
    def test_pure_delay_holds_constant(self):
        m = Model((parse_term("y(t-1)"),), (1.0,))
        run = simulate_free_run(m, np.zeros(50), [3.25])
        assert_allclose(run.output, 3.25)
        assert not run.diverged

    def test_matches_reference_recursion(self):
        u = np.random.default_rng(332).normal(size=1000)
        y = dc_motor_reference(u)
        run = simulate_free_run(dc_motor_model(), u, y[:2])
        assert not run.diverged
        assert np.max(np.abs(run.output - y)) <= 1e-10

    def test_geometric_growth_flagged(self):
        m = Model((parse_term("y(t-1)"),), (2.0,))
        run = simulate_free_run(m, np.zeros(1100), [1.0])
        assert run.diverged
        assert run.diverged_at < 1100
        assert np.isnan(run.output[-1])

    def test_initial_conditions_validated(self):
        with pytest.raises(InsufficientDataError):
            simulate_free_run(dc_motor_model(), np.zeros(10), [0.0])

    def test_input_shorter_than_the_lags(self):
        with pytest.raises(InsufficientDataError, match="shorter than the model's lags"):
            simulate_free_run(dc_motor_model(), np.zeros(1), [0.0, 0.0])

    def test_bias_only_model(self):
        m = Model((), (), bias=0.7)
        run = simulate_free_run(m, np.zeros(5), [])
        assert_allclose(run.output, 0.7)

    @pytest.mark.parametrize("terms, coefficients, diverges", [
        # input lag 3 beyond output lag 1
        (("y(t-1)", "u(t-3)"), (0.5, 1.0), False),
        # no output lag: nothing is copied
        (("u(t-1)", "u(t-2)^2"), (0.5, -0.25), False),
        # y(t) = 2 y(t-2) + u(t-1) grows past the divergence limit
        (("y(t-2)", "u(t-1)"), (2.0, 1.0), True),
    ], ids=["input-lag-beyond-output-lag", "no-output-lag", "diverges"])
    def test_whole_record_equals_its_prefix(self, terms, coefficients, diverges):
        # the free run reads only the first max_output_lag samples of y_init
        model = Model(tuple(parse_term(t) for t in terms), coefficients, bias=0.1)
        rng = np.random.default_rng(8)
        u, y = rng.normal(size=300), rng.normal(size=300)
        whole = simulate_free_run(model, u, y)
        prefix = simulate_free_run(model, u, y[: model.max_output_lag])
        assert whole.diverged == diverges
        assert whole.diverged_at == prefix.diverged_at
        np.testing.assert_array_equal(whole.output.view(np.int64), prefix.output.view(np.int64))


def reference_free_run(model, u, y_init):
    """The plain free-run recursion: numpy float64 scalars, every sample.

    Returns ``(output, diverged_at)``; ``simulate_free_run`` must agree with
    it bit for bit.
    """
    u = np.asarray(u, dtype=float)
    n_init = model.max_output_lag
    out = np.full(len(u), np.nan)
    out[:n_init] = y_init
    evaluators = [
        [(f.signal is Signal.OUTPUT, f.lag, f.exponent) for f in t.factors]
        for t in model.terms
    ]
    start = max(n_init, model.max_input_lag)
    out[n_init:start] = 0.0
    with np.errstate(all="ignore"):
        for t in range(start, len(u)):
            v = model.bias
            for coef, factors in zip(model.coefficients, evaluators):
                p = 1.0
                for is_y, lag, exp in factors:
                    x = out[t - lag] if is_y else u[t - lag]
                    p *= x**exp if exp > 1 else x
                v += coef * p
            if not math.isfinite(v) or abs(v) > DIVERGENCE_LIMIT:
                return out, t
            out[t] = v
    return out, None


def assert_matches_reference(model, u, y_init):
    run = simulate_free_run(model, u, y_init)
    ref_out, ref_diverged_at = reference_free_run(model, u, y_init)
    assert run.diverged_at == ref_diverged_at
    np.testing.assert_array_equal(run.output.view(np.int64), ref_out.view(np.int64))
    return run


def random_model(rng):
    n_a, n_b = 0, 0
    while n_a + n_b == 0:
        n_a, n_b = (int(k) for k in rng.integers(0, 5, size=2))
    degree = int(rng.integers(1, 4))
    d = expand_dictionary(build_linear_dictionary(LagSpec(n_a, n_b)), degree)
    picks = rng.choice(len(d), size=min(len(d), int(rng.integers(1, 7))), replace=False)
    scale = rng.choice([0.2, 0.5, 1.5])
    coefficients = rng.normal(scale=scale, size=len(picks))
    bias = 0.0 if rng.random() < 0.5 else float(rng.normal())
    return Model(tuple(d[int(i)] for i in sorted(picks)), tuple(coefficients), bias=bias)


@functools.lru_cache(maxsize=None)
def lagged_dictionary(n_a: int, n_b: int, degree: int) -> Dictionary:
    return expand_dictionary(build_linear_dictionary(LagSpec(n_a, n_b)), degree)


@st.composite
def free_run_cases(draw):
    """A model up to LagSpec(4, 4, 3), its input record and initial outputs."""
    n_a = draw(st.integers(0, 4))
    n_b = draw(st.integers(0 if n_a else 1, 4))
    d = lagged_dictionary(n_a, n_b, draw(st.integers(1, 3)))
    picks = draw(st.lists(st.integers(0, len(d) - 1), min_size=1, max_size=6, unique=True))
    coefficients = draw(st.lists(st.floats(-1.5, 1.5), min_size=len(picks), max_size=len(picks)))
    bias = draw(st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0))
    model = Model(tuple(d[i] for i in picks), tuple(coefficients), bias=bias)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 300
    kind = draw(st.sampled_from(["zeros", "ones", "noise", "noise turning constant"]))
    if kind in ("zeros", "ones"):
        return model, np.full(n, float(kind == "ones")), np.zeros(model.max_output_lag)
    u = rng.normal(size=n)
    if kind == "noise turning constant":
        u[draw(st.integers(0, n - 1)):] = u[-1]
    return model, u, rng.normal(size=model.max_output_lag)


def input_only_case():
    # no output lag: the fixed-point window is empty
    u = np.random.default_rng(3).normal(size=200)
    u[120:] = 0.25
    model = Model((parse_term("u(t-1)"), parse_term("u(t-2)^2")), (0.5, -0.25), bias=0.1)
    return model, u, np.zeros(0)


def long_input_lag_case():
    # input lag 3 > output lag 1: outputs 1 and 2 are zero-padded
    u = np.random.default_rng(4).normal(size=200)
    return Model((parse_term("y(t-1)"), parse_term("u(t-3)")), (0.5, 1.0)), u, np.array([0.7])


def signed_zero_case():
    # with bias -0.0, y(t) = -y(t-1) alternates 0.0 and -0.0
    return Model((parse_term("y(t-1)"),), (-1.0,), bias=-0.0), np.zeros(50), np.array([0.0])


class TestFreeRunMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(case=free_run_cases())
    @example(case=input_only_case())
    @example(case=long_input_lag_case())
    @example(case=signed_zero_case())
    def test_drawn_models_bit_for_bit(self, case):
        assert_matches_reference(*case)

    def test_input_only_model_settles(self):
        run = assert_matches_reference(*input_only_case())
        assert not run.diverged
        assert len(set(run.output[122:])) == 1

    def test_input_lag_beyond_output_lag_pads_zeros(self):
        run = assert_matches_reference(*long_input_lag_case())
        assert run.output[0] == 0.7
        assert not np.any(run.output[1:3])
        assert run.output[3] != 0.0

    def test_random_models_bit_for_bit(self):
        rng = np.random.default_rng(20240)
        n, tail = 600, 300
        settled = diverged = 0
        for _ in range(400):
            model = random_model(rng)
            noise = rng.normal(size=n)
            turns_constant = noise.copy()
            turns_constant[tail:] = noise[tail]
            y_rand = rng.normal(size=model.max_output_lag)
            y_zero = np.zeros(model.max_output_lag)
            for u, y_init in (
                (np.zeros(n), y_zero),
                (np.ones(n), y_zero),
                (noise, y_rand),
                (turns_constant, y_rand),
            ):
                run = assert_matches_reference(model, u, y_init)
                diverged += run.diverged
                settled += (not run.diverged) and len(set(run.output[-100:])) == 1
        # both the divergence guard and the fixed-point exit are exercised
        assert diverged >= 100
        assert settled >= 400

    def test_no_early_exit_before_the_input_tail(self):
        # y(t) = 0.5 y(t-1) + u(t-1): the output sits at 0 while u is 0, a
        # fixed point of the recursion but not of the record
        u = np.zeros(1000)
        u[500:] = 1.0
        run = assert_matches_reference(linear_model(0.5, 1.0), u, [0.0])
        assert not np.any(run.output[:501])
        assert run.output[501] == 1.0
        assert run.output[-1] == pytest.approx(2.0)

    def test_signed_zero_cycle_is_not_a_fixed_point(self):
        run = assert_matches_reference(*signed_zero_case())
        assert np.signbit(run.output[1]) and not np.signbit(run.output[2])

    def test_power_overflow_is_divergence(self):
        m = Model((parse_term("u(t-1)^2"),), (1.0,))
        run = assert_matches_reference(m, np.full(10, 1e200), [])
        assert run.diverged_at == 1


class TestGeneratedRecursion:
    def test_source_holds_no_coefficient_text(self):
        terms = (parse_term("y(t-1)"), parse_term("y(t-2)^2*u(t-1)"), parse_term("u(t-3)"))
        model = Model(terms, (0.123456789, -0.5, 2.25), bias=0.987654321)
        source = _recursion_source(model.terms)
        assert "123456789" not in source and "987654321" not in source
        # the only numbers are integer lags and exponents
        assert re.findall(r"[\d.]*\d[.e][\d.e+-]*", source) == []
        other = Model(terms, (-7.0, 1e-300, 3.5), bias=-0.0)
        assert _recursion_source(other.terms) == source
        assert _compiled_recursion(other.terms) is _compiled_recursion(model.terms)

    def test_score_entry_compiles_one_body(self, monkeypatch):
        u = np.random.default_rng(332).normal(size=200)
        data = IoData(u, dc_motor_reference(u))
        d = lagged_dictionary(2, 2, 2)
        problem = build_problem(data, d)
        path = ofr_select(problem, Criterion.PRESS, forced_first=0)
        sources, runs = [], []

        def counted(f, calls):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return f(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(simulation, "_recursion_source", counted(_recursion_source, sources))
        for module in (simulation, search):
            monkeypatch.setattr(
                module, "simulate_free_run", counted(simulate_free_run, runs)
            )
        _compiled_recursion.cache_clear()
        entry = _score_entry(path, data, problem, SearchConfig())
        assert entry.verdict.stable and math.isfinite(entry.msse)
        assert len(runs) == 3  # two probe runs and the scoring run
        assert len(sources) == 1

    def test_term_order_gets_its_own_body(self):
        model = dc_motor_model()
        reversed_model = Model(model.terms[::-1], model.coefficients[::-1])
        assert _recursion_source(reversed_model.terms) != _recursion_source(model.terms)
        assert _compiled_recursion(reversed_model.terms) is not _compiled_recursion(model.terms)
        u = np.random.default_rng(332).normal(size=1000)
        y_init = dc_motor_reference(u)[:2]
        forward = assert_matches_reference(model, u, y_init)
        backward = assert_matches_reference(reversed_model, u, y_init)
        # the two summation orders round differently
        assert not np.array_equal(forward.output, backward.output)


class TestPredictOneStep:
    def test_shifted_output(self):
        data = IoData(np.zeros(6), np.arange(6.0))
        m = Model((parse_term("y(t-1)"),), (1.0,))
        pred = predict_one_step(m, data)
        assert_allclose(pred[1:], data.y[:-1])

    def test_exact_model_zero_error(self):
        u = np.random.default_rng(5).normal(size=500)
        y = dc_motor_reference(u)
        pred = predict_one_step(dc_motor_model(), IoData(u, y))
        assert np.max(np.abs(pred[2:] - y[2:])) <= 1e-12

    def test_bias_only(self):
        data = IoData(np.zeros(5), np.arange(5.0))
        m = Model((), (), bias=2.5)
        assert_allclose(predict_one_step(m, data), [2.5] * 5)

    def test_record_no_longer_than_the_max_lag(self):
        with pytest.raises(InsufficientDataError, match="maximum lag"):
            predict_one_step(dc_motor_model(), IoData(np.zeros(2), np.zeros(2)))

    def test_one_step_beats_free_run_on_fitted_model(self):
        # identify a 3-term model on benchmark data, then compare error variances
        u = np.random.default_rng(332).normal(size=300)
        y = dc_motor_reference(u)
        data = IoData(u, y)
        d = expand_dictionary(
            build_linear_dictionary(LagSpec(2, 2, include_constant=False)), 2
        )
        problem = build_problem(data, d)
        path = ofr_select(problem, Criterion.PRESS, max_terms=3)
        model = build_model(d, path, Criterion.PRESS)
        one_step = predict_one_step(model, data)
        free = simulate_free_run(model, u, y[: model.max_output_lag])
        if not free.diverged:
            e1 = np.var(y[2:] - one_step[2:])
            e2 = np.var(y[2:] - free.output[2:])
            assert e1 <= e2 + 1e-15


class TestStabilityProbe:
    def test_stable_first_order(self):
        verdict = stability_probe(linear_model(0.5, 1.0))
        assert verdict.stable
        assert not verdict.diverged
        assert verdict.mean0 == pytest.approx(0.0, abs=1e-9)
        assert verdict.var0 == pytest.approx(0.0, abs=1e-12)
        assert verdict.mean1 == pytest.approx(2.0, abs=1e-6)
        assert verdict.var1 == pytest.approx(0.0, abs=1e-9)

    def test_unstable_pole(self):
        verdict = stability_probe(linear_model(1.1, 1.0))
        assert not verdict.stable
        assert verdict.diverged

    def test_dc_motor_model_is_stable(self):
        verdict = stability_probe(dc_motor_model())
        assert verdict.stable

    def test_bias_mean_recorded(self):
        m = Model((parse_term("u(t-1)"),), (1.0,), bias=5.0)
        verdict = stability_probe(m)
        assert verdict.stable
        assert verdict.mean0 == pytest.approx(5.0)

    def test_zero_input_mean_is_the_equilibrium_not_the_bias(self):
        # y(t) = 0.5 y(t-1) + u(t-1) + 1 settles at 1 / (1 - 0.5) under u == 0
        m = Model((parse_term("y(t-1)"), parse_term("u(t-1)")), (0.5, 1.0), bias=1.0)
        verdict = stability_probe(m)
        assert verdict.stable
        assert verdict.mean0 == 2.0
        assert verdict.var0 == 0.0

    def test_bounded_oscillation_with_variance_fails(self):
        # y(t) = -y(t-1) + u(t-1): under u == 1 the output alternates 1, 0,
        # 1, 0... - bounded, but post-settle variance 0.25 > epsilon
        m = Model((parse_term("y(t-1)"), parse_term("u(t-1)")), (-1.0, 1.0))
        verdict = stability_probe(m)
        assert not verdict.stable
        assert not verdict.diverged
        assert verdict.var1 == pytest.approx(0.25)

    def test_deterministic(self):
        a = stability_probe(dc_motor_model())
        b = stability_probe(dc_motor_model())
        assert a == b

    def test_settle_window_validated(self):
        # the probe drops its first 200 samples; a lag beyond that is refused
        m = Model((parse_term("y(t-201)"), parse_term("u(t-1)")), (0.5, 1.0))
        with pytest.raises(ConfigError, match="settle window"):
            stability_probe(m)
