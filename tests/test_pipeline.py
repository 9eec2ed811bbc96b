"""Two-stage identification pipeline and the reduction methods."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import narxid.pipeline
import narxid.regression
import narxid.search
from narxid import (
    ConfigError,
    Criterion,
    IdentificationError,
    IoData,
    LagSpec,
    Prbs,
    ReductionMethod,
    SearchConfig,
    build_linear_dictionary,
    build_problem,
    dc_motor_reference,
    dc_motor_terms,
    expand_dictionary,
    generate_signal,
    identify,
    iterative_ofr,
    overfit_preselect,
    reduce_dictionary,
)
from narxid.cli import main
from narxid.dataio import RunConfig, apply_config_values, write_timeseries_csv
from narxid.regression import term_columns


def white_noise_benchmark(n=1000, seed=332, train=60):
    u = np.random.default_rng(seed).normal(size=n)
    y = dc_motor_reference(u)
    return IoData(u[:train], y[:train])


def linear_noisy_data(seed=0, n=400, sigma=0.1):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n)
    y = np.zeros(n)
    for t in range(2, n):
        y[t] = 1.6 * y[t - 1] - 0.81 * y[t - 2] + u[t - 1] + 0.5 * u[t - 2]
    return IoData(u, y + sigma * rng.normal(size=n))


def noisy_prbs_data(seed, n=1000, sigma=0.01):
    # ROADMAP case E: binary PRBS into the DC motor, with output noise
    u = generate_signal(Prbs(length=n, levels=(0.0, 1.0), hold=5, seed=seed))
    y = dc_motor_reference(u) + sigma * np.random.default_rng(seed).normal(size=n)
    return IoData(u, y)


def constant_output_data():
    # the output is a constant plus noise, so the linear stage keeps only
    # the constant term and selects no lagged ones
    rng = np.random.default_rng(0)
    u = rng.normal(size=120)
    y = 5 + 0.1 * rng.normal(size=120)
    return IoData(u, y)


TRUE_TERMS = set(dc_motor_terms()[0])


class TestReductionMethod:
    def test_parse_aliases(self):
        # the config file and the flags read a method through one rule
        def parse(text):
            return apply_config_values(RunConfig(), {"method": text}).method

        assert parse("none") is ReductionMethod.NONE
        for digit, member in zip("01234", ReductionMethod):
            assert parse(digit) is member
        assert parse("M2") is ReductionMethod.M2
        assert parse(" m3 ") is ReductionMethod.M3
        with pytest.raises(ConfigError, match="method"):
            parse("m9")


class TestOverfitPreselect:
    def test_size_one_is_err_best(self):
        data = white_noise_benchmark()
        d = expand_dictionary(
            build_linear_dictionary(LagSpec(2, 2, include_constant=False)), 2
        )
        problem = build_problem(data, d)
        seeds, n_evaluated = overfit_preselect(problem, 1)
        assert len(seeds) == 1
        assert n_evaluated == len(d)  # one step scores every candidate
        assert str(seeds[0]) == "y(t-1)"  # dominant ERR term for this system

    def test_full_size_on_tiny_dictionary(self):
        data = white_noise_benchmark(train=100)
        d = build_linear_dictionary(LagSpec(2, 2, include_constant=False))
        problem = build_problem(data, d)
        seeds, _ = overfit_preselect(problem, len(d))
        assert set(seeds) <= set(d.terms)
        assert len(seeds) >= 2

    def test_size_validated(self):
        data = white_noise_benchmark(train=100)
        d = build_linear_dictionary(LagSpec(2, 2, include_constant=False))
        problem = build_problem(data, d)
        with pytest.raises(ConfigError):
            overfit_preselect(problem, len(d) + 1)

    def test_sketch_contains_true_terms(self):
        # with a generous term budget the overfit sketch catches most of the
        # true structure
        data = white_noise_benchmark()
        d = expand_dictionary(
            build_linear_dictionary(LagSpec(3, 3, include_constant=False)), 3
        )
        with pytest.warns(UserWarning, match="usable rows"):
            problem = build_problem(data, d)
        seeds, _ = overfit_preselect(problem, 15)
        assert len(TRUE_TERMS & set(seeds)) >= 5


class TestIdentify:
    def test_linear_truth_chooses_arx(self):
        report = identify(
            linear_noisy_data(), LagSpec(2, 2, 2, include_constant=False)
        )
        assert report.chosen == "ARX"
        assert report.narx is not None
        assert report.arx.best.bic <= report.narx.best.bic or report.notes

    def test_benchmark_m3_recovers_structure(self):
        report = identify(
            white_noise_benchmark(),
            LagSpec(2, 2, 2, include_constant=False),
            method=ReductionMethod.M3,
        )
        assert report.chosen == "NARX"
        assert set(report.chosen_model.terms) == TRUE_TERMS

    def test_both_stages_carry_the_records_fingerprint(self):
        data = white_noise_benchmark()
        report = identify(data, LagSpec(2, 2, 2, include_constant=False))
        stages = (report.arx, report.narx)
        assert [s.model.provenance["data_hash"] for s in stages] == [data.fingerprint] * 2

    def test_none_and_m1_agree_here(self):
        spec = LagSpec(2, 2, 2, include_constant=False)
        data = white_noise_benchmark()
        full = identify(data, spec, method=ReductionMethod.NONE)
        reduced = identify(data, spec, method=ReductionMethod.M1)
        assert set(full.chosen_model.terms) == set(reduced.chosen_model.terms)
        assert reduced.narx.n_evaluations <= full.narx.n_evaluations

    def test_reduced_dictionary_never_larger(self):
        spec = LagSpec(2, 2, 2, include_constant=False)
        data = white_noise_benchmark()
        report = identify(data, spec, method=ReductionMethod.M1)
        assert len(report.narx.dictionary) <= 14

    def test_arx_only(self):
        # degree 1 is the ARX-only run: there is no nonlinear stage
        report = identify(
            white_noise_benchmark(), LagSpec(2, 2, 1, include_constant=False)
        )
        assert report.narx is None
        assert report.chosen == "ARX"

    @pytest.mark.xfail(strict=True, raises=IdentificationError, reason=(
        "open defect (ROADMAP item 6): every linear candidate fails the "
        "probe, so the nonlinear stage never runs"
    ))
    def test_no_probe_stable_linear_model(self):
        # the true model is stable, but no linear candidate passes the probe
        report = identify(
            white_noise_benchmark(seed=24), LagSpec(2, 2, 2, include_constant=False)
        )
        assert report.chosen_model is not None

    def test_linear_stage_failure_names_the_stage(self):
        # item 6's record: no linear candidate passes the probe
        with pytest.raises(IdentificationError, match=r"^linear \(ARX\) stage: ") as info:
            identify(
                white_noise_benchmark(seed=24), LagSpec(2, 2, 2, include_constant=False)
            )
        assert len(info.value.pool) > 0

    def test_no_probe_stable_nonlinear_model_keeps_the_linear_one(self):
        # every nonlinear candidate fails the probe; the stable linear model
        # cannot be beaten by an empty pool, so it is the result (the note
        # counts candidates, one per distinct term set the paths end on)
        report = identify(noisy_prbs_data(seed=2), LagSpec(2, 2, 2, include_constant=True))
        assert report.chosen == "ARX"
        assert report.narx is None
        assert report.arx.best.verdict.stable
        assert report.chosen_model.n_terms == 4
        assert report.chosen_model.bias != 0
        assert report.notes == (
            "nonlinear stage found no stable candidate, so the linear model is kept: "
            "of 9 candidates, 2 diverged under the probe, 7 had probe variance "
            "above epsilon and 0 diverged on the training run",
        )

    def test_rejection_note_counts_candidates_without_a_bic(self):
        # an ERR path without the leverage guard takes a term per fitted row:
        # it runs the training record, but n <= k leaves its BIC undefined
        rng = np.random.default_rng(2)
        u = rng.normal(size=12)
        y = dc_motor_reference(u) + rng.normal(0, 0.05, 12)
        cfg = SearchConfig(criterion=Criterion.ERR, max_terms=100)
        with pytest.warns(UserWarning, match="usable rows"):
            report = identify(IoData(u, y), LagSpec(2, 2, 2, False), cfg=cfg)
        assert report.chosen == "ARX"
        assert report.narx is None
        assert report.notes == (
            "nonlinear stage found no stable candidate, so the linear model is kept: "
            "of 11 candidates, 9 diverged under the probe, 1 had probe variance "
            "above epsilon, 0 diverged on the training run and 1 had as many "
            "terms as fitted rows (BIC undefined)",
        )
        d = expand_dictionary(build_linear_dictionary(LagSpec(2, 2, 1, False)), 2)
        with pytest.warns(UserWarning, match="usable rows"):
            with pytest.raises(IdentificationError) as info:
                iterative_ofr(d, None, IoData(u, y), cfg)
        [entry] = [e for e in info.value.pool if e.verdict.stable]
        assert entry.model.n_terms == len(y) - 2
        assert entry.msse < 1e-20
        assert entry.bic == np.inf

    def test_chosen_flag_consistent_with_bic(self):
        for method in (ReductionMethod.NONE, ReductionMethod.M2):
            report = identify(
                white_noise_benchmark(),
                LagSpec(2, 2, 2, include_constant=False),
                method=method,
            )
            if report.chosen == "NARX":
                assert report.narx.best.bic < report.arx.best.bic

    def test_degenerate_pipeline_equals_direct_search(self):
        # method NONE with a single iteration and full preselect reduces to
        # plain multi-path OFR over the expanded dictionary
        data = white_noise_benchmark()
        spec = LagSpec(2, 2, 2, include_constant=False)
        cfg = SearchConfig(max_iterations=1)
        report = identify(data, spec, cfg=cfg)
        d = expand_dictionary(
            build_linear_dictionary(LagSpec(2, 2, include_constant=False)), 2
        )
        direct = iterative_ofr(d, None, data, cfg)
        assert set(report.narx.model.terms) == set(direct.model.terms)
        assert report.narx.best.bic == direct.best.bic

    def test_table_in_dictionary_order(self):
        report = identify(
            white_noise_benchmark(), LagSpec(2, 2, 2, include_constant=False)
        )
        d = report.narx.dictionary if report.chosen == "NARX" else report.arx.dictionary
        order = {s: i for i, s in enumerate(d.strings())}
        positions = [order[row.term] for row in report.table]
        assert positions == sorted(positions)

    def test_timings_recorded(self):
        report = identify(
            white_noise_benchmark(), LagSpec(2, 2, 2, include_constant=False)
        )
        assert report.timings["arx_s"] > 0
        assert report.timings["narx_s"] > 0


class TestMethodCounters:
    def test_counter_ordering_on_benchmark(self):
        # the heavyweight version of this check (n_a = n_b = 3, degree 3)
        # lives in the acceptance suite; this is the small smoke version
        spec = LagSpec(2, 2, 2, include_constant=False)
        data = white_noise_benchmark()
        evals = {}
        for method in ReductionMethod:
            report = identify(data, spec, method=method)
            evals[method] = report.narx.n_evaluations
        assert evals[ReductionMethod.M3] <= evals[ReductionMethod.M1]
        assert evals[ReductionMethod.M1] <= evals[ReductionMethod.NONE]
        assert evals[ReductionMethod.M3] <= evals[ReductionMethod.M4]
        assert evals[ReductionMethod.M4] <= evals[ReductionMethod.M2]


@pytest.fixture()
def ofr_calls(monkeypatch):
    """The OFR calls made, each stopped with a RuntimeError."""
    calls = []

    def stop(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("ofr_select reached")

    monkeypatch.setattr(narxid.search, "ofr_select", stop)
    monkeypatch.setattr(narxid.pipeline, "ofr_select", stop)
    return calls


class TestLagBound:
    # the probe discards its first 200 samples, so it cannot judge a model
    # that reads further back; identify says so before any search runs
    def test_lag_beyond_the_settle_window_fails_before_any_search(self, ofr_calls):
        data = white_noise_benchmark(train=500)
        with pytest.raises(ConfigError, match="200-sample settle window"):
            identify(data, LagSpec(201, 2, 1, include_constant=False))
        assert ofr_calls == []

    def test_lag_at_the_settle_window_passes_the_check(self, ofr_calls):
        data = white_noise_benchmark(train=500)
        with pytest.raises(RuntimeError, match="ofr_select reached"):
            identify(data, LagSpec(200, 2, 1, include_constant=False))
        assert len(ofr_calls) == 1


@pytest.mark.parametrize("name, make", [
    ("criterion", lambda: SearchConfig(criterion="press")),
    ("max_terms", lambda: SearchConfig(max_terms=2.5)),
    ("max_terms", lambda: SearchConfig(max_terms=np.int64(5))),
    ("epsilon", lambda: SearchConfig(epsilon="0.1")),
    ("max_iterations", lambda: SearchConfig(max_iterations=True)),
    ("method", lambda: identify(
        white_noise_benchmark(), LagSpec(2, 2, 2, include_constant=False), method="m2"
    )),
], ids=[
    "criterion-str", "max-terms-float", "max-terms-numpy", "epsilon-str", "max-iterations-bool",
    "method-str",
])
def test_wrong_value_type_fails_before_any_search(name, make, ofr_calls):
    # a wrongly typed setting is a ConfigError, raised before any OFR path runs
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        make()
    assert ofr_calls == []


class TestReductionErrors:
    def test_empty_linear_stage_blocks_reduction(self):
        with pytest.raises(ConfigError):
            reduce_dictionary([], 2)

    def test_method_2_needs_no_lagged_linear_terms(self, tmp_path):
        # only the methods that read the reduced dictionary need the linear
        # model's lagged terms; M2 sketches and searches the full dictionary
        data = constant_output_data()
        spec = LagSpec(2, 2, 2, include_constant=True)
        report = identify(data, spec, method=ReductionMethod.M2)
        assert report.arx.model.terms == ()
        assert report.narx is not None
        for method in (ReductionMethod.M1, ReductionMethod.M3, ReductionMethod.M4):
            with pytest.raises(ConfigError, match="no lagged terms"):
                identify(data, spec, method=method)

        csv_path = tmp_path / "flat.csv"
        write_timeseries_csv(csv_path, data.u, data.y)
        assert main([
            "identify", "--data", str(csv_path), "--constant", "true",
            "--method", "2", "--out", str(tmp_path / "out"),
        ]) == 0


class TestReductionPlans:
    # README "Reduction methods": the dictionary each method searches and the
    # one its overfit sketch runs over
    PLANS = {
        ReductionMethod.NONE: ("full", None),
        ReductionMethod.M1: ("reduced", None),
        ReductionMethod.M2: ("full", "full"),
        ReductionMethod.M3: ("reduced", "reduced"),
        ReductionMethod.M4: ("full", "reduced"),
    }

    @pytest.mark.parametrize("method", list(ReductionMethod))
    def test_plan(self, monkeypatch, method):
        # on case A the linear model keeps all four lagged variables, so the
        # reduced dictionary equals the full one in value; the dictionaries
        # are told apart by identity
        calls = {"expand": [], "reduce": [], "sketch": [], "search": []}

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls[name].append((args, result))
                return result
            return wrapper

        monkeypatch.setattr(
            narxid.pipeline, "expand_dictionary",
            spy("expand", narxid.pipeline.expand_dictionary),
        )
        monkeypatch.setattr(
            narxid.pipeline, "reduce_dictionary",
            spy("reduce", narxid.pipeline.reduce_dictionary),
        )
        monkeypatch.setattr(
            narxid.pipeline, "overfit_preselect",
            spy("sketch", narxid.pipeline.overfit_preselect),
        )
        monkeypatch.setattr(
            narxid.pipeline, "iterative_ofr",
            spy("search", narxid.pipeline.iterative_ofr),
        )
        report = identify(
            white_noise_benchmark(),
            LagSpec(2, 2, 2, include_constant=False),
            method=method,
        )

        searched, sketched = self.PLANS[method]
        # a method builds only the dictionaries its plan names
        assert len(calls["expand"]) == int("full" in (searched, sketched))
        assert len(calls["reduce"]) == int("reduced" in (searched, sketched))
        dictionaries = {}
        if calls["expand"]:
            dictionaries["full"] = calls["expand"][0][1]
        if calls["reduce"]:
            dictionaries["reduced"] = calls["reduce"][0][1]
        assert report.narx.dictionary is dictionaries[searched]

        (_, arx_search), (_, narx_search) = calls["search"]
        sketch_evals = 0
        if sketched is None:
            assert calls["sketch"] == []
        else:
            [((problem, _), (_, sketch_evals))] = calls["sketch"]
            assert problem.dictionary is dictionaries[sketched]
            assert sketch_evals > 0
        assert report.arx is arx_search
        assert report.narx.n_evaluations == narx_search.n_evaluations + sketch_evals


def first_order_data():
    # y(t) = 0.5 y(t-1) + u(t-1) with output noise: under LagSpec(2, 2, 2)
    # the linear stage keeps y(t-1) and u(t-1) and fits 298 of the 300
    # samples, so the reduced dictionary differs from the full one
    rng = np.random.default_rng(1)
    u = rng.normal(size=300)
    y = np.zeros(300)
    for t in range(1, 300):
        y[t] = 0.5 * y[t - 1] + u[t - 1]
    y += 0.05 * rng.normal(size=300)
    return u, y


class TestOneProblemPerRecord:
    """The overfit sketch and the search share the record's problem when
    their dictionaries are equal, so each builds its columns once."""

    @pytest.fixture()
    def built(self, monkeypatch):
        built = []

        def recording_term_columns(terms, *args):
            built.append(tuple(terms))
            return term_columns(terms, *args)

        monkeypatch.setattr(narxid.regression, "term_columns", recording_term_columns)
        return built

    @pytest.mark.parametrize("method", list(ReductionMethod))
    def test_one_nonlinear_phi_per_identify_on_case_a(self, built, method):
        # the reduced dictionary equals the full one in value here
        spec = LagSpec(2, 2, 2, include_constant=False)
        report = identify(white_noise_benchmark(), spec, method)
        linear = build_linear_dictionary(spec)
        assert built == [linear.terms, expand_dictionary(linear, 2).terms]
        assert report.narx.dictionary.terms == built[1]

    def test_method_4_builds_both_when_the_dictionaries_differ(self, built):
        spec = LagSpec(2, 2, 2, include_constant=False)
        report = identify(IoData(*first_order_data()), spec, ReductionMethod.M4)
        linear = build_linear_dictionary(spec)
        reduced = reduce_dictionary(report.arx.model.terms, 2)
        full = expand_dictionary(linear, 2)
        assert reduced != full
        assert built == [linear.terms, reduced.terms, full.terms]


class TestFittedRows:
    @pytest.mark.xfail(strict=True, reason=(
        "open defect (ROADMAP item 21): build_problem starts the fitted rows "
        "at the largest lag of the dictionary it is given, and the reduced "
        "dictionary's is 1 here, so the stages' BICs cover other samples"
    ))
    @pytest.mark.parametrize("method", [ReductionMethod.M1, ReductionMethod.M3])
    def test_both_stages_fit_the_same_rows(self, monkeypatch, method):
        u, y = first_order_data()
        rows = []

        def recording_build_problem(data, dictionary):
            problem = build_problem(data, dictionary)
            rows.append((problem.offset, len(problem.target)))
            return problem

        monkeypatch.setattr(narxid.search, "build_problem", recording_build_problem)
        report = identify(IoData(u, y), LagSpec(2, 2, 2, include_constant=False), method)
        assert [str(t) for t in report.arx.model.terms] == ["y(t-1)", "u(t-1)"]
        linear_rows, nonlinear_rows = rows
        assert linear_rows == (2, 298)
        assert nonlinear_rows == linear_rows


class TestMeasuredHistory:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "open defect (ROADMAP item 22): the free run copies only the first "
        "max_output_lag measured outputs and zero-fills the rest up to the "
        "largest input lag, so the exact model scores msse 0.0152 here and a "
        "model padded with y(t-3) wins"
    ))
    def test_exact_model_wins(self):
        # y(t) = 0.5 y(t-1) + u(t-3) from the measured history 1, -2, 3
        rng = np.random.default_rng(1)
        u = rng.normal(size=200)
        y = np.zeros(200)
        y[:3] = [1.0, -2.0, 3.0]
        for t in range(3, 200):
            y[t] = 0.5 * y[t - 1] + u[t - 3]
        report = identify(IoData(u, y), LagSpec(3, 3, 1, include_constant=False))
        assert set(report.chosen_model.term_strings()) == {"y(t-1)", "u(t-3)"}


class TestBiasHandling:
    def test_constant_candidate_folds_into_bias(self):
        # biased linear system: y = 0.6 y(t-1) + u(t-1) + 0.8; fixed point
        # under zero input is 0.8 / (1 - 0.6) = 2
        rng = np.random.default_rng(7)
        u = rng.normal(size=300)
        y = np.zeros(300)
        for t in range(1, 300):
            y[t] = 0.6 * y[t - 1] + u[t - 1] + 0.8
        y += 0.02 * rng.normal(size=300)
        report = identify(
            IoData(u, y), LagSpec(2, 2, 2, include_constant=True)
        )
        model = report.chosen_model
        assert any(row.term == "1" for row in report.table)
        assert not any(t.is_constant for t in model.terms)
        assert model.bias != 0.0
        from narxid import stability_probe

        probe = stability_probe(model)
        assert probe.stable
        assert probe.mean0 == pytest.approx(2.0, abs=0.05)


class TestFirEdge:
    def test_identification_without_output_lags(self):
        rng = np.random.default_rng(11)
        u = rng.normal(size=300)
        y = np.zeros(300)
        for t in range(2, 300):
            y[t] = 0.9 * u[t - 1] + 0.4 * u[t - 2]
        y += 0.01 * rng.normal(size=300)
        report = identify(
            IoData(u, y), LagSpec(0, 2, 2, include_constant=False)
        )
        model = report.chosen_model
        assert report.chosen == "ARX"
        assert set(model.term_strings()) == {"u(t-1)", "u(t-2)"}
        assert model.max_output_lag == 0


class TestOutputScaling:
    @settings(max_examples=10, deadline=None)
    @given(x=st.floats(-3, 3))
    def test_term_set_invariant_to_output_scale(self, x):
        # ERR, PRESS and the rank tolerance depend only on column spans, and
        # BIC shifts by a constant, so scaling y must not change the choice.
        # The probe's epsilon is an absolute variance, but on this record
        # every candidate's probe variance is below 1e-25, far from it at
        # any of these scales.  White noise, not a 0/1 PRBS: there u(t-2)
        # and u(t-2)^2 are one column, an exact tie.
        data = white_noise_benchmark()
        spec = LagSpec(2, 2, 2, include_constant=False)
        scaled = IoData(data.u, data.y * 10**x)
        expected = set(identify(data, spec).chosen_model.terms)
        assert set(identify(scaled, spec).chosen_model.terms) == expected
