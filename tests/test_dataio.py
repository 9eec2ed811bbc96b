"""CSV ingestion, config parsing, model and report serialization."""

import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from narxid import (
    ConfigError,
    DataError,
    IoData,
    LagSpec,
    Model,
    dc_motor_reference,
    identify,
    parse_term,
    residual_tests,
    simulate_free_run,
)
from narxid.dataio import (
    RunConfig,
    apply_config_values,
    ingest_csv,
    load_model,
    parse_config_file,
    render_report,
    save_model,
    write_timeseries_csv,
)


class TestIngestCsv:
    def test_three_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("t,u,y\n1,0.5,1.0\n2,0.25,2.0\n3,0.125,3.0\n")
        data = ingest_csv(p)
        assert len(data) == 3
        assert_array_equal(data.u, [0.5, 0.25, 0.125])
        assert_array_equal(data.y, [1.0, 2.0, 3.0])

    def test_blank_cell_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("t,u,y\n1,0.5,1.0\n2,,2.0\n")
        with pytest.raises(DataError, match="row 3"):
            ingest_csv(p)

    def test_non_numeric_cell_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("t,u,y\n1,0.5,1.0\n2,abc,2.0\n")
        with pytest.raises(DataError, match="row 3"):
            ingest_csv(p)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("t,input,y\n1,0.5,1.0\n")
        with pytest.raises(DataError, match="missing column"):
            ingest_csv(p)

    def test_round_trip_with_generator(self, tmp_path):
        u = np.random.default_rng(3).normal(size=200)
        y = dc_motor_reference(u)
        p = tmp_path / "bench.csv"
        write_timeseries_csv(p, u, y)
        data = ingest_csv(p)
        assert_array_equal(data.u, u)
        assert_array_equal(data.y, y)


class TestModelSerialization:
    def test_round_trip_exact(self, tmp_path):
        model = Model(
            (parse_term("y(t-1)"), parse_term("y(t-2)^2*u(t-1)")),
            (1.0 / 3.0, -0.123456789012345678),
            bias=np.pi,
            lag_spec=LagSpec(2, 2, 2, include_constant=True),
        )
        p = tmp_path / "model.json"
        save_model(model, p)
        loaded = load_model(p)
        assert loaded.terms == model.terms
        assert loaded.coefficients == model.coefficients
        assert loaded.bias == model.bias
        assert loaded.lag_spec == model.lag_spec

    def test_round_trip_simulation_identical(self, tmp_path):
        rng = np.random.default_rng(8)
        model = Model(
            (parse_term("y(t-1)"), parse_term("u(t-1)")), (0.7311, 0.9113)
        )
        p = tmp_path / "model.json"
        save_model(model, p)
        loaded = load_model(p)
        u = rng.normal(size=300)
        a = simulate_free_run(model, u, [0.0])
        b = simulate_free_run(loaded, u, [0.0])
        assert_array_equal(a.output, b.output)

    def test_rejects_wrong_schema(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text(json.dumps({"schema": "other/9", "terms": [], "coefficients": []}))
        with pytest.raises(DataError, match="schema"):
            load_model(p)


class TestRunConfig:
    def test_parse_flat_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# comment line\n"
            "data = bench.csv\n"
            "n_a = 2\n"
            "n_b = 2\n"
            "degree = 2\n"
            "include_constant = false\n"
            "criterion = press\n"
            "method = 3\n"
            "train_end = 60\n"
            "epsilon = 0.01\n"
        )
        cfg = parse_config_file(p)
        assert cfg.data == "bench.csv"
        assert cfg.n_a == 2
        assert cfg.include_constant is False
        assert cfg.method == "3"
        assert cfg.train_end == 60
        assert cfg.epsilon == 0.01

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        for key in ("no_such_knob", "seed", "parallel_paths"):
            p.write_text(f"{key} = 1\n")
            with pytest.raises(ConfigError, match="unknown config key"):
                parse_config_file(p)

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("n_a = often\n")
        with pytest.raises(ConfigError, match="integer"):
            parse_config_file(p)

    def test_overrides(self):
        cfg = apply_config_values(RunConfig(), {"n_a": "3", "criterion": "err"})
        assert cfg.n_a == 3
        assert cfg.criterion == "err"


class TestRenderReport:
    @pytest.fixture()
    def run_artifacts(self, tmp_path):
        u = np.random.default_rng(332).normal(size=300)
        y = dc_motor_reference(u)
        data = IoData(u, y)
        report = identify(
            data.slice(0, 60), LagSpec(2, 2, 2, include_constant=False)
        )
        model = report.chosen_model
        from narxid import predict_one_step

        pred = predict_one_step(model, data)
        residuals = data.y[2:] - pred[2:]
        validation = residual_tests(residuals, data.u[2:], max_lag=10)
        out = tmp_path / "out"
        written = render_report(report, validation, data, out)
        return report, validation, out, written

    def test_artifacts_written(self, run_artifacts):
        report, validation, out, written = run_artifacts
        names = {p.name for p in written}
        assert "model_table.txt" in names
        assert "report.json" in names
        assert "model.json" in names
        assert "simulation.csv" in names
        assert sum(1 for n in names if n.startswith("correlation_")) == 5

    def test_report_json_structure(self, run_artifacts):
        report, validation, out, _ = run_artifacts
        doc = json.loads((out / "report.json").read_text())
        assert doc["schema"].startswith("narxid-report/")
        assert doc["chosen"] in ("ARX", "NARX")
        assert len(doc["table"]) == len(report.table)
        assert doc["validation"]["tests"]

    def test_saved_model_loads(self, run_artifacts):
        report, _, out, _ = run_artifacts
        model = load_model(out / "model.json")
        assert model.terms == report.chosen_model.terms
