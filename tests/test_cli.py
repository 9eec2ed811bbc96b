"""Command-line surface: subcommands, exit codes, artifact round trips."""

import json
from dataclasses import fields

import numpy as np
import pytest

import narxid.search
from narxid import (
    LagSpec,
    Prbs,
    dc_motor_reference,
    generate_signal,
    ofr_select,
    predict_one_step,
    simulate_free_run,
)
from narxid.cli import _build_parser, main
from narxid.dataio import (
    RunConfig, ingest_csv, load_model, parse_config_file, write_timeseries_csv,
)


@pytest.fixture()
def bench_csv(tmp_path):
    path = tmp_path / "bench.csv"
    code = main([
        "synth", "--case", "dc-motor-white", "--n", "400",
        "--seed", "332", "--out", str(path),
    ])
    assert code == 0
    return path


def count_ofr_select(monkeypatch):
    """The forced first term of every path the search runs from now on."""
    paths = []

    def counting_select(*args, **kwargs):
        paths.append(kwargs.get("forced_first"))
        return ofr_select(*args, **kwargs)

    monkeypatch.setattr(narxid.search, "ofr_select", counting_select)
    return paths


def write_config(tmp_path, data_path, **extra):
    lines = [
        f"data = {data_path}",
        "n_a = 2",
        "n_b = 2",
        "degree = 2",
        "include_constant = false",
        "train_end = 60",
        f"output_dir = {tmp_path / 'out'}",
    ]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    return cfg


class TestSynth:
    def test_white_noise_case(self, bench_csv):
        data = ingest_csv(bench_csv)
        assert len(data) == 400

    def test_prbs_case(self, tmp_path):
        out = tmp_path / "prbs.csv"
        code = main([
            "synth", "--case", "dc-motor-prbs", "--n", "300",
            "--seed", "1", "--prbs-hold", "4", "--out", str(out),
        ])
        assert code == 0
        data = ingest_csv(out)
        assert set(np.unique(data.u)) <= {0.0, 1.0}

    def test_multitone_default_sampling_reports_divergence(self, tmp_path, capsys):
        out = tmp_path / "mt.csv"
        code = main([
            "synth", "--case", "dc-motor-multitone", "--n", "1000",
            "--out", str(out),
        ])
        assert code == 1
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["2", "0", "-5"])
    @pytest.mark.parametrize("case", ["dc-motor-white", "dc-motor-prbs", "dc-motor-multitone"])
    def test_too_few_samples_is_a_config_error(self, tmp_path, capsys, case, n):
        out = tmp_path / "short.csv"
        assert main(["synth", "--case", case, "--n", n, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --n must be >= 3, got {n}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--case", "dc-motor-white", "--seed", "-1"],
        ["--case", "dc-motor-prbs", "--seed", "-1"],
        ["--case", "dc-motor-multitone", "--sample-period", "nan"],
        ["--case", "dc-motor-multitone", "--sample-period", "inf"],
    ], ids=["white-negative-seed", "prbs-negative-seed", "multitone-nan", "multitone-inf"])
    def test_bad_signal_setting_is_a_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "bad.csv"
        code = main(["synth", *argv, "--n", "100", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_multitone_coarse_sampling_works(self, tmp_path):
        out = tmp_path / "mt.csv"
        code = main([
            "synth", "--case", "dc-motor-multitone", "--n", "1000",
            "--sample-period", "0.1", "--out", str(out),
        ])
        assert code == 0
        assert len(ingest_csv(out)) == 1000


class TestIdentify:
    def test_end_to_end(self, tmp_path, bench_csv, capsys):
        cfg = write_config(tmp_path, bench_csv)
        code = main(["identify", "--config", str(cfg)])
        assert code == 0
        out = tmp_path / "out"
        doc = json.loads((out / "report.json").read_text())
        assert doc["chosen"] == "NARX"
        assert len(doc["table"]) == 9

    def test_train_range_beyond_record_exits_2(self, tmp_path, bench_csv, capsys):
        cfg = write_config(tmp_path, bench_csv, train_end=5000)
        code = main(["identify", "--config", str(cfg)])
        assert code == 2
        assert "range" in capsys.readouterr().err

    def test_missing_data_file_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tmp_path / "nope.csv")
        code = main(["identify", "--config", str(cfg)])
        assert code == 3

    @pytest.mark.parametrize("criterion", ["press", "err"])
    def test_zero_output_exits_3(self, tmp_path, capsys, criterion):
        data = tmp_path / "zero.csv"
        write_timeseries_csv(data, np.random.default_rng(3).normal(size=120), np.zeros(120))
        code = main([
            "identify", "--data", str(data), "--criterion", criterion,
            "--out", str(tmp_path / "out"),
        ])
        assert code == 3
        assert "output has zero energy on the fitted rows" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, bench_csv, capsys):
        code = main(["identify", "--data", str(bench_csv), "--bogus"])
        assert code == 2

    def test_flags_are_the_run_config_fields(self):
        args = vars(_build_parser().parse_args(["identify"]))
        assert set(args) == {f.name for f in fields(RunConfig)} | {"command", "config"}
        args = _build_parser().parse_args([
            "identify", "--na", "3", "--nb", "4", "--constant", "yes", "--out", "o",
        ])
        assert (args.n_a, args.n_b, args.include_constant, args.output_dir) == (
            "3", "4", "yes", "o",
        )

    def test_arx_only_switch_is_gone(self, tmp_path, bench_csv, capsys):
        # an ARX-only run is degree 1
        assert main(["identify", "--data", str(bench_csv), "--arx-only"]) == 2
        cfg = write_config(tmp_path, bench_csv, want_narx="false")
        assert main(["identify", "--config", str(cfg)]) == 2
        assert "unknown config key 'want_narx'" in capsys.readouterr().err

    def test_lag_beyond_the_probe_window_exits_2(self, tmp_path, bench_csv, capsys):
        code = main([
            "identify", "--data", str(bench_csv), "--na", "201", "--degree", "1",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "200-sample settle window" in capsys.readouterr().err

    def test_seed_flag_exits_2(self, bench_csv, capsys):
        # nothing in identify is random, so it takes no seed
        code = main(["identify", "--data", str(bench_csv), "--seed", "1"])
        assert code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--max-iterations", "0"),
        ("--epsilon", "0"),
        ("--epsilon", "nan"),
        ("--max-terms", "-1"),
        ("--method", "9"),
        ("--na", "x"),
    ])
    def test_invalid_search_setting_exits_2(self, tmp_path, bench_csv, capsys, flag, value):
        code = main([
            "identify", "--data", str(bench_csv), "--train-end", "60",
            "--out", str(tmp_path / "out"), flag, value,
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_huge_max_terms_is_capped_by_the_dictionary(self, tmp_path, bench_csv):
        code = main([
            "identify", "--data", str(bench_csv), "--train-end", "60",
            "--out", str(tmp_path / "out"), "--max-terms", "1000000000",
        ])
        assert code == 0

    @pytest.mark.parametrize("flag, value, field, want", [
        ("--method", "m2", "method", "m2"),
        ("--constant", "yes", "include_constant", True),
        ("--criterion", "PRESS", "criterion", "press"),
        ("--criterion", "ERR", "criterion", "err"),
    ])
    def test_flags_take_the_config_file_strings(
        self, tmp_path, bench_csv, flag, value, field, want
    ):
        out = tmp_path / "out"
        code = main([
            "identify", "--data", str(bench_csv), "--train-end", "60",
            "--out", str(out), flag, value,
        ])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        seen = {
            "method": doc["method"],
            "include_constant": doc["lag_spec"]["include_constant"],
            "criterion": load_model(out / "model.json").provenance["criterion"],
        }
        assert seen[field] == want

    def test_bad_criterion_exits_2_before_reading_data(self, tmp_path, capsys):
        # the data file does not exist, so reading it would exit 3
        cfg = write_config(tmp_path, tmp_path / "nope.csv", criterion="foo")
        assert main(["identify", "--config", str(cfg)]) == 2
        assert "criterion" in capsys.readouterr().err

    def test_negative_validation_max_lag_exits_2_before_reading_data(self, tmp_path, capsys):
        # the data file does not exist, so reading it would exit 3
        cfg = write_config(tmp_path, tmp_path / "nope.csv")
        code = main(["identify", "--config", str(cfg), "--validation-max-lag", "-1"])
        assert code == 2
        assert "validation_max_lag" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, setting", [
        (("--na", "201"), "n_a"),
        (("--train-start", "-1"), "train_start"),
        (("--train-end", "-5"), "train_end"),
        (("--train-start", "50", "--train-end", "40"), "train_end"),
        (("--criterion", "foo"), "criterion"),
        (("--method", "m9"), "method"),
        (("--validation-max-lag", "-1"), "validation_max_lag"),
        (("--degree", "0"), "degree"),
    ])
    def test_bad_setting_exits_2_before_reading_data(self, tmp_path, capsys, flags, setting):
        # the data file does not exist, so reading it would exit 3
        code = main(["identify", "--data", str(tmp_path / "nope.csv"), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert setting in err

    @pytest.mark.parametrize("line, message", [
        ("nonsense", "run.cfg:2: expected 'key = value'"),
        ("include_constant = maybe", "include_constant wants true/false"),
        ("epsilon = abc", "epsilon wants a number"),
    ])
    def test_bad_config_line_exits_2_before_reading_data(self, tmp_path, capsys, line, message):
        # the data file does not exist, so reading it would exit 3
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {tmp_path / 'nope.csv'}\n{line}\n")
        assert main(["identify", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    def test_no_data_file_given_exits_2(self, capsys):
        assert main(["identify", "--train-end", "60"]) == 2
        assert "no input data file given" in capsys.readouterr().err

    def test_output_path_naming_a_file_exits_3(self, tmp_path, bench_csv, capsys):
        taken = tmp_path / "taken"
        taken.write_text("x")
        code = main([
            "identify", "--data", str(bench_csv), "--train-end", "60", "--out", str(taken),
        ])
        assert code == 3
        assert "is not writable" in capsys.readouterr().err

    def test_unstable_system_fails_in_the_linear_stage(self, tmp_path, capsys):
        # y(t) = 1.05 y(t-1) + u(t-1): no linear candidate passes the probe
        u = np.random.default_rng(1).normal(size=120)
        y = np.zeros(120)
        for t in range(1, 120):
            y[t] = 1.05 * y[t - 1] + u[t - 1]
        data = tmp_path / "unstable.csv"
        write_timeseries_csv(data, u, y)
        code = main([
            "identify", "--data", str(data), "--degree", "1", "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("identification failed: linear (ARX) stage:")

    def test_flag_overrides_a_bad_config_value(self, tmp_path, bench_csv):
        # only the value left after every override is checked
        cfg = write_config(tmp_path, bench_csv, n_a=201)
        assert main(["identify", "--config", str(cfg), "--na", "2"]) == 0

    def test_nonlinear_stage_without_stable_candidate_keeps_arx(self, tmp_path):
        # ROADMAP case E, seed 2: every nonlinear candidate fails the probe
        n = 1000
        u = generate_signal(Prbs(length=n, levels=(0.0, 1.0), hold=5, seed=2))
        y = dc_motor_reference(u) + 0.01 * np.random.default_rng(2).normal(size=n)
        data = tmp_path / "prbs2.csv"
        write_timeseries_csv(data, u, y)
        out = tmp_path / "out"
        code = main([
            "identify", "--data", str(data), "--constant", "true", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert (doc["chosen"], doc["narx"]) == ("ARX", None)

    def test_validation_max_lag_beyond_record_exits_3(
        self, tmp_path, bench_csv, capsys, monkeypatch
    ):
        # a model leaves at least the 60 training samples less the spec's
        # 2 lags as residuals, so a lag of 58 or more is rejected before any
        # search runs
        paths = count_ofr_select(monkeypatch)
        for max_lag in (58, 59, 60, 1000):
            cfg = write_config(tmp_path, bench_csv, validation_max_lag=max_lag)
            assert main(["identify", "--config", str(cfg)]) == 3
            err = capsys.readouterr().err
            assert "out of range" in err and f"validation_max_lag {max_lag}" in err
        assert paths == []

    def test_one_fitted_row_exits_3_before_any_search(
        self, tmp_path, bench_csv, capsys, monkeypatch
    ):
        # 5 training samples less the 4 lags leave one fitted row, and every
        # candidate has a term: no BIC is defined, so no path runs
        paths = count_ofr_select(monkeypatch)
        cfg = write_config(tmp_path, bench_csv, train_end=5)
        with pytest.warns(UserWarning, match="only 1 usable rows"):
            assert main(["identify", "--config", str(cfg), "--na", "4", "--nb", "4"]) == 3
        assert "a BIC needs more fitted rows than terms" in capsys.readouterr().err
        assert paths == []

    @pytest.mark.parametrize("train_end", [2, 3, 4])
    def test_training_range_too_short_for_the_residual_tests_exits_3_before_any_search(
        self, tmp_path, bench_csv, capsys, monkeypatch, train_end
    ):
        # every model has a lag of at least 1, so 4 training samples leave
        # at most 3 residuals, one short of what the residual tests need
        paths = count_ofr_select(monkeypatch)
        cfg = write_config(tmp_path, bench_csv, train_end=train_end)
        assert main(["identify", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == (
            f"error: train range [0, {train_end}) leaves at most {train_end - 1} "
            "residuals; the residual tests need 4\n"
        )
        assert paths == []

    def test_five_training_samples_can_fail_after_the_search(
        self, tmp_path, capsys, monkeypatch
    ):
        # on this record the chosen model's lag of 2 leaves 3 residuals: only
        # the search knows that lag, so the range fails after it
        data = tmp_path / "d.csv"
        assert main(["synth", "--case", "dc-motor-white", "--n", "200", "--out", str(data)]) == 0
        paths = count_ofr_select(monkeypatch)
        cfg = write_config(tmp_path, data, train_end=5)
        with pytest.warns(UserWarning, match="only 3 usable rows"):
            assert main(["identify", "--config", str(cfg)]) == 3
        assert "need at least 4 samples for residual tests" in capsys.readouterr().err
        assert paths

    def test_reduced_dictionary_note_in_model_table(self, tmp_path, bench_csv):
        cfg = write_config(tmp_path, bench_csv)
        assert main(["identify", "--config", str(cfg), "--method", "1"]) == 0
        table = (tmp_path / "out" / "model_table.txt").read_text()
        assert "\nnote: reduced-dictionary search: term sets can differ" in table

    def test_flag_overrides_config(self, tmp_path, bench_csv):
        cfg = write_config(tmp_path, bench_csv)
        out2 = tmp_path / "out2"
        code = main([
            "identify", "--config", str(cfg), "--degree", "1", "--out", str(out2),
        ])
        assert code == 0
        doc = json.loads((out2 / "report.json").read_text())
        assert doc["chosen"] == "ARX"
        assert doc["narx"] is None


class TestNonUtf8Files:
    """Every file narxid reads is UTF-8 text; another file is an error
    naming it, with the exit code of its kind, not a traceback."""

    @pytest.mark.parametrize("content", [
        b"\xff\xfe",
        # past the first buffered read, so the error arises mid-record
        b"u,y\n" + b"0.5,1.5\n" * 2000 + b"\xff,1\n",
    ])
    def test_data_file_exits_3(self, tmp_path, capsys, content):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        assert main(["identify", "--data", str(path), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (invalid start byte)\n"

    def test_config_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"n_a = 2\n# \xe9t\xe9\n")
        assert main(["identify", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text (invalid continuation byte)\n"
        )

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_model_file_exits_3(self, tmp_path, bench_csv, capsys, command):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"schema": "\xff"}')
        code = main([
            command, "--model", str(path), "--data", str(bench_csv),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 3
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (invalid start byte)\n"


class TestByteOrderMark:
    """A UTF-8 byte-order mark, as some editors write one, is not part of the
    first header cell or the first config key."""

    def test_data_file(self, tmp_path, bench_csv, capsys):
        # the u,y columns of the t,u,y record, after a mark
        rows = bench_csv.read_text().splitlines()[1:]
        path = tmp_path / "bom.csv"
        path.write_bytes(
            b"\xef\xbb\xbfu,y\r\n"
            + "".join(row.split(",", 1)[1] + "\r\n" for row in rows).encode()
        )
        data, plain = ingest_csv(path), ingest_csv(bench_csv)
        assert data.u.tobytes() == plain.u.tobytes()
        assert data.y.tobytes() == plain.y.tobytes()
        out = tmp_path / "o"
        assert main(["identify", "--data", str(path), "--train-end", "60", "--out", str(out)]) == 0

    def test_config_file(self, tmp_path, bench_csv):
        # the first key is data
        plain = write_config(tmp_path, bench_csv)
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert parse_config_file(path) == parse_config_file(plain)


class TestSimulateAndValidate:
    @pytest.fixture()
    def model_path(self, tmp_path, bench_csv):
        cfg = write_config(tmp_path, bench_csv)
        assert main(["identify", "--config", str(cfg)]) == 0
        return tmp_path / "out" / "model.json"

    def test_simulate_round_trip(self, tmp_path, bench_csv, model_path):
        sim_out = tmp_path / "sim.csv"
        code = main([
            "simulate", "--model", str(model_path),
            "--data", str(bench_csv), "--out", str(sim_out),
        ])
        assert code == 0
        rows = sim_out.read_text().splitlines()
        assert rows[0] == "t,measured,predicted"
        assert len(rows) == 401

    def test_simulate_one_step_writes_predict_one_step(self, tmp_path, bench_csv, model_path):
        sim_out = tmp_path / "sim.csv"
        code = main([
            "simulate", "--model", str(model_path), "--data", str(bench_csv),
            "--out", str(sim_out), "--one-step",
        ])
        assert code == 0
        written = ingest_csv(sim_out, u_column="measured", y_column="predicted")
        expected = predict_one_step(load_model(model_path), ingest_csv(bench_csv))
        assert written.y.view(np.int64).tolist() == expected.view(np.int64).tolist()

    def test_simulate_divergence_warns_and_exits_0(self, tmp_path, bench_csv, capsys):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps({
            "schema": "narxid-model/1",
            "terms": ["y(t-1)", "u(t-1)"],
            "coefficients": ["2", "1"],
            "bias": "0",
        }))
        data = ingest_csv(bench_csv)
        run = simulate_free_run(load_model(model_path), data.u, data.y[:1])
        assert run.diverged_at is not None
        code = main([
            "simulate", "--model", str(model_path), "--data", str(bench_csv),
            "--out", str(tmp_path / "sim.csv"),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert err == f"warning: simulation diverged at sample {run.diverged_at}\n"

    def test_simulate_insufficient_data_exits_3(self, tmp_path, model_path):
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("t,u,y\n1,0.0,0.0\n2,0.0,0.0\n")
        code = main([
            "simulate", "--model", str(model_path),
            "--data", str(tiny), "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3

    def test_malformed_model_exits_3(self, tmp_path, bench_csv, capsys):
        good = {
            "schema": "narxid-model/1",
            "terms": ["y(t-1)", "u(t-1)"],
            "coefficients": ["0.5", "1"],
            "bias": "0",
            "lag_spec": {"n_a": 2, "n_b": 2, "degree": 2, "include_constant": False},
        }
        no_terms = {k: v for k, v in good.items() if k != "terms"}
        no_n_b = dict(good, lag_spec={"n_a": 2, "degree": 2, "include_constant": False})
        bad_term = dict(good, terms=["q(t-1)"], coefficients=["1"])
        short_coefficients = dict(good, coefficients=["0.5"])
        beyond_lags = dict(good, terms=["y(t-3)", "u(t-1)"])
        # a string is not a list of coefficients, though it iterates as one
        string_coefficients = dict(good, coefficients="51")
        # JSON booleans are not numbers, and lag_spec values keep their types
        bool_coefficients = dict(good, coefficients=[True, False])
        bool_bias = dict(good, bias=True)
        fractional_n_a = dict(good, lag_spec=dict(good["lag_spec"], n_a=2.5))
        bool_degree = dict(good, lag_spec=dict(good["lag_spec"], degree=True))
        string_constant = dict(good, lag_spec=dict(good["lag_spec"], include_constant="no"))
        path = tmp_path / "m.json"

        def simulate(doc):
            path.write_text(json.dumps(doc))
            return main([
                "simulate", "--model", str(path),
                "--data", str(bench_csv), "--out", str(tmp_path / "sim.csv"),
            ])

        assert simulate(good) == 0
        for doc in (
            no_terms, no_n_b, [good], bad_term, short_coefficients, beyond_lags,
            string_coefficients, bool_coefficients, bool_bias, fractional_n_a, bool_degree,
            string_constant,
        ):
            capsys.readouterr()
            assert simulate(doc) == 3
            assert "m.json" in capsys.readouterr().err

    def test_non_json_model_exits_3(self, tmp_path, bench_csv, capsys):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        code = main([
            "simulate", "--model", str(path),
            "--data", str(bench_csv), "--out", str(tmp_path / "sim.csv"),
        ])
        assert code == 3
        assert "not valid model JSON" in capsys.readouterr().err

    def test_validate_writes_artifacts(self, tmp_path, bench_csv, model_path):
        out = tmp_path / "val"
        code = main([
            "validate", "--model", str(model_path),
            "--data", str(bench_csv), "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "validation.json").read_text())
        assert set(summary["tests"]) == {
            "phi_ee", "phi_ue", "phi_e_eu", "phi_u2e", "phi_u2e2"
        }

    def test_validate_max_lag_range(self, tmp_path, bench_csv, model_path, capsys):
        def validate(model, max_lag):
            return main([
                "validate", "--model", str(model), "--data", str(bench_csv),
                "--max-lag", max_lag, "--out", str(tmp_path / "val"),
            ])

        # the model file does not exist, so reading it would exit 3
        assert validate(tmp_path / "nope.json", "-2") == 2
        assert "--max-lag" in capsys.readouterr().err
        assert validate(model_path, "400") == 3
        assert "out of range" in capsys.readouterr().err

    def test_validate_matches_identify_correlations(self, tmp_path, bench_csv):
        # identify on the whole record validates on the same residuals that
        # validate computes from the saved model
        ident = tmp_path / "ident"
        cfg = write_config(tmp_path, bench_csv, train_end=0)
        assert main(["identify", "--config", str(cfg), "--out", str(ident)]) == 0
        val = tmp_path / "val"
        assert main([
            "validate", "--model", str(ident / "model.json"),
            "--data", str(bench_csv), "--out", str(val),
        ]) == 0
        names = sorted(p.name for p in ident.glob("correlation_*.csv"))
        assert len(names) == 5
        assert names == sorted(p.name for p in val.glob("correlation_*.csv"))
        for name in names:
            assert (ident / name).read_bytes() == (val / name).read_bytes()

    def test_loaded_model_matches_report(self, model_path):
        model = load_model(model_path)
        assert model.n_terms == 9

    def test_identified_model_records_lag_spec(self, tmp_path, bench_csv):
        cfg = write_config(tmp_path, bench_csv, n_a=3, include_constant="true")
        assert main(["identify", "--config", str(cfg)]) == 0
        model_path = tmp_path / "out" / "model.json"
        spec = {"n_a": 3, "n_b": 2, "degree": 2, "include_constant": True}
        assert json.loads(model_path.read_text())["lag_spec"] == spec
        assert load_model(model_path).lag_spec == LagSpec(3, 2, 2, True)
        common = ["--model", str(model_path), "--data", str(bench_csv)]
        assert main(["simulate", *common, "--out", str(tmp_path / "sim.csv")]) == 0
        assert main(["validate", *common, "--out", str(tmp_path / "val")]) == 0


class TestDeterminism:
    def test_identical_runs_byte_identical_reports(self, tmp_path, bench_csv):
        reports = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = write_config(tmp_path, bench_csv)
            code = main(["identify", "--config", str(cfg), "--out", str(out)])
            assert code == 0
            doc = json.loads((out / "report.json").read_text())
            doc.pop("timings")
            reports.append(json.dumps(doc, sort_keys=True))
        assert reports[0] == reports[1]


class TestParserReuse:
    # one run of every subcommand, with flags that a later call leaves at
    # their defaults, and a usage error between them
    ARGVS = [
        ["synth", "--case", "dc-motor-prbs", "--n", "300", "--seed", "3", "--prbs-hold", "4",
         "--out", "prbs.csv"],
        ["synth", "--case", "dc-motor-white", "--n", "200", "--out", "white.csv"],
        ["identify", "--data", "white.csv", "--train-end", "60", "--degree", "1",
         "--criterion", "err", "--out", "arx"],
        ["identify", "--data", "white.csv", "--train-end", "60", "--out", "narx"],
        ["identify", "--data", "white.csv", "--bogus"],
        ["simulate", "--model", "narx/model.json", "--data", "prbs.csv", "--one-step",
         "--out", "one-step.csv"],
        ["simulate", "--model", "narx/model.json", "--data", "prbs.csv", "--out", "free.csv"],
        ["validate", "--model", "arx/model.json", "--data", "white.csv", "--max-lag", "5",
         "--out", "val5"],
        ["validate", "--model", "arx/model.json", "--data", "white.csv", "--out", "val"],
        ["identify", "--data", "white.csv", "--train-end", "4"],
    ]

    @staticmethod
    def run_all(root, capsys, monkeypatch, fresh):
        """Each call's exit code and output, and every file the calls wrote
        (a report without its timings)."""
        root.mkdir()
        monkeypatch.chdir(root)
        _build_parser.cache_clear()
        results = []
        for argv in TestParserReuse.ARGVS:
            if fresh:
                _build_parser.cache_clear()
            results.append((main(argv), capsys.readouterr()))
        files = {}
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            text = path.read_text()
            if path.name == "report.json":
                doc = json.loads(text)
                doc.pop("timings")
                text = json.dumps(doc)
            files[str(path.relative_to(root))] = text
        return results, files

    def test_successive_calls_match_fresh_ones(self, tmp_path, capsys, monkeypatch):
        fresh = self.run_all(tmp_path / "fresh", capsys, monkeypatch, fresh=True)
        reused = self.run_all(tmp_path / "reused", capsys, monkeypatch, fresh=False)
        assert _build_parser.cache_info().misses == 1
        assert [code for code, _ in fresh[0]] == [0, 0, 0, 0, 2, 0, 0, 0, 0, 3]
        assert reused == fresh
        assert json.loads(fresh[1]["arx/report.json"])["narx"] is None
        assert json.loads(fresh[1]["narx/report.json"])["narx"] is not None
        assert json.loads(fresh[1]["val5/validation.json"]) != json.loads(fresh[1]["val/validation.json"])
