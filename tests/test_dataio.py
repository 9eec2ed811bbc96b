"""CSV ingestion, config parsing, model and report serialization."""

import csv
import dataclasses
import json
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import narxid.dataio
from narxid import (
    ConfigError,
    Criterion,
    DataError,
    IoData,
    LagSpec,
    Model,
    ReductionMethod,
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
    write_correlation_csvs,
    write_csv,
    write_timeseries_csv,
)
from narxid.search import SearchConfig
from narxid.simulation import StabilityVerdict


def reference_write_csv(path, header, index, columns):
    """The plain ``csv.writer`` loop: ``write_csv`` must give the same bytes."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, *values in zip(index, *columns):
            writer.writerow([int(i), *(format(v, ".17g") for v in values)])


def reference_ingest_csv(path, u_column="u", y_column="y"):
    """The plain ``csv.DictReader`` loop: ``ingest_csv`` must read the same
    arrays and raise the same messages."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file")
        missing = {u_column, y_column} - set(reader.fieldnames)
        if missing:
            raise DataError(f"{path}: missing column(s) {sorted(missing)}")
        u_vals, y_vals = [], []
        for i, row in enumerate(reader, start=2):  # 1-based incl. header
            for col, dest in ((u_column, u_vals), (y_column, y_vals)):
                cell = row.get(col)
                if cell is None or cell.strip() == "":
                    raise DataError(f"{path}: blank {col!r} cell at row {i}")
                try:
                    dest.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric {col!r} cell at row {i}: {cell!r}"
                    ) from None
    if not u_vals:
        raise DataError(f"{path}: no data rows")
    # non-finite cells are reported once every cell has parsed
    for i, pair in enumerate(zip(u_vals, y_vals), start=2):
        for col, x in zip((u_column, y_column), pair):
            if not math.isfinite(x):
                raise DataError(f"{path}: non-finite {col!r} cell at row {i}: {x}")
    return IoData(np.array(u_vals), np.array(y_vals))


def edge_record(rng, n):
    """Random doubles with nan, +-inf, -0.0, subnormals and huge values mixed in."""
    x = rng.normal(scale=rng.choice([1e-3, 1.0, 1e6]), size=n)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310,
                         1e300, -1e300, 1.0 / 3.0, 1e16, 123456789.0])
    picks = rng.random(n) < 0.3
    x[picks] = rng.choice(specials, size=int(picks.sum()))
    return x


def read_outcome(read, path, *columns):
    """What ``read`` makes of ``path``: its arrays, by their bits, or its error."""
    try:
        data = read(path, *columns)
    except (DataError, csv.Error) as exc:
        return f"{type(exc).__name__}: {exc}"
    return data.u.view(np.int64).tolist(), data.y.view(np.int64).tolist()


def good_rows(n):
    """``n`` well-formed ``t,u,y`` rows, without line ends."""
    return [f"{i},{i / 7!r},{-i / 3!r}" for i in range(n)]


# cells numpy's C reader and float() read alike, cells only float() reads,
# cells neither reads, and cells csv and numpy could split differently
_CELLS = [
    "0.5", "-0", "5e-324", "-2.5e-310", "1e300", "0.1", "123456789", "+.5",
    "1E3", " 2.5 ", "\t1\t", "\xa03\u2028", "nan", "-inf", "Infinity", "1e999",
    '"0.5"', '" 0.25 "', '"0.5\n"', '"0.5\r\n"', '"1""5"', '"2"5', '2""',
    '"1,5"', "", " ", '""', "1_000", "\uff11", "\u0661", "abc", "0x10",
    "0.5\x00", "\x001", "# 1",
]
_LINES = ["", " ", "\t", "# note", "1,0.5", "1", ",", '""', "1,0.5,1.0,7"]


@st.composite
def csv_files(draw):
    """A headed ``u``/``y`` CSV text built from the pieces above: header
    forms, line ends, data rows of drawn cells and odd lines, sometimes
    after a long run of good rows."""
    header = draw(st.sampled_from(
        ["t,u,y", '"t","u","y"', '"t\nx",u,y', "\ufefft,u,y", "t,u,y,u"]
    ))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = good_rows(draw(st.sampled_from([0, 0, 3000])))
    lines += draw(st.lists(
        st.one_of(
            st.tuples(st.sampled_from(_CELLS), st.sampled_from(_CELLS)).map(
                lambda cells: "7," + ",".join(cells)
            ),
            st.sampled_from(_LINES),
        ),
        max_size=6,
    ))
    end = draw(st.sampled_from([eol, ""]))
    return header + eol + eol.join(lines) + (end if lines else eol)


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

    def test_non_finite_cell_names_file_column_and_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("t,u,y\n1,0.5,1.0\n\n2,0.25,nan\n3,inf,2.0\n")
        with pytest.raises(DataError) as info:
            ingest_csv(p)
        assert str(info.value) == f"{p}: non-finite 'y' cell at row 3: nan"

    def test_missing_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("t,input,y\n1,0.5,1.0\n")
        with pytest.raises(DataError, match="missing column"):
            ingest_csv(p)

    @pytest.mark.parametrize("text", [
        "t,u,y\n1,0.5,1.0\n\n\n2,abc,2.0\n",  # blank lines before a bad row
        "t,u,y\n1,0.5,1.0\n\n2,,2.0\n",
        "t,u,y\n\n1,0.5,1.0\n\n2,0.25,2.0\n\n",
        "t,u,y\n1,0.5\n",  # short row
        "t,u,y\n1,0.5,1.0\n2\n",
        "t,u,y\n1,0.5,1.0,7,8\n2,0.25,2.0,9\n",  # extra columns
        "t,u,y\n1,  ,1.0\n",  # whitespace-only cells
        "t,u,y\n1,0.5,\t\n",
        "t,u,y\n1, 0.5 ,1.0 \n",
        "u,y,u\n1,2,3\n4,5,6\n",  # a repeated name reads its last column
        "u,y,u\n1,2\n",
        '"t","u","y"\n1,"0.5","1e3"\n2," 2.5 ",-0\n',  # quoted cells
        't,u,y\n1,"1,5",2\n',
        't,u,y\n1,"",2\n',
        "t,u,y\n1,0.5,1.0\n2,abc,2.0\n",  # non-numeric cells
        "t,u,y\n1,nan,-inf\n2,1_000,0x10\n",
        "t,u,y\n1,0.5,1.0\n\n2,-Infinity,NaN\n3,nan,1\n",  # non-finite cells
        "t,u,y\n1,0.5,inf\n2,nan,1.0\n",
        "t,u,y\r\n1,0.5,1.0\r\n2,0.25,2.0\r\n",
        "",  # empty file
        "\n\n",
        "\nt,u,y\n1,2,3\n",
        "t,u,y\n",  # header only
        "t,u,y\n\n\n",
        "t,input,y\n1,0.5,1.0\n",
        # numpy's C reader refuses these files, or it and csv could split
        # them differently
        "t,u,y\n1,0.5,1.0\n# note\n2,0.25,2.0\n",
        "t,u,y\n1,0.5,1.0\n  \n2,0.25,2.0\n",  # whitespace-only lines
        "t,u,y\n1,0.5,1.0\n\t\n",
        "t,u,y\r1,0.5,1.0\r2,0.25,2.0\r",
        "t,u,y\r1,0.5,1.0\r\r2,abc,2.0\r",
        't,u,y\n1,"0.5\n",1.0\n2,0.25,2.0\n',  # quoted embedded newlines
        't,u,y\n1,"0.\n5",1.0\n',
        't,u,y\n1,"0.5,1.0\n2,0.25,2.0\n',
        '"t\nx",u,y\n1,0.5,1.0\n2,0.25,2.0\n',
        't,"u\r\n",y\r\n1,0.5,1.0\r\n',
        't,u,y\n1,"2"5,3\n2,2"",3\n',
        ("t,u,y\n1,0.5,1.0\n2,0.25,2.0\n", "u", "u"),  # u_column == y_column
        ("t,u,y\n1,0.5,1.0\n2,x,2.0\n", "y", "y"),
        "t,u,y\n1,0.5\x00,1.0\n",  # a NUL byte
        "t,u,y\n1,\uff11,\u0661\n",  # full-width and Arabic-Indic digits
        "t,u,y\n1,\xa00.5\u2028,1e999\n",  # Unicode spaces; overflow to inf
        "\ufefft,u,y\n1,0.5,1.0\n",  # byte-order marks
        "\ufefft,u,y\n1,0.5,1.0\n# note\n",
        "\ufeffu,y\r\n1,1_000\r\n2,-0\r\n",
        "t,u,y\r\n\r\n\r\n",  # a header followed only by blank lines
        "t,u,y\r\r\r",
        "t,u,y",
        pytest.param(
            "\n".join(["t,u,y", *good_rows(5000), "5001,2,abc\n"]),
            id="5000-rows-last-non-numeric",
        ),
        pytest.param(
            "\n".join(["t,u,y", *good_rows(5000), "5001,1_000,\uff12\n"]),
            id="5000-rows-last-read-by-float",
        ),
    ])
    @pytest.mark.filterwarnings("error")
    def test_matches_dictreader_reference(self, tmp_path, text):
        # a tuple is a file and the u and y column names it is read with
        text, *columns = (text,) if isinstance(text, str) else text
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode())
        assert read_outcome(ingest_csv, p, *columns) == read_outcome(
            reference_ingest_csv, p, *columns
        )

    # each example writes over the one file in tmp_path
    @settings(
        max_examples=150, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=csv_files())
    @pytest.mark.filterwarnings("error")
    def test_random_files_match_dictreader_reference(self, tmp_path, text):
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode())
        assert read_outcome(ingest_csv, p) == read_outcome(reference_ingest_csv, p)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("text", [
        "t,u,y\n1,0.5,1.0\n2,1_000,2.0\n",
        "t,u,y\n1,0.5,1.0\n# note\n",
    ])
    def test_pipe_is_read_once(self, tmp_path, text):
        # a pipe cannot be read again after numpy's reader refuses it
        fifo = tmp_path / "d.csv"
        os.mkfifo(fifo)

        def through_pipe(read):
            writer = threading.Thread(
                target=fifo.write_bytes, args=(text.encode(),), daemon=True
            )
            writer.start()
            try:
                return read_outcome(read, fifo)
            finally:
                writer.join(timeout=10)
                assert not writer.is_alive()

        assert through_pipe(ingest_csv) == through_pipe(reference_ingest_csv)

    def test_well_formed_file_skips_the_row_loop(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(36)
        # edge_record's values, the non-finite ones left out
        u, y = (x[np.isfinite(x)][:1000] for x in (edge_record(rng, 2000) for _ in "uy"))
        p = tmp_path / "d.csv"
        write_timeseries_csv(p, u, y)
        calls = []

        def spy(cell):
            calls.append(cell)
            return float(cell)

        monkeypatch.setattr(narxid.dataio, "float", spy, raising=False)
        data = ingest_csv(p)
        assert calls == []
        assert_array_equal(data.u.view(np.int64), u.view(np.int64))
        assert_array_equal(data.y.view(np.int64), y.view(np.int64))
        # the spy does see the loop, on a file the C reader refuses
        with p.open("a", newline="") as fh:
            fh.write("# note\r\n")
        with pytest.raises(DataError, match="blank 'u' cell at row 1002"):
            ingest_csv(p)
        assert len(calls) == 2001  # every cell, then the note's blank u cell

    def test_round_trip_with_generator(self, tmp_path):
        u = np.random.default_rng(3).normal(size=200)
        y = dc_motor_reference(u)
        p = tmp_path / "bench.csv"
        write_timeseries_csv(p, u, y)
        data = ingest_csv(p)
        assert_array_equal(data.u, u)
        assert_array_equal(data.y, y)


class TestWriteCsv:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_csv_writer_reference(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 300))
        header = ("t", "a", "b", "c")[: int(rng.integers(1, 5))]
        columns = [edge_record(rng, n) for _ in header[1:]]
        index = np.arange(-(n // 2), n - n // 2) if seed % 2 else range(1, n + 1)
        write_csv(tmp_path / "new.csv", header, index, columns)
        reference_write_csv(tmp_path / "ref.csv", header, index, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_timeseries_matches_reference_and_reads_back(self, tmp_path):
        rng = np.random.default_rng(11)
        u, y = edge_record(rng, 500), edge_record(rng, 500)
        # IoData refuses non-finite samples
        u[~np.isfinite(u)], y[~np.isfinite(y)] = -0.0, 5e-324
        write_timeseries_csv(tmp_path / "new.csv", u, y)
        reference_write_csv(tmp_path / "ref.csv", ("t", "u", "y"), range(1, 501), (u, y))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        data = ingest_csv(tmp_path / "new.csv")
        assert_array_equal(data.u.view(np.int64), u.view(np.int64))
        assert_array_equal(data.y.view(np.int64), y.view(np.int64))

    def test_correlation_csvs_match_reference(self, tmp_path):
        rng = np.random.default_rng(12)
        validation = residual_tests(rng.normal(size=200), rng.normal(size=200))
        for path in write_correlation_csvs(validation, tmp_path):
            test = validation[path.stem.removeprefix("correlation_")]
            ref = tmp_path / "ref.csv"
            band = np.full(len(test.lags), test.bound)
            reference_write_csv(
                ref, ("lag", "value", "lower", "upper"), test.lags,
                (test.values, -band, band),
            )
            assert path.read_bytes() == ref.read_bytes()


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
        assert cfg.method is ReductionMethod.M3
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
        assert cfg.criterion is Criterion.ERR

    def test_search_config(self):
        # max_terms 0 is the identifiability default, None to the search
        assert RunConfig().search_config() == SearchConfig()
        cfg = apply_config_values(
            RunConfig(), {"max_terms": "7", "epsilon": "0.5", "criterion": "err"}
        )
        assert cfg.search_config() == SearchConfig(
            epsilon=0.5, criterion=Criterion.ERR, max_terms=7
        )


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
        sim = simulate_free_run(model, data.u, data.y[: model.max_output_lag])
        out = tmp_path / "out"
        written = render_report(report, validation, data.y, sim.output, out)
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

    def test_stability_block_holds_the_verdict_fields(self, run_artifacts):
        _, _, out, _ = run_artifacts
        doc = json.loads((out / "report.json").read_text())
        names = [f.name for f in dataclasses.fields(StabilityVerdict)]
        assert names == ["stable", "mean0", "var0", "mean1", "var1", "diverged"]
        for stage in ("arx", "narx"):
            assert sorted(doc[stage]["stability"]) == sorted(names)

    def test_saved_model_loads(self, run_artifacts):
        report, _, out, _ = run_artifacts
        model = load_model(out / "model.json")
        assert model.terms == report.chosen_model.terms
