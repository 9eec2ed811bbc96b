"""Command-line interface.

Subcommands: ``synth`` (emit benchmark datasets), ``identify`` (full
pipeline run from a config file), ``simulate`` (free-run a saved model
against a data file), ``validate`` (residual tests for a saved model).

Exit codes: 0 success, 1 identification failure, 2 usage or configuration
error, 3 data or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .benchmarks import Multitone, Prbs, WhiteNoise, dc_motor_reference, generate_signal
from .dataio import (
    RunConfig,
    apply_config_values,
    ingest_csv,
    load_model,
    parse_config_file,
    render_report,
    write_correlation_csvs,
    write_csv,
    write_timeseries_csv,
)
from .errors import (
    ConfigError,
    DataError,
    IdentificationError,
    InsufficientDataError,
    NarxidError,
    check_integer,
)
from .pipeline import check_lag_bound, identify
from .search import SearchConfig
from .simulation import predict_one_step, simulate_free_run
from .terms import LagSpec
from .validation import ValidationReport, residual_tests

SYNTH_CASES = ("dc-motor-white", "dc-motor-multitone", "dc-motor-prbs")

# identify flags for RunConfig fields: ``--<field-with-dashes>`` except
# these historic short names, and the help text where there is one
_FLAG_NAMES = {
    "n_a": "--na", "n_b": "--nb", "include_constant": "--constant", "output_dir": "--out",
}
_FLAG_HELP = {
    "data": "input CSV (overrides config)",
    "include_constant": "true/false, yes/no or 1/0",
    "criterion": "press or err",
    "method": "none, m1-m4 or 0-4",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="narxid",
        description="Polynomial ARX/NARX identification from input-output data",
    )
    parser.add_argument("--version", action="version", version=f"narxid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a benchmark dataset CSV")
    p_synth.add_argument("--case", choices=SYNTH_CASES, required=True)
    p_synth.add_argument("--n", type=int, default=1000, help="number of samples")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument(
        "--sample-period", type=float, default=0.01,
        help="multitone sampling period (seconds)",
    )
    p_synth.add_argument("--prbs-hold", type=int, default=5)
    p_synth.add_argument("--out", required=True, help="output CSV path")

    p_id = sub.add_parser("identify", help="run the identification pipeline")
    p_id.add_argument("--config", help="flat key=value config file")
    # one flag per RunConfig field, kept as a string: apply_config_values
    # converts and checks it as it does a config file value
    for f in fields(RunConfig):
        flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        p_id.add_argument(flag, dest=f.name, help=_FLAG_HELP.get(f.name))

    p_sim = sub.add_parser("simulate", help="free-run a saved model over a data file")
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--data", required=True)
    p_sim.add_argument("--u-column", default="u")
    p_sim.add_argument("--y-column", default="y")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument(
        "--one-step", action="store_true",
        help="one-step-ahead prediction instead of free run",
    )

    p_val = sub.add_parser("validate", help="residual tests for a saved model")
    p_val.add_argument("--model", required=True)
    p_val.add_argument("--data", required=True)
    p_val.add_argument("--u-column", default="u")
    p_val.add_argument("--y-column", default="y")
    p_val.add_argument("--max-lag", type=int, default=0)
    p_val.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_synth(args) -> int:
    n = args.n
    # the DC-motor recursion reads two past samples
    check_integer("--n", n, 3)
    if args.case == "dc-motor-white":
        u = generate_signal(WhiteNoise(length=n, seed=args.seed))
    elif args.case == "dc-motor-multitone":
        u = generate_signal(Multitone(length=n, sample_period=args.sample_period))
    else:
        # unsigned voltage drive: both levels keep the motor dynamics stable
        u = generate_signal(
            Prbs(length=n, levels=(0.0, 1.0), hold=args.prbs_hold, seed=args.seed)
        )
    y = dc_motor_reference(u)
    write_timeseries_csv(args.out, u, y)
    print(f"wrote {n} samples to {args.out}")
    return 0


def _run_config_from_args(args) -> tuple[RunConfig, LagSpec, SearchConfig]:
    """The run's settings, its lag spec and search settings, checked as far
    as they can be without the record."""
    run = parse_config_file(args.config) if args.config else RunConfig()
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name) is not None
    }
    run = apply_config_values(run, overrides, source="command line")
    if not run.data:
        raise ConfigError("no input data file given (config key 'data' or --data)")
    spec = run.lag_spec()
    check_lag_bound(spec)
    search_cfg = run.search_config()
    for name in ("validation_max_lag", "train_start", "train_end"):
        check_integer(name, getattr(run, name), 0)
    if run.train_end and run.train_end <= run.train_start:
        raise ConfigError(f"train_end {run.train_end} must be 0 or above train_start")
    return run, spec, search_cfg


def _validate(model, data, max_lag: int) -> ValidationReport:
    """Residual tests on the model's one-step residuals over ``data``.

    ``max_lag`` 0 means the default lag range.
    """
    predictions = predict_one_step(model, data)
    residuals = data.y[model.max_lag :] - predictions[model.max_lag :]
    return residual_tests(residuals, data.u[model.max_lag :], max_lag or None)


def _cmd_identify(args) -> int:
    run, spec, search_cfg = _run_config_from_args(args)
    data = ingest_csv(run.data, run.u_column, run.y_column)
    start = run.train_start
    end = run.train_end or len(data)
    if not start < end <= len(data):
        raise ConfigError(
            f"train range [{start}, {end}) invalid for record of length {len(data)}"
        )
    # the residual tests need fewer lags than residuals (lag 0 picks such a
    # range itself), and a model leaves at least the training samples less
    # the spec's largest lag
    residuals = end - start - spec.max_lag
    if run.validation_max_lag and run.validation_max_lag >= residuals:
        raise DataError(
            f"validation_max_lag {run.validation_max_lag} out of range for "
            f"{end - start} training samples less {spec.max_lag} lags"
        )
    train = data.slice(start, end)
    report = identify(train, spec, method=run.method, cfg=search_cfg)
    model = report.chosen_model
    validation = _validate(model, train, run.validation_max_lag)
    sim = simulate_free_run(model, data.u, data.y)
    written = render_report(report, validation, data.y, sim.output, run.output_dir)
    print(f"chosen: {report.chosen}; {model.n_terms} terms; "
          f"artifacts in {run.output_dir}")
    for path in written:
        print(f"  {path}")
    return 0


def _cmd_simulate(args) -> int:
    model = load_model(args.model)
    data = ingest_csv(args.data, args.u_column, args.y_column)
    if len(data) <= model.max_lag:
        raise InsufficientDataError(
            f"model needs lags up to {model.max_lag}; record has {len(data)} samples"
        )
    if args.one_step:
        out = predict_one_step(model, data)
        diverged_at = None
    else:
        run = simulate_free_run(model, data.u, data.y)
        out, diverged_at = run.output, run.diverged_at
    write_csv(
        args.out, ("t", "measured", "predicted"), range(1, len(data) + 1), (data.y, out)
    )
    if diverged_at is not None:
        print(f"warning: simulation diverged at sample {diverged_at}", file=sys.stderr)
    print(f"wrote {args.out}")
    return 0


def _cmd_validate(args) -> int:
    check_integer("--max-lag", args.max_lag, 0)
    model = load_model(args.model)
    data = ingest_csv(args.data, args.u_column, args.y_column)
    report = _validate(model, data, args.max_lag)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_correlation_csvs(report, out)
    summary = {
        "passed": report.passed,
        "residual_variance": report.residual_variance,
        "tests": {t.name: t.passed for t in report.tests},
    }
    (out / "validation.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"validation {'passed' if report.passed else 'FAILED'}; results in {out}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "identify": _cmd_identify,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IdentificationError as exc:
        print(f"identification failed: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NarxidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
