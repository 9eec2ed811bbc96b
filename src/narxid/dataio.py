"""CSV ingestion, run configuration, model serialization, report rendering.

The machine-readable report is JSON with a schema version; the saved-model
format stores canonical term strings with 17-significant-digit coefficients
so a load/simulate round trip is exact.  The run configuration is a flat
``key = value`` text file; command-line flags override file values.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import asdict, dataclass, fields, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .ofr import Criterion
from .pipeline import IdentificationReport, ReductionMethod
from .regression import IoData
from .search import SearchConfig, SearchResult
from .simulation import Model
from .terms import LagSpec, parse_term
from .validation import ValidationReport

__all__ = [
    "ingest_csv",
    "write_csv",
    "write_timeseries_csv",
    "save_model",
    "load_model",
    "RunConfig",
    "parse_config_file",
    "render_report",
    "write_correlation_csvs",
    "REPORT_SCHEMA",
    "MODEL_SCHEMA",
]

REPORT_SCHEMA = "narxid-report/1"
MODEL_SCHEMA = "narxid-model/1"


def ingest_csv(path, u_column: str = "u", y_column: str = "y") -> IoData:
    """Load aligned input/output samples from a headed CSV file.

    The first line is the header; a repeated column name reads its last
    column.  Blank lines after it are skipped and not counted in the row
    numbers of error messages, and a cell missing from a short row is blank.
    Once every cell has parsed, the first ``nan`` or infinite one is an error.
    A UTF-8 byte-order mark before the header is skipped.

    The header is read with :mod:`csv` and the body of a well-formed file
    with numpy's C text reader (``np.loadtxt``, numpy 1.23 or later), which
    splits fields as :mod:`csv` does and parses each cell with
    ``PyOS_string_to_double``, the routine ``float()`` uses, so the doubles
    are the same bits.  When that reader refuses the file (a blank, short,
    ``#`` or non-numeric row, or a cell only ``float()`` reads, such as
    ``1_000`` or non-ASCII digits), the body is read again from its first
    row, cell by cell with ``float()``: that loop keeps ``float()``'s wider
    syntax and names the first bad cell and its row.  It also reads a file
    that cannot be read twice, such as a pipe.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            missing = {u_column, y_column} - set(header)
            if missing:
                raise DataError(f"{path}: missing column(s) {sorted(missing)}")
            index = {name: j for j, name in enumerate(header)}
            columns = ((u_column, index[u_column]), (y_column, index[y_column]))
            u = None
            if fh.seekable():  # a pipe cannot be read again: the loop reads it
                try:
                    # the reader goes on from the line after the header,
                    # however many physical lines its quoted cells took
                    with warnings.catch_warnings():
                        warnings.filterwarnings(
                            "ignore", "loadtxt: input contained no data", UserWarning
                        )
                        u, y = np.loadtxt(
                            fh, delimiter=",", comments=None, quotechar='"',
                            usecols=[j for _, j in columns], ndmin=2, dtype=np.float64,
                        ).T
                except ValueError:  # UnicodeDecodeError too: the loop meets it again
                    fh.seek(0)
                    reader = csv.reader(fh)
                    next(reader)
            if u is None:
                u, y = _read_rows(path, reader, columns)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not len(u):
        raise DataError(f"{path}: no data rows")
    finite = np.isfinite(u) & np.isfinite(y)
    if not finite.all():
        k = int(np.argmin(finite))
        col, x = (u_column, u[k]) if not np.isfinite(u[k]) else (y_column, y[k])
        raise DataError(f"{path}: non-finite {col!r} cell at row {k + 2}: {float(x)}")
    return IoData(u, y)


def _read_rows(path: Path, reader, columns) -> tuple[np.ndarray, np.ndarray]:
    """The ``u`` and ``y`` cells of ``reader``'s rows, each read by ``float()``;
    the first one it refuses is a :class:`DataError` naming its row."""
    values = ([], [])
    rows = (row for row in reader if row)
    for i, row in enumerate(rows, start=2):  # 1-based incl. header
        for (col, j), dest in zip(columns, values):
            cell = row[j] if j < len(row) else ""
            try:
                dest.append(float(cell))
            except ValueError:
                if not cell.strip():
                    raise DataError(f"{path}: blank {col!r} cell at row {i}") from None
                raise DataError(
                    f"{path}: non-numeric {col!r} cell at row {i}: {cell!r}"
                ) from None
    return np.array(values[0]), np.array(values[1])


def write_csv(path, header, index, columns) -> None:
    """Write the one CSV format narxid writes.

    A ``header`` line, then one row per entry of the integer ``index``
    followed by that entry of each float column.  Floats carry 17
    significant digits, so reading a file back gives the same doubles, and
    every line ends in ``\\r\\n``.
    """
    cols = [np.asarray(col, dtype=float).tolist() for col in columns]
    row_format = "%d" + ",%.17g" * len(cols) + "\r\n"
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row_format % row for row in zip(index, *cols))


def write_timeseries_csv(path, u, y) -> None:
    """Write a ``t,u,y`` CSV (t is the 1-based sample index)."""
    write_csv(path, ("t", "u", "y"), range(1, len(u) + 1), (u, y))


def save_model(model: Model, path) -> None:
    """Serialize a model as JSON with full-precision coefficients."""
    doc = {
        "schema": MODEL_SCHEMA,
        "terms": list(model.term_strings()),
        "coefficients": [format(c, ".17g") for c in model.coefficients],
        "bias": format(model.bias, ".17g"),
        "lag_spec": None if model.lag_spec is None else asdict(model.lag_spec),
        "provenance": model.provenance,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _number(value) -> float:
    """``float(value)`` for a model's number; a JSON boolean, which
    ``float`` reads as 1 or 0, is not one."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {json.dumps(value)}")
    return float(value)


def load_model(path) -> Model:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid model JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: model JSON must be an object, got {type(doc).__name__}")
    if doc.get("schema") != MODEL_SCHEMA:
        raise DataError(f"{path}: unsupported model schema {doc.get('schema')!r}")
    for key in ("terms", "coefficients"):
        if key in doc and not isinstance(doc[key], list):
            raise DataError(
                f"{path}: model JSON {key!r} must be an array, got {type(doc[key]).__name__}"
            )
    try:
        terms = tuple(parse_term(s) for s in doc["terms"])
        coefficients = tuple(_number(c) for c in doc["coefficients"])
        bias = _number(doc.get("bias", 0.0))
        spec = None
        if doc.get("lag_spec"):
            ls = doc["lag_spec"]
            spec = LagSpec(ls["n_a"], ls["n_b"], ls["degree"], ls["include_constant"])
        return Model(
            terms, coefficients, bias=bias, lag_spec=spec,
            provenance=doc.get("provenance"),
        )
    except KeyError as exc:
        raise DataError(f"{path}: model JSON has no key {exc}") from None
    except (ConfigError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{path}: malformed model JSON: {exc}") from None


@dataclass
class RunConfig:
    """User-facing knobs for one identification run."""

    data: str = ""
    u_column: str = "u"
    y_column: str = "y"
    train_start: int = 0
    train_end: int = 0  # 0 means "to the end of the record"
    n_a: int = 2
    n_b: int = 2
    degree: int = 2
    include_constant: bool = False
    criterion: Criterion = SearchConfig.criterion
    method: ReductionMethod = ReductionMethod.NONE
    max_iterations: int = SearchConfig.max_iterations
    epsilon: float = SearchConfig.epsilon
    max_terms: int = 0  # 0 means the identifiability default
    validation_max_lag: int = 0  # 0 means the default
    output_dir: str = "narxid-out"

    def lag_spec(self) -> LagSpec:
        return LagSpec(self.n_a, self.n_b, self.degree, self.include_constant)

    def search_config(self) -> SearchConfig:
        return SearchConfig(
            self.max_iterations, self.epsilon, self.criterion, self.max_terms or None
        )


_BOOL_STRINGS = {"true": True, "1": True, "yes": True,
                 "false": False, "0": False, "no": False}


def parse_config_file(path) -> RunConfig:
    """Parse a flat ``key = value`` config file ('#' starts a comment).

    A UTF-8 byte-order mark before the first key is skipped.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip().strip("\"'")
    return apply_config_values(RunConfig(), values, source=str(path))


def apply_config_values(cfg: RunConfig, values: dict, source: str = "override") -> RunConfig:
    known = {f.name for f in fields(RunConfig)}
    for key, val in values.items():
        if key not in known:
            raise ConfigError(f"{source}: unknown config key {key!r}")
        current = getattr(cfg, key)
        if isinstance(current, Enum):
            try:
                setattr(cfg, key, type(current)(str(val).strip().lower()))
            except ValueError:
                raise ConfigError(f"{source}: unknown {key} {val!r}") from None
        elif isinstance(current, bool):
            text = str(val).lower()
            if text not in _BOOL_STRINGS:
                raise ConfigError(f"{source}: {key} wants true/false, got {val!r}")
            setattr(cfg, key, _BOOL_STRINGS[text])
        elif isinstance(current, int):
            try:
                setattr(cfg, key, int(val))
            except ValueError:
                raise ConfigError(f"{source}: {key} wants an integer, got {val!r}") from None
        elif isinstance(current, float):
            try:
                setattr(cfg, key, float(val))
            except ValueError:
                raise ConfigError(f"{source}: {key} wants a number, got {val!r}") from None
        else:
            setattr(cfg, key, str(val))
    return cfg


def _stage_doc(stage: SearchResult) -> dict:
    best = stage.best
    return {
        "dictionary_size": len(stage.dictionary),
        "terms": list(best.model.term_strings()),
        "coefficients": [format(c, ".17g") for c in best.model.coefficients],
        "bias": format(best.model.bias, ".17g"),
        "bic": best.bic,
        "msse": best.msse,
        "stability": asdict(best.verdict),
        "iterations": stage.iterations,
        "converged": stage.converged,
        "n_evaluations": stage.n_evaluations,
        "pool_size": len(stage.pool),
        "pool_unstable": sum(1 for e in stage.pool if not e.verdict.stable),
    }


def report_document(
    report: IdentificationReport, validation: ValidationReport | None
) -> dict:
    """The machine-readable report as a JSON-serializable dict."""
    doc = {
        "schema": REPORT_SCHEMA,
        "chosen": report.chosen,
        "method": report.method.value,
        "lag_spec": asdict(report.lag_spec),
        "table": [
            {
                "term": row.term,
                "ms_press": row.ms_press,
                "err": row.err,
                "coefficient": format(row.coefficient, ".17g"),
            }
            for row in report.table
        ],
        "arx": _stage_doc(report.arx),
        "narx": None if report.narx is None else _stage_doc(report.narx),
        "notes": list(report.notes),
        "validation": None,
        "timings": {k: round(v, 6) for k, v in report.timings.items()},
    }
    if validation is not None:
        doc["validation"] = {
            "residual_variance": validation.residual_variance,
            "passed": validation.passed,
            "tests": [
                {
                    "name": t.name,
                    "bound": t.bound,
                    "fraction_inside": t.fraction_inside,
                    "passed": t.passed,
                    "degenerate": t.degenerate,
                }
                for t in validation.tests
            ],
        }
    return doc


def _format_float(x: float) -> str:
    return format(x, ".6g")


def render_report(
    report: IdentificationReport,
    validation: ValidationReport | None,
    measured: np.ndarray,
    simulated: np.ndarray,
    out_dir,
) -> list[Path]:
    """Write all run artifacts into ``out_dir``; returns the written paths.

    Artifacts: a human-readable model table, the JSON report, the chosen
    model (loadable), the ``measured`` record against the chosen model's
    ``simulated`` free run, and one CSV per correlation test.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".writable"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise DataError(f"output directory {out} is not writable: {exc}") from None

    written: list[Path] = []
    model = report.chosen_model

    table_path = out / "model_table.txt"
    lines = [
        f"chosen: {report.chosen} "
        f"(linear BIC {_format_float(report.arx.best.bic)}"
        + (
            f", nonlinear BIC {_format_float(report.narx.best.bic)})"
            if report.narx is not None
            else ")"
        ),
        "",
        f"{'term':<24} {'ms PRESS':>14} {'ERR':>14} {'coefficient':>16}",
    ]
    for row in report.table:
        lines.append(
            f"{row.term:<24} {_format_float(row.ms_press):>14} "
            f"{_format_float(row.err):>14} {row.coefficient:>16.10g}"
        )
    for note in report.notes:
        lines.append("")
        lines.append(f"note: {note}")
    table_path.write_text("\n".join(lines) + "\n")
    written.append(table_path)

    report_path = out / "report.json"
    report_path.write_text(
        json.dumps(report_document(report, validation), indent=2, sort_keys=True)
        + "\n"
    )
    written.append(report_path)

    model_path = out / "model.json"
    save_model(replace(model, lag_spec=report.lag_spec), model_path)
    written.append(model_path)

    sim_path = out / "simulation.csv"
    write_csv(
        sim_path, ("t", "measured", "simulated", "residual"),
        range(1, len(measured) + 1), (measured, simulated, measured - simulated),
    )
    written.append(sim_path)

    if validation is not None:
        written += write_correlation_csvs(validation, out)
    return written


def write_correlation_csvs(validation: ValidationReport, out_dir) -> list[Path]:
    """Write one ``correlation_<name>.csv`` (lag, value, band) per test."""
    written = []
    for test in validation.tests:
        test_path = Path(out_dir) / f"correlation_{test.name}.csv"
        band = np.full(len(test.lags), test.bound)
        write_csv(
            test_path, ("lag", "value", "lower", "upper"),
            test.lags, (test.values, -band, band),
        )
        written.append(test_path)
    return written
