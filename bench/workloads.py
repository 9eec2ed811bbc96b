"""Benchmark workloads: seeded input generation, operations and their checks.

Setting a workload up writes CSV records, config files and (for replay-long)
a saved model into a directory.  The program then sees only those files,
through ``narxid.cli.main``.  Each operation is one or more CLI calls whose
artifacts are parsed and checked afterwards, outside the timed section.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from narxid import (
    LagSpec,
    Model,
    Prbs,
    WhiteNoise,
    dc_motor_reference,
    dc_motor_terms,
    generate_signal,
)
from narxid.dataio import save_model, write_timeseries_csv

# Known true structures, written out so the check does not rely on the
# package's own term rendering.
DC_MOTOR_TERMS = frozenset({
    "y(t-1)", "y(t-2)", "u(t-1)", "u(t-2)", "y(t-1)*u(t-1)", "y(t-1)*u(t-2)",
    "y(t-2)*u(t-1)", "y(t-2)*u(t-2)", "y(t-2)^2",
})
LINEAR_TERMS = frozenset({"y(t-1)", "y(t-2)", "u(t-1)", "u(t-2)"})

# Records pinned whatever the workload seed.  Case A's white-noise records
# (seeds 332-335): identify exits 1 on a few other seeds (24, 81 and 102 of
# 0-119), where the linear stage finds no probe-stable model and the
# pipeline stops before the nonlinear stage.  Case C: its fit time spans
# 8-22 s across white-noise seeds, because PRESS path lengths on noise-free
# data are set by rounding noise.
CASE_A_SEED = 332
CASE_C_SEED = 332
CASE_C_SAMPLES = 500

REPORT_KEYS = frozenset({
    "schema", "chosen", "method", "lag_spec", "table", "arx", "narx", "notes",
    "validation", "timings",
})
STAGE_KEYS = frozenset({
    "dictionary_size", "terms", "coefficients", "bias", "bic", "msse",
    "stability", "iterations", "converged", "n_evaluations", "pool_size",
    "pool_unstable",
})
CORRELATION_TESTS = ("phi_ee", "phi_ue", "phi_e_eu", "phi_u2e", "phi_u2e2")

REPLAY_SAMPLES = 20_000
REPLAY_NOISE_STD = 0.01
# Free-run residual variance of the true model must match the injected
# noise variance to this relative tolerance (the sampling error of a
# variance estimate over 20k samples is about 1%).
REPLAY_VARIANCE_TOL = 0.05


class CheckFailed(Exception):
    """An operation's artifacts are missing, malformed or wrong."""


@dataclass
class Verdict:
    ok: bool
    detail: str = ""
    chosen: str | None = None
    terms: tuple[str, ...] = ()
    exact: bool = False
    evaluations: int = 0  # ofr candidate evaluations the reports count
    candidates: int = 0  # pool entries the reports count
    bytes_written: int = 0

    def signature(self) -> tuple:
        """What must repeat exactly across runs of the same operation."""
        return (self.ok, self.chosen, self.terms, self.evaluations, self.candidates)


def _float_rows(path: Path, header: list[str]) -> np.ndarray:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise CheckFailed(f"{path.name}: header {rows[:1]} is not {header}")
    try:
        return np.array([[float(x) for x in row] for row in rows[1:]])
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None


def _check_correlations(out: Path) -> None:
    for name in CORRELATION_TESTS:
        values = _float_rows(out / f"correlation_{name}.csv", ["lag", "value", "lower", "upper"])
        if values.size == 0 or not np.all(np.isfinite(values)):
            raise CheckFailed(f"correlation_{name}.csv: empty or non-finite")


def _artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def _verdict(check, out: Path, codes: list) -> Verdict:
    if any(code != 0 for code in codes):
        return Verdict(False, f"exit codes {codes}")
    try:
        verdict = check(out)
    except (CheckFailed, OSError, KeyError, TypeError, ValueError) as exc:
        return Verdict(False, f"{type(exc).__name__}: {exc}")
    verdict.bytes_written = _artifact_bytes(out)
    return verdict


@dataclass(frozen=True)
class IdentifyOp:
    """One ``narxid identify`` call on a generated record."""

    name: str
    config: Path
    n_samples: int
    lag_spec: LagSpec
    truth: str  # "dc-motor" or "linear"
    extra: tuple[str, ...] = ()

    def argvs(self, out: Path) -> list[list[str]]:
        return [["identify", "--config", str(self.config), "--out", str(out), *self.extra]]

    def verify(self, out: Path, codes: list) -> Verdict:
        return _verdict(self._check, out, codes)

    def _check(self, out: Path) -> Verdict:
        if not (out / "model_table.txt").read_text().startswith("chosen: "):
            raise CheckFailed("model_table.txt has no 'chosen:' line")
        report = json.loads((out / "report.json").read_text())
        if report["schema"] != "narxid-report/1" or set(report) != REPORT_KEYS:
            raise CheckFailed(f"report.json schema {report.get('schema')!r}, keys {sorted(report)}")
        spec = self.lag_spec
        if report["lag_spec"] != {"n_a": spec.n_a, "n_b": spec.n_b, "degree": spec.degree,
                                  "include_constant": spec.include_constant}:
            raise CheckFailed(f"report lag_spec {report['lag_spec']}")
        chosen = report["chosen"]
        stages = [report["arx"]] + ([report["narx"]] if report["narx"] is not None else [])
        if chosen not in ("ARX", "NARX") or any(set(s) != STAGE_KEYS for s in stages):
            raise CheckFailed(f"report chosen {chosen!r} or stage keys malformed")
        stage = report["narx" if chosen == "NARX" else "arx"]
        if stage is None or len(report["table"]) == 0:
            raise CheckFailed("chosen stage missing or empty term table")
        if len(report["validation"]["tests"]) != len(CORRELATION_TESTS):
            raise CheckFailed("report validation does not hold the five tests")
        terms = tuple(stage["terms"])

        model = json.loads((out / "model.json").read_text())
        if model["schema"] != "narxid-model/1" or tuple(model["terms"]) != terms:
            raise CheckFailed("model.json schema or terms disagree with report.json")
        if not all(math.isfinite(float(c)) for c in model["coefficients"]):
            raise CheckFailed("model.json has non-finite coefficients")

        sim = _float_rows(out / "simulation.csv", ["t", "measured", "simulated", "residual"])
        if sim.shape != (self.n_samples, 4) or not np.all(np.isfinite(sim)):
            raise CheckFailed(f"simulation.csv shape {sim.shape} or non-finite values")
        _check_correlations(out)

        if self.truth == "dc-motor":
            exact = chosen == "NARX" and frozenset(terms) == DC_MOTOR_TERMS
        else:
            exact = chosen == "ARX" and frozenset(terms) == LINEAR_TERMS
        return Verdict(
            True, chosen=chosen, terms=terms, exact=exact,
            evaluations=sum(s["n_evaluations"] for s in stages),
            candidates=sum(s["pool_size"] for s in stages),
        )


@dataclass(frozen=True)
class ReplayOp:
    """Free run, one-step prediction and validation of a saved model."""

    name: str
    model: Path
    data: Path
    n_samples: int
    noise_var: float

    def argvs(self, out: Path) -> list[list[str]]:
        common = ["--model", str(self.model), "--data", str(self.data)]
        return [
            ["simulate", *common, "--out", str(out / "free_run.csv")],
            ["simulate", *common, "--one-step", "--out", str(out / "one_step.csv")],
            ["validate", *common, "--out", str(out / "validation")],
        ]

    def verify(self, out: Path, codes: list) -> Verdict:
        return _verdict(self._check, out, codes)

    def _check(self, out: Path) -> Verdict:
        header = ["t", "measured", "predicted"]
        for name in ("free_run.csv", "one_step.csv"):
            rows = _float_rows(out / name, header)
            if rows.shape != (self.n_samples, 3) or not np.all(np.isfinite(rows)):
                raise CheckFailed(f"{name}: shape {rows.shape} or non-finite (diverged) values")
            if name == "free_run.csv":
                residual_var = float(np.var(rows[:, 1] - rows[:, 2]))
                if abs(residual_var / self.noise_var - 1.0) > REPLAY_VARIANCE_TOL:
                    raise CheckFailed(
                        f"free-run residual variance {residual_var:.4g} is not within "
                        f"{REPLAY_VARIANCE_TOL:.0%} of the noise variance {self.noise_var:.4g}"
                    )
        summary = json.loads((out / "validation" / "validation.json").read_text())
        if set(summary["tests"]) != set(CORRELATION_TESTS):
            raise CheckFailed(f"validation.json tests {sorted(summary['tests'])}")
        if not summary["residual_variance"] > 0:
            raise CheckFailed("validation.json residual variance is not positive")
        _check_correlations(out / "validation")
        terms = tuple(json.loads(self.model.read_text())["terms"])
        return Verdict(True, chosen="saved", terms=terms, exact=frozenset(terms) == DC_MOTOR_TERMS)


def _write_config(path: Path, data: Path, spec: LagSpec, criterion: str = "press") -> Path:
    path.write_text(
        f"data = {data}\n"
        f"n_a = {spec.n_a}\nn_b = {spec.n_b}\ndegree = {spec.degree}\n"
        f"include_constant = {str(spec.include_constant).lower()}\n"
        f"criterion = {criterion}\nmethod = none\n"
    )
    return path


def _linear_record(rng: np.random.Generator, n: int):
    """The criterion-9 linear system with output noise of std 0.1."""
    u = rng.normal(size=n)
    clean = np.zeros(n)
    for t in range(2, n):
        clean[t] = 1.6 * clean[t - 1] - 0.81 * clean[t - 2] + u[t - 1] + 0.5 * u[t - 2]
    return u, clean + 0.1 * rng.normal(size=n)


def small_batch(seed: int, root: Path) -> list:
    spec = LagSpec(2, 2, 2, include_constant=False)
    records = []
    for k in range(CASE_A_SEED, CASE_A_SEED + 4):
        u = generate_signal(WhiteNoise(length=60, seed=k))
        records.append((f"dc-white-{k}", u, dc_motor_reference(u), "dc-motor"))
    for k in range(seed, seed + 4):
        u = generate_signal(Prbs(length=400, levels=(0.0, 1.0), hold=5, seed=k))
        records.append((f"dc-prbs-{k}", u, dc_motor_reference(u), "dc-motor"))
    for i in range(4):
        u, y = _linear_record(np.random.default_rng([seed, i]), 400)
        records.append((f"linear-{seed}.{i}", u, y, "linear"))
    ops = []
    for name, u, y, truth in records:
        data = root / f"{name}.csv"
        write_timeseries_csv(data, u, y)
        config = _write_config(root / f"{name}.cfg", data, spec)
        ops.append(IdentifyOp(name, config, len(u), spec, truth))
    return ops


def _case_c(root: Path, criterion: str) -> tuple[Path, LagSpec]:
    spec = LagSpec(4, 4, 3, include_constant=True)
    u = generate_signal(WhiteNoise(length=CASE_C_SAMPLES, seed=CASE_C_SEED))
    data = root / "case-c.csv"
    write_timeseries_csv(data, u, dc_motor_reference(u))
    return _write_config(root / f"case-c-{criterion}.cfg", data, spec, criterion), spec


def large_dict(seed: int, root: Path) -> list:
    config, spec = _case_c(root, "press")
    return [IdentifyOp("case-c-press", config, CASE_C_SAMPLES, spec, "dc-motor")]


def reduced_err(seed: int, root: Path) -> list:
    config, spec = _case_c(root, "err")
    return [
        IdentifyOp(f"case-c-err-m{m}", config, CASE_C_SAMPLES, spec, "dc-motor", ("--method", str(m)))
        for m in (2, 3, 4)
    ]


def replay_long(seed: int, root: Path) -> list:
    u = generate_signal(Prbs(length=REPLAY_SAMPLES, levels=(0.0, 1.0), hold=5, seed=seed))
    noise = np.random.default_rng([seed, 1]).normal(0.0, REPLAY_NOISE_STD, REPLAY_SAMPLES)
    data = root / "replay.csv"
    write_timeseries_csv(data, u, dc_motor_reference(u) + noise)
    terms, coefficients = dc_motor_terms()
    model = root / "dc-motor-model.json"
    save_model(Model(terms, coefficients, lag_spec=LagSpec(2, 2, 2)), model)
    return [ReplayOp(f"replay-{seed}", model, data, REPLAY_SAMPLES, REPLAY_NOISE_STD**2)]


WORKLOADS = {
    "small-batch": small_batch,
    "large-dict": large_dict,
    "reduced-err": reduced_err,
    "replay-long": replay_long,
}
