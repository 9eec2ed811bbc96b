"""In-memory span tracer that times narxid's layers from outside the package.

Each public function is wrapped on the module where its caller looks the
name up, e.g. ``narxid.search.ofr_select`` and ``narxid.pipeline.ofr_select``
are two separate sites of the same function.  A wrapped call opens a span
with its name, start, end, parent span and operation id; a few spans also
record counts read from the call's arguments or result.  Spans stay in
memory and are written out by the caller when the run ends.  ``restore``
puts every original function back.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

LAYERS = (
    "cli", "dataio", "pipeline", "search", "regression", "ofr", "simulation",
    "validation", "terms",
)

# (module the caller looks the name up in, attribute, span name).  The
# span's layer is the part of its name before the first dot.
SITES = (
    ("narxid.cli", "main", "cli.main"),
    ("narxid.cli", "parse_config_file", "dataio.parse_config_file"),
    ("narxid.cli", "apply_config_values", "dataio.apply_config_values"),
    ("narxid.cli", "ingest_csv", "dataio.ingest_csv"),
    ("narxid.cli", "load_model", "dataio.load_model"),
    ("narxid.cli", "render_report", "dataio.render_report"),
    ("narxid.cli", "identify", "pipeline.identify"),
    ("narxid.cli", "predict_one_step", "simulation.predict_one_step"),
    ("narxid.cli", "simulate_free_run", "simulation.free_run"),
    ("narxid.cli", "residual_tests", "validation.residual_tests"),
    ("narxid.pipeline", "build_linear_dictionary", "terms.build_linear_dictionary"),
    ("narxid.pipeline", "expand_dictionary", "terms.expand_dictionary"),
    ("narxid.pipeline", "reduce_dictionary", "terms.reduce_dictionary"),
    ("narxid.pipeline", "build_problem", "regression.build_problem"),
    ("narxid.pipeline", "ofr_select", "ofr.ofr_select"),
    ("narxid.pipeline", "back_substitute", "ofr.back_substitute"),
    ("narxid.pipeline", "iterative_ofr", "search.iterative_ofr"),
    ("narxid.search", "build_problem", "regression.build_problem"),
    ("narxid.search", "ofr_select", "ofr.ofr_select"),
    ("narxid.search", "back_substitute", "ofr.back_substitute"),
    ("narxid.search", "stability_probe", "simulation.stability_probe"),
    ("narxid.search", "simulate_free_run", "simulation.free_run"),
    # stability_probe and render_report reach the simulator through here
    ("narxid.simulation", "simulate_free_run", "simulation.free_run"),
)

# Integer counts that must repeat exactly between traced batches.
COUNT_KEYS = (
    "cli.main.calls", "ofr.paths", "ofr.candidates_evaluated", "ofr.steps",
    "search.iterations", "search.candidates", "simulation.probes",
    "simulation.free_run.calls", "simulation.samples_simulated",
    "regression.build_problem.calls", "regression.phi_bytes",
    "terms.dictionary_size", "validation.samples",
)


def _ofr_attrs(args, kwargs, path) -> dict:
    criterion = kwargs.get("criterion", args[1] if len(args) > 1 else None)
    return {
        "criterion": "press" if criterion is None else criterion.value,
        "n_evaluated": path.n_evaluated,
        "steps": len(path.steps),
    }


def _free_run_attrs(args, kwargs, run) -> dict:
    done = len(run.output) if run.diverged_at is None else run.diverged_at
    return {"samples": int(done)}


def _search_attrs(args, kwargs, result) -> dict:
    return {
        "iterations": result.iterations,
        "candidates": len(result.pool),
        "selectable": len(result.pool.stable()),
    }


def _problem_attrs(args, kwargs, problem) -> dict:
    rows, cols = problem.phi.shape
    return {"phi_bytes": rows * cols * problem.phi.itemsize}


ATTRS = {
    "ofr.ofr_select": _ofr_attrs,
    "simulation.free_run": _free_run_attrs,
    "simulation.stability_probe": lambda a, k, v: {"stable": bool(v.stable)},
    "search.iterative_ofr": _search_attrs,
    "regression.build_problem": _problem_attrs,
    "terms.build_linear_dictionary": lambda a, k, d: {"size": len(d)},
    "terms.expand_dictionary": lambda a, k, d: {"size": len(d)},
    "terms.reduce_dictionary": lambda a, k, d: {"size": len(d)},
    "validation.residual_tests": lambda a, k, r: {"samples": r.n_samples},
}


@dataclass
class Span:
    id: int
    parent: int | None
    op: str
    name: str
    site: str
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Patches every site on ``install`` and restores them on ``restore``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, module_name))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, original, name: str, site: str):
        spans, open_ids = self.spans, self._open
        attrs_of = ATTRS.get(name)

        def traced(*args, **kwargs):
            span = Span(
                len(spans), open_ids[-1] if open_ids else None, self.op,
                name, site, time.perf_counter(),
            )
            spans.append(span)
            open_ids.append(span.id)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_ids.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def summarize(spans: list[Span]) -> dict:
    """Per-layer metrics of one batch's spans (timings in seconds)."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    self_s = {s.id: s.duration - covered[s.id] for s in spans}

    def named(name, site=None):
        return [s for s in spans if s.name == name and site in (None, s.site)]

    def total(group):
        return sum(s.duration for s in group)

    def self_total(group):
        return sum(self_s[s.id] for s in group)

    def attr_sum(group, key):
        return sum(s.attrs.get(key, 0) for s in group)

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = self_total(s for s in spans if s.layer == layer)

    m["cli.main.calls"] = len(named("cli.main"))

    m["dataio.ingest_csv.s"] = total(named("dataio.ingest_csv"))
    m["dataio.render_report.self_s"] = self_total(named("dataio.render_report"))
    m["dataio.load_model.s"] = total(named("dataio.load_model"))

    m["pipeline.sketch.s"] = total(named("ofr.ofr_select", "narxid.pipeline"))

    search = named("search.iterative_ofr")
    candidates = attr_sum(search, "candidates")
    m["search.iterations"] = attr_sum(search, "iterations")
    m["search.candidates"] = candidates
    m["search.selectable_ratio"] = (
        attr_sum(search, "selectable") / candidates if candidates else 0.0
    )

    problems = named("regression.build_problem")
    m["regression.build_problem.s"] = total(problems)
    m["regression.build_problem.calls"] = len(problems)
    m["regression.phi_bytes"] = attr_sum(problems, "phi_bytes")

    paths = named("ofr.ofr_select")
    evaluated = attr_sum(paths, "n_evaluated")
    m["ofr.press.s"] = total(s for s in paths if s.attrs.get("criterion") == "press")
    m["ofr.err.s"] = total(s for s in paths if s.attrs.get("criterion") == "err")
    m["ofr.paths"] = len(paths)
    m["ofr.candidates_evaluated"] = evaluated
    m["ofr.steps"] = attr_sum(paths, "steps")
    m["ofr.us_per_evaluation"] = 1e6 * total(paths) / evaluated if evaluated else 0.0

    probes = named("simulation.stability_probe")
    runs = named("simulation.free_run")
    samples = attr_sum(runs, "samples")
    m["simulation.probe.s"] = total(probes)
    m["simulation.probes"] = len(probes)
    m["simulation.probe_stable_ratio"] = (
        attr_sum(probes, "stable") / len(probes) if probes else 0.0
    )
    m["simulation.free_run.s"] = total(runs)
    m["simulation.free_run.calls"] = len(runs)
    m["simulation.samples_simulated"] = samples
    m["simulation.ns_per_sample"] = 1e9 * total(runs) / samples if samples else 0.0
    m["simulation.predict_one_step.s"] = total(named("simulation.predict_one_step"))

    dictionaries = [s for s in spans if s.layer == "terms"]
    m["terms.dictionary_size"] = max((s.attrs.get("size", 0) for s in dictionaries), default=0)
    m["terms.expand.s"] = total(dictionaries)

    tests = named("validation.residual_tests")
    m["validation.residual_tests.s"] = total(tests)
    m["validation.samples"] = attr_sum(tests, "samples")
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("us_per_evaluation"):
        return "us"
    if name.endswith("ns_per_sample"):
        return "ns"
    return "count"
