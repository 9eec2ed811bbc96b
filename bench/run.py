"""Benchmark for narxid: end-to-end metrics, or a traced split by layer.

Usage::

    python3 bench/run.py --workload small-batch [--seed 332] [--seconds 20] [--trace 0]

The run generates its inputs from ``--seed`` (set-up, timed several times),
then runs the workload's batch of operations through ``narxid.cli.main`` in
a closed loop with one client until ``--seconds`` have passed.  Each batch's
artifacts are checked after its clock stops.  ``--trace 0`` reports the
end-to-end metrics, timed under the machine-speed probe of ``speed.py`` and
given in seconds at its reference speed; ``--trace 1`` alternates untraced
and traced batches (at least two of each, timed raw) and reports the
per-layer metrics, the tracing overhead and the cross-checks of the counts.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.  Exit code 2 means narxid could not
be imported from ``src/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from speed import RawClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("small-batch", "large-dict", "reduced-err", "replay-long")
DEFAULT_SEED = 332
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
MIN_TRACED_BATCHES = 2


@dataclass
class Batch:
    wall: float  # raw wall time of the whole loop over the batch's operations
    timings: list  # one speed.Timing per operation
    peak_rss_mb: float  # of the process so far
    verdicts: list
    spans: tuple = (0, 0)  # slice of the tracer's span list

    def fail(self, detail: str) -> None:
        for v in self.verdicts:
            if v.ok:
                v.ok, v.detail = False, detail


def _call(cli, argv: list) -> int | None:
    """One in-process CLI call with its output captured; None if it raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # the program's fault: count it, keep measuring
            traceback.print_exc()
            code = None
    if code != 0:
        print(f"narxid {' '.join(argv)} -> {code}\n{err.getvalue()}", file=sys.stderr)
    return code


def import_cli() -> None:
    """A fresh interpreter starts and imports narxid's CLI."""
    subprocess.run(
        [sys.executable, "-c", "import narxid.cli"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, timeout=60,
    )


def set_up(args, run_dir: Path, probe) -> tuple:
    """Set the workload up SETUP_REPEATS times; returns (ops, setup_s, raw s).

    setup_s is the median interpreter start and import plus the median input
    generation, in seconds at the probe's reference speed.
    """
    from workloads import WORKLOADS

    imports, generations = [], []
    for k in range(SETUP_REPEATS):
        imports.append(probe.measure(import_cli, in_process=False)[1])
        setup_dir = run_dir / f"setup-{k}"
        setup_dir.mkdir()
        ops, timing = probe.measure(lambda: WORKLOADS[args.workload](args.seed, setup_dir))
        generations.append(timing)
    setup_s = statistics.median(t.wall for t in imports) + statistics.median(t.wall for t in generations)
    raw_s = statistics.median(t.raw_wall for t in imports) + statistics.median(t.raw_wall for t in generations)
    return ops, setup_s, raw_s


def run_batch(ops: list, out_root: Path, clock, tracer=None) -> Batch:
    import narxid.cli as cli  # main is looked up per call, so a patch applies

    first = len(tracer.spans) if tracer else 0
    outs = [out_root / op.name for op in ops]
    for out in outs:
        out.mkdir(parents=True)
    codes, timings = [], []
    wall0 = time.perf_counter()
    for op, out in zip(ops, outs):
        if tracer:
            tracer.op = op.name
        op_codes, timing = clock.measure(lambda: [_call(cli, argv) for argv in op.argvs(out)])
        codes.append(op_codes)
        timings.append(timing)
    wall = time.perf_counter() - wall0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    last = len(tracer.spans) if tracer else 0
    verdicts = [op.verify(out, c) for op, out, c in zip(ops, outs, codes)]
    shutil.rmtree(out_root, ignore_errors=True)
    return Batch(wall, timings, peak_rss_mb, verdicts, (first, last))


def check_repeats(batches: list) -> None:
    """Every batch must reproduce the first one's term sets and report counts."""
    reference = batches[0].verdicts
    for batch in batches[1:]:
        for ref, v in zip(reference, batch.verdicts):
            if v.ok and v.signature() != ref.signature():
                v.ok, v.detail = False, f"not repeatable: {v.signature()} vs {ref.signature()}"


def check_traced(traced: list, summaries: list) -> None:
    """Traced counts must repeat, and agree with the counts the reports give."""
    from spans import COUNT_KEYS

    first = {k: summaries[0][k] for k in COUNT_KEYS}
    for batch, s in zip(traced, summaries):
        problems = [
            f"{k} {s[k]} vs {first[k]} in the first traced batch"
            for k in COUNT_KEYS if s[k] != first[k]
        ]
        evaluations = sum(v.evaluations for v in batch.verdicts)
        candidates = sum(v.candidates for v in batch.verdicts)
        if s["ofr.candidates_evaluated"] != evaluations:
            problems.append(f"ofr.candidates_evaluated {s['ofr.candidates_evaluated']} "
                            f"vs {evaluations} in the reports")
        if s["search.candidates"] != candidates:
            problems.append(f"search.candidates {s['search.candidates']} vs {candidates} in the reports")
        if s["simulation.probes"] != s["search.candidates"]:
            problems.append("simulation.probes differs from search.candidates")
        if problems:
            batch.fail("trace count mismatch: " + "; ".join(problems))


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts(nproc: int, args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    source = hashlib.sha256()
    for path in sorted((SRC / "narxid").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": blas,
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": git_commit(), "narxid_source_sha256": source.hexdigest()[:16],
        "platform": platform.platform(),
    }


def end_to_end(batches: list, setup_s: float) -> dict:
    # Times are in seconds at the probe's reference speed (speed.py), medians
    # over the run's batches; op_ref_s_p50 is the median over the batch's
    # operations of each operation's median over the batches.
    op_medians = [statistics.median(t.wall for t in ts) for ts in zip(*(b.timings for b in batches))]
    return {
        "setup_s": (setup_s, "s"),
        "wall_ref_s": (statistics.median(sum(t.wall for t in b.timings) for b in batches), "s"),
        "op_ref_s_p50": (statistics.median(op_medians), "s"),
        "cpu_ref_s": (statistics.median(sum(t.cpu for t in b.timings) for b in batches), "s"),
        # after the first batch, so that the number of batches does not count
        "peak_rss_mb": (batches[0].peak_rss_mb, "MB"),
    }


def per_layer(untraced: list, traced: list, summaries: list) -> dict:
    """Raw timings of the fastest traced batch; counts repeat in every batch."""
    from spans import unit_of

    batch, summary = min(zip(traced, summaries), key=lambda pair: pair[0].wall)
    metrics = dict(summary)
    metrics["dataio.bytes_written"] = sum(v.bytes_written for v in batch.verdicts)
    metrics["structure_exact_ratio"] = sum(v.exact for v in batch.verdicts) / len(batch.verdicts)
    metrics["trace.wall_s"] = batch.wall
    metrics["trace.overhead_s"] = batch.wall - min(b.wall for b in untraced)
    # the layers' self times add up to the cli.main spans; the rest is the
    # benchmark's own loop and output capture between calls
    metrics["trace.unaccounted_s"] = batch.wall - sum(
        v for k, v in metrics.items() if k.startswith("layer.")
    )
    return {k: (v, unit_of(k)) for k, v in metrics.items()}


def measure(args, ops: list, run_dir: Path, probe):
    """Run the closed loop; returns (every batch run, per-layer metrics or None).

    With tracing, untraced and traced batches alternate, so that the
    overhead compares batches run under the same machine load.
    """
    start = time.perf_counter()
    if not args.trace:
        batches = []
        while not batches or time.perf_counter() - start < args.seconds:
            batches.append(run_batch(ops, run_dir / f"batch-{len(batches)}", probe))
        check_repeats(batches)
        return batches, None

    from spans import Tracer, summarize

    # spans hold raw times, so traced runs leave the probe off
    clock, tracer, untraced, traced = RawClock(), Tracer(), [], []
    while len(traced) < MIN_TRACED_BATCHES or time.perf_counter() - start < args.seconds:
        untraced.append(run_batch(ops, run_dir / f"untraced-{len(untraced)}", clock))
        tracer.install()
        try:
            traced.append(run_batch(ops, run_dir / f"traced-{len(traced)}", clock, tracer))
        finally:
            tracer.restore()
    batches = [b for pair in zip(untraced, traced) for b in pair]
    check_repeats(batches)
    summaries = [summarize(tracer.spans[a:b]) for a, b in (t.spans for t in traced)]
    check_traced(traced, summaries)
    tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return batches, per_layer(untraced, traced, summaries)


def report(facts: dict, ops: list, batches: list, metrics: dict) -> dict:
    verdicts = [v for b in batches for v in b.verdicts]
    failed = sum(not v.ok for v in verdicts)
    print("facts: " + json.dumps(facts, sort_keys=True))
    for op, v in zip(ops, batches[0].verdicts):
        status = "ok" if v.ok else f"FAILED ({v.detail})"
        print(f"op {op.name}: {status}; chosen {v.chosen}; exact structure {v.exact}; "
              f"terms [{', '.join(v.terms)}]")
    for v in verdicts[len(batches[0].verdicts):]:
        if not v.ok:
            print(f"op FAILED in a later batch: {v.detail}")
    timings = [t for b in batches for t in b.timings]
    raw = [t.raw_wall for t in timings]
    print(f"batches {len(batches)}, operations {len(verdicts)} (raw p50 {statistics.median(raw):.4f} s, "
          f"max {max(raw):.4f} s), failed_ratio {failed / len(verdicts):.4f}, "
          f"structure_exact_ratio {sum(v.exact for v in verdicts) / len(verdicts):.4f}")
    print("raw batch walls (s): " + " ".join(f"{b.wall:.3f}" for b in batches))
    if not facts["trace"]:  # traced batches run without the probe
        print("machine speed over each batch (reference 1): "
              + " ".join(f"{statistics.fmean(t.speed for t in b.timings):.3f}" for b in batches))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:  # no more BLAS threads than cores
        os.environ.setdefault(var, str(nproc))
    sys.path.insert(0, str(SRC))
    try:
        import narxid.cli
    except ImportError as exc:
        print(f"error: cannot import narxid from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(narxid.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: narxid was imported from outside {SRC}", file=sys.stderr)
        return 2

    from speed import SpeedProbe

    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        probe = SpeedProbe()
        ops, setup_s, setup_raw_s = set_up(args, run_dir, probe)
        batches, metrics = measure(args, ops, run_dir, probe)
        if metrics is None:
            metrics = end_to_end(batches, setup_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    facts = machine_facts(nproc, args)
    facts["setup_raw_s"] = round(setup_raw_s, 4)
    result = report(facts, ops, batches, metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
