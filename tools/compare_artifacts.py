"""Run every benchmark operation once per tree and compare the artifacts.

Usage::

    python3 tools/compare_artifacts.py --tree PATH --seed N --out DIR [--workloads a,b]
    python3 tools/compare_artifacts.py --diff DIR_A DIR_B

The first form sets up each workload of ``PATH/bench/workloads.py`` with
seed ``N`` and runs each of its operations once through ``narxid.cli.main``,
in a fresh interpreter that imports narxid from ``PATH/src``.  Everything an
operation writes lands in ``DIR/<workload>/<operation>/``, the generated
inputs in ``DIR/<workload>/inputs/``.  The ``timings`` block, the only part
of a report that changes from run to run, is dropped from every
``report.json``.  It exits 1 if an operation's check fails.

The second form lists the files that differ between two such directories,
or exist in only one, and exits 1 if any do.  The ``.cfg`` inputs are not
compared, because they name the paths of their own records.  Then, for
each operation whose ``report.json`` or ``model.json`` differs and whose
``report.json`` is in both directories, it prints one row per
identification stage: whether B keeps A's terms in the same order, keeps
them in another order, or changes the set (naming the terms added and
dropped), the largest relative change of a coefficient (the bias included)
of a term both keep, and every other stage key that changed, by name (such
as ``n_evaluations``, ``bic``, and each ``stability`` entry on its own, as
``stability.var0``): ``KEY A -> B``, ``KEY added`` or ``KEY removed``.  A
row under the chosen stage names a changed path stop reason, read from
``model.json``'s provenance (the only model saved).  When the operation's
``simulation.csv`` differs, a last row gives the largest change of its
``simulated`` column relative to the output's scale, the largest
``measured`` magnitude in A.  Identical directories print only the count.

A change that must keep the program's output runs the first form on a
checkout of the parent commit and on the change, at the same seed, and
then the second form on the two directories.  A change that moves output
bits on purpose quotes the second form's table.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

WORKLOAD_NAMES = ("small-batch", "large-dict", "reduced-err", "replay-long")
IGNORED_SUFFIXES = (".cfg",)
STAGES = ("arx", "narx")
# stage keys the terms and coefficient cells already compare
COMPARED = {"terms", "coefficients", "bias"}

# Runs in the fresh interpreter: argv is tree, seed, out, workload names.
CHILD = r"""
import contextlib, io, json, sys
from pathlib import Path

tree, seed, out, names = Path(sys.argv[1]), int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4:]
sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
import narxid.cli
from workloads import WORKLOADS

if not narxid.cli.__file__.startswith(str(tree / "src")):
    sys.exit(f"narxid was imported from {narxid.cli.__file__}, not from {tree / 'src'}")
failed = 0
for name in names:
    inputs = out / name / "inputs"
    inputs.mkdir(parents=True)
    for op in WORKLOADS[name](seed, inputs):
        op_out = out / name / op.name
        op_out.mkdir()
        codes = []
        for argv in op.argvs(op_out):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(narxid.cli.main(argv))
        verdict = op.verify(op_out, codes)
        failed += not verdict.ok
        print(f"{name}/{op.name}: {'ok' if verdict.ok else 'FAILED ' + verdict.detail}")
    for report in (out / name).rglob("report.json"):
        doc = json.loads(report.read_text())
        doc.pop("timings", None)
        report.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
sys.exit(1 if failed else 0)
"""


def run_tree(tree: Path, seed: int, out: Path, workloads: list[str]) -> int:
    """Write every operation's artifacts under ``out``; the child's exit code."""
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    # one BLAS thread, so sums over long records do not depend on the core count
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(tree.resolve()), str(seed), str(out.resolve()), *workloads],
        env=env,
    )
    return child.returncode


def _files(root: Path) -> set[Path]:
    return {
        p.relative_to(root) for p in root.rglob("*")
        if p.is_file() and p.suffix not in IGNORED_SUFFIXES
    }


def diff_dirs(a: Path, b: Path) -> int:
    """Print each file that differs between ``a`` and ``b``, then what
    changed in each identification among them; 1 if any file differs."""
    files_a, files_b = _files(a), _files(b)
    differ = sorted(
        rel for rel in files_a | files_b
        if rel not in files_a or rel not in files_b
        or (a / rel).read_bytes() != (b / rel).read_bytes()
    )
    for rel in differ:
        if rel not in files_b:
            print(f"only in {a}: {rel}")
        elif rel not in files_a:
            print(f"only in {b}: {rel}")
        else:
            print(f"differs: {rel}")
    print(f"{len(files_a | files_b)} files compared, {len(differ)} differ")
    both = files_a & files_b
    changed = both.intersection(differ)
    ops = sorted({
        rel.parent for rel in differ
        if rel.name in ("report.json", "model.json") and rel.parent / "report.json" in both
    })
    if ops:
        rows = [("operation", "stage", "terms", "max rel coef change", "other keys changed")]
        for op in ops:
            rows += _operation_rows(a, b, op, op / "simulation.csv" in changed)
        widths = [max(len(row[i]) for row in rows) for i in range(4)]
        for row in rows:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)), row[4], sep="  ")
    return 1 if differ else 0


def _coefficients(stage: dict) -> dict[str, float]:
    """Coefficient of each term, and of the bias, as the report writes them."""
    coefs = dict(zip(stage["terms"], map(float, stage["coefficients"])))
    coefs["(bias)"] = float(stage["bias"])
    return coefs


def _relative_change(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a else math.inf


def _flat_keys(stage: dict) -> dict:
    """The stage's values by key, a nested block's as ``block.key``."""
    flat = {}
    for key, value in stage.items():
        if isinstance(value, dict):
            flat.update((f"{key}.{sub}", x) for sub, x in value.items())
        else:
            flat[key] = value
    return flat


def changed_keys(a: dict, b: dict) -> str:
    """Every key of stage ``a`` or ``b``, other than its terms and
    coefficients, whose value changed, in name order."""
    flat_a, flat_b = _flat_keys(a), _flat_keys(b)
    changes = []
    for key in sorted((flat_a.keys() | flat_b.keys()) - COMPARED):
        if key not in flat_b:
            changes.append(f"{key} removed")
        elif key not in flat_a:
            changes.append(f"{key} added")
        else:
            # JSON text, so NaN equals NaN and -0.0 differs from 0.0, as in the file
            va, vb = json.dumps(flat_a[key]), json.dumps(flat_b[key])
            if va != vb:
                changes.append(f"{key} {va} -> {vb}")
    return ", ".join(changes) or "-"


def compare_stage(a: dict | None, b: dict | None) -> tuple[str, str, str]:
    """How stage ``b`` differs from stage ``a``: the term verdict, the
    largest relative coefficient change and the other changed keys."""
    if a is None or b is None:
        return ("no stage in either" if a is b else f"stage only in {'B' if a is None else 'A'}"), "-", "-"
    terms_a, terms_b = a["terms"], b["terms"]
    if terms_a == terms_b:
        verdict = "same terms, same order"
    elif sorted(terms_a) == sorted(terms_b):
        verdict = "same terms, other order"
    else:
        added = ", ".join(t for t in terms_b if t not in terms_a) or "-"
        dropped = ", ".join(t for t in terms_a if t not in terms_b) or "-"
        verdict = f"terms differ: added {added}; dropped {dropped}"
    coefs_a, coefs_b = _coefficients(a), _coefficients(b)
    change = max(_relative_change(coefs_a[t], coefs_b[t]) for t in coefs_a.keys() & coefs_b.keys())
    return verdict, f"{change:.1e}", changed_keys(a, b)


def _stop_reason(op_dir: Path) -> str | None:
    """The chosen model's path stop reason, from ``model.json``'s provenance."""
    model = op_dir / "model.json"
    if not model.exists():
        return None
    return (json.loads(model.read_text()).get("provenance") or {}).get("stop_reason")


def _simulation_columns(path: Path) -> dict[str, np.ndarray]:
    with path.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    values = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return dict(zip(header, values.T))


def simulation_change(a: Path, b: Path) -> str:
    """The largest change of the simulated output from ``simulation.csv``
    ``a`` to ``b``, relative to the output's scale: the largest measured
    magnitude in ``a``."""
    sim_a, sim_b = _simulation_columns(a), _simulation_columns(b)
    simulated_a, simulated_b = sim_a["simulated"], sim_b["simulated"]
    if simulated_a.shape != simulated_b.shape:
        return f"rows {simulated_a.size} -> {simulated_b.size}"
    change = float(np.max(np.abs(simulated_b - simulated_a), initial=0.0))
    scale = float(np.max(np.abs(sim_a["measured"]), initial=0.0))
    return f"{change / scale:.1e}"


def _operation_rows(a: Path, b: Path, op: Path, simulation_differs: bool) -> list[tuple]:
    """One row per stage of operation ``op``, and the stop reason, chosen
    stage and simulation rows when those changed."""
    doc_a, doc_b = (json.loads((root / op / "report.json").read_text()) for root in (a, b))
    stop_a, stop_b = _stop_reason(a / op), _stop_reason(b / op)
    rows = []
    for stage in STAGES:
        rows.append((str(op), stage, *compare_stage(doc_a[stage], doc_b[stage])))
        if stage == doc_a["chosen"].lower() == doc_b["chosen"].lower() and stop_a != stop_b:
            rows.append((str(op), stage, f"stop reason {stop_a} -> {stop_b}", "-", "-"))
    if doc_a["chosen"] != doc_b["chosen"]:
        rows.append((str(op), "-", f"chosen {doc_a['chosen']} -> {doc_b['chosen']}", "-", "-"))
    if simulation_differs:
        change = simulation_change(a / op / "simulation.csv", b / op / "simulation.csv")
        rows.append((str(op), "-", "simulated output, max change / output scale", change, "-"))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--tree", type=Path, help="checkout whose src/ and bench/ to run")
    mode.add_argument("--diff", nargs=2, type=Path, metavar=("DIR_A", "DIR_B"))
    parser.add_argument("--seed", type=int, default=332)
    parser.add_argument("--out", type=Path, help="empty directory for the artifacts")
    parser.add_argument(
        "--workloads", default=",".join(WORKLOAD_NAMES),
        help="comma-separated workload names (default: all four)",
    )
    args = parser.parse_args(argv)
    if args.diff:
        return diff_dirs(*args.diff)
    if args.out is None:
        parser.error("--tree needs --out")
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(WORKLOAD_NAMES))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}")
    return run_tree(args.tree, args.seed, args.out, workloads)


if __name__ == "__main__":
    sys.exit(main())
