"""tools/compare_artifacts.py on hand-made artifact directories: the byte
diff and its table of what changed in each identification report."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_artifacts.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_artifacts", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = load_tool()


def stage(terms, coefficients, bias="0", **counts):
    return {
        "bias": bias, "bic": -100.0, "coefficients": [repr(c) for c in coefficients],
        "converged": True, "dictionary_size": 9, "iterations": 2, "msse": 1e-3,
        "n_evaluations": counts.get("n_evaluations", 324),
        "pool_size": counts.get("pool_size", 9),
        "pool_unstable": counts.get("pool_unstable", 0),
        "stability": {"stable": True}, "terms": list(terms),
    }


ARX = stage(["y(t-1)", "u(t-1)"], [0.5, 1.0], bias="0.25")
NARX = stage(["y(t-1)", "u(t-1)", "y(t-1)*u(t-1)"], [0.5, 1.0, -0.125], n_evaluations=1000)


MEASURED = [0.5, -2.0, 1.0]


def write_run(root, narx, arx=ARX, chosen="NARX", stop_reason=None, simulated=MEASURED):
    """One identify operation's directory, as the tool's first form writes
    it; with ``stop_reason``, also the chosen model's ``model.json``.  Its
    ``simulation.csv`` measures ``MEASURED`` and simulates ``simulated``."""
    op = root / "reduced-err" / "case-c-err-m2"
    op.mkdir(parents=True)
    doc = {"schema": "narxid-report/1", "chosen": chosen, "arx": arx, "narx": narx}
    (op / "report.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if stop_reason is not None:
        stage = doc[chosen.lower()]
        model = {
            "schema": "narxid-model/1", "terms": stage["terms"],
            "coefficients": stage["coefficients"], "bias": stage["bias"],
            "provenance": {"criterion": "press", "stop_reason": stop_reason},
        }
        (op / "model.json").write_text(json.dumps(model, indent=2) + "\n")
    measured = (MEASURED * 2)[: len(simulated)]  # a longer run repeats it
    lines = ["t,measured,simulated,residual"] + [
        f"{t},{m!r},{s!r},{m - s!r}"
        for t, m, s in zip(range(1, len(simulated) + 1), measured, simulated)
    ]
    (op / "simulation.csv").write_text("\r\n".join(lines) + "\r\n")
    (root / "reduced-err" / "inputs").mkdir()
    # .cfg inputs name their own paths and are never compared
    (root / "reduced-err" / "inputs" / "run.cfg").write_text(f"data = {root}/d.csv\n")
    return op


def run_tool(capsys, *argv):
    code = TOOL.main(list(argv))
    return code, capsys.readouterr().out.splitlines()


def test_identical_directories(tmp_path, capsys):
    write_run(tmp_path / "a", NARX)
    write_run(tmp_path / "b", NARX)
    code, lines = run_tool(capsys, "--diff", str(tmp_path / "a"), str(tmp_path / "b"))
    assert code == 0 and lines == ["2 files compared, 0 differ"]


def test_no_table_without_a_changed_report_in_both(tmp_path, capsys):
    # only the simulation moved: the reports and models are the same bytes
    write_run(tmp_path / "a", NARX, simulated=[0.5, -1.9, 1.0])
    write_run(tmp_path / "b", NARX, simulated=[0.5, -1.898, 1.0])
    code, lines = run_tool(capsys, "--diff", str(tmp_path / "a"), str(tmp_path / "b"))
    assert code == 1
    assert lines == ["differs: reduced-err/case-c-err-m2/simulation.csv", "2 files compared, 1 differ"]
    # a report in one tree only is named by the file list alone
    (tmp_path / "c").mkdir()
    code, lines = run_tool(capsys, "--diff", str(tmp_path / "c"), str(tmp_path / "b"))
    assert code == 1
    assert lines == [
        f"only in {tmp_path / 'b'}: reduced-err/case-c-err-m2/report.json",
        f"only in {tmp_path / 'b'}: reduced-err/case-c-err-m2/simulation.csv",
        "2 files compared, 2 differ",
    ]


def test_order_only_change(tmp_path, capsys):
    write_run(tmp_path / "a", NARX)
    reordered = stage(
        ["u(t-1)", "y(t-1)", "y(t-1)*u(t-1)"], [1.0 + 2e-15, 0.5, -0.125], n_evaluations=1000,
    )
    write_run(tmp_path / "b", reordered)
    code, lines = run_tool(capsys, "--diff", str(tmp_path / "a"), str(tmp_path / "b"))
    assert code == 1
    assert lines[:2] == ["differs: reduced-err/case-c-err-m2/report.json", "2 files compared, 1 differ"]
    assert table_rows(lines) == [
        ["reduced-err/case-c-err-m2", "arx", "same terms, same order", "0.0e+00", "-"],
        ["reduced-err/case-c-err-m2", "narx", "same terms, other order", "2.0e-15", "-"],
    ]


def test_changed_term_set_and_counts(tmp_path, capsys):
    write_run(tmp_path / "a", NARX)
    changed = stage(
        ["y(t-1)", "u(t-1)", "u(t-2)^2"], [0.5, 1.5, 0.01],
        n_evaluations=1200, pool_size=8, pool_unstable=1,
    )
    write_run(tmp_path / "b", changed)
    code, lines = run_tool(capsys, "--diff", str(tmp_path / "a"), str(tmp_path / "b"))
    assert code == 1
    (narx,) = [line for line in lines if " narx " in line]
    assert "terms differ: added u(t-2)^2; dropped y(t-1)*u(t-1)" in narx
    assert "5.0e-01" in narx  # u(t-1): 1.0 -> 1.5
    assert narx.endswith("n_evaluations 1000 -> 1200, pool_size 9 -> 8, pool_unstable 0 -> 1")


def test_other_changed_stage_keys_are_named(tmp_path, capsys):
    # same terms and coefficients: only the keys the last cell names moved
    before = dict(NARX, stability={"stable": True, "mean0": 0.5, "var0": float("nan"), "bias_mean_ok": False})
    after = dict(
        NARX, bic=-101.5, msse=2e-3, iterations=3, converged=False,
        stability={"stable": True, "mean0": 0.25, "var0": float("nan"), "var1": 0.0},
    )
    write_run(tmp_path / "a", before)
    write_run(tmp_path / "b", after)
    code, lines = run_tool(capsys, "--diff", str(tmp_path / "a"), str(tmp_path / "b"))
    assert code == 1
    op = "reduced-err/case-c-err-m2"
    assert table_rows(lines) == [
        [op, "arx", "same terms, same order", "0.0e+00", "-"],
        [op, "narx", "same terms, same order", "0.0e+00",
         "bic -100.0 -> -101.5, converged true -> false, iterations 2 -> 3, msse 0.001 -> 0.002, "
         "stability.bias_mean_ok removed, stability.mean0 0.5 -> 0.25, stability.var1 added"],
    ]


def test_stage_present_on_one_side(tmp_path, capsys):
    write_run(tmp_path / "a", NARX)
    write_run(tmp_path / "b", None, chosen="ARX")
    code, lines = run_tool(capsys, "--diff", str(tmp_path / "a"), str(tmp_path / "b"))
    assert code == 1
    assert any(" narx " in line and "stage only in A" in line for line in lines)
    assert any("chosen NARX -> ARX" in line for line in lines)


def table_rows(lines):
    """The table's rows, split into cells: the lines after the file list,
    the count line and the table's header."""
    start = next(i for i, line in enumerate(lines) if line.endswith(" differ")) + 2
    rows = [line.split("  ") for line in lines[start:]]
    return [[cell.strip() for cell in row if cell.strip()] for row in rows]


@pytest.mark.parametrize("chosen", ["ARX", "NARX"])
def test_changed_stop_reason_only(tmp_path, capsys, chosen):
    # the reports are identical; only the chosen model's provenance moves
    write_run(tmp_path / "a", NARX, chosen=chosen, stop_reason="PRESS increase")
    write_run(tmp_path / "b", NARX, chosen=chosen, stop_reason="PRESS floor")
    code, lines = run_tool(capsys, "--diff", str(tmp_path / "a"), str(tmp_path / "b"))
    assert code == 1 and "differs: reduced-err/case-c-err-m2/model.json" in lines
    op = "reduced-err/case-c-err-m2"
    same = ["same terms, same order", "0.0e+00", "-"]
    stop = [op, chosen.lower(), "stop reason PRESS increase -> PRESS floor", "-", "-"]
    expected = [[op, "arx", *same], [op, "narx", *same]]
    expected.insert(1 if chosen == "ARX" else 2, stop)
    assert table_rows(lines) == expected


def test_stop_reason_with_changed_counts(tmp_path, capsys):
    write_run(tmp_path / "a", NARX, stop_reason="exact-fit pruning (dropped u(t-2), y(t-2))")
    fewer = stage(NARX["terms"], [0.5, 1.0, -0.125], n_evaluations=640, pool_size=8)
    write_run(tmp_path / "b", fewer, stop_reason="PRESS floor")
    code, lines = run_tool(capsys, "--diff", str(tmp_path / "a"), str(tmp_path / "b"))
    op = "reduced-err/case-c-err-m2"
    assert table_rows(lines)[1:] == [
        [op, "narx", "same terms, same order", "0.0e+00", "n_evaluations 1000 -> 640, pool_size 9 -> 8"],
        [op, "narx", "stop reason exact-fit pruning (dropped u(t-2), y(t-2)) -> PRESS floor", "-", "-"],
    ]


def test_unchanged_stop_reason_adds_no_row(tmp_path, capsys):
    write_run(tmp_path / "a", NARX, stop_reason="PRESS floor")
    write_run(tmp_path / "b", stage(NARX["terms"], [0.5, 1.0, -0.125]), stop_reason="PRESS floor")
    code, lines = run_tool(capsys, "--diff", str(tmp_path / "a"), str(tmp_path / "b"))
    assert not any("stop reason" in line for line in lines)
    assert table_rows(lines)[1][-1] == "n_evaluations 1000 -> 324"


def test_simulation_change_relative_to_the_output_scale(tmp_path, capsys):
    write_run(tmp_path / "a", NARX, simulated=[0.5, -1.9, 1.0])
    moved = stage(NARX["terms"], [0.5, 1.0, -0.124])
    write_run(tmp_path / "b", moved, simulated=[0.5, -1.898, 1.0])
    code, lines = run_tool(capsys, "--diff", str(tmp_path / "a"), str(tmp_path / "b"))
    assert code == 1
    op = "reduced-err/case-c-err-m2"
    # |-1.898 - (-1.9)| over the largest measured magnitude, 2.0
    assert table_rows(lines)[-1] == [op, "-", "simulated output, max change / output scale", "1.0e-03", "-"]


def test_simulation_with_other_row_count(tmp_path, capsys):
    write_run(tmp_path / "a", NARX)
    write_run(tmp_path / "b", stage(NARX["terms"], [0.5, 1.0, -0.124]), simulated=MEASURED + [0.5])
    code, lines = run_tool(capsys, "--diff", str(tmp_path / "a"), str(tmp_path / "b"))
    assert table_rows(lines)[-1][2:4] == ["simulated output, max change / output scale", "rows 3 -> 4"]


@pytest.mark.parametrize("a, b, expected", [
    (1.0, 1.0, 0.0), (2.0, 3.0, 0.5), (0.0, 0.0, 0.0), (0.0, 1e-300, float("inf")),
])
def test_relative_change(a, b, expected):
    assert TOOL._relative_change(a, b) == expected
