import copy
import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "same", Path(__file__).resolve().parent.parent / "tools" / "same.py"
)
same = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same)


def _result(name, report):
    return {"name": name, "code": 0, "stdout": json.dumps(report) + "\n", "stderr": "",
            "files": {"expansion.json": json.dumps(report) + "\n", "ladder.csv": "rho,m\n0.1,2\n"}}


def test_compare_names_the_differing_key_and_the_difference():
    report = {"command": "expansion", "fit": {"c3": 0.25, "c5": [1.0, 2.0]}, "passed": True}
    old = [_result("a", report), _result("b", report)]
    new = copy.deepcopy(old)
    changed = copy.deepcopy(report)
    changed["fit"]["c5"][1] = 2.0 + 3e-9
    new[1] = _result("b", changed)
    lines = same.compare(old, new)
    assert len(lines) == 1
    assert lines[0].startswith("b: first difference at 'stdout: fit.c5.1'")
    assert "largest numeric difference 3e-09" in lines[0]


def test_compare_holds_texts_to_their_bytes():
    report = {"fit": {"c3": 0.25}}
    old = [_result("a", report)]
    new = copy.deepcopy(old)
    new[0]["stdout"] = json.dumps(report, indent=1) + "\n"
    new[0]["files"]["ladder.csv"] = "rho,m\n0.1,2.5\n"
    assert same.compare(old, old) == []
    lines = same.compare(old, new)
    assert lines == ["a: first difference at '--out ladder.csv: 1.1';"
                     " largest numeric difference 0.5 at '--out ladder.csv: 1.1'"]
    new[0]["files"] = old[0]["files"]
    assert same.compare(old, new) == ["a: the same values, written differently"]


def test_the_run_list_is_fixed():
    runs = same.runs()
    assert len(runs) == 374
    assert len({name for name, _, _ in runs}) == 374


def test_numeric_folds_list_indices_per_command():
    report = {"fit": {"masses": [1.0, 2.0, 3.0], "c3": 0.25}, "passed": True}
    old = [_result("ladder/x/expansion", report), _result("ladder/x/el-residual", report)]
    new = copy.deepcopy(old)
    changed = copy.deepcopy(report)
    changed["fit"]["masses"] = [1.25, 2.0, 2.5]
    new[0] = _result("ladder/x/expansion", changed)
    new[0]["files"]["ladder.csv"] = "rho,m\n0.1,2.25\n"
    lines, agree = same.numeric(old, new)
    assert agree
    assert lines == [
        "expansion:",
        "  --out expansion.json: fit.masses.*: 0.5",
        "  --out ladder.csv: *.1: 0.25",
        "  stdout: fit.masses.*: 0.5",
    ]
    assert same.numeric(old, old) == ([], True)


def test_numeric_disagrees_on_text_keys_and_exit_codes():
    report = {"fit": {"c3": 0.25}, "passed": True}
    old = [_result("a/expansion", report)]
    new = copy.deepcopy(old)
    changed = {"fit": {"c3": 0.25, "grids": [[12, 24]]}, "passed": False}
    new[0] = {**_result("a/expansion", changed), "code": 1, "stderr": "FAILED check: c3\n"}
    old.append(_result("b/expansion", report))
    new.append({**_result("b/expansion", changed), "stderr": ""})
    lines, agree = same.numeric(old, new)
    assert not agree
    assert "a/expansion: exit code 0 -> 1" in lines
    assert "expansion: text differs at 'stdout: passed' in 2 runs, first a/expansion" in lines
    assert ("expansion: only the new tree writes 'stdout: fit.grids.*.*' in 2 runs,"
            " first a/expansion") in lines
    assert "expansion: only the new tree writes 'stderr: *' in 1 runs, first a/expansion" in lines
    assert not any("<end>" in line for line in lines if line.startswith("  "))
