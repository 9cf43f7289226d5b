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
