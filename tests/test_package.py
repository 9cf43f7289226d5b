import ast
import importlib
from pathlib import Path

import pytest

MODULES = ["errors", "manifold", "surface", "geodesics", "harmonics", "expansion", "optimizer", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted breaks
    # ``from hawking_lab.<module> import *`` and nothing else
    module = importlib.import_module(f"hawking_lab.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, missing


REPO = Path(__file__).resolve().parents[1]
# exported names whose only callers are tests, kept because they check the lab
TEST_REFERENCES = {
    "exp_map": "the geodesic fan's independent reference",
    "pde_residual": "checks the paper's PDE for the optimal graph w-bar",
    "lagrange_multiplier_from_surface": "checks lambda = 2 Sc / 3 on the round sphere",
    "scalar_curvature_at": "the pointwise reference for Sc along a surface",
}


def _referenced_names(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _span_table_names():
    tree = ast.parse((REPO / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPAN_TABLE" for t in node.targets
        ):
            return {part for row in ast.literal_eval(node.value) for part in row[1].split(".")}
    raise AssertionError("bench/tracing.py defines no SPAN_TABLE")


def test_every_exported_name_has_a_caller_outside_tests():
    # a tripwire against library code that only tests call: it matches
    # names, not bindings, so a same-named attribute anywhere counts
    package = REPO / "src" / "hawking_lab"
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    referenced = (
        _referenced_names(sources)
        | _referenced_names(sorted((REPO / "bench").rglob("*.py")))
        | _span_table_names()
    )
    orphans = [
        f"{name}.{export}"
        for name in MODULES
        for export in importlib.import_module(f"hawking_lab.{name}").__all__
        if export not in referenced and export not in TEST_REFERENCES
    ]
    assert not orphans, orphans
