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


def _module_aliases(tree, modules):
    """Local names the imports of ``tree`` bind to a package module."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # import hawking_lab.cli as cli
            aliases |= {a.asname for a in node.names if a.name.startswith("hawking_lab.")}
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "hawking_lab"):
            aliases |= {a.asname or a.name for a in node.names if a.name in modules}
    return aliases


def _referenced_names(paths, modules):
    """Imported names, bare names and attributes of a package module
    (``manifold.metric_action``).  A class body's field annotation and an
    attribute of anything else (``packet.scalar_laplacian``) are no callers."""
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        aliases = _module_aliases(tree, modules)
        fields = {
            id(stmt.target)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Name) and id(node) not in fields:
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and (
                    root.id == "hawking_lab" or node.value is root and root.id in aliases
                ):
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
    # names, not bindings, so a same-named variable anywhere counts
    package = REPO / "src" / "hawking_lab"
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    modules = {p.stem for p in sources}
    referenced = (
        _referenced_names(sources, modules)
        | _referenced_names(sorted((REPO / "bench").rglob("*.py")), modules)
        | _span_table_names()
    )
    orphans = [
        f"{name}.{export}"
        for name in MODULES
        for export in importlib.import_module(f"hawking_lab.{name}").__all__
        if export not in referenced and export not in TEST_REFERENCES
    ]
    assert not orphans, orphans
