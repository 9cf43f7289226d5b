import importlib

import pytest

MODULES = ["errors", "manifold", "surface", "geodesics", "harmonics", "expansion", "optimizer", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted breaks
    # ``from hawking_lab.<module> import *`` and nothing else
    module = importlib.import_module(f"hawking_lab.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, missing
