import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hawking_lab
from hawking_lab.cli import RunConfig, main
from hawking_lab.errors import ConfigError
from hawking_lab.expansion import grid_floor
from hawking_lab.surface import build_grid


def run(capsys, tmp_path, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main([command, "--config", str(path)])
    return code, json.loads(capsys.readouterr().out)


def test_curvature_on_polynomial_config(capsys, tmp_path):
    config = {
        "metric": {
            "kind": "polynomial_perturbation",
            "terms": [[0, 0, 0.05, [2, 0, 0]], [1, 2, 0.02, [1, 0, 0]]],
        },
        "point": [0.1, -0.2, 0.15],
    }
    code, report = run(capsys, tmp_path, "curvature", config)
    assert code == 0
    assert np.isfinite(report["packet"]["scalar_laplacian"])


def test_expansion_reports_grid_floor(capsys, tmp_path):
    config = {"grid": {"n_theta": 24, "n_phi": 48}, "ladder": {"rho0": 0.2, "n": 5}}
    code, report = run(capsys, tmp_path, "expansion", config)
    assert code in (0, 1)  # exit 1 is a failed physics check, not an error
    floor_w, floor_a = grid_floor(build_grid(24, 48), 8)
    assert report["grid_floor"] == {"willmore": floor_w, "area": floor_a}
    assert floor_w != 0.0 and floor_a != 0.0
    # the rung masses are floor-corrected: flat space leaves rounding only
    assert np.max(np.abs(report["fit"]["masses"])) < 1e-14


def test_reports_carry_fan_diagnostics(capsys, tmp_path):
    config = {"grid": {"n_theta": 24, "n_phi": 48}, "ladder": {"rho0": 0.2, "n": 5}}
    for command in ("expansion", "el-residual"):
        code, report = run(capsys, tmp_path, command, config)
        assert code in (0, 1), command
        assert set(report["fan"]) == {"rhs_evals", "speed_drift"}
        assert report["fan"]["rhs_evals"] > 0
        assert report["fan"]["speed_drift"] <= 1e-12
        # reports repeat exactly from run to run
        assert run(capsys, tmp_path, command, config)[1] == report


OPTIMIZE_FLAT = {
    "grid": {"n_theta": 24, "n_phi": 48},
    "optimizer": {"max_degree": 2, "max_iters": 2},
}


def test_optimize_flat_report(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(OPTIMIZE_FLAT))
    code = main(["optimize", "--config", str(path)])
    text = capsys.readouterr().out
    assert code in (0, 1)  # exit 1 is a failed physics check, not an error
    checks = {c["name"]: c for c in json.loads(text)["checks"]}
    assert checks["area_constraint"]["passed"]
    # the report repeats byte for byte
    assert main(["optimize", "--config", str(path)]) == code
    assert capsys.readouterr().out == text


def test_optimize_rejects_removed_gradient_step(capsys, tmp_path):
    config = {"optimizer": {**OPTIMIZE_FLAT["optimizer"], "gradient_step": 1e-6}}
    with pytest.raises(ConfigError, match="gradient_step"):
        RunConfig(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["optimize", "--config", str(path)]) == 2
    assert "gradient_step" in capsys.readouterr().err


def test_import_leaves_scipy_solvers_unloaded():
    # scipy.integrate alone takes most of a second to import; commands that
    # shoot no geodesic and build no harmonic basis should not pay for it
    src = str(Path(hawking_lab.__file__).resolve().parent.parent)
    code = (
        "import sys, hawking_lab.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.special') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
