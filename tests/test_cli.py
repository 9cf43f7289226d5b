import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import hawking_lab
from hawking_lab.cli import RunConfig, main
from hawking_lab.errors import ConfigError
from hawking_lab.geodesics import GeodesicConfig
from hawking_lab.optimizer import OptimizeConfig


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


def test_flat_expansion_masses_are_rounding(capsys, tmp_path):
    config = {"grid": {"n_theta": 24, "n_phi": 48}, "ladder": {"rho0": 0.2, "n": 5}}
    code, report = run(capsys, tmp_path, "expansion", config)
    assert code in (0, 1)  # exit 1 is a failed physics check, not an error
    assert "grid_floor" not in report
    # flat space leaves rounding only in the rung masses
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


@pytest.mark.parametrize("kind", ["round_sphere", "hyperbolic", "euclidean"])
def test_el_residual_on_space_forms(capsys, tmp_path, kind):
    # geodesic spheres of space forms are umbilic with constant H, so the
    # Euler-Lagrange residual is rounding once tested weakly
    config = {"metric": {"kind": kind}, "point": [0.1, 0.0, 0.0]}
    code, report = run(capsys, tmp_path, "el-residual", config)
    assert code == 0
    assert report["residual"]["test_degree"] == 16
    assert report["residual"]["sup_norm_relative"] <= 1e-9


OPTIMIZE_FLAT = {
    "grid": {"n_theta": 24, "n_phi": 48},
    "optimizer": {"max_degree": 2, "max_iters": 2},
}


def test_optimize_flat_report(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(OPTIMIZE_FLAT))
    code = main(["optimize", "--config", str(path)])
    text = capsys.readouterr().out
    report = json.loads(text)
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["area_constraint"]["passed"]
    # the round sphere is critical, and the gradient test sees it
    assert report["result"]["stop_reason"] == "gradient_tol"
    assert report["result"]["final_gradient_norm"] <= 1e-9
    assert checks["converged"]["passed"]
    assert code == 0
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


def test_defaults_come_from_the_config_dataclasses():
    data = RunConfig({}).data
    assert data["geodesic"] == asdict(GeodesicConfig())
    assert data["optimizer"] == {
        **asdict(OptimizeConfig()), "reference_rho": 0.05, "target_area": None,
    }


@pytest.mark.parametrize(
    "config, key",
    [
        ({"optimizer": {"max_iters": 0}}, "max_iters"),
        ({"optimizer": {"shrink": 1.0}}, "shrink"),
        ({"optimizer": {"grow": 0.5}}, "grow"),
        ({"optimizer": {"min_step": 0}}, "min_step"),
        ({"geodesic": {"rel_tol": -1}}, "rel_tol"),
        # a wrongly typed value or a malformed term names no key
        ({"geodesic": {"max_steps": "many"}}, "invalid config value"),
        ({"metric": {"kind": "conformal", "phi_poly": [[0.1]]}}, "invalid config value"),
        ({"metric": {"kind": "conformal"}}, "phi_poly"),
        ({"metric": {"kind": "polynomial_perturbation"}}, "terms"),
        # a top-level key outside the defaults is an unknown section
        ({"fd_order": 8}, "unknown config sections: ['fd_order']"),
    ],
)
def test_bad_config_values_exit_2(capsys, tmp_path, config, key):
    # rejected at load, whatever the command: run one that needs no optimizer,
    # so a regression fails here and does not loop in the line search
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["curvature", "--config", str(path)]) == 2
    assert key in capsys.readouterr().err


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
