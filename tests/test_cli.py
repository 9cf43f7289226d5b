import json

import numpy as np

from hawking_lab.cli import main
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
