import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import hawking_lab
from hawking_lab import manifold
from hawking_lab.cli import RunConfig, main
from hawking_lab.errors import ConfigError
from hawking_lab.geodesics import GeodesicConfig, GeodesicFan
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
    for command in ("expansion", "el-residual", "optimize"):
        code, report = run(capsys, tmp_path, command, config)
        assert code in (0, 1), command
        assert set(report["fan"]) == {
            "rhs_evals", "speed_drift", "shooting_grid", "spectral_tail",
        }
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


@pytest.mark.parametrize("K", [1, -1])
def test_unperturbed_ladder_with_curvature_normalization(capsys, tmp_path, K):
    # the prediction is the unperturbed family's, shifted by K: the optimal
    # family's would miss the fit by its |S|^2/90 term, about 3e-4 here
    config = {
        "metric": {
            "kind": "conformal",
            "phi_poly": [[0.1, [2, 0, 0]], [0.05, [0, 1, 1]], [0.03, [1, 0, 0]],
                         [-0.02, [0, 0, 3]]],
        },
        "point": [0.05, 0.02, 0.0],
        "grid": {"n_theta": 32, "n_phi": 64},
        "ladder": {"rho0": 0.4, "n": 6},
        "mode": "unperturbed",
        "K": K,
    }
    code, report = run(capsys, tmp_path, "expansion", config)
    assert report["predicted"]["mode"] == "unperturbed"
    assert abs(report["comparison"]["c5_delta"]) <= 1e-4
    assert code == 0


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


def test_optimize_with_reference_shoots_one_fan(capsys, tmp_path, monkeypatch):
    # the closed-form reference and the search read one fan and one packet
    calls = {"fan": 0, "packet": 0}
    fan_init, packet = GeodesicFan.__init__, manifold.curvature_packet

    def counted_init(self, *args, **kwargs):
        calls["fan"] += 1
        fan_init(self, *args, **kwargs)

    def counted_packet(*args, **kwargs):
        calls["packet"] += 1
        return packet(*args, **kwargs)

    monkeypatch.setattr(GeodesicFan, "__init__", counted_init)
    for name, module in list(sys.modules.items()):
        bound = getattr(module, "curvature_packet", None)
        if name.startswith("hawking_lab") and bound is packet:
            monkeypatch.setattr(module, "curvature_packet", counted_packet)
    code, report = run(capsys, tmp_path, "optimize", OPTIMIZE_FLAT)
    assert code == 0
    assert "reference_mass" in report
    assert calls == {"fan": 1, "packet": 1}


def test_optimize_at_given_target_area(capsys, tmp_path):
    optimizer = {**OPTIMIZE_FLAT["optimizer"], "target_area": 0.03}
    config = {**OPTIMIZE_FLAT, "optimizer": optimizer}
    code, report = run(capsys, tmp_path, "optimize", config)
    assert code == 0
    assert "reference_mass" not in report
    assert report["result"]["area"] == pytest.approx(0.03, rel=1e-10)


# optimizer keys that were once settable, with their last default values
REMOVED_OPTIMIZER_KEYS = {
    "gradient_step": 1e-6,
    "initial_step": 1e-4,
    "shrink": 0.5,
    "grow": 1.6,
    "min_step": 1e-13,
    "seed": 0,
    "init_jitter": 1e-7,
}


@pytest.mark.parametrize("key", REMOVED_OPTIMIZER_KEYS)
def test_optimize_rejects_removed_gradient_step(capsys, tmp_path, key):
    config = {"optimizer": {**OPTIMIZE_FLAT["optimizer"], key: REMOVED_OPTIMIZER_KEYS[key]}}
    message = f"unknown keys in 'optimizer': ['{key}']"
    with pytest.raises(ConfigError, match=re.escape(message)):
        RunConfig(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["optimize", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_optimize_schwarzschild_stops_on_gradient_tol(capsys, tmp_path):
    # Newton steps preconditioned by the round sphere's Hessian stop far
    # under the tolerance: measured 2 iterations and 5.0e-11
    config = {
        "metric": {"kind": "schwarzschild", "mass": 1.0},
        "point": [4.0, 0.0, 0.0],
        "grid": {"n_theta": 32, "n_phi": 64},
        "optimizer": {"max_degree": 4, "max_iters": 40, "reference_rho": 0.05},
    }
    code, report = run(capsys, tmp_path, "optimize", config)
    assert code == 0
    assert report["result"]["stop_reason"] == "gradient_tol"
    assert report["result"]["iterations"] <= 3
    assert report["result"]["final_gradient_norm"] <= 1e-10


def test_optimize_out_of_iterations_reports_returned_surface_gradient(
    capsys, tmp_path
):
    # with one iteration the run ends after its one step; the reported
    # gradient is the returned surface's (measured 5.0e-11), not the round
    # sphere's it stepped from (4.9e-7)
    config = {
        "metric": {"kind": "schwarzschild", "mass": 1.0},
        "point": [4.0, 0.0, 0.0],
        "grid": {"n_theta": 32, "n_phi": 64},
        "optimizer": {"max_degree": 4, "max_iters": 1, "reference_rho": 0.05},
    }
    code, report = run(capsys, tmp_path, "optimize", config)
    assert code == 0
    assert report["result"]["iterations"] == 1
    assert report["result"]["stop_reason"] == "gradient_tol"
    assert report["result"]["final_gradient_norm"] <= 1e-10


def test_optimize_rejects_max_degree_above_band_limit(capsys, tmp_path):
    # 16x32 resolves degrees up to min(16 - 2, 32 // 2 - 1) = 14; above it
    # the search would converge on aliased modes
    config = {
        "metric": {"kind": "schwarzschild", "mass": 1.0},
        "point": [4.0, 0.0, 0.0],
        "grid": {"n_theta": 16, "n_phi": 32},
        "optimizer": {"max_degree": 20, "max_iters": 1},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["optimize", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "BandLimitExceeded: optimizer.max_degree 20 exceeds the grid band limit 14" in err


def test_curvature_reports_the_tolerance_it_applies(capsys, tmp_path):
    # Sc = 6 / 0.5^2 = 24 on the round sphere of radius 0.5, so the trace
    # check's bound is 1e-9 |Sc|, not 1e-9
    config = {"metric": {"kind": "round_sphere", "radius": 0.5}, "point": [0.1, 0.0, 0.0]}
    code, report = run(capsys, tmp_path, "curvature", config)
    assert code == 0
    scalar = report["packet"]["scalar"]
    assert scalar == pytest.approx(24.0, rel=1e-12)
    (check,) = report["checks"]
    assert check["name"] == "ricci_trace_matches_scalar"
    assert check["tolerance"] == 1e-9 * scalar
    assert check["value"] <= check["tolerance"]


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
        ({"optimizer": {"max_degree": 1}}, "max_degree"),
        ({"optimizer": {"gradient_tol": 0}}, "gradient_tol"),
        ({"optimizer": {"area_rtol": -1}}, "area_rtol"),
        ({"geodesic": {"rel_tol": -1}}, "rel_tol"),
        # a wrongly typed value or a malformed term names no key
        ({"geodesic": {"max_steps": "many"}}, "invalid config value"),
        ({"metric": {"kind": "conformal", "phi_poly": [[0.1]]}}, "invalid config value"),
        ({"metric": {"kind": "conformal"}}, "phi_poly"),
        ({"metric": {"kind": "polynomial_perturbation"}}, "terms"),
        # a top-level key outside the defaults is an unknown section
        ({"fd_order": 8}, "unknown config sections: ['fd_order']"),
        # values no command can run with are named at load
        ({"optimizer": {"target_area": -1}}, "optimizer.target_area"),
        ({"optimizer": {"reference_rho": 0}}, "optimizer.reference_rho"),
        ({"ladder": {"rho0": 0}}, "ladder.rho0"),
        ({"ladder": {"n": 3}}, "ladder.n"),
        ({"grid": {"n_theta": "a"}}, "grid.n_theta"),
        ({"grid": {"n_phi": 64.5}}, "grid.n_phi"),
        ({"point": [1, 2]}, "point"),
        ({"point": [0, 0, "x"]}, "point"),
        ({"tolerances": {"c3_rel": "x"}}, "tolerances.c3_rel"),
        ({"bartnik": {"rho": "x"}}, "bartnik.rho"),
        ({"bartnik": {"validity_radius": None}}, "bartnik.validity_radius"),
        # a boolean is not an integer, though True == 1
        ({"K": True}, "K must be -1, 0 or 1, got True"),
        ({"K": 2}, "K must be -1, 0 or 1, got 2"),
        ({"mode": "optimum"}, "mode must be one of ('optimal', 'unperturbed')"),
        # a monomial off the three axes or of negative degree is no metric
        ({"metric": {"kind": "polynomial_perturbation", "terms": [[3, 0, 0.1, [1, 0, 0]]]}},
         "terms: entry (3, 0)"),
        ({"metric": {"kind": "polynomial_perturbation", "terms": [[-1, 0, 0.1, [1, 0, 0]]]}},
         "terms: entry (-1, 0)"),
        ({"metric": {"kind": "polynomial_perturbation", "terms": [[0, 0, 0.1, [1, 0]]]}},
         "terms: exponents [1, 0]"),
        ({"metric": {"kind": "conformal", "phi_poly": [[0.1, [-1, 0, 0]]]}},
         "phi_poly: exponents [-1, 0, 0]"),
        # a fractional index or exponent is not rounded to a metric
        ({"metric": {"kind": "polynomial_perturbation", "terms": [[0.5, 0, 0.1, [1, 0, 0]]]}},
         "terms: entry (0.5, 0)"),
        ({"metric": {"kind": "conformal", "phi_poly": [[0.1, [2.5, 0, 0]]]}},
         "phi_poly: exponents [2.5, 0, 0]"),
    ],
)
def test_bad_config_values_exit_2(capsys, tmp_path, config, key):
    # rejected at load, whatever the command: run one that needs no optimizer,
    # so a regression fails here and does not start a search
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


_RUN_EVERY_COMMAND = """
import contextlib, io, json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None

if sys.argv[1] == "block":
    sys.meta_path.insert(0, NoScipy())
from hawking_lab.cli import _COMMANDS, main
codes = []
for config in sys.argv[2:]:
    for command in sorted(_COMMANDS):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main([command, "--config", config]))
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test-side oracle only: with its import blocked, every
    # command exits as it does with scipy importable, and none loads it
    configs = []
    for name, metric, point in [
        ("schwarzschild", {"kind": "schwarzschild", "mass": 1.0}, [4.0, 0.0, 0.0]),
        ("conformal", {"kind": "conformal", "phi_poly": [
            [0.1, [2, 0, 0]], [0.05, [0, 1, 1]], [0.03, [1, 0, 0]], [-0.02, [0, 0, 3]],
        ]}, [0.05, 0.02, 0.0]),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "metric": metric,
            "point": point,
            "grid": {"n_theta": 16, "n_phi": 32},
            "ladder": {"rho0": 0.2, "n": 5},
            "optimizer": {"max_iters": 2},
        }))
        configs.append(str(path))
    src = str(Path(hawking_lab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    reports = [
        json.loads(subprocess.run(
            [sys.executable, "-c", _RUN_EVERY_COMMAND, mode, *configs],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        ).stdout)
        for mode in ("block", "allow")
    ]
    blocked, allowed = reports
    assert len(blocked["codes"]) == 12
    assert blocked["codes"] == allowed["codes"]
    assert blocked["scipy"] == []


def test_config_builds_its_metric_once(monkeypatch):
    # through the module's metric_from_config, where a wrapper installed on
    # the module sees it
    from hawking_lab import cli

    built = []
    build = cli.metric_from_config
    monkeypatch.setattr(
        cli, "metric_from_config", lambda spec: built.append(spec) or build(spec)
    )
    cfg = RunConfig({"metric": {"kind": "conformal", "phi_poly": [[0.05, [2, 0, 0]]]}})
    assert cfg.metric is cfg.metric
    assert cfg.metric.kind == "conformal"
    assert len(built) == 1
