import argparse
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
from hawking_lab import cli, manifold
from hawking_lab.cli import RunConfig, dump_stable, main
from hawking_lab.errors import ConfigError
from hawking_lab.geodesics import GeodesicConfig, GeodesicFan
from hawking_lab.optimizer import OptimizeConfig
from hawking_lab.surface import SphereGrid


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
    assert code == 0
    assert "grid_floor" not in report
    # flat space leaves rounding only in the rung masses
    assert np.max(np.abs(report["fit"]["masses"])) < 1e-14


# flat space in linear coordinates: every mass is 0, but the geodesic
# spheres are ellipsoids in the chart
LINEAR_FLAT = {
    "kind": "polynomial_perturbation",
    "terms": [[0, 0, 0.3, [0, 0, 0]], [0, 1, 0.2, [0, 0, 0]], [2, 2, -0.25, [0, 0, 0]],
              [1, 2, 0.1, [0, 0, 0]]],
}


@pytest.mark.parametrize(
    "config",
    [
        {"metric": {"kind": "schwarzschild", "mass": 1.0}, "point": [4.0, 0.0, 0.0],
         "ladder": {"rho0": 0.8, "n": 6}},
        {},
        {"metric": LINEAR_FLAT, "point": [0.1, -0.2, 0.15], "ladder": {"rho0": 0.4, "n": 6}},
    ],
    ids=["schwarzschild", "flat", "linear_flat"],
)
def test_expansion_passes_where_a_prediction_is_zero(capsys, tmp_path, config):
    # c3 = 0 on all three and c5 = 0 on the flat two: the read's own error
    # estimate sets the tolerance there
    code, report = run(capsys, tmp_path, "expansion", config)
    checks = {c["name"]: c for c in report["checks"]}
    for name in ("c3_match", "c5_match"):
        assert checks[name]["passed"], name
        assert abs(checks[name]["value"]) <= checks[name]["tolerance"], name
    assert code == 0


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
    # under the tolerance: measured 2 iterations and 2.9e-13
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
    # gradient is the returned surface's (measured 2.9e-13), not the
    # reference sphere's it stepped from (1.4e-8)
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


SCHWARZSCHILD_SEARCH = {
    "metric": {"kind": "schwarzschild", "mass": 1.0},
    "point": [4.0, 0.0, 0.0],
    "grid": {"n_theta": 32, "n_phi": 64},
    "optimizer": {"max_degree": 4, "max_iters": 1, "reference_rho": 0.2},
}


def test_optimize_starts_at_the_reference_sphere(capsys, tmp_path):
    # the closed-form reference sphere is the search's first iterate
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SCHWARZSCHILD_SEARCH))
    main(["optimize", "--config", str(path), "--out", str(tmp_path)])
    report = json.loads(capsys.readouterr().out)
    with open(tmp_path / "optimize_trace.csv") as fh:
        first = dict(zip(fh.readline().strip().split(","), fh.readline().strip().split(",")))
    assert first["mass"] == f"{report['reference_mass']:.17g}"
    assert first["rho"] == f"{report['config']['optimizer']['reference_rho']:.17g}"


def _count_calls(monkeypatch, owners, name):
    """Count the calls of ``name`` through every owner that binds it."""
    calls = []
    original = getattr(owners[0], name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize(
    "metric, point, counts",
    [
        # one step: its area solve and its surface, after the reference's
        ({"kind": "schwarzschild", "mass": 1.0}, [4.0, 0.0, 0.0], (1, 2, 1)),
        # the gradient vanishes at the reference sphere: no step, no solve
        ({"kind": "round_sphere", "radius": 1.0}, [0.1, 0.05, -0.03], (0, 1, 1)),
    ],
    ids=["schwarzschild", "round_sphere"],
)
def test_optimize_builds_each_surface_once(capsys, tmp_path, monkeypatch, metric, point,
                                           counts):
    from hawking_lab import geodesics, harmonics, optimizer

    solves = _count_calls(monkeypatch, [optimizer._SurfaceEvaluator], "solve_radius")
    surfaces = _count_calls(monkeypatch, [geodesics], "extrinsic_geometry")
    perturbations = _count_calls(monkeypatch, [harmonics, cli], "optimal_perturbation")
    config = {**SCHWARZSCHILD_SEARCH, "metric": metric, "point": point}
    code, report = run(capsys, tmp_path, "optimize", config)
    assert code in (0, 1)  # exit 1: one iteration did not converge
    assert report["result"]["iterations"] == 1
    assert (len(solves), len(surfaces), len(perturbations)) == counts


def test_commands_build_each_basis_table_once(capsys, tmp_path, monkeypatch):
    # the harmonic basis factors are a table of their grid: every shape,
    # projection and Galerkin test on one grid and degree shares one build
    from hawking_lab import harmonics

    builds = []
    legendre_table = harmonics._legendre_table

    def counted(theta, max_degree):
        builds.append((len(theta), max_degree))
        return legendre_table(theta, max_degree)

    monkeypatch.setattr(harmonics, "_legendre_table", counted)
    config = {**SCHWARZSCHILD_SEARCH, "ladder": {"rho0": 0.2, "n": 6}}
    for command in ("optimize", "expansion", "el-residual"):
        builds.clear()
        code, _ = run(capsys, tmp_path, command, config)
        assert code in (0, 1), command
        assert builds, command
        assert len(builds) == len(set(builds)), (command, builds)


def test_expansion_reads_no_rung_on_the_surface_grid(capsys, tmp_path, monkeypatch):
    # a rung's mass is evaluated on the fan's shooting grid; only a read that
    # grid does not hold goes to the 48x96 surface grid (4608 nodes)
    from hawking_lab import geodesics

    nodes = []
    geometry = geodesics.extrinsic_geometry

    def counted(metric, grid, *args, **kwargs):
        nodes.append(grid.n_nodes)
        return geometry(metric, grid, *args, **kwargs)

    monkeypatch.setattr(geodesics, "extrinsic_geometry", counted)
    config = {**SCHWARZSCHILD_SEARCH, "grid": {"n_theta": 48, "n_phi": 96},
              "ladder": {"rho0": 0.2, "n": 6}}
    code, report = run(capsys, tmp_path, "expansion", config)
    assert code == 0
    shot = report["fan"]["shooting_grid"]
    assert shot[0] * shot[1] < 4608
    assert nodes == [shot[0] * shot[1]] * 6
    assert report["fit"]["evaluation_grids"] == [shot] * 6


def test_commands_upsample_reads_not_fans(capsys, tmp_path, monkeypatch):
    # a read upsamples its six fields and speed_drift its last sample; the
    # whole fan (17 samples of six fields) stays on its shooting grid
    columns, fans = [], []
    upsample, fan_init = SphereGrid.upsample, GeodesicFan.__init__

    def counted_upsample(grid, values, fine):
        columns.append(int(np.prod(np.shape(values)[1:])))
        return upsample(grid, values, fine)

    def kept_init(fan, *args, **kwargs):
        fans.append(fan)
        fan_init(fan, *args, **kwargs)

    monkeypatch.setattr(SphereGrid, "upsample", counted_upsample)
    monkeypatch.setattr(GeodesicFan, "__init__", kept_init)
    config = {**SCHWARZSCHILD_SEARCH, "ladder": {"rho0": 0.2, "n": 6}}
    for command in ("optimize", "expansion"):
        code, _ = run(capsys, tmp_path, command, config)
        assert code in (0, 1), command
    assert len(fans) == 2
    assert columns and max(columns) <= 6
    assert not any("_samples" in vars(fan) for fan in fans)


def test_el_residual_reads_at_the_reach(capsys, tmp_path):
    # el-residual reads at exactly the fan's reach, and here a node of the
    # 16x32 shooting grid lands 2.7e-7 (relative) past it: the read falls
    # back to the surface grid instead of raising DomainError
    config = {
        "metric": {"kind": "conformal", "phi_poly": [
            [0.12503965943632755, [0, 1, 1]],
            [-0.10744664978829657, [0, 0, 2]],
            [0.11172721367052832, [1, 1, 0]],
        ]},
        "point": [-0.13211996651701632, -0.09323569660882317, 0.18611808859591308],
        "grid": {"n_theta": 48, "n_phi": 96},
        "ladder": {"rho0": 0.19816804715627476, "n": 6},
    }
    code, report = run(capsys, tmp_path, "el-residual", config)
    assert code == 0
    numbers = [*report["residual"].values(), *report["surface"].values()]
    assert np.all(np.isfinite(numbers))


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
        # the search's and the integrator's counts are integers
        ({"optimizer": {"max_degree": 2.5}}, "optimizer.max_degree must be an integer"),
        ({"optimizer": {"max_iters": 1.5}}, "optimizer.max_iters must be an integer"),
        ({"geodesic": {"max_steps": 1000.5}}, "geodesic.max_steps must be an integer"),
        # json reads NaN and Infinity, which would make a run spin or yield NaN
        ({"geodesic": {"rel_tol": float("nan")}}, "NaN is not a finite number"),
        ({"optimizer": {"gradient_tol": float("nan")}}, "NaN is not a finite number"),
        ({"optimizer": {"area_rtol": float("inf")}}, "Infinity is not a finite number"),
        ({"metric": {"kind": "round_sphere", "radius": float("inf")}},
         "Infinity is not a finite number"),
        ({"point": [0, 0, float("-inf")]}, "-Infinity is not a finite number"),
        # a boolean or a string is no number, though True == 1 and "2" reads as 2
        ({"geodesic": {"rel_tol": True}}, "geodesic.rel_tol"),
        ({"geodesic": {"abs_tol": "1e-12"}}, "geodesic.abs_tol"),
        ({"optimizer": {"gradient_tol": True}}, "optimizer.gradient_tol"),
        ({"optimizer": {"area_rtol": True}}, "optimizer.area_rtol"),
        ({"metric": {"kind": "schwarzschild", "mass": True}}, "mass must be a number"),
        ({"metric": {"kind": "schwarzschild", "horizon_margin": True}},
         "horizon_margin must be a number"),
        ({"metric": {"kind": "round_sphere", "radius": "2"}}, "radius must be a number"),
        ({"metric": {"kind": "conformal", "phi_poly": [["0.1", [2, 0, 0]]]}},
         "phi_poly coefficient must be a number"),
        ({"metric": {"kind": "conformal", "phi_poly": [[0.1, [True, 0, 0]]]}},
         "phi_poly: exponents [True, 0, 0]"),
        ({"metric": {"kind": "polynomial_perturbation",
                     "terms": [[0, 0, 0.05, [True, 0, 0]]]}}, "terms: exponents [True, 0, 0]"),
        ({"metric": {"kind": "polynomial_perturbation",
                     "terms": [[True, False, "0.05", [2, 0, 0]]]}}, "terms: entry (True, False)"),
        ({"metric": {"kind": "polynomial_perturbation", "terms": [[0, 0, "0.05", [2, 0, 0]]]}},
         "terms coefficient must be a number"),
        # a count's integer check runs before its rung check
        ({"ladder": {"n": 6.5}}, "ladder.n must be an integer, got 6.5"),
        # a malformed entry is named before it is unpacked or hashed
        ({"metric": {"kind": "conformal", "phi_poly": [[0.1, 5]]}}, "phi_poly"),
        ({"metric": {"kind": "conformal", "phi_poly": 5}}, "phi_poly"),
        ({"metric": {"kind": "conformal", "phi_poly": [[0.1]]}}, "phi_poly"),
        ({"metric": {"kind": "conformal", "phi_poly": {"a": 1}}}, "phi_poly"),
        ({"metric": {"kind": "polynomial_perturbation", "terms": [[[0], 0, 0.1, [1, 0, 0]]]}},
         "terms"),
        ({"metric": {"kind": "polynomial_perturbation", "terms": [[0, 0, 0.1]]}}, "terms"),
        ({"metric": "x"}, "metric"),
        # a metric singular at the point, or one whose packet overflows there,
        # exits 2 at the packet: no LinAlgError traceback and no inf in a report
        ({"metric": {"kind": "round_sphere", "radius": 1e-200}, "point": [0.1, 0, 0]},
         "DomainError: g of the round_sphere metric is singular"),
        ({"metric": {"kind": "round_sphere", "radius": 1e-150}, "point": [1e-170, 0, 0]},
         "DomainError: the curvature packet of the round_sphere metric is not finite"),
    ],
)
def test_bad_config_values_exit_2(capsys, tmp_path, config, key):
    # rejected at load, whatever the command: run one that needs no optimizer,
    # so a regression fails here and does not start a search
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["curvature", "--config", str(path)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command", ["curvature", "expansion", "optimize", "bartnik",
                                     "el-residual"])
def test_metric_not_finite_at_the_point_exits_2(capsys, tmp_path, command):
    # exp(2 phi) overflows at p: no report of nan, which is not JSON
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "metric": {"kind": "conformal", "phi_poly": [[800.0, [1, 0, 0]]]},
        "point": [1, 0, 0],
    }))
    assert main([command, "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "DomainError" in err and "conformal" in err


def test_step_limit_prints_a_plain_float(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "metric": {"kind": "polynomial_perturbation", "terms": [[0, 0, -2.0, [2, 0, 0]]]},
        "ladder": {"rho0": 0.9, "n": 5},
    }))
    assert main(["expansion", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "StepLimit" in err and "np.float64" not in err


def test_overflowing_number_literal_exits_2(capsys, tmp_path):
    # 1e999 is a float to json, and an infinite one
    path = tmp_path / "config.json"
    path.write_text('{"metric": {"kind": "round_sphere", "radius": 1e999}}')
    assert main(["curvature", "--config", str(path)]) == 2
    assert "1e999 is not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, key",
    [
        # an integer literal beyond the float range
        ('{"metric": {"kind": "schwarzschild", "mass": 1' + "0" * 400 + "}}",
         "the 401-digit integer 100000000000... is not a finite number"),
        ('{"metric": {"kind": "round_sphere", ', "is not valid JSON: Expecting"),
    ],
    ids=["overflowing_integer", "malformed"],
)
def test_unreadable_config_exits_2(capsys, tmp_path, text, key):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["curvature", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: ") and key in err


def test_missing_config_file_exits_2(capsys, tmp_path):
    path = tmp_path / "absent.json"
    assert main(["curvature", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: ConfigError: cannot read config {path}")


@pytest.mark.parametrize("sub", ["", "sub"], ids=["existing_file", "under_a_file"])
def test_out_that_is_not_a_directory_exits_2(capsys, tmp_path, sub):
    # FileExistsError for the file itself, NotADirectoryError below it
    out = tmp_path / "taken"
    out.write_text("")
    target = out / sub if sub else out
    assert main(["curvature", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1


def test_integral_floats_are_integer_settings(monkeypatch):
    config = RunConfig({"optimizer": {"max_degree": 3.0, "max_iters": 2.0},
                        "geodesic": {"max_steps": 1000.0},
                        "grid": {"n_theta": 8.0, "n_phi": 16.0}, "ladder": {"n": 6.0}})
    assert config.optimizer_config == OptimizeConfig(max_degree=3, max_iters=2)
    assert type(config.optimizer_config.max_degree) is int
    assert type(config.optimizer_config.max_iters) is int
    assert type(config.geodesic_config.max_steps) is int
    # the report echoes config.data, so its counts are ints too
    for section, key in (("grid", "n_theta"), ("grid", "n_phi"), ("ladder", "n"),
                         ("optimizer", "max_degree"), ("optimizer", "max_iters"),
                         ("geodesic", "max_steps")):
        assert type(config.data[section][key]) is int, key
    grid = config.grid
    assert (type(grid.n_theta), type(grid.n_phi)) == (int, int)
    seen = {}

    def ladder(metric, p, mode, rho0, n, grid, **kwargs):
        seen["n"] = n
        raise ConfigError("stop after the ladder's arguments")

    monkeypatch.setattr(cli, "radius_ladder", ladder)
    with pytest.raises(ConfigError):
        cli.cmd_expansion(config)
    assert type(seen["n"]) is int


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


def small_configs(tmp_path):
    """Paths of a Schwarzschild and a conformal config on a 16x32 grid, on
    which every command runs in well under a second."""
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
    return configs


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test-side oracle only: with its import blocked, every
    # command exits as it does with scipy importable, and none loads it
    configs = small_configs(tmp_path)
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


def reference_dump_stable(obj, indent=0):
    """The recursive serializer the one-pass ``dump_stable`` replaced, kept
    verbatim as the reference for its output."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{k}": {reference_dump_stable(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return "[" + ", ".join(reference_dump_stable(v) for v in obj) + "]"
        items = [f"{pad}  {reference_dump_stable(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return f"{float(obj):.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return reference_dump_stable(obj.tolist(), indent)
    raise TypeError(f"cannot serialize {type(obj)!r}")


class OrderedMap(dict):
    pass


SYNTHETIC = {
    "numpy_scalars": [np.float64(0.1), np.int64(-7), np.float32(1.5), np.uint8(255)],
    "arrays": {"zero_d": np.array(2.5), "two_d": np.arange(6.0).reshape(2, 3),
               "int_2d": np.eye(2, dtype=int), "empty": np.zeros(0)},
    "tuple": (1, 2.0, "three"),
    "empty": [[], {}, (), [[]], [{}]],
    "nested": [[1.0, [2.0, [3.0, []]]], {"a": [1, {"b": None}]}],
    "arrays_in_a_flat_list": [np.arange(3), np.eye(2), 4.0],
    "flags": [True, False, None, np.float64(-0.0)],
    "floats": [-0.0, 1e-300, 5e-324, 1.0 / 3.0, 1e300, float("inf"), float("nan")],
    "ints": [0, -1, 10**30, -(2**70)],
    "escapes": ['quote " backslash \\ slash /', "new\nline\ttab\r\x00\x1f", "é ☃ 𝄞"],
    "keys": {1: "int key", "": "empty key", "dotted.key": 0.5},
    "subclasses": OrderedMap(inner=[OrderedMap(), OrderedMap(x=1)]),
    "deep": {"a": {"b": {"c": {"d": [[{"e": np.array([[1.0, 2.0]])}]]}}}},
}


def test_dump_stable_matches_the_recursive_serializer():
    assert dump_stable(SYNTHETIC) == reference_dump_stable(SYNTHETIC)
    assert dump_stable(SYNTHETIC, 2) == reference_dump_stable(SYNTHETIC, 2)
    for value in SYNTHETIC.values():
        assert dump_stable(value) == reference_dump_stable(value)


@pytest.mark.parametrize(
    "value", [object(), np.bool_(True), {1, 2}, 1j, b"bytes", [1.0, {"x": object()}]],
    ids=["object", "numpy_bool", "set", "complex", "bytes", "nested_object"],
)
def test_dump_stable_rejects_unsupported_types(value):
    with pytest.raises(TypeError):
        reference_dump_stable(value)
    with pytest.raises(TypeError):
        dump_stable(value)


def test_every_report_serializes_as_before(capsys, tmp_path, monkeypatch):
    # the report objects themselves, captured before they are serialized
    reports = []
    monkeypatch.setattr(cli, "_emit", lambda report, out_dir, name: reports.append(report))
    for config in small_configs(tmp_path):
        for command in sorted(cli._COMMANDS):
            assert main([command, "--config", config]) in (0, 1), command
    assert len(reports) == 2 * len(cli._COMMANDS)
    for report in reports:
        assert dump_stable(report) == reference_dump_stable(report), report["command"]


def test_main_reuses_one_parser(capsys, tmp_path, monkeypatch):
    # no parser is built per call, and a second call prints the same bytes
    def no_new_parser(*args, **kwargs):
        raise AssertionError("main() built a parser")

    monkeypatch.setattr(argparse, "ArgumentParser", no_new_parser)
    config = small_configs(tmp_path)[0]
    for command in sorted(cli._COMMANDS):
        runs = []
        for _ in range(2):
            code = main([command, "--config", config])
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1], command
        assert runs[0][1].startswith("{"), command


def test_usage_errors_and_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: hawking-lab")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert usage.startswith("usage: hawking-lab")
    for command in cli._COMMANDS:
        assert command in usage
