"""Command-line interface: configuration loading, command dispatch and
bit-stable report emission.

Usage: ``hawking-lab <command> --config <path> [--out <dir>]`` with commands
integrals-check, curvature, expansion, optimize, bartnik and el-residual.
Reports echo the normalized configuration, carry the tool version, and print
every floating-point number with 17 significant digits so repeated runs are
byte-identical.
"""

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, FitUnstable, HawkingLabError, RadiusOutOfRange
from .expansion import (
    compare_report,
    fit_coefficients,
    bartnik_lower_bound,
    ladder_to_csv,
    predicted_coefficients,
    radius_ladder,
)
from .geodesics import GeodesicConfig, sphere_fan
from .harmonics import galerkin_degree, optimal_perturbation, willmore_el_residual
from .manifold import curvature_packet, metric_from_config
from .optimizer import (
    OptimizeConfig,
    closed_form_reference,
    maximize_hawking,
    trace_to_csv,
)
from .surface import build_grid, hawking_mass, surface_to_csv

__all__ = ["RunConfig", "main"]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "metric": {"kind": "euclidean"},
    "point": [0.0, 0.0, 0.0],
    "grid": {"n_theta": 32, "n_phi": 64},
    "ladder": {"rho0": 0.2, "n": 6},
    "mode": "optimal",
    "K": 0,
    "geodesic": asdict(GeodesicConfig()),
    "optimizer": {**asdict(OptimizeConfig()), "reference_rho": 0.05, "target_area": None},
    "bartnik": {"rho": 0.1, "validity_radius": 1.0},
    "tolerances": {"c3_rel": 0.01, "c3_abs": 0.0, "c5_rel": 0.05, "c5_abs": 0.0},
}


class RunConfig:
    """Normalized run configuration with strict key checking.

    Sections with object defaults accept exactly the default's keys; the
    metric section is checked by :func:`metric_from_config`.
    """

    def __init__(self, data):
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        merged = {}
        for key, default in _DEFAULTS.items():
            value = data.get(key, default)
            if isinstance(default, dict) and key != "metric":
                if not isinstance(value, dict):
                    raise ConfigError(f"section {key!r} must be an object")
                bad = set(value) - set(default)
                if bad:
                    raise ConfigError(f"unknown keys in {key!r}: {sorted(bad)}")
                value = {**default, **value}
            merged[key] = value
        if merged["mode"] not in ("optimal", "unperturbed"):
            raise ConfigError("mode must be 'optimal' or 'unperturbed'")
        if merged["K"] not in (-1, 0, 1):
            raise ConfigError("K must be -1, 0 or +1")
        # reference_rho and target_area configure the command, not the search
        search = {f.name: merged["optimizer"][f.name] for f in fields(OptimizeConfig)}
        try:
            metric_from_config(merged["metric"])  # validates kind and params
            self.geodesic_config = GeodesicConfig(**merged["geodesic"])
            self.optimizer_config = OptimizeConfig(**search)
            self.optimizer_config.validate()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config value: {exc}") from exc
        self.data = merged

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls(json.load(fh))

    def to_json(self):
        return dump_stable(self.data)

    @property
    def metric(self):
        return metric_from_config(self.data["metric"])

    @property
    def point(self):
        return np.asarray(self.data["point"], dtype=float)

    @property
    def grid(self):
        g = self.data["grid"]
        return build_grid(int(g["n_theta"]), int(g["n_phi"]))


def dump_stable(obj, indent=0):
    """Serialize to JSON with every float printed at 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{k}": {dump_stable(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return "[" + ", ".join(dump_stable(v) for v in obj) + "]"
        items = [f"{pad}  {dump_stable(v, indent + 1)}" for v in obj]
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
        return dump_stable(obj.tolist(), indent)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(report, out_dir, name):
    text = dump_stable(report) + "\n"
    sys.stdout.write(text)
    if out_dir is not None:
        path = Path(out_dir) / f"{name}.json"
        path.write_text(text)


def _report_skeleton(command, config):
    return {
        "command": command,
        "version": __version__,
        "config": config.data,
        "checks": [],
        "passed": True,
    }


def _add_check(report, name, passed, value=None, tolerance=None):
    entry = {"name": name, "passed": bool(passed)}
    if value is not None:
        entry["value"] = value
    if tolerance is not None:
        entry["tolerance"] = tolerance
    report["checks"].append(entry)
    if not passed:
        report["passed"] = False
        print(f"FAILED check: {name}", file=sys.stderr)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_integrals_check(config, out_dir):
    grid = config.grid
    report = _report_skeleton("integrals-check", config)
    x, y, z = grid.unit[:, 0], grid.unit[:, 1], grid.unit[:, 2]
    four_pi = 4.0 * np.pi
    checks = [
        ("total_measure", grid.integrate(np.ones(grid.n_nodes)), four_pi, 1e-13),
        ("second_moment", grid.integrate(x**2), four_pi / 3.0, 1e-12),
        ("mixed_fourth_moment", grid.integrate(x**2 * y**2), four_pi / 15.0, 1e-12),
        ("fourth_moment", grid.integrate(z**4), four_pi / 5.0, 1e-12),
        ("odd_moment", grid.integrate(x * y * z), 0.0, 1e-13),
    ]
    max_err = 0.0
    for name, got, want, tol in checks:
        err = abs(got - want) / (abs(want) if want else 1.0)
        max_err = max(max_err, err)
        _add_check(report, name, err <= tol, value=err, tolerance=tol)
    report["max_relative_error"] = max_err
    _emit(report, out_dir, "integrals_check")
    return 0 if report["passed"] else 1


def cmd_curvature(config, out_dir):
    packet = curvature_packet(config.metric, config.point)
    report = _report_skeleton("curvature", config)
    report["packet"] = packet.as_dict()
    trace_err = abs(np.trace(packet.ricci) - packet.scalar)
    _add_check(
        report,
        "ricci_trace_matches_scalar",
        trace_err <= 1e-9 * max(1.0, abs(packet.scalar)),
        value=trace_err,
        tolerance=1e-9,
    )
    _emit(report, out_dir, "curvature")
    return 0 if report["passed"] else 1


def cmd_expansion(config, out_dir):
    metric = config.metric
    grid = config.grid
    ladder_cfg = config.data["ladder"]
    K = config.data["K"]
    mode = config.data["mode"]
    ladder = radius_ladder(
        metric,
        config.point,
        mode,
        float(ladder_cfg["rho0"]),
        int(ladder_cfg["n"]),
        grid,
        K=K,
        cfg=config.geodesic_config,
    )
    fit = fit_coefficients(ladder.radii, ladder.masses)
    pred_mode = "generalized" if K != 0 else mode
    pred = predicted_coefficients(ladder.packet, pred_mode, K)
    tols = config.data["tolerances"]
    comparison = compare_report(
        fit,
        pred,
        c3_rel=tols["c3_rel"],
        c3_abs=tols["c3_abs"],
        c5_rel=tols["c5_rel"],
        c5_abs=tols["c5_abs"],
    )
    report = _report_skeleton("expansion", config)
    report["fit"] = {
        "radii": ladder.radii,
        "masses": ladder.masses,
        "c3": fit.c3,
        "c5": fit.c5,
        "c6": fit.c6,
        "condition_number": fit.condition_number,
        "rms_residual": fit.rms_residual,
    }
    report["predicted"] = {"c3": pred.c3, "c5": pred.c5, "mode": pred.mode}
    report["comparison"] = {**asdict(comparison), "passed": comparison.passed}
    report["fan"] = ladder.fan.diagnostics()
    _add_check(report, "c3_match", comparison.c3_pass, value=comparison.c3_delta)
    _add_check(report, "c5_match", comparison.c5_pass, value=comparison.c5_delta)
    if out_dir is not None:
        ladder_to_csv(ladder, Path(out_dir) / "expansion_ladder.csv", pred)
    _emit(report, out_dir, "expansion")
    return 0 if report["passed"] else 1


def cmd_optimize(config, out_dir):
    metric = config.metric
    grid = config.grid
    opt = config.data["optimizer"]
    geo = config.geodesic_config
    target_area = opt.get("target_area")
    reference = None
    if target_area is None:
        target_area, ref_mass, _ = closed_form_reference(
            metric, config.point, float(opt["reference_rho"]), grid, geo,
            K=config.data["K"],
        )
        reference = ref_mass
    result = maximize_hawking(
        metric,
        config.point,
        float(target_area),
        config.optimizer_config,
        grid,
        geo,
        K=config.data["K"],
    )
    report = _report_skeleton("optimize", config)
    report["result"] = result.as_dict()
    if reference is not None:
        report["reference_mass"] = reference
        _add_check(
            report,
            "beats_closed_form_reference",
            result.m_H_star >= reference - 1e-8,
            value=result.m_H_star - reference,
            tolerance=1e-8,
        )
    _add_check(report, "converged", result.converged)
    area_drift = abs(result.area - result.target_area) / result.target_area
    _add_check(report, "area_constraint", area_drift <= 1e-8, value=area_drift, tolerance=1e-8)
    if out_dir is not None:
        trace_to_csv(result.trace, Path(out_dir) / "optimize_trace.csv")
        surface_to_csv(result.surface, Path(out_dir) / "optimize_surface.csv")
    _emit(report, out_dir, "optimize")
    return 0 if report["passed"] else 1


def cmd_bartnik(config, out_dir):
    packet = curvature_packet(config.metric, config.point)
    b = config.data["bartnik"]
    bound = bartnik_lower_bound(packet, float(b["rho"]), float(b["validity_radius"]))
    report = _report_skeleton("bartnik", config)
    report["bound"] = asdict(bound)
    _add_check(
        report,
        "scalar_curvature_nonnegative",
        packet.scalar >= -1e-9,
        value=packet.scalar,
    )
    _emit(report, out_dir, "bartnik")
    return 0 if report["passed"] else 1


def cmd_el_residual(config, out_dir):
    metric = config.metric
    grid = config.grid
    geo = config.geodesic_config
    rho = float(config.data["ladder"]["rho0"])
    packet = curvature_packet(metric, config.point)
    pert = optimal_perturbation(packet, grid)
    w = pert.w_values(rho, grid)
    fan = sphere_fan(metric, config.point, rho, w, grid, geo, packet=packet)
    surf = fan.surface(rho, w)
    residual = willmore_el_residual(surf, metric, pert.lam)
    scale = 2.0 / rho**3  # magnitude of the leading Euler-Lagrange terms
    sup = float(np.max(np.abs(residual)))
    l2 = float(np.sqrt(surf.integrate(residual**2)))
    report = _report_skeleton("el-residual", config)
    report["residual"] = {
        "rho": rho,
        "lambda": pert.lam,
        "sup_norm": sup,
        "l2_norm": l2,
        "sup_norm_relative": sup / scale,
        "leading_scale": scale,
        "test_degree": galerkin_degree(grid),
    }
    report["surface"] = asdict(hawking_mass(surf, config.data["K"]))
    report["fan"] = fan.diagnostics()
    if out_dir is not None:
        surface_to_csv(surf, Path(out_dir) / "el_residual_surface.csv")
    _emit(report, out_dir, "el_residual")
    return 0


_COMMANDS = {
    "integrals-check": cmd_integrals_check,
    "curvature": cmd_curvature,
    "expansion": cmd_expansion,
    "optimize": cmd_optimize,
    "bartnik": cmd_bartnik,
    "el-residual": cmd_el_residual,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hawking-lab",
        description="Hawking-mass laboratory for perturbed geodesic spheres",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to the JSON run configuration")
    parser.add_argument("--out", help="directory for CSV/JSON artifacts")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            config = RunConfig.from_file(args.config)
        else:
            config = RunConfig({})
        if args.out is not None:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, args.out)
    except (ConfigError, FitUnstable, RadiusOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HawkingLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
