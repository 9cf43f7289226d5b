"""Command-line interface: configuration loading, command dispatch and
bit-stable report emission.

Usage: ``hawking-lab <command> --config <path> [--out <dir>]`` with commands
integrals-check, curvature, expansion, optimize, bartnik and el-residual.
Reports echo the normalized configuration, carry the tool version, and print
every floating-point number with 17 significant digits so repeated runs are
byte-identical.

The argument parser is built once, at import, so building it is part of
start-up: a one-shot run pays for it in the import, and a process that calls
:func:`main` many times (tests, notebooks, a benchmark loop) pays once rather
than per command.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, HawkingLabError
from .expansion import (
    MIN_RUNGS,
    MODES,
    compare_report,
    fit_coefficients,
    bartnik_lower_bound,
    predicted_coefficients,
    radius_ladder,
)
from .geodesics import GeodesicConfig, sphere_fan
from .harmonics import galerkin_degree, optimal_perturbation, willmore_el_residual
from .manifold import _is_number, curvature_packet, metric_from_config
from .optimizer import (
    OptimizeConfig,
    closed_form_reference,
    maximize_hawking,
    optimizer_fan,
)
from .surface import build_grid, hawking_mass

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


def _real(value):
    return _is_number(value) and math.isfinite(value)


def _positive(value):
    return _real(value) and value > 0


def _nonnegative(value):
    return _real(value) and value >= 0


def _integer(value):
    return _real(value) and value == int(value)


# the counts the commands take as Python ints
_COUNTS = (
    ("grid", "n_theta"), ("grid", "n_phi"), ("ladder", "n"),
    ("optimizer", "max_degree"), ("optimizer", "max_iters"), ("geodesic", "max_steps"),
)

# (section, key, test, what the test asks) for the values the commands read;
# each count's integer check runs before any other check of its value
_VALUE_CHECKS = (
    *((section, key, _integer, "an integer") for section, key in _COUNTS),
    ("ladder", "rho0", _positive, "a positive number"),
    ("ladder", "n", lambda v: v >= MIN_RUNGS, f"an integer of at least {MIN_RUNGS}"),
    *(("geodesic", key, _positive, "a positive number") for key in ("rel_tol", "abs_tol")),
    *(("optimizer", key, _positive, "a positive number")
      for key in ("gradient_tol", "area_rtol")),
    ("optimizer", "reference_rho", _positive, "a positive number"),
    ("optimizer", "target_area", lambda v: v is None or _positive(v),
     "null or a positive number"),
    ("bartnik", "rho", _positive, "a positive number"),
    ("bartnik", "validity_radius", _positive, "a positive number"),
    *(("tolerances", key, _nonnegative, "a non-negative number")
      for key in _DEFAULTS["tolerances"]),
)


def _check_values(data):
    """Reject, naming the key, a value no command could run with."""
    point = data["point"]
    if not (isinstance(point, (list, tuple)) and len(point) == 3
            and all(map(_real, point))):
        raise ConfigError(f"point must be a list of three numbers, got {point!r}")
    if data["mode"] not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {data['mode']!r}")
    if not (_integer(data["K"]) and data["K"] in (-1, 0, 1)):
        raise ConfigError(f"K must be -1, 0 or 1, got {data['K']!r}")
    for section, key, test, what in _VALUE_CHECKS:
        value = data[section][key]
        if not test(value):
            raise ConfigError(
                f"invalid config value: {section}.{key} must be {what}, got {value!r}"
            )


def _finite(text):
    """A JSON number or constant literal as a float; ``NaN``, ``Infinity``
    and a number that overflows, such as ``1e999``, are no config value."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"invalid config value: {text} is not a finite number")
    return value


def _finite_int(text):
    """A JSON integer literal as an int; one beyond the float range, such as
    1 followed by 400 zeros, is no config value."""
    try:
        value = int(text)
        float(value)
    except (OverflowError, ValueError):
        raise ConfigError(
            f"invalid config value: the {len(text)}-digit integer {text[:12]}..."
            " is not a finite number"
        ) from None
    return value


class RunConfig:
    """Normalized run configuration with strict key checking.

    Sections with object defaults accept exactly the default's keys; the
    metric section is checked by :func:`metric_from_config`, whose metric
    every command then reads as ``metric``.
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
        _check_values(merged)
        # _integer passes integral floats such as 3.0; the counts are ints
        for section, key in _COUNTS:
            merged[section][key] = int(merged[section][key])
        # reference_rho and target_area configure the command, not the search
        search = {f.name: merged["optimizer"][f.name] for f in fields(OptimizeConfig)}
        try:
            # validates kind and params; the commands read this one object
            self.metric = metric_from_config(merged["metric"])
            self.geodesic_config = GeodesicConfig(**merged["geodesic"])
            self.optimizer_config = OptimizeConfig(**search)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config value: {exc}") from exc
        self.data = merged

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                data = json.load(
                    fh, parse_float=_finite, parse_int=_finite_int, parse_constant=_finite
                )
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
        except ValueError as exc:  # malformed JSON, or text that is not UTF-8
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls(data)

    @property
    def point(self):
        return np.asarray(self.data["point"], dtype=float)

    @property
    def grid(self):
        g = self.data["grid"]
        return build_grid(g["n_theta"], g["n_phi"])


# the text of a value of exactly one of these types; anything else, numpy
# scalars included, goes through the isinstance checks of ``_leaf_text``
_LEAF_TEXT = {
    float: "{:.17g}".format,
    bool: lambda value: "true" if value else "false",
    int: str,
    str: encode_basestring_ascii,  # what json.dumps does with a str
    type(None): lambda value: "null",
}
_CONTAINERS = (dict, list, tuple)


def _leaf_text(obj):
    """JSON text of anything but a dict, list or tuple."""
    text = _LEAF_TEXT.get(type(obj))
    if text is not None:
        return text(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return f"{float(obj):.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dump_stable(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _dump_into(parts, obj, indent):
    """Append the text of ``obj``, nested ``indent`` levels deep, to ``parts``."""
    text = _LEAF_TEXT.get(type(obj))
    if text is not None:
        parts.append(text(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        pad = "  " * indent
        opening = "{\n"
        for key, value in obj.items():
            parts.append(f'{opening}{pad}  "{key}": ')
            opening = ",\n"
            _dump_into(parts, value, indent + 1)
        parts.append(f"\n{pad}}}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            parts.append("[]")
        elif not any(isinstance(value, _CONTAINERS) for value in obj):
            # a flat list prints on one line, its items at no indent
            parts.append("[" + ", ".join(map(_leaf_text, obj)) + "]")
        else:
            pad = "  " * indent
            opening = "[\n"
            for value in obj:
                parts.append(f"{opening}{pad}  ")
                opening = ",\n"
                _dump_into(parts, value, indent + 1)
            parts.append(f"\n{pad}]")
    elif isinstance(obj, np.ndarray):
        _dump_into(parts, obj.tolist(), indent)
    else:
        parts.append(_leaf_text(obj))


def dump_stable(obj, indent=0):
    """Serialize to JSON with every float printed at 17 significant digits.

    One pass appends every piece to one list, joined once at the end.
    """
    parts = []
    _dump_into(parts, obj, indent)
    return "".join(parts)


def _emit(report, out_dir, name):
    text = dump_stable(report) + "\n"
    sys.stdout.write(text)
    if out_dir is not None:
        path = Path(out_dir) / f"{name}.json"
        path.write_text(text)


def _write_csv(path, header, rows):
    """Write a CSV table: the header's names, then one line per row with
    every number printed at 17 significant digits."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _surface_table(surface):
    """Header and rows of the plot-ready node table of a surface."""
    g = surface.grid
    da = g.weights * surface.area_element / g.sin_theta
    rows = np.column_stack(
        [g.theta1, g.theta2, surface.positions, surface.mean_curvature, da]
    )
    return ("theta1", "theta2", "x", "y", "z", "H", "dA"), rows


def _ladder_table(ladder, predicted):
    """Header and rows of the per-rung table of a ladder, with the predicted
    leading terms c3 rho^3 + c5 rho^5."""
    rows = [
        (rho, area, willmore, mass, predicted.c3 * rho**3 + predicted.c5 * rho**5)
        for rho, area, willmore, mass in zip(
            ladder.radii, ladder.areas, ladder.willmores, ladder.masses
        )
    ]
    return ("rho", "area", "willmore", "hawking", "predicted_leading"), rows


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

def cmd_integrals_check(config):
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
    return report, {}


def cmd_curvature(config):
    packet = curvature_packet(config.metric, config.point)
    report = _report_skeleton("curvature", config)
    report["packet"] = packet.as_dict()
    trace_err = abs(np.trace(packet.ricci) - packet.scalar)
    tolerance = 1e-9 * max(1.0, abs(packet.scalar))
    _add_check(
        report,
        "ricci_trace_matches_scalar",
        trace_err <= tolerance,
        value=trace_err,
        tolerance=tolerance,
    )
    return report, {}


def cmd_expansion(config):
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
        ladder_cfg["n"],
        grid,
        K=K,
        cfg=config.geodesic_config,
    )
    fit = fit_coefficients(ladder.rho0, ladder.masses)
    pred = predicted_coefficients(ladder.packet, mode, K)
    comparison = compare_report(fit, pred, **config.data["tolerances"])
    report = _report_skeleton("expansion", config)
    report["fit"] = {
        "radii": ladder.radii, "masses": ladder.masses,
        "evaluation_grids": ladder.evaluation_grids, **asdict(fit),
    }
    report["predicted"] = {"c3": pred.c3, "c5": pred.c5, "mode": pred.mode}
    report["comparison"] = {**asdict(comparison), "passed": comparison.passed}
    report["fan"] = ladder.fan.diagnostics()
    _add_check(report, "c3_match", comparison.c3_pass, value=comparison.c3_delta,
               tolerance=comparison.c3_tolerance)
    _add_check(report, "c5_match", comparison.c5_pass, value=comparison.c5_delta,
               tolerance=comparison.c5_tolerance)
    return report, {"expansion_ladder.csv": _ladder_table(ladder, pred)}


def cmd_optimize(config):
    opt = config.data["optimizer"]
    K = config.data["K"]
    target_area = opt["target_area"]
    if target_area is None:
        rho = float(opt["reference_rho"])
    else:
        rho = math.sqrt(target_area / (4.0 * math.pi))
    # one packet and one optimal perturbation serve the fan's reach and the
    # reference sphere, which is the search's first iterate
    grid = config.grid
    packet = curvature_packet(config.metric, config.point)
    pert = optimal_perturbation(packet, grid)
    fan = optimizer_fan(config.metric, packet, pert, rho, grid, config.geodesic_config)
    reference = closed_form_reference(
        fan, pert, rho, config.optimizer_config, K, target_area
    )
    result = maximize_hawking(reference, config.optimizer_config)
    report = _report_skeleton("optimize", config)
    report["result"] = result.as_dict()
    report["fan"] = fan.diagnostics()
    if target_area is None:
        report["reference_mass"] = reference.mass
        _add_check(
            report,
            "beats_closed_form_reference",
            result.m_H_star >= reference.mass - 1e-8,
            value=result.m_H_star - reference.mass,
            tolerance=1e-8,
        )
    _add_check(report, "converged", result.converged)
    area_drift = abs(result.area - result.target_area) / result.target_area
    _add_check(report, "area_constraint", area_drift <= 1e-8, value=area_drift, tolerance=1e-8)
    header = ("iteration", "mass", "gradient_norm", "step", "rho")
    rows = [[row[name] for name in header] for row in result.trace]
    return report, {
        "optimize_trace.csv": (header, rows),
        "optimize_surface.csv": _surface_table(result.surface),
    }


def cmd_bartnik(config):
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
    return report, {}


def cmd_el_residual(config):
    metric = config.metric
    grid = config.grid
    geo = config.geodesic_config
    rho = float(config.data["ladder"]["rho0"])
    packet = curvature_packet(metric, config.point)
    pert = optimal_perturbation(packet, grid)
    w = pert.w_values(rho, grid)
    fan = sphere_fan(metric, config.point, rho, w, grid, geo, packet=packet)
    surf = fan.surface(rho, pert.w_field(rho))
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
    return report, {"el_residual_surface.csv": _surface_table(surf)}


_COMMANDS = {
    "integrals-check": cmd_integrals_check,
    "curvature": cmd_curvature,
    "expansion": cmd_expansion,
    "optimize": cmd_optimize,
    "bartnik": cmd_bartnik,
    "el-residual": cmd_el_residual,
}

# built once, at import, and only read by main(); the command is looked up in
# _COMMANDS at call time, so a replaced entry is the one that runs
_PARSER = argparse.ArgumentParser(
    prog="hawking-lab",
    description="Hawking-mass laboratory for perturbed geodesic spheres",
)
_PARSER.add_argument("command", choices=sorted(_COMMANDS))
_PARSER.add_argument("--config", help="path to the JSON run configuration")
_PARSER.add_argument("--out", help="directory for CSV/JSON artifacts")


def main(argv=None):
    args = _PARSER.parse_args(argv)

    try:
        if args.config is not None:
            config = RunConfig.from_file(args.config)
        else:
            config = RunConfig({})
        report, tables = _COMMANDS[args.command](config)
    except HawkingLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    # every output is written here: the command's CSV tables under --out,
    # then the report to stdout and --out
    try:
        if args.out is not None:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            for name, (header, rows) in tables.items():
                _write_csv(out / name, header, rows)
        _emit(report, args.out, args.command.replace("-", "_"))
    except OSError as exc:
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
