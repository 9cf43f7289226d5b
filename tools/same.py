"""Same-behaviour check: run the command line of two source trees over one
fixed list of runs and name every run whose output differs.

    python tools/same.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository.  Each runs in its own
subprocess, with the tree's ``src`` first on ``sys.path`` and one BLAS
thread, and that process calls ``hawking_lab.cli.main`` once per run with
``--out`` to a fresh directory.  A run's stdout, stderr, exit code and every ``--out`` file are
compared, after the tree's and the work directory's paths are replaced by
placeholders (a warning names the file it came from).  For each run that
differs the check prints its name, the first differing key and the largest
numeric difference; it exits 1 if any run differs and 0 otherwise.

    python tools/same.py --numeric OLD_TREE NEW_TREE

is for changes that are meant to re-round.  Per command it prints the
largest absolute difference at each key path, with list indices (and CSV
line numbers) folded to ``*``, then every run whose exit code moved, and
every folded key whose text differs other than as a number, or that only
one tree writes, with its number of runs.  It exits 0 when the exit codes
and all non-numeric text agree.

The list holds every command at K = 0 and K = 1 on one 24x48 config per
metric kind (the polynomial kind as the six-term fixture, and linear flat
space as well), every fixture of the ``ladder``, ``optimize`` and
``packets`` pools of seeds 1 and 2 under its workload's commands and
config, and the polynomial probe fixture of those seeds.  The pools come
from ``bench/workloads.py``, by import only.
"""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = ("integrals-check", "curvature", "expansion", "optimize", "bartnik", "el-residual")
SEEDS = (1, 2)
POOLS = ("ladder", "optimize", "packets")
# the workload whose config the probe fixture takes under each command
PROBE_WORKLOAD = {
    "curvature": "packets",
    "expansion": "ladder",
    "optimize": "optimize",
    "bartnik": "packets",
    "el-residual": "ladder",
}

SIX_TERM = [[0, 0, 0.3, [1, 0, 0]], [0, 1, 0.2, [0, 1, 1]], [2, 2, -0.25, [2, 0, 0]],
            [1, 2, 0.1, [0, 0, 1]], [1, 1, -0.4, [0, 1, 0]], [0, 2, 0.35, [0, 0, 2]]]
# flat space in linear coordinates
LINEAR_FLAT = [[0, 0, 0.3, [0, 0, 0]], [0, 1, 0.2, [0, 0, 0]], [2, 2, -0.25, [0, 0, 0]],
               [1, 2, 0.1, [0, 0, 0]]]
KIND_CONFIGS = {
    "euclidean": ({"kind": "euclidean"}, [0.1, 0.2, -0.1]),
    "round_sphere": ({"kind": "round_sphere", "radius": 1.0}, [0.1, 0.05, -0.03]),
    "hyperbolic": ({"kind": "hyperbolic", "radius": 1.0}, [0.05, -0.02, 0.03]),
    "schwarzschild": ({"kind": "schwarzschild", "mass": 1.0}, [4.0, 0.0, 0.0]),
    "conformal": (
        {"kind": "conformal", "phi_poly": [[0.05, [2, 0, 0]], [-0.03, [0, 1, 1]]]},
        [0.1, 0.05, -0.02],
    ),
    "six_term": ({"kind": "polynomial_perturbation", "terms": SIX_TERM}, [0.1, -0.05, 0.08]),
    "linear_flat": (
        {"kind": "polynomial_perturbation", "terms": LINEAR_FLAT}, [0.1, -0.2, 0.15]
    ),
}


def runs():
    """The fixed list: ``(name, command, config)`` for every run."""
    out = []
    for kind, (metric, point) in KIND_CONFIGS.items():
        for K in (0, 1):
            config = {
                "metric": metric,
                "point": point,
                "K": K,
                "grid": {"n_theta": 24, "n_phi": 48},
                "ladder": {"rho0": 0.2, "n": 6},
                "optimizer": {"max_degree": 4, "max_iters": 2, "reference_rho": 0.1},
            }
            out += [(f"kind/{kind}/K{K}/{c}", c, config) for c in COMMANDS]
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    for seed in SEEDS:
        for pool in POOLS:
            for fixture in workloads.fixture_pool(pool, seed):
                config = fixture.config(pool)
                out += [
                    (f"{pool}/seed{seed}/{fixture.index}-{fixture.kind}/{c}", c, config)
                    for c in workloads.WORKLOADS[pool].commands
                ]
        probe = workloads.probe_fixture(seed)
        out += [
            (f"probe/seed{seed}/{c}", c, probe.config(workload))
            for c, workload in PROBE_WORKLOAD.items()
        ]
    return out


def _clean(text, paths):
    """``text`` with each path in ``paths`` replaced by its placeholder."""
    for path, placeholder in paths.items():
        text = text.replace(path, placeholder)
    return text


def _worker(tree, runs_path, results_path):
    """Run every listed run through ``cli.main`` of ``tree`` in this process."""
    sys.path.insert(0, str(Path(tree) / "src"))
    from hawking_lab import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(tree).resolve()):
        raise SystemExit(f"error: imported {cli.__file__}, not the tree {tree}")
    results = []
    with tempfile.TemporaryDirectory() as work:
        for i, (name, command, config) in enumerate(json.loads(Path(runs_path).read_text())):
            run_dir = Path(work) / str(i)
            run_dir.mkdir()
            config_path, out_dir = run_dir / "config.json", run_dir / "out"
            config_path.write_text(json.dumps(config))
            stdout, stderr = io.StringIO(), io.StringIO()
            # a fresh warnings registry, so a warning prints as in a one-shot run
            with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main([command, "--config", str(config_path),
                                     "--out", str(out_dir)])
                except SystemExit as exc:
                    code = exc.code
            files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
            paths = {str(run_dir): "<run>", str(tree): "<tree>"}
            results.append({
                "name": name,
                "code": code,
                "stdout": _clean(stdout.getvalue(), paths),
                "stderr": _clean(stderr.getvalue(), paths),
                "files": {p.name: _clean(p.read_text(), paths) for p in files},
            })
    Path(results_path).write_text(json.dumps(results))


def _leaves(value, path=()):
    """``(key, value)`` of every scalar in a parsed JSON value, in order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (str(key),))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, path + (str(index),))
    else:
        yield ".".join(path), value


def _parts(result):
    """Every compared part of a run's result as ``{key: scalar}``, keys
    prefixed by the part: JSON by key path, CSV by line and column, other
    text by line."""
    parts = {"exit code": result["code"]}
    texts = [("stdout", result["stdout"]), ("stderr", result["stderr"])]
    texts += [(f"--out {name}", text) for name, text in sorted(result["files"].items())]
    for part, text in texts:
        try:
            leaves = list(_leaves(json.loads(text)))
        except ValueError:
            lines = text.splitlines()
            if part.endswith(".csv"):
                leaves = [(f"{i}.{j}", v) for i, line in enumerate(lines)
                          for j, v in enumerate(line.split(","))]
            else:
                leaves = [(str(i), line) for i, line in enumerate(lines)]
            leaves.append(("<end>", len(lines)))
        parts.update({f"{part}: {key}" if key else part: v for key, v in leaves})
    return parts


def _number(value):
    """A JSON number, or text that reads as one, as a float; else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _same(x, y):
    """Equal, or both NaN."""
    x_num, y_num = _number(x), _number(y)
    return x == y or (x_num is not None and y_num is not None
                      and math.isnan(x_num) and math.isnan(y_num))


def difference(old, new):
    """``None`` when two results of one run agree, else a line naming the
    run, the first differing key and the largest numeric difference.  The
    texts must agree byte for byte; keys locate a difference."""
    if all(old[part] == new[part] for part in ("code", "stdout", "stderr", "files")):
        return None
    a, b = _parts(old), _parts(new)
    keys = list(a) + [k for k in b if k not in a]
    differing = [k for k in keys if k not in a or k not in b or not _same(a[k], b[k])]
    if not differing:
        return f"{old['name']}: the same values, written differently"
    largest, where = 0.0, None
    for key in differing:
        x, y = _number(a.get(key)), _number(b.get(key))
        if x is not None and y is not None and (where is None or abs(x - y) > largest):
            largest, where = abs(x - y), key
    line = f"{old['name']}: first difference at {differing[0]!r}"
    if where is None:
        return line + "; no numeric difference"
    return line + f"; largest numeric difference {largest:.3g} at {where!r}"


def _fold(key):
    """A key of :func:`_parts` with its list indices, or a CSV key's line
    number, as ``*``."""
    part, sep, path = key.partition(": ")
    items = path.split(".")
    if part.endswith(".csv"):
        items[0] = "*"
    else:
        items = ["*" if item.isdigit() else item for item in items]
    return part + sep + ".".join(items)


def numeric(old_results, new_results):
    """``(lines, agree)`` of a re-rounding comparison: per command, the
    largest absolute difference at each folded key path; then each moved
    exit code, and each folded key that differs other than as a number,
    with its count of runs and the first of them; ``agree`` when there are
    none of the latter two."""
    largest, moved, other = {}, [], {}
    for old, new in zip(old_results, new_results, strict=True):
        if difference(old, new) is None:
            continue
        name, command = old["name"], old["name"].rsplit("/", 1)[-1]
        if old["code"] != new["code"]:
            moved.append(f"{name}: exit code {old['code']} -> {new['code']}")
        a, b = _parts(old), _parts(new)
        per_key = largest.setdefault(command, {})
        for key in list(a) + [k for k in b if k not in a]:
            if key == "exit code" or (key in a and key in b and _same(a[key], b[key])):
                continue
            x, y = _number(a.get(key)), _number(b.get(key))
            if x is None or y is None or key.endswith("<end>"):  # <end>: a line count
                where = ("only the old tree writes" if key not in b else
                         "only the new tree writes" if key not in a else "text differs at")
                runs = other.setdefault((command, where, _fold(key)), [])
                if name not in runs:
                    runs.append(name)
            else:
                folded = _fold(key)
                per_key[folded] = max(per_key.get(folded, 0.0), abs(x - y))
    lines = []
    for command, per_key in sorted(largest.items()):
        lines.append(f"{command}:")
        lines += [f"  {key}: {value:.3g}" for key, value in sorted(per_key.items())]
    lines += moved
    lines += [f"{command}: {where} {key!r} in {len(runs)} runs, first {runs[0]}"
              for (command, where, key), runs in other.items()]
    return lines, not (moved or other)


def compare(old_results, new_results):
    """One line per run whose results differ, in list order."""
    lines = []
    for old, new in zip(old_results, new_results, strict=True):
        line = difference(old, new)
        if line is not None:
            lines.append(line)
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="source tree of the old behaviour")
    parser.add_argument("new", type=Path, help="source tree of the new behaviour")
    parser.add_argument("--numeric", action="store_true",
                        help="report the largest difference per key, for a re-rounding change")
    args = parser.parse_args(argv)
    listed = runs()
    with tempfile.TemporaryDirectory() as work:
        runs_path = Path(work) / "runs.json"
        runs_path.write_text(json.dumps(listed))
        results = [Path(work) / "old.json", Path(work) / "new.json"]
        # one BLAS thread per tree, as the benchmark runs
        env = {**os.environ, **{f"{lib}_NUM_THREADS": "1" for lib in ("OMP", "OPENBLAS", "MKL")}}
        procs = [
            subprocess.Popen([sys.executable, __file__, "--worker", str(tree.resolve()),
                              str(runs_path), str(path)], env=env)
            for tree, path in zip((args.old, args.new), results)
        ]
        if [proc.wait() for proc in procs] != [0, 0]:
            print("error: a tree's runs did not complete", file=sys.stderr)
            return 2
        old, new = (json.loads(path.read_text()) for path in results)
    lines = compare(old, new)
    report, agree = numeric(old, new) if args.numeric else (lines, not lines)
    for line in report:
        print(line)
    codes = Counter(result["code"] for result in new)
    print(f"{len(listed) - len(lines)} of {len(listed)} runs identical;"
          f" exit codes of the new tree: {dict(sorted(codes.items()))}")
    return 0 if agree else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:  # the subprocess of one tree
        _worker(*sys.argv[2:])
    else:
        sys.exit(main())
