"""Benchmark of hawking_lab: one researcher running ``hawking-lab`` commands
back to back (a closed loop with one client).

Usage, from the root of a checkout:

    python3 bench/run.py --workload {ladder,optimize,packets} --seed N \
        --seconds S --trace {0,1}

The benchmark generates fixture configs from ``--seed``, calls
``hawking_lab.cli.main(argv)`` in-process on each, reads the JSON report from
the captured stdout and checks it against independent references.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it wraps
each layer's public functions, counts metric evaluations through a proxy and
reports the per-layer metrics.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
BLAS and OpenMP run single-threaded.
"""

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
if __name__ == "__main__":
    # BLAS and OpenMP read these once, when numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import ops  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 5
# measuring stops here even if the first pass over the pool is unfinished,
# so a much slower program still ends the run in time
DEADLINE_S = 110.0
# the tail percentile needs more than ten completed ops beyond it
MIN_COMPLETED = 11
# ops between two timings of the reference kernel take at least this long
KERNEL_EVERY_S = 0.4


def _declared_units(section):
    """Metric name -> unit of one section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _import_cli():
    """Import ``hawking_lab.cli`` from this checkout's ``src``, nowhere else."""
    package = SRC / "hawking_lab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no hawking_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hawking_lab.cli as cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported hawking_lab from {cli.__file__}")
    return cli


def _write_configs(workload, fixtures, workdir):
    paths = {}
    for fixture in fixtures:
        path = workdir / f"fixture{fixture.index}.json"
        path.write_text(json.dumps(fixture.config(workload)))
        paths[fixture.index] = path
    return paths


def setup_probe(args):
    """Body of one set-up measurement in a fresh interpreter: import the
    package, then run each command of the workload twice on one fixture.
    Prints the seconds from launch until the import finished and the summed
    excess of each command's first op over its second (cache fills)."""
    cli = _import_cli()
    launch_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.setup_probe
    fixture = wl.fixture_pool(args.workload, args.seed)[0]
    workdir = RUN_DIR / f"setup-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    excess = 0.0
    try:
        path = _write_configs(args.workload, [fixture], workdir)[fixture.index]
        for command in wl.WORKLOADS[args.workload].commands:
            first, second = (ops.execute_op(cli.main, command, path) for _ in range(2))
            if not (first.completed and second.completed):
                raise SystemExit(f"error: set-up op {command} failed: "
                                 f"{first.error or second.error}")
            excess += first.seconds - second.seconds
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"launch_s": launch_s, "excess_s": excess}))
    return 0


def time_setup(args):
    """Once-per-process cost of one fresh interpreter running
    :func:`setup_probe`: interpreter start and ``import hawking_lab``, plus
    what the first op of each command costs beyond a steady one.  The clock
    is the system-wide monotonic one, so the probe can read it against the
    moment it was launched."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe",
            repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["launch_s"] + probe["excess_s"]


class Runner:
    """Runs the op stream of one workload and keeps what the metrics need."""

    def __init__(self, cli, workload, pool, paths, refs):
        self.cli = cli
        self.pool, self.paths, self.refs = pool, paths, refs
        self.commands = wl.WORKLOADS[workload].commands
        self.first_pass = len(pool) * len(self.commands)
        self.figures = {}        # op index -> (kind, accuracy figures), first pass only
        self.violations = []

    def _op(self, index):
        fixture = self.pool[(index // len(self.commands)) % len(self.pool)]
        return fixture, self.commands[index % len(self.commands)]

    def check(self, index, fixture, result):
        """Apply the correctness gate; a gross violation fails the op."""
        if not result.completed:
            return
        figures, bad = wl.assess(result, fixture, self.refs[fixture.index])
        if bad:
            result.error = "; ".join(bad)
            self.violations.append(f"{result.command} fixture {fixture.index}: {result.error}")
        elif index < self.first_pass:
            self.figures[index] = (fixture.kind, figures)

    def measure(self, seconds, inst=None):
        """Run ops until ``seconds`` have passed, the first pass over the pool
        is done and the tail has its samples.  Returns (results, window).

        Untraced, the reference kernel is timed between blocks of ops
        lasting ``KERNEL_EVERY_S`` and each op's time in kernel units goes
        into ``kernels`` (see :func:`_normalise`).  With an
        :class:`tracing.Instrumentation` ``inst``, every op runs twice in a
        row, once traced and once not, in alternating order, and each result
        carries its untraced twin's time in ``untraced_s``."""
        results, block, blocks = [], [], []
        kernel_s = [ops.reference_kernel_s()]
        start = time.perf_counter()
        index = completed = 0
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= DEADLINE_S:
                break
            if elapsed >= seconds and index >= self.first_pass and completed >= MIN_COMPLETED:
                break
            fixture, command = self._op(index)
            path = self.paths[fixture.index]
            if inst is None:
                result = ops.execute_op(self.cli.main, command, path)
                block.append(result)
                if sum(r.seconds for r in block) >= KERNEL_EVERY_S:
                    blocks.append(block)
                    block = []
                    kernel_s.append(ops.reference_kernel_s())
            else:
                if index % 2:
                    untraced = ops.execute_op(self.cli.main, command, path)
                    result = self._traced(inst, index, command, path)
                else:
                    result = self._traced(inst, index, command, path)
                    untraced = ops.execute_op(self.cli.main, command, path)
                result.untraced_s = untraced.seconds if untraced.completed else None
            self.check(index, fixture, result)
            results.append(result)
            index += 1
            completed += result.completed
        window = time.perf_counter() - start
        if block:
            blocks.append(block)
            kernel_s.append(ops.reference_kernel_s())
        _normalise(blocks, kernel_s)
        return results, window

    def _traced(self, inst, index, command, path):
        inst.install()
        try:
            inst.rec.op = index
            span = inst.rec.open("bench", "op")
            result = ops.execute_op(self.cli.main, command, path)
            inst.rec.close(span)
        finally:
            inst.remove()
        return result

    def probe(self, path, recorder=None):
        """Known-defect probe: one op per command on a
        ``polynomial_perturbation`` fixture; returns the failed count."""
        failed = 0
        for command in self.commands:
            if recorder is not None:
                recorder.op = f"probe-{command}"
            result = ops.execute_op(self.cli.main, command, path)
            print(f"probe polynomial_perturbation {command}: "
                  f"{'completed' if result.completed else 'failed: ' + result.error[:120]}")
            failed += not result.completed
        return failed


def _normalise(blocks, kernel_s):
    """Express op times in units of the reference kernel.

    Block ``j`` of ops ran between kernel timings ``j`` and ``j + 1``.  Each
    op's time is divided by the median of the two timings before its block
    and the two after it: the host's speed changes over seconds, a single
    timing of the kernel jitters by several percent.
    """
    for j, block in enumerate(blocks):
        unit = statistics.median(kernel_s[max(0, j - 1):j + 3])
        for result in block:
            result.kernels = result.seconds / unit


def _timing(results, window):
    """Median op time in kernel units; prints the tail and wall-clock
    figures, which are too noisy on a shared host to bound."""
    done = [r for r in results if r.completed]
    if len(done) < MIN_COMPLETED:
        raise SystemExit(f"error: only {len(done)} completed ops; the tail needs "
                         f"{MIN_COMPLETED}")
    q, tail = ops.tail_percentile([r.kernels for r in done])
    print(f"op tail: p{q} of {len(done)} completed ops is {tail:.4g} kernels")
    q_s, tail_s = ops.tail_percentile([r.seconds for r in done])
    p50_s = statistics.median(r.seconds for r in done)
    print(f"wall clock: op p50 {p50_s:.4g} s, op p{q_s} {tail_s:.4g} s, "
          f"{len(done) / window:.4g} ops/s; reference kernel "
          f"{statistics.median(r.seconds / r.kernels for r in done) * 1e3:.4g} ms")
    return {"op_p50_norm": statistics.median(r.kernels for r in done)}


def run(args):
    cli = _import_cli()
    pool = wl.fixture_pool(args.workload, args.seed)
    workdir = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths = _write_configs(args.workload, pool, workdir)
        probe_path = workdir / "probe.json"
        probe_path.write_text(json.dumps(wl.probe_fixture(args.seed).config(args.workload)))
        # set-up is an end-to-end metric, so only untraced runs time it
        setup = [] if args.trace else [time_setup(args) for _ in range(SETUP_REPEATS)]
        refs = {f.index: wl.reference(f) for f in pool}
        runner = Runner(cli, args.workload, pool, paths, refs)
        for command in runner.commands:  # warm-up, not measured
            ops.execute_op(cli.main, command, paths[pool[0].index])
        # keep the harness' own heap (sympy, oracles) out of the collector's
        # full passes during the measured ops
        gc.collect()
        gc.freeze()

        if args.trace:
            rec = tracing.SpanRecorder()
            inst = tracing.Instrumentation(rec)
            results, window = runner.measure(args.seconds, inst)
            inst.install()
            try:
                probe_failed = runner.probe(probe_path, rec)
            finally:
                inst.remove()
            OUT_DIR.mkdir(exist_ok=True)
            rec.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
        else:
            results, window = runner.measure(args.seconds)
            probe_failed = runner.probe(probe_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    entries = list(runner.figures.values())
    digits, per_layer_accuracy = wl.accuracy(args.workload, entries)
    for line in runner.violations:
        print(f"gross violation: {line}")
    for kind, row in wl.by_kind(entries).items():
        print(kind + ": " + ", ".join(f"{k}={v:.3g}" for k, v in sorted(row.items())))
    print(f"seed {args.seed}, workload {args.workload}, pool of {len(pool)} fixtures")

    if args.trace:
        traced = {i: r.seconds for i, r in enumerate(results) if r.completed}
        first = list(range(min(runner.first_pass, len(results))))
        probes = [f"probe-{c}" for c in runner.commands]
        metrics = {}
        metrics.update(tracing.layer_figures(rec.spans, traced))
        metrics.update(tracing.count_figures(rec.counts, first, first + probes))
        metrics.update(per_layer_accuracy)
        metrics["wall.op_p50_s"] = statistics.median(
            r.untraced_s for r in results if r.completed and r.untraced_s
        )
        metrics["trace.overhead"] = statistics.median(
            r.seconds / r.untraced_s for r in results if r.completed and r.untraced_s
        ) - 1.0
        metrics["probe.polynomial_failed"] = probe_failed
    else:
        metrics = {"setup_s": statistics.median(setup), **_timing(results, window),
                   "ref_digits": digits}
    units = _declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise SystemExit("error: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(metrics))}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    failed = sum(not r.completed for r in results)
    line = {
        "correct": not runner.violations,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]}
                    for name, v in metrics.items()},
    }
    print(json.dumps(line))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the system-wide monotonic clock's reading when a set-up probe was launched
    parser.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is not None:
        return setup_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
