"""Run the benchmark once per seed and report each metric's spread.

Usage, from the root of a checkout:

    python3 bench/repeat.py --workload ladder --seeds 1-10

Each run is untraced and measures for ``run_seconds`` of ``BENCHMARK.json``.
The spread of a metric is the distance between the first and third quartile
of its values (``statistics.quantiles(values, n=4)``) as a share of their
median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def _seeds(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = parser.parse_args(argv)
    seconds = str(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(line)
        values = " ".join(f"{m['value']:.4g}" for m in line["metrics"].values())
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']} {values}", flush=True)

    print(f"{'metric':32s} {'median':>12s} {'spread':>8s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        sp = spread(values) if len(values) >= 2 else float("nan")
        print(f"{name:32s} {statistics.median(values):12.6g} {sp:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
