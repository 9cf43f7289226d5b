"""Running one CLI command in-process and classifying its outcome, the
reference kernel that op times are normalised by, and the order statistics
the benchmark reports.

An op is one ``hawking-lab`` command on one generated config.  It *fails*
when the command exits 2, raises an uncaught exception, emits no report or an
unparsable one, or reports a non-finite number.  Exit 1 means the command's
own physics check failed: the op completed and its numbers still count.
"""

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class OpResult:
    command: str
    seconds: float
    exit_code: object      # int, or None when the command raised
    report: object         # parsed JSON report, or None
    error: str = ""        # why the op failed; empty when it completed
    untraced_s: object = None  # traced runs: the op's untraced twin's time
    kernels: object = None     # untraced runs: seconds over the reference kernel's

    @property
    def completed(self):
        return not self.error


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report")


def parse_report(text):
    """Parse a report, rejecting empty output and non-finite numbers."""
    if not text.strip():
        raise ValueError("no report on stdout")
    report = json.loads(text, parse_constant=_reject_constant)
    _require_finite(report)
    return report


def _require_finite(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            _require_finite(value)
    elif isinstance(obj, list):
        for value in obj:
            _require_finite(value)
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError("non-finite number in report")


def classify(exit_code, stdout, raised=None):
    """Return ``(report, error)`` for one op; ``error`` is empty on success."""
    if raised is not None:
        return None, f"uncaught {type(raised).__name__}: {raised}"
    if exit_code not in (0, 1):
        return None, f"exit code {exit_code}"
    try:
        return parse_report(stdout), ""
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        return None, f"bad report: {exc}"


def execute_op(main, command, config_path):
    """Run ``main([command, "--config", path])`` with stdout and stderr
    captured, and time it with the wall clock."""
    out, err = io.StringIO(), io.StringIO()
    exit_code, raised = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            exit_code = main([command, "--config", str(config_path)])
    except SystemExit as exc:  # argparse rejects its arguments this way
        exit_code = exc.code
    except Exception as exc:
        raised = exc
    seconds = time.perf_counter() - start
    report, error = classify(exit_code, out.getvalue(), raised)
    return OpResult(command, seconds, exit_code, report, error)


_KERNEL_RNG = np.random.default_rng(20210716)
_KERNEL_FIELD = _KERNEL_RNG.standard_normal((4608, 3, 3))
_KERNEL_POINTS = _KERNEL_RNG.standard_normal((4608, 3))


def _kernel():
    x = _KERNEL_POINTS
    for _ in range(12):
        g = np.einsum("nab,nb->na", _KERNEL_FIELD, x)
        x = x + 1e-3 * np.sin(g) * np.exp(-x * x)
    m = _KERNEL_FIELD[0]
    y = x[0]
    for _ in range(400):
        y = np.tanh(m @ y + 0.1 * np.dot(y, y))
    return y


def reference_kernel_s():
    """Wall time of a fixed numpy workload that does not use hawking_lab.

    It mixes batched contractions over 4608 points, as in a geodesic fan or
    a surface grid, with single-point numpy calls, as in a curvature packet.
    The host's speed drifts by a fifth over seconds; an op's time divided by
    this kernel's time, measured next to it, does not.  The fastest of
    three runs (about 7 ms each on a 2-vCPU Xeon virtual machine) is
    returned, so a single interruption does not count.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def tail_percentile(values, beyond=10):
    """Highest whole percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)`` with the nearest-rank value.  Needs more
    than ``beyond`` samples.
    """
    values = sorted(values)
    n = len(values)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, have {n}")
    q = (100 * (n - beyond)) // n
    rank = max(1, math.ceil(q * n / 100))
    return q, values[rank - 1]


def relerr(value, reference, scale=0.0):
    """``|value - reference| / max(|reference|, scale)``; absolute error when
    both the reference and the scale are zero."""
    den = max(abs(reference), scale)
    diff = abs(value - reference)
    return diff / den if den > 0.0 else diff
