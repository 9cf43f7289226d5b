"""Tests of the benchmark harness: op classification, the tail-percentile
rule, the counting proxy and seeded fixtures."""

import json

import numpy as np
import pytest

import ops
import tracing
import workloads
from hawking_lab import EuclideanMetric, GeodesicConfig, GeodesicFan, build_grid
from hawking_lab import cli, curvature_packet

REPORT = json.dumps({"command": "curvature", "value": 1.5})


def _fake_main(code=0, text=REPORT, exc=None):
    def main(argv):
        if exc is not None:
            raise exc
        print(text)
        return code

    return main


class TestClassification:
    def test_exit_zero_completes(self):
        result = ops.execute_op(_fake_main(0), "curvature", "cfg.json")
        assert result.completed and result.report["value"] == 1.5

    def test_exit_one_completes(self):
        # a failed physics check still yields a report whose numbers count
        result = ops.execute_op(_fake_main(1), "curvature", "cfg.json")
        assert result.completed and result.exit_code == 1

    def test_exit_two_fails(self):
        result = ops.execute_op(_fake_main(2), "curvature", "cfg.json")
        assert not result.completed and "exit code 2" in result.error

    def test_traceback_fails(self):
        result = ops.execute_op(_fake_main(exc=ValueError("broadcast")), "curvature", "c")
        assert not result.completed and "ValueError" in result.error

    def test_argparse_exit_fails(self):
        result = ops.execute_op(_fake_main(exc=SystemExit(2)), "curvature", "c")
        assert not result.completed

    @pytest.mark.parametrize("text", ["", "not json", '{"x": nan}', '{"x": [1, Infinity]}'])
    def test_missing_or_bad_report_fails(self, text):
        result = ops.execute_op(_fake_main(0, text), "curvature", "cfg.json")
        assert not result.completed and "report" in result.error

    def test_real_cli_bad_config_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"metric": {"kind": "no_such_kind"}}))
        result = ops.execute_op(cli.main, "curvature", path)
        assert result.exit_code == 2 and not result.completed


class TestTailPercentile:
    def test_ten_beyond(self):
        values = list(range(1, 101))
        q, value = ops.tail_percentile(values)
        assert (q, value) == (90, 90)
        assert sum(v > value for v in values) >= 10

    @pytest.mark.parametrize("n", [11, 13, 17, 30, 99, 1000])
    def test_always_ten_beyond_and_highest(self, n):
        values = list(np.random.default_rng(n).permutation(n) + 1.0)
        q, value = ops.tail_percentile(values)
        assert sum(v > value for v in values) >= 10
        # one percentile higher would leave fewer than ten beyond
        rank = int(np.ceil((q + 1) * n / 100))
        assert q == 99 or n - rank < 10

    def test_needs_eleven(self):
        with pytest.raises(ValueError):
            ops.tail_percentile(list(range(10)))


class TestCountingProxy:
    def _fan_counts(self):
        rec = tracing.SpanRecorder()
        rec.op = 0
        inst = tracing.Instrumentation(rec).install()
        try:
            metric = tracing.CountingMetric(EuclideanMetric(), rec)
            grid = build_grid(8, 16)
            packet = curvature_packet(EuclideanMetric(), np.zeros(3))
            GeodesicFan(metric, np.zeros(3), grid, 0.1, GeodesicConfig(), packet=packet)
        finally:
            inst.remove()
        return dict(rec.counts[0]), rec

    def test_counts_on_tiny_grid(self):
        counts, rec = self._fan_counts()
        n = 8 * 16
        assert counts["geodesics.fan_builds"] == 1
        assert counts["geodesics.rhs_evals"] > 0
        # every right-hand side evaluates g and dg once on the whole fan
        assert counts["manifold.g_points"] == n * counts["geodesics.rhs_evals"]
        assert counts["manifold.dg_points"] == n * counts["geodesics.rhs_evals"]
        assert "manifold.ddg_points" not in counts
        assert [s[4] for s in rec.spans] == ["fan"]

    def test_counts_repeat_exactly(self):
        assert self._fan_counts()[0] == self._fan_counts()[0]

    def test_remove_restores_package(self):
        before = (GeodesicFan.__init__, cli.curvature_packet, dict(cli._COMMANDS))
        inst = tracing.Instrumentation(tracing.SpanRecorder()).install()
        assert cli.curvature_packet is not before[1]
        inst.remove()
        assert (GeodesicFan.__init__, cli.curvature_packet, dict(cli._COMMANDS)) == before

    def test_errors_charged_to_raising_layer(self):
        rec = tracing.SpanRecorder()
        rec.op = 0

        def inner():
            raise ValueError("boom")

        outer = rec.wrap(lambda: rec.wrap(inner, "manifold", "packet")(), "cli", "command")
        with pytest.raises(ValueError):
            outer()
        assert dict(rec.counts[0]) == {"manifold.errors": 1}


def test_self_time_subtracts_children():
    spans = [[0, None, 0, "cli", "command", 0.0, 10.0],
             [1, 0, 0, "manifold", "packet", 1.0, 4.0],
             [2, 0, 0, "geodesics", "fan", 5.0, 9.0]]
    assert tracing.self_times(spans) == [3.0, 3.0, 4.0]


class TestFixtures:
    def test_same_seed_same_inputs(self):
        a = workloads.fixture_pool("ladder", 7)
        b = workloads.fixture_pool("ladder", 7)
        assert [f.config("ladder") for f in a] == [f.config("ladder") for f in b]

    def test_other_seed_other_inputs(self):
        a = workloads.fixture_pool("packets", 1)
        b = workloads.fixture_pool("packets", 2)
        assert [f.point for f in a] != [f.point for f in b]

    def test_points_inside_charts(self):
        for fixture in workloads.fixture_pool("packets", 3):
            metric = cli.metric_from_config(fixture.metric)
            assert metric.domain_guard(np.asarray(fixture.point))

    def test_closed_form_reference_matches_package(self):
        for fixture in workloads.fixture_pool("ladder", 5)[:4]:
            ref = workloads.reference(fixture)
            packet = curvature_packet(cli.metric_from_config(fixture.metric), fixture.point)
            assert ops.relerr(packet.scalar, ref.scalar, ref.kappa) < 1e-6
            assert ops.relerr(packet.traceless_norm_sq, ref.traceless_norm_sq,
                              ref.kappa**2) < 1e-6


def test_gate_flags_wrong_packet():
    fixture = workloads.fixture_pool("packets", 1)[1]  # round sphere: Sc = 6
    ref = workloads.reference(fixture)
    packet = {"scalar": 6.0, "traceless_norm_sq": 0.0, "scalar_laplacian": 0.0}
    report = {"command": "curvature", "config": {"point": fixture.point}, "packet": packet}
    result = ops.OpResult("curvature", 0.0, 0, report)
    assert workloads.assess(result, fixture, ref)[1] == []
    packet["scalar"] = 6.1
    assert workloads.assess(result, fixture, ref)[1]


def test_conformal_reference_matches_package():
    fixture = workloads.fixture_pool("packets", 2)[4]
    assert fixture.kind == "conformal"
    ref = workloads.reference(fixture)
    packet = curvature_packet(cli.metric_from_config(fixture.metric), fixture.point)
    assert ops.relerr(packet.scalar, ref.scalar, ref.kappa) < 1e-6
    assert ops.relerr(packet.traceless_norm_sq, ref.traceless_norm_sq, ref.kappa**2) < 1e-6
    assert ops.relerr(packet.scalar_laplacian, ref.scalar_laplacian, ref.kappa**2) < 1e-3


def test_op_times_normalised_by_kernels_around_block():
    import run

    blocks = [[ops.OpResult("curvature", 0.2, 0, {}), ops.OpResult("curvature", 0.4, 0, {})],
              [ops.OpResult("curvature", 0.3, 0, {})]]
    # block 0 sits between timings 0 and 1: median of timings 0, 1, 2
    # block 1 between timings 1 and 2: median of timings 0 to 2
    run._normalise(blocks, [0.01, 0.02, 0.04])
    assert [r.kernels for b in blocks for r in b] == pytest.approx([10.0, 20.0, 15.0])
