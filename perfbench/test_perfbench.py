"""Self-tests of the benchmark's checks, span arithmetic and latency summary.

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
import speed  # noqa: E402
from spans import Tracer, per_layer_metrics, self_times  # noqa: E402
from worker import latency_summary  # noqa: E402


def _analysis_output() -> str:
    """A real `analyze --bootstrap 100 --curve 20` document from the checkout."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from evtv import cli

    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        csv = Path(tmp) / "c.csv"
        sim = workloads.run_cli(cli, ["simulate", "--n", "300", "--bootstrap", "0", "--seed",
                                      "3", "--cohort-out", str(csv)])
        assert sim.code == 0, sim.err
        call = workloads.run_cli(cli, ["analyze", "--input", str(csv), "--bootstrap", "100",
                                       "--seed", "3", "--curve", "20"])
        assert call.code == 0, call.err
        return call.out


class CheckerRejectsCorruptOutput(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.text = _analysis_output()

    def check(self, text):
        checks.check_analysis(checks.strict_json(text), with_ci=True, curve_points=20)

    def test_untouched_output_passes(self):
        self.check(self.text)

    def test_infinity_rejected(self):
        doc = json.loads(self.text)
        doc["report"]["evalue_single"] = float("inf")
        with self.assertRaises(CheckFailed):
            self.check(json.dumps(doc))

    def test_nan_rejected(self):
        doc = json.loads(self.text)
        doc["estimate"]["weight_max"] = float("nan")
        with self.assertRaises(CheckFailed):
            self.check(json.dumps(doc))

    def test_overflowing_literal_rejected(self):
        with self.assertRaises(CheckFailed):
            checks.strict_json('{"x": 1e400}')

    def test_perturbed_rr_obs_rejected(self):
        doc = json.loads(self.text)
        doc["estimate"]["rr_obs"] *= 1.0 + 1e-6
        with self.assertRaises(CheckFailed):
            self.check(json.dumps(doc))

    def test_perturbed_evalue_rejected(self):
        doc = json.loads(self.text)
        doc["report"]["evalue_equal_split"] *= 1.0 + 1e-9
        with self.assertRaises(CheckFailed):
            self.check(json.dumps(doc))

    def test_reference_mismatch_fails_op(self):
        op = workloads.Op(0, 11, [[]], info={"format": "csv", "target": 2.0})
        text = "\n".join([checks.CURVE_HEADER] + [
            ",".join(repr(v) for v in row) for row in _curve_rows(2.0, 200)]) + "\n"
        call = workloads.Call(0, text, "")
        wl = workloads.WORKLOADS["evalue_batch"]
        e = checks.evalue(2.0)
        ok_ref = [{"seed": 11, "values": {"strength_max": e}}]
        self.assertIsNone(workloads.judge(wl, op, [call], ok_ref)[1])
        bad_ref = [{"seed": 11, "values": {"strength_max": e * (1 + 1e-6)}}]
        self.assertIsNotNone(workloads.judge(wl, op, [call], bad_ref)[1])

    def test_unexpected_exit_code_fails_op(self):
        op = workloads.Op(0, 1, [[]], expect=2, kind="inf")
        reason = workloads.judge(None, op, [workloads.Call(0, "{}", "")], None)[1]
        self.assertIn("exit code 0", reason)


def _curve_rows(target, n):
    e = checks.evalue(target)
    rows = [(1.0, e, 1.0, target)]
    step = (e - 1.0) / (n - 1)
    for i in range(1, n - 1):
        s0 = 1.0 + i * step
        b0 = s0 * s0 / (2.0 * s0 - 1.0)
        rows.append((s0, checks.evalue(target / b0), b0, target / b0))
    rows.append((e, 1.0, target, 1.0))
    return rows


class SelfTimeArithmetic(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
        spans = [
            ["cli.main", 0.0, 10.0, -1, 0, False],
            ["estimation.fit_msm", 1.0, 4.0, 0, 0, False],
            ["report.write_json", 5.0, 9.0, 0, 0, False],
            ["evalue.build_report", 6.0, 8.0, 2, 0, False],
        ]
        self.assertEqual(self_times(spans), [3.0, 3.0, 2.0, 2.0])

    def test_layer_metrics(self):
        tracer = Tracer()
        tracer.spans = [
            ["cli.main", 0.0, 10.0, -1, 0, False],
            ["estimation.bootstrap_ci", 1.0, 7.0, 0, 0, False],
            ["cli.main", 12.0, 16.0, -1, 1, False],
            ["estimation.fit_msm", 13.0, 14.0, 2, 1, True],
        ]
        tracer.counts["estimation.bootstrap_ci.replicates"] = 1200
        m = per_layer_metrics(tracer, op_walls=[11.0, 5.0], untraced_walls=[8.0])
        self.assertEqual(m["cli.main.self_s"], (4.0 + 3.0) / 2)
        self.assertEqual(m["estimation.bootstrap_ci.self_s"], 3.0)
        self.assertEqual(m["estimation.bootstrap_ci.calls"], 0.5)
        self.assertEqual(m["estimation.bootstrap_ci.replicates_per_s"], 200.0)
        self.assertEqual(m["estimation.errors"], 0.5)
        self.assertEqual(m["estimation.share"], 7.0 / 16.0)
        self.assertEqual(m["unattributed.self_s"], 1.0)
        self.assertEqual(m["trace.overhead_frac"], 0.0)
        self.assertEqual(m["simulation.generate_cohort.rows_per_s"], 0.0)

    def test_wrapped_calls_nest(self):
        tracer = Tracer()

        def inner():
            return 1

        inner_t = tracer.wrap("evalue.tradeoff_curve", inner)
        outer_t = tracer.wrap("cli.main", lambda: inner_t() + inner_t())
        self.assertEqual(outer_t(), 2)
        self.assertEqual(tracer.spans, [])  # no op is being timed
        tracer.op = 0
        self.assertEqual(outer_t(), 2)
        self.assertEqual([(s[0], s[3]) for s in tracer.spans],
                         [("cli.main", -1), ("evalue.tradeoff_curve", 0),
                          ("evalue.tradeoff_curve", 0)])


class LatencySummary(unittest.TestCase):
    def test_p90_omitted_below_100_ops(self):
        out = latency_summary([0.1] * 99)
        self.assertNotIn("latency_p90_s", out)
        self.assertEqual(out["latency_samples"], 99)

    def test_p90_reported_from_100_ops(self):
        out = latency_summary([float(i) for i in range(1, 101)])
        self.assertEqual(out["latency_p50_s"], 50.5)
        self.assertAlmostEqual(out["latency_p90_s"], 90.1)


class PlannedOps(unittest.TestCase):
    def test_count_fills_seconds_at_nominal_op_time(self):
        for wl in workloads.WORKLOADS.values():
            planned_s = workloads.planned_ops(wl, 25) * wl.nominal_op_s
            self.assertLessEqual(abs(planned_s - 25), wl.block * wl.nominal_op_s / 2 + 1e-9)
            self.assertGreaterEqual(workloads.planned_ops(wl, 1), 1)

    def test_evalue_batch_failure_share_is_fixed(self):
        wl = workloads.WORKLOADS["evalue_batch"]
        for seconds in (1, 10, 25):
            count = workloads.planned_ops(wl, seconds)
            self.assertEqual(count % 100, 0)
            kinds = [wl.prepare(None, i, workloads.op_seed(3, i), None).kind
                     for i in range(count)]
            defects = sum(k in workloads.KNOWN_DEFECT_KINDS for k in kinds)
            self.assertEqual(defects * 100, 3 * count)


class HostSpeed(unittest.TestCase):
    def test_factor_scales_to_nominal_job_time(self):
        factor = speed.speed_factor([0.1, 0.3, 0.2])
        self.assertAlmostEqual(factor, speed.NOMINAL_S / 0.2)
        self.assertAlmostEqual(0.2 * factor, speed.NOMINAL_S)

    def test_probe_runs_job_in_its_own_process(self):
        probe = speed.SpeedProbe()
        try:
            self.assertGreater(probe.sample(), 0.0)
        finally:
            probe.close()
        self.assertEqual(probe.proc.returncode, 0)


if __name__ == "__main__":
    unittest.main()
