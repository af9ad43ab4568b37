"""Self-test of the benchmark: each workload at a tiny size, and each
output check shown to fire on a deliberately wrong answer.

    python3 perfbench/selftest.py

Run from the root of a checkout. Takes a few seconds.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

workloads = run.load_fedamp()

import checks  # noqa: E402
import spans  # noqa: E402
from fedamp import accountant, divergence  # noqa: E402
from fedamp.accountant import Scheme  # noqa: E402

with open(os.path.join(run.BENCH_DIR, "spec.json")) as f:
    SPEC = json.load(f)

def shifted_delta(shift):
    """delta_for_scheme reporting every delta ``shift`` higher than it is."""
    original = accountant.delta_for_scheme

    def wrong(scheme, params, eps):
        point = original(scheme, params, eps)
        return dataclasses.replace(point, delta=min(1.0, point.delta + shift))

    return mock.patch.object(accountant, "delta_for_scheme", wrong)


class CalibrateChecks(unittest.TestCase):
    SIGMA_OP = ("sigma", {"p": 0.1, "q": 0.1, "d": 5, "eps": 0.5, "delta": 1e-5})
    EPS_OP = ("eps", {"p": 0.1, "q": 0.1, "d": 5, "sigma": 1.0, "delta": 1e-5})
    SWEEP_OP = ("sweep", {"p": 0.1, "q": 0.1, "d": 5, "eps": 0.5, "sigma_lo": 0.5})

    @classmethod
    def setUpClass(cls):
        cls.workload = workloads.Calibrate(SPEC["calibrate"], seed=0)
        cls.sigmas = cls.workload.run(cls.SIGMA_OP)
        cls.epss = cls.workload.run(cls.EPS_OP)
        cls.rows = cls.workload.run(cls.SWEEP_OP)

    def test_right_answers_pass(self):
        self.assertEqual(self.workload.check(self.SIGMA_OP, self.sigmas), [])
        self.assertEqual(self.workload.check(self.EPS_OP, self.epss), [])
        self.assertEqual(self.workload.check(self.SWEEP_OP, self.rows), [])

    def test_sigma_scaled_down_fires(self):
        wrong = {**self.sigmas, Scheme.MAIN: 0.9 * self.sigmas[Scheme.MAIN]}
        self.assertTrue(self.workload.check(self.SIGMA_OP, wrong))

    def test_sigma_scaled_up_fires(self):
        wrong = {**self.sigmas, Scheme.ONLY_LOCAL: 1.1 * self.sigmas[Scheme.ONLY_LOCAL]}
        self.assertTrue(self.workload.check(self.SIGMA_OP, wrong))

    def test_delta_shifted_fires(self):
        with shifted_delta(1e-9):
            self.assertTrue(self.workload.check(self.SIGMA_OP, self.sigmas))
            self.assertTrue(self.workload.check(self.EPS_OP, self.epss))

    def test_eps_off_by_a_step_fires(self):
        low = {**self.epss, Scheme.LOWER_BOUND: self.epss[Scheme.LOWER_BOUND] - 1e-4}
        high = {**self.epss, Scheme.UPPER_BOUND: self.epss[Scheme.UPPER_BOUND] + 1e-4}
        self.assertTrue(self.workload.check(self.EPS_OP, low))
        self.assertTrue(self.workload.check(self.EPS_OP, high))

    def test_sweep_row_missing_or_failed_fires(self):
        self.assertTrue(self.workload.check(self.SWEEP_OP, self.rows[:-1]))
        failed = list(self.rows)
        failed[3] = dataclasses.replace(failed[3], error="forced")
        self.assertTrue(self.workload.check(self.SWEEP_OP, failed))

    def test_answer_at_floor_is_accepted(self):
        floor = accountant.SIGMA_BRACKET[0]
        self.assertEqual(
            checks.check_inversion("floor", floor, floor, lambda x: x / 2, lambda x: 0.0, 1e-6), []
        )


class VerifyChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workload = workloads.Verify(SPEC["verify"], seed=0)
        # the first grid point of every d
        first = {}
        for index, (params, _) in enumerate(cls.workload.grid):
            first.setdefault(params.d, index)
        cls.points = sorted(first.values())
        cls.outputs = {i: cls.workload.run(i) for i in cls.points}

    def test_right_answers_pass(self):
        for i, out in self.outputs.items():
            self.assertEqual(self.workload.check(i, out), [])

    def test_each_wrong_answer_fires(self):
        i = self.points[-1]
        out = self.outputs[i]
        for key, value in (
            ("closed", out["closed"] + 1e-9),
            ("quadrature", out["quadrature"] - 1e-9),
            ("crossings", 2),
            ("pair", out["closed"] + 1e-12),
            ("ub", 2.0 * out["ols"] + 1e-12),
        ):
            with self.subTest(key=key):
                self.assertTrue(self.workload.check(i, {**out, key: value}))

    def test_lb_above_main_is_reported_not_failed(self):
        out = {**self.outputs[self.points[0]]}
        out["lb"] = out["closed"] + 1e-6
        workload = workloads.Verify(SPEC["verify"], seed=0)
        self.assertEqual(workload.check(self.points[0], out), [])
        self.assertEqual(workload.finish()[1]["verify.lb_above_main"], 1)


class TrainChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workload = workloads.Train(SPEC["train"], seed=0)
        cls.rows = {op: cls.workload.run(op) for op in next(cls.workload.rounds())}

    def test_right_answers_pass(self):
        for op, rows in self.rows.items():
            self.assertEqual(self.workload.check(op, rows), [])
        self.assertEqual(self.workload.finish()[0], [])

    def test_nan_or_missing_row_fires(self):
        op, rows = next(iter(self.rows.items()))
        nan_row = list(rows)
        nan_row[7] = dataclasses.replace(nan_row[7], loss=math.nan)
        self.assertTrue(self.workload.check(op, nan_row))
        self.assertTrue(self.workload.check(op, rows[:-1]))

    def test_loss_that_does_not_learn_fires(self):
        self.assertTrue(checks.check_mean_final_loss("logistic_regression", [0.5, 0.9]))


class Tracing(unittest.TestCase):
    def traced_counts(self, workload, ops):
        tracer = spans.Tracer()
        for i, op in enumerate(ops):
            with tracer.op(i):
                workload.run(op)
        return tracer

    def test_counts_repeat_exactly_and_wrappers_are_removed(self):
        cases = [
            (workloads.Calibrate(SPEC["calibrate"], seed=3), slice(3, 6)),
            (workloads.Verify(SPEC["verify"], seed=3), slice(0, 8)),
            (workloads.Train(SPEC["train"], seed=3), slice(0, 1)),
        ]
        for workload, part in cases:
            ops = next(workload.rounds())[part]
            first = self.traced_counts(workload, ops)
            second = self.traced_counts(workload, ops)
            for name in spans.DETERMINISTIC_COUNTS:
                self.assertEqual(first.counts[name], second.counts[name], name)
            self.assertEqual(first.names, second.names)
        self.assertIs(accountant.weighted_normal_pdf, divergence.weighted_normal_pdf)
        self.assertEqual(accountant.find_z_star.__module__, "fedamp.accountant")

    def test_self_time_excludes_children(self):
        # parent [0, 10] with children [1, 3] and [4, 5]; a nested span of
        # the parent's own name counts once in inclusive time
        records = [
            ("a", 0.0, 10.0, -1, 0),
            ("b", 1.0, 3.0, 0, 0),
            ("a", 4.0, 5.0, 0, 0),
        ]
        totals = spans.span_totals(records)
        self.assertEqual(totals["a"]["s"], 10.0)
        self.assertEqual(totals["a"]["self_s"], 7.0 + 1.0)
        self.assertEqual(totals["b"]["calls"], 1)


class ReferenceScaling(unittest.TestCase):
    def test_latency_scaled_by_the_samples_nearest_to_it(self):
        reference = run.Reference({"nominal_ms": 1.0, "share": 0.05, "window": 1})
        # the CPU runs at half speed for ops 0-2 and at full speed for ops 3-5;
        # op 3 sits between a slow and a fast sample
        reference.after, reference.seconds = list(range(6)), [0.002] * 3 + [0.001] * 3
        scaled = reference.scaled([0.2] * 3 + [0.1] * 3)
        self.assertEqual(scaled[:3] + scaled[4:], [0.1] * 5)

    def test_samples_take_about_their_share_of_op_time(self):
        reference = run.Reference(SPEC["reference"])
        for _ in range(200):
            reference.after_op(0.01)
        self.assertGreater(len(reference.seconds), 0)
        self.assertLess(sum(reference.seconds), 2 * reference.share * reference.op_seconds + 0.01)


class Contract(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END_UNITS)
        layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        produced = list(spans.layer_metrics([], collections.Counter())) + ["trace.ops", "trace.overhead"]
        self.assertEqual(sorted(layer), sorted(produced))
        self.assertEqual(layer, {name: spans.unit(name) for name in produced})
        self.assertEqual(sorted(SPEC["layers"]), sorted(layer))
        self.assertLessEqual({w["name"] for w in bench["workloads"]}, set(run.WORKLOAD_NAMES))

    def test_refuses_to_run_without_the_program(self):
        bare = os.path.join(run.OUT_DIR, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "train",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
