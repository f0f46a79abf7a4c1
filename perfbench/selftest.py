"""Self-tests of the benchmark's own logic (not of quadstage).

    python3 perfbench/selftest.py

Kept out of the repository's pytest suite on purpose (the file name does
not match test_*.py), so the benchmark never adds to tier-1 test time.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import sys
import tempfile
import time
import types
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=-1, rep=0):
    return [name, start, end, parent, rep]


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        recorded = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 4.0, parent=0),
            span("a.inner", 2.0, 3.0, parent=1),
            span("b", 5.0, 7.0, parent=0),
            span("c", 6.0, 8.0, parent=0),  # overlaps b: [5, 8] is covered once
            span("d", 9.5, 11.0, parent=0),  # sticks out of root: clipped to [9.5, 10]
        ]
        self.assertEqual(spans.self_times(recorded), [3.5, 2.0, 1.0, 2.0, 2.0, 1.5])

    def test_rollup_separates_layer_entry_from_nested_calls(self):
        recorded = [
            span("cli.gen", 0.0, 10.0),
            span("logio.write_trajectory", 1.0, 5.0, parent=0),
            span("logio.write_table", 2.0, 4.0, parent=1),
            span("logio.atomic_write_text", 6.0, 7.0, parent=0),
        ]
        table = spans.rollup(recorded)[0]
        self.assertEqual(table["logio.write_table"], [1, 2.0, 2.0, 0.0])
        self.assertEqual(table["logio.write_trajectory"], [1, 4.0, 2.0, 4.0])
        view = layers.RepView(table, {})
        self.assertEqual(view.outer(layers.WRITE_SPANS), 5.0)

    def test_tracer_wraps_module_and_dict_attributes(self):
        ticks = iter(range(100))
        tracer = spans.Tracer(clock=lambda: float(next(ticks)))
        mod = types.SimpleNamespace()
        mod.leaf = lambda x: x + 1
        mod.outer = lambda x: mod.leaf(x) * 2
        stages = {"go": lambda: mod.outer(1)}
        mod.fail = lambda: 1 / 0
        original, original_go = mod.leaf, stages["go"]
        tracer.rep = 7
        tracer.install(mod, "leaf", "k.leaf", counter=lambda a, kw, r: {"k.items": a[0]})
        tracer.install(mod, "outer", "k.outer")
        tracer.install(stages, "go", "cli.go")
        tracer.install(mod, "fail", "k.fail")
        self.assertEqual(stages["go"](), 4)
        with self.assertRaises(ZeroDivisionError):
            mod.fail()
        tracer.uninstall()
        self.assertIs(mod.leaf, original)
        self.assertIs(stages["go"], original_go)
        names = [s[spans.NAME] for s in tracer.spans]
        parents = [s[spans.PARENT] for s in tracer.spans]
        self.assertEqual(names, ["cli.go", "k.outer", "k.leaf", "k.fail"])
        self.assertEqual(parents, [-1, 0, 1, -1])
        self.assertTrue(all(s[spans.END] is not None for s in tracer.spans))
        self.assertEqual(dict(tracer.counts), {(7, "k.items"): 1})


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(measure.tail_percentile(range(10)))
        self.assertEqual(measure.tail_percentile(range(11)), (100.0 / 11, 0))
        self.assertEqual(measure.tail_percentile(range(20)), (50.0, 9))
        pct, value = measure.tail_percentile(list(range(100))[::-1])
        self.assertEqual((pct, value), (90.0, 89))
        self.assertEqual(sum(v > value for v in range(100)), 10)


class SpeedTest(unittest.TestCase):
    def test_scaled_removes_kernel_time_and_machine_slowness(self):
        # Twice as slow as nominal, 0.1 s of the 2.1 s spent in the kernel.
        self.assertAlmostEqual(speed.scaled(2.1, 0.1, 2 * speed.NOMINAL_KERNEL_S), 1.0)
        self.assertAlmostEqual(speed.scaled(1.0, 0.0, speed.NOMINAL_KERNEL_S), 1.0)

    def test_sampler_samples_while_active_and_restores_the_handler(self):
        previous = signal.getsignal(signal.SIGALRM)
        sampler = speed.Sampler()
        with sampler:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 10 * speed.PERIOD_S:
                sum(range(1000))
            elapsed = time.perf_counter() - t0
        self.assertGreaterEqual(len(sampler.samples), 5)
        self.assertAlmostEqual(sampler.spent, sum(sampler.samples))
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        value = sampler.normalise(elapsed)
        mean = sampler.kernel_means[0]
        self.assertEqual(sampler.raw, [elapsed])
        self.assertAlmostEqual(value, (elapsed - sampler.spent) * speed.NOMINAL_KERNEL_S / mean)

    def test_short_repetition_is_topped_up_after_the_timed_region(self):
        sampler = speed.Sampler()
        with sampler:
            pass
        sampler.normalise(1e-6)
        self.assertEqual(len(sampler.samples), speed.MIN_SAMPLES)
        self.assertEqual(sampler.spent, 0.0)

    def test_run_reps_returns_normalised_times(self):
        class Quick:
            def run(self, rep):
                return rep

            def check(self, outcome):
                return None

        sampler = speed.Sampler()
        walls = measure.run_reps(Quick(), measure.Tally(), seconds=0.0, min_reps=3, sampler=sampler)
        self.assertEqual(len(sampler.raw), 3)
        self.assertEqual(walls, [speed.scaled(raw, 0.0, mean)
                                 for raw, mean in zip(sampler.raw, sampler.kernel_means)])


class FakeCli:
    """Stands in for quadstage.cli: writes the documented artifact set."""

    def __init__(self, rmse, tamper_rep=None):
        self.rmse = rmse
        self.tamper_rep = tamper_rep
        self.calls = 0

    def main(self, argv):
        run_dir = os.path.join(argv[argv.index("--runs-root") + 1], argv[argv.index("--run-id") + 1])
        os.makedirs(run_dir)
        for name in workloads.EXPECTED_ARTIFACTS:
            with open(os.path.join(run_dir, name), "w") as fh:
                fh.write(f"{name}\n")
        report = ["# quadstage report config=0", "[pose_rmse]"]
        report += [f"{k} = {v!r}" for k, v in self.rmse.items()] + ["[joint_rmse]"]
        with open(os.path.join(run_dir, "report.txt"), "w") as fh:
            fh.write("\n".join(report) + "\n")
        if self.calls == self.tamper_rep:
            with open(os.path.join(run_dir, "sim_log.csv"), "a") as fh:
                fh.write("tampered\n")
        self.calls += 1
        return 0


class FailureAccountingTest(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.OUT_DIR, exist_ok=True)
        self.work = tempfile.mkdtemp(dir=run.OUT_DIR)
        self.rmse = {k: 1.0 + i for i, k in enumerate(workloads.REPORT_POSE_KEYS)}

    def tearDown(self):
        shutil.rmtree(self.work)

    def pipeline(self, cli, reference):
        workload = workloads.PipelineWorkload("fake", "why", None, 3, reference)
        workload.prepare({"cli": cli}, self.work, seed=0)
        return workload

    def test_tampered_artifact_is_a_counted_failure(self):
        workload = self.pipeline(FakeCli(self.rmse, tamper_rep=2), self.rmse)
        tally = measure.Tally()
        measure.warm_up(workload, tally)
        walls = measure.run_reps(workload, tally, seconds=0.0, min_reps=3)
        self.assertEqual((tally.attempted, tally.failed), (4, 1))
        self.assertIn("sim_log.csv", tally.reasons[0])
        self.assertEqual(len(walls), 2)  # the failed repetition gives no time
        self.assertEqual(os.listdir(self.work), [])  # every runs root removed

    def test_changed_reference_rmse_fails_every_repetition(self):
        reference = dict(self.rmse, rotation_z_deg=self.rmse["rotation_z_deg"] * (1 + 1e-5))
        workload = self.pipeline(FakeCli(self.rmse), reference)
        tally = measure.Tally()
        measure.run_reps(workload, tally, seconds=0.0, min_reps=2)
        self.assertEqual((tally.attempted, tally.failed), (2, 2))
        self.assertIn("rotation_z_deg", tally.reasons[0])

    def test_last_digit_rmse_change_passes(self):
        reference = dict(self.rmse, rotation_z_deg=self.rmse["rotation_z_deg"] * (1 + 1e-9))
        workload = self.pipeline(FakeCli(self.rmse), reference)
        tally = measure.Tally()
        measure.run_reps(workload, tally, seconds=0.0, min_reps=2)
        self.assertEqual(tally.failed, 0)

    def test_raising_repetition_is_a_counted_failure(self):
        class Broken:
            def run(self, rep):
                raise ValueError("boom")

            def check(self, outcome):
                raise AssertionError("not reached")

        tally = measure.Tally()
        walls = measure.run_reps(Broken(), tally, seconds=0.0, min_reps=2)
        self.assertEqual((tally.attempted, tally.failed), (2, 2))
        self.assertEqual(len(walls), 2)  # with no passing repetition, every time is kept
        self.assertEqual(tally.reasons[0], "ValueError: boom")

    def test_scan_outcome_or_reconstruction_mismatch_fails(self):
        pose = types.SimpleNamespace(position=np.zeros(3), orientation_deg=np.array([0, 0, 179.999]))
        good = types.SimpleNamespace(position=np.zeros(3), orientation_deg=np.array([0, 0, -179.999]))
        off = types.SimpleNamespace(position=np.array([0, 0, 1e-3]), orientation_deg=np.zeros(3))
        self.assertIsNone(workloads.scan_mismatch([pose], "v", "v", {0: good}))
        self.assertIn("pose 0", workloads.scan_mismatch([pose], "v", "v", {0: off}))
        self.assertIn("expected pivot, got valid", workloads.scan_mismatch([pose], "p", "v", {0: good}))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_reported_metrics(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        reported = {name: unit for name, unit, _ in layers.REPORTED}
        reported["trace.overhead_s"] = "s"
        self.assertEqual(per_layer, reported)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        self.assertTrue(all(len(w["why"]) <= 200 for w in spec["workloads"]))

    def test_labels_match_the_pose_pool(self):
        digest, labels = workloads.read_labels()
        limits = types.SimpleNamespace(x_max=255.0, y_max=105.0, z_max=105.0, rot_max=30.0)
        self.assertEqual(digest, workloads.pool_digest(workloads.scan_pool(limits)))
        self.assertEqual(len(labels), workloads.SCAN_POOL_SIZE)
        self.assertLessEqual(set(labels), set(workloads.OUTCOMES))


if __name__ == "__main__":
    unittest.main()
