"""Layer boundaries the traced run wraps, and the per-layer metrics.

Callers resolve these functions through their own module globals at call
time: ``cli`` from-imports ``solve_platform_ik``, ``run_sim``,
``reconstruct_series`` and the config functions, ``simenv`` imports
``leg_jacobian``, ``postprocess`` imports ``leg_fk`` and the geometry
functions, and ``cli.main`` calls stages through the ``cli.STAGES`` dict.
So each wrapper sits on the attribute of the module that makes the call.
"""

from __future__ import annotations

import os
import statistics

import numpy as np


def _rows_written(args, kwargs, result):
    rows = args[4] if len(args) > 4 else kwargs["rows"]
    return {"logio.rows_written": len(np.atleast_2d(rows))}


def _file_written(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"logio.files_written": 1, "logio.bytes_written": len(text.encode("utf-8"))}


def _table_read(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"logio.rows_read": len(result[2]), "logio.bytes_read": os.path.getsize(path)}


def _trajectory_samples(args, kwargs, result):
    return {"trajectory.samples": len(result)}


def _series_samples(args, kwargs, result):
    return {"postprocess.samples": len(result)}


def targets(modules) -> list[tuple]:
    """(owner, attribute, span name, counter) for every traced boundary."""
    cli = modules["cli"]
    config = modules["config"]
    kin = modules["kinematics"]
    post = modules["postprocess"]
    sim = modules["simenv"]
    logio = modules["logio"]
    out = [(cli.STAGES, stage, f"cli.{stage}", None) for stage in ("gen", "ik", "sim", "post")]
    out += [
        (cli, "load_config", "config.load", None),
        (cli, "default_config", "config.load", None),
        (config, "default_config", "config.load", None),
        (cli, "config_hash", "config.config_hash", None),
        (config.Config, "build_trajectory", "trajectory.build", _trajectory_samples),
        (cli, "solve_platform_ik", "kinematics.solve_platform_ik", None),
        (kin, "solve_platform_ik", "kinematics.solve_platform_ik", None),
        (kin, "workspace_check", "kinematics.workspace_check", None),
        (kin, "pivot_angles_deg", "kinematics.pivot_angles_deg", None),
        (kin, "leg_ik", "kinematics.leg_ik", None),
        (kin, "leg_fk", "kinematics.leg_fk", None),
        (post, "leg_fk", "kinematics.leg_fk", None),
        (sim, "leg_jacobian", "kinematics.leg_jacobian", None),
        (kin, "euler_to_rotation", "geometry.euler_to_rotation", None),
        (post, "align_vectors", "geometry.align_vectors", None),
        (post, "line_closest_midpoint", "geometry.line_closest_midpoint", None),
        (post, "rotation_to_euler", "geometry.rotation_to_euler", None),
        (cli, "run_sim", "simenv.run_sim", None),
        (sim, "sim_step", "simenv.tick", None),
        (sim, "gravity_torque", "simenv.gravity_torque", None),
        (sim, "pd_control", "simenv.pd_control", None),
        (cli, "reconstruct_series", "postprocess.reconstruct_series", _series_samples),
        (post, "reconstruct_pose", "postprocess.reconstruct_pose", None),
        (cli, "filter_series", "postprocess.filter_series", None),
        (cli, "differentiate", "postprocess.differentiate", None),
        (cli, "rmse_report", "postprocess.rmse", None),
        (cli, "joint_rmse", "postprocess.rmse", None),
        (logio, "atomic_write_text", "logio.atomic_write_text", _file_written),
        (logio, "write_table", "logio.write_table", _rows_written),
        (logio, "read_table", "logio.read_table", _table_read),
    ]
    out += [(logio, f, f"logio.{f}", None) for f in WRITERS + READERS]
    return out


WRITERS = ("write_trajectory", "write_joint_targets", "write_log", "write_plot_channel", "write_report")
READERS = ("read_trajectory", "read_joint_targets", "read_log")
WRITE_SPANS = {f"logio.{f}" for f in WRITERS + ("atomic_write_text", "write_table")}
READ_SPANS = {f"logio.{f}" for f in READERS + ("read_table",)}


class RepView:
    """Rolled-up spans and counters of one traced repetition."""

    def __init__(self, names: dict, counts: dict):
        self.names = names
        self.counts = counts

    def calls(self, name):
        return self.names[name][0] if name in self.names else 0

    def total(self, name):
        return self.names[name][1] if name in self.names else 0.0

    def outer(self, names):
        return sum(self.names[n][3] for n in names if n in self.names)

    def per_call_us(self, name):
        calls = self.calls(name)
        return 1e6 * self.total(name) / calls if calls else 0.0

    def per_count_us(self, seconds, counter):
        count = self.counts.get(counter, 0)
        return 1e6 * seconds / count if count else 0.0


def _calls(name):
    return lambda v: v.calls(name)


def _seconds(name):
    return lambda v: v.total(name)


def _us_per_call(name):
    return lambda v: v.per_call_us(name)


def _counter(name):
    return lambda v: v.counts.get(name, 0)


# (name, unit, value from a RepView).  REPORTED goes into the result line
# (BENCHMARK.json lists it): counts, and times that every workload
# measures.  PRINTED_ONLY holds the times that read 0 on a workload that
# skips their layer; they are printed by name but not reported, because a
# time that reads the same on every run is rejected as a measurement.
REPORTED = [
    ("config.load_s", "s", lambda v: v.total("config.load") / max(v.calls("config.load"), 1)),
    ("config.config_hash.calls", "count", _calls("config.config_hash")),
    ("trajectory.samples", "count", _counter("trajectory.samples")),
    ("kinematics.solve_platform_ik.calls", "count", _calls("kinematics.solve_platform_ik")),
    ("kinematics.solve_platform_ik.us_per_call", "us", _us_per_call("kinematics.solve_platform_ik")),
    ("kinematics.leg_ik.calls", "count", _calls("kinematics.leg_ik")),
    ("kinematics.leg_ik.us_per_call", "us", _us_per_call("kinematics.leg_ik")),
    ("kinematics.leg_fk.calls", "count", _calls("kinematics.leg_fk")),
    ("kinematics.leg_fk.us_per_call", "us", _us_per_call("kinematics.leg_fk")),
    ("kinematics.leg_jacobian.calls", "count", _calls("kinematics.leg_jacobian")),
    ("kinematics.pivot_angles_deg.calls", "count", _calls("kinematics.pivot_angles_deg")),
    ("geometry.align_vectors.calls", "count", _calls("geometry.align_vectors")),
    ("geometry.line_closest_midpoint.calls", "count", _calls("geometry.line_closest_midpoint")),
    ("geometry.rotation_to_euler.calls", "count", _calls("geometry.rotation_to_euler")),
    ("geometry.euler_to_rotation.calls", "count", _calls("geometry.euler_to_rotation")),
    ("simenv.ticks", "count", _calls("simenv.tick")),
    ("postprocess.reconstruct_pose.us_per_call", "us", _us_per_call("postprocess.reconstruct_pose")),
    ("logio.files_written", "count", _counter("logio.files_written")),
    ("logio.bytes_written", "bytes", _counter("logio.bytes_written")),
    ("logio.bytes_read", "bytes", _counter("logio.bytes_read")),
]

PRINTED_ONLY = [
    ("cli.gen_s", "s", _seconds("cli.gen")),
    ("cli.ik_s", "s", _seconds("cli.ik")),
    ("cli.sim_s", "s", _seconds("cli.sim")),
    ("cli.post_s", "s", _seconds("cli.post")),
    ("config.config_hash_s", "s", _seconds("config.config_hash")),
    ("trajectory.build_s", "s", _seconds("trajectory.build")),
    ("kinematics.leg_jacobian.us_per_call", "us", _us_per_call("kinematics.leg_jacobian")),
    ("kinematics.workspace_check.us_per_call", "us", _us_per_call("kinematics.workspace_check")),
    ("simenv.tick_us", "us", _us_per_call("simenv.tick")),
    ("simenv.gravity_torque.us_per_call", "us", _us_per_call("simenv.gravity_torque")),
    ("simenv.pd_control.us_per_call", "us", _us_per_call("simenv.pd_control")),
    ("postprocess.reconstruct_series.us_per_sample", "us",
     lambda v: v.per_count_us(v.total("postprocess.reconstruct_series"), "postprocess.samples")),
    ("postprocess.filter_series_s", "s", _seconds("postprocess.filter_series")),
    ("postprocess.differentiate_s", "s", _seconds("postprocess.differentiate")),
    ("postprocess.rmse_s", "s", _seconds("postprocess.rmse")),
    ("logio.write_s", "s", lambda v: v.outer(WRITE_SPANS)),
    ("logio.read_s", "s", lambda v: v.outer(READ_SPANS)),
    ("logio.write_us_per_row", "us",
     lambda v: v.per_count_us(v.total("logio.write_table"), "logio.rows_written")),
    ("logio.read_us_per_row", "us",
     lambda v: v.per_count_us(v.total("logio.read_table"), "logio.rows_read")),
]


def layer_metrics(views: list[RepView]) -> dict:
    """Median over the traced repetitions of every per-layer metric; counts
    take the lower median so that they stay whole numbers."""
    out = {}
    for name, unit, fn in REPORTED + PRINTED_ONLY:
        pick = statistics.median_low if unit in ("count", "bytes") else statistics.median
        out[name] = (pick(fn(v) for v in views), unit)
    return out
