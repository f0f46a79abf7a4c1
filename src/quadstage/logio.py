"""On-disk artifact formats.

Every artifact is a plain-text file whose first line identifies its kind
and the 16-hex-digit hash of the configuration that produced it::

    # quadstage <kind> config=<hash>

Tables (trajectories, joint targets, simulation logs, plot data) follow
with a comma-separated header row naming every column and one row per
sample, numbers written with 9 significant digits (round-half-even).
Writes are atomic: a temp file in the same directory is renamed over the
target, so readers never observe partial output.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .kinematics import NUM_JOINTS
from .postprocess import JointRmse, PoseSeries, RmseReport
from .simenv import SimLog

MAGIC = "# quadstage"
FLOAT_FORMAT = ".9g"
# One unit in the ninth significant digit: how far a written time may be
# from the k * dt it was written from.
TIME_RTOL = 1e-8

TRAJECTORY_KIND = "trajectory"
JOINT_TARGETS_KIND = "joint_targets"
SIM_LOG_KIND = "sim_log"
PLOT_KIND = "plot"
REPORT_KIND = "report"

TRAJECTORY_COLUMNS = ["t", "x_mm", "y_mm", "z_mm", "rx_deg", "ry_deg", "rz_deg"]
JOINT_TARGET_COLUMNS = ["t"] + [f"q_{i}" for i in range(NUM_JOINTS)]
SIM_LOG_COLUMNS = (
    ["t"]
    + [f"q_target_{i}" for i in range(NUM_JOINTS)]
    + [f"q_actual_{i}" for i in range(NUM_JOINTS)]
    + [f"qdot_{i}" for i in range(NUM_JOINTS)]
    + [f"tau_{i}" for i in range(NUM_JOINTS)]
    + [f"current_{i}" for i in range(NUM_JOINTS)]
)
PLOT_COLUMNS = ["t", "target", "actual"]


class LogFormatError(ValueError):
    """Artifact file is malformed; the message names the offending row."""


def atomic_write_text(path, text: str) -> None:
    """Write text to path via temp file + rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
    try:
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _format_table(kind: str, config_hash: str, columns, rows: np.ndarray) -> str:
    lines = [f"{MAGIC} {kind} config={config_hash}", ",".join(columns)]
    if rows.size:
        rows = np.atleast_2d(rows)
        # One %-template per table, filled row by row: the same digits as
        # format(v, FLOAT_FORMAT), without a whole-table list of floats.
        template = ",".join(["%" + FLOAT_FORMAT] * rows.shape[1])
        lines += [template % tuple(row.tolist()) for row in rows]
    return "\n".join(lines) + "\n"


def write_table(path, kind: str, config_hash: str, columns, rows) -> None:
    rows = np.asarray(rows, dtype=float)
    if rows.size and rows.shape[-1] != len(columns):
        raise ValueError(f"rows have {rows.shape[-1]} fields, header has {len(columns)}")
    atomic_write_text(path, _format_table(kind, config_hash, columns, rows))


def _identity_hash(path, line: str, kind: str) -> str:
    if not line.startswith(MAGIC):
        raise LogFormatError(f"{path}: missing '{MAGIC}' identity line")
    head = line.split()
    if len(head) != 4 or head[2] != kind or not head[3].startswith("config="):
        raise LogFormatError(f"{path}: expected a '{kind}' artifact, got {line!r}")
    return head[3].removeprefix("config=")


def read_config_hash(path, kind: str) -> str:
    """Config hash on the identity line of a `kind` artifact; reads no rows."""
    with open(path, "r", encoding="utf-8") as fh:
        return _identity_hash(path, fh.readline().rstrip("\r\n"), kind)


def read_table(path, kind: str, expected_columns=None) -> tuple[str, list, np.ndarray]:
    """Parse an artifact table.

    Returns (config_hash, columns, data).  When expected_columns is given,
    a differing header is rejected.

    Raises:
        LogFormatError: missing/incorrect identity line, header mismatch,
            or malformed data row (reported with its index).
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    config_hash = _identity_hash(path, lines[0] if lines else "", kind)
    if len(lines) < 2:
        raise LogFormatError(f"{path}: missing header row")
    columns = lines[1].split(",")
    if expected_columns is not None and columns != list(expected_columns):
        raise LogFormatError(
            f"{path}: header mismatch: expected {len(expected_columns)} columns "
            f"{list(expected_columns)}, got {len(columns)} columns {columns}"
        )
    rows = lines[2:]
    # One loadtxt call parses a well-formed table.  loadtxt skips blank
    # lines (and warns when none are left), so a table with one goes to the
    # per-line loop, as does a table it rejects or reads into another
    # shape: the loop names the row at fault.
    if rows and "" not in rows:
        try:
            data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
            if data.shape == (len(rows), len(columns)):
                return config_hash, columns, data
        except ValueError:
            pass
    data = np.empty((len(rows), len(columns)))
    for i, line in enumerate(rows):
        parts = line.split(",")
        if len(parts) != len(columns):
            raise LogFormatError(f"{path}: row {i}: expected {len(columns)} fields, got {len(parts)}")
        try:
            data[i] = [float(p) for p in parts]
        except ValueError:
            raise LogFormatError(f"{path}: row {i}: non-numeric field") from None
    return config_hash, columns, data


def _sample_dt(path, t: np.ndarray, dt: float | None) -> float:
    """The step of a table sampled at t_k = k*dt, after checking its t column.

    dt is the configured step; without one it is taken from the first gap.
    The written t column must match k*dt to the precision it was written
    with (LogFormatError names the file and the first row that does not);
    readers then derive t from dt, so a dt without a short decimal form
    (1/240 s) survives the round trip.
    """
    if dt is None:
        if len(t) < 2:
            raise LogFormatError(f"{path}: fewer than two samples, dt must be given")
        dt = float(t[1] - t[0])
    exact = np.arange(len(t)) * dt
    bad = np.flatnonzero(np.abs(t - exact) > TIME_RTOL * np.abs(exact))
    if bad.size:
        k = int(bad[0])
        raise LogFormatError(
            f"{path}: row {k}: t = {float(t[k])!r} is not {k} * dt for dt = {dt!r}"
        )
    return dt


def write_trajectory(path, traj: PoseSeries, config_hash: str) -> None:
    rows = np.column_stack([traj.t, traj.positions, traj.orientations_deg])
    write_table(path, TRAJECTORY_KIND, config_hash, TRAJECTORY_COLUMNS, rows)


def read_trajectory(path, dt: float | None = None) -> tuple[str, PoseSeries]:
    """Trajectory artifact at path.

    dt is the configured time step (default: the first gap of the t
    column); the t column is checked against it as in _sample_dt.
    """
    config_hash, _, data = read_table(path, TRAJECTORY_KIND, TRAJECTORY_COLUMNS)
    if len(data) == 0:
        raise LogFormatError(f"{path}: empty trajectory")
    dt = _sample_dt(path, data[:, 0], dt)
    return config_hash, PoseSeries(dt, data[:, 1:4], data[:, 4:7])


def write_joint_targets(path, t, q, config_hash: str) -> None:
    write_table(path, JOINT_TARGETS_KIND, config_hash, JOINT_TARGET_COLUMNS,
                np.column_stack([t, q]))


def read_joint_targets(path, dt: float | None = None) -> tuple[str, np.ndarray]:
    """(config_hash, q) of a joint-target artifact, q shaped (N, 12); dt
    and the t column as in read_trajectory."""
    config_hash, _, data = read_table(path, JOINT_TARGETS_KIND, JOINT_TARGET_COLUMNS)
    _sample_dt(path, data[:, 0], dt)
    return config_hash, data[:, 1:]


def write_log(path, log: SimLog, config_hash: str) -> None:
    rows = np.column_stack([log.t, log.q_target, log.q, log.qdot, log.tau, log.current])
    write_table(path, SIM_LOG_KIND, config_hash, SIM_LOG_COLUMNS, rows)


def read_log(path, dt: float | None = None) -> tuple[str, SimLog]:
    """Simulation log artifact at path; dt and the t column as in read_trajectory."""
    config_hash, _, data = read_table(path, SIM_LOG_KIND, SIM_LOG_COLUMNS)
    n = NUM_JOINTS
    log = SimLog(
        dt=_sample_dt(path, data[:, 0], dt),
        q_target=data[:, 1 : 1 + n],
        q=data[:, 1 + n : 1 + 2 * n],
        qdot=data[:, 1 + 2 * n : 1 + 3 * n],
        tau=data[:, 1 + 3 * n : 1 + 4 * n],
        current=data[:, 1 + 4 * n : 1 + 5 * n],
    )
    return config_hash, log


def write_plot_channel(path, t, target, actual, config_hash: str) -> None:
    write_table(path, PLOT_KIND, config_hash, PLOT_COLUMNS,
                np.column_stack([t, target, actual]))


REPORT_POSE_KEYS = (
    "translation_x_mm",
    "translation_y_mm",
    "translation_z_mm",
    "translation_avg_mm",
    "rotation_x_deg",
    "rotation_y_deg",
    "rotation_z_deg",
    "rotation_avg_deg",
)


def format_report(pose: RmseReport, joints: JointRmse, config_hash: str) -> str:
    """Tracking-error report text: per-axis pose RMSE with averages, then
    per-joint RMSE with per-leg averages."""
    from .kinematics import JOINT_NAMES, LEG_NAMES

    values = list(pose.translation_mm) + [pose.translation_avg_mm]
    values += list(pose.rotation_deg) + [pose.rotation_avg_deg]
    lines = [f"{MAGIC} {REPORT_KIND} config={config_hash}", "[pose_rmse]"]
    for key, value in zip(REPORT_POSE_KEYS, values):
        lines.append(f"{key} = {format(value, FLOAT_FORMAT)}")
    lines.append("[joint_rmse]")
    for i, leg in enumerate(LEG_NAMES):
        for j, joint in enumerate(JOINT_NAMES):
            lines.append(
                f"{leg}_{joint}_deg = {format(joints.per_joint_deg[3 * i + j], FLOAT_FORMAT)}"
            )
    for i, leg in enumerate(LEG_NAMES):
        lines.append(f"avg_{leg}_deg = {format(joints.per_leg_avg_deg[i], FLOAT_FORMAT)}")
    return "\n".join(lines) + "\n"


def write_report(path, pose: RmseReport, joints: JointRmse, config_hash: str) -> None:
    atomic_write_text(path, format_report(pose, joints, config_hash))
