"""write -> read round trips of every table kind, and the t column check."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quadstage.kinematics import NUM_JOINTS
from quadstage.logio import (
    PLOT_COLUMNS,
    PLOT_KIND,
    LogFormatError,
    read_joint_targets,
    read_log,
    read_table,
    read_trajectory,
    write_joint_targets,
    write_log,
    write_plot_channel,
    write_trajectory,
)
from quadstage.postprocess import PoseSeries
from quadstage.simenv import SimLog

DIGEST = "0123456789abcdef"
# 1 ms has a short decimal form; 1/240 s does not survive 9 digits as is.
DTS = [1e-3, 1.0 / 240.0]
VALUES = st.floats(-1e6, 1e6, allow_subnormal=False)
ROUND_TRIP = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def columns(count):
    """Strategy for (n, count) float tables with 1..40 rows."""
    return st.integers(1, 40).flatmap(lambda n: arrays(float, (n, count), elements=VALUES))


def assert_nine_digits(written, read):
    # Nine significant digits put every value within 5e-9 of itself,
    # relative, plus the last bit of the parse.
    written, read = np.asarray(written), np.asarray(read)
    assert np.all(np.abs(written - read) <= 5e-9 * np.abs(written) + np.spacing(np.abs(written)))


@pytest.mark.parametrize("dt", DTS)
@ROUND_TRIP
@given(poses=columns(6))
def test_trajectory_round_trip(tmp_path, dt, poses):
    path, again = tmp_path / "traj.csv", tmp_path / "again.csv"
    write_trajectory(path, PoseSeries(dt, poses[:, :3], poses[:, 3:]), DIGEST)
    digest, back = read_trajectory(path, dt=dt)
    assert digest == DIGEST
    assert np.array_equal(back.t, np.arange(len(poses)) * dt)
    assert_nine_digits(poses, np.column_stack([back.positions, back.orientations_deg]))
    write_trajectory(again, back, DIGEST)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("dt", DTS)
@ROUND_TRIP
@given(q=columns(NUM_JOINTS))
def test_joint_targets_round_trip(tmp_path, dt, q):
    path, again = tmp_path / "targets.csv", tmp_path / "again.csv"
    t = np.arange(len(q)) * dt
    write_joint_targets(path, t, q, DIGEST)
    digest, back = read_joint_targets(path, dt=dt)
    assert digest == DIGEST
    assert_nine_digits(q, back)
    write_joint_targets(again, t, back, DIGEST)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("dt", DTS)
@ROUND_TRIP
@given(rows=columns(5 * NUM_JOINTS))
def test_sim_log_round_trip(tmp_path, dt, rows):
    path, again = tmp_path / "log.csv", tmp_path / "again.csv"
    log = SimLog(dt, *np.split(rows, 5, axis=1))
    write_log(path, log, DIGEST)
    digest, back = read_log(path, dt=dt)
    assert digest == DIGEST
    assert np.array_equal(back.t, np.arange(len(rows)) * dt)
    for name in ("q_target", "q", "qdot", "tau", "current"):
        assert_nine_digits(getattr(log, name), getattr(back, name))
    write_log(again, back, DIGEST)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("dt", DTS)
@ROUND_TRIP
@given(rows=columns(2))
def test_plot_round_trip(tmp_path, dt, rows):
    path, again = tmp_path / "plot.csv", tmp_path / "again.csv"
    t = np.arange(len(rows)) * dt
    write_plot_channel(path, t, rows[:, 0], rows[:, 1], DIGEST)
    digest, header, back = read_table(path, PLOT_KIND, PLOT_COLUMNS)
    assert (digest, header) == (DIGEST, PLOT_COLUMNS)
    assert_nine_digits(np.column_stack([t, rows]), back)
    write_plot_channel(again, *back.T, DIGEST)
    assert again.read_bytes() == path.read_bytes()


def test_joint_targets_time_column_names_first_bad_row(tmp_path):
    path = tmp_path / "targets.csv"
    t = np.arange(10) * 1e-3
    t[6] += 5e-4
    t[8] += 5e-4
    write_joint_targets(path, t, np.zeros((10, NUM_JOINTS)), DIGEST)
    with pytest.raises(LogFormatError, match=r"targets\.csv: row 6: t = 0\.0065 is not 6 \* dt"):
        read_joint_targets(path, dt=1e-3)
    with pytest.raises(LogFormatError, match=r"targets\.csv: row 1: "):
        read_joint_targets(path, dt=2e-3)
