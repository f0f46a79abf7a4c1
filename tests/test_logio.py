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


def read_rows_by_loop(path, n_columns):
    """read_table's per-line parse, kept as the reference for its one
    np.loadtxt call: the data of a well-formed table, or the LogFormatError
    that names the first bad row."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    data = np.empty((len(lines) - 2, n_columns))
    for i, line in enumerate(lines[2:]):
        parts = line.split(",")
        if len(parts) != n_columns:
            raise LogFormatError(f"{path}: row {i}: expected {n_columns} fields, got {len(parts)}")
        try:
            data[i] = [float(p) for p in parts]
        except ValueError:
            raise LogFormatError(f"{path}: row {i}: non-numeric field") from None
    return data


def write_raw_table(path, columns, rows):
    path.write_text(f"# quadstage {PLOT_KIND} config={DIGEST}\n" + "\n".join([",".join(columns)] + rows) + "\n")


@pytest.mark.parametrize(
    "columns, rows",
    [
        (["a", "b", "c"], ["1,2,3", "", "4,5,6"]),  # blank line mid-table
        (["a", "b", "c"], ["1,2,3", "4,5,6", ""]),  # blank line at the end
        (["a", "b", "c"], [""]),  # nothing but a blank line
        (["t"], ["1", "", "2"]),  # a blank line in a one-column table is an empty field
        (["a", "b", "c"], ["1,2#5,3"]),  # '#' inside a field
        (["a", "b", "c"], ["#1,2,3"]),
        (["a", "b", "c"], [" 1 ,\t2, 3 ", "4,5 ,6"]),  # whitespace around a field
        (["a", "b", "c"], ["nan,inf,-0", "-inf,-nan,1_0", "+0,-0.0,1e400"]),
        (["a", "b", "c"], ["0.1000000000000000055511151231257827,1e-320,1.7976931348623157e308"]),
        (["a", "b", "c"], ["1,2,3", "1,,3"]),  # empty field
        (["a", "b", "c"], ["1,2,3", "1,2,3,4"]),  # extra field
        (["a", "b", "c"], ["1,2,3,4", "1,2,3,4"]),  # extra field on every row
        (["a", "b", "c"], ["1,2,3", "1,2"]),  # missing field
        (["a", "b", "c"], ["1,2,3", "1,x,3"]),  # non-numeric field
        (["a", "b", "c"], ["1,2,0x10"]),
        (["a", "b", "c"], ["١٢,2,3"]),  # float() reads Arabic-Indic digits
        (["a", "b", "c"], []),  # no data rows
    ],
)
def test_read_table_matches_per_line_loop(tmp_path, columns, rows):
    # Same accept/reject outcome, the same values bit for bit (sign of zero
    # and of NaN included) and the same message as the per-line loop.
    path = tmp_path / "table.csv"
    write_raw_table(path, columns, rows)
    try:
        expected = read_rows_by_loop(path, len(columns))
    except LogFormatError as error:
        with pytest.raises(LogFormatError) as raised:
            read_table(path, PLOT_KIND)
        assert str(raised.value) == str(error)
        return
    _, header, data = read_table(path, PLOT_KIND)
    assert header == columns
    assert data.shape == expected.shape
    assert np.array_equal(data.view(np.uint64), expected.view(np.uint64))


def test_read_table_calls_loadtxt_only_on_rows_without_blank_lines(tmp_path, monkeypatch):
    # A well-formed table is parsed by one np.loadtxt call.  An empty table
    # or one with a blank line never reaches it: loadtxt skips blank lines
    # and warns when no row is left.
    calls = []
    loadtxt = np.loadtxt

    def counting_loadtxt(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    path = tmp_path / "table.csv"
    for rows, parsed_by_loadtxt in ((["1,2,3", "4,5,6"], True), ([], False), ([""], False),
                                    (["1,2,3", ""], False)):
        calls.clear()
        write_raw_table(path, ["a", "b", "c"], rows)
        try:
            read_table(path, PLOT_KIND)
        except LogFormatError:
            pass
        assert len(calls) == parsed_by_loadtxt, rows
