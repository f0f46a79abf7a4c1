"""write -> read round trips of every table kind, the t column check, the
table writer against formatting every value in turn, and its streamed,
atomic write."""

import math
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quadstage import cli, logio
from quadstage.config import loads_config
from quadstage.kinematics import NUM_JOINTS, solve_platform_ik
from quadstage.logio import (
    JOINT_TARGET_COLUMNS,
    JOINT_TARGETS_KIND,
    PLOT_COLUMNS,
    PLOT_KIND,
    SIM_LOG_COLUMNS,
    SIM_LOG_KIND,
    TRAJECTORY_COLUMNS,
    TRAJECTORY_KIND,
    LogFormatError,
    as_read,
    read_joint_targets,
    read_log,
    read_table,
    read_trajectory,
    write_joint_targets,
    write_log,
    write_plot_channel,
    write_table,
    write_trajectory,
)
from quadstage.postprocess import PoseSeries
from quadstage.simenv import SimLog, run_sim

DIGEST = "0123456789abcdef"
# 1 ms has a short decimal form; 1/240 s does not survive 9 digits as is.
DTS = [1e-3, 1.0 / 240.0]
VALUES = st.floats(-1e6, 1e6, allow_subnormal=False)
# The README's 20 mm circle with +/-10 deg yaw and a 1.2 kg load.
README_CIRCLE = ("[trajectory]\ntype = circular\nradius = 20.0\nrot_angle_deg = 10.0\nrounds = 20\n"
                 "circle_frequency = 2.0\ndirection = cw\n"
                 "[sim]\npayload_mass = 1.2\ngravity_compensation = true\n")
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
    write_trajectory(path, PoseSeries(poses[:, :3], poses[:, 3:], dt), DIGEST)
    digest, back = read_trajectory(path, dt=dt)
    assert digest == DIGEST
    assert np.array_equal(back.t, np.arange(len(poses)) * dt)
    assert_nine_digits(poses, np.column_stack([back.position, back.orientation_deg]))
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
    # A t is the text written for k * dt, not a time near it: one unit off
    # in the ninth digit is another time, and NaN is none.
    t = np.arange(10) * 1e-3
    t[6] = 0.00600000001
    write_joint_targets(path, t, np.zeros((10, NUM_JOINTS)), DIGEST)
    with pytest.raises(LogFormatError, match=r"targets\.csv: row 6: t = 0\.00600000001 is not 6 \* dt"):
        read_joint_targets(path, dt=1e-3)
    t[2] = np.nan
    write_joint_targets(path, t, np.zeros((10, NUM_JOINTS)), DIGEST)
    with pytest.raises(LogFormatError, match=r"targets\.csv: row 2: t = nan is not finite$"):
        read_joint_targets(path, dt=1e-3)


READERS = [
    (read_trajectory, TRAJECTORY_KIND, TRAJECTORY_COLUMNS),
    (read_joint_targets, JOINT_TARGETS_KIND, JOINT_TARGET_COLUMNS),
    (read_log, SIM_LOG_KIND, SIM_LOG_COLUMNS),
]


@pytest.mark.parametrize("reader, kind, header", READERS, ids=[kind for _, kind, _ in READERS])
def test_reader_rejects_table_without_rows(tmp_path, reader, kind, header):
    # A header and no rows names the file.
    path = tmp_path / "table.csv"
    write_table(path, kind, DIGEST, header, [np.empty(0)] * len(header))
    with pytest.raises(LogFormatError, match=rf"^{re.escape(str(path))}: empty {kind}$"):
        reader(path, dt=1e-3)


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


def reference_text(kind, digest, columns, rows):
    """A table's text with every value formatted in turn: "%.9g" per value,
    joined by "," row by row."""
    lines = [f"# quadstage {kind} config={digest}", ",".join(columns)]
    lines += [",".join("%.9g" % v for v in row) for row in np.asarray(rows, dtype=float).tolist()]
    return "\n".join(lines) + "\n"


# A few values for columns that repeat them: both zeros, nan with either
# sign and with a payload, both infinities, subnormals and exact ties of the
# ninth digit (round-half-even).
REPEATED = st.sampled_from(
    [0.0, -0.0, math.nan, -math.nan, np.int64(0x7FF8000000000123).view(np.float64).item(),
     math.inf, -math.inf, 5e-324, -2.5e-320, 1234567885.0, -1234567895.0, 0.1, 1e300]
)
ANY_FLOAT = st.floats(allow_subnormal=True)


def tables(elements):
    """Strategy for (n, count) float tables, 0..30 rows of 1..8 columns."""
    shapes = st.tuples(st.integers(0, 30), st.integers(1, 8))
    return shapes.flatmap(lambda shape: arrays(float, shape, elements=elements))


# Where the writer's grouping of values by their 9-digit text is hardest:
# ties of the ninth digit, (k + 0.5) * 10**j for 10**8 <= k < 10**9 (exact
# for 0 <= j <= 6, near otherwise), powers of ten, s near 1e9 - 0.5, 1e+-300,
# both zeros, the smallest subnormal and infinity, whose bit neighbours
# are nans with payloads.
ANCHORS = st.one_of(
    st.builds(lambda k, j: (k + 0.5) * 10.0**j, st.integers(10**8, 10**9 - 1), st.integers(-20, 20)),
    st.builds(lambda j: 10.0**j, st.integers(-323, 308)),
    st.builds(lambda j: (1e9 - 0.5) * 10.0**j, st.integers(-308, 299)),
    st.sampled_from([1e300, 1e-300, 0.0, 5e-324, math.inf]),
)


@st.composite
def bit_runs(draw, max_runs=4):
    """A column of runs of bit-consecutive floats, each starting a few ulps
    below an anchor (of either sign or both) and running 1..16 patterns:
    0..max_runs runs, so empty and one-value columns too."""
    patterns = []
    for _ in range(draw(st.integers(0, max_runs))):
        anchor, below, length = draw(ANCHORS), draw(st.integers(0, 8)), draw(st.integers(1, 16))
        # A run and its mirror meet where the sorted bits change sign.
        for sign in draw(st.sampled_from([(1.0,), (-1.0,), (1.0, -1.0)])):
            start = int(np.float64(sign * anchor).view(np.int64)) - below
            patterns += [(start + i) % 2**64 for i in range(length)]
    return np.array(patterns, np.uint64).view(np.float64)


def run_tables(max_columns):
    """Strategy for (n, k) tables whose columns are bit runs, k in 1..max_columns."""
    return st.tuples(bit_runs(), st.integers(1, max_columns)).map(
        lambda drawn: drawn[0][:len(drawn[0]) // drawn[1] * drawn[1]].reshape(drawn[1], -1).T)


@settings(max_examples=300, deadline=None)
@given(values=bit_runs(max_runs=8))
def test_column_cells_give_each_value_its_own_text(values):
    # However the grouping merges values, each row's cell is its value's text.
    for sep in (",", "\n", " "):
        cells, inverse = logio._column_cells(values, sep)
        assert cells[inverse].tobytes() == "".join("%-16.9g" % v + sep for v in values.tolist()).encode()
        assert len(cells) <= len(np.unique(values.view(np.int64)))


def test_column_cells_format_each_text_once():
    # 1,000 bit-consecutive floats from 1.5 are all "1.5": one cell.
    run = (np.float64(1.5).view(np.int64) + np.arange(1000)).view(np.float64)
    cells, inverse = logio._column_cells(run, ",")
    assert cells.tobytes() == b"1.5             ,"
    assert np.array_equal(inverse, np.zeros(1000))
    # Across the tie 123456788.5, values clear of it take the two texts
    # they round to; the tie itself (half to even: "123456788") is
    # formatted alone, as is every value within the margin of a tie.
    clear = 123456788.5 + np.array([-0.4, -0.3, -0.1, 0.1, 0.3, 0.4])
    cells, inverse = logio._column_cells(clear, ",")
    assert cells.tobytes() == b"123456788       ,123456789       ,"
    assert inverse.tolist() == [0, 0, 0, 1, 1, 1]
    cells, inverse = logio._column_cells(np.append(clear, 123456788.5), ",")
    assert cells.tobytes() == b"123456788       ,123456788       ,123456789       ,"
    assert inverse.tolist() == [0, 0, 0, 2, 2, 2, 1]
    # A value and its negation are two texts, even where they sit together
    # as the last negative and first positive of the sorted bits.
    cells, inverse = logio._column_cells(np.array([1.5, -1.5]), ",")
    assert cells.tobytes() == b"-1.5            ,1.5             ,"
    assert inverse.tolist() == [1, 0]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.one_of(tables(ANY_FLOAT), tables(REPEATED), tables(st.one_of(ANY_FLOAT, REPEATED)), run_tables(8)))
def test_write_table_matches_value_by_value_text(tmp_path, rows):
    path = tmp_path / "table.csv"
    columns = [f"c{j}" for j in range(rows.shape[1])]
    write_table(path, PLOT_KIND, DIGEST, columns, rows.T)
    assert path.read_bytes() == reference_text(PLOT_KIND, DIGEST, columns, rows).encode()


# Values whose 9-digit text is hard to parse back: both zeros, subnormals,
# the ends of the float range, values near 1e-17 and exact ties of the
# ninth digit, which round half to even.
HARD = st.sampled_from(
    [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
     -1.7976931348623157e308, 1e-17, -2.7755575615628914e-17, 1.0000000000000001e-17, 123456788.5,
     -123456789.5, 1234567885.0, 0.1, -1.5]
)


def stacks(elements):
    """Strategy for (N, k) float stacks, 0..30 rows of 1..13 columns."""
    shapes = st.tuples(st.integers(0, 30), st.integers(1, 13))
    return shapes.flatmap(lambda shape: arrays(float, shape, elements=elements))


STACKS = st.one_of(stacks(ANY_FLOAT), stacks(HARD), stacks(st.one_of(ANY_FLOAT, HARD, REPEATED)),
                   run_tables(13))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=STACKS)
def test_as_read_equals_reading_the_written_table(tmp_path, rows):
    # The values `all` hands a stage are those it would read from the file.
    path = tmp_path / "table.csv"
    columns = [f"c{j}" for j in range(rows.shape[1])]
    write_table(path, PLOT_KIND, DIGEST, columns, rows.T)
    _, _, back = read_table(path, PLOT_KIND, columns)
    handed = as_read(rows)
    assert handed.shape == back.shape == rows.shape
    assert np.array_equal(handed.view(np.int64), back.view(np.int64))


@settings(max_examples=80, deadline=None)
@given(rows=STACKS)
def test_as_read_leaves_its_result_as_it_is(rows):
    # So the sim log's q_target, the targets as read, is handed on as is.
    once = as_read(rows)
    assert np.array_equal(as_read(once).view(np.int64), once.view(np.int64))


# Finite values whose text is hard to parse back: both zeros, subnormals,
# and texts that fill the whole 16-character cell, such as
# -6.96287338e-253, which a parse that deletes the separator joins to the
# next cell.
FULL_CELLS = st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-320, -6.96287338e-253, -1.23456789e-308, -1.7976931348623157e308,
     1.23456789e-100, 1234567885.0, -123456789.5]
)
FINITE = st.one_of(FULL_CELLS, st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.int64),
                                                 np.ascontiguousarray(b).view(np.int64))


@pytest.mark.parametrize("dt", DTS)
@ROUND_TRIP
@given(q=st.integers(1, 40).flatmap(lambda n: arrays(float, (n, NUM_JOINTS), elements=FINITE)))
def test_writers_hand_back_what_readers_parse(tmp_path, dt, q):
    # What `all` hands on equals, bit for bit, what a single stage reads
    # from the file that the writer wrote.
    traj = write_trajectory(tmp_path / "traj.csv", PoseSeries(q[:, :3], q[:, 3:6], dt), DIGEST)
    _, back = read_trajectory(tmp_path / "traj.csv", dt)
    assert same_bits(traj.position, back.position)
    assert same_bits(traj.orientation_deg, back.orientation_deg)
    assert traj.dt == back.dt
    t = np.arange(len(q)) * dt
    targets = write_joint_targets(tmp_path / "targets.csv", t, q, DIGEST)
    assert same_bits(targets, read_joint_targets(tmp_path / "targets.csv", dt)[1])
    logged = write_log(tmp_path / "log.csv", SimLog(dt, -q, q[::-1], q, q[::-1], -q), DIGEST)
    assert same_bits(logged, read_log(tmp_path / "log.csv", dt)[1].q)


@st.composite
def repeating_logs(draw):
    """(records, origin) of a log drawn from a pool of records, each row a
    new pick from the pool or a copy of the row a random lag before; the
    pool holds twins of its records that differ in one entry by 0.0 against
    -0.0 or by one ulp.  origin[i] is the first row with row i's pick."""
    base = draw(arrays(float, (draw(st.integers(1, 4)), 5 * NUM_JOINTS), elements=FULL_CELLS | ANY_FLOAT))
    j = draw(st.integers(0, 5 * NUM_JOINTS - 1))
    zero, ulp = base.copy(), base.copy()
    zero[:, j] = 0.0
    negative_zero = zero.copy()
    negative_zero[:, j] = -0.0
    ulp[:, j] = np.nextafter(ulp[:, j], 0.0)  # toward 0, which never overflows
    pool = np.concatenate([base, zero, negative_zero, ulp])
    picks = []
    for k in range(draw(st.integers(1, 60))):
        lag = draw(st.integers(0, k))
        picks.append(picks[k - lag] if lag else draw(st.integers(0, len(pool) - 1)))
    firsts = {}
    return pool[picks], np.array([firsts.setdefault(pick, k) for k, pick in enumerate(picks)])


@pytest.mark.parametrize("dt", DTS)
@ROUND_TRIP
@given(drawn=repeating_logs())
def test_write_log_from_repeats_writes_every_row(tmp_path, dt, drawn):
    # Written from one text per distinct record, the log has the bytes and
    # the handed q of the same log written row by row.
    records, origin = drawn
    blocks = np.split(records, len(logio.SIM_LOG_BLOCKS), axis=1)
    q = write_log(tmp_path / "records.csv", SimLog(dt, *blocks, origin), DIGEST)
    rows = write_log(tmp_path / "rows.csv", SimLog(dt, *blocks), DIGEST)
    assert (tmp_path / "records.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    assert same_bits(q, rows)


def test_write_log_holds_no_stacked_copy(tmp_path):
    # The README circle's 10,001-row log: writing it, the handed q
    # included, peaks below 1.5 times one (N, 61) float64 copy of the log.
    cfg = loads_config(README_CIRCLE)
    traj = cfg.build_trajectory()
    q_targets = as_read(solve_platform_ik(traj, cfg.robot, cfg.platform, cfg.limits))
    log = run_sim(q_targets, cfg.sim, cfg.actuator, cfg.robot)
    copy_bytes = len(log) * len(SIM_LOG_COLUMNS) * 8
    tracemalloc.start()
    try:
        q = write_log(tmp_path / "log.csv", log, DIGEST)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(log), copy_bytes) == (10001, 4880488)
    assert q.shape == (10001, NUM_JOINTS)
    assert peak < 1.5 * copy_bytes, (peak, copy_bytes)


def test_first_column_text_is_never_stale(tmp_path):
    # Tables written back to back, each against its own reference: the
    # same n at another dt, another n at the same dt, the same t ending a
    # one-column row, and a first column that is not k * dt.
    rng = np.random.default_rng(5)
    firsts = [np.arange(50) * 1e-3, np.arange(50) * 1e-3, np.arange(50) * 2e-3, np.arange(80) * 2e-3,
              np.arange(80) * 2e-3, rng.normal(size=80), np.arange(50) * (1.0 / 240.0)]
    widths = [3, 3, 3, 3, 1, 3, 2]
    path = tmp_path / "table.csv"
    for t, width in zip(firsts, widths):
        rows = np.column_stack([t, rng.normal(size=(len(t), width - 1))])
        columns = [f"c{j}" for j in range(width)]
        write_table(path, PLOT_KIND, DIGEST, columns, rows.T)
        assert path.read_bytes() == reference_text(PLOT_KIND, DIGEST, columns, rows).encode()


def test_all_writes_every_table_value_by_value(tmp_path, monkeypatch):
    # The default run and the README circle, in process: each table file
    # holds the text of the columns its write_table call was given.  The
    # writer formats one cell per distinct text, not per distinct bit
    # pattern: on the circle the plot channels repeat at 9 digits but not
    # in their last bits.
    calls = []
    write = logio.write_table

    def recording_write_table(path, kind, config_hash, names, columns, *handed):
        rows = np.column_stack([np.array(column, dtype=float) for column in columns])
        calls.append((os.fspath(path), kind, config_hash, list(names), rows))
        return write(path, kind, config_hash, names, columns, *handed)

    monkeypatch.setattr(logio, "write_table", recording_write_table)
    (tmp_path / "circle.cfg").write_text(README_CIRCLE)
    for flags, most_cells in (([], 63_000), (["--config", str(tmp_path / "circle.cfg")], 75_000)):
        calls.clear()
        assert cli.main(["all", *flags, "--runs-root", str(tmp_path), "--run-id", "tables"]) == 0
        assert len(calls) == len({path for path, *_ in calls}) == 21
        patterns = cells = 0
        for path, kind, digest, columns, rows in calls:
            assert Path(path).read_bytes() == reference_text(kind, digest, columns, rows).encode(), path
            for column in rows[:, 1:].T:
                patterns += len(np.unique(column.view(np.int64)))
                cells += len(logio._column_cells(column, ",")[0])
        assert cells <= most_cells < patterns, flags


def test_atomic_write_leaves_the_umask_alone(tmp_path, monkeypatch):
    # Reading the umask means setting it, which would race with other
    # threads creating files; the writer lets the kernel apply it instead.
    def no_umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", no_umask)
    path = tmp_path / "note.txt"
    logio.atomic_write_text(path, "text\n")
    assert path.read_text() == "text\n"
    assert os.listdir(tmp_path) == ["note.txt"]


def test_table_streams_into_its_file(tmp_path, monkeypatch):
    # A sim-log-sized table, the same rows as a log without copies, and as
    # one whose last record copies the first, the only log of the three
    # written from its records: no write holds the table's whole text, so
    # its traced peak stays below the size of the file it writes.
    rng = np.random.default_rng(7)
    values = rng.normal(size=200)
    rows = np.column_stack([np.arange(10001) * 1e-3, values[rng.integers(0, 200, size=(10001, 60))]])
    rows[-1, 1:] = rows[0, 1:]
    blocks = np.split(rows[:, 1:], len(logio.SIM_LOG_BLOCKS), axis=1)
    record_blocks, by_records = logio._record_blocks, []

    def counted(*args):
        by_records.append(len(by_records))
        return record_blocks(*args)

    monkeypatch.setattr(logio, "_record_blocks", counted)
    path = tmp_path / "log.csv"
    for write in (lambda: write_table(path, SIM_LOG_KIND, DIGEST, SIM_LOG_COLUMNS, rows.T),
                  *(lambda origin=origin: write_log(path, SimLog(1e-3, *blocks, origin), DIGEST)
                    for origin in (np.arange(10001), np.append(np.arange(10000), 0)))):
        tracemalloc.start()
        try:
            write()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size, (peak, path.stat().st_size)
    assert len(by_records) == 1


def test_failed_table_write_keeps_the_old_file(tmp_path, monkeypatch):
    # A write that fails mid-table, after the header is in the temp file,
    # leaves the target as it was and no temp file behind.
    path = tmp_path / "table.csv"
    path.write_bytes(b"old bytes\n")
    cells = logio._column_cells
    calls = []

    def failing_column_cells(values, sep):
        calls.append(sep)
        if len(calls) == 5:
            raise RuntimeError("formatting failed")
        return cells(values, sep)

    monkeypatch.setattr(logio, "_column_cells", failing_column_cells)
    with pytest.raises(RuntimeError, match="formatting failed"):
        write_table(path, PLOT_KIND, DIGEST, [f"c{j}" for j in range(8)], [np.ones(20)] * 8)
    assert len(calls) == 5
    assert path.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["table.csv"]


def test_write_table_rejects_columns_not_1d_or_of_unequal_length(tmp_path):
    path = tmp_path / "table.csv"
    for columns, shapes in (([np.zeros(2), np.zeros((2, 1)), np.zeros(2)], "[(2,), (2, 1), (2,)]"),
                            ([np.zeros(2), np.zeros(3), np.zeros(2)], "[(2,), (3,), (2,)]"),
                            ([np.zeros(2)] * 2, "[(2,), (2,)]")):  # fewer columns than names
        with pytest.raises(ValueError, match=re.escape(f"got shapes {shapes}")):
            write_table(path, PLOT_KIND, DIGEST, PLOT_COLUMNS, columns)
    assert os.listdir(tmp_path) == []
