"""On-disk artifact formats.

Every artifact is a plain-text file whose first line identifies its kind
and the 16-hex-digit hash of the configuration that produced it::

    # quadstage <kind> config=<hash>

Any other hash is a corrupt file (LogFormatError), not another config's.
Tables (trajectories, joint targets, simulation logs, plot data) follow
with a comma-separated header row naming every column and one row per
sample, numbers written with 9 significant digits (round-half-even).
The writer formats each distinct text of a column once (one value per
run of values with one rounded 9-digit decimal), and a table's first
column, the shared t = k * dt, once per process while it repeats; the
bytes are those of formatting every value in turn.  Given a sim log's
origin (SimLog.origin) with a copied record, it formats, parses and
assembles each distinct record once: a row is its t text and its
record's, and only the texts of records that occur twice or more are kept.
A writer takes a table as 1-D columns and hands back the columns a later
stage uses as a reader parses them, each distinct cell parsed once, so a
pipeline run reads no file.  as_read gives such values for the t check.
A reader of a sampled table takes it only as written: every value finite
and each t the written k * dt for the configured dt, or LogFormatError
names the file, the row and (for a non-finite value) the column.  A byte
that is not UTF-8 is read as a lone surrogate, which no identity line,
header or number holds, so the check of its line names it.
Writes are atomic: a temp file in the same directory is renamed over the
target, so readers never observe partial output.  A table streams into its
temp file in _BLOCK_BYTES blocks, and its whole text is never held.
"""

from __future__ import annotations

import functools
import os
import re
import secrets

import numpy as np

from .kinematics import JOINT_NAMES, LEG_NAMES, NUM_JOINTS
from .postprocess import JointRmse, PoseSeries, RmseReport
from .simenv import SimLog

MAGIC = "# quadstage"
FLOAT_FORMAT = ".9g"
_SIGNIFICANT_DIGITS = int(FLOAT_FORMAT[1:-1])
# Every FLOAT_FORMAT text of a float64 fits in 16 characters
# ("-1.23456789e-308"): each distinct value is written left-justified to
# that width, the padding deleted once the rows are assembled.
_CELL_WIDTH = 16
# Bytes of cells assembled and written at once: the bound on a table's transient copies.
_BLOCK_BYTES = 1 << 16

TRAJECTORY_KIND = "trajectory"
JOINT_TARGETS_KIND = "joint_targets"
SIM_LOG_KIND = "sim_log"
PLOT_KIND = "plot"
REPORT_KIND = "report"

TRAJECTORY_COLUMNS = ["t", "x_mm", "y_mm", "z_mm", "rx_deg", "ry_deg", "rz_deg"]
JOINT_TARGET_COLUMNS = ["t"] + [f"q_{i}" for i in range(NUM_JOINTS)]
# The sim log's 12-column blocks after t, in file order: (SimLog field, column prefix).
SIM_LOG_BLOCKS = (("q_target", "q_target"), ("q", "q_actual"), ("qdot", "qdot"), ("tau", "tau"),
                  ("current", "current"))
SIM_LOG_COLUMNS = ["t"] + [f"{prefix}_{i}" for _, prefix in SIM_LOG_BLOCKS for i in range(NUM_JOINTS)]
PLOT_COLUMNS = ["t", "target", "actual"]


class LogFormatError(ValueError):
    """Artifact file is malformed; the message names the offending row."""


def _atomic_write(path, blocks) -> None:
    """Write the byte blocks to path in turn via temp file + rename."""
    path = os.fspath(path)
    # A fresh name in the same directory, created 0666 less the umask as
    # open() would; O_EXCL never takes over an existing file.
    tmp_path = os.path.join(os.path.dirname(path), f".tmp_{secrets.token_hex(8)}")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(blocks)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write text to path via temp file + rename."""
    _atomic_write(path, [text.encode("utf-8")])


def _identity_line(kind: str, config_hash: str) -> str:
    return f"{MAGIC} {kind} config={config_hash}"


def _column_cells(values: np.ndarray, sep: str) -> tuple[np.ndarray, np.ndarray]:
    """(cells, inverse) of one column: each distinct text once, in a cell of
    _CELL_WIDTH characters and sep, and the index of each row's cell."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    x = bits.view(np.float64)
    # %.9g depends only on x's correctly rounded 9-digit decimal: exponent e
    # and signed mantissa rint(s).  That pair is x's key where s is clear of
    # a rounding tie and of [1e8, 1e9)'s ends by more than its error (<= ~5e-7),
    # else nan, as for 0, inf, nan and |x| < 1e-300 (whose s is nan or inf).
    # Sorted bits order each sign's magnitudes, so equal keys are adjacent.
    with np.errstate(all="ignore"):
        magnitude = np.abs(x)
        e = np.floor(np.log10(magnitude))
        s = magnitude * 10.0 ** (_SIGNIFICANT_DIGITS - 1 - e)
        mantissa = np.rint(s)
        safe = (1e8 + 1 <= s) & (s <= 1e9 - 1) & (np.abs(s - mantissa) < 0.5 - 1e-5)
        key = np.where(safe, np.copysign(mantissa, x), np.nan)
    new = np.ones(len(x), bool)
    new[1:] = (key[1:] != key[:-1]) | (e[1:] != e[:-1])
    template = f"%-{_CELL_WIDTH}{FLOAT_FORMAT}{sep}" * int(new.sum())
    text = template % tuple(x[new].tolist())
    return np.frombuffer(text.encode("ascii"), f"V{_CELL_WIDTH + 1}"), (np.cumsum(new) - 1)[inverse]


@functools.lru_cache(maxsize=1)
def _first_column_cells(data: bytes, sep: str) -> tuple[np.ndarray, np.ndarray]:
    """_column_cells of a first column given as its bytes.  Every table of
    a run starts with the same t = k * dt, so one entry keyed by content
    formats it once.  The arrays are shared, hence read-only."""
    cells, inverse = _column_cells(np.frombuffer(data, np.float64), sep)
    inverse.flags.writeable = False
    return cells, inverse


def _parsed(cells: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Each row's value as a reader parses its cell, each distinct cell
    parsed once.  A separator becomes a space: deleting it would join a
    text that fills its cell (-6.96287338e-253) to the next."""
    text = cells.tobytes().translate(bytes.maketrans(b",\n", b"  "))
    return np.array(text.split(), dtype=float)[inverse]


def _pool(columns, handed, start, rows=slice(None), record=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """(pool, index) of columns[start:] at the rows: their cells in one pool,
    and index[i, j - start] the cell of columns[j][rows][i].  handed[j] is
    filled as in _format_table, row r with the cell of index row record[r]."""
    n_cols = len(columns)
    n_rows = len(columns[0][rows])
    index = np.empty((n_rows, n_cols - start), np.int32 if n_rows * n_cols < 2**31 else np.int64)
    pool, offset = [], 0
    for j in range(start, n_cols):
        sep = "," if j < n_cols - 1 else "\n"
        cells, inverse = (_first_column_cells(columns[0].tobytes(), sep) if j == 0
                          else _column_cells(columns[j][rows], sep))
        if j in handed:
            handed[j][:] = _parsed(cells, inverse[record])
        index[:, j - start] = inverse + offset
        pool.append(cells)
        offset += len(cells)
    return np.concatenate(pool), index


def _row_blocks(columns, handed):
    """_format_table's rows, _BLOCK_BYTES of cells at a time: row i is
    pool[index[i]] with the padding deleted."""
    pool, index = _pool(columns, handed, 0)
    block_rows = max(1, _BLOCK_BYTES // pool.itemsize // len(columns))
    for start in range(0, len(index), block_rows):
        yield pool.take(index[start:start + block_rows]).tobytes().translate(None, b" ")


def _record_blocks(columns, handed, fresh, origin):
    """_format_table's rows given write_table's origin, whose records are
    the rows with fresh[i] (origin[i] == i).  The cells after t of each
    record are formatted, parsed and taken once; row i is its t text, a
    comma and its record's text.  The texts of records that occur more than
    once stay in one buffer, the others' only while their block is assembled."""
    first = np.flatnonzero(fresh)
    record = (np.cumsum(fresh) - 1)[origin]  # each row's record
    pool, index = _pool(columns, handed, 1, first, record)
    t_cells, t_inverse = _first_column_cells(columns[0].tobytes(), ",")
    kept = np.bincount(record) > 1
    begin, end = np.empty(len(first), np.int64), np.empty(len(first), np.int64)  # of a record's text in store
    store = bytearray()
    block_rows = max(1, _BLOCK_BYTES // pool.itemsize // len(columns))
    for start in range(0, len(origin), block_rows):
        ids = record[start:start + block_rows]
        # The block's new records go on the store, those kept first: the
        # others' text is cut off once the block's rows are assembled.
        new = np.arange(*np.searchsorted(first, [start, start + len(ids)]))
        new = np.concatenate([new[kept[new]], new[~kept[new]]])
        text = pool.take(index[new]).tobytes().translate(None, b" ")
        bounds = len(store) + np.append(0, np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n")) + 1)
        begin[new], end[new] = bounds[:-1], bounds[1:]
        store += text
        t_text = t_cells.take(t_inverse[start:start + len(ids)]).tobytes().translate(None, b" ")
        pieces = [b","] * (3 * len(ids))
        pieces[0::3] = t_text[:-1].split(b",")
        pieces[2::3] = map(store.__getitem__, map(slice, begin[ids].tolist(), end[ids].tolist()))
        del store[bounds[np.count_nonzero(kept[new])]:]
        yield b"".join(pieces)


def _format_table(kind: str, config_hash: str, names, columns, handed, origin):
    """The table's bytes: the identity and header lines, then _BLOCK_BYTES
    of rows at a time.  For each j in the dict handed, handed[j] is filled
    with column j as a reader parses it.  origin is write_table's; a table
    with no repeated record is written row by row, which is faster there."""
    yield f"{_identity_line(kind, config_hash)}\n{','.join(names)}\n".encode("utf-8")
    if columns and len(columns[0]):
        fresh = None if origin is None else origin == np.arange(len(origin))
        if fresh is None or fresh.all():
            yield from _row_blocks(columns, handed)
        else:
            yield from _record_blocks(columns, handed, fresh, origin)


def write_table(path, kind: str, config_hash: str, names, columns, handed=(), origin=None) -> np.ndarray:
    """Write the table whose column j is the 1-D columns[j], headed names[j].
    Returns (N, len(handed)): column k is column handed[k] as a reader
    parses it back from the file.  origin, if given, holds for each row i a
    row origin[i] <= i with its bits after the first column and
    origin[origin[i]] == origin[i] (SimLog.origin)."""
    columns = [np.asarray(column, dtype=float) for column in columns]
    if len(columns) != len(names) or any(c.ndim != 1 or len(c) != len(columns[0]) for c in columns):
        raise ValueError(f"columns must be {len(names)} 1-D arrays of one length for the header, "
                         f"got shapes {[c.shape for c in columns]}")
    out = np.empty((len(columns[0]) if columns else 0, len(handed)))
    # Each out.T row is a view of one column of out, filled while formatting.
    _atomic_write(path, _format_table(kind, config_hash, names, columns, dict(zip(handed, out.T)), origin))
    return out


def as_read(values) -> np.ndarray:
    """values as read_table parses them from a written table, through the
    writer's own formatting and parse: kept for the reader's t check."""
    values = np.ascontiguousarray(values, dtype=float)
    return _parsed(*_column_cells(values.ravel(), " ")).reshape(values.shape)


def _identity_hash(path, line: str, kind: str) -> str:
    if not line.startswith(MAGIC):
        raise LogFormatError(f"{path}: missing '{MAGIC}' identity line")
    head = line.split()
    if len(head) != 4 or head[2] != kind or not head[3].startswith("config="):
        raise LogFormatError(f"{path}: expected a '{kind}' artifact, got {line!r}")
    digest = head[3].removeprefix("config=")
    if not re.fullmatch("[0-9a-f]{16}", digest):
        raise LogFormatError(f"{path}: config hash {digest!r} is not 16 lowercase hex digits")
    return digest


def read_config_hash(path, kind: str) -> str:
    """Config hash on the identity line of a `kind` artifact; reads no rows."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return _identity_hash(path, fh.readline().rstrip("\r\n"), kind)


def read_table(path, kind: str, expected_columns=None) -> tuple[str, list, np.ndarray]:
    """Parse an artifact table.

    Returns (config_hash, columns, data).  When expected_columns is given,
    a differing header is rejected.

    Raises:
        LogFormatError: missing/incorrect identity line, header mismatch,
            or malformed data row (reported with its index).
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
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


def _read_samples(path, kind: str, columns, dt: float) -> tuple[str, np.ndarray]:
    """(config_hash, data) of a non-empty table sampled at t_k = k*dt for
    the configured step dt, taken only as the writers write it: every field
    finite, and each t the value written for k*dt (as_read of it).
    LogFormatError names the file and the first row that is not, and the
    column of a non-finite field.  Readers then rebuild t from dt, so a dt
    without a short decimal form (1/240 s) survives the round trip; the step
    is never inferred from the t column, whose 9 digits need not give it back.
    """
    config_hash, _, data = read_table(path, kind, columns)
    if len(data) == 0:
        raise LogFormatError(f"{path}: empty {kind}")
    finite = np.isfinite(data)
    t = data[:, 0]
    bad = np.flatnonzero(~finite.all(axis=1) | (t != as_read(np.arange(len(t)) * dt)))
    if bad.size:
        k = int(bad[0])
        if not finite[k].all():
            j = int(np.argmin(finite[k]))
            raise LogFormatError(f"{path}: row {k}: {columns[j]} = {float(data[k, j])!r} is not finite")
        raise LogFormatError(f"{path}: row {k}: t = {float(t[k])!r} is not {k} * dt for dt = {dt!r}")
    return config_hash, data


def write_trajectory(path, traj: PoseSeries, config_hash: str) -> PoseSeries:
    """Writes traj and returns it as read_trajectory parses it back."""
    poses = write_table(path, TRAJECTORY_KIND, config_hash, TRAJECTORY_COLUMNS,
                        [traj.t, *traj.position.T, *traj.orientation_deg.T], range(1, 7))
    return PoseSeries(poses[:, :3], poses[:, 3:], traj.dt)


def read_trajectory(path, dt: float) -> tuple[str, PoseSeries]:
    """Trajectory artifact at path; dt is the configured time step, and
    the table is checked against it as in _read_samples."""
    config_hash, data = _read_samples(path, TRAJECTORY_KIND, TRAJECTORY_COLUMNS, dt)
    return config_hash, PoseSeries(data[:, 1:4], data[:, 4:7], dt)


def write_joint_targets(path, t, q, config_hash: str) -> np.ndarray:
    """Writes the joint targets q and returns them as read_joint_targets parses them."""
    return write_table(path, JOINT_TARGETS_KIND, config_hash, JOINT_TARGET_COLUMNS,
                       [t, *np.transpose(q)], range(1, 1 + NUM_JOINTS))


def read_joint_targets(path, dt: float) -> tuple[str, np.ndarray]:
    """(config_hash, q) of a joint-target artifact, q shaped (N, 12); dt
    and the t column as in read_trajectory."""
    config_hash, data = _read_samples(path, JOINT_TARGETS_KIND, JOINT_TARGET_COLUMNS, dt)
    return config_hash, data[:, 1:]


def write_log(path, log: SimLog, config_hash: str) -> np.ndarray:
    """Writes log and returns its q as read_log parses it (q_target is the targets as read)."""
    columns = [log.t] + [column for name, _ in SIM_LOG_BLOCKS for column in getattr(log, name).T]
    return write_table(path, SIM_LOG_KIND, config_hash, SIM_LOG_COLUMNS, columns,
                       range(1 + NUM_JOINTS, 1 + 2 * NUM_JOINTS), log.origin)


def read_log(path, dt: float) -> tuple[str, SimLog]:
    """Simulation log artifact at path; dt and the t column as in read_trajectory."""
    config_hash, data = _read_samples(path, SIM_LOG_KIND, SIM_LOG_COLUMNS, dt)
    blocks = np.split(data[:, 1:], len(SIM_LOG_BLOCKS), axis=1)
    return config_hash, SimLog(dt, **{name: block for (name, _), block in zip(SIM_LOG_BLOCKS, blocks)})


def write_plot_channel(path, t, target, actual, config_hash: str) -> None:
    write_table(path, PLOT_KIND, config_hash, PLOT_COLUMNS, [t, target, actual])


REPORT_POSE_KEYS = tuple(f"{kind}_{axis}_{unit}" for kind, unit in (("translation", "mm"), ("rotation", "deg"))
                         for axis in ("x", "y", "z", "avg"))


def format_report(pose: RmseReport, joints: JointRmse, config_hash: str) -> str:
    """Tracking-error report text: per-axis pose RMSE with averages, then
    per-joint RMSE with per-leg averages."""
    pose_values = [*pose.translation_mm, pose.translation_avg_mm, *pose.rotation_deg, pose.rotation_avg_deg]
    joint_keys = [f"{leg}_{joint}_deg" for leg in LEG_NAMES for joint in JOINT_NAMES]
    joint_keys += [f"avg_{leg}_deg" for leg in LEG_NAMES]
    joint_values = [*joints.per_joint_deg, *joints.per_leg_avg_deg]
    lines = [_identity_line(REPORT_KIND, config_hash)]
    for block, keys, values in (("pose_rmse", REPORT_POSE_KEYS, pose_values),
                                ("joint_rmse", joint_keys, joint_values)):
        lines += [f"[{block}]"] + [f"{k} = {format(v, FLOAT_FORMAT)}" for k, v in zip(keys, values)]
    return "\n".join(lines) + "\n"


def write_report(path, pose: RmseReport, joints: JointRmse, config_hash: str) -> None:
    atomic_write_text(path, format_report(pose, joints, config_hash))
