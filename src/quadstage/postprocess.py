"""Pose reconstruction from joint angles, filtering, differentiation, and
tracking-error reports.

Reconstruction recovers the stage pose purely from the twelve joint
angles: forward kinematics gives the four corner ball joints, the two
rectangle diagonals locate the center, and aligning the corner-built axis
triad against its nominal counterpart gives the orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (DEGENERACY_EPS, DegenerateInputError, _check, _cross, _distinct_rows, _dot, _euler_deg,
                       _kabsch, _midpoint, _sub, rotation_to_euler)
from .geometry import align_vectors, line_closest_midpoint  # not called here: perfbench/layers.py wraps them
from .kinematics import NUM_JOINTS, PlatformGeometry, PlatformPose, _joint_vector, _leg_fk_core, check_fields
from .kinematics import leg_fk  # not called here: perfbench/layers.py wraps postprocess.leg_fk

Z_OFFSET_WORLD = "world"  # center offset applied along the world z axis
Z_OFFSET_PLATFORM = "platform"  # center offset applied along the platform normal
# Option list of the z offset mode (a config field defaults to the first).
Z_OFFSET_MODES = (Z_OFFSET_WORLD, Z_OFFSET_PLATFORM)


@dataclass(eq=False)
class PoseSeries(PlatformPose):
    """Uniformly sampled pose stack with optional derivatives.

    A PlatformPose whose position and orientation_deg are (N, 3), sample k
    at t = k * dt, so solve_platform_ik takes a series as is.  Derivatives,
    when present, are per-sample arrays of the same shape (mm/s, deg/s,
    mm/s^2, deg/s^2).
    """

    dt: float
    lin_vel: np.ndarray | None = None
    ang_vel: np.ndarray | None = None
    lin_acc: np.ndarray | None = None
    ang_acc: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        check_fields(self, positive=("dt",))
        if self.position.ndim != 2:
            raise ValueError("position and orientation_deg must be (N, 3) stacks")
        for name in ("lin_vel", "ang_vel", "lin_acc", "ang_acc"):
            value = getattr(self, name)
            if value is not None and np.shape(value) != self.position.shape:
                raise ValueError(f"{name} must match the pose sample count")

    def __len__(self) -> int:
        return len(self.position)

    @property
    def t(self) -> np.ndarray:
        return np.arange(len(self)) * self.dt

    @property
    def duration(self) -> float:
        return max(len(self) - 1, 0) * self.dt

    def pose(self, i: int) -> PlatformPose:
        return PlatformPose(self.position[i].copy(), self.orientation_deg[i].copy())


@dataclass
class FilterParams:
    """Low-pass Butterworth settings for offline pose smoothing."""

    cutoff_hz: float = 50.0
    order: int = 4
    zero_phase: bool = True

    def __post_init__(self):
        if self.order < 2 or self.order % 2:
            raise ValueError("order: must be a positive even integer")
        check_fields(self, positive=("cutoff_hz",))


@dataclass(eq=False)
class RmseReport:
    """Per-axis and averaged tracking RMSE (translation mm, rotation deg)."""

    translation_mm: np.ndarray
    rotation_deg: np.ndarray

    @property
    def translation_avg_mm(self) -> float:
        return float(np.mean(self.translation_mm))

    @property
    def rotation_avg_deg(self) -> float:
        return float(np.mean(self.rotation_deg))


@dataclass(eq=False)
class JointRmse:
    """Per-joint RMSE in degrees plus the per-leg three-joint average."""

    per_joint_deg: np.ndarray

    @property
    def per_leg_avg_deg(self) -> np.ndarray:
        return self.per_joint_deg.reshape(4, 3).mean(axis=1)


def _triad(fl, fr, bl) -> tuple:
    # Corner axis triad FL->BL, FL->FR and their cross product, as rows, from
    # the FL, FR and BL corners given as components (floats or arrays).
    x_axis, y_axis = _sub(bl, fl), _sub(fr, fl)
    return x_axis, y_axis, _cross(x_axis, y_axis)


def reconstruct_pose(
    q,
    robot,
    platform: PlatformGeometry,
    z_offset_mode: str = Z_OFFSET_WORLD,
) -> PlatformPose:
    """Stage pose recovered from a 12-joint configuration.

    The corner center comes from the closest-point midpoint of the FL->BR
    and FR->BL diagonals; the platform center is that point shifted by
    z_offset, either along the world z axis ('world', exact only at zero
    tilt) or along the reconstructed platform normal ('platform', exact
    for any attainable pose).  Orientation aligns the nominal corner triad
    (FL->BL, FL->FR, and their cross product) onto the measured one.

    One pose runs on Python floats, several times faster than the array
    pass of reconstruct_series on a single row.  Both run one formula core
    on the twelve joint angles as components, floats here and columns
    there, with numpy only for the Kabsch SVD and its determinant-sign
    correction.  The position equals reconstruct_series' row bit for bit,
    the angles to float round-off (math against numpy asin and atan2), and
    the errors are the same, without a sample index.
    """
    q = _joint_vector(q)
    position, rotation = _reconstruct(q.tolist(), robot, platform, z_offset_mode, math)
    return PlatformPose(position, _euler_deg(rotation.tolist(), math))


def _reconstruct(q, robot, platform: PlatformGeometry, z_offset_mode: str, lib):
    # Position components and rotation matrix of the pose from the twelve
    # finite joint angles as components: floats (lib = math) or columns over
    # rows (np), whose rotations are an (N, 3, 3) stack.
    if z_offset_mode not in Z_OFFSET_MODES:
        raise ValueError(f"unknown z_offset_mode {z_offset_mode!r}")
    center, s, t = _center_and_triads(q, robot, platform, lib)
    # h = S^T T, built as the rows of its transpose so that .T gives h or its
    # stack.  The nominal triad is a signed permutation, so these sums give
    # numpy matmul's bits.
    h_t = [[s[0][i] * t[0][j] + s[1][i] * t[1][j] + s[2][i] * t[2][j] for i in range(3)] for j in range(3)]
    rotation = _kabsch(np.array(h_t).T, lib)
    offset_dir = rotation[..., 2].T if z_offset_mode == Z_OFFSET_PLATFORM else [0.0, 0.0, 1.0]
    position = [c + platform.z_offset * d - home for c, d, home in
                zip(center, offset_dir, platform.home_center.tolist())]
    return position, rotation


def _center_and_triads(q, robot, platform: PlatformGeometry, lib):
    # The feet by leg FK, the closest-point midpoint of their diagonals, and
    # the nominal and measured corner triads unit-normalized, as align_vectors
    # does.  Only the measured triad can be degenerate (see PlatformGeometry).
    feet = []
    for i, geom in enumerate(robot):
        foot = _leg_fk_core(*q[3 * i : 3 * i + 3], geom, lib)
        feet.append([f + h for f, h in zip(foot, geom.hip_mount.tolist())])
    fl, fr, bl, br = feet
    center = _midpoint(fl, _sub(br, fl), fr, _sub(bl, fr), lib)
    triads = [_triad(c_fl, c_fr, c_bl) for c_fl, c_fr, c_bl, _ in (platform.corner_offsets.tolist(), feet)]
    norms = [[lib.sqrt(_dot(v, v)) for v in triad] for triad in triads]
    _check(sum(n < DEGENERACY_EPS for n in norms[1]) > 0, DegenerateInputError,
           "zero-length vector in input set")
    s, t = ([[c / nv for c in v] for v, nv in zip(triad, nt)] for triad, nt in zip(triads, norms))
    return center, s, t


def reconstruct_series(
    q_series,
    robot,
    platform: PlatformGeometry,
    dt: float,
    z_offset_mode: str = Z_OFFSET_WORLD,
) -> PoseSeries:
    """reconstruct_pose applied to every row of an (N, 12) joint log.

    The log's distinct rows (by their bits) are reconstructed in one array
    pass, reconstruct_pose's core on their twelve columns, whose result
    each sample takes.  A failing check (ValueError for a non-finite row
    or a zero diagonal, ParallelLinesError, DegenerateInputError, a
    non-rotation) raises the same exception type and message as
    reconstruct_pose, with the first offending sample index added; a
    GimbalLockWarning is issued once and names the first locked sample.
    (So a pass that raises runs again on all rows, and the Euler step,
    which checks and warns last, takes every sample's rotation.)
    """
    q = np.asarray(q_series, dtype=float)
    if q.ndim != 2 or q.shape[1] != NUM_JOINTS:
        raise ValueError("q_series must be (N, 12)")
    _check(np.logical_not(np.all(np.isfinite(q), axis=-1)), ValueError, "q must be finite")
    first, inverse = _distinct_rows(q)
    try:
        position, rotation = _reconstruct(q[first].T, robot, platform, z_offset_mode, np)
    except ValueError:  # raise it naming a sample, not a distinct row
        _reconstruct(q.T, robot, platform, z_offset_mode, np)
        raise
    return PoseSeries(np.stack(position, axis=-1)[inverse], rotation_to_euler(rotation[inverse]), dt)


def _butter(order: int, cutoff_hz: float, fs: float):
    # Low-pass (b, a) in the order of operations of scipy.signal.butter:
    # analog prototype poles, the prewarped cutoff, the bilinear transform
    # at fs = 2, then the polynomials of the zeros (all at -1) and poles.
    warped = float(4.0 * np.tan(np.pi * (cutoff_hz / (fs / 2.0)) / 2.0))
    poles = warped * -np.exp(1j * np.pi * np.arange(1 - order, order, 2) / (2 * order))
    gain = warped**order * np.real(1.0 / np.prod(4.0 - poles))
    return gain * np.poly(-np.ones(order)), np.poly((4.0 + poles) / (4.0 - poles))


def _step_state(b, a) -> np.ndarray:
    # scipy.signal.lfilter_zi: the filter state at a unit step's steady state.
    n = len(a) - 1
    i_minus_a = np.eye(n) - np.eye(n, k=1)
    i_minus_a[:, 0] += a[1:]
    return np.linalg.solve(i_minus_a, b[1:] - a[1:] * b[0])


def _lfilter(b: list, a: list, x: list, z: list) -> list:
    # One channel through the direct-form II transposed recurrence, on
    # Python floats in the operation order of scipy's C loop.  The last
    # state is not written as 0.0 + ..., which would turn -0.0 into +0.0.
    b0, bn, an = b[0], b[-1], a[-1]
    inner = list(zip(range(len(z) - 1), b[1:-1], a[1:-1]))
    y = []
    for xk in x:
        yk = z[0] + b0 * xk
        for j, bj, aj in inner:
            z[j] = z[j + 1] + xk * bj - yk * aj
        z[-1] = xk * bn - yk * an
        y.append(yk)
    return y


def butterworth_filter(series, fs: float, params: FilterParams) -> np.ndarray:
    """Low-pass Butterworth over a uniformly sampled sequence: a scalar
    series (N,), or k channels (N, k) filtered each on its own along axis 0.

    Zero-phase mode runs the filter forward and backward (no phase lag,
    squared magnitude response) over an odd extension of 3 * order samples
    at each end; single-pass mode initializes the filter state at the first
    sample's steady state, so constant inputs pass through unchanged.  The
    result is bit for bit that of scipy.signal.butter followed by
    filtfilt(..., padlen=3 * order), or by lfilter with lfilter_zi scaled
    by the first sample, without depending on scipy.

    Raises:
        ValueError: cutoff at or above Nyquist, or fewer than
            3 * order + 1 samples.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("series must be (N,) or (N, k)")
    if params.cutoff_hz >= fs / 2.0:
        raise ValueError(
            f"cutoff {params.cutoff_hz} Hz must be below the Nyquist rate {fs / 2.0} Hz"
        )
    pad = 3 * params.order
    if len(x) <= pad:
        raise ValueError(f"sequence too short: need more than {pad} samples")
    b, a = _butter(params.order, params.cutoff_hz, fs)
    zi = _step_state(b, a)
    b, a = b.tolist(), a.tolist()
    columns = x[:, None] if x.ndim == 1 else x
    if params.zero_phase:
        columns = np.concatenate((2 * columns[:1] - columns[pad:0:-1], columns,
                                  2 * columns[-1:] - columns[-2:-pad - 2:-1]))
    out = np.empty((len(x), columns.shape[1]))
    for i, channel in enumerate(columns.T):
        y = _lfilter(b, a, channel.tolist(), (zi * channel[0]).tolist())
        if params.zero_phase:
            y = _lfilter(b, a, y[::-1], (zi * y[-1]).tolist())[::-1][pad:-pad]
        out[:, i] = y
    return out.reshape(x.shape)


def unwrap_deg(angles) -> np.ndarray:
    """Angle channels (N, k) in degrees with every step above 180 deg
    unwrapped.  A channel without such a step is returned bit for bit:
    np.unwrap would turn its -0.0 samples into +0.0."""
    jumps = np.any(np.abs(np.diff(angles, axis=0)) > 180.0, axis=0)
    out = angles.copy()
    out[:, jumps] = np.unwrap(angles[:, jumps], period=360.0, axis=0)
    return out


def filter_series(series: PoseSeries, params: FilterParams) -> PoseSeries:
    """Butterworth-filter every pose channel of a series, the Euler
    channels after unwrap_deg."""
    fs = 1.0 / series.dt
    return PoseSeries(butterworth_filter(series.position, fs, params),
                      butterworth_filter(unwrap_deg(series.orientation_deg), fs, params), series.dt)


def differentiate(series: PoseSeries) -> PoseSeries:
    """Series with linear/angular velocity and acceleration attached.

    Central differences in the interior, second-order one-sided stencils
    at the two boundary samples.  Angular rates are per-channel Euler-angle
    differences, a small-angle stand-in for true body rates, taken on (and
    returned with) the orientations after unwrap_deg.
    """
    if len(series) < 3:
        raise ValueError("need at least 3 samples to differentiate")
    orientations = unwrap_deg(series.orientation_deg)
    lin_vel = np.gradient(series.position, series.dt, axis=0, edge_order=2)
    ang_vel = np.gradient(orientations, series.dt, axis=0, edge_order=2)
    lin_acc = np.gradient(lin_vel, series.dt, axis=0, edge_order=2)
    ang_acc = np.gradient(ang_vel, series.dt, axis=0, edge_order=2)
    return replace(series, orientation_deg=orientations, lin_vel=lin_vel, ang_vel=ang_vel,
                   lin_acc=lin_acc, ang_acc=ang_acc)


def rmse_report(target: PoseSeries, actual: PoseSeries) -> RmseReport:
    """Per-axis RMSE between a target and an achieved pose series; angles
    are compared modulo 360 deg."""
    if len(target) != len(actual):
        raise ValueError(f"length mismatch: target {len(target)} vs actual {len(actual)}")
    if abs(target.dt - actual.dt) > 1e-12:
        raise ValueError(f"dt mismatch: target {target.dt} vs actual {actual.dt}")
    d_pos = target.position - actual.position
    d_rot = target.orientation_deg - actual.orientation_deg
    d_rot = np.where(np.abs(d_rot) > 180.0, (d_rot + 180.0) % 360.0 - 180.0, d_rot)
    return RmseReport(
        translation_mm=np.sqrt(np.mean(d_pos**2, axis=0)),
        rotation_deg=np.sqrt(np.mean(d_rot**2, axis=0)),
    )


def joint_rmse(target_q, actual_q) -> JointRmse:
    """Per-joint tracking RMSE in degrees over two (N, 12) sequences."""
    target_q = np.asarray(target_q, dtype=float)
    actual_q = np.asarray(actual_q, dtype=float)
    if target_q.shape != actual_q.shape:
        raise ValueError(f"shape mismatch: {target_q.shape} vs {actual_q.shape}")
    err_deg = np.degrees(target_q - actual_q)
    return JointRmse(per_joint_deg=np.sqrt(np.mean(err_deg**2, axis=0)))
