"""Pose reconstruction from joint angles, filtering, differentiation, and
tracking-error reports.

Reconstruction recovers the stage pose purely from the twelve joint
angles: forward kinematics gives the four corner ball joints, the two
rectangle diagonals locate the center, and aligning the corner-built axis
triad against its nominal counterpart gives the orientation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import signal

from .geometry import align_vectors, cross, line_closest_midpoint, rotation_to_euler
from .kinematics import NUM_JOINTS, PlatformGeometry, PlatformPose, leg_fk

Z_OFFSET_WORLD = "world"  # center offset applied along the world z axis
Z_OFFSET_PLATFORM = "platform"  # center offset applied along the platform normal


@dataclass
class PoseSeries:
    """Uniformly sampled pose sequence with optional derivatives.

    Sample k is at t = k * dt.  positions are mm relative to the home
    center, orientations intrinsic x-y-z Euler angles in degrees, both
    (N, 3) and finite; derivatives, when present, are per-sample arrays of
    the same shape (mm/s, deg/s, mm/s^2, deg/s^2).
    """

    dt: float
    positions: np.ndarray
    orientations_deg: np.ndarray
    lin_vel: np.ndarray | None = None
    ang_vel: np.ndarray | None = None
    lin_acc: np.ndarray | None = None
    ang_acc: np.ndarray | None = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.orientations_deg = np.asarray(self.orientations_deg, dtype=float)
        if self.positions.shape[1:] != (3,) or self.orientations_deg.shape != self.positions.shape:
            raise ValueError("positions and orientations must both be (N, 3)")
        if not (np.all(np.isfinite(self.positions)) and np.all(np.isfinite(self.orientations_deg))):
            raise ValueError("pose samples must be finite")
        for name in ("lin_vel", "ang_vel", "lin_acc", "ang_acc"):
            value = getattr(self, name)
            if value is not None and np.asarray(value).shape != self.positions.shape:
                raise ValueError(f"{name} must match the pose sample count")

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def t(self) -> np.ndarray:
        return np.arange(len(self)) * self.dt

    @property
    def duration(self) -> float:
        return max(len(self) - 1, 0) * self.dt

    def pose(self, i: int) -> PlatformPose:
        return PlatformPose(self.positions[i].copy(), self.orientations_deg[i].copy())

    @classmethod
    def from_trajectory(cls, traj) -> "PoseSeries":
        """A copy of the poses of traj, without its derivatives."""
        return cls(traj.dt, traj.positions.copy(), traj.orientations_deg.copy())


@dataclass
class FilterParams:
    """Low-pass Butterworth settings for offline pose smoothing."""

    cutoff_hz: float = 50.0
    order: int = 4
    zero_phase: bool = True

    def __post_init__(self):
        if self.cutoff_hz <= 0:
            raise ValueError("cutoff_hz: must be positive")
        if self.order < 2 or self.order % 2:
            raise ValueError("order: must be a positive even integer")


@dataclass
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


@dataclass
class JointRmse:
    """Per-joint RMSE in degrees plus the per-leg three-joint average."""

    per_joint_deg: np.ndarray

    @property
    def per_leg_avg_deg(self) -> np.ndarray:
        return self.per_joint_deg.reshape(4, 3).mean(axis=1)


def _triad(points) -> np.ndarray:
    # Corner axis triad (..., 3, 3): FL->BL, FL->FR and their cross product,
    # from corner points (..., 4, 3) ordered FL/FR/BL/BR.
    x_axis = points[..., 2, :] - points[..., 0, :]
    y_axis = points[..., 1, :] - points[..., 0, :]
    return np.stack([x_axis, y_axis, cross(x_axis, y_axis)], axis=-2)


def _reconstruct(q, robot, platform: PlatformGeometry, z_offset_mode: str):
    # Position (..., 3) and Euler angles (..., 3) over the leading axes of
    # q (..., 12): one call per leg to leg_fk and one per batch to each
    # geometry function, so a stack is reconstructed in a single pass.
    if z_offset_mode not in (Z_OFFSET_WORLD, Z_OFFSET_PLATFORM):
        raise ValueError(f"unknown z_offset_mode {z_offset_mode!r}")
    feet = np.stack([leg_fk(q[..., 3 * i : 3 * i + 3], geom) for i, geom in enumerate(robot)],
                    axis=-2)
    fl, fr, bl, br = np.moveaxis(feet, -2, 0)
    center_corners = line_closest_midpoint(fl, br - fl, fr, bl - fr)
    # align_vectors unit-normalizes both triads itself.
    rotation = align_vectors(_triad(platform.corner_offsets), _triad(feet))
    if z_offset_mode == Z_OFFSET_PLATFORM:
        offset_dir = rotation[..., 2]  # R @ z_hat
    else:
        offset_dir = np.array([0.0, 0.0, 1.0])
    center = center_corners + platform.z_offset * offset_dir
    return center - platform.home_center, rotation_to_euler(rotation)


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

    This is the single-sample case of reconstruct_series: both run the
    same code.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (NUM_JOINTS,):
        raise ValueError(f"q must be ({NUM_JOINTS},), got {q.shape}")
    return PlatformPose(*_reconstruct(q, robot, platform, z_offset_mode))


def reconstruct_series(
    q_series,
    robot,
    platform: PlatformGeometry,
    dt: float,
    z_offset_mode: str = Z_OFFSET_WORLD,
) -> PoseSeries:
    """reconstruct_pose applied to every row of an (N, 12) joint log.

    The whole log is reconstructed in one array pass.  A failing check
    (ValueError for a zero diagonal, ParallelLinesError,
    DegenerateInputError, a non-rotation) raises the same exception type
    as reconstruct_pose, with the first offending sample index in its
    message; a GimbalLockWarning is issued once and names the first
    locked sample.
    """
    q_series = np.asarray(q_series, dtype=float)
    if q_series.ndim != 2 or q_series.shape[1] != NUM_JOINTS:
        raise ValueError("q_series must be (N, 12)")
    return PoseSeries(dt, *_reconstruct(q_series, robot, platform, z_offset_mode))


def butterworth_filter(series, fs: float, params: FilterParams) -> np.ndarray:
    """Low-pass Butterworth over a uniformly sampled scalar sequence.

    Zero-phase mode runs the filter forward and backward (no phase lag,
    squared magnitude response); single-pass mode initializes the filter
    state at the first sample's steady state, so constant inputs pass
    through unchanged.

    Raises:
        ValueError: cutoff at or above Nyquist, or fewer than
            3 * order + 1 samples.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if params.cutoff_hz >= fs / 2.0:
        raise ValueError(
            f"cutoff {params.cutoff_hz} Hz must be below the Nyquist rate {fs / 2.0} Hz"
        )
    if len(x) <= 3 * params.order:
        raise ValueError(f"sequence too short: need more than {3 * params.order} samples")
    b, a = signal.butter(params.order, params.cutoff_hz, fs=fs)
    if params.zero_phase:
        return signal.filtfilt(b, a, x, padlen=3 * params.order)
    zi = signal.lfilter_zi(b, a) * x[0]
    y, _ = signal.lfilter(b, a, x, zi=zi)
    return y


def filter_series(series: PoseSeries, params: FilterParams) -> PoseSeries:
    """Butterworth-filter every pose channel of a series."""
    fs = 1.0 / series.dt
    positions = np.column_stack(
        [butterworth_filter(series.positions[:, i], fs, params) for i in range(3)]
    )
    orientations = np.column_stack(
        [butterworth_filter(series.orientations_deg[:, i], fs, params) for i in range(3)]
    )
    return PoseSeries(series.dt, positions, orientations)


def differentiate(series: PoseSeries) -> PoseSeries:
    """Series with linear/angular velocity and acceleration attached.

    Central differences in the interior, second-order one-sided stencils
    at the two boundary samples.  Angular rates are per-channel Euler-angle
    differences, a small-angle stand-in for true body rates.
    """
    if len(series) < 3:
        raise ValueError("need at least 3 samples to differentiate")
    lin_vel = np.gradient(series.positions, series.dt, axis=0, edge_order=2)
    ang_vel = np.gradient(series.orientations_deg, series.dt, axis=0, edge_order=2)
    lin_acc = np.gradient(lin_vel, series.dt, axis=0, edge_order=2)
    ang_acc = np.gradient(ang_vel, series.dt, axis=0, edge_order=2)
    return replace(series, lin_vel=lin_vel, ang_vel=ang_vel, lin_acc=lin_acc, ang_acc=ang_acc)


def rmse_report(target: PoseSeries, actual: PoseSeries) -> RmseReport:
    """Per-axis RMSE between a target and an achieved pose series."""
    if len(target) != len(actual):
        raise ValueError(f"length mismatch: target {len(target)} vs actual {len(actual)}")
    if abs(target.dt - actual.dt) > 1e-12:
        raise ValueError(f"dt mismatch: target {target.dt} vs actual {actual.dt}")
    d_pos = target.positions - actual.positions
    d_rot = target.orientations_deg - actual.orientations_deg
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
