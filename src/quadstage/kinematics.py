"""Leg-chain and platform kinematics.

Model frame: x forward, y left, z up, with the hip plane at z = 0 and the
stage (corner ball joints plus platform plate) hanging below it at
negative z.  One leg is a 3-DoF chain: hip abduction-adduction about the
body x axis, then a two-link planar pair (hip flexion-extension and knee
flexion-extension) in the sagittal plane, which may be laterally offset
from the hip axis.  All twelve joints are ordered::

    [FL, FR, BL, BR] x [hip_aa, hip_fe, knee_fe]

with angles in radians; zero angles put a leg straight down, foot at
``hip + (0, side * hip_offset_y, -(l_upper + l_lower))``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import euler_to_rotation, rot_x, rot_y

LEG_NAMES = ("fl", "fr", "bl", "br")
JOINT_NAMES = ("hip_aa", "hip_fe", "knee_fe")
NUM_JOINTS = 12


class KinematicsError(ValueError):
    """Base class for kinematics failures."""


class UnreachableError(KinematicsError):
    """Target lies outside the leg's reachable set.

    Attributes:
        deficit_mm: how far (mm) the target is beyond reachability.
        leg: index of the offending leg when raised for a platform solve.
    """

    def __init__(self, message: str, deficit_mm: float, leg: int | None = None):
        super().__init__(message)
        self.deficit_mm = deficit_mm
        self.leg = leg


class WorkspaceViolationError(KinematicsError):
    """Pose violates the translation/rotation workspace box."""

    def __init__(self, violations):
        labels = ", ".join(f"{name}={value:+.3f} (bound {bound:.3f})" for name, value, bound in violations)
        super().__init__(f"pose outside workspace: {labels}")
        self.violations = list(violations)


class BallPivotError(KinematicsError):
    """A corner ball joint exceeds its pivot cone."""

    def __init__(self, leg: int, angle_deg: float, limit_deg: float):
        super().__init__(
            f"ball-joint pivot {angle_deg:.2f} deg on leg {LEG_NAMES[leg]} "
            f"exceeds {limit_deg:.2f} deg"
        )
        self.leg = leg
        self.angle_deg = angle_deg


@dataclass
class LegGeometry:
    """Geometry of one 3-DoF leg chain.

    Args:
        hip_mount: hip joint position in the body frame (mm).
        l_upper: upper link length (mm).
        l_lower: lower link length (mm).
        hip_offset_y: lateral offset of the leg plane from the hip axis (mm).
        side: 'left' or 'right'; signs the lateral offset (+y for left).
        knee_sign: +1 or -1, selects the elbow branch used by the solver.
        joint_limit_deg: symmetric soft joint limit, reported not enforced.
    """

    hip_mount: np.ndarray
    l_upper: float
    l_lower: float
    hip_offset_y: float = 0.0
    side: str = "left"
    knee_sign: int = 1
    joint_limit_deg: float = 170.0

    def __post_init__(self):
        self.hip_mount = np.asarray(self.hip_mount, dtype=float)
        if self.hip_mount.shape != (3,):
            raise ValueError("hip_mount must be a 3-vector")
        if self.l_upper <= 0 or self.l_lower <= 0:
            raise ValueError("link lengths must be positive")
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        if self.knee_sign not in (-1, 1):
            raise ValueError("knee_sign must be +1 or -1")

    @property
    def side_sign(self) -> float:
        return 1.0 if self.side == "left" else -1.0


@dataclass
class PlatformGeometry:
    """Rigid platform carried by the four feet.

    corner_offsets are the ball-joint positions in the platform frame
    (origin at the platform center), ordered FL/FR/BL/BR; they must form a
    planar rectangle.  z_offset is the distance from the ball-joint plane
    up to the platform center, so each corner offset has z = -z_offset.
    home_center is the platform-center position in the body frame when the
    pose is zero.
    """

    corner_offsets: np.ndarray
    z_offset: float
    home_center: np.ndarray

    def __post_init__(self):
        self.corner_offsets = np.asarray(self.corner_offsets, dtype=float)
        self.home_center = np.asarray(self.home_center, dtype=float)
        if self.corner_offsets.shape != (4, 3):
            raise ValueError("corner_offsets must be (4, 3)")
        if self.home_center.shape != (3,):
            raise ValueError("home_center must be a 3-vector")
        fl, fr, bl, br = self.corner_offsets
        diag_lengths = (np.linalg.norm(br - fl), np.linalg.norm(bl - fr))
        if abs(diag_lengths[0] - diag_lengths[1]) > 1e-9:
            raise ValueError("corner rectangle invalid: diagonals differ in length")
        if np.max(np.abs((fl + br) / 2 - (fr + bl) / 2)) > 1e-9:
            raise ValueError("corner rectangle invalid: diagonals do not bisect each other")


@dataclass
class PlatformPose:
    """Stage pose: center position (mm, relative to home) and intrinsic
    x-y-z Euler orientation (degrees)."""

    position: np.ndarray
    orientation_deg: np.ndarray

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.orientation_deg = np.asarray(self.orientation_deg, dtype=float)
        if self.position.shape != (3,) or self.orientation_deg.shape != (3,):
            raise ValueError("position and orientation_deg must be 3-vectors")
        if not (np.all(np.isfinite(self.position)) and np.all(np.isfinite(self.orientation_deg))):
            raise ValueError("pose must be finite")

    @classmethod
    def home(cls) -> "PlatformPose":
        return cls(np.zeros(3), np.zeros(3))

    def rotation(self) -> np.ndarray:
        return euler_to_rotation(self.orientation_deg)


@dataclass
class WorkspaceLimits:
    """Axis-aligned translation bounds (mm), per-axis rotation bounds
    (deg), and the ball-joint pivot cone half-angle (deg)."""

    x_max: float = 255.0
    y_max: float = 105.0
    z_max: float = 105.0
    rot_max: float = 30.0
    ball_pivot_max: float = 30.0

    def __post_init__(self):
        for name in ("x_max", "y_max", "z_max", "rot_max", "ball_pivot_max"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be positive")


@dataclass
class WorkspaceReport:
    """Outcome of a workspace check; valid means no violations at all."""

    valid: bool
    translation_violations: list = field(default_factory=list)
    rotation_violations: list = field(default_factory=list)
    pivot_angles_deg: np.ndarray | None = None
    pivot_violations: list = field(default_factory=list)
    joint_limit_violations: list = field(default_factory=list)


def _planar_foot(q_hip, q_knee, geom: LegGeometry, lib=math):
    # Sagittal-plane foot position; angles measured from straight down
    # toward +x.  lib is math for scalars, numpy for arrays.
    xp = geom.l_upper * lib.sin(q_hip) + geom.l_lower * lib.sin(q_hip + q_knee)
    zp = -(geom.l_upper * lib.cos(q_hip) + geom.l_lower * lib.cos(q_hip + q_knee))
    return xp, zp


def leg_fk(q_leg, geom: LegGeometry) -> np.ndarray:
    """Foot (ball-joint) position in the body frame for one leg (mm).

    Array-first: q_leg is (..., 3) joint angles [hip_aa, hip_fe, knee_fe]
    in radians and the result is (..., 3).
    """
    q = np.asarray(q_leg, dtype=float)
    # One configuration (the per-pose IK re-check) runs on math scalars,
    # which is about twice as fast as numpy ufuncs on 0-d values.
    lib = math if q.ndim == 1 else np
    q_aa, q_hip, q_knee = q[..., 0], q[..., 1], q[..., 2]
    xp, zp = _planar_foot(q_hip, q_knee, geom, lib)
    y = geom.side_sign * geom.hip_offset_y
    c, s = lib.cos(q_aa), lib.sin(q_aa)
    # hip_mount + Rx(q_aa) @ (xp, y, zp)
    foot = np.empty_like(q)
    foot[..., 0] = xp
    foot[..., 1] = c * y - s * zp
    foot[..., 2] = s * y + c * zp
    foot += geom.hip_mount
    return foot


def leg_ik(p_target, geom: LegGeometry, branch: int | None = None) -> np.ndarray:
    """Closed-form joint angles placing the foot at p_target (body frame).

    The hip abduction angle is solved from the y-z projection so the leg
    plane passes through the target at the configured lateral offset; the
    remaining planar two-link problem is solved by the law of cosines.
    branch overrides the knee-bend sign configured on the leg.

    Raises:
        UnreachableError: with the distance still missing (deficit_mm) when
            the target is beyond full extension, inside the fold limit, or
            closer to the hip axis than the lateral offset allows.
    """
    p = np.asarray(p_target, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("target must be finite")
    sign = geom.knee_sign if branch is None else branch
    if sign not in (-1, 1):
        raise ValueError("branch must be +1 or -1")
    v = p - geom.hip_mount
    d = geom.side_sign * geom.hip_offset_y

    rho = math.hypot(v[1], v[2])
    if rho < abs(d):
        raise UnreachableError(
            f"target only {rho:.3f} mm from the hip axis, lateral offset needs {abs(d):.3f} mm",
            deficit_mm=abs(d) - rho,
        )
    cos_lateral = min(1.0, max(-1.0, d / rho)) if rho > 0.0 else 0.0
    q_aa = math.atan2(v[2], v[1]) + math.acos(cos_lateral)
    if q_aa > math.pi:
        q_aa -= 2.0 * math.pi

    xp = v[0]
    zp = -math.sqrt(max(rho * rho - d * d, 0.0))
    r2 = xp * xp + zp * zp
    r = math.sqrt(r2)
    lu, ll = geom.l_upper, geom.l_lower
    cos_knee = (r2 - lu * lu - ll * ll) / (2.0 * lu * ll)
    if cos_knee > 1.0:
        reach = lu + ll
        if r - reach > 1e-12 * reach:
            raise UnreachableError(
                f"target {r:.3f} mm from hip exceeds reach {reach:.3f} mm",
                deficit_mm=r - reach,
            )
        cos_knee = 1.0
    elif cos_knee < -1.0:
        inner = abs(lu - ll)
        if inner - r > 1e-12 * max(inner, 1.0):
            raise UnreachableError(
                f"target {r:.3f} mm from hip is inside the fold radius {inner:.3f} mm",
                deficit_mm=inner - r,
            )
        cos_knee = -1.0
    q_knee = sign * math.acos(cos_knee)
    q_hip = math.atan2(xp, -zp) - math.atan2(
        ll * math.sin(q_knee), lu + ll * math.cos(q_knee)
    )
    return np.array([q_aa, q_hip, q_knee])


def leg_jacobian(q_leg, geom: LegGeometry) -> np.ndarray:
    """Analytic 3x3 Jacobian d(foot position)/d(joint angles) in mm/rad."""
    q_aa, q_hip, q_knee = np.asarray(q_leg, dtype=float)
    lu, ll = geom.l_upper, geom.l_lower
    xp, zp = _planar_foot(q_hip, q_knee, geom)
    rx = rot_x(q_aa)
    p_rel = rx @ np.array([xp, geom.side_sign * geom.hip_offset_y, zp])
    # d/dq_aa of Rx(q_aa) w  =  x_hat x (Rx w)
    col_aa = np.array([0.0, -p_rel[2], p_rel[1]])
    c_h, s_h = math.cos(q_hip), math.sin(q_hip)
    c_hk, s_hk = math.cos(q_hip + q_knee), math.sin(q_hip + q_knee)
    col_hip = rx @ np.array([lu * c_h + ll * c_hk, 0.0, lu * s_h + ll * s_hk])
    col_knee = rx @ np.array([ll * c_hk, 0.0, ll * s_hk])
    return np.column_stack([col_aa, col_hip, col_knee])


def platform_corners(pose: PlatformPose, geom: PlatformGeometry) -> np.ndarray:
    """Body-frame positions (4, 3) of the corner ball joints for a pose."""
    r = pose.rotation()
    return geom.home_center + pose.position + geom.corner_offsets @ r.T


def _lower_link_rotation(q_leg) -> np.ndarray:
    # Body-frame orientation of the lower link (the foot that carries the
    # ball-joint socket).
    q_aa, q_hip, q_knee = q_leg
    return rot_x(q_aa) @ rot_y(-(q_hip + q_knee))


def pivot_angles_deg(q, robot, platform: PlatformGeometry, pose: PlatformPose) -> np.ndarray:
    """Ball-joint pivot angle per corner (deg).

    The stud is normal to the platform; the socket axis is the material
    direction of the distal link that coincides with the stud at the home
    pose (the press-fit assembly orientation).  The pivot is the angle
    between the two: zero at home, growing as the platform tilts or the
    leg swings away from its home configuration.
    """
    q = np.asarray(q, dtype=float).reshape(4, 3)
    normal = pose.rotation() @ np.array([0.0, 0.0, 1.0])
    home_corners = platform.home_center + platform.corner_offsets
    home_axes = _home_socket_axes(
        tuple(map(tuple, home_corners.tolist())),
        tuple(
            (tuple(g.hip_mount.tolist()), g.l_upper, g.l_lower, g.hip_offset_y, g.side, g.knee_sign)
            for g in robot
        ),
    )
    angles = np.empty(4)
    for i in range(4):
        socket = _lower_link_rotation(q[i]) @ home_axes[i]
        angles[i] = math.degrees(math.acos(min(1.0, max(-1.0, float(socket @ normal)))))
    return angles


@functools.lru_cache(maxsize=16)
def _home_socket_axes(home_corners: tuple, legs: tuple) -> np.ndarray:
    # Socket axis of each lower link at the home pose, (4, 3) and read-only.
    # Keyed on geometry values, not objects: LegGeometry and
    # PlatformGeometry are mutable, so an object key could go stale.
    z_hat = np.array([0.0, 0.0, 1.0])
    axes = np.array([
        _lower_link_rotation(leg_ik(np.array(corner), LegGeometry(*leg))).T @ z_hat
        for corner, leg in zip(home_corners, legs)
    ])
    axes.flags.writeable = False
    return axes


def check_pose_bounds(pose: PlatformPose, limits: WorkspaceLimits):
    """Translation/rotation box violations for a pose, as (label, value, bound) tuples."""
    trans, rot = [], []
    for axis, bound in zip("xyz", (limits.x_max, limits.y_max, limits.z_max)):
        value = float(pose.position["xyz".index(axis)])
        if abs(value) > bound:
            trans.append((f"{axis}_mm", value, bound))
    for axis in range(3):
        value = float(pose.orientation_deg[axis])
        if abs(value) > limits.rot_max:
            rot.append((f"r{'xyz'[axis]}_deg", value, limits.rot_max))
    return trans, rot


def workspace_check(
    pose: PlatformPose,
    q,
    limits: WorkspaceLimits,
    robot=None,
    platform: PlatformGeometry | None = None,
) -> WorkspaceReport:
    """Validity report for a pose and (optionally) a joint configuration.

    Checks the translation box and per-axis rotation bounds; when q and the
    geometry are supplied it also reports the four ball-joint pivot angles
    against the pivot cone and any soft joint-limit excursions.
    """
    trans, rot = check_pose_bounds(pose, limits)
    report = WorkspaceReport(valid=not (trans or rot), translation_violations=trans, rotation_violations=rot)
    if q is None or robot is None or platform is None:
        return report
    q = np.asarray(q, dtype=float)
    report.pivot_angles_deg = pivot_angles_deg(q, robot, platform, pose)
    for i, angle in enumerate(report.pivot_angles_deg):
        if angle > limits.ball_pivot_max:
            report.pivot_violations.append((LEG_NAMES[i], float(angle), limits.ball_pivot_max))
    for i, geom in enumerate(robot):
        limit = math.radians(geom.joint_limit_deg)
        for j in range(3):
            value = q.reshape(4, 3)[i, j]
            if abs(value) > limit:
                report.joint_limit_violations.append(
                    (f"{LEG_NAMES[i]}_{JOINT_NAMES[j]}", math.degrees(value), geom.joint_limit_deg)
                )
    if report.pivot_violations or report.joint_limit_violations:
        report.valid = False
    return report


def solve_platform_ik(
    pose: PlatformPose,
    robot,
    platform: PlatformGeometry,
    limits: WorkspaceLimits | None = None,
    check_pivot: bool = False,
) -> np.ndarray:
    """Joint vector (12,) placing all four feet on the posed corners.

    When limits are given the pose is first checked against the workspace
    box; the pivot cone is additionally enforced only with check_pivot
    (routine poses inside the box can exceed it, so by default pivot
    angles are reported through workspace_check instead of rejected here).

    Raises:
        WorkspaceViolationError: pose outside the box (limits given).
        UnreachableError: some corner is out of a leg's reach; .leg names it.
        BallPivotError: pivot cone exceeded (check_pivot=True only).
    """
    if limits is not None:
        trans, rot = check_pose_bounds(pose, limits)
        if trans or rot:
            raise WorkspaceViolationError(trans + rot)
    corners = platform_corners(pose, platform)
    q = np.empty(NUM_JOINTS)
    for i, geom in enumerate(robot):
        try:
            q[3 * i : 3 * i + 3] = leg_ik(corners[i], geom)
        except UnreachableError as err:
            raise UnreachableError(
                f"leg {LEG_NAMES[i]}: {err}", deficit_mm=err.deficit_mm, leg=i
            ) from err
    for i, geom in enumerate(robot):
        err = float(np.linalg.norm(leg_fk(q[3 * i : 3 * i + 3], geom) - corners[i]))
        if err > 1e-6:
            raise KinematicsError(f"leg {LEG_NAMES[i]} solution inconsistent: {err:.2e} mm")
    if check_pivot and limits is not None:
        angles = pivot_angles_deg(q, robot, platform, pose)
        worst = int(np.argmax(angles))
        if angles[worst] > limits.ball_pivot_max:
            raise BallPivotError(worst, float(angles[worst]), limits.ball_pivot_max)
    return q
