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

from .geometry import _plane_rotations, at_sample, euler_to_rotation

LEG_NAMES = ("fl", "fr", "bl", "br")
JOINT_NAMES = ("hip_aa", "hip_fe", "knee_fe")
NUM_JOINTS = 12


def check_positive(obj, *names: str) -> None:
    """ValueError "<name>: must be positive" for the first field not > 0 (NaN included)."""
    for name in names:
        if not getattr(obj, name) > 0:
            raise ValueError(f"{name}: must be positive")


def check_non_negative(obj, *names: str) -> None:
    """ValueError "<name>: must be >= 0" for the first field not >= 0 (NaN included)."""
    for name in names:
        if not getattr(obj, name) >= 0:
            raise ValueError(f"{name}: must be >= 0")


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


@dataclass(frozen=True, eq=False)
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
        hip_mount = np.asarray(self.hip_mount, dtype=float)
        if hip_mount.shape != (3,):
            raise ValueError("hip_mount must be a 3-vector")
        hip_mount.flags.writeable = False
        object.__setattr__(self, "hip_mount", hip_mount)
        check_positive(self, "l_upper", "l_lower", "joint_limit_deg")
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        if self.knee_sign not in (-1, 1):
            raise ValueError("knee_sign must be +1 or -1")

    @property
    def side_sign(self) -> float:
        return 1.0 if self.side == "left" else -1.0


@dataclass(frozen=True)
class PlatformGeometry:
    """Rigid rectangular platform carried by the four feet (mm).

    length_x by width_y is the corner ball-joint rectangle, z_offset the
    distance from the ball-joint plane up to the platform center, and
    home_height the depth of the ball-joint plane below the hip plane at the
    zero pose.  Derived from them: corner_offsets (4, 3), the ball-joint
    positions in the platform frame (origin at the platform center),
    ordered FL/FR/BL/BR, each with z = -z_offset; and home_center, the
    platform-center position in the body frame at the zero pose.
    """

    length_x: float = 400.0
    width_y: float = 300.0
    z_offset: float = 20.0
    home_height: float = 340.0

    def __post_init__(self):
        check_positive(self, "length_x", "width_y", "home_height")
        check_non_negative(self, "z_offset")
        hx, hy, z0 = self.length_x / 2.0, self.width_y / 2.0, self.z_offset
        corners = np.array([[hx, hy, -z0], [hx, -hy, -z0], [-hx, hy, -z0], [-hx, -hy, -z0]])
        center = np.array([0.0, 0.0, -self.home_height + z0])
        corners.flags.writeable = center.flags.writeable = False
        object.__setattr__(self, "corner_offsets", corners)
        object.__setattr__(self, "home_center", center)


@dataclass
class PlatformPose:
    """Stage pose: center position (mm, relative to home) and intrinsic
    x-y-z Euler orientation (degrees).

    position and orientation_deg are 3-vectors for one pose, or both
    (N, 3) for a stacked pose of N samples (which solve_platform_ik solves
    in one array pass).
    """

    position: np.ndarray
    orientation_deg: np.ndarray

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.orientation_deg = np.asarray(self.orientation_deg, dtype=float)
        if (self.position.shape[-1:] != (3,) or self.position.ndim > 2
                or self.orientation_deg.shape != self.position.shape):
            raise ValueError("position and orientation_deg must be 3-vectors or (N, 3) stacks")
        if not (np.isfinite(self.position).all() and np.isfinite(self.orientation_deg).all()):
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
        check_positive(self, "x_max", "y_max", "z_max", "rot_max", "ball_pivot_max")


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


# The clamp into [-1, 1] ahead of acos, for each lib of _leg_ik_core.
_CLIP_UNIT = {math: lambda x: min(1.0, max(-1.0, x)), np: lambda x: np.clip(x, -1.0, 1.0)}


def _leg_ik_core(x, y, z, geom: LegGeometry, sign, lib):
    # leg_ik's closed form for a target (x, y, z) from the hip mount, math
    # scalars for one target or numpy arrays for a stack: the joint angles
    # (clamped stand-ins when unreachable), then rho, r and the unclamped
    # cos_knee for _reach_tests.
    clip = _CLIP_UNIT[lib]
    d = geom.side_sign * geom.hip_offset_y
    rho = lib.hypot(y, z)
    # d / rho, or 0 on the hip axis (where only d = 0 is reachable)
    q_aa = lib.atan2(z, y) + lib.acos(clip(d / (rho + (rho == 0.0))))
    q_aa = q_aa - 2.0 * math.pi * (q_aa > math.pi)
    zp = -lib.sqrt((rho * rho - d * d) * (rho * rho > d * d))
    r2 = x * x + zp * zp
    lu, ll = geom.l_upper, geom.l_lower
    cos_knee = (r2 - lu * lu - ll * ll) / (2.0 * lu * ll)
    q_knee = sign * lib.acos(clip(cos_knee))
    q_hip = lib.atan2(x, -zp) - lib.atan2(ll * lib.sin(q_knee), lu + ll * lib.cos(q_knee))
    return q_aa, q_hip, q_knee, rho, lib.sqrt(r2), cos_knee


def _reach_tests(rho, r, cos_knee, geom: LegGeometry):
    # leg_ik's unreachability tests in its order (lateral offset, full
    # extension within 1e-12 relative, fold radius), as (failed, deficit_mm,
    # message, distance, limit); failed is a bool, or a mask for a stack.
    offset = abs(geom.hip_offset_y)
    lu, ll = geom.l_upper, geom.l_lower
    reach, inner = lu + ll, abs(lu - ll)
    return (
        (rho < offset, offset - rho,
         "target only {:.3f} mm from the hip axis, lateral offset needs {:.3f} mm", rho, offset),
        ((cos_knee > 1.0) & (r - reach > 1e-12 * reach), r - reach,
         "target {:.3f} mm from hip exceeds reach {:.3f} mm", r, reach),
        ((cos_knee < -1.0) & (inner - r > 1e-12 * max(inner, 1.0)), inner - r,
         "target {:.3f} mm from hip is inside the fold radius {:.3f} mm", r, inner),
    )


def leg_ik(p_target, geom: LegGeometry, branch: int | None = None) -> np.ndarray:
    """Closed-form joint angles placing the foot at p_target (body frame).

    The hip abduction angle is solved from the y-z projection so the leg
    plane passes through the target at the configured lateral offset; the
    remaining planar two-link problem is solved by the law of cosines.
    branch overrides the knee-bend sign configured on the leg.

    Raises:
        UnreachableError: with the distance still missing (deficit_mm) when
            the target is closer to the hip axis than the lateral offset
            allows, beyond full extension, or inside the fold radius
            (tested in that order).
    """
    p = np.asarray(p_target, dtype=float)
    if not np.isfinite(p).all():
        raise ValueError("target must be finite")
    sign = geom.knee_sign if branch is None else branch
    if sign not in (-1, 1):
        raise ValueError("branch must be +1 or -1")
    x, y, z = (p - geom.hip_mount).tolist()
    q_aa, q_hip, q_knee, rho, r, cos_knee = _leg_ik_core(x, y, z, geom, sign, math)
    for failed, deficit, message, distance, limit in _reach_tests(rho, r, cos_knee, geom):
        if failed:
            raise UnreachableError(message.format(distance, limit), deficit_mm=deficit)
    return np.array([q_aa, q_hip, q_knee])


def _leg_ik_stack(p, geom: LegGeometry) -> tuple[np.ndarray, np.ndarray]:
    # leg_ik over (N, 3) finite targets in one array pass: returns the
    # (N, 3) joint angles and the (N,) mask of the targets leg_ik rejects
    # as unreachable (their angles are clamped stand-ins).
    v = p - geom.hip_mount
    *q, rho, r, cos_knee = _leg_ik_core(v[:, 0], v[:, 1], v[:, 2], geom, geom.knee_sign, np)
    lateral, extension, fold = (test[0] for test in _reach_tests(rho, r, cos_knee, geom))
    return np.stack(q, axis=-1), lateral | extension | fold


def leg_jacobian(q_leg, geom: LegGeometry) -> np.ndarray:
    """Analytic Jacobian d(foot position)/d(joint angles) in mm/rad.

    Array-first like leg_fk: q_leg is (..., 3) joint angles and the result
    is (..., 3, 3), column j the foot velocity per unit rate of joint j.
    """
    q = np.asarray(q_leg, dtype=float)
    lib = math if q.ndim == 1 else np
    q_aa, q_hip, q_knee = q[..., 0], q[..., 1], q[..., 2]
    xp, zp = _planar_foot(q_hip, q_knee, geom, lib)
    y = geom.side_sign * geom.hip_offset_y
    c, s = lib.cos(q_aa), lib.sin(q_aa)
    kx, kz = geom.l_lower * lib.cos(q_hip + q_knee), geom.l_lower * lib.sin(q_hip + q_knee)
    jac = np.zeros(q.shape + (3,))
    # d/dq_aa of Rx(q_aa) (xp, y, zp) is x_hat x (Rx (xp, y, zp)); the hip
    # and knee columns are Rx (-zp, 0, xp) and Rx (kx, 0, kz).
    jac[..., 1, 0] = -(s * y + c * zp)
    jac[..., 2, 0] = c * y - s * zp
    jac[..., 0, 1] = -zp
    jac[..., 1, 1] = -s * xp
    jac[..., 2, 1] = c * xp
    jac[..., 0, 2] = kx
    jac[..., 1, 2] = -s * kz
    jac[..., 2, 2] = c * kz
    return jac


def platform_corners(pose: PlatformPose, geom: PlatformGeometry) -> np.ndarray:
    """Body-frame positions of the corner ball joints for a pose: (4, 3)
    for one pose, (N, 4, 3) for a stacked pose of N samples."""
    r = pose.rotation()
    return ((geom.home_center + pose.position)[..., None, :]
            + geom.corner_offsets @ np.swapaxes(r, -1, -2))


def _lower_link_rotation(q_leg) -> np.ndarray:
    # Body-frame orientation (..., 3, 3) of the lower link (the foot that carries
    # the ball-joint socket) for (..., 3) joint angles: rot_x(q_aa) @ rot_y(-(q_hip + q_knee)).
    q_aa, q_hip, q_knee = q_leg[..., 0], q_leg[..., 1], q_leg[..., 2]
    return _plane_rotations(q_aa, 1, 2) @ _plane_rotations(-(q_hip + q_knee), 2, 0)


def pivot_angles_deg(q, robot, platform: PlatformGeometry, pose: PlatformPose) -> np.ndarray:
    """Ball-joint pivot angle per corner (deg).

    The stud is normal to the platform; the socket axis is the material
    direction of the distal link that coincides with the stud at the home
    pose (the press-fit assembly orientation).  The pivot is the angle
    between the two: zero at home, growing as the platform tilts or the
    leg swings away from its home configuration.

    Array-first: q is (12,) with one pose or (N, 12) with a stacked pose of
    N samples, and the result is (4,) or (N, 4).
    """
    home_axes = _home_socket_axes(tuple(robot), platform)
    legs = np.asarray(q, dtype=float).reshape(*np.shape(q)[:-1], 4, 3)
    sockets = (_lower_link_rotation(legs) @ home_axes[:, :, None])[..., 0]
    normal = pose.rotation()[..., None, :, 2]  # R @ z, once per corner
    return np.degrees(np.arccos(np.clip(np.sum(sockets * normal, axis=-1), -1.0, 1.0)))


@functools.lru_cache(maxsize=16)
def _home_socket_axes(legs: tuple, platform: PlatformGeometry) -> np.ndarray:
    # Socket axis of each lower link at the home pose, (4, 3) and read-only:
    # row 2 of its home orientation, R^T z.  Keyed on the frozen geometry objects.
    home_corners = platform.home_center + platform.corner_offsets
    q_home = np.array([leg_ik(corner, leg) for corner, leg in zip(home_corners, legs)])
    axes = _lower_link_rotation(q_home)[:, 2]
    axes.flags.writeable = False
    return axes


def outside_box(positions, orientations_deg, limits: WorkspaceLimits) -> np.ndarray:
    """Mask over the leading axes of (..., 3) positions and orientations:
    True where a pose is outside the translation/rotation box.

    Same comparisons as check_pose_bounds, which lists the violations of
    one pose and is cheaper on one pose than this array test.
    """
    bounds = np.array([limits.x_max, limits.y_max, limits.z_max])
    return (np.any(np.abs(positions) > bounds, axis=-1)
            | np.any(np.abs(orientations_deg) > limits.rot_max, axis=-1))


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
    angles = report.pivot_angles_deg = pivot_angles_deg(q, robot, platform, pose)
    for i in np.flatnonzero(angles > limits.ball_pivot_max):
        report.pivot_violations.append((LEG_NAMES[i], float(angles[i]), limits.ball_pivot_max))
    legs = q.reshape(4, 3)
    limit = np.radians([geom.joint_limit_deg for geom in robot])
    for i, j in np.argwhere(np.abs(legs) > limit[:, None]):
        report.joint_limit_violations.append(
            (f"{LEG_NAMES[i]}_{JOINT_NAMES[j]}", math.degrees(legs[i, j]), robot[i].joint_limit_deg)
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

    A stacked pose (position and orientation_deg (N, 3)) gives (N, 12) in
    one array pass: one box mask, an (N, 3, 3) rotation stack, (N, 4, 3)
    corners, one closed-form IK pass and one leg_fk re-check per leg, and
    with check_pivot one (N, 4) pivot_angles_deg pass.  The samples these
    masks flag (NaN included) are solved again one at a time by the
    one-pose path, in sample order: a stack raises what its first failing
    sample raises alone, with " at sample k" added to the message, and a
    flagged sample that solves keeps that q.

    Raises:
        WorkspaceViolationError: pose outside the box (limits given).
        UnreachableError: some corner is out of a leg's reach; .leg names it.
        BallPivotError: pivot cone exceeded (check_pivot=True only).
    """
    if pose.position.ndim == 2:
        return _solve_platform_ik_stack(pose, robot, platform, limits, check_pivot)
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


def _solve_platform_ik_stack(pose, robot, platform, limits, check_pivot) -> np.ndarray:
    # The stacked case of solve_platform_ik.
    n = len(pose.position)
    flagged = np.zeros(n, dtype=bool)
    if limits is not None:
        flagged |= outside_box(pose.position, pose.orientation_deg, limits)
    corners = platform_corners(pose, platform)
    q = np.empty((n, NUM_JOINTS))
    for i, geom in enumerate(robot):
        q_leg, unreachable = _leg_ik_stack(corners[:, i], geom)
        err = np.linalg.norm(leg_fk(q_leg, geom) - corners[:, i], axis=-1)
        # not (err <= bound) also flags a NaN error
        flagged |= unreachable | np.logical_not(err <= 1e-6)
        q[:, 3 * i : 3 * i + 3] = q_leg
    if check_pivot and limits is not None:
        pivot = pivot_angles_deg(q, robot, platform, pose)
        flagged |= np.logical_not(pivot.max(axis=-1) <= limits.ball_pivot_max)
    for k in np.flatnonzero(flagged):
        one = PlatformPose(pose.position[k], pose.orientation_deg[k])
        try:
            q[k] = solve_platform_ik(one, robot, platform, limits, check_pivot)
        except ValueError as err:
            err.args = (f"{err}{at_sample(int(k))}",)
            raise
    return q
