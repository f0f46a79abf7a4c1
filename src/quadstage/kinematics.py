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
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import (DEGENERACY_EPS, _CLIP_UNIT, _check, _distinct_rows, _dot, _euler_rows, at_sample,
                       euler_to_rotation)

LEG_NAMES = ("fl", "fr", "bl", "br")
JOINT_NAMES = ("hip_aa", "hip_fe", "knee_fe")
NUM_JOINTS = 12


def check_fields(obj, positive=(), non_negative=()) -> None:
    """ValueError "<name>: <reason>" for a dataclass's first bad number.

    The positive fields must be positive, then the non_negative ones >= 0
    (NaN fails both); then, by (deferred, so string) annotation, every float
    or array entry must be finite and every int a whole number that a float
    can hold.
    """
    for name in positive:
        if not getattr(obj, name) > 0:
            raise ValueError(f"{name}: must be positive")
    for name in non_negative:
        if not getattr(obj, name) >= 0:
            raise ValueError(f"{name}: must be >= 0")
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in ("float", "np.ndarray", "float | np.ndarray") and not np.isfinite(value).all():
            raise ValueError(f"{f.name}: must be finite")
        if f.type == "int" and not value % 1 == 0:
            raise ValueError(f"{f.name}: must be a whole number")
        if f.type == "int" and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{f.name}: must be finite")


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
        hip_mount = np.array(self.hip_mount, dtype=float)  # a copy: the caller's array stays writable
        if hip_mount.shape != (3,):
            raise ValueError("hip_mount must be a 3-vector")
        hip_mount.flags.writeable = False
        object.__setattr__(self, "hip_mount", hip_mount)
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        if self.knee_sign not in (-1, 1):
            raise ValueError("knee_sign must be +1 or -1")
        check_fields(self, positive=("l_upper", "l_lower", "joint_limit_deg"))

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
        check_fields(self, positive=("length_x", "width_y", "home_height"), non_negative=("z_offset",))
        # The reconstruction normalizes the corner triad, of lengths length_x, width_y and their product.
        if min(self.length_x, self.width_y, self.length_x * self.width_y) < DEGENERACY_EPS:
            side = "length_x" if self.length_x <= self.width_y else "width_y"
            raise ValueError(f"{side}: corner rectangle too small to reconstruct "
                             f"(side or area below {DEGENERACY_EPS:g})")
        hx, hy, z0 = self.length_x / 2.0, self.width_y / 2.0, self.z_offset
        corners = np.array([[hx, hy, -z0], [hx, -hy, -z0], [-hx, hy, -z0], [-hx, -hy, -z0]])
        center = np.array([0.0, 0.0, -self.home_height + z0])
        corners.flags.writeable = center.flags.writeable = False
        object.__setattr__(self, "corner_offsets", corners)
        object.__setattr__(self, "home_center", center)


@dataclass(eq=False)
class PlatformPose:
    """Stage pose: center position (mm, relative to home) and intrinsic
    x-y-z Euler orientation (degrees).

    position and orientation_deg are 3-vectors for one pose, or both
    (N, 3) for a stacked pose of N samples (which solve_platform_ik solves
    in one array pass); a non-finite stack names its first bad sample.
    """

    position: np.ndarray
    orientation_deg: np.ndarray

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.orientation_deg = np.asarray(self.orientation_deg, dtype=float)
        if (self.position.shape[-1:] != (3,) or self.position.ndim > 2
                or self.orientation_deg.shape != self.position.shape):
            raise ValueError("position and orientation_deg must be 3-vectors or (N, 3) stacks")
        finite = np.isfinite(self.position) & np.isfinite(self.orientation_deg)
        if not finite.all():  # then name the first bad sample of a stack
            _check(np.logical_not(np.all(finite, axis=-1)), ValueError, "pose must be finite")

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
        check_fields(self, positive=("x_max", "y_max", "z_max", "rot_max", "ball_pivot_max"))


@dataclass(eq=False)
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
    in radians and the result is (..., 3); a (3,) q_leg is the N = 1 case.
    """
    q = np.asarray(q_leg, dtype=float)
    foot = np.empty_like(q)
    foot[..., 0], foot[..., 1], foot[..., 2] = _leg_fk_core(q[..., 0], q[..., 1], q[..., 2], geom, np)
    foot += geom.hip_mount
    return foot


def _leg_fk_core(q_aa, q_hip, q_knee, geom: LegGeometry, lib):
    # leg_fk's foot from the hip mount, Rx(q_aa) @ (xp, y, zp), as (x, y, z):
    # math scalars for one configuration or numpy arrays for a stack.
    xp, zp = _planar_foot(q_hip, q_knee, geom, lib)
    y = geom.side_sign * geom.hip_offset_y
    c, s = lib.cos(q_aa), lib.sin(q_aa)
    return xp, c * y - s * zp, s * y + c * zp


def _leg_ik_core(x, y, z, geom: LegGeometry, lib):
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
    q_knee = geom.knee_sign * lib.acos(clip(cos_knee))
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


def leg_ik(p_target, geom: LegGeometry) -> np.ndarray:
    """Closed-form joint angles placing the foot at p_target (body frame).

    The hip abduction angle is solved from the y-z projection so the leg
    plane passes through the target at the configured lateral offset; the
    remaining planar two-link problem is solved by the law of cosines, on
    the elbow branch that geom.knee_sign picks.

    Raises:
        UnreachableError: with the distance still missing (deficit_mm) when
            the target is closer to the hip axis than the lateral offset
            allows, beyond full extension, or inside the fold radius
            (tested in that order).
        ValueError: p_target is not a finite 3-vector.
    """
    p = np.asarray(p_target, dtype=float)
    if p.shape != (3,):
        raise ValueError(f"target must be (3,), got {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("target must be finite")
    return np.array(_leg_ik_floats(*(p - geom.hip_mount).tolist(), geom))


def _leg_ik_floats(x, y, z, geom: LegGeometry, leg: int | None = None) -> list:
    # leg_ik on a finite target (x, y, z) from the hip mount, Python floats: the
    # joint angles, or leg_ik's UnreachableError, led by "leg <name>: " for a leg index.
    q_aa, q_hip, q_knee, rho, r, cos_knee = _leg_ik_core(x, y, z, geom, math)
    for failed, deficit, message, distance, limit in _reach_tests(rho, r, cos_knee, geom):
        if failed:
            message = message.format(distance, limit)
            raise UnreachableError(message if leg is None else f"leg {LEG_NAMES[leg]}: {message}", deficit, leg)
    return [q_aa, q_hip, q_knee]


def _leg_ik_stack(p, geom: LegGeometry) -> tuple[np.ndarray, np.ndarray]:
    # leg_ik over (N, 3) finite targets in one array pass: returns the
    # (N, 3) joint angles and the (N,) mask of the targets leg_ik rejects
    # as unreachable (their angles are clamped stand-ins).
    v = p - geom.hip_mount
    *q, rho, r, cos_knee = _leg_ik_core(v[:, 0], v[:, 1], v[:, 2], geom, np)
    lateral, extension, fold = (test[0] for test in _reach_tests(rho, r, cos_knee, geom))
    return np.stack(q, axis=-1), lateral | extension | fold


def leg_jacobian(q_leg, geom: LegGeometry) -> np.ndarray:
    """Analytic Jacobian d(foot position)/d(joint angles) in mm/rad.

    Array-first like leg_fk, (3,) the N = 1 case: q_leg is (..., 3) joint
    angles and the result is (..., 3, 3), column j the foot velocity per
    unit rate of joint j.
    """
    q = np.asarray(q_leg, dtype=float)
    q_aa, q_hip, q_knee = q[..., 0], q[..., 1], q[..., 2]
    xp, zp = _planar_foot(q_hip, q_knee, geom, np)
    y = geom.side_sign * geom.hip_offset_y
    c, s = np.cos(q_aa), np.sin(q_aa)
    kx, kz = geom.l_lower * np.cos(q_hip + q_knee), geom.l_lower * np.sin(q_hip + q_knee)
    jac = np.zeros(q.shape + (3,))
    # d/dq_aa of Rx(q_aa) (xp, y, zp) is x_hat x (Rx (xp, y, zp)); the hip
    # and knee columns are Rx (-zp, 0, xp) and Rx (kx, 0, kz).
    jac[..., 1, 0] = -(s * y + c * zp)
    jac[..., 0, 1] = -zp
    jac[..., 1, 1] = -s * xp
    jac[..., 0, 2] = kx
    jac[..., 1, 2] = -s * kz
    jac[..., 2, 0], jac[..., 2, 1], jac[..., 2, 2] = _foot_z_row(q_aa, q_hip, q_knee, geom, np)
    return jac


def _foot_z_row(q_aa, q_hip, q_knee, geom: LegGeometry, lib):
    # leg_jacobian's row 2, d(foot_z)/dq of foot_z = s y + c zp, as three
    # components: math scalars for one configuration or numpy arrays.
    xp, zp = _planar_foot(q_hip, q_knee, geom, lib)
    y = geom.side_sign * geom.hip_offset_y
    c, s = lib.cos(q_aa), lib.sin(q_aa)
    return c * y - s * zp, c * xp, c * (geom.l_lower * lib.sin(q_hip + q_knee))


def platform_corners(pose: PlatformPose, geom: PlatformGeometry) -> np.ndarray:
    """Body-frame positions of the corner ball joints for a pose: (4, 3)
    for one pose, (N, 4, 3) for a stacked pose of N samples."""
    return _corners(pose.position, pose.rotation(), geom)


def _corners(position, r, geom: PlatformGeometry) -> np.ndarray:
    # platform_corners of a pose's position, with its rotation r already built.
    return ((geom.home_center + position)[..., None, :]
            + geom.corner_offsets @ np.swapaxes(r, -1, -2))


def pivot_angles_deg(q, robot, platform: PlatformGeometry, pose: PlatformPose) -> np.ndarray:
    """Ball-joint pivot angle per corner (deg).

    The stud is normal to the platform; the socket axis is the material
    direction of the distal link that coincides with the stud at the home
    pose (the press-fit assembly orientation).  The pivot is the angle
    between the two: zero at home, growing as the platform tilts or the
    leg swings away from its home configuration.

    Array-first: q is (12,) with one pose or (N, 12) with a stacked pose of
    N samples, and the result is (4,) or (N, 4).  One pose runs on floats
    and equals its stacked row bit for bit.
    """
    return _pivot_angles(q, robot, platform, pose.rotation())


def _pivot_angles(q, robot, platform: PlatformGeometry, r) -> np.ndarray:
    # pivot_angles_deg with the pose's rotation r already built.  Both paths
    # take np.arccos of the cosines: math.acos can differ in the last bit.
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        lib, joints, normal = math, q.tolist(), r[:, 2].tolist()
    else:
        lib, joints, normal = np, np.moveaxis(q, -1, 0), np.moveaxis(r[..., 2], -1, 0)
    cosines = [_pivot_cos(*joints[3 * i : 3 * i + 3], axis, normal, lib)
               for i, axis in enumerate(_home_socket_axes(tuple(robot), platform))]
    cosines = np.array(cosines) if lib is math else np.stack(cosines, axis=-1)  # np.stack is slow on floats
    return np.degrees(np.arccos(cosines))


def _pivot_cos(q_aa, q_hip, q_knee, home_axis, normal, lib):
    # Cosine of one corner's pivot angle, clipped into [-1, 1]: the socket
    # axis Rx(q_aa) @ Ry(-(q_hip + q_knee)) @ home_axis, the lower link's
    # orientation applied to its home socket axis, dotted with the normal R z.
    link = _euler_rows(q_aa, -(q_hip + q_knee), 0.0, lib)
    return _CLIP_UNIT[lib](_dot([_dot(row, home_axis) for row in link], normal))


@functools.lru_cache(maxsize=16)
def _home_socket_axes(legs: tuple, platform: PlatformGeometry) -> tuple:
    # Socket axis (3-tuple) of each lower link at the home pose: row 2 of its home
    # orientation Rx(q_aa) @ Ry(-(q_hip + q_knee)), R^T z.  Keyed on the frozen geometry.
    home_corners = platform.home_center + platform.corner_offsets
    q_home = [leg_ik(corner, leg).tolist() for corner, leg in zip(home_corners, legs)]
    return tuple(_euler_rows(q_aa, -(q_hip + q_knee), 0.0, math)[2] for q_aa, q_hip, q_knee in q_home)


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
    bounds = (limits.x_max, limits.y_max, limits.z_max)
    trans = [(f"{a}_mm", v, b) for a, v, b in zip("xyz", pose.position.tolist(), bounds) if abs(v) > b]
    rot = [(f"r{a}_deg", v, limits.rot_max) for a, v in zip("xyz", pose.orientation_deg.tolist())
           if abs(v) > limits.rot_max]
    return trans, rot


def _joint_vector(q) -> np.ndarray:
    # q as a (12,) float array, or ValueError if it is not a finite 12-vector.
    q = np.asarray(q, dtype=float)
    if q.shape != (NUM_JOINTS,):
        raise ValueError(f"q must be ({NUM_JOINTS},), got {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError("q must be finite")
    return q


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
    against the pivot cone and any soft joint-limit excursions.  A stacked
    pose, or a q that is not a finite 12-vector, raises ValueError, as in
    reconstruct_pose.
    """
    if pose.position.shape != (3,):
        raise ValueError(f"pose position must be (3,), got {pose.position.shape}")
    if q is not None:
        q = _joint_vector(q)
    trans, rot = check_pose_bounds(pose, limits)
    if q is None or robot is None or platform is None:
        return WorkspaceReport(not (trans or rot), trans, rot)
    angles = pivot_angles_deg(q, robot, platform, pose)
    cone = limits.ball_pivot_max
    pivot = [(leg, angle, cone) for leg, angle in zip(LEG_NAMES, angles.tolist()) if angle > cone]
    joints = [(f"{leg}_{name}", math.degrees(angle), geom.joint_limit_deg)
              for leg, geom, q_leg in zip(LEG_NAMES, robot, q.reshape(4, 3).tolist())
              for name, angle in zip(JOINT_NAMES, q_leg) if abs(angle) > math.radians(geom.joint_limit_deg)]
    return WorkspaceReport(not (trans or rot or pivot or joints), trans, rot, angles, pivot, joints)


def solve_platform_ik(
    pose: PlatformPose,
    robot,
    platform: PlatformGeometry,
    limits: WorkspaceLimits | None = None,
    check_pivot: bool = False,
) -> np.ndarray:
    """Joint vector (12,) placing all four feet on the posed corners.

    When limits are given the pose is first checked against the workspace
    box; the pivot cone is additionally enforced only with check_pivot,
    which needs limits (routine poses inside the box can exceed it, so by
    default pivot angles are reported through workspace_check instead of
    rejected here).

    One pose builds its rotation once and solves on Python floats: leg_ik's
    closed form for every leg first (the first unreachable leg raises),
    then leg_fk's re-check of every leg to 1e-6 mm, then with check_pivot
    the cone, on pivot_angles_deg's bits.

    A stacked pose (position and orientation_deg (N, 3)), such as a
    postprocess.PoseSeries passed as is, gives (N, 12) in one array pass
    over its D distinct rows (by their bits), whose q each sample takes:
    one box mask, a (D, 3, 3) rotation stack, (D, 4, 3) corners, one
    closed-form IK pass and one leg_fk re-check per leg, and with
    check_pivot one (D, 4) pivot_angles_deg pass.  The samples these
    masks flag (NaN included) are solved again one at a time by the
    one-pose path, in sample order: a stack raises what its first failing
    sample raises alone, with " at sample k" added to the message, and a
    flagged sample that solves keeps that q.

    Raises:
        WorkspaceViolationError: pose outside the box (limits given).
        UnreachableError: some corner is out of a leg's reach; .leg names it.
        BallPivotError: pivot cone exceeded (check_pivot=True only).
        ValueError: check_pivot without limits.
    """
    if check_pivot and limits is None:
        raise ValueError("check_pivot: needs limits")
    if pose.position.ndim == 2:
        return _solve_platform_ik_stack(pose, robot, platform, limits, check_pivot)
    if limits is not None:
        trans, rot = check_pose_bounds(pose, limits)
        if trans or rot:
            raise WorkspaceViolationError(trans + rot)
    r = pose.rotation()
    corners = _corners(pose.position, r, platform).tolist()
    legs = [(geom, corner, geom.hip_mount.tolist()) for geom, corner in zip(robot, corners)]
    q = []
    for i, (geom, (cx, cy, cz), (hx, hy, hz)) in enumerate(legs):
        q += _leg_ik_floats(cx - hx, cy - hy, cz - hz, geom, i)
    for i, (geom, (cx, cy, cz), (hx, hy, hz)) in enumerate(legs):
        # leg_fk(q_leg, geom) - corner, in leg_fk's order of operations
        fx, fy, fz = _leg_fk_core(*q[3 * i : 3 * i + 3], geom, math)
        err = math.hypot(hx + fx - cx, hy + fy - cy, hz + fz - cz)
        if not err <= 1e-6:
            raise KinematicsError(f"leg {LEG_NAMES[i]} solution inconsistent: {err:.2e} mm")
    if check_pivot:
        angles = _pivot_angles(q, robot, platform, r)
        worst = int(np.argmax(angles))
        if angles[worst] > limits.ball_pivot_max:
            raise BallPivotError(worst, float(angles[worst]), limits.ball_pivot_max)
    return np.array(q)


def _solve_platform_ik_stack(pose, robot, platform, limits, check_pivot) -> np.ndarray:
    # The stacked case of solve_platform_ik, its array passes run once per distinct pose row.
    first, inverse = _distinct_rows(np.hstack((pose.position, pose.orientation_deg)))
    position, orientation = pose.position[first], pose.orientation_deg[first]
    flagged = np.zeros(len(first), dtype=bool)
    if limits is not None:
        flagged |= outside_box(position, orientation, limits)
    try:
        r = euler_to_rotation(orientation)
    except ValueError:  # an array edited to NaN after its check: name the sample
        r = euler_to_rotation(pose.orientation_deg)
    corners = _corners(position, r, platform)
    q = np.empty((len(first), NUM_JOINTS))
    with np.errstate(over="ignore", invalid="ignore"):  # a row that overflows is flagged, then solved alone
        for i, geom in enumerate(robot):
            q_leg, unreachable = _leg_ik_stack(corners[:, i], geom)
            err = np.linalg.norm(leg_fk(q_leg, geom) - corners[:, i], axis=-1)
            # not (err <= bound) also flags a NaN error
            flagged |= unreachable | np.logical_not(err <= 1e-6)
            q[:, 3 * i : 3 * i + 3] = q_leg
    if check_pivot:
        pivot = _pivot_angles(q, robot, platform, r)
        flagged |= np.logical_not(pivot.max(axis=-1) <= limits.ball_pivot_max)
    q, flagged = q[inverse], flagged[inverse]
    for k in np.flatnonzero(flagged):
        one = PlatformPose(pose.position[k], pose.orientation_deg[k])
        try:
            q[k] = solve_platform_ik(one, robot, platform, limits, check_pivot)
        except ValueError as err:
            err.args = (f"{err}{at_sample(int(k))}",)
            raise
    return q
